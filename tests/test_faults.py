"""Faults put into the protocols and the network on purpose. A verifier
must report each one as a labelled failure: `verified` false and an entry
that names the failing positions, in exhaustive and in sampled mode, with
no traceback, and the CLI exits 1."""

import json
import re

import pytest

from catnet import primitives, qft
from catnet.cli import main
from catnet.gates import IDENTITY
from catnet.network import ClassicalMessage, Network
from catnet.verify import VERIFIERS, verify_qft

DIVERGES = "BranchDivergenceError"


@pytest.fixture
def no_reset_after_distribution(monkeypatch):
    """The transform leaves each distribution's two pair qubits measured:
    the next distribution then probes a channel qubit that reads 0 on some
    rows and 1 on others."""
    monkeypatch.setattr(qft, "reset_channel_qubits", lambda net, records: [])


@pytest.mark.parametrize(
    "branches,label",
    [("exhaustive", "branch000000000000..branch111111111111"), ("sampled", "sample0..sample199")],
)
def test_transform_without_channel_resets_is_a_labelled_failure(no_reset_after_distribution, branches, label):
    rep = verify_qft(n=4, m=2, amortized=True, branches=branches)
    assert rep.verified is False
    errors = [f for f in rep.details["failures"] if "error" in f]
    assert [(f["case"], f["error"]) for f in errors] == [(label, DIVERGES)]
    assert "M1.channel[0]" in errors[0]["message"]


def test_transform_without_channel_resets_exits_1(no_reset_after_distribution, capsys):
    assert main(["verify", "qft"]) == 1
    out, err = capsys.readouterr()
    assert DIVERGES in out and "Traceback" not in out + err


def no_entangler_x(monkeypatch):
    """The cat-entangler's X corrections are dropped: a member whose control
    copy was measured as 1 is never flipped to match. The split C4X runs
    no entangler, so it alone still verifies."""
    monkeypatch.setattr(primitives, "X", IDENTITY)
    return [name for name in VERIFIERS if name != "decompose-c4x"]


def x_measurement_in_z(monkeypatch):
    """Every X-basis measurement (the disentangler's, the split C4X's) is
    made in the Z basis instead: no phase repair can follow."""
    monkeypatch.setattr(Network, "measure_x", Network.measure)
    return list(VERIFIERS)


def no_disentangler_z(monkeypatch):
    """The cat-disentangler's Z correction is dropped: the sign that an
    X-basis outcome of 1 leaves on the survivor is never repaired. The
    split C4X runs no disentangler, so it alone still verifies."""
    monkeypatch.setattr(primitives, "Z", IDENTITY)
    return [name for name in VERIFIERS if name != "decompose-c4x"]


def flipped_broadcast_bit(monkeypatch):
    """Every broadcast delivers the opposite of the bit its sources carry, so
    every member's X correction fires on exactly the rows it should not."""
    bit = ClassicalMessage.bit.fget
    monkeypatch.setattr(ClassicalMessage, "bit", property(lambda msg: bit(msg) ^ msg.tag.endswith(":broadcast")))
    return [name for name in VERIFIERS if name != "decompose-c4x"]


def skipped_parity_message(monkeypatch):
    """The disentangler's parity message is never sent: the Z correction
    that reads it raises CausalityError. Every protocol but the split C4X
    shrinks a share across nodes."""
    send = Network.send_cbit
    monkeypatch.setattr(Network, "send_cbit", lambda net, msg: msg if msg.tag.endswith(":parity") else send(net, msg))
    return [name for name in VERIFIERS if name != "decompose-c4x"]


def one_ebit_short(monkeypatch):
    """The Network charges each spent pair or cat one ebit too few. Every
    verifier prices at least one section in ebits, so all eleven fail."""
    measure = Network._measure

    def short(net, addr, x_basis):
        ebits = net.ledger.ebits_consumed
        record = measure(net, addr, x_basis)
        if net.ledger.ebits_consumed > ebits:
            net.ledger.ebits_consumed -= 1
        return record

    monkeypatch.setattr(Network, "_measure", short)
    return list(VERIFIERS)


def forged_parity_sources(monkeypatch):
    """Each of the disentangler's parity messages names every record the
    shrink dropped, not only its sender's: the Network refuses a source its
    sender never held with CausalityError. That shows only where a shrink
    drops records on more than one node, which only the shrinks over three
    or more nodes do: the cat round trip's and the parallel control's."""
    measure_x, send = Network.measure_x, Network.send_cbit
    # id of each X-basis record -> the record, kept so that no later record
    # takes its id, and the round it was measured in
    stamps = {}

    def stamped(net, addr):
        rec = measure_x(net, addr)
        stamps[id(rec)] = (rec, net.ledger.rounds)
        return rec

    def forged(net, msg):
        if msg.tag.endswith(":parity"):
            _, shrink_round = stamps[id(msg.sources[0])]
            dropped = [r for r in net.records if stamps.get(id(r), (r, None))[1] == shrink_round]
            msg = ClassicalMessage(msg.sender, msg.to, dropped, msg.tag)
        return send(net, msg)

    monkeypatch.setattr(Network, "measure_x", stamped)
    monkeypatch.setattr(Network, "send_cbit", forged)
    return ["cat-roundtrip", "parallel-control"]


def amortization_off(monkeypatch):
    """The transform's schedule ignores `amortized`: every rotation takes a
    distribution of its own. The ledger still matches the plan, which counts
    from the same schedule, so only the closed form of the amortized count
    catches it."""
    steps = qft._steps
    monkeypatch.setattr(qft, "_steps", lambda n, k, amortized: steps(n, k, False))
    return ["qft"]


FAULTS = [
    no_entangler_x,
    x_measurement_in_z,
    no_disentangler_z,
    flipped_broadcast_bit,
    skipped_parity_message,
    one_ebit_short,
    forged_parity_sources,
    amortization_off,
]


@pytest.mark.parametrize("fault", FAULTS)
def test_verify_all_reports_every_fault_as_a_labelled_failure(fault, monkeypatch, capsys):
    """With the fault in, `catnet verify all` exits 1 and prints all eleven
    reports, each broken one unverified with labelled failures, and writes
    nothing to stderr."""
    broken = fault(monkeypatch)
    assert main(["verify", "all"]) == 1
    out, err = capsys.readouterr()
    reports = json.loads(out)
    assert len(reports) == 11 and [r["protocol"] for r in reports] == list(VERIFIERS)
    assert [r["protocol"] for r in reports if r["verified"] is not True] == broken
    for r in reports:
        if r["protocol"] in broken:
            assert r["details"]["failures"] and all(f["case"] for f in r["details"]["failures"])
    assert err == "" and "Traceback" not in out


@pytest.mark.parametrize("branches", ["exhaustive", "sampled"])
def test_verify_qft_amortized_catches_a_schedule_without_amortization(branches, monkeypatch, capsys):
    """`catnet verify qft --amortized` checks the plan's amortized count
    against its closed form n(m - 1)/2, not against the schedule that also
    runs the transform, so a schedule that ignores `amortized` fails there."""
    amortization_off(monkeypatch)
    assert main(["verify", "qft", "--amortized", "--branches", branches]) == 1
    out, err = capsys.readouterr()
    [report] = json.loads(out)
    assert report["verified"] is False and err == ""
    assert report["details"]["failures"] == [{"case": "counts:amortized", "actual": 4}]


def test_forged_parity_sources_fail_as_causality_errors(monkeypatch):
    """A parity message that names another node's record is refused by the
    Network at send_cbit, and the sweep labels every such failure."""
    forged_parity_sources(monkeypatch)
    for name in ("cat-roundtrip", "parallel-control"):
        errors = [f for f in VERIFIERS[name]().details["failures"] if "error" in f]
        assert errors and all(f["error"] == "CausalityError" for f in errors)
        assert all(re.fullmatch(r"bit measured at \w+ was never sent to \w+", f["message"]) for f in errors)
