"""Faults put into the protocols and the network on purpose. A verifier
must report each one as a labelled failure: `verified` false and an entry
that names the failing positions, in exhaustive and in sampled mode, with
no traceback, and the CLI exits 1."""

import json

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
    """The cat-entangler broadcasts the opposite of its measured bit, so
    every member's X correction fires on exactly the rows it should not."""

    def message(sender, to, bit, tag):
        return ClassicalMessage(sender, to, bit ^ 1 if tag.endswith(":broadcast") else bit, tag)

    monkeypatch.setattr(primitives, "ClassicalMessage", message)
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


FAULTS = [no_entangler_x, x_measurement_in_z, no_disentangler_z, flipped_broadcast_bit, skipped_parity_message, one_ebit_short]


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
