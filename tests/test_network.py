"""Execution-model contracts: locality, rounds, messages, transport."""

import re
import subprocess
import sys

import numpy as np
import pytest

from catnet.errors import (
    CausalityError,
    ImpossibleBranchError,
    LocalityError,
    PoolError,
    PreconditionError,
    ResourceError,
)
from catnet import qstate
from catnet.gates import CNOT, SWAP, H, X, Z
from catnet.network import CHANNEL, REGISTER, ClassicalMessage, Network, QubitAddress
from catnet.verify import VERIFIERS

SQRT2_INV = 1 / np.sqrt(2)


def two_nodes(**kwargs):
    return Network([("A", 1, 1), ("B", 1, 1)], **kwargs)


def measured(net, addr, bit=0):
    """The record of measuring `addr`, a |0> qubit that an X first sets to
    `bit`: a source for a message that carries `bit`."""
    if bit:
        net.local_apply(X, [addr])
    return net.measure(addr)


# ---- addressing and ownership ---------------------------------------------


def test_global_index_layout():
    """Registers before channels, nodes in construction order."""
    net = Network([("A", 2, 1), ("B", 1, 2)])
    assert net.global_index(net.reg("A", 0)) == 0
    assert net.global_index(net.reg("A", 1)) == 1
    assert net.global_index(net.chan("A", 0)) == 2
    assert net.global_index(net.reg("B", 0)) == 3
    assert net.global_index(net.chan("B", 1)) == 5
    assert net.num_qubits == 6


def test_address_validation():
    net = two_nodes()
    with pytest.raises(ValueError):
        net.reg("C")
    with pytest.raises(ValueError):
        net.chan("A", 1)
    with pytest.raises(ValueError):
        Network([("A", 1, 1), ("A", 1, 1)])
    with pytest.raises(ValueError):
        Network([("A", 0, 0)])


BAD_ADDRESSES = {
    "unknown-node": ("Z", 0, "unknown node 'Z'"),
    "bad-slot": ("A", 3, "slot out of range for A.{pool}[3]"),
}


# every entry point that takes an address, with the pool it is given and a
# call on the bad address; `msg` is a message from B to A, sent beforehand
# for the one call that reads it (a network that holds a measurement record
# refuses inject_state before it reads an address)
ADDRESS_ENTRY_POINTS = {
    "reg": (REGISTER, lambda net, bad, msg: net.reg(bad.node, bad.slot)),
    "chan": (CHANNEL, lambda net, bad, msg: net.chan(bad.node, bad.slot)),
    "global_index": (REGISTER, lambda net, bad, msg: net.global_index(bad)),
    "local_apply": (REGISTER, lambda net, bad, msg: net.local_apply(H, [bad])),
    "measure": (REGISTER, lambda net, bad, msg: net.measure(bad)),
    "measure_x": (REGISTER, lambda net, bad, msg: net.measure_x(bad)),
    "classically_controlled_apply": (REGISTER, lambda net, bad, msg: net.classically_controlled_apply(msg, X, [bad])),
    "exchange_channel_qubits": (CHANNEL, lambda net, bad, msg: net.exchange_channel_qubits(bad, net.chan("B"))),
    "qubit_is": (REGISTER, lambda net, bad, msg: net.qubit_is(bad, 0)),
    "preshare_cat": (REGISTER, lambda net, bad, msg: net.preshare_cat([net.chan("B"), bad])),
    "inject_state": (REGISTER, lambda net, bad, msg: net.inject_state([bad], [1, 0])),
}


@pytest.mark.parametrize("kind", BAD_ADDRESSES)
@pytest.mark.parametrize("entry", ADDRESS_ENTRY_POINTS)
def test_every_entry_point_refuses_a_bad_address_alike(entry, kind):
    """An address outside the network raises the same error wherever it is
    given, before anything is charged or moved."""
    pool, call = ADDRESS_ENTRY_POINTS[entry]
    node, slot, text = BAD_ADDRESSES[kind]
    net = two_nodes(seed=0)
    msg = None
    if entry == "classically_controlled_apply":
        msg = net.send_cbit(ClassicalMessage("B", "A", [net.measure(net.reg("B"))], "bit"))
    ledger, ownership = net.ledger.as_dict(), dict(net.ownership)
    with pytest.raises(ValueError, match=re.escape(text.format(pool=pool))):
        call(net, QubitAddress(node, pool, slot), msg)
    assert net.ledger.as_dict() == ledger and net.ownership == ownership


def test_nodes_are_names_in_construction_order():
    assert Network([("B", 1, 0), ("A", 0, 1)]).nodes == ("B", "A")


def test_addresses_filtering():
    net = Network([("A", 2, 1), ("B", 0, 2)])
    assert len(net.addresses()) == 5
    assert net.addresses(node="A", pool=REGISTER) == [net.reg("A", 0), net.reg("A", 1)]
    assert net.addresses(pool=CHANNEL) == [net.chan("A"), net.chan("B", 0), net.chan("B", 1)]


def test_address_str():
    assert str(QubitAddress("A", CHANNEL, 2)) == "A.channel[2]"


# ---- locality -------------------------------------------------------------


def test_local_apply_spanning_nodes_rejected():
    net = two_nodes()
    with pytest.raises(LocalityError):
        net.local_apply(CNOT, [net.reg("A"), net.reg("B")])


def test_addresses_given_as_an_iterator_are_checked_like_a_list():
    """An operation reads its addresses more than once (resolved, then their
    nodes or names), so a one-shot iterator must not skip the second read."""
    net = two_nodes()
    with pytest.raises(LocalityError):
        net.local_apply(CNOT, iter([net.reg("A"), net.reg("B")]))
    net.local_apply(X, iter([net.chan("A")]))
    with pytest.raises(PreconditionError):
        net.preshare_cat(iter([net.chan("B"), net.chan("A")]))
    msg = net.send_cbit(ClassicalMessage("B", "A", [measured(net, net.reg("B"), 1)], "bit"))
    net.classically_controlled_apply(msg, X, iter([net.chan("A")]))
    assert net.qubit_is(net.chan("A"), 0)


def test_local_apply_within_node():
    net = Network([("A", 2, 0)])
    net.local_apply(H, [net.reg("A", 0)])
    net.local_apply(CNOT, [net.reg("A", 0), net.reg("A", 1)])
    assert np.allclose(net.state.amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV])


# ---- rounds ------------------------------------------------------------------


def test_each_op_is_one_round_outside_a_batch():
    net = Network([("A", 2, 0)])
    net.local_apply(H, [net.reg("A", 0)])
    net.local_apply(H, [net.reg("A", 1)])
    assert net.ledger.rounds == 2


def test_parallel_round_batches_disjoint_ops():
    net = Network([("A", 2, 0), ("B", 1, 0)])
    with net.parallel_round():
        net.local_apply(H, [net.reg("A", 0)])
        net.local_apply(H, [net.reg("A", 1)])
        net.local_apply(X, [net.reg("B")])
    assert net.ledger.rounds == 1


def test_parallel_round_rejects_overlap():
    net = Network([("A", 2, 0)])
    with pytest.raises(ValueError, match="disjoint"):
        with net.parallel_round():
            net.local_apply(H, [net.reg("A", 0)])
            net.local_apply(X, [net.reg("A", 0)])


def test_parallel_round_no_nesting():
    net = Network([("A", 1, 0)])
    with pytest.raises(ValueError):
        with net.parallel_round():
            with net.parallel_round():
                pass


def test_messages_charge_rounds():
    net = two_nodes()
    net.send_cbit(ClassicalMessage("A", "B", [measured(net, net.reg("A"), 1)], "ping"))
    assert net.ledger.rounds == 3  # the X, the measurement and the message


# ---- measurement and branch control -----------------------------------------


def test_measure_forced_and_queued():
    net = Network([("A", 1, 0)], seed=0)
    net.local_apply(H, [net.reg("A")])
    net.force_outcomes([1])
    rec = net.measure(net.reg("A"))
    assert rec.outcome == 1
    assert rec.address == net.reg("A")
    assert abs(rec.probability - 0.5) < 1e-12
    assert abs(net.branch_probability - 0.5) < 1e-12


def test_force_outcomes_queue():
    net = Network([("A", 2, 0)], seed=0)
    net.local_apply(H, [net.reg("A", 0)])
    net.local_apply(H, [net.reg("A", 1)])
    net.force_outcomes([1, 0])
    assert net.measure(net.reg("A", 0)).outcome == 1
    assert net.measure(net.reg("A", 1)).outcome == 0
    assert abs(net.branch_probability - 0.25) < 1e-12
    with pytest.raises(ValueError):
        net.force_outcomes([2])


def test_measure_impossible_branch():
    net = Network([("A", 1, 0)])
    net.force_outcomes([1])
    with pytest.raises(ImpossibleBranchError):
        net.measure(net.reg("A"))


def test_seeded_runs_are_reproducible():
    outcomes = []
    for _ in range(2):
        net = Network([("A", 4, 0)], seed=123)
        for slot in range(4):
            net.local_apply(H, [net.reg("A", slot)])
        outcomes.append([net.measure(net.reg("A", s)).outcome for s in range(4)])
    assert outcomes[0] == outcomes[1]


def test_forced_run_never_loads_numpy_random():
    """No run loads numpy.random: a forced run draws nothing from its
    generator, and every seeded input and sampled outcome of a CLI command
    comes from the standard library's random.Random."""
    commands = [["verify", name] for name in VERIFIERS] + [
        ["verify", "qft", "--amortized", "--branches", "exhaustive"],
        ["verify", "ghz", "--branches", "sampled"],
        ["demo", "teleport"],
        ["qft"],
    ]
    script = (
        "import contextlib, io, random, sys\n"
        "from catnet.cli import main\n"
        "from catnet.gates import H\n"
        "from catnet.network import Network\n"
        "net = Network([('A', 2, 0)], seed=5)\n"
        "net.local_apply(H, [net.reg('A')])\n"
        "net.force_outcomes([1])\n"
        "net.measure(net.reg('A'))\n"
        "assert net.rngs[0].getstate() == random.Random(5).getstate()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {commands!r}]\n"
        "print(codes, 'numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"{[0] * len(commands)} False"


def test_measure_x_is_one_round():
    net = Network([("A", 1, 0)])
    net.local_apply(H, [net.reg("A")])  # |+> is the X-basis 0 state
    net.force_outcomes([0])
    rec = net.measure_x(net.reg("A"))
    assert rec.outcome == 0
    assert abs(rec.probability - 1.0) < 1e-10
    assert net.ledger.rounds == 2  # the H prep and the one measurement step


def test_last_record():
    net = Network([("A", 1, 0)], seed=0)
    assert net.last_record(net.reg("A")) is None
    net.local_apply(H, [net.reg("A")])
    net.force_outcomes([0])
    rec = net.measure(net.reg("A"))
    assert net.last_record(net.reg("A")) is rec


# ---- classical messages ------------------------------------------------------


def test_cbits_count_remote_recipients_only():
    net = Network([("A", 1, 0), ("B", 1, 0), ("C", 1, 0)])
    rec = measured(net, net.reg("A"), 1)
    net.send_cbit(ClassicalMessage("A", ("B", "C"), [rec], "fan-out"))
    assert net.ledger.cbits_sent == 2
    net.send_cbit(ClassicalMessage("A", ("A", "B"), [rec], "self-and-remote"))
    assert net.ledger.cbits_sent == 3
    assert len(net.message_log) == 2
    with pytest.raises(ValueError):
        net.send_cbit(ClassicalMessage("A", "Z", [rec], "bad"))


@pytest.mark.parametrize("to", [("B", "B"), ()], ids=["repeated", "empty"])
def test_a_message_needs_distinct_recipients(to):
    """A recipient named twice would be charged twice for one delivery, and
    a message to no one would charge a round for nothing: both are refused
    before anything is charged or logged."""
    net = two_nodes()
    rec = measured(net, net.reg("A"), 1)
    with pytest.raises(ValueError, match="distinct recipients"):
        net.send_cbit(ClassicalMessage("A", to, [rec], "dup"))
    assert net.ledger.as_dict() == {"ebits": 0, "cbits": 0, "qubits_transported": 0, "rounds": 2}
    assert net.message_log == []


def test_message_to_is_normalized():
    net = two_nodes()
    rec = measured(net, net.reg("A"))
    msg = ClassicalMessage("A", "B", [rec], "t")
    assert msg.to == ("B",) and msg.sources == (rec,)


def test_a_node_cannot_send_a_bit_it_never_held():
    """A message carries the bits its sources name, and its sender must hold
    each one. Node A naming B's outcome as the source of a message to itself
    is refused at send_cbit, before any cbit, round or log entry, so no
    correction at A can read it. A message once carried any bit its caller
    handed in: this one was accepted with 0 cbits charged, and an X at A
    controlled by it fired on B's outcome."""
    net = Network([("A", 1, 0), ("B", 1, 0)], seed=0)
    net.local_apply(H, [net.reg("B")])
    rec = net.measure(net.reg("B"))
    ledger = net.ledger.as_dict()
    with pytest.raises(CausalityError, match=re.escape("bit measured at B was never sent to A")):
        net.send_cbit(ClassicalMessage("A", ("A",), [rec], "leak"))
    assert net.ledger.as_dict() == ledger and net.message_log == []


def test_a_message_needs_sources_this_network_made():
    """No sources raise ValueError, and a record made by another network
    raises CausalityError, both before anything is charged or logged."""
    net = two_nodes()
    foreign = measured(two_nodes(), QubitAddress("A", REGISTER, 0), 1)
    with pytest.raises(ValueError, match="names no source bits"):
        net.send_cbit(ClassicalMessage("A", "B", [], "empty"))
    with pytest.raises(CausalityError, match="does not belong to this network"):
        net.send_cbit(ClassicalMessage("A", "B", [foreign], "foreign"))
    assert net.ledger.as_dict() == {"ebits": 0, "cbits": 0, "qubits_transported": 0, "rounds": 0}
    assert net.message_log == []


def test_a_node_relays_a_message_it_was_sent():
    """A message may name a message its sender received: A's outcome
    reaches C through B, and C's correction fires on the rows where A read
    1. A message can be relayed only by a node it was sent to."""
    net = Network([(name, 1, 0) for name in "ABC"])
    net.local_apply(H, [net.reg("A")])
    net.split_outcomes(1)
    rec = net.measure(net.reg("A"))
    to_b = net.send_cbit(ClassicalMessage("A", "B", [rec], "hop"))
    relayed = net.send_cbit(ClassicalMessage("B", "C", [to_b], "relay"))
    fired = net.classically_controlled_apply(relayed, X, net.reg("C"))
    assert net.state.per_row(fired).tolist() == net.state.per_row(rec.outcome).tolist() == [0, 1]
    assert net.qubit_is(net.reg("C"), rec.outcome)
    to_c = net.send_cbit(ClassicalMessage("A", "C", [rec], "direct"))
    ledger = net.ledger.as_dict()
    with pytest.raises(CausalityError, match="message 'direct' from A was not addressed to B"):
        net.send_cbit(ClassicalMessage("B", "A", [to_c], "stolen"))
    assert net.ledger.as_dict() == ledger and ledger["cbits"] == 3
    assert [m.tag for m in net.message_log] == ["hop", "relay", "direct"]


@pytest.mark.parametrize("live", [False, True], ids=["fixed", "live"])
def test_qubit_is_refuses_a_bit_that_is_not_0_or_1(live):
    """The expected bit is checked where it enters, so what the probe
    accepts does not depend on whether the qubit is fixed or live."""
    net = Network([("A", 2, 1)])
    if live:
        net.local_apply(H, [net.reg("A", 1)])
    addr = net.reg("A", int(live))
    for bad in (2, -1, 0.5, [0, 2], np.array([1, 2])):
        with pytest.raises(ValueError, match="expected bit must be 0 or 1"):
            net.qubit_is(addr, bad)
    assert net.qubit_is(addr, 0) is not live and net.qubit_is(addr, np.array([0])) is not live


@pytest.mark.parametrize("split", [False, True], ids=["one-row", "split"])
def test_per_row_bits_must_fit_the_rows(split):
    """Per-row bits are checked against the state's grid where they enter
    a probe, which raises ValueError rather than BranchDivergenceError and
    charges nothing. A value over the grid's trailing axes fits, whatever
    its size-1 axes."""
    net = two_nodes()
    if split:
        net.local_apply(H, [net.reg("A")])
        net.split_outcomes(1)
        net.measure(net.reg("A"))
    assert net.state.grid == ((2, 1) if split else (1,))
    bad = [np.array([0, 1, 1]), np.array([[0, 1], [1, 0]]), np.array([[[0, 1]]])]
    if split:
        bad.append(np.array([0, 1]))  # laid along the input axis, not the split's
    before = net.ledger.snapshot()
    for bits in bad:
        for addr in (net.reg("A"), net.reg("B")):
            with pytest.raises(ValueError, match="does not fit the state's rows"):
                net.qubit_is(addr, bits)
    assert net.ledger.delta_since(before).as_dict() == {"ebits": 0, "cbits": 0, "qubits_transported": 0, "rounds": 0}
    good = np.array([[0], [1]]) if split else np.array([1])
    assert net.qubit_is(net.reg("A"), good) is split


@pytest.mark.parametrize("split", [False, True], ids=["one-row", "split"])
def test_per_row_bits_of_the_wrong_shape_are_refused_when_they_agree(split):
    """The shape of per-row bits is checked as given, before they are
    compacted to one bit for every row: an array whose entries all agree
    is refused like any other that does not fit, and nothing is charged.
    Such arrays were once accepted as one bit."""
    net = two_nodes()
    if split:
        net.local_apply(H, [net.reg("A")])
        net.split_outcomes(1)
        net.measure(net.reg("A"))
    bad = [np.array([1, 1, 1]), np.array([0, 0, 0])]
    if split:
        bad += [np.array([0, 0]), np.ones((3, 2), dtype=int)]
    before = net.ledger.snapshot()
    for bits in bad:
        for addr in (net.reg("A"), net.reg("B")):
            with pytest.raises(ValueError, match="does not fit the state's rows"):
                net.qubit_is(addr, bits)
    assert net.ledger.delta_since(before).as_dict() == {"ebits": 0, "cbits": 0, "qubits_transported": 0, "rounds": 0}
    assert net.qubit_is(net.reg("B"), np.array([[0], [0]]) if split else np.array([0]))


# ---- classically controlled gates ---------------------------------------------


def test_controlled_apply_uses_local_record():
    net = Network([("A", 2, 0)], seed=0)
    net.local_apply(X, [net.reg("A", 0)])
    rec = net.measure(net.reg("A", 0))
    applied = net.classically_controlled_apply([rec], X, [net.reg("A", 1)])
    assert applied.tolist() == [1]
    assert net.qubit_is(net.reg("A", 1), 1)


def test_controlled_apply_charges_round_even_when_idle():
    """The correction slot is scheduled whether or not the bit fires, so
    branch choice cannot change the round count."""
    rounds = []
    for outcome in (0, 1):
        net = Network([("A", 1, 0), ("B", 1, 0)], seed=0)
        net.local_apply(H, [net.reg("A")])
        net.force_outcomes([outcome])
        rec = net.measure(net.reg("A"))
        msg = net.send_cbit(ClassicalMessage("A", "B", [rec], "ctl"))
        net.classically_controlled_apply([msg], X, [net.reg("B")])
        rounds.append(net.ledger.rounds)
    assert rounds[0] == rounds[1]


def test_controlled_apply_xors_controls():
    net = Network([("A", 3, 0)], seed=0)
    net.local_apply(X, [net.reg("A", 0)])
    net.local_apply(X, [net.reg("A", 1)])
    r0 = net.measure(net.reg("A", 0))
    r1 = net.measure(net.reg("A", 1))
    applied = net.classically_controlled_apply([r0, r1], X, [net.reg("A", 2)])
    assert applied.tolist() == [0]  # 1 xor 1
    assert net.qubit_is(net.reg("A", 2), 0)


def test_controlled_apply_needs_the_bit_delivered():
    net = two_nodes(seed=0)
    net.local_apply(H, [net.reg("A")])
    net.force_outcomes([1])
    rec = net.measure(net.reg("A"))
    # B never received the outcome: using A's record at B is acausal
    with pytest.raises(CausalityError):
        net.classically_controlled_apply([rec], X, [net.reg("B")])
    msg = net.send_cbit(ClassicalMessage("A", "B", [rec], "fix"))
    net.classically_controlled_apply([msg], X, [net.reg("B")])
    assert net.qubit_is(net.reg("B"), 1)


def test_controlled_apply_rejects_foreign_message():
    net = Network([("A", 1, 0), ("B", 1, 0), ("C", 1, 0)], seed=0)
    net.local_apply(H, [net.reg("A")])
    net.force_outcomes([1])
    rec = net.measure(net.reg("A"))
    msg = net.send_cbit(ClassicalMessage("A", "B", [rec], "fix"))
    with pytest.raises(CausalityError):
        net.classically_controlled_apply([msg], X, [net.reg("C")])


def test_controlled_apply_rejects_foreign_record():
    """A record equal in content but made by another network is not usable."""
    nets = [Network([("A", 2, 0)], seed=0) for _ in range(2)]
    recs = [net.measure(net.reg("A", 0)) for net in nets]
    assert recs[0] == recs[1]
    nets[0].classically_controlled_apply(recs[0], X, [nets[0].reg("A", 1)])
    with pytest.raises(CausalityError):
        nets[0].classically_controlled_apply(recs[1], X, [nets[0].reg("A", 1)])


@pytest.mark.parametrize("empty", ["controls", "targets"])
def test_controlled_apply_refuses_empty_inputs_before_the_round(empty):
    """No control bits, or no targets, raise ValueError before the round
    is charged, as local_apply refuses no targets. An empty control list
    once failed inside reduce with a TypeError, and no targets with an
    IndexError."""
    net = Network([("A", 2, 0)], seed=0)
    rec = net.measure(net.reg("A", 0))
    before = net.ledger.as_dict()
    controls, targets = ([], [net.reg("A", 1)]) if empty == "controls" else ([rec], [])
    with pytest.raises(ValueError, match=f"no {'control bits' if empty == 'controls' else 'target qubits'} given"):
        net.classically_controlled_apply(controls, X, targets)
    assert net.ledger.as_dict() == before and net.qubit_is(net.reg("A", 1), 0)


def test_controlled_apply_rejects_unlogged_message():
    net = two_nodes(seed=0)
    fake = ClassicalMessage("A", "B", [measured(net, net.reg("A"), 1)], "forged")
    with pytest.raises(CausalityError):
        net.classically_controlled_apply([fake], X, [net.reg("B")])


# ---- exchange ---------------------------------------------------------------------


def test_exchange_swaps_slots():
    net = two_nodes()
    net.local_apply(X, [net.chan("A")])
    new_a, new_b = net.exchange_channel_qubits(net.chan("A"), net.chan("B"))
    assert (new_a.node, new_b.node) == ("B", "A")
    assert net.qubit_is(new_a, 1)
    assert net.qubit_is(new_b, 0)
    assert net.ledger.qubits_transported == 2
    assert net.ledger.rounds == 2  # the X and one crossing shipment


def test_exchange_rejects_registers():
    net = two_nodes()
    with pytest.raises(PoolError):
        net.exchange_channel_qubits(net.reg("A"), net.chan("B"))
    with pytest.raises(PoolError):
        net.exchange_channel_qubits(net.chan("A"), net.reg("B"))
    assert net.ledger.qubits_transported == 0


@pytest.mark.parametrize("exchange_first", [True, False], ids=["exchange-then-gate", "gate-then-exchange"])
def test_exchange_in_a_round_touches_the_qubits_it_ships(exchange_first):
    """Inside a parallel round an exchange conflicts with any other
    operation on the two qubits it ships; a refused exchange moves nothing."""
    net = two_nodes()
    ops = [
        lambda: net.exchange_channel_qubits(net.chan("A"), net.chan("B")),
        lambda: net.local_apply(H, [net.chan("A")]),
    ]
    with pytest.raises(ValueError, match="disjoint"):
        with net.parallel_round():
            for op in ops if exchange_first else ops[::-1]:
                op()
    assert net.ledger.qubits_transported == (2 if exchange_first else 0)
    assert net.global_index(net.chan("A")) == (3 if exchange_first else 1)


def test_exchanges_on_disjoint_pairs_share_a_round():
    net = Network([("A", 0, 2), ("B", 0, 2)])
    with net.parallel_round():
        net.exchange_channel_qubits(net.chan("A", 0), net.chan("B", 0))
        net.exchange_channel_qubits(net.chan("A", 1), net.chan("B", 1))
    assert net.ledger.as_dict() == {"ebits": 0, "cbits": 0, "qubits_transported": 4, "rounds": 1}
    assert [net.global_index(a) for a in net.addresses()] == [2, 3, 0, 1]


# ---- local SWAP -------------------------------------------------------------------


def test_a_local_swap_trades_slots_and_moves_no_amplitude(monkeypatch):
    """A SWAP on one node swaps the two slots' entries of `ownership`, as an
    exchange does across nodes, and charges one round; no qstate kernel
    runs, so the state's blocks and fixed bits stay as they were."""
    net = Network([("A", 1, 1)])
    net.local_apply(H, [net.reg("A")])
    blocks, fixed = [(b.qubits, b.amps.copy()) for b in net.state.blocks], dict(net.state.fixed)
    monkeypatch.setattr(qstate, "apply_gate", None)
    net.local_apply(SWAP, [net.reg("A"), net.chan("A")])
    assert [b.qubits for b in net.state.blocks] == [q for q, _ in blocks]
    assert all(np.array_equal(b.amps, amps) for b, (_, amps) in zip(net.state.blocks, blocks))
    assert net.state.fixed == fixed
    assert net.ownership == {net.reg("A"): 1, net.chan("A"): 0}
    assert net.ledger.rounds == 2
    assert net.qubit_is(net.reg("A"), 0)


@pytest.mark.parametrize("slot", [0, 1])
def test_a_swap_in_a_round_touches_both_slots(slot):
    net = Network([("A", 2, 0)])
    with pytest.raises(ValueError, match="disjoint"):
        with net.parallel_round():
            net.local_apply(SWAP, [net.reg("A", 0), net.reg("A", 1)])
            net.local_apply(H, [net.reg("A", slot)])


# ---- shared resources --------------------------------------------------------------


def test_the_first_measurement_of_a_share_spends_its_cat():
    """Measuring one member of a 3-member cat charges its 2 ebits; the other
    members' measurements charge nothing."""
    net = Network([(name, 0, 1) for name in "ABC"])
    cat = [net.chan(name) for name in "ABC"]
    net.preshare_cat(cat)
    net.force_outcomes([1, 1, 1])
    net.measure(cat[1])
    assert net.ledger.ebits_consumed == 2
    net.measure(cat[0])
    net.measure_x(cat[2])
    assert net.ledger.ebits_consumed == 2


def test_a_share_follows_its_qubit_through_swaps_and_exchanges():
    net = Network([("A", 1, 2), ("B", 0, 2)], seed=0)
    net.preshare_epr(net.chan("A", 0), net.chan("B", 0))
    net.local_apply(SWAP, [net.chan("A", 0), net.reg("A")])
    net.exchange_channel_qubits(net.chan("A", 1), net.chan("B", 0))
    for idle in (net.chan("A", 0), net.chan("B", 0)):  # |0> qubits now
        net.measure(idle)
    assert net.ledger.ebits_consumed == 0
    net.measure(net.chan("A", 1))  # B's half, shipped to A
    net.measure(net.reg("A"))  # A's half, swapped into the register
    assert net.ledger.ebits_consumed == 1


def test_a_pair_over_an_unspent_share_is_refused_unchanged():
    """Writing a pair onto a qubit that holds an unspent share raises
    ResourceError before any gate: ledger, ownership and state stay as they
    were, and the share is still spent once."""
    net = Network([("A", 0, 2), ("B", 0, 2)], seed=0)
    net.preshare_epr(net.chan("A", 0), net.chan("B", 0))
    ledger, ownership, state = net.ledger.as_dict(), dict(net.ownership), net.state.copy()
    with pytest.raises(ResourceError, match=re.escape("['A.channel[0]']")):
        net._write_cat([net.chan("A", 0), net.chan("B", 1)])
    assert net.ledger.as_dict() == ledger and net.ownership == ownership
    assert net.state.fixed == state.fixed and np.array_equal(net.state.amplitudes, state.amplitudes)
    net.measure(net.chan("B", 1))
    net.measure(net.chan("A", 0))
    assert net.ledger.ebits_consumed == 1


# ---- bootstrap helpers ----------------------------------------------------------


def test_preshare_epr_makes_a_bell_pair_uncharged():
    """Writing the pair charges nothing; its first measurement charges its
    one ebit."""
    net = two_nodes()
    net.preshare_epr(net.chan("A"), net.chan("B"))
    assert net.ledger.as_dict() == {"ebits": 0, "cbits": 0, "qubits_transported": 0, "rounds": 0}
    net.force_outcomes([1])
    rec = net.measure(net.chan("A"))
    assert abs(rec.probability - 0.5) < 1e-12
    assert net.qubit_is(net.chan("B"), 1)
    assert net.ledger.ebits_consumed == 1


def test_preshare_requires_fresh_qubits():
    net = two_nodes()
    net.local_apply(X, [net.chan("A")])
    with pytest.raises(PreconditionError):
        net.preshare_epr(net.chan("A"), net.chan("B"))


def test_preshare_cat():
    net = Network([("A", 0, 1), ("B", 0, 1), ("C", 0, 1)])
    net.preshare_cat([net.chan("A"), net.chan("B"), net.chan("C")])
    want = np.zeros(8, dtype=complex)
    want[0] = want[-1] = SQRT2_INV
    assert np.allclose(net.state.amplitudes, want)


def test_inject_state_msb_order():
    net = Network([("A", 1, 1), ("B", 1, 1)])
    amps = np.array([0, 0.6, 0, 0.8j], dtype=complex)  # on (regA, regB)
    net.inject_state([net.reg("A"), net.reg("B")], amps)
    # regA is global 0, regB is global 2 of 4 qubits
    want = np.zeros(16, dtype=complex)
    want[0b0010] = 0.6
    want[0b1010] = 0.8j
    assert np.allclose(net.state.amplitudes, want)
    # listing the addresses the other way round transposes the input
    net.inject_state([net.reg("B"), net.reg("A")], [0, 0, 0.6, 0.8j])
    assert np.allclose(net.state.amplitudes, want)
    # a 3-cycle of the address order: amplitude index bits read (q2, q0, q1)
    net = Network([("A", 3, 0)])
    amps = np.arange(1, 9) / np.linalg.norm(np.arange(1, 9))
    net.inject_state([net.reg("A", 2), net.reg("A", 0), net.reg("A", 1)], amps)
    for b0, b1, b2 in np.ndindex(2, 2, 2):
        assert np.isclose(net.state.amplitudes[4 * b0 + 2 * b1 + b2], amps[4 * b2 + 2 * b0 + b1])


def test_inject_state_normalizes():
    net = Network([("A", 1, 0)])
    net.inject_state([net.reg("A")], [3, 4])
    assert np.allclose(net.state.amplitudes, [0.6, 0.8])


def test_inject_state_stack_makes_one_row_per_input():
    net = Network([("A", 1, 1), ("B", 1, 0)])
    stack = [[3, 4j, 0, 0], [0, 0, 0, 2], [1, 1, 1, 1]]
    net.inject_state([net.reg("A"), net.reg("B")], stack)
    assert net.rows == 3 and [(b.qubits, b.amps.shape) for b in net.state.blocks] == [([0, 2], (3, 4))]
    assert np.allclose(net.state.norm(), 1.0)
    assert np.array_equal(net.state.per_row(net.branch_probability), np.ones(3))
    # qubit order (A reg, A chan, B reg): the channel qubit stays |0>
    assert np.allclose(net.state.amplitudes[0, [0b000, 0b001]], [0.6, 0.8j])
    assert np.allclose(net.state.amplitudes[1, 0b101], 1.0)
    assert np.allclose(net.state.amplitudes[2, [0, 1, 4, 5]], 0.5)
    with pytest.raises(ValueError, match="unsplit"):
        net.inject_state([net.reg("A"), net.reg("B")], stack)
    # a stack of one is a single input: the state stays unsplit
    net = Network([("A", 1, 1), ("B", 1, 0)])
    net.inject_state([net.reg("A"), net.reg("B")], [[3, 4j, 0, 0]])
    assert net.rows == 1 and net.state.blocks[0].amps.shape == (1, 4) and net.branch_probability == 1.0
    with pytest.raises(ValueError, match="zero vector"):
        net.inject_state([net.reg("A"), net.reg("B")], [[1, 0, 0, 0], [0, 0, 0, 0]])


@pytest.mark.parametrize(
    "amps",
    [[np.nan, 1], [np.inf, 1], [1, complex(0, -np.inf)], [1e200, 1e200]],
    ids=["nan", "inf", "imaginary-inf", "overflow"],
)
def test_inject_state_refuses_amplitudes_that_are_not_finite(amps):
    """A nan or an infinite amplitude, or a norm that overflows, raises
    before the state changes; they once made a nan state (with only a numpy
    warning) or, for the overflow, an all-zero one."""
    net = Network([("A", 1, 1)])
    net.inject_state([net.reg("A")], [0.6, 0.8])
    before = net.state.amplitudes.copy()
    with pytest.raises(ValueError, match="not finite"):
        net.inject_state([net.reg("A")], amps)
    assert np.array_equal(net.state.amplitudes, before)


@pytest.mark.parametrize("count", [1.5, 2.0, np.nan, -1, "2"])
def test_slot_counts_must_be_whole_numbers(count):
    """A register or channel count that is not an integer >= 0 is refused;
    1.5 once built a node of 1 register."""
    with pytest.raises(ValueError, match="register count must be an integer"):
        Network([("A", count, 1)])
    with pytest.raises(ValueError, match="channel count must be an integer"):
        Network([("A", 1, count)])


def test_split_count_must_be_a_whole_number():
    """split_outcomes(1.7) once split one measurement; a count that is not
    an integer >= 0 raises before anything is queued."""
    net = Network([("A", 1, 0)])
    for count in (1.7, 1.0, -1):
        with pytest.raises(ValueError, match="split count must be an integer"):
            net.split_outcomes(count)
    net.split_outcomes(np.int64(1))
    net.local_apply(H, [net.reg("A")])
    net.measure(net.reg("A"))
    assert net.rows == 2


def test_inject_state_needs_an_unsplit_network():
    """One input injected after a split would keep the split's stale branch
    probabilities and per-row records, so it is refused like a stack."""
    net = Network([("A", 1, 1)])
    net.local_apply(H, [net.reg("A")])
    net.split_outcomes(1)
    net.measure(net.reg("A"))
    assert net.rows == 2
    with pytest.raises(ValueError, match="unsplit"):
        net.inject_state([net.reg("A")], [0.6, 0.8])
    assert net.rows == 2 and np.allclose(net.branch_probability, 0.5)


@pytest.mark.parametrize("measured", [True, False], ids=["record", "unspent-share"])
def test_inject_state_needs_no_record_and_no_unspent_share(measured):
    """A record would describe a qubit the input resets to |0>, with its
    branch probability still charged, and an unspent share would be a pair
    the input overwrote: either is refused, with the network unchanged."""
    net = two_nodes(seed=0)
    net.preshare_epr(net.chan("A"), net.chan("B"))
    if measured:
        net.measure(net.chan("A"))
    records = list(net.records)
    with pytest.raises(ValueError, match="measurement record or unspent share"):
        net.inject_state([net.reg("A")], [0.6, 0.8])
    assert net.records == records
    assert np.allclose(net.branch_probability, 0.5 if measured else 1)


def test_split_rows_descend_from_their_input():
    """After k splits, input i's branches are rows i * 2^k ... (i + 1) * 2^k - 1."""
    net = Network([("A", 2, 0)])
    net.inject_state([net.reg("A", 0), net.reg("A", 1)], [[1, 1, 1, 1], [1, 1j, -1, 1], [1, 2, 3, 4]])
    net.split_outcomes(2)
    first, second = net.measure(net.reg("A", 0)), net.measure(net.reg("A", 1))
    assert net.rows == 12
    assert np.array_equal(net.state.per_row(first.outcome), np.tile([0, 0, 1, 1], 3))
    assert np.array_equal(net.state.per_row(second.outcome), np.tile([0, 1], 6))
    # each row holds its input's basis state at its branch, with that state's weight
    probability = net.state.per_row(net.branch_probability)
    assert np.allclose(probability, [0.25] * 8 + [1 / 30, 4 / 30, 9 / 30, 16 / 30])
    # both qubits measured: one block without qubits keeps each row's phase
    [block] = net.state.blocks
    assert block.qubits == [] and np.allclose(np.abs(block.amps[..., 0]), 1.0)


# ---- the state buffer -------------------------------------------------------------


def test_operations_write_into_one_buffer():
    """Every operation changes the network's one state in place; measured
    qubits leave their blocks, and a pair stays a block of its own until a
    gate joins it to another."""
    net = Network([("A", 2, 1), ("B", 1, 1)], seed=0)
    net.inject_state([net.reg("A", 0)], [0.6, 0.8])
    state = net.state
    assert [(b.qubits, b.amps.shape) for b in state.blocks] == [([0], (1, 2))]
    net.local_apply(H, [net.reg("A", 1)])
    net.preshare_epr(net.chan("A"), net.chan("B"))
    assert [b.qubits for b in state.blocks] == [[0], [1], [2, 4]]
    net.force_outcomes([1, 0])
    rec = net.measure(net.chan("A"))
    net.classically_controlled_apply(rec, X, net.chan("A"))
    net.measure_x(net.reg("A", 1))
    assert net.state is state
    # A's channel and second register are fixed; B's channel is |1> but live
    assert [b.qubits for b in state.blocks] == [[0], [4]] and state.fixed == {1: 0, 2: 0, 3: 0}
    assert net.qubit_is(net.chan("A"), 0) and net.qubit_is(net.chan("B"), 1)
    assert abs(state.norm() - 1.0) < 1e-12


def test_scope_snapshot_only_when_checking():
    from catnet.protocols import _Scope

    net = Network([("A", 2, 0)])
    net.local_apply(H, [net.reg("A", 0)])
    start = net.state.amplitudes.copy()
    checked, unchecked = _Scope(net, True), _Scope(net, False)
    assert unchecked.pre_state is None
    net.local_apply(CNOT, [net.reg("A", 0), net.reg("A", 1)])
    net.local_apply(Z, [net.reg("A", 1)])
    assert np.array_equal(checked.pre_state.amplitudes, start)
    ideal = [(CNOT, [net.reg("A", 0), net.reg("A", 1)]), (Z, [net.reg("A", 1)])]
    assert checked.oracle_infidelity(ideal) < 1e-12


def test_a_scope_reports_once():
    """The oracle applies the ideal gates to the scope's own baseline, so a
    second report would read a spent baseline, and raises instead."""
    from catnet.protocols import _Scope

    net = Network([("A", 2, 0)])
    scope = _Scope(net, True)
    net.local_apply(H, [net.reg("A", 0)])
    ideal = [(H, [net.reg("A", 0)])]
    assert scope.report("h", ideal, details={}).verified
    with pytest.raises(RuntimeError, match="spent"):
        scope.report("h", ideal, details={})
    unchecked = _Scope(net, False)
    assert unchecked.report("h", ideal, details={}).verified is None
    assert unchecked.report("h", ideal, details={}).verified is None


# ---- ledger ---------------------------------------------------------------------


def test_ledger_snapshot_delta():
    net = two_nodes()
    rec = measured(net, net.reg("B"))
    net.local_apply(H, [net.reg("A")])
    snap = net.ledger.snapshot()
    net.send_cbit(ClassicalMessage("B", "A", [rec], "t"))
    delta = net.ledger.delta_since(snap)
    assert delta.as_dict() == {"ebits": 0, "cbits": 1, "qubits_transported": 0, "rounds": 1}
