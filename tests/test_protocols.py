"""Composite protocol contracts: ledgers, oracles, hygiene, integration."""

import collections
import random
from contextlib import contextmanager

import numpy as np
import pytest

from catnet import qstate
from catnet.errors import CannotResetError, CapacityError, LocalityError, PreconditionError, ResourceError
from catnet.gates import CNOT, H, TOFFOLI, X, ControlledSpec, em_schedule, make_controlled, make_rk
from catnet.network import CHANNEL, REGISTER, Network, QubitAddress
from catnet.primitives import _require_fresh_cat
from catnet.protocols import (
    C4X,
    _claim,
    _fresh_cat,
    decompose_multi_control_x,
    distributed_em,
    distributed_swap,
    em_channel_requirements,
    establish_epr_exchange,
    nonlocal_cnot,
    nonlocal_controlled_sequence,
    nonlocal_multi_control,
    parallel_distributed_control,
    reset_channel_qubits,
    teleport_with_reset,
)
from catnet.qft import build_qft_plan, qft_distributed
from catnet.verify import verify_protocol
from reference import random_state, reduced_density_matrix

SQRT2_INV = 1 / np.sqrt(2)


def embed(matrix, n, targets):
    """Direct basis-index embedding for oracle states (independent of apply_gate)."""
    dim = 2**n
    arity = len(targets)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub = 0
        for t in targets:
            sub = (sub << 1) | ((col >> (n - 1 - t)) & 1)
        for sub_out in range(2**arity):
            amp = matrix[sub_out, sub]
            if amp == 0:
                continue
            row = col
            for j, t in enumerate(targets):
                bit = (sub_out >> (arity - 1 - j)) & 1
                row = (row & ~(1 << (n - 1 - t))) | (bit << (n - 1 - t))
            out[row, col] += amp
    return out


def marginal_fidelity(net, addrs, expected):
    rho = reduced_density_matrix(net.state, [net.global_index(a) for a in addrs])
    expected = np.asarray(expected, dtype=complex)
    expected = expected / np.linalg.norm(expected)
    return float(np.real(expected.conj() @ rho @ expected))


def random_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---- establish_epr_exchange ------------------------------------------------


def test_establish_creates_two_pairs():
    net = Network([("A", 1, 2), ("B", 1, 2)], seed=0)
    pairs, report = establish_epr_exchange(net, "A", "B", check=True)
    assert len(pairs) == 2
    for qa, qb in pairs:
        assert {qa.node, qb.node} == {"A", "B"}
        assert marginal_fidelity(net, [qa, qb], [SQRT2_INV, 0, 0, SQRT2_INV]) > 1 - 1e-10
    assert report.ledger.qubits_transported == 2
    assert report.ledger.ebits_consumed == 0  # established, not consumed
    assert report.verified


def test_each_established_pair_charges_its_ebit_when_used():
    """Establishing charges no ebit; each pair charges one when nonlocal_cnot
    spends it, wherever the exchange moved its halves."""
    net = Network([("A", 1, 2), ("B", 1, 2)], seed=0)
    pairs, report = establish_epr_exchange(net, "A", "B")
    a, b = net.reg("A"), net.reg("B")
    first = nonlocal_cnot(net, a, b, epr=pairs[0], check=True)
    second = nonlocal_cnot(net, a, b, epr=(pairs[1][1], pairs[1][0]), check=True)
    assert [rep.ledger.ebits_consumed for rep in (report, first, second)] == [0, 1, 1]
    assert net.ledger.ebits_consumed == 2 and first.verified and second.verified


def test_establish_rate_one_pair_per_transport():
    """Repeating over fresh slots: 2k pairs for 2k transports."""
    net = Network([("A", 0, 4), ("B", 0, 4)], seed=0)
    establish_epr_exchange(net, "A", "B")
    pairs, _ = establish_epr_exchange(net, "A", "B")
    assert net.ledger.qubits_transported == 4
    assert len(pairs) == 2
    # the first call holds slots 0 and 1, so the second lands on 2 and 3
    assert pairs == [(net.chan("A", 2), net.chan("B", 3)), (net.chan("B", 2), net.chan("A", 3))]


def test_establish_requires_clean_channels():
    net = Network([("A", 1, 2), ("B", 1, 2)])
    net.local_apply(X, [net.chan("A", 1)])
    with pytest.raises(CapacityError, match="on A"):
        establish_epr_exchange(net, "A", "B")


# ---- reset_channel_qubits ------------------------------------------------------


def test_reset_flips_measured_ones():
    net = Network([("A", 1, 2)], seed=0)
    net.local_apply(X, [net.chan("A", 0)])
    r0 = net.measure(net.chan("A", 0))  # |1>
    r1 = net.measure(net.chan("A", 1))  # |0>
    rounds_before = net.ledger.rounds
    reset_channel_qubits(net, [r0, r1])
    assert net.qubit_is(net.chan("A", 0), 0)
    assert net.qubit_is(net.chan("A", 1), 0)
    assert net.ledger.rounds - rounds_before == 1  # corrections batch into one round


def test_reset_requires_a_record():
    net = Network([("A", 1, 1)])
    with pytest.raises(CannotResetError):
        reset_channel_qubits(net, [None])


def test_reset_rejects_foreign_record():
    """A record equal in content but made by another network cannot reset."""
    nets = [Network([("A", 1, 1)], seed=0) for _ in range(2)]
    recs = [net.measure(net.chan("A")) for net in nets]
    assert recs[0] == recs[1]
    with pytest.raises(CannotResetError):
        reset_channel_qubits(nets[0], [recs[1]])
    assert reset_channel_qubits(nets[0], [recs[0]]) == [nets[0].chan("A")]


def test_reset_rejects_stale_record():
    """No-deletion: a qubit that moved on since its measurement cannot be
    erased by bookkeeping."""
    net = Network([("A", 1, 1)], seed=0)
    net.local_apply(H, [net.chan("A")])
    net.force_outcomes([0])
    rec = net.measure(net.chan("A"))
    net.local_apply(H, [net.chan("A")])  # now |+>, not the recorded |0>
    with pytest.raises(CannotResetError):
        reset_channel_qubits(net, [rec])


def test_channel_hygiene_cycle():
    """Gate, reset, re-establish on the same slots, gate again."""
    net = Network([("A", 1, 2), ("B", 1, 2)], seed=3)
    a, b = net.reg("A"), net.reg("B")
    net.local_apply(H, [a])
    pairs, _ = establish_epr_exchange(net, "A", "B")
    nonlocal_cnot(net, a, b, epr=pairs[0])
    nonlocal_cnot(net, a, b, epr=(pairs[1][1], pairs[1][0]))
    channels = net.addresses(pool=CHANNEL)
    reset_channel_qubits(net, [net.last_record(c) for c in channels])
    for c in channels:
        assert net.qubit_is(c, 0)
    pairs, report = establish_epr_exchange(net, "A", "B", check=True)
    assert report.verified
    rep = nonlocal_cnot(net, a, b, epr=pairs[0], check=True)
    assert rep.verified


# ---- nonlocal_cnot ------------------------------------------------------------


def test_nonlocal_cnot_frozen_amplitudes():
    """0.6|0>+0.8|1> control, |0> target -> 0.6|00>+0.8|11>, every branch."""
    for branch in range(4):
        net = Network([("A", 1, 1), ("B", 1, 1)])
        ctrl, tgt = net.reg("A"), net.reg("B")
        net.inject_state([ctrl], np.array([0.6, 0.8]))
        net.force_outcomes([(branch >> 1) & 1, branch & 1])
        rep = nonlocal_cnot(net, ctrl, tgt, check=True)
        assert rep.verified
        assert marginal_fidelity(net, [ctrl, tgt], [0.6, 0, 0, 0.8]) > 1 - 1e-10


def test_nonlocal_cnot_basis_example():
    net = Network([("A", 1, 1), ("B", 1, 1)], seed=1)
    ctrl, tgt = net.reg("A"), net.reg("B")
    net.local_apply(X, [ctrl])
    net.local_apply(X, [tgt])
    nonlocal_cnot(net, ctrl, tgt)
    assert net.qubit_is(ctrl, 1)
    assert net.qubit_is(tgt, 0)


def test_nonlocal_cnot_ledger_exact():
    net = Network([("A", 1, 1), ("B", 1, 1)], seed=0)
    rep = nonlocal_cnot(net, net.reg("A"), net.reg("B"))
    led = rep.ledger.as_dict()
    assert (led["ebits"], led["cbits"], led["qubits_transported"]) == (1, 2, 0)


def test_nonlocal_cnot_needs_entanglement():
    """Without a pair given, one is written onto a |0> channel qubit of each
    node; a node whose channel qubit is busy has none to give."""
    net = Network([("A", 1, 1), ("B", 1, 1)])
    net.local_apply(X, [net.chan("B")])
    with pytest.raises(CapacityError, match="on B"):
        nonlocal_cnot(net, net.reg("A"), net.reg("B"))


def test_nonlocal_cnot_rejects_mismatched_pair():
    net = Network([("A", 1, 1), ("B", 1, 1), ("C", 1, 1)])
    net.preshare_epr(net.chan("A"), net.chan("C"))
    with pytest.raises(ValueError):
        nonlocal_cnot(net, net.reg("A"), net.reg("B"), epr=(net.chan("A"), net.chan("C")))


def test_nonlocal_cnot_refuses_a_pair_the_network_never_registered():
    """A pair made with gates and an exchange is not a resource the network
    holds, so it has no ebit to charge: the entangler refuses it with
    ResourceError before any gate, and ledger, records and ownership stay
    as they were. Such a pair was once spent for free, reported as 0 ebits,
    2 cbits and verified."""
    net = Network([("A", 1, 2), ("B", 1, 1)], seed=0)
    net.local_apply(H, [net.chan("A", 0)])
    net.local_apply(CNOT, [net.chan("A", 0), net.chan("A", 1)])
    net.exchange_channel_qubits(net.chan("A", 1), net.chan("B", 0))
    ledger, ownership = net.ledger.as_dict(), dict(net.ownership)
    with pytest.raises(ResourceError, match="not the shares of one unspent pair or cat"):
        nonlocal_cnot(net, net.reg("A"), net.reg("B"), epr=(net.chan("A", 0), net.chan("B", 0)))
    assert net.ledger.as_dict() == ledger and net.records == [] and net.ownership == ownership


# ---- nonlocal_controlled_sequence ------------------------------------------------


def test_controlled_sequence_matches_product_oracle():
    """k=3 sequence U1, U2, CNOT distributed once."""
    rng = np.random.default_rng(7)
    u1 = qstate.GateMatrix(random_unitary(2, rng))
    u2 = qstate.GateMatrix(random_unitary(2, rng))
    for branch in range(4):
        net = Network([("A", 1, 1), ("B", 2, 1)])
        ctrl, b0, b1 = net.reg("A"), net.reg("B", 0), net.reg("B", 1)
        amps = random_state(3, rng).amplitudes
        net.inject_state([ctrl, b0, b1], amps)
        net.force_outcomes([(branch >> 1) & 1, branch & 1])
        rep = nonlocal_controlled_sequence(
            net,
            ctrl,
            [(u1, [b0]), (u2, [b1]), (CNOT, [b0, b1])],
            check=True,
        )
        assert rep.verified
        assert rep.details["gate_count"] == 3
        led = rep.ledger.as_dict()
        assert (led["ebits"], led["cbits"]) == (1, 2)
        ideal = np.eye(8, dtype=complex)
        for g, tg in [(u1, [1]), (u2, [2]), (CNOT, [1, 2])]:
            cg = make_controlled(ControlledSpec(1, g))
            ideal = embed(cg.matrix, 3, [0] + tg) @ ideal
        assert marginal_fidelity(net, [ctrl, b0, b1], ideal @ amps) > 1 - 1e-10


def test_identity_sequence_still_costs_the_distribution():
    from catnet.gates import IDENTITY

    net = Network([("A", 1, 1), ("B", 1, 1)], seed=0)
    ctrl, tgt = net.reg("A"), net.reg("B")
    rep = nonlocal_controlled_sequence(net, ctrl, [(IDENTITY, [tgt]), (IDENTITY, [tgt])])
    led = rep.ledger.as_dict()
    assert (led["ebits"], led["cbits"]) == (1, 2)
    assert net.qubit_is(tgt, 0)


def test_sequence_rejects_offnode_targets():
    net = Network([("A", 1, 1), ("B", 1, 1), ("C", 1, 1)])
    net.preshare_epr(net.chan("A"), net.chan("B"))
    with pytest.raises(LocalityError):
        nonlocal_controlled_sequence(
            net,
            net.reg("A"),
            [(CNOT, [net.reg("B"), net.reg("C")])],
            epr=(net.chan("A"), net.chan("B")),
        )


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_amortized_cost_is_flat(k):
    rng = np.random.default_rng(k)
    net = Network([("A", 1, 1), ("B", 2, 1)], seed=k)
    ctrl, b0, b1 = net.reg("A"), net.reg("B", 0), net.reg("B", 1)
    gates = []
    for j in range(k):
        if j % 3 == 2:
            gates.append((CNOT, [b0, b1]))
        else:
            gates.append((make_rk(2 + j % 3), [b0 if j % 2 == 0 else b1]))
    net.inject_state([ctrl, b0, b1], random_state(3, rng).amplitudes)
    rep = nonlocal_controlled_sequence(net, ctrl, gates, check=True)
    assert rep.verified
    led = rep.ledger.as_dict()
    assert (led["ebits"], led["cbits"]) == (1, 2)


# ---- parallel_distributed_control ------------------------------------------------


def test_parallel_control_three_parts():
    rng = np.random.default_rng(4)
    u1, u2, u3 = (random_unitary(d, rng) for d in (4, 8, 4))
    net = Network([("C", 1, 1), ("P1", 2, 1), ("P2", 3, 1), ("P3", 2, 1)], seed=0)
    ctrl = net.reg("C")
    t1 = [net.reg("P1", j) for j in range(2)]
    t2 = [net.reg("P2", j) for j in range(3)]
    t3 = [net.reg("P3", j) for j in range(2)]
    amps = random_state(8, rng).amplitudes
    net.inject_state([ctrl, *t1, *t2, *t3], amps)
    rep = parallel_distributed_control(
        net,
        ctrl,
        [
            ("P1", qstate.GateMatrix(u1), t1),
            ("P2", qstate.GateMatrix(u2), t2),
            ("P3", qstate.GateMatrix(u3), t3),
        ],
        check=True,
    )
    assert rep.verified
    assert rep.details["controlled_rounds"] == 1
    on = np.zeros((2, 2))
    on[1, 1] = 1.0
    ideal = np.kron(np.eye(2) - on, np.eye(128)) + np.kron(on, np.kron(np.kron(u1, u2), u3))
    assert marginal_fidelity(net, [ctrl, *t1, *t2, *t3], ideal @ amps) > 1 - 1e-10


def test_parallel_control_idle_when_control_zero():
    net = Network([("C", 1, 1), ("P1", 1, 1), ("P2", 1, 1)], seed=2)
    rep = parallel_distributed_control(
        net,
        net.reg("C"),
        [("P1", X, [net.reg("P1")]), ("P2", X, [net.reg("P2")])],
        check=True,
    )
    assert rep.verified
    assert net.qubit_is(net.reg("P1"), 0)
    assert net.qubit_is(net.reg("P2"), 0)


def test_parallel_control_reports_measured_controlled_rounds(monkeypatch):
    """Regression: controlled_rounds was a literal 1, so verify parallel-control
    could not fail on it. Without batching each of the three parts takes its
    own round."""

    @contextmanager
    def unbatched(self):
        yield self

    monkeypatch.setattr(Network, "parallel_round", unbatched)
    rep = verify_protocol("parallel-control")
    assert rep.verified is False
    assert rep.details["failures"]
    assert all(f["controlled_rounds"] == 3 for f in rep.details["failures"])


def test_parallel_control_rejects_duplicate_nodes():
    net = Network([("C", 1, 1), ("P1", 2, 1)])
    with pytest.raises(ValueError):
        parallel_distributed_control(
            net,
            net.reg("C"),
            [("P1", X, [net.reg("P1", 0)]), ("P1", X, [net.reg("P1", 1)])],
        )


def test_parallel_control_refuses_a_part_on_the_control_node():
    """Such a part once cost an ebit and a cbit for a local gate, or raised
    ResourceError with one channel qubit on the control's node. It is
    refused before any qubit is touched."""
    for chans in (2, 1):
        net = Network([("C", 2, chans), ("P1", 1, 1)], seed=0)
        parts = [("C", X, [net.reg("C", 1)]), ("P1", X, [net.reg("P1")])]
        with pytest.raises(ValueError, match="sits with the control"):
            parallel_distributed_control(net, net.reg("C", 0), parts)
        assert (net.ledger.ebits_consumed, net.ledger.cbits_sent, net.ledger.rounds) == (0, 0, 0)
        assert all(net.qubit_is(q, 0) for q in net.addresses(pool=CHANNEL))


# one controlled X from C onto P1, over a fresh pair
FRESH_PAIR_RUNS = {
    "cnot": lambda net, ctrl, tgt: nonlocal_cnot(net, ctrl, tgt, check=True),
    "sequence": lambda net, ctrl, tgt: nonlocal_controlled_sequence(net, ctrl, [(X, [tgt])], check=True),
    "parallel": lambda net, ctrl, tgt: parallel_distributed_control(net, ctrl, [("P1", X, [tgt])], check=True),
    "multi-control": lambda net, ctrl, tgt: nonlocal_multi_control(net, [ctrl], X, tgt, check=True),
}


@pytest.fixture
def written(monkeypatch):
    """Every qubit a pair or cat is written onto while the test runs."""
    qubits = []
    write = Network._write_cat

    def spy(net, addrs):
        qubits.extend(addrs)
        write(net, addrs)

    monkeypatch.setattr(Network, "_write_cat", spy)
    return qubits


@pytest.mark.parametrize("run", FRESH_PAIR_RUNS.values(), ids=FRESH_PAIR_RUNS)
def test_fresh_pair_avoids_a_targeted_channel_qubit(run, written):
    """A gate on P1.channel[0] leaves the fresh pair to P1.channel[1]; the
    pair once landed on the target itself."""
    net = Network([("C", 1, 1), ("P1", 1, 2)], seed=0)
    ctrl, tgt = net.reg("C"), net.chan("P1", 0)
    net.local_apply(X, [ctrl])
    rep = run(net, ctrl, tgt)
    assert rep.verified
    assert (rep.ledger.ebits_consumed, rep.ledger.cbits_sent) == (1, 2)
    assert net.qubit_is(tgt, 1)
    assert written == [net.chan("C"), net.chan("P1", 1)]


@pytest.mark.parametrize("run", FRESH_PAIR_RUNS.values(), ids=FRESH_PAIR_RUNS)
def test_fresh_pair_avoids_a_control_on_a_channel_qubit(run, written):
    """A control on C.channel[0] in |0> leaves the fresh pair to
    C.channel[1]; the pair was once written over the control, which the
    entangler then refused. P1's second register is multi-control's
    ancilla."""
    net = Network([("C", 1, 2), ("P1", 2, 1)], seed=0)
    ctrl, tgt = net.chan("C", 0), net.reg("P1")
    rep = run(net, ctrl, tgt)
    assert rep.verified
    assert (rep.ledger.ebits_consumed, rep.ledger.cbits_sent) == (1, 2)
    assert net.qubit_is(ctrl, 0) and net.qubit_is(tgt, 0)
    assert written == [net.chan("C", 1), net.chan("P1")]


GIVEN_PAIR_RUNS = {
    "sequence": lambda net, ctrl, tgt, pair: nonlocal_controlled_sequence(net, ctrl, [(X, [tgt])], epr=pair),
    "cnot": lambda net, ctrl, tgt, pair: nonlocal_cnot(net, ctrl, tgt, epr=pair),
}


@pytest.mark.parametrize("run", GIVEN_PAIR_RUNS.values(), ids=GIVEN_PAIR_RUNS)
def test_given_pair_on_the_target_is_refused(run):
    """A given pair with a half on the target is refused before any round;
    the non-local CNOT once spent an ebit and a cbit on it and then failed
    on a gate with the same qubit twice."""
    net = Network([("C", 1, 1), ("P1", 1, 2)], seed=0)
    pair = (net.chan("C"), net.chan("P1", 0))
    net.preshare_epr(*pair)
    with pytest.raises(ValueError, match="reserved"):
        run(net, net.reg("C"), pair[1], pair)
    assert net.ledger.as_dict() == {"ebits": 0, "cbits": 0, "qubits_transported": 0, "rounds": 0}
    assert net.records == [] and net.message_log == []


# ---- the one allocator ------------------------------------------------------------


@pytest.fixture
def probed(monkeypatch):
    """Every qubit probed for |0> while the test runs: the allocator's
    probes. A reset probes its qubit for a record's outcome instead, which
    is left out."""
    qubits = []
    qubit_is = Network.qubit_is

    def spy(net, addr, bit):
        if isinstance(bit, int) and bit == 0:
            qubits.append(addr)
        return qubit_is(net, addr, bit)

    monkeypatch.setattr(Network, "qubit_is", spy)
    return qubits


def test_claim_takes_idle_qubits_in_slot_order_and_skips_its_own_unprobed(probed):
    net = Network([("A", 1, 4), ("B", 2, 1)], seed=0)
    net.local_apply(X, [net.chan("A", 1)])
    assert _claim(net, "A", CHANNEL, 2, [net.chan("A", 0)]) == [net.chan("A", 2), net.chan("A", 3)]
    assert probed == [net.chan("A", 1), net.chan("A", 2), net.chan("A", 3)]
    assert _claim(net, "B", REGISTER, 1, [net.reg("B", 0)]) == [net.reg("B", 1)]


def test_claim_shortfall_is_a_capacity_error_that_changes_nothing():
    net = Network([("A", 1, 2)], seed=0)
    net.local_apply(X, [net.chan("A", 1)])
    with pytest.raises(CapacityError, match=r"2 idle \|0> channel qubits needed on A, 1 available"):
        _claim(net, "A", CHANNEL, 2, ())
    assert net.qubit_is(net.chan("A", 0), 0) and net.qubit_is(net.chan("A", 1), 1)
    assert net.ledger.rounds == 1 and net.records == []


def test_fresh_cat_probes_each_claimed_qubit_once(probed, written):
    """The cat goes onto the qubits the probes claimed, with no second probe
    before it is written; a busy qubit is probed and passed over, one of the
    call's own qubits is passed over unprobed."""
    net = Network([("A", 1, 3), ("B", 1, 1), ("C", 1, 2)], seed=0)
    net.local_apply(X, [net.chan("A", 1)])
    cat = _fresh_cat(net, ["A", "B", "C"], [net.reg("A"), net.chan("A", 0)])
    assert cat == [net.chan("A", 2), net.chan("B"), net.chan("C")]
    assert written == cat
    assert probed == [net.chan("A", 1), *cat]
    _require_fresh_cat(net, cat)


def at(name):
    """The qubit a short name gives: "A.r1" is A's register 1, "A.c0" its
    channel 0."""
    node, q = name.split(".")
    return QubitAddress(node, REGISTER if q[0] == "r" else CHANNEL, int(q[1:]))


def observed(net):
    """What a protocol run could change: the amplitudes, and then the live
    qubits, the fixed bits, the ledger, the records and the message log."""
    st = net.state
    fixed = {q: st.per_row(bit).tolist() for q, bit in sorted(st.fixed.items())}
    return st.amplitudes.copy(), (st.live, fixed, net.ledger.as_dict(), list(net.records), list(net.message_log))


EM_NODES = ["N0", "N1", "N2", "N3"]


def swap_ab(net):
    return distributed_swap(net, at("A.r0"), at("B.r0"), check=True)


# (node layout, the qubits that get a random input, the busy qubits, the
# call): one shortfall per protocol that claims helper qubits
SHORTFALLS = {
    "em-linear": (
        [("N0", 1, 1), ("N1", 1, 2), ("N2", 1, 2), ("N3", 1, 1)],
        ["N0.r0", "N1.r0", "N2.r0", "N3.r0"],
        ["N2.c1"],
        lambda net: distributed_em(net, EM_NODES, "linear"),
    ),
    "em-tree": (
        [("N0", 1, 2), ("N1", 1, 2), ("N2", 1, 1), ("N3", 1, 1)],
        ["N0.r0", "N1.r0", "N2.r0", "N3.r0"],
        ["N3.c0"],
        lambda net: distributed_em(net, EM_NODES, "binary-tree"),
    ),
    "multi-control-channel": (
        [("C1", 1, 1), ("C2", 1, 1), ("T", 3, 1)],
        ["C1.r0", "C2.r0", "T.r0"],
        ["C2.c0"],
        lambda net: nonlocal_multi_control(net, [at("C1.r0"), at("C2.r0")], X, at("T.r0")),
    ),
    "multi-control-ancilla": (
        [("C1", 1, 1), ("C2", 1, 1), ("T", 3, 1)],
        ["C1.r0", "C2.r0", "T.r0"],
        ["T.r2"],
        lambda net: nonlocal_multi_control(net, [at("C1.r0"), at("C2.r0")], X, at("T.r0")),
    ),
    # the four layouts of test_distributed_swap_sweeps_every_layout
    "swap-2/2": ([("A", 1, 2), ("B", 1, 2)], ["A.r0", "B.r0"], ["A.c1"], swap_ab),
    "swap-2/1": ([("A", 2, 2), ("B", 1, 1)], ["A.r0", "B.r0"], ["A.r1"], swap_ab),
    "swap-1/2": ([("A", 2, 1), ("B", 1, 2)], ["A.r0", "B.r0"], ["A.r1"], swap_ab),
    "swap-1/1": ([("A", 2, 1), ("B", 1, 1)], ["A.r0", "B.r0"], ["B.c0"], swap_ab),
    "establish": (
        [("A", 1, 2), ("B", 1, 2)],
        ["A.r0", "B.r0"],
        ["B.c1"],
        lambda net: establish_epr_exchange(net, "A", "B"),
    ),
    "nonlocal-cnot": (
        [("A", 1, 1), ("B", 1, 1)],
        ["A.r0", "B.r0"],
        ["B.c0"],
        lambda net: nonlocal_cnot(net, at("A.r0"), at("B.r0")),
    ),
    "sequence": (
        [("A", 1, 1), ("B", 1, 1)],
        ["A.r0", "B.r0"],
        ["A.c0"],
        lambda net: nonlocal_controlled_sequence(net, at("A.r0"), [(X, at("B.r0"))]),
    ),
    "parallel-control": (
        [("C", 1, 1), ("P1", 1, 1), ("P2", 1, 1)],
        ["C.r0", "P1.r0", "P2.r0"],
        ["P2.c0"],
        lambda net: parallel_distributed_control(net, at("C.r0"), [("P1", X, at("P1.r0")), ("P2", X, at("P2.r0"))]),
    ),
    "c4x-split": (
        [("TOP", 3, 1), ("BOT", 3, 1)],
        ["TOP.r0", "TOP.r1", "TOP.r2", "BOT.r0", "BOT.r1", "BOT.r2"],
        ["BOT.c0"],
        lambda net: decompose_multi_control_x(
            net, [at("TOP.r0"), at("TOP.r1"), at("BOT.r0"), at("BOT.r1")], at("TOP.r2"), at("BOT.r2")
        ),
    ),
    # the transform claims two channel qubits per node: every channel of M1
    # busy, or one of them
    "transform": (
        [("M0", 2, 2), ("M1", 2, 2)],
        ["M0.r0", "M0.r1", "M1.r0", "M1.r1"],
        ["M1.c0", "M1.c1"],
        lambda net: qft_distributed(net, build_qft_plan(4, 2), amortized=True),
    ),
    "transform-one-busy-channel": (
        [("M0", 2, 2), ("M1", 2, 2)],
        ["M0.r0", "M0.r1", "M1.r0", "M1.r1"],
        ["M1.c0"],
        lambda net: qft_distributed(net, build_qft_plan(4, 2), amortized=True),
    ),
}


@pytest.mark.parametrize("spec,data,busy,run", SHORTFALLS.values(), ids=SHORTFALLS)
def test_a_shortfall_raises_before_the_first_gate_and_changes_nothing(spec, data, busy, run):
    """Every helper qubit is claimed before the first gate, so a busy one
    (left at |1>) or a missing one raises CapacityError with the network as
    it was. The GHZ build once wrote the pairs it had claimed so far, and
    the transform ran its first rounds of gates."""
    net = Network(spec, seed=0)
    data = [at(q) for q in data]
    net.inject_state(data, random_state(len(data), np.random.default_rng(5)).amplitudes)
    for q in busy:
        net.local_apply(X, [at(q)])
    amps, rest = observed(net)
    with pytest.raises(CapacityError, match="idle"):
        run(net)
    amps_after, rest_after = observed(net)
    assert np.array_equal(amps_after, amps) and rest_after == rest


# A/B layout, busy qubits -> the qubits probed for |0>, in order, and the
# pairs written
SWAP_CLAIMS = {
    "2/2": ([("A", 1, 2), ("B", 1, 2)], [], ["A.c0", "B.c0", "A.c1", "B.c1"], ["B.c1", "A.c1", "A.c0", "B.c0"]),
    "2/1": ([("A", 2, 2), ("B", 1, 1)], [], ["A.c0", "B.c0", "A.c1", "A.r1"], ["B.c0", "A.c0", "A.c0", "B.c0"]),
    "1/2": ([("A", 2, 1), ("B", 1, 2)], [], ["A.c0", "B.c0", "A.r1"], ["B.c0", "A.c0", "A.c0", "B.c0"]),
    "1/1": ([("A", 2, 1), ("B", 1, 1)], [], ["A.c0", "B.c0", "A.r1"], ["B.c0", "A.c0", "A.c0", "B.c0"]),
    "busy-first-channel": (
        [("A", 1, 3), ("B", 1, 2)],
        ["A.c0"],
        ["A.c0", "A.c1", "B.c0", "A.c2", "B.c1"],
        ["B.c1", "A.c2", "A.c1", "B.c0"],
    ),
}


@pytest.mark.parametrize("spec,busy,probes,pairs", SWAP_CLAIMS.values(), ids=SWAP_CLAIMS)
def test_distributed_swap_probes_each_qubit_once(spec, busy, probes, pairs, probed, written):
    """Each qubit the swap claims is probed once, a busy or unused one at
    most once, and both pairs are written with no second probe; the swap
    once probed every pair qubit again as it wrote the pair."""
    net = Network(spec, seed=0)
    for q in busy:
        net.local_apply(X, [at(q)])
    rep = swap_ab(net)
    assert rep.verified
    assert probed == [at(q) for q in probes]
    assert written == [at(q) for q in pairs]


@pytest.mark.parametrize(
    "spec", [[("C1", 1, 1), ("C2", 1, 1), ("T", 3, 1)], [("C", 2, 2), ("T", 3, 1)]], ids=["two-nodes", "one-node"]
)
def test_multi_control_probes_each_claimed_qubit_once(spec, probed, written):
    """Two remote controls: the two ancillas, a channel qubit per control and
    the target node's one channel qubit are each probed once, before the
    first gate, and each share's pair goes onto its claimed channel qubits;
    each share once probed its pair again."""
    net = Network(spec, seed=0)
    controls = [QubitAddress(node, REGISTER, slot) for node, regs, _ in spec[:-1] for slot in range(regs)]
    rep = nonlocal_multi_control(net, controls, X, at("T.r0"), check=True)
    assert rep.verified
    chans = [QubitAddress(c.node, CHANNEL, c.slot) for c in controls]
    assert probed == [at("T.r1"), at("T.r2"), *chans, at("T.c0")]
    assert written == [chans[0], at("T.c0"), chans[1], at("T.c0")]


@pytest.mark.parametrize("n,m", [(4, 2), (6, 3)])
def test_transform_probes_each_channel_once(n, m, probed):
    """The transform claims two channel qubits on every node before its
    first gate, probing each once, and runs every distribution and reversal
    swap over them with no further probe for |0>."""
    net = Network([(f"M{i}", n // m, 2) for i in range(m)], seed=0)
    assert qft_distributed(net, build_qft_plan(n, m), amortized=True, check=True).verified
    assert probed == [at(f"M{i}.c{c}") for i in range(m) for c in (0, 1)]


# ---- distributed_em -----------------------------------------------------------


def test_em_channel_requirements_table():
    assert em_channel_requirements(4, "linear") == [1, 2, 2, 1]
    assert em_channel_requirements(4, "binary-tree") == [2, 2, 1, 1]
    assert em_channel_requirements(8, "binary-tree")[0] == 3  # root holds log2(8) pairs


def test_distributed_em_linear_m3():
    net = Network([("N0", 1, 1), ("N1", 1, 2), ("N2", 1, 1)], seed=0)
    rep = distributed_em(net, ["N0", "N1", "N2"], "linear", check=True)
    assert rep.verified
    assert rep.ledger.ebits_consumed == 2
    regs = [net.reg(f"N{i}") for i in range(3)]
    assert marginal_fidelity(net, regs, [SQRT2_INV, 0, 0, 0, 0, 0, 0, SQRT2_INV]) > 1 - 1e-10


def test_distributed_em_tree_m4_round_count():
    net = Network([("N0", 1, 2), ("N1", 1, 2), ("N2", 1, 1), ("N3", 1, 1)], seed=0)
    rep = distributed_em(net, ["N0", "N1", "N2", "N3"], "binary-tree", check=True)
    assert rep.verified
    assert rep.ledger.ebits_consumed == 3
    assert rep.rounds == 2  # two stages of non-local CNOTs


def test_distributed_em_capacity_checked():
    net = Network([("N0", 1, 1), ("N1", 1, 1), ("N2", 1, 1), ("N3", 1, 1)])
    with pytest.raises(CapacityError):
        distributed_em(net, ["N0", "N1", "N2", "N3"], "binary-tree")  # N0 needs 2


def test_distributed_em_rejects_single_node():
    net = Network([("N0", 1, 2)])
    with pytest.raises(ValueError):
        distributed_em(net, ["N0"])


def ghz_wide_outcomes(seed):
    """The benchmark's ghz-wide outcomes for `seed`: a (Z, X) pair per edge
    of the 8-node binary tree, two edges of each kind reading 1, disjoint,
    the two X edges on distinct control nodes."""
    edges = [edge for stage in em_schedule(8, "binary-tree") for edge in stage]
    rng = random.Random(seed)
    z_edges = rng.sample(range(len(edges)), 2)
    while True:
        x_edges = rng.sample([e for e in range(len(edges)) if e not in z_edges], 2)
        if edges[x_edges[0]][0] != edges[x_edges[1]][0]:
            break
    return [int(e in chosen) for e in range(len(edges)) for chosen in (z_edges, x_edges)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ghz_wide_build_state_traffic(seed, monkeypatch):
    """The 8-node binary-tree build makes 28 probes, one per pair qubit as
    _claim takes it up front and one per reset, and 44 gate applications (27
    permutation, 2 diagonal, 15 general): its share of the per-branch
    counts the benchmark's traced ghz-wide run pins, whose other 14 probes
    are the channel checks after the build."""
    counts = collections.Counter()
    apply_gate, partial_state_check = qstate.apply_gate, qstate.partial_state_check

    def counted_gate(state, gate, *args, **kwargs):
        counts[gate.kind] += 1
        return apply_gate(state, gate, *args, **kwargs)

    def counted_probe(*args, **kwargs):
        counts["probe"] += 1
        return partial_state_check(*args, **kwargs)

    spec = [(f"N{i}", 1, max(1, r)) for i, r in enumerate(em_channel_requirements(8, "binary-tree"))]
    net = Network(spec, seed=0)
    net.force_outcomes(ghz_wide_outcomes(seed))
    monkeypatch.setattr(qstate, "apply_gate", counted_gate)
    monkeypatch.setattr(qstate, "partial_state_check", counted_probe)
    rep = distributed_em(net, [name for name, _, _ in spec], "binary-tree")
    assert counts == {"permutation": 27, "diagonal": 2, "general": 15, "probe": 28}
    assert rep.ledger.ebits_consumed == 7 and net.pending_outcomes == 0


def test_distributed_em_channels_reset_after():
    net = Network([("N0", 1, 2), ("N1", 1, 2), ("N2", 1, 1), ("N3", 1, 1)], seed=5)
    distributed_em(net, ["N0", "N1", "N2", "N3"], "binary-tree")
    for addr in net.addresses(pool=CHANNEL):
        assert net.qubit_is(addr, 0)


# ---- teleport_with_reset ---------------------------------------------------------


def test_teleport_with_reset_frozen():
    for branch in range(4):
        net = Network([("A", 1, 1), ("B", 1, 1)])
        src, dst = net.reg("A"), net.reg("B")
        net.inject_state([src], np.array([0.6, 0.8]))
        net.preshare_epr(net.chan("A"), net.chan("B"))
        net.force_outcomes([(branch >> 1) & 1, branch & 1])
        rep = teleport_with_reset(net, src, (net.chan("A"), net.chan("B")), dst, check=True)
        assert rep.verified
        assert marginal_fidelity(net, [dst], [0.6, 0.8]) > 1 - 1e-10
        assert net.qubit_is(src, 0)
        assert net.qubit_is(net.chan("A"), 0)
        assert net.qubit_is(net.chan("B"), 0)


def test_teleport_with_reset_rejects_dirty_empty():
    net = Network([("A", 1, 1), ("B", 1, 1)])
    net.preshare_epr(net.chan("A"), net.chan("B"))
    net.local_apply(X, [net.reg("B")])
    with pytest.raises(PreconditionError):
        teleport_with_reset(net, net.reg("A"), (net.chan("A"), net.chan("B")), net.reg("B"))


def test_teleport_with_reset_requires_remote_register():
    net = Network([("A", 2, 1), ("B", 1, 1)])
    net.preshare_epr(net.chan("A"), net.chan("B"))
    with pytest.raises(ValueError, match="receiving node"):
        teleport_with_reset(net, net.reg("A", 0), (net.chan("A"), net.chan("B")), net.reg("A", 1))


# ---- distributed_swap ------------------------------------------------------------


def test_distributed_swap_random_pairs():
    rng = np.random.default_rng(31)
    for trial in range(3):
        amps = random_state(2, rng).amplitudes
        net = Network([("A", 1, 2), ("B", 1, 2)], seed=trial)
        a, b = net.reg("A"), net.reg("B")
        net.inject_state([a, b], amps)
        rep = distributed_swap(net, a, b, check=True)
        assert rep.verified
        swapped = embed(np.eye(4)[[0, 2, 1, 3]], 2, [0, 1]) @ amps
        assert marginal_fidelity(net, [a, b], swapped) > 1 - 1e-10
        assert rep.details["register_buffers_used"] == 0
        led = rep.ledger.as_dict()
        assert (led["ebits"], led["cbits"]) == (2, 4)


def test_distributed_swap_basis():
    net = Network([("A", 1, 2), ("B", 1, 2)], seed=0)
    a, b = net.reg("A"), net.reg("B")
    net.local_apply(X, [a])
    distributed_swap(net, a, b)
    assert net.qubit_is(a, 0)
    assert net.qubit_is(b, 1)


def test_distributed_swap_fallback_uses_register_buffer():
    net = Network([("A", 2, 1), ("B", 1, 1)], seed=0)
    a, b = net.reg("A", 0), net.reg("B")
    net.local_apply(X, [a])
    rep = distributed_swap(net, a, b, check=True)
    assert rep.verified
    assert rep.details["register_buffers_used"] == 1
    assert net.qubit_is(a, 0)
    assert net.qubit_is(b, 1)


def test_distributed_swap_takes_only_the_channels_it_needs():
    """A third channel qubit on A, split-measured from |+> so it reads a
    different bit on each row, is never probed: the swap needs two."""
    net = Network([("A", 1, 3), ("B", 1, 2)], seed=0)
    a, b = net.reg("A"), net.reg("B")
    net.inject_state([a, b], [0.1, 0.7j, 0.5, -0.5])
    net.local_apply(H, [net.chan("A", 2)])
    net.split_outcomes(5)
    spare = net.measure(net.chan("A", 2))
    rep = distributed_swap(net, a, b, check=True)
    assert net.rows == 32
    assert rep.verified and rep.details["register_buffers_used"] == 0
    assert (rep.ledger.ebits_consumed, rep.ledger.cbits_sent) == (2, 4)
    assert net.qubit_is(net.chan("A", 2), spare.outcome)


# A/B channel counts -> (layout, register buffers used); A holds a second
# register qubit wherever a buffer is needed
SWAP_LAYOUTS = {
    "2/2": ([("A", 1, 2), ("B", 1, 2)], 0),
    "2/1": ([("A", 2, 2), ("B", 1, 1)], 1),
    "1/2": ([("A", 2, 1), ("B", 1, 2)], 1),
    "1/1": ([("A", 2, 1), ("B", 1, 1)], 1),
}


@pytest.mark.parametrize("layout,buffers", SWAP_LAYOUTS.values(), ids=SWAP_LAYOUTS)
def test_distributed_swap_sweeps_every_layout(layout, buffers):
    """All 16 branches of the four measurements, one row each."""
    amps = random_state(2, np.random.default_rng(23)).amplitudes
    net = Network(layout, seed=0)
    a, b = net.reg("A"), net.reg("B")
    net.inject_state([a, b], amps)
    net.split_outcomes(4)
    rep = distributed_swap(net, a, b, check=True)
    assert net.rows == 16 and rep.verified
    rho = reduced_density_matrix(net.state, [net.global_index(a), net.global_index(b)])
    swapped = amps[[0, 2, 1, 3]]
    assert np.all(np.einsum("i,rij,j->r", swapped.conj(), rho, swapped).real > 1 - 1e-10)
    assert (rep.ledger.ebits_consumed, rep.ledger.cbits_sent) == (2, 4)
    assert rep.details["register_buffers_used"] == buffers
    assert all(net.qubit_is(q, 0) for q in net.addresses() if q not in (a, b))


def test_distributed_swap_capacity_error():
    net = Network([("A", 1, 1), ("B", 1, 1)])
    with pytest.raises(CapacityError):
        distributed_swap(net, net.reg("A"), net.reg("B"))


# ---- nonlocal_multi_control --------------------------------------------------------


def test_multi_control_matches_toffoli():
    rng = np.random.default_rng(13)
    amps = random_state(3, rng).amplitudes
    net = Network([("C1", 1, 1), ("C2", 1, 1), ("T", 3, 1)], seed=0)
    c1, c2, t = net.reg("C1"), net.reg("C2"), net.reg("T", 0)
    net.inject_state([c1, c2, t], amps)
    rep = nonlocal_multi_control(net, [c1, c2], X, t, check=True)
    assert rep.verified
    led = rep.ledger.as_dict()
    assert (led["ebits"], led["cbits"]) == (2, 4)
    want = embed(TOFFOLI.matrix, 3, [0, 1, 2]) @ amps
    assert marginal_fidelity(net, [c1, c2, t], want) > 1 - 1e-10
    # ancilla slots and channels all returned to |0>
    for addr in [net.reg("T", 1), net.reg("T", 2), *net.addresses(pool=CHANNEL)]:
        assert net.qubit_is(addr, 0)


def test_multi_control_all_ones_applies_base():
    net = Network([("C1", 1, 1), ("C2", 1, 1), ("T", 3, 1)], seed=0)
    c1, c2, t = net.reg("C1"), net.reg("C2"), net.reg("T", 0)
    for q in (c1, c2):
        net.local_apply(X, [q])
    nonlocal_multi_control(net, [c1, c2], X, t)
    assert net.qubit_is(t, 1)


def two_controls_on_one_node(channels):
    net = Network([("C", 2, channels), ("T", 3, 1)], seed=0)
    controls = [net.reg("C", 0), net.reg("C", 1)]
    net.inject_state([*controls, net.reg("T")], random_state(3, np.random.default_rng(3)).amplitudes)
    return net, controls


def test_multi_control_gives_each_share_its_own_channel():
    """Two remote controls on one node: the second share must not re-take
    the channel qubit the first consumed, whatever that qubit read."""
    net, controls = two_controls_on_one_node(2)
    net.split_outcomes(4)
    rep = nonlocal_multi_control(net, controls, X, net.reg("T"), check=True)
    assert net.rows == 16
    assert rep.verified
    assert (rep.ledger.ebits_consumed, rep.ledger.cbits_sent) == (2, 4)
    for addr in [net.reg("T", 1), net.reg("T", 2), *net.addresses(pool=CHANNEL)]:
        assert net.qubit_is(addr, 0)


@pytest.mark.parametrize("outcomes", [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], None])
def test_multi_control_needs_a_channel_per_share(outcomes):
    """With one channel qubit on the controls' node the second share has
    none, on every outcome of the first (None: both split into rows)."""
    net, controls = two_controls_on_one_node(1)
    if outcomes is None:
        net.split_outcomes(4)
    else:
        net.force_outcomes(outcomes)
    with pytest.raises(CapacityError, match="on C"):
        nonlocal_multi_control(net, controls, X, net.reg("T"))


def test_multi_control_short_of_channels_fails_before_any_gate():
    """Both controls on C with one channel qubit there: the shortage is
    found before the first share is written, so nothing is charged or
    measured."""
    net, controls = two_controls_on_one_node(1)
    with pytest.raises(CapacityError, match="on C"):
        nonlocal_multi_control(net, controls, X, net.reg("T"))
    assert net.ledger.as_dict() == {"ebits": 0, "cbits": 0, "qubits_transported": 0, "rounds": 0}
    assert net.records == [] and net.message_log == []


def test_multi_control_capacity_suggests_decomposition():
    net = Network([("C1", 1, 1), ("C2", 1, 1), ("T", 1, 1)])
    with pytest.raises(CapacityError, match="decompose_multi_control_x"):
        nonlocal_multi_control(net, [net.reg("C1"), net.reg("C2")], X, net.reg("T"))


# ---- decompose_multi_control_x --------------------------------------------------


def test_c4x_monolithic_random_state():
    rng = np.random.default_rng(40)
    amps = random_state(6, rng).amplitudes
    net = Network([("M", 6, 0)])
    qs = [net.reg("M", j) for j in range(6)]
    net.inject_state(qs, amps)
    rep = decompose_multi_control_x(net, qs[:4], qs[4], qs[5], check=True)
    assert rep.verified
    assert rep.details["variant"] == "monolithic"
    want = embed(C4X.matrix, 6, [0, 1, 2, 3, 5]) @ amps
    assert marginal_fidelity(net, qs, want) > 1 - 1e-10


def test_c4x_all_controls_on():
    net = Network([("M", 6, 0)])
    qs = [net.reg("M", j) for j in range(6)]
    for q in qs[:4]:
        net.local_apply(X, [q])
    decompose_multi_control_x(net, qs[:4], qs[4], qs[5])
    assert net.qubit_is(qs[5], 1)
    assert net.qubit_is(qs[4], 0)  # ancilla restored


def test_c4x_distributed_ledger():
    """The split layout spends one pair and leaves every channel in |0>,
    with its ancilla on a register or on TOP.channel[0]. There the pair
    goes to TOP.channel[1]; its TOP half was once written onto the ancilla,
    which was then measured."""
    for regs, chans in ((3, 1), (2, 2)):
        net = Network([("TOP", regs, chans), ("BOT", 3, 1)], seed=0)
        c1, c2 = net.reg("TOP", 0), net.reg("TOP", 1)
        anc = net.reg("TOP", 2) if regs == 3 else net.chan("TOP", 0)
        c3, c4, tgt = net.reg("BOT", 0), net.reg("BOT", 1), net.reg("BOT", 2)
        net.inject_state([c1, c2, c3, c4, tgt], random_state(5, np.random.default_rng(41)).amplitudes)
        rep = decompose_multi_control_x(net, [c1, c2, c3, c4], anc, tgt, check=True)
        assert rep.verified and rep.details["variant"] == "distributed"
        led = rep.ledger.as_dict()
        assert (led["ebits"], led["cbits"]) == (1, 2)
        assert net.records and all(r.address != anc for r in net.records)
        for addr in net.addresses(pool=CHANNEL):
            assert net.qubit_is(addr, 0)


def test_c4x_rejects_unknown_layout():
    net = Network([("A", 2, 1), ("B", 2, 1), ("C", 2, 1)])
    with pytest.raises(ValueError):
        decompose_multi_control_x(
            net,
            [net.reg("A", 0), net.reg("A", 1), net.reg("B", 0), net.reg("B", 1)],
            net.reg("C", 0),
            net.reg("C", 1),
        )


# ---- integration: a shared qubit between two local sub-transformations ------------


def test_shared_qubit_travels_by_teleport():
    """Apply V1 on (x, s) at node A, ship s to B by teleport, apply V2 on
    (y, s) there, ship s back into its freed slot; compare against the
    monolithic product."""
    rng = np.random.default_rng(77)
    v1 = random_unitary(4, rng)
    v2 = random_unitary(4, rng)
    amps = random_state(3, rng).amplitudes  # on (x, s, y)
    for branch in range(16):
        bits = [(branch >> (3 - i)) & 1 for i in range(4)]
        net = Network([("A", 2, 1), ("B", 2, 1)])
        x, s = net.reg("A", 0), net.reg("A", 1)
        y, landing = net.reg("B", 0), net.reg("B", 1)
        net.inject_state([x, s, y], amps)
        net.force_outcomes(bits)

        net.local_apply(qstate.GateMatrix(v1), [x, s])
        net.preshare_epr(net.chan("A"), net.chan("B"))
        teleport_with_reset(net, s, (net.chan("A"), net.chan("B")), landing)
        net.local_apply(qstate.GateMatrix(v2), [y, landing])
        net.preshare_epr(net.chan("B"), net.chan("A"))
        teleport_with_reset(net, landing, (net.chan("B"), net.chan("A")), s)

        ideal = embed(v2, 3, [2, 1]) @ embed(v1, 3, [0, 1]) @ amps
        assert marginal_fidelity(net, [x, s, y], ideal) > 1 - 1e-10
        assert net.qubit_is(landing, 0)
