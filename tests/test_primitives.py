"""Cat entangler/disentangler primitives and their composition."""

import numpy as np
import pytest

from catnet import qstate
from catnet.errors import EntanglementError
from catnet.gates import CNOT, X
from catnet.network import Network
from catnet.primitives import cat_entangler, cat_shrink, teleport
from reference import reduced_density_matrix

SQRT2_INV = 1 / np.sqrt(2)
ALPHA, BETA = 0.6, 0.8


def chain_net(size, seed=None):
    """Control node N0 (one register + one channel) plus size-1 channel-only nodes."""
    spec = [("N0", 1, 1)] + [(f"N{j}", 0, 1) for j in range(1, size)]
    return Network(spec, seed=seed)


def entangled_group(net, size, amps=(ALPHA, BETA)):
    control = net.reg("N0")
    cat = [net.chan(f"N{j}") for j in range(size)]
    net.inject_state([control], np.array(amps, dtype=complex))
    net.preshare_cat(cat)
    return control, cat


def state_on(net, addrs, expected):
    """Fidelity of the reduced state on addrs against a pure expectation."""
    rho = reduced_density_matrix(net.state, [net.global_index(a) for a in addrs])
    expected = np.asarray(expected, dtype=complex)
    expected = expected / np.linalg.norm(expected)
    return float(np.real(expected.conj() @ rho @ expected))


# ---- cat_entangler ---------------------------------------------------------


@pytest.mark.parametrize("r", [0, 1])
def test_entangler_spreads_amplitudes(r):
    """Frozen example: 0.6|0>+0.8|1> over an EPR pair -> 0.6|00>+0.8|11>,
    sacrificed qubit left in |r>."""
    net = chain_net(2)
    control, cat = entangled_group(net, 2)
    net.force_outcomes([r])
    group = cat_entangler(net, control, cat)
    assert group.members == (control, cat[1])
    assert group.measured == cat[0]
    assert group.record.outcome == r
    assert state_on(net, group.members, [ALPHA, 0, 0, BETA]) > 1 - 1e-10
    assert net.qubit_is(cat[0], r)


def test_entangler_trivial_control():
    net = chain_net(4)
    control, cat = entangled_group(net, 4, amps=(1.0, 0.0))
    net.force_outcomes([0])
    group = cat_entangler(net, control, cat)
    assert state_on(net, group.members, [1] + [0] * 15) > 1 - 1e-10


def test_entangler_ledger_and_messages():
    for size in (2, 3, 4):
        net = chain_net(size, seed=1)
        control, cat = entangled_group(net, size)
        group = cat_entangler(net, control, cat)
        assert net.ledger.ebits_consumed == size - 1
        # one broadcast, one cbit per remote corrected node
        assert net.ledger.cbits_sent == size - 1
        assert len(net.message_log) == 1
        assert set(group.message.to) == {f"N{j}" for j in range(1, size)}


def test_entangler_needs_local_first_member():
    net = chain_net(3)
    control, cat = entangled_group(net, 3)
    with pytest.raises(EntanglementError):
        cat_entangler(net, control, [cat[1], cat[0], cat[2]])


def test_entangler_rejects_stale_cat():
    net = chain_net(2)
    control, cat = entangled_group(net, 2)
    net.local_apply(X, [cat[0]])  # |10> pattern is not a cat state
    with pytest.raises(EntanglementError):
        cat_entangler(net, control, cat)


def test_entangler_rejects_unentangled_zeros():
    net = chain_net(2)
    control = net.reg("N0")
    cat = [net.chan("N0"), net.chan("N1")]
    net.inject_state([control], np.array([ALPHA, BETA]))
    with pytest.raises(EntanglementError):
        cat_entangler(net, control, cat)  # |00>, never entangled


# ---- disentangler / shrink ----------------------------------------------------


def test_roundtrip_restores_control_all_branches():
    rng = np.random.default_rng(11)
    for size in (2, 3, 4):
        for _ in range(5):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps /= np.linalg.norm(amps)
            for branch in range(2**size):
                bits = [(branch >> (size - 1 - i)) & 1 for i in range(size)]
                net = chain_net(size)
                control, cat = entangled_group(net, size, amps=amps)
                net.force_outcomes(bits)
                group = cat_entangler(net, control, cat)
                cat_shrink(net, group.members, control)
                assert state_on(net, [control], amps) > 1 - 1e-10


def test_restore_on_any_member():
    """The surviving qubit may be any group member, not just the control."""
    for keep_idx in (0, 1, 2):
        net = chain_net(3, seed=keep_idx)
        control, cat = entangled_group(net, 3)
        group = cat_entangler(net, control, cat)
        keep = group.members[keep_idx]
        cat_shrink(net, group.members, keep)
        assert state_on(net, [keep], [ALPHA, BETA]) > 1 - 1e-10


def test_disentangler_z_branch():
    """Frozen example: keep=first, forced r=1 exercises the Z phase fix."""
    net = chain_net(2)
    control, cat = entangled_group(net, 2)
    net.force_outcomes([0])
    group = cat_entangler(net, control, cat)
    net.force_outcomes([1])
    cat_shrink(net, group.members, control)
    assert state_on(net, [control], [ALPHA, BETA]) > 1 - 1e-10
    assert net.qubit_is(cat[1], 1)  # measured member left in |1>


def test_shrink_partial_group():
    """Dropping 2 of 4 leaves a smaller cat-like state with the same amplitudes."""
    for branch in range(4):
        bits = [(branch >> 1) & 1, branch & 1]
        net = chain_net(4)
        control, cat = entangled_group(net, 4)
        net.force_outcomes([0])
        group = cat_entangler(net, control, cat)
        keep = [group.members[0], group.members[1]]
        net.force_outcomes(bits)
        cat_shrink(net, group.members, keep)
        assert state_on(net, keep, [ALPHA, 0, 0, BETA]) > 1 - 1e-10


def test_shrink_nothing_is_identity():
    net = chain_net(2, seed=0)
    control, cat = entangled_group(net, 2)
    group = cat_entangler(net, control, cat)
    before = net.state.amplitudes.copy()
    snap = net.ledger.snapshot()
    records = cat_shrink(net, group.members, list(group.members))
    assert records == []
    assert np.array_equal(net.state.amplitudes, before)
    assert net.ledger.delta_since(snap).as_dict()["rounds"] == 0


def test_shrink_validates_membership():
    net = chain_net(2)
    control, cat = entangled_group(net, 2)
    group = cat_entangler(net, control, cat)
    with pytest.raises(ValueError):
        cat_shrink(net, group.members, net.chan("N0"))
    with pytest.raises(ValueError):
        cat_shrink(net, group.members, [])


def test_xor_parities_are_aggregated_per_node():
    """Two dropped members on one node cost one parity bit, not two."""
    net = Network([("A", 1, 1), ("B", 0, 2)], seed=0)
    control = net.reg("A")
    cat = [net.chan("A"), net.chan("B", 0), net.chan("B", 1)]
    net.inject_state([control], np.array([ALPHA, BETA]))
    net.preshare_cat(cat)
    group = cat_entangler(net, control, cat)
    cbits_before = net.ledger.cbits_sent
    cat_shrink(net, group.members, control)
    assert net.ledger.cbits_sent - cbits_before == 1
    assert state_on(net, [control], [ALPHA, BETA]) > 1 - 1e-10


def test_shrink_works_with_outside_entanglement():
    """The group may be entangled with bystanders; only classical-pattern
    agreement across members is required."""
    net = Network([("A", 2, 1), ("B", 0, 1)], seed=0)
    bystander, control = net.reg("A", 0), net.reg("A", 1)
    net.local_apply(qstate.GateMatrix(np.array([[1, 1], [1, -1]]) * SQRT2_INV), [bystander])
    net.local_apply(CNOT, [bystander, control])  # control entangled before the fan-out
    cat = [net.chan("A"), net.chan("B")]
    net.preshare_cat(cat)
    group = cat_entangler(net, control, cat)
    cat_shrink(net, group.members, control)
    # bell pair between bystander and control must survive the round trip
    assert state_on(net, [bystander, control], [SQRT2_INV, 0, 0, SQRT2_INV]) > 1 - 1e-10


# ---- control-line equivalence ---------------------------------------------------


def test_any_member_controls_equally():
    """A CNOT from any member of the shared line acts exactly like a CNOT
    from the logical control onto that member's local target."""
    for member_idx in (0, 1, 2):
        for branch in range(8):
            bits = [(branch >> (2 - i)) & 1 for i in range(3)]
            net = Network([("N0", 2, 1), ("N1", 1, 1), ("N2", 1, 1)])
            control = net.reg("N0", 0)
            cat = [net.chan("N0"), net.chan("N1"), net.chan("N2")]
            targets = {0: net.reg("N0", 1), 1: net.reg("N1"), 2: net.reg("N2")}
            net.inject_state([control], np.array([ALPHA, BETA]))
            net.preshare_cat(cat)
            net.force_outcomes(bits)
            group = cat_entangler(net, control, cat)
            member = group.members[member_idx]
            target = targets[member_idx]
            net.local_apply(CNOT, [member, target])
            cat_shrink(net, group.members, control)
            assert state_on(net, [control, target], [ALPHA, 0, 0, BETA]) > 1 - 1e-10
            for other in set(targets) - {member_idx}:
                assert net.qubit_is(targets[other], 0)


# ---- teleport -----------------------------------------------------------------


def test_teleport_all_branches_random_states():
    rng = np.random.default_rng(23)
    for _ in range(5):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        for r1 in (0, 1):
            for r2 in (0, 1):
                net = Network([("A", 1, 1), ("B", 0, 1)])
                src = net.reg("A")
                epr = (net.chan("A"), net.chan("B"))
                net.inject_state([src], amps)
                net.preshare_epr(*epr)
                net.force_outcomes([r1, r2])
                rec_entangle, rec_shrink = teleport(net, src, epr)
                assert state_on(net, [epr[1]], amps) > 1 - 1e-10
                assert net.qubit_is(epr[0], r1)
                assert net.qubit_is(src, r2)
                assert (rec_entangle.outcome, rec_shrink.outcome) == (r1, r2)


def test_teleport_ledger_frozen():
    net = Network([("A", 1, 1), ("B", 0, 1)], seed=9)
    src = net.reg("A")
    epr = (net.chan("A"), net.chan("B"))
    net.preshare_epr(*epr)
    teleport(net, src, epr)
    assert net.ledger.as_dict() == {
        "ebits": 1,
        "cbits": 2,
        "qubits_transported": 0,
        "rounds": 7,
    }


def test_teleport_needs_colocated_epr_half():
    net = Network([("A", 1, 1), ("B", 0, 1)])
    src = net.reg("A")
    net.preshare_epr(net.chan("A"), net.chan("B"))
    with pytest.raises(EntanglementError):
        teleport(net, src, (net.chan("B"), net.chan("A")))
