"""Transform correctness against the defining sum, plan arithmetic, and
distributed execution."""

import collections
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from catnet import qft, qstate
from catnet.errors import CapacityError
from catnet.network import Network
from catnet.qft import build_qft_plan, qft_distributed, qft_local
from reference import qft_matrix, random_state, reduced_density_matrix


def dft_sum_oracle(n):
    """Entry-by-entry evaluation of the defining sum, no vectorized shortcuts."""
    dim = 2**n
    out = np.empty((dim, dim), dtype=complex)
    for row in range(dim):
        for col in range(dim):
            out[row, col] = np.exp(2j * np.pi * row * col / dim) / math.sqrt(dim)
    return out


def embed(matrix, n, targets):
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


# ---- the matrix and the local circuit ------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_matrix_matches_defining_sum(n):
    assert np.allclose(qft_matrix(n), dft_sum_oracle(n), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 7))
def test_matrix_is_unitary(n):
    f = qft_matrix(n)
    assert np.allclose(f.conj().T @ f, np.eye(2**n), atol=1e-12)


def test_basis_state_phases_frozen():
    """|j=5> on 3 qubits maps to uniform amplitudes with phase 2*pi*5k/8."""
    state = qstate.basis_state(3, 5)
    out = qft_local(state, [0, 1, 2])
    want = np.exp(2j * np.pi * 5 * np.arange(8) / 8) / math.sqrt(8)
    assert np.allclose(out.amplitudes, want, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 6))
def test_circuit_matches_matrix_on_random_states(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        state = random_state(n, rng)
        out = qft_local(state, list(range(n)))
        assert np.allclose(out.amplitudes, dft_sum_oracle(n) @ state.amplitudes, atol=1e-10)


def test_circuit_on_a_subset_of_qubits():
    rng = np.random.default_rng(9)
    state = random_state(4, rng)
    out = qft_local(state, [1, 3])
    want = embed(qft_matrix(2), 4, [1, 3]) @ state.amplitudes
    assert np.allclose(out.amplitudes, want, atol=1e-10)


# ---- plan arithmetic -------------------------------------------------------------


def test_plan_counts_4_over_2():
    plan = build_qft_plan(4, 2)
    assert plan.total_controlled == 6
    assert plan.local_controlled == 2
    assert plan.nonlocal_controlled == 4
    assert plan.amortized_distributions == 2
    assert plan.cross_swaps == 2


def test_plan_counts_8_over_4():
    plan = build_qft_plan(8, 4)
    assert plan.total_controlled == 28
    assert plan.local_controlled == 4
    assert plan.nonlocal_controlled == 24


@pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (6, 2), (6, 3), (8, 2), (12, 4)])
def test_plan_count_invariants(n, m):
    plan = build_qft_plan(n, m)
    assert plan.total_controlled == n * (n - 1) // 2
    assert plan.local_controlled + plan.nonlocal_controlled == plan.total_controlled
    assert plan.local_controlled == m * (plan.k * (plan.k - 1) // 2)
    assert len(plan.swaps) == n // 2
    assert plan.amortized_distributions <= plan.nonlocal_controlled


def test_plan_rejects_uneven_split():
    with pytest.raises(ValueError):
        build_qft_plan(6, 4)
    with pytest.raises(ValueError):
        build_qft_plan(0, 1)


def test_single_machine_plan_has_no_remote_work():
    plan = build_qft_plan(4, 1)
    assert plan.nonlocal_controlled == 0
    assert plan.cross_swaps == 0


# ---- distributed execution --------------------------------------------------------


def qft_net(m, k, seed=None):
    return Network([(f"M{i}", k, 2) for i in range(m)], seed=seed)


def test_distributed_4_over_2_matches_matrix():
    rng = np.random.default_rng(11)
    plan = build_qft_plan(4, 2)
    net = qft_net(2, 2, seed=0)
    addrs = [net.reg(f"M{i // 2}", i % 2) for i in range(4)]
    amps = random_state(4, rng).amplitudes
    net.inject_state(addrs, amps)
    rep = qft_distributed(net, plan, check=True)
    assert rep.verified
    assert rep.max_infidelity <= 1e-10
    led = rep.ledger.as_dict()
    assert (led["ebits"], led["cbits"], led["qubits_transported"]) == (4, 8, 0)
    assert rep.details["distributions_used"] == 4
    got = reduced_density_matrix(net.state, [net.global_index(a) for a in addrs])
    want = qft_matrix(4) @ amps
    assert float(np.real(want.conj() @ got @ want)) > 1 - 1e-10


def test_distributed_amortized_uses_fewer_pairs():
    plan = build_qft_plan(4, 2)
    raw = qft_distributed(qft_net(2, 2, seed=1), plan, check=True)
    amortized = qft_distributed(qft_net(2, 2, seed=1), plan, amortized=True, check=True)
    assert raw.verified and amortized.verified
    assert raw.ledger.ebits_consumed == 4
    assert amortized.ledger.ebits_consumed == 2
    assert amortized.details["distributions_used"] == 2


# The messages of each transform below, in order, as "sender->recipients
# tag", recorded before the plain and amortized walks became one walk over
# qft._steps: they pin which control each distribution carries, to which
# machine, and in what order, in both modes.
MESSAGE_ORDER = json.loads((Path(__file__).parent / "qft_message_order.json").read_text())


@pytest.mark.parametrize("amortized", [False, True], ids=["plain", "amortized"])
@pytest.mark.parametrize("n,m", [(4, 1), (4, 2), (6, 2), (6, 3), (8, 4)])
def test_distributed_follows_the_plan(n, m, amortized):
    plan = build_qft_plan(n, m)
    rep = qft_distributed(qft_net(m, n // m, seed=0), plan, amortized=amortized, check=True)
    assert rep.verified
    want = plan.amortized_distributions if amortized else plan.nonlocal_controlled
    assert rep.details["distributions_used"] == rep.ledger.ebits_consumed == want
    sent = [f"{msg.sender}->{','.join(msg.to)} {msg.tag}" for msg in rep.messages]
    assert sent == MESSAGE_ORDER[f"{n}/{m} {'amortized' if amortized else 'plain'}"]


def test_distributed_swap_stage_tallied_separately():
    plan = build_qft_plan(4, 2)
    rep = qft_distributed(qft_net(2, 2, seed=2), plan)
    swap = rep.details["swap_ledger"]
    total = rep.details["total_ledger"]
    assert swap["ebits"] == 2 * plan.cross_swaps
    assert total["ebits"] == rep.ledger.ebits_consumed + swap["ebits"]


def test_distributed_basis_state_phases():
    plan = build_qft_plan(4, 2)
    net = qft_net(2, 2, seed=4)
    addrs = [net.reg(f"M{i // 2}", i % 2) for i in range(4)]
    net.inject_state(addrs, np.eye(16)[13])
    qft_distributed(net, plan)
    got = reduced_density_matrix(net.state, [net.global_index(a) for a in addrs])
    want = np.exp(2j * np.pi * 13 * np.arange(16) / 16) / 4.0
    assert float(np.real(want.conj() @ got @ want)) > 1 - 1e-10


def test_distributed_6_over_3_ledger():
    plan = build_qft_plan(6, 3)
    rep = qft_distributed(qft_net(3, 2, seed=5), plan, check=True)
    assert rep.verified
    led = rep.ledger.as_dict()
    assert (led["ebits"], led["cbits"]) == (12, 24)


def test_distributed_check_applies_the_circuit_past_ten_qubits(monkeypatch):
    """The protocol's own check holds at n = 12, where no dense transform
    is built, and catches a reversal stage that never ran."""

    def run():
        net = qft_net(3, 4, seed=6)
        net.inject_state([net.reg(f"M{i // 4}", i % 4) for i in range(12)], qstate.random_vector(12, random.Random(6)))
        return qft_distributed(net, build_qft_plan(12, 3), amortized=True, check=True)

    rep = run()
    assert rep.verified and rep.max_infidelity <= 1e-10
    monkeypatch.setattr(qft, "_swap_over", lambda *args, **kwargs: None)
    assert run().verified is False


@pytest.mark.parametrize("split", [False, True], ids=["forced-ones", "split"])
def test_amortized_4_over_2_state_traffic(split, monkeypatch):
    """One amortized 4/2 run makes 58 gate applications (30 permutation, 12
    diagonal, 16 general) and 16 probes inside qft_distributed: 4 as it
    claims two channel qubits per node, 4 as the distributions' pairs are
    reset, and 4 as each reversal swap's pairs are. Every correction
    fires: on every row with all twelve outcomes forced to 1, on some rows
    with all twelve split. This is the run the benchmark's traced qft-sweep
    counts per branch, whose probe count adds the verifier's 4 channel
    checks."""
    counts = collections.Counter()
    apply_gate, partial_state_check = qstate.apply_gate, qstate.partial_state_check

    def counted_gate(state, gate, *args, **kwargs):
        counts[gate.kind] += 1
        return apply_gate(state, gate, *args, **kwargs)

    def counted_probe(*args, **kwargs):
        counts["probe"] += 1
        return partial_state_check(*args, **kwargs)

    net = qft_net(2, 2, seed=0)
    addrs = [net.reg(f"M{i // 2}", i % 2) for i in range(4)]
    net.inject_state(addrs, random_state(4, np.random.default_rng(9)).amplitudes)
    if split:
        net.split_outcomes(12)
    else:
        net.force_outcomes([1] * 12)
    monkeypatch.setattr(qstate, "apply_gate", counted_gate)
    monkeypatch.setattr(qstate, "partial_state_check", counted_probe)
    rep = qft_distributed(net, build_qft_plan(4, 2), amortized=True)
    assert counts == {"permutation": 30, "diagonal": 12, "general": 16, "probe": 16}
    assert net.rows == (4096 if split else 1) and net.pending_outcomes == 0
    assert rep.ledger.ebits_consumed == 2 and rep.details["swap_ledger"]["ebits"] == 4


def test_distributed_wrong_node_count():
    plan = build_qft_plan(4, 2)
    with pytest.raises(ValueError):
        qft_distributed(qft_net(3, 2), plan)


def test_distributed_needs_two_channels_per_node():
    plan = build_qft_plan(4, 2)
    net = Network([("M0", 2, 1), ("M1", 2, 1)])
    with pytest.raises(CapacityError):
        qft_distributed(net, plan)
