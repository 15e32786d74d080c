"""The verifier layer's own machinery: the gate embedding its ideals are
built from, the block-diagonal ideal of parallel control, the per-row |0>
check, and the size refusal of the transform sweep."""

import itertools
import random

import numpy as np
import pytest

from catnet import qstate, verify
from catnet.gates import CNOT, H, X, Z, ControlledSpec, make_controlled, make_rk
from catnet.network import CHANNEL, REGISTER, QubitAddress
from catnet.protocols import C4X
from reference import embed


@pytest.mark.parametrize("n", range(1, 7))
def test_embed_matches_kron_reference(n):
    rng = random.Random(n)
    for arity in range(1, min(3, n) + 1):
        for targets in itertools.permutations(range(n), arity):
            gate = verify._random_unitary(2**arity, rng)
            assert np.array_equal(verify._embed(gate, n, list(targets)), embed(gate, n, list(targets)))


def test_embed_matches_kron_reference_on_the_verifiers_gates():
    assert np.array_equal(verify._embed(C4X.matrix, 6, [0, 1, 2, 3, 5]), embed(C4X.matrix, 6, [0, 1, 2, 3, 5]))
    for g in (H, make_rk(2), X, Z, CNOT):
        cg = make_controlled(ControlledSpec(1, g)).matrix
        for targets in itertools.permutations(range(3), g.arity + 1):
            assert np.array_equal(verify._embed(cg, 3, list(targets)), embed(cg, 3, list(targets)))


def test_parallel_control_ideal_is_the_controlled_product(monkeypatch):
    """The block-diagonal ideal is, bit for bit, |0><0| (x) I + |1><1| (x) U1 (x) U2 (x) U3."""
    seen = []
    monkeypatch.setattr(verify, "_verify", lambda sweep, cases, *a, **k: seen.extend(cases))
    verify.verify_parallel_control(seed=3)
    rng = random.Random(3)
    u1, u2, u3 = (verify._random_unitary(dim, rng) for dim in (4, 8, 4))
    on = np.diag([0.0, 1.0])
    want = np.kron(np.eye(2) - on, np.eye(128)) + np.kron(on, np.kron(np.kron(u1, u2), u3))
    assert seen[0].ideal.tobytes() == want.tobytes()


@pytest.fixture
def no_dense_transform(monkeypatch):
    """Fail fast, instead of allocating, if a transform above the bound gets
    as far as drawing its input or building its dense oracle."""
    draw, oracle = qstate.random_vector, verify.qft_matrix

    def guarded(build):
        def call(n, *args):
            assert n <= 10, f"built a {n}-qubit input or oracle"
            return build(n, *args)

        return call

    monkeypatch.setattr(qstate, "random_vector", guarded(draw))
    monkeypatch.setattr(verify, "qft_matrix", guarded(oracle))


def test_transform_above_dense_bound_is_refused(no_dense_transform):
    with pytest.raises(ValueError, match="dense oracle"):
        verify.verify_protocol("qft", n=11, m=1)
    with pytest.raises(ValueError, match="dense oracle"):
        verify.verify_all(n=12, m=2)
    report = verify.verify_protocol("qft", n=10, m=2, branches="sampled", samples=1)
    assert report.verified


def test_qubit_left_set_is_reported_on_its_row_only():
    """Two basis inputs ride one run as rows; a CNOT onto the channel sets
    it on input1's row alone, which fails its |0> check by name."""
    reg, chan = QubitAddress("A", REGISTER, 0), QubitAddress("A", CHANNEL, 0)

    def run(net):
        net.local_apply(CNOT, [reg, chan])
        return []

    inputs = [("input0", 0, np.array([1.0, 0.0])), ("input1", 1, np.array([0.0, 1.0]))]
    sweep = verify._Sweep("reset")
    verify._drive(sweep, verify.Case([("A", 1, 1)], 0, inputs, run, [reg], np.eye(2), zero=[chan]), "exhaustive")
    assert sweep.max_infidelity <= 1e-12  # the register kept each input
    assert sweep.failures == [{"case": "input1", "not_reset": "A.channel[0]"}]
