"""Gate constructors and the cat-preparation schedules."""

import numpy as np
import pytest

from catnet.gates import (
    CNOT,
    CZ,
    EM_SHAPES,
    H,
    IDENTITY,
    SWAP,
    TOFFOLI,
    X,
    Z,
    ControlledSpec,
    em_schedule,
    make_controlled,
    make_rk,
)
from catnet.qstate import GateMatrix, apply_gate, basis_state

SQRT2_INV = 1 / np.sqrt(2)


def controlled_oracle(base: np.ndarray, num_controls: int) -> np.ndarray:
    """Identity everywhere except the all-controls-on block (independent route)."""
    base_dim = base.shape[0]
    dim = 2**num_controls * base_dim
    out = np.eye(dim, dtype=complex)
    out[dim - base_dim:, dim - base_dim:] = base
    return out


def test_fixed_matrices():
    assert np.allclose(H.matrix, SQRT2_INV * np.array([[1, 1], [1, -1]]))
    assert np.allclose(X.matrix, [[0, 1], [1, 0]])
    assert np.allclose(Z.matrix, [[1, 0], [0, -1]])
    assert np.allclose(IDENTITY.matrix, np.eye(2))
    assert np.allclose(CZ.matrix, np.diag([1, 1, 1, -1]))


def test_cnot_truth_table():
    for c in (0, 1):
        for t in (0, 1):
            idx = (c << 1) | t
            out = basis_state(2, idx)
            apply_gate(out, CNOT, [0, 1])
            want = (c << 1) | (t ^ c)
            assert np.allclose(out.amplitudes, basis_state(2, want).amplitudes)


def test_toffoli_truth_table():
    for idx in range(8):
        out = basis_state(3, idx)
        apply_gate(out, TOFFOLI, [0, 1, 2])
        want = idx ^ 1 if (idx >> 1) == 0b11 else idx
        assert np.allclose(out.amplitudes, basis_state(3, want).amplitudes)


def test_swap_permutation():
    want = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(SWAP.matrix, want)


@pytest.mark.parametrize("num_controls", [1, 2, 3])
@pytest.mark.parametrize("base", [X, Z, H, make_rk(3)])
def test_make_controlled_matches_oracle(num_controls, base):
    got = make_controlled(ControlledSpec(num_controls, base)).matrix
    assert np.allclose(got, controlled_oracle(base.matrix, num_controls))


def test_make_controlled_known_identities():
    assert np.allclose(make_controlled(ControlledSpec(1, X)).matrix, CNOT.matrix)
    assert np.allclose(make_controlled(ControlledSpec(2, X)).matrix, TOFFOLI.matrix)


def test_controlled_spec_edge_cases():
    assert np.allclose(make_controlled(ControlledSpec(0, X)).matrix, X.matrix)
    with pytest.raises(ValueError):
        make_controlled(ControlledSpec(-1, X))


def test_make_rk_values():
    assert np.allclose(make_rk(1).matrix, Z.matrix)
    assert np.allclose(make_rk(2).matrix, np.diag([1, 1j]))
    k = 5
    assert np.allclose(make_rk(k).matrix, np.diag([1, np.exp(2j * np.pi / 2**k)]))


def test_make_rk_is_cached():
    assert make_rk(3) is make_rk(3)


# ---- cat preparation schedules ------------------------------------------------


def test_linear_schedule_is_a_chain():
    assert em_schedule(4, "linear") == [[(0, 1)], [(1, 2)], [(2, 3)]]


def test_tree_schedule_doubles():
    assert em_schedule(4, "binary-tree") == [[(0, 1)], [(0, 2), (1, 3)]]


@pytest.mark.parametrize("m", range(2, 10))
@pytest.mark.parametrize("shape", sorted(EM_SHAPES))
def test_schedule_shape_invariants(m, shape):
    """Every schedule reaches all m qubits: sources already entangled,
    targets fresh, stage pairs disjoint, m-1 edges total."""
    schedule = em_schedule(m, shape)
    edges = [e for stage in schedule for e in stage]
    assert len(edges) == m - 1
    reached = {0}
    for stage in schedule:
        touched = set()
        for src, dst in stage:
            assert src in reached
            assert dst not in reached
            assert src not in touched and dst not in touched
            touched.update((src, dst))
        reached.update(dst for _, dst in stage)
    assert reached == set(range(m))
    if shape == "linear":
        assert len(schedule) == m - 1
    else:
        assert len(schedule) == int(np.ceil(np.log2(m)))


def test_schedule_rejects_unknown_shape():
    with pytest.raises(ValueError):
        em_schedule(3, "star")
    with pytest.raises(ValueError):
        em_schedule(1, "linear")


@pytest.mark.parametrize("shape,m,depth", [("linear", 5, 4), ("binary-tree", 5, 3), ("binary-tree", 8, 3)])
def test_em_schedule_prepares_cat(shape, m, depth):
    """H on wire 0, then the schedule's CNOT rounds, gives the cat state."""
    schedule = em_schedule(m, shape)
    state = basis_state(m)
    apply_gate(state, H, [0])
    for stage in schedule:
        for src, dst in stage:
            apply_gate(state, CNOT, [src, dst])
    want = np.zeros(2**m, dtype=complex)
    want[0] = want[-1] = SQRT2_INV
    assert np.allclose(state.amplitudes, want)
    assert len(schedule) == depth


def test_make_controlled_returns_one_object_per_content():
    first = make_controlled(ControlledSpec(1, make_rk(3)))
    # a separately built base with equal matrix content
    again = make_controlled(ControlledSpec(1, GateMatrix(make_rk(3).matrix.copy())))
    assert again is first
    assert make_controlled(ControlledSpec(2, make_rk(3))) is not first


def test_make_controlled_cache_is_bounded():
    from catnet.gates import _controlled

    limit = _controlled.cache_info().maxsize
    for k in range(limit + 20):
        make_controlled(ControlledSpec(1, GateMatrix(np.diag([1.0, np.exp(1j * k / 7)]))))
    assert _controlled.cache_info().currsize == limit
