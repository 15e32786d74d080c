"""State-vector core: conventions, gate application, measurement.

The gate-application oracle here builds the full 2^n x 2^n operator with a
kron product plus an explicit basis-relabeling permutation, sharing no code
with the slab kernels or their tensor contraction.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catnet import gates, qstate
from catnet.errors import ImpossibleBranchError, UnforcedOutcomeError
from catnet.gates import CNOT, H, SWAP, TOFFOLI, X, Z, ControlledSpec, make_controlled, make_rk
from catnet.qstate import (
    GateMatrix,
    StateVector,
    apply_gate,
    basis_state,
    measure,
    partial_state_check,
    pattern_weights,
)
from reference import qft_matrix, random_state, reduced_density_matrix

SQRT2_INV = 1 / np.sqrt(2)

# |00> -> |01> -> |10> -> |00>, |11> fixed: a permutation with a 3-cycle
CYCLE3 = GateMatrix(np.eye(4)[:, [1, 2, 0, 3]])
# several non-unit phases, one of them not a root of unity of small order
PHASES = GateMatrix(np.diag([1, 1j, -1, np.exp(0.3j)]))
C4X = make_controlled(ControlledSpec(4, X))


def _random_unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


RANDOM_2Q = GateMatrix(_random_unitary(4, 3))


def copy_of(state: StateVector) -> StateVector:
    """A state with its own buffer, for kernels that would overwrite the input."""
    return StateVector(state.num_qubits, state.amplitudes.copy())


def bell_pair() -> StateVector:
    state = basis_state(2)
    apply_gate(state, H, [0])
    apply_gate(state, CNOT, [0, 1])
    return state


def embed_oracle(matrix: np.ndarray, n: int, targets: list[int]) -> np.ndarray:
    """Full-space operator via kron + basis relabeling (independent route)."""
    rest = [q for q in range(n) if q not in targets]
    big = np.kron(matrix, np.eye(2 ** len(rest), dtype=complex))
    perm = np.zeros((2**n, 2**n))
    for idx in range(2**n):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        new = 0
        for q in list(targets) + rest:
            new = (new << 1) | bits[q]
        perm[new, idx] = 1
    return perm.T @ big @ perm


# ---- conventions -------------------------------------------------------


def test_qubit_zero_is_most_significant():
    """X on qubit 0 of |00> must set basis index 0b10, not 0b01."""
    state = basis_state(2, 0)
    apply_gate(state, X, [0])
    assert np.allclose(state.amplitudes, [0, 0, 1, 0])
    state = basis_state(2, 0)
    apply_gate(state, X, [1])
    assert np.allclose(state.amplitudes, [0, 1, 0, 0])


def test_basis_state_bounds():
    assert np.allclose(basis_state(3, 5).amplitudes[5], 1.0)
    with pytest.raises(ValueError):
        basis_state(2, 4)


def test_statevector_shape_checked():
    with pytest.raises(ValueError):
        StateVector(2, np.ones(3))


def test_cnot_target_order():
    # first listed target is the control (most significant gate wire)
    for start, targets, end in [(0b10, [0, 1], 0b11), (0b10, [1, 0], 0b10), (0b01, [1, 0], 0b11)]:
        s = basis_state(2, start)
        apply_gate(s, CNOT, targets)
        assert np.allclose(s.amplitudes, basis_state(2, end).amplitudes)


def test_bell_pair_construction():
    assert np.allclose(bell_pair().amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV])


# ---- GateMatrix validation -------------------------------------------------


def test_gate_matrix_rejects_non_unitary():
    with pytest.raises(ValueError):
        GateMatrix(np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ValueError):
        GateMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        GateMatrix(np.eye(3))  # not a power-of-two dimension


def test_gate_matrix_bound_is_absolute():
    """Every entry of m^dagger m - I must be within 1e-10: a relative
    tolerance would let a column norm^2 off by 8e-6 through."""
    for m in (np.diag([1 + 1e-6, 1]), np.diag([1 + 4e-6, 1]), np.diag([np.nan, 1])):
        with pytest.raises(ValueError, match="unitary"):
            GateMatrix(m)
    GateMatrix(np.diag([1 + 1e-12, 1]))


def _built_gates() -> list[GateMatrix]:
    """The fixed gates, the rotations and the controlled gates that the
    protocols and the QFT build."""
    from catnet import protocols, qft

    built = [g for mod in (gates, protocols) for g in vars(mod).values() if isinstance(g, GateMatrix)]
    built += [make_rk(k) for k in range(1, 9)]
    built += [qft.controlled_rk(k) for k in range(1, 9)]
    built += [GateMatrix(qft_matrix(n)) for n in range(1, 7)]
    bases = [X, Z, H, make_rk(2), make_rk(3)]
    built += [make_controlled(ControlledSpec(c, b)) for c in range(1, 5) for b in bases]
    return built


def test_gate_matrix_accepts_every_built_gate():
    from catnet.verify import _random_unitary

    haar = [_random_unitary(2**q, random.Random(seed)) for q in (1, 2, 3) for seed in range(10)]
    for m in [g.matrix for g in _built_gates()] + haar:
        GateMatrix(m)


def test_gate_kind_classification():
    assert X.kind == "permutation"
    assert CNOT.kind == "permutation"
    assert Z.kind == "diagonal"
    assert make_rk(3).kind == "diagonal"
    assert H.kind == "general"


RELABELS = {"X": X, "CNOT": CNOT, "SWAP": SWAP, "TOFFOLI": TOFFOLI, "CYCLE3": CYCLE3}


def _relabel_cases():
    """Every gate of RELABELS with every nonempty set of fixed target
    positions, unmasked; X and SWAP masked as well."""
    for name, gate in RELABELS.items():
        for size in range(1, gate.arity + 1):
            for fpos in itertools.combinations(range(gate.arity), size):
                for masked in (False, True) if name in ("X", "SWAP") else (False,):
                    label = f"{name}-fixed{''.join(map(str, fpos))}{'-masked' if masked else ''}"
                    yield pytest.param(name, fpos, masked, id=label)


@pytest.mark.parametrize("name,fpos,masked", _relabel_cases())
def test_only_x_and_swap_relabel_fixed_qubits(name, fpos, masked):
    """Only an X relabels: on a fixed qubit, masked or not, it keeps the
    qubit fixed and flips its bit. Every other gate merges its fixed
    targets into a block, a SWAP masked or not among them (a Network runs
    an unmasked SWAP by trading slots, so no kernel sees it). The fixed
    targets read per-row bits, split off a random state, and the mask is
    another split's outcome. Either way the amplitudes are those of the same
    gate on a dense copy."""
    gate = RELABELS[name]
    targets = [2, 0, 3][: gate.arity]
    state = random_state(4, random.Random(23))
    rows = measure(state, 1).outcome == 1 if masked else None
    for j in fpos:
        measure(state, targets[j])
    ref = StateVector(4, state.amplitudes.reshape(state.rows, -1))
    apply_gate(state, gate, targets, rows=rows)
    apply_gate(ref, gate, targets, rows=None if rows is None else state.per_row(rows))
    assert np.max(np.abs(state.amplitudes - ref.amplitudes)) < 1e-12
    assert {t for t in targets if t in state.fixed} == ({targets[0]} if name == "X" else set())


@pytest.mark.parametrize("fire", [True, False])
def test_a_mask_of_every_row_or_none_blends_like_any_other(fire):
    """The masked path has no case of its own for a mask that marks every
    row or none: the blend gives the unmasked gate's amplitudes for the
    first and leaves them as they were for the second."""
    state = random_state(3, random.Random(5))
    measure(state, 0)
    want = state.copy()
    if fire:
        apply_gate(want, H, [2])
    apply_gate(state, H, [2], rows=np.full(state.grid, fire))
    assert np.max(np.abs(state.amplitudes - want.amplitudes)) < 1e-12


def test_apply_gate_bad_targets():
    s = basis_state(3)
    with pytest.raises(ValueError):
        apply_gate(s, CNOT, [0])  # arity mismatch
    with pytest.raises(ValueError):
        apply_gate(s, CNOT, [0, 0])  # duplicate
    with pytest.raises(ValueError):
        apply_gate(s, X, [3])  # out of range


# ---- gate application vs the kron oracle ----------------------------------


@pytest.mark.parametrize("gate,targets,n", [
    (X, [1], 3),
    (H, [2], 3),
    (Z, [0], 2),
    (CNOT, [2, 0], 3),
    (CNOT, [0, 2], 4),
    (SWAP, [3, 1], 4),
    (TOFFOLI, [0, 2, 1], 3),
    (TOFFOLI, [4, 1, 2], 5),
    (make_rk(2), [1], 2),
    (X, [0], 1),
    (H, [1], 4),
    (H, [0], 1),
    (make_rk(3), [0], 1),
    (CYCLE3, [2, 0], 3),
    (CYCLE3, [1, 3], 4),
    (PHASES, [3, 1], 4),
    (C4X, [5, 0, 3, 1, 6], 7),
    (RANDOM_2Q, [2, 0], 3),
])
def test_apply_matches_kron_oracle(gate, targets, n):
    """Every kernel kind agrees with the kron oracle."""
    state = random_state(n, random.Random(17))
    want = embed_oracle(gate.matrix, n, targets) @ state.amplitudes
    apply_gate(state, gate, targets)
    assert np.max(np.abs(state.amplitudes - want)) < 1e-12


@given(st.integers(0, 10_000), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_random_unitary_matches_oracle(seed, n):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(mat)
    gate = GateMatrix(q)
    targets = list(rng.permutation(n)[:2])
    state = random_state(n, rng)
    want = embed_oracle(q, n, targets) @ state.amplitudes
    apply_gate(state, gate, targets)
    assert np.max(np.abs(state.amplitudes - want)) < 1e-11


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_unitaries_preserve_norm(seed):
    state = random_state(3, random.Random(seed))
    for gate, t in [(H, [0]), (CNOT, [1, 2]), (TOFFOLI, [0, 1, 2]), (make_rk(4), [2])]:
        apply_gate(state, gate, t)
    assert abs(state.norm() - 1.0) < 1e-12


def test_measure_inplace_collapses_own_buffer():
    bell = bell_pair()
    rec = measure(bell, 1, forced=1)
    assert rec.outcome == 1 and abs(rec.probability - 0.5) < 1e-12
    # the measured qubit's axis is dropped and its outcome recorded
    assert bell.fixed == {1: 1} and [(b.qubits, b.amps.shape) for b in bell.blocks] == [([0], (1, 2))]
    assert np.allclose(bell.amplitudes, basis_state(2, 0b11).amplitudes)
    # a refused branch leaves the state as it was
    amps = bell.blocks[0].amps
    with pytest.raises(ImpossibleBranchError):
        measure(bell, 0, forced=0)
    assert bell.blocks[0].amps is amps and bell.fixed == {1: 1}
    assert np.allclose(bell.amplitudes, basis_state(2, 0b11).amplitudes)


def test_pattern_weights_are_ordered():
    state = random_state(3, random.Random(29))
    psi, weights = pattern_weights(state, [2, 0])
    # entry 0b10 is qubit 2 = 1, qubit 0 = 0: basis indices 0b001 and 0b011,
    # after the block's one row
    assert psi.shape == (1, 4, 2) and psi.flags.c_contiguous
    assert np.array_equal(psi[:, 0b10], state.amplitudes[None, [0b001, 0b011]])
    # each pattern's weight is the probability that the qubits read it
    probs = np.abs(state.amplitudes) ** 2
    want = [probs[[i for i in range(8) if (i & 1, i >> 2) == (b >> 1, b & 1)]].sum() for b in range(4)]
    assert weights.shape == (1, 4) and np.allclose(weights[0], want, atol=1e-15)


def _memo_sizes() -> dict[str, int]:
    sizes = {}
    for name, obj in vars(qstate).items():
        if hasattr(obj, "cache_info"):
            sizes[name] = obj.cache_info().currsize
        elif isinstance(obj, (dict, list, set)) and not name.startswith("__"):
            sizes[name] = len(obj)
    return sizes


def test_memos_do_not_grow_with_branches():
    """Regression: gate plans were cached per gate object, and every branch
    builds fresh controlled gates, so the cache grew with each branch."""
    from catnet.verify import verify_protocol

    verify_protocol("qft", branches="sampled", samples=16)
    after_16 = _memo_sizes()
    verify_protocol("qft", branches="sampled", samples=256)
    assert _memo_sizes() == after_16


# ---- measurement ------------------------------------------------------------


def test_measure_plus_state_both_branches():
    plus = basis_state(1)
    apply_gate(plus, H, [0])
    for outcome in (0, 1):
        post = copy_of(plus)
        rec = measure(post, 0, forced=outcome)
        assert rec.outcome == outcome
        assert abs(rec.probability - 0.5) < 1e-12
        assert np.allclose(post.amplitudes, basis_state(1, outcome).amplitudes)


def test_measure_impossible_branch():
    with pytest.raises(ImpossibleBranchError):
        measure(basis_state(1, 0), 0, forced=1)


def test_measure_takes_at_most_one_source():
    """Given neither source, measure keeps both outcomes as two rows; given
    both, it raises and leaves the state as it was."""
    plus = basis_state(1)
    apply_gate(plus, H, [0])
    with pytest.raises(ValueError):
        measure(plus, 0, rngs=[random.Random(0)], forced=0)
    assert plus.rows == 1 and 0 not in plus.fixed
    rec = measure(plus, 0)
    assert plus.grid == (2, 1) and np.array_equal(plus.per_row(rec.outcome), [0, 1])
    assert np.allclose(plus.per_row(rec.probability), [0.5, 0.5])
    assert np.allclose(plus.amplitudes, np.eye(2))


def test_random_vector_is_seeded():
    """Equal seeds give bitwise-equal vectors, other seeds other vectors."""
    v = qstate.random_vector(5, random.Random(7))
    assert np.array_equal(v, qstate.random_vector(5, random.Random(7)))
    assert not np.array_equal(v, qstate.random_vector(5, random.Random(8)))
    assert np.array_equal(random_state(5, random.Random(7)).amplitudes, v)


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_random_vectors_have_unit_norm(n):
    rng = random.Random(n)
    for _ in range(20):
        v = qstate.random_vector(n, rng)
        assert v.shape == (2**n,) and abs(np.linalg.norm(v) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_random_vectors_are_consecutive_draws(n):
    """A batch is the same vectors, bit for bit, as that many single draws
    in a row, from random.Random or a numpy Generator alike, and leaves the
    generator at the same point."""
    for single, batch in [(random.Random(n), random.Random(n)), (np.random.default_rng(n), np.random.default_rng(n))]:
        want = [qstate.random_vector(n, single) for _ in range(5)]
        got = qstate.random_vectors(n, 5, batch)
        assert got.shape == (5, 2**n) and all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert single.random() == batch.random()


def test_random_vector_parts_are_standard_normals():
    """The 2^14 real and imaginary parts of a 2^13-amplitude vector, scaled
    back to a mean square of 1: the norm fixes only that total, so each
    part must have mean 0 and variance 1 on its own, be uncorrelated with
    the other, and put a normal's 68.3% within one standard deviation."""
    v = qstate.random_vector(13, random.Random(2024)) * np.sqrt(2**14)
    for part in (v.real, v.imag):
        assert abs(part.mean()) < 0.05 and abs(part.var() - 1.0) < 0.05
        assert abs(np.mean(np.abs(part) < 1.0) - 0.6827) < 0.02
    assert abs(np.corrcoef(v.real, v.imag)[0, 1]) < 0.05


@pytest.mark.parametrize("seed", range(4))
def test_sampled_outcomes_draw_once_per_row_in_row_order(seed):
    """On a split state, row r keeps outcome 1 exactly when the draw of
    row r's own generator falls below the row's weight of 1, and any other
    number of generators than one per row is refused."""
    inputs = [random_state(3, random.Random(100 * seed + i)).amplitudes for i in range(3)]
    state = StateVector(3, np.stack(inputs))
    qstate.measure(state, 0)
    assert state.rows == 6
    p1 = np.sum(np.abs(state.amplitudes[:, 0b001::2]) ** 2, axis=1)
    want = np.array([random.Random(seed + r).random() for r in range(state.rows)]) < p1
    with pytest.raises(UnforcedOutcomeError):
        measure(state, 2, rngs=[random.Random(seed)])
    rec = measure(state, 2, rngs=[random.Random(seed + r) for r in range(state.rows)])
    assert np.array_equal(state.per_row(rec.outcome), want)
    assert np.allclose(state.per_row(rec.probability), np.where(want, p1, 1 - p1))


@pytest.mark.parametrize("seed", range(16))
def test_a_forced_outcome_keeps_the_half_a_split_keeps(seed):
    """measure is one kernel for every outcome source. On a random stack of
    inputs, after earlier splits and corrections masked to their outcomes,
    forcing outcome b keeps bitwise what the rows of outcome b of a split
    hold, at a bitwise equal probability. A split of a fixed qubit and a
    call with both sources raise and leave the state as it was."""
    rng = random.Random(seed)
    n = 5
    state = StateVector(n, np.stack([random_state(n, rng).amplitudes for _ in range(rng.randint(1, 3))]))
    live = list(range(n))
    for _ in range(rng.randint(1, 2)):
        q = live.pop(rng.randrange(len(live)))
        fire = measure(state, q).outcome == 1
        apply_gate(state, X, [q], rows=fire)  # the outcome's reset: fixed at 0 on every row again
        apply_gate(state, rng.choice([X, Z, H]), [rng.choice(live)], rows=fire)
    before = state.amplitudes.tobytes()
    with pytest.raises(ImpossibleBranchError, match="a branch of the split"):
        measure(state, q)
    with pytest.raises(ValueError, match="not both"):
        measure(state, live[0], rngs=[random.Random(0)] * state.rows, forced=0)
    assert q in state.fixed and state.amplitudes.tobytes() == before
    q = rng.choice(live)
    split = state.copy()
    rec = measure(split, q)
    assert split.rows == 2 * state.rows
    for b in (0, 1):
        kept = state.copy()
        one = measure(kept, q, forced=b)
        assert split.per_row(rec.probability)[b::2].tobytes() == kept.per_row(one.probability).tobytes()
        assert split.amplitudes[b::2].tobytes() == kept.amplitudes.reshape(kept.rows, -1).tobytes()


def test_measure_collapses_entanglement():
    bell = bell_pair()
    rec = measure(bell, 0, forced=1)
    assert np.allclose(bell.amplitudes, basis_state(2, 0b11).amplitudes)
    assert abs(rec.probability - 0.5) < 1e-12


def test_norm_stable_over_many_measurements():
    """Regression: renormalization must not compound drift across a long
    measurement chain (1 - p_other amplifies error by 1/p each step)."""
    state = basis_state(2)
    for _ in range(60):
        apply_gate(state, H, [0])
        rec = measure(state, 0, forced=0)
        assert abs(rec.probability - 0.5) < 1e-12
    assert abs(state.norm() - 1.0) < 1e-13


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_branch_probabilities_sum_to_one(seed):
    state = random_state(3, random.Random(seed))
    rec0 = measure(copy_of(state), 1, forced=0)
    rec1 = measure(copy_of(state), 1, forced=1)
    assert abs(rec0.probability + rec1.probability - 1.0) < 1e-12


# ---- probes and reduced states --------------------------------------------


def test_partial_state_check():
    bell = bell_pair()
    assert not partial_state_check(bell, 0, 0)
    measure(bell, 0, forced=0)
    assert partial_state_check(bell, 0, 0)
    assert partial_state_check(bell, 1, 0)


def test_reduced_density_matrix_bell():
    rho = reduced_density_matrix(bell_pair(), [0])
    assert np.allclose(rho, np.eye(2) / 2)


def test_reduced_density_matrix_product():
    s = basis_state(3, 0b010)
    apply_gate(s, H, [0])
    rho = reduced_density_matrix(s, [1])
    want = np.zeros((2, 2))
    want[1, 1] = 1.0
    assert np.allclose(rho, want)
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_reduced_density_matrix_keeps_order():
    # keep=[1,0] must transpose the marginal relative to keep=[0,1]
    s = basis_state(2, 0b10)
    apply_gate(s, H, [1])
    rho01 = reduced_density_matrix(s, [0, 1])
    rho10 = reduced_density_matrix(s, [1, 0])
    probs01 = np.real(np.diag(rho01))
    probs10 = np.real(np.diag(rho10))
    # qubit 0 is |1>, qubit 1 is |+>: orders 10,11 vs 01,11
    assert np.allclose(probs01, [0, 0, 0.5, 0.5])
    assert np.allclose(probs10, [0, 0.5, 0, 0.5])


@pytest.mark.parametrize("keep", [[0, 1, 2, 3, 4], [3, 1], [4], [2, 0, 4]])
def test_overlap_matches_density_matrix_trace(keep):
    """tr(rho_a rho_e) without density matrices, per row of a stack of
    states against one state that stands in for every row, and per row of a
    split state against the two inputs its rows descend from."""
    rng = random.Random(11)
    ancestor = random_state(5, rng)
    split = StateVector(5, np.stack([random_state(5, rng).amplitudes for _ in range(4)]))
    got = qstate.overlap(qstate.bipartition(split, keep), qstate.bipartition(ancestor, keep))
    rho_e = reduced_density_matrix(ancestor, keep)
    want = [np.trace(rho_a @ rho_e).real for rho_a in reduced_density_matrix(split, keep)]
    assert got.shape == (4,)
    assert np.allclose(got, want, atol=1e-12)
    # the four rows as a grid of 2 inputs by one split, newest axis first:
    # row r = 2 * input + branch sits at [branch, input]
    half = StateVector(5, np.stack([random_state(5, rng).amplitudes for _ in range(2)]))
    rows = qstate.bipartition(split, keep)
    grid = rows.reshape((2, 2) + rows.shape[1:]).swapaxes(0, 1)
    got = qstate.overlap(grid, qstate.bipartition(half, keep))
    rho_half = reduced_density_matrix(half, keep)
    want = [np.trace(rho_a @ rho_half[r // 2]).real for r, rho_a in enumerate(reduced_density_matrix(split, keep))]
    assert got.shape == (2, 2)
    assert np.allclose(got.T.reshape(-1), want, atol=1e-12)
