"""Exact state-vector core.

Conventions used everywhere in this package:

* Qubit 0 is the MOST significant bit of a basis index, so basis labels read
  left to right like a ket: index 0b10 of a two-qubit state is |10>.
* Gate matrices follow the same convention on their own wires: the first
  target qubit is the most significant bit of the matrix row/column index.
* States are always kept normalized; comparisons use a 1e-10 tolerance and
  amplitudes below 1e-12 count as exactly zero when validating forced
  measurement outcomes.

Kernels work on the (2,)*n view of the amplitudes. Fixing the target qubits
to the bits of a gate row selects a slab of that view (a strided block of
2^(n-a) amplitudes), so a permutation gate copies the slabs it moves, a
diagonal gate scales the slabs whose phase is not 1, and a one-qubit gate
mixes its two slabs; wider general gates contract through tensordot. No
array of 2^n indices or phases is ever built. apply_gate and measure
overwrite the state's own buffer (a Network owns its global state and
changes it in place); a caller that needs the earlier state copies it
first. pattern_slabs hands the same slabs out as views, for checks that
read amplitudes by pattern.

A state may carry a leading branch axis: a (rows, 2^n) array holding one
normalized vector per measurement branch, which is the deferred-measurement
picture with the branch bits as extra leading qubits that no gate touches.
Every kernel acts on all rows at once (apply_gate can be limited to a
subset of rows), measure_split turns each row into its two outcome rows,
and the probes return one answer per row. An unsplit state keeps a 1-D
vector and scalar answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ImpossibleBranchError

ATOL = 1e-10
ZERO_CUTOFF = 1e-12


class GateMatrix:
    """A unitary acting on a fixed number of qubits.

    The matrix is validated (square, power-of-two dimension, unitary within
    1e-10) and frozen at construction. Instances are classified once as
    permutation / diagonal / general, and what the kernel needs for that
    kind is precomputed: the (destination, source) row pairs a permutation
    moves, the (row, phase) pairs of a diagonal whose phase is not 1, and
    the (2,)*2a tensor of the matrix.
    """

    __slots__ = ("matrix", "arity", "kind", "tensor", "moves", "phases")

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"gate matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        arity = dim.bit_length() - 1
        if 2**arity != dim or arity < 1:
            raise ValueError(f"gate dimension must be a power of two >= 2, got {dim}")
        if not np.allclose(m.conj().T @ m, np.eye(dim), atol=ATOL):
            raise ValueError("gate matrix is not unitary within 1e-10")
        m.setflags(write=False)
        self.matrix = m
        self.arity = arity
        self.tensor = m.reshape((2,) * (2 * arity))
        self._classify()

    def _classify(self) -> None:
        m = self.matrix
        dim = m.shape[0]
        self.moves: tuple[tuple[int, int], ...] = ()
        self.phases: tuple[tuple[int, complex], ...] = ()
        nonzero_rows = m.nonzero()[0]
        if len(nonzero_rows) == dim and np.all((m == 0) | (m == 1)):
            # exactly one 1 per column: out[row] <- in[col]
            rows, cols = m.nonzero()
            self.kind = "permutation"
            self.moves = tuple((int(r), int(c)) for r, c in zip(rows, cols) if r != c)
        elif np.count_nonzero(m - np.diag(np.diagonal(m))) == 0:
            self.kind = "diagonal"
            self.phases = tuple(
                (row, complex(phase)) for row, phase in enumerate(np.diagonal(m)) if phase != 1
            )
        else:
            self.kind = "general"

    def __repr__(self) -> str:
        return f"GateMatrix(arity={self.arity}, kind={self.kind})"


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over 2**num_qubits basis states.

    The amplitudes are a vector of 2^n entries, or a (rows, 2^n) array for a
    state split into branch rows. They are kept C-contiguous, so reshaping
    them onto (2,) * n axes is a view and the in-place kernels write
    through it.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        dim = 2**self.num_qubits
        if amps.shape != (dim,) and not (amps.ndim == 2 and amps.shape[1] == dim and len(amps)):
            raise ValueError(f"expected {dim} amplitudes (per row), got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def rows(self) -> int:
        """Branch rows carried: 1 for an unsplit state."""
        return 1 if self.amplitudes.ndim == 1 else len(self.amplitudes)

    def norm(self):
        """The norm: a float, or one per row for a split state."""
        if self.amplitudes.ndim == 1:
            return float(np.linalg.norm(self.amplitudes))
        return np.linalg.norm(self.amplitudes, axis=1)


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement: where it happened, what came out, how likely it was.

    `address` is a global qubit index at the state layer and a QubitAddress
    at the network layer.
    """

    address: object
    outcome: int | np.ndarray
    probability: float | np.ndarray


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """|index> on num_qubits wires, index read with qubit 0 as MSB."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state (normalized complex Gaussian)."""
    v = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, v / np.linalg.norm(v))


def _check_targets(state: StateVector, targets: Sequence[int], arity: int) -> tuple:
    targets = tuple(map(int, targets))
    if len(targets) != arity:
        raise ValueError(f"gate acts on {arity} qubits, got targets {targets}")
    if len(set(targets)) != arity:
        raise ValueError(f"duplicate target qubits: {targets}")
    if targets and (min(targets) < 0 or max(targets) >= state.num_qubits):
        bad = next(t for t in targets if not 0 <= t < state.num_qubits)
        raise ValueError(f"target {bad} out of range for {state.num_qubits} qubits")
    return targets


def _qubit_view(amps: np.ndarray, n: int) -> np.ndarray:
    """The amplitudes on (2,)*n axes, after the row axis of a split state."""
    return amps.reshape(amps.shape[:-1] + (2,) * n)


# Keyed by (n, targets) only, so a sweep that repeats the same gate placements
# on fresh networks reuses its entries instead of adding new ones.
@lru_cache(maxsize=4096)
def _slabs(n: int, targets: tuple) -> tuple:
    """Index into the qubit view of the slab for every gate row, in row order.

    Row r fixes the targets to the bits of r (first target = most
    significant bit) and leaves every other axis whole. The leading
    Ellipsis spans the row axis of a split state and keeps the result a
    view even when every qubit is a target.
    """
    a = len(targets)
    out = []
    for row in range(2**a):
        idx: list = [slice(None)] * n
        for j, t in enumerate(targets):
            idx[t] = (row >> (a - 1 - j)) & 1
        out.append((Ellipsis, *idx))
    return tuple(out)


def _apply(amps: np.ndarray, n: int, gate: GateMatrix, targets: tuple) -> None:
    """Overwrite the contiguous amplitude buffer `amps` with gate @ amps,
    on every row of a split state."""
    if gate.kind == "general":
        a = gate.arity
        if a > 1:
            psi = _qubit_view(amps, n)
            axes = tuple(t + amps.ndim - 1 for t in targets)
            res = np.tensordot(gate.tensor, psi, axes=(tuple(range(a, 2 * a)), axes))
            psi[...] = np.moveaxis(res, tuple(range(a)), axes)
        elif targets[0] == n - 1:
            # the two slabs of the last qubit interleave pair by pair
            pairs = amps.reshape(-1, 2)
            pairs[...] = pairs @ gate.matrix.T
        else:
            # axis 1 of this view separates the target's two slabs, so one
            # matmul applies the 2x2 matrix to every pair of amplitudes
            split = amps.reshape(-1, 2, 2 ** (n - 1 - targets[0]))
            split[...] = gate.matrix @ split
        return
    psi = _qubit_view(amps, n)
    slab = _slabs(n, targets)
    if gate.kind == "permutation":
        # every source is saved before any destination is written, so cycles
        # of any length come out right
        saved = [psi[slab[src]].copy() for _, src in gate.moves]
        for (dst, _), block in zip(gate.moves, saved):
            psi[slab[dst]] = block
    else:
        for row, phase in gate.phases:
            block = psi[slab[row]]
            block *= phase


def apply_gate(
    state: StateVector,
    gate: GateMatrix,
    targets: Sequence[int],
    rows: np.ndarray | None = None,
) -> None:
    """Apply `gate` to the listed qubits, overwriting the state's amplitudes.

    The first listed target is the gate's most significant wire. `rows`, a
    boolean mask over the rows of a split state, limits the gate to those
    rows; the others are left as they are.
    """
    targets = _check_targets(state, targets, gate.arity)
    if rows is None:
        _apply(state.amplitudes, state.num_qubits, gate, targets)
        return
    sub = state.amplitudes[rows]
    _apply(sub, state.num_qubits, gate, targets)
    state.amplitudes[rows] = sub


def pattern_slabs(state: StateVector, qubits: Sequence[int]) -> list[np.ndarray]:
    """The amplitudes grouped by the bit pattern of `qubits`, without copying.

    Entry b is a view of the slab where the listed qubits read the bits of b
    (first listed qubit = most significant bit); a split state's slabs keep
    the row axis first.
    """
    qubits = _check_targets(state, qubits, len(qubits))
    psi = _qubit_view(state.amplitudes, state.num_qubits)
    return [psi[idx] for idx in _slabs(state.num_qubits, qubits)]


def row_weights(block: np.ndarray, rows: int) -> float | np.ndarray:
    """Squared norm of `block` (a state or one of its slabs, the row axis
    first when rows > 1): a float for one row, else one value per row."""
    if rows == 1:
        return float(np.linalg.norm(block)) ** 2
    flat = block.reshape(rows, -1)
    return np.einsum("ri,ri->r", flat.real, flat.real) + np.einsum("ri,ri->r", flat.imag, flat.imag)


def _weight(amps: np.ndarray, n: int, qubit: int, bit: int) -> float | np.ndarray:
    """Probability that `qubit` reads `bit`: a float for an unsplit buffer,
    else one value per row.

    One reduction over the float64 view of the slab where the qubit reads
    `bit` sums the squared real and imaginary parts, so no squared copy of
    the slab is built.
    """
    f = amps.view(np.float64)
    if amps.ndim == 1:
        f = f.reshape(2**qubit, 2, -1)[:, bit, :]
        return float(np.einsum("ij,ij->", f, f))
    f = f.reshape(len(amps), 2**qubit, 2, -1)[:, :, bit, :]
    return np.einsum("rjk,rjk->r", f, f)


def _bits(value, what: str) -> int | np.ndarray:
    """A bit as an int, or per-row bits as an int64 array; anything else raises."""
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            return _bits(value.item(), what)
        bits = value.astype(np.int64)
        if not ((bits == 0) | (bits == 1)).all() or not np.array_equal(bits, value):
            raise ValueError(f"{what} must be 0 or 1, got {value}")
        return bits
    if value not in (0, 1):
        raise ValueError(f"{what} must be 0 or 1, got {value}")
    return int(value)


def measure(
    state: StateVector,
    qubit: int,
    *,
    rng: np.random.Generator | None = None,
    forced: int | np.ndarray | None = None,
) -> MeasurementRecord:
    """Projective Z measurement of one qubit, collapsing the state in place.

    Exactly one of `rng` / `forced` must be given: sampled outcomes come from
    the generator, forced outcomes select a branch for deterministic
    enumeration. The discarded half of the amplitudes is zeroed and the kept
    half rescaled, without copying the vector. Forcing an outcome whose
    probability is below 1e-12 raises ImpossibleBranchError and leaves the
    state unchanged.

    On a split state the outcome and its probability are per row: a forced
    outcome may be one bit for every row or one bit per row, and the
    generator draws once per row.
    """
    amps, n = state.amplitudes, state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    if (rng is None) == (forced is None):
        raise ValueError("supply exactly one of rng= or forced=")
    split = amps.ndim == 2
    # per-outcome weights summed from their own slices: renormalizing by the
    # kept slice's weight leaves the state with unit norm exactly, whereas
    # 1 - p_other would let rounding drift compound over many measurements
    if forced is None:
        if split:
            forced = (rng.random(len(amps)) < _weight(amps, n, qubit, 1)).astype(np.int64)
        else:
            forced = int(rng.random() < _weight(amps, n, qubit, 1))
    outcome = _bits(forced, "forced outcome")
    if isinstance(outcome, np.ndarray) and (outcome == outcome[0]).all():
        outcome = int(outcome[0])
    if isinstance(outcome, int):
        p = _weight(amps, n, qubit, outcome)
    else:
        p = np.where(outcome == 1, _weight(amps, n, qubit, 1), _weight(amps, n, qubit, 0))
    # scalar arithmetic for an unsplit buffer: numpy calls on a single value
    # cost more than the collapse of a small state
    least = p.min() if split else p
    if least < ZERO_CUTOFF:
        raise ImpossibleBranchError(
            f"outcome {outcome} on qubit {qubit} has probability {least:.3e}"
        )
    scale = np.sqrt(p)[:, None, None] if split else np.sqrt(p)
    halves = amps.reshape(-1, 2**qubit, 2, 2 ** (n - 1 - qubit))
    if isinstance(outcome, int):
        halves[:, :, 1 - outcome, :] = 0
        kept = halves[:, :, outcome, :]
        kept /= scale
    else:
        halves[outcome == 0, :, 1, :] = 0
        halves[outcome == 1, :, 0, :] = 0
        halves /= scale[..., None]
    return MeasurementRecord(qubit, outcome, p)


def measure_split(state: StateVector, qubit: int) -> tuple[StateVector, MeasurementRecord]:
    """Z-measure `qubit` on every row and keep both outcomes.

    Row r of the input becomes row 2r (outcome 0) and row 2r+1 (outcome 1)
    of a new state, each renormalized by its own weight; the record holds
    the per-row outcomes and probabilities. Any branch of probability below
    1e-12 raises ImpossibleBranchError. The input state is left untouched.
    """
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    amps = state.amplitudes.reshape(-1, 2**n)
    rows = len(amps)
    p = np.stack([_weight(amps, n, qubit, 0), _weight(amps, n, qubit, 1)], axis=1).reshape(-1)
    if (p < ZERO_CUTOFF).any():
        raise ImpossibleBranchError(
            f"a branch of the split on qubit {qubit} has probability {p.min():.3e}"
        )
    src = amps.reshape(rows, 2**qubit, 2, -1)
    new = np.zeros((rows, 2) + src.shape[1:], dtype=complex)
    for bit in (0, 1):
        new[:, bit, :, bit, :] = src[:, :, bit, :]
    new = new.reshape(2 * rows, 2**n)
    new /= np.sqrt(p)[:, None]
    return StateVector(n, new), MeasurementRecord(qubit, np.tile([0, 1], rows), p)


def partial_state_check(state: StateVector, qubit: int, expected: int | np.ndarray):
    """True when `qubit` is |expected> with probability 1 within 1e-10.

    A split state gives one answer per row, and `expected` may then hold
    one bit per row.
    """
    expected = _bits(expected, "expected bit")
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits} qubits")
    amps, n = state.amplitudes, state.num_qubits
    if isinstance(expected, np.ndarray):
        wrong = np.where(expected == 1, _weight(amps, n, qubit, 0), _weight(amps, n, qubit, 1))
    else:
        wrong = _weight(amps, n, qubit, 1 - expected)
    return wrong <= ATOL


def bipartition(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """The amplitudes as a (rows, 2^len(keep), 2^rest) array: the listed
    qubits (first listed = MSB) index the middle axis and every other qubit
    the last. An unsplit state has one row."""
    keep = _check_targets(state, keep, len(keep))
    n = state.num_qubits
    psi = _qubit_view(state.amplitudes.reshape(-1, 2**n), n)
    psi = np.moveaxis(psi, [k + 1 for k in keep], range(1, len(keep) + 1))
    return psi.reshape(len(psi), 2 ** len(keep), -1)


def overlap(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """tr(rho_a rho_e) for every row of `actual`, one value per row.

    Both arguments are bipartition() blocks over the same kept qubits and
    rho_x = x x^dagger is the kept qubits' reduced state. The trace equals
    ||e^dagger a||^2 (Frobenius), so neither density matrix is formed.
    `expected` may have fewer rows: each stands for the consecutive block of
    rows of `actual` that descends from it.
    """
    a = actual.reshape(len(expected), -1, *actual.shape[1:])
    m = expected.conj().swapaxes(-1, -2)[:, None] @ a
    return (np.square(m.real) + np.square(m.imag)).sum(axis=(-1, -2)).reshape(-1)


def reduced_density_matrix(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Density matrix of the listed qubits with everything else traced out.

    Row/column indices follow the order of `keep` (first listed = MSB). A
    split state gives a stack of matrices, one per row.
    """
    m = bipartition(state, keep)
    rho = m @ m.conj().swapaxes(-1, -2)
    return rho if state.amplitudes.ndim == 2 else rho[0]
