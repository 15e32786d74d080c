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
array of 2^n indices or phases is ever built. Each kernel has two entry
points: apply_gate/measure return a new state and leave their input alone,
while apply_gate_inplace/measure_inplace overwrite the state's own buffer
(the form a Network uses on the global state it owns). pattern_slabs hands
the same slabs out as views, for checks that read amplitudes by pattern.
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

    The amplitudes are kept C-contiguous, so `amplitudes.reshape((2,) * n)`
    is a view and the in-place kernels write through it.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement: where it happened, what came out, how likely it was.

    `address` is a global qubit index at the state layer and a QubitAddress
    at the network layer.
    """

    address: object
    outcome: int
    probability: float


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """|index> on num_qubits wires, index read with qubit 0 as MSB."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def from_amplitudes(amps: Sequence[complex]) -> StateVector:
    """Build a state from raw amplitudes, normalizing them."""
    arr = np.asarray(amps, dtype=complex)
    n = arr.size.bit_length() - 1
    if 2**n != arr.size:
        raise ValueError(f"amplitude count {arr.size} is not a power of two")
    nrm = np.linalg.norm(arr)
    if nrm < ZERO_CUTOFF:
        raise ValueError("cannot normalize an all-zero amplitude vector")
    return StateVector(n, arr / nrm)


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


# Keyed by (n, targets) only, so a sweep that repeats the same gate placements
# on fresh networks reuses its entries instead of adding new ones.
@lru_cache(maxsize=4096)
def _slabs(n: int, targets: tuple) -> tuple:
    """Index into the (2,)*n view of the slab for every gate row, in row order.

    Row r fixes the targets to the bits of r (first target = most
    significant bit) and leaves every other axis whole. The trailing
    Ellipsis keeps the result a view even when every axis is a target.
    """
    a = len(targets)
    out = []
    for row in range(2**a):
        idx: list = [slice(None)] * n
        for j, t in enumerate(targets):
            idx[t] = (row >> (a - 1 - j)) & 1
        out.append((*idx, Ellipsis))
    return tuple(out)


def _apply(amps: np.ndarray, n: int, gate: GateMatrix, targets: tuple) -> None:
    """Overwrite the contiguous amplitude buffer `amps` with gate @ amps."""
    if gate.kind == "general":
        a = gate.arity
        if a > 1:
            psi = amps.reshape((2,) * n)
            res = np.tensordot(gate.tensor, psi, axes=(tuple(range(a, 2 * a)), targets))
            psi[...] = np.moveaxis(res, tuple(range(a)), targets)
        elif targets[0] == n - 1:
            # the two slabs of the last qubit interleave pair by pair
            pairs = amps.reshape(-1, 2)
            pairs[...] = pairs @ gate.matrix.T
        else:
            # axis 1 of this view separates the target's two slabs, so one
            # matmul applies the 2x2 matrix to every pair of amplitudes
            split = amps.reshape(2 ** targets[0], 2, -1)
            split[...] = gate.matrix @ split
        return
    psi = amps.reshape((2,) * n)
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


def apply_gate(state: StateVector, gate: GateMatrix, targets: Sequence[int]) -> StateVector:
    """Apply `gate` to the listed qubits; returns a new state.

    The first listed target is the gate's most significant wire. The input
    state is left untouched.
    """
    targets = _check_targets(state, targets, gate.arity)
    out = state.amplitudes.copy()
    _apply(out, state.num_qubits, gate, targets)
    return StateVector(state.num_qubits, out)


def apply_gate_inplace(state: StateVector, gate: GateMatrix, targets: Sequence[int]) -> None:
    """Apply `gate` to the listed qubits, overwriting the state's amplitudes."""
    targets = _check_targets(state, targets, gate.arity)
    _apply(state.amplitudes, state.num_qubits, gate, targets)


def pattern_slabs(state: StateVector, qubits: Sequence[int]) -> list[np.ndarray]:
    """The amplitudes grouped by the bit pattern of `qubits`, without copying.

    Entry b is a view of the slab where the listed qubits read the bits of b
    (first listed qubit = most significant bit).
    """
    qubits = _check_targets(state, qubits, len(qubits))
    psi = state.amplitudes.reshape((2,) * state.num_qubits)
    return [psi[idx] for idx in _slabs(state.num_qubits, qubits)]


def _weight(amps: np.ndarray, qubit: int, bit: int) -> float:
    """Probability that `qubit` reads `bit`.

    One reduction over the float64 view of the slab where the qubit reads
    `bit` sums the squared real and imaginary parts, so no squared copy of
    the slab is built.
    """
    f = amps.view(np.float64).reshape(2**qubit, 2, -1)[:, bit, :]
    return float(np.einsum("ij,ij->", f, f))


def _collapse(
    amps: np.ndarray,
    n: int,
    qubit: int,
    rng: np.random.Generator | None,
    forced: int | None,
) -> MeasurementRecord:
    """Measure `qubit` of the buffer `amps` in place and return the record."""
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    if (rng is None) == (forced is None):
        raise ValueError("supply exactly one of rng= or forced=")
    # per-outcome weights summed from their own slices: renormalizing by the
    # kept slice's weight leaves the state with unit norm exactly, whereas
    # 1 - p_other would let rounding drift compound over many measurements
    if forced is not None:
        outcome = int(forced)
        if outcome not in (0, 1):
            raise ValueError(f"forced outcome must be 0 or 1, got {forced}")
    else:
        outcome = int(rng.random() < _weight(amps, qubit, 1))
    p = _weight(amps, qubit, outcome)
    if p < ZERO_CUTOFF:
        raise ImpossibleBranchError(
            f"outcome {outcome} on qubit {qubit} has probability {p:.3e}"
        )
    split = amps.reshape(2**qubit, 2, -1)
    split[:, 1 - outcome, :] = 0
    kept = split[:, outcome, :]
    kept /= np.sqrt(p)
    return MeasurementRecord(qubit, outcome, p)


def measure(
    state: StateVector,
    qubit: int,
    *,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> tuple[StateVector, MeasurementRecord]:
    """Projective Z measurement of one qubit; returns the post-measurement state.

    Exactly one of `rng` / `forced` must be given: sampled outcomes come from
    the generator, forced outcomes select a branch for deterministic
    enumeration. Forcing an outcome whose probability is below 1e-12 raises
    ImpossibleBranchError. The input state is left untouched.
    """
    new = state.amplitudes.copy()
    rec = _collapse(new, state.num_qubits, qubit, rng, forced)
    return StateVector(state.num_qubits, new), rec


def measure_inplace(
    state: StateVector,
    qubit: int,
    *,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> MeasurementRecord:
    """measure(), but the state's own amplitudes collapse: the discarded half
    is zeroed and the kept half rescaled, without copying the vector. On
    ImpossibleBranchError the state is unchanged."""
    return _collapse(state.amplitudes, state.num_qubits, qubit, rng, forced)


def fidelity_up_to_global_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>| for normalized pure states; 1 means equal up to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"state sizes differ: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def partial_state_check(state: StateVector, qubit: int, expected: int) -> bool:
    """True when `qubit` is |expected> with probability 1 within 1e-10."""
    if expected not in (0, 1):
        raise ValueError(f"expected bit must be 0 or 1, got {expected}")
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits} qubits")
    return _weight(state.amplitudes, qubit, 1 - expected) <= ATOL


def reduced_density_matrix(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Density matrix of the listed qubits with everything else traced out.

    Row/column indices follow the order of `keep` (first listed = MSB).
    """
    keep = tuple(int(q) for q in keep)
    keep = _check_targets(state, keep, len(keep))
    n = state.num_qubits
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.moveaxis(psi, keep, tuple(range(len(keep))))
    m = psi.reshape(2 ** len(keep), -1)
    return m @ m.conj().T
