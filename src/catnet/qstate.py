"""Exact state-vector core.

Conventions used everywhere in this package:

* Qubit 0 is the MOST significant bit of a basis index, so basis labels read
  left to right like a ket: index 0b10 of a two-qubit state is |10>.
* Gate matrices follow the same convention on their own wires: the first
  target qubit is the most significant bit of the matrix row/column index.
* States are always kept normalized; comparisons use a 1e-10 tolerance and
  amplitudes below 1e-12 count as exactly zero when validating forced
  measurement outcomes.

A state keeps amplitudes for its live qubits only. Every other qubit is
fixed: it sits in a computational-basis state, recorded as one bit, and the
state is that basis state times the live block. Only two things make a
qubit fixed: a measurement, which keeps the outcome's half of the block
and drops the qubit's axis, and basis_state, which starts every qubit
fixed. A diagonal gate on fixed qubits only scales the block by a phase. A
permutation gate keeps as many of its targets fixed as it has fixed
targets whenever the gate itself says which output wires stay constant
(_fixed_rule): a SWAP of a live and a fixed qubit renames an axis, a CNOT
with a fixed control is an X on the rows whose control reads 1, and a
permutation on fixed qubits only rewrites their bits. Any other gate first
re-inserts the axes of its fixed targets. The live set thus depends on
which qubits are fixed, never on their bits or on any amplitude, so the
gate path runs no separability test. Probes of a fixed qubit compare bits.

Kernels work on the (2,)*L view of the live block, one axis per live qubit
in ascending qubit order. Fixing the target axes to the bits of a gate row
selects a slab of that view, so a permutation gate copies the slabs it
moves, a diagonal gate scales the slabs whose phase is not 1, and a
one-qubit gate mixes its two slabs; wider general gates contract through
tensordot. apply_gate and measure overwrite the state's own block (a
Network owns its global state and changes it in place); a caller that needs
the earlier state copies it first. pattern_slabs hands the same slabs out
as views, for checks that read amplitudes by pattern.

A state may carry a leading branch axis: a (rows, 2^L) block holding one
normalized vector per measurement branch, which is the deferred-measurement
picture with the branch bits as extra leading qubits that no gate touches.
A fixed qubit then holds one bit per row. Every kernel acts on all rows at
once (apply_gate can be limited to a subset of rows), measure_split turns
each row into its two outcome rows, and the probes return one answer per
row. An unsplit state keeps a 1-D block and scalar answers.
"""

from __future__ import annotations

import mmap
from bisect import bisect_left
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
    permutation / diagonal / general, and what the kernels need for that
    kind is precomputed: the (destination, source) row pairs a permutation
    moves and the row each source row goes to, the (row, phase) pairs of a
    diagonal whose phase is not 1 and its whole diagonal, and the (2,)*2a
    tensor of the matrix. `rules` memoizes a permutation's fixed rules
    (_fixed_rule), one per set of fixed wire positions.
    """

    __slots__ = ("matrix", "arity", "kind", "tensor", "moves", "image", "phases", "diagonal", "rules")

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
        self.rules: dict[tuple, tuple | None] = {}
        self._classify()

    def _classify(self) -> None:
        m = self.matrix
        dim = m.shape[0]
        self.moves: tuple[tuple[int, int], ...] = ()
        self.phases: tuple[tuple[int, complex], ...] = ()
        self.image = self.diagonal = None
        nonzero_rows = m.nonzero()[0]
        if len(nonzero_rows) == dim and np.all((m == 0) | (m == 1)):
            # exactly one 1 per column: out[row] <- in[col]
            rows, cols = m.nonzero()
            self.kind = "permutation"
            self.moves = tuple((int(r), int(c)) for r, c in zip(rows, cols) if r != c)
            self.image = np.empty(dim, dtype=np.int64)
            self.image[cols] = rows
        elif np.count_nonzero(m - np.diag(np.diagonal(m))) == 0:
            self.kind = "diagonal"
            self.diagonal = np.diagonal(m)
            self.phases = tuple(
                (row, complex(phase)) for row, phase in enumerate(self.diagonal) if phase != 1
            )
        else:
            self.kind = "general"

    def __repr__(self) -> str:
        return f"GateMatrix(arity={self.arity}, kind={self.kind})"


class StateVector:
    """Normalized amplitudes over 2**num_qubits basis states, kept as a
    block over the live qubits and one recorded bit per fixed qubit.

    `fixed` maps each fixed qubit to its bit: an int, or an int64 array of
    one bit per row on a split state. Every other qubit is live, and
    `block` holds their 2^L amplitudes (a 1-D vector, or a (rows, 2^L)
    array for a state split into branch rows), axes in ascending qubit
    order. The block is kept C-contiguous, so reshaping it onto (2,) * L
    axes is a view and the in-place kernels write through it.
    StateVector(n, amplitudes) wraps a dense vector: every qubit live.
    `high_water` is the most amplitudes the block has held, over all rows.
    """

    __slots__ = ("num_qubits", "block", "fixed", "live", "high_water")

    def __init__(self, num_qubits: int, amplitudes, fixed: dict | None = None) -> None:
        n = int(num_qubits)
        fixed = dict(fixed or {})
        block = np.ascontiguousarray(amplitudes, dtype=complex)
        if not block.flags.writeable:
            block = block.copy()
        live = [q for q in range(n) if q not in fixed]
        dim = 2 ** len(live)
        if block.shape != (dim,) and not (block.ndim == 2 and block.shape[1] == dim and len(block)):
            raise ValueError(f"expected {dim} amplitudes (per row), got shape {block.shape}")
        self.num_qubits = n
        self.block = block
        self.fixed = fixed
        self.live = live
        self.high_water = block.size

    @property
    def rows(self) -> int:
        """Branch rows carried: 1 for an unsplit state."""
        return 1 if self.block.ndim == 1 else len(self.block)

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense 2^n amplitudes (per row on a split state), built on
        demand and read-only: kernels change the state, never this array.

        The array starts zeroed, so only the pages of the live block's
        entries are ever written.
        """
        n, block, live = self.num_qubits, self.block, self.live
        rows = block.reshape(-1, block.shape[-1])
        j = np.arange(rows.shape[1])
        index = np.zeros_like(j)
        for k, q in enumerate(live):
            index |= ((j >> (len(live) - 1 - k)) & 1) << (n - 1 - q)
        offset = sum((np.asarray(b, dtype=np.int64) << (n - 1 - q) for q, b in self.fixed.items()), 0)
        # np.zeros asks for transparent huge pages from 4 MB up, so each
        # scattered write below would fault in and zero a whole 2 MB page;
        # an anonymous mmap is zero-filled and faults in 4 KB pages
        dense = np.frombuffer(mmap.mmap(-1, 16 * len(rows) * 2**n), dtype=complex).reshape(len(rows), 2**n)
        row_offset = np.broadcast_to(offset, (len(rows),))[:, None]
        dense[np.arange(len(rows))[:, None], row_offset + index] = rows
        out = dense if block.ndim == 2 else dense[0]
        out.setflags(write=False)
        return out

    def norm(self):
        """The norm: a float, or one per row for a split state."""
        if self.block.ndim == 1:
            return float(np.linalg.norm(self.block))
        return np.linalg.norm(self.block, axis=1)

    def copy(self) -> "StateVector":
        """An independent state equal to this one."""
        bits = {q: b.copy() if isinstance(b, np.ndarray) else b for q, b in self.fixed.items()}
        return StateVector(self.num_qubits, self.block.copy(), bits)


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
    """|index> on num_qubits wires, index read with qubit 0 as MSB: every
    qubit fixed, so the live block is the single amplitude 1."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    bits = {q: (index >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)}
    return StateVector(num_qubits, np.ones(1, dtype=complex), bits)


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


def _with_axes(state: StateVector, qubits: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """The block with an axis re-inserted for each listed qubit that is
    fixed, each row's amplitudes in the slot of that row's bit, and the live
    qubits that result. The state itself is left alone; with nothing to
    insert its own block comes back."""
    block, live = state.block, list(state.live)
    for q in sorted(q for q in qubits if q in state.fixed):
        bit = state.fixed[q]
        k = bisect_left(live, q)
        src = block.reshape(block.shape[:-1] + (2**k, 1, -1))
        new = np.zeros(src.shape[:-2] + (2, src.shape[-1]), dtype=complex)
        if isinstance(bit, np.ndarray):
            for b in (0, 1):
                new[bit == b, :, b] = src[bit == b, :, 0]
        else:
            new[..., bit, :] = src[..., 0, :]
        block = new.reshape(block.shape[:-1] + (-1,))
        live.insert(k, q)
    return block, live


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
    """Overwrite the contiguous n-axis block `amps` with gate @ amps, on
    every row of a split state; `targets` are axis positions."""
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
    if gate.kind == "permutation":
        _move(amps, n, gate.moves, targets)
        return
    psi = _qubit_view(amps, n)
    slab = _slabs(n, targets)
    for row, phase in gate.phases:
        block = psi[slab[row]]
        block *= phase


def _move(amps: np.ndarray, n: int, moves: tuple, targets: tuple) -> None:
    """Copy the slab of each (destination, source) gate row pair of a
    permutation within the n-axis block `amps`; `targets` are axis
    positions."""
    psi = _qubit_view(amps, n)
    slab = _slabs(n, targets)
    # every source is saved before any destination is written, so cycles
    # of any length come out right
    saved = [psi[slab[src]].copy() for _, src in moves]
    for (dst, _), block in zip(moves, saved):
        psi[slab[dst]] = block


def _fixed_rule(gate: GateMatrix, fpos: tuple) -> tuple | None:
    """How a permutation gate whose wires at positions `fpos` are fixed
    keeps as many qubits fixed, or None when it cannot.

    For each pattern of bits on the fixed wires, the gate maps the inputs
    that vary the other (live) wires onto outputs, and some output wires
    read the same bit on all of them. When those constant wires are the
    same for every pattern and as many as `fpos`, the rule is (const, bits,
    moves): the constant wires, their bits per pattern (a (2^f, f) array,
    patterns read first wire = most significant bit), and per pattern the
    (destination, source) slab moves that take the live input wires onto
    the remaining output wires, both in ascending wire order. The rule
    depends on which wires are fixed only, never on their bits. It is
    derived once per `fpos` and kept on the gate: at most 2^arity entries.
    """
    if fpos in gate.rules:
        return gate.rules[fpos]
    a = gate.arity
    lpos = [j for j in range(a) if j not in fpos]
    # every input index, by (pattern, live value)
    index = np.arange(2**a).reshape((2,) * a).transpose([*fpos, *lpos]).reshape(2 ** len(fpos), -1)
    out = (gate.image[index][..., None] >> np.arange(a - 1, -1, -1)) & 1  # (pattern, live value, wire)
    constant = (out == out[:, :1]).all(axis=1)
    rule = None
    if (constant == constant[0]).all() and constant[0].sum() == len(fpos):
        const = tuple(int(w) for w in np.flatnonzero(constant[0]))
        rest = [w for w in range(a) if w not in const]
        weights = 1 << np.arange(len(rest) - 1, -1, -1, dtype=np.int64)
        image = out[:, :, rest] @ weights  # live output value per (pattern, live value)
        moves = tuple(tuple((int(d), s) for s, d in enumerate(row) if d != s) for row in image)
        rule = (const, out[:, 0, list(const)], moves)
    gate.rules[fpos] = rule
    return rule


def _relabel(state: StateVector, targets: tuple, fpos: tuple, rule: tuple, rows: np.ndarray | None) -> None:
    """A permutation gate by its fixed rule: each row's pattern of fixed
    bits moves the live target slabs by that pattern's live map, the
    constant wires' qubits take their bits, and the live target axes are
    renamed to the other targets' qubits, then put back in qubit order."""
    const, bits, moves = rule
    fixed, live = state.fixed, state.live
    pattern = 0
    for j in fpos:
        pattern = (pattern << 1) | fixed[targets[j]]
    old = [t for j, t in enumerate(targets) if j not in fpos]
    axes = tuple(bisect_left(live, t) for t in old)
    for p, live_map in enumerate(moves):
        # a bool, or a mask of the rows whose pattern is p
        hit = pattern == p if rows is None else (pattern == p) & rows
        if not live_map or not np.any(hit):
            continue
        if np.ndim(hit) == 0:
            _move(state.block, len(live), live_map, axes)
        else:
            sub = state.block[hit]
            _move(sub, len(live), live_map, axes)
            state.block[hit] = sub
    new_bits = bits[pattern]
    for k, j in enumerate(const):
        bit = new_bits[..., k]
        if rows is not None:
            bit = np.where(rows, bit, fixed[targets[j]])
        fixed[targets[j]] = bit.astype(np.int64) if bit.ndim else int(bit)
    new = [t for j, t in enumerate(targets) if j not in const]
    if new == old:
        return
    for j in fpos:
        if j not in const:
            del fixed[targets[j]]
    axis = {q: k for k, q in enumerate(live)}
    moved = [axis.pop(t) for t in old]
    axis.update(zip(new, moved))
    order = sorted(axis)
    source = [axis[q] for q in order]
    if source != sorted(source):
        block = state.block
        lead = block.ndim - 1
        psi = np.transpose(_qubit_view(block, len(live)), [*range(lead), *(lead + k for k in source)])
        state.block = np.ascontiguousarray(psi).reshape(block.shape)
    state.live = order


def _scale_fixed(state: StateVector, gate: GateMatrix, targets: tuple, rows: np.ndarray | None) -> None:
    """A diagonal gate whose targets are all fixed: the targets' bits (per
    row where they differ) pick the phase that scales the block."""
    pattern = 0
    for t in targets:
        pattern = (pattern << 1) | state.fixed[t]
    phase = gate.diagonal[pattern]
    if rows is not None:
        phase = np.where(rows, phase, 1)
    if phase.ndim:
        state.block *= phase[:, None]
    elif phase != 1:
        state.block *= phase


def apply_gate(
    state: StateVector,
    gate: GateMatrix,
    targets: Sequence[int],
    rows: np.ndarray | None = None,
) -> None:
    """Apply `gate` to the listed qubits, overwriting the state in place.

    The first listed target is the gate's most significant wire. `rows`, a
    boolean mask over the rows of a split state, limits the gate to those
    rows; the others are left as they are. A diagonal gate on fixed qubits
    only scales the block. A permutation gate with fixed targets keeps as
    many qubits fixed when its fixed rule allows (see _fixed_rule; under a
    `rows` mask only when the same qubits stay fixed): a SWAP of a live and
    a fixed qubit renames an axis, a CNOT with a fixed control is an X on
    the rows where the control reads 1. Any other gate makes its fixed
    targets live first.
    """
    targets = _check_targets(state, targets, gate.arity)
    fpos = tuple(j for j, t in enumerate(targets) if t in state.fixed)
    if fpos and gate.kind == "diagonal" and len(fpos) == len(targets):
        _scale_fixed(state, gate, targets, rows)
        return
    if fpos and gate.kind == "permutation":
        rule = _fixed_rule(gate, fpos)
        if rule is not None and (rows is None or rule[0] == fpos):
            _relabel(state, targets, fpos, rule, rows)
            return
    if fpos:
        fixed_targets = [targets[j] for j in fpos]
        state.block, state.live = _with_axes(state, fixed_targets)
        state.high_water = max(state.high_water, state.block.size)
        for t in fixed_targets:
            del state.fixed[t]
    live = state.live
    axes = tuple(bisect_left(live, t) for t in targets)
    if rows is None:
        _apply(state.block, len(live), gate, axes)
        return
    sub = state.block[rows]
    _apply(sub, len(live), gate, axes)
    state.block[rows] = sub


def pattern_slabs(state: StateVector, qubits: Sequence[int]) -> list[np.ndarray]:
    """The amplitudes grouped by the bit pattern of `qubits`.

    Entry b is the slab where the listed qubits read the bits of b (first
    listed qubit = most significant bit), over the live qubits not listed;
    a split state's slabs keep the row axis first. Slabs are views of the
    state's block when every listed qubit is live.
    """
    qubits = _check_targets(state, qubits, len(qubits))
    block, live = _with_axes(state, qubits)
    psi = _qubit_view(block, len(live))
    axes = tuple(bisect_left(live, q) for q in qubits)
    return [psi[idx] for idx in _slabs(len(live), axes)]


def row_weights(block: np.ndarray, rows: int) -> float | np.ndarray:
    """Squared norm of `block` (a state or one of its slabs, the row axis
    first when rows > 1): a float for one row, else one value per row."""
    if rows == 1:
        return float(np.linalg.norm(block)) ** 2
    flat = block.reshape(rows, -1)
    return np.einsum("ri,ri->r", flat.real, flat.real) + np.einsum("ri,ri->r", flat.imag, flat.imag)


def _weight(state: StateVector, qubit: int, bit: int) -> float | np.ndarray:
    """Probability that `qubit` reads `bit`: a float for an unsplit state,
    else one value per row.

    A fixed qubit reads its own bit with probability exactly 1. For a live
    qubit one reduction over the float64 view of the block sums the squared
    real and imaginary parts where the qubit reads `bit`, so no squared
    copy is built. The last axis interleaves its two slabs amplitude by
    amplitude; its weight comes from column sums over wide contiguous rows
    instead, which read the block once without a two-element inner loop.
    """
    amps = state.block
    split = amps.ndim == 2
    if qubit in state.fixed:
        hit = state.fixed[qubit] == bit
        return np.broadcast_to(hit, (len(amps),)).astype(np.float64) if split else float(hit)
    k, n = bisect_left(state.live, qubit), len(state.live)
    f = amps.view(np.float64).reshape(len(amps) if split else 1, -1)
    if k == n - 1:
        wide = f.reshape(len(f), -1, min(1024, f.shape[1]))
        cols = np.einsum("rij,rij->rj", wide, wide)
        w = cols.reshape(len(f), -1, 2, 2)[:, :, bit, :].sum(axis=(1, 2))
    else:
        half = f.reshape(len(f), 2**k, 2, -1)[:, :, bit, :]
        w = np.einsum("rjk,rjk->r", half, half)
    return w if split else float(w[0])


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
    enumeration. The kept half of the block, rescaled, becomes the new
    block and the qubit becomes fixed at its outcome. Forcing an outcome
    whose probability is below 1e-12 raises ImpossibleBranchError and
    leaves the state unchanged.

    On a split state the outcome and its probability are per row: a forced
    outcome may be one bit for every row or one bit per row, and the
    generator draws once per row.
    """
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    if (rng is None) == (forced is None):
        raise ValueError("supply exactly one of rng= or forced=")
    amps = state.block
    split = amps.ndim == 2
    # per-outcome weights summed from their own slices: renormalizing by the
    # kept slice's weight leaves the state with unit norm exactly, whereas
    # 1 - p_other would let rounding drift compound over many measurements
    if forced is None:
        if split:
            forced = (rng.random(len(amps)) < _weight(state, qubit, 1)).astype(np.int64)
        else:
            forced = int(rng.random() < _weight(state, qubit, 1))
    outcome = _bits(forced, "forced outcome")
    if isinstance(outcome, np.ndarray) and (outcome == outcome[0]).all():
        outcome = int(outcome[0])
    if isinstance(outcome, int):
        p = _weight(state, qubit, outcome)
    else:
        p = np.where(outcome == 1, _weight(state, qubit, 1), _weight(state, qubit, 0))
    # scalar arithmetic for an unsplit block: numpy calls on a single value
    # cost more than the collapse of a small state
    least = p.min() if split else p
    if least < ZERO_CUTOFF:
        raise ImpossibleBranchError(
            f"outcome {outcome} on qubit {qubit} has probability {least:.3e}"
        )
    if qubit in state.fixed:
        return MeasurementRecord(qubit, outcome, p)
    k = bisect_left(state.live, qubit)
    halves = amps.reshape(-1, 2**k, 2, 2 ** (len(state.live) - 1 - k))
    if isinstance(outcome, int):
        kept = halves[:, :, outcome, :] / (np.sqrt(p)[:, None, None] if split else np.sqrt(p))
    else:
        kept = np.where((outcome == 1)[:, None, None], halves[:, :, 1, :], halves[:, :, 0, :])
        kept /= np.sqrt(p)[:, None, None]
    state.block = kept.reshape(amps.shape[:-1] + (-1,))
    state.live.remove(qubit)
    state.fixed[qubit] = outcome
    return MeasurementRecord(qubit, outcome, p)


def measure_split(state: StateVector, qubit: int) -> tuple[StateVector, MeasurementRecord]:
    """Z-measure `qubit` on every row and keep both outcomes.

    Row r of the input becomes row 2r (outcome 0) and row 2r+1 (outcome 1)
    of a new state, each renormalized by its own weight, and the qubit
    becomes fixed at the row's outcome, so the block keeps its size. The
    record holds the per-row outcomes and probabilities. Any branch of
    probability below 1e-12 raises ImpossibleBranchError. The input state
    is left untouched.
    """
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    rows = state.rows
    p = np.stack(
        [np.atleast_1d(_weight(state, qubit, 0)), np.atleast_1d(_weight(state, qubit, 1))], axis=1
    ).reshape(-1)
    if (p < ZERO_CUTOFF).any():
        raise ImpossibleBranchError(
            f"a branch of the split on qubit {qubit} has probability {p.min():.3e}"
        )
    k = bisect_left(state.live, qubit)
    src = state.block.reshape(rows, 2**k, 2, -1)
    new = np.ascontiguousarray(src.swapaxes(1, 2)).reshape(2 * rows, -1)
    new /= np.sqrt(p)[:, None]
    bits = {q: np.repeat(b, 2) if isinstance(b, np.ndarray) else b for q, b in state.fixed.items()}
    bits[qubit] = np.tile(np.array([0, 1], dtype=np.int64), rows)
    out = StateVector(n, new, bits)
    out.high_water = state.high_water
    return out, MeasurementRecord(qubit, bits[qubit], p)


def partial_state_check(state: StateVector, qubit: int, expected: int | np.ndarray):
    """True when `qubit` is |expected> with probability 1 within 1e-10.

    A split state gives one answer per row, and `expected` may then hold
    one bit per row. On a fixed qubit this compares bits.
    """
    expected = _bits(expected, "expected bit")
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits} qubits")
    if isinstance(expected, np.ndarray):
        wrong = np.where(expected == 1, _weight(state, qubit, 0), _weight(state, qubit, 1))
    else:
        wrong = _weight(state, qubit, 1 - expected)
    return wrong <= ATOL


def bipartition(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """The amplitudes as a (rows, 2^len(keep), rest) array: the listed
    qubits (first listed = MSB) index the middle axis and the live qubits
    not listed the last. An unsplit state has one row.

    A fixed qubit that is not listed is a factor of norm 1, so it is left
    out; `rest` is then smaller than 2^(n - len(keep)).
    """
    keep = _check_targets(state, keep, len(keep))
    block, live = _with_axes(state, keep)
    psi = _qubit_view(block.reshape(-1, block.shape[-1]), len(live))
    psi = np.moveaxis(psi, [bisect_left(live, k) + 1 for k in keep], range(1, len(keep) + 1))
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

