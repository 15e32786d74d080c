"""Exact state-vector core.

Conventions used everywhere in this package:

* Qubit 0 is the MOST significant bit of a basis index, so basis labels read
  left to right like a ket: index 0b10 of a two-qubit state is |10>.
* Gate matrices follow the same convention on their own wires: the first
  target qubit is the most significant bit of the matrix row/column index.
* States are always kept normalized; comparisons use a 1e-10 tolerance and
  amplitudes below 1e-12 count as exactly zero when validating forced
  measurement outcomes.

A state is a product of blocks. Each block holds the amplitudes of its own
live qubits (axes in ascending qubit order) with a leading row axis, and
every qubit in no block is fixed: it sits in a computational-basis state,
recorded as one bit. Qubits enter a block only through a gate and leave it
only through measure, the one collapse kernel, which keeps the outcome's
half, renormalized, and drops the qubit's axis; basis_state starts every
qubit fixed. A gate with fixed targets takes one of two paths. An X on a
fixed qubit relabels it (_relabel): it flips the qubit's bit, on the rows
a mask marks. Every other gate merges: the blocks its targets lie in are
multiplied out into one, which its fixed targets join at their recorded
bits, and a gate on fixed qubits alone starts a block of its own. (A SWAP
moves no amplitude at all where a Network runs it: the network trades the
two qubits' slots in its address table.) Which qubits are live and
how they group into blocks thus depends on which qubits are fixed, never
on their bits or on any amplitude, so the gate path runs no separability
test and no decomposition. Probes of a fixed qubit compare bits, and
probes of live qubits read the merged block of the qubits they name: every
other block is a factor of norm 1.

Kernels work on the (2,)*L view of a block, one axis per live qubit in
ascending qubit order, after its row axis. Fixing the target axes to the
bits of a gate row selects a slab of that view, so a permutation gate
copies the slabs it moves, a diagonal gate scales the slabs whose phase is
not 1, and a one-qubit gate mixes its two slabs; wider general gates
contract through tensordot. apply_gate and measure overwrite the state's
own blocks (a Network owns its global state and changes it in place); a
caller that needs the earlier state copies it first. pattern_weights lays
out a block's amplitudes by the bit pattern of some of its qubits, with
every pattern's weight, for checks that read amplitudes by pattern.

A state may carry R branch rows: one normalized vector per measurement
branch, which is the deferred-measurement picture with the branch bits as
extra leading qubits that no gate touches. The rows form a grid, one axis
per split (the newest first) and a last axis over the inputs of a stack,
and row r is the C-order position in (input, b1, ..., bk), the first
split's outcome b1 the most significant branch bit. A per-row value (the
rows of a block, a fixed bit, an outcome, a weight, a probe's answer, a
row mask) is an array over the grid's trailing axes with size 1 along
every axis it does not vary along, so numpy broadcasting lines up a value
made before a split with the rows after it. Rows are the one shape: an
unsplit state is a grid of one row, and its values are arrays of one
entry. A split adds an axis to the measured block only. A gate masked to
some rows runs its kernel once, on a copy of the block with a row per
combination of the axes the block and the mask vary along; one np.where
keeps the result on the rows the mask marks, and the block is then cut to
one slice along each axis of the mask whose slices come out bitwise equal,
so the rows a protocol's corrections make equal are stored once; the rows
of a stack that are bitwise equal are stored once from the start. Every
kernel acts on all stored rows at once (apply_gate can be limited to a
subset of rows). measure takes its outcomes from one of three sources: a
forced bit, a draw from each row's own generator, or, given neither, both
outcomes, turning each row into its two outcome rows. The probes answer
once per stored row; StateVector.per_row lays a value out with one entry
per row.
"""

from __future__ import annotations

import itertools
import math
import mmap
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ImpossibleBranchError, UnforcedOutcomeError

ATOL = 1e-10
ZERO_CUTOFF = 1e-12


class GateMatrix:
    """A unitary acting on a fixed number of qubits.

    The matrix is validated (square, power-of-two dimension, unitary: no
    entry of m^dagger m - I above 1e-10 in absolute value) and frozen at
    construction. Instances are classified once as permutation / diagonal /
    general, and what the kernels need for that kind is precomputed: the
    (destination, source) row pairs a permutation moves and the row each
    source row goes to (a tuple of ints), the (row, phase) pairs of a
    diagonal whose phase is not 1, and the (2,)*2a tensor of the matrix.
    A permutation whose image is X's relabels a fixed qubit (_relabel);
    every other gate merges them.
    """

    __slots__ = ("matrix", "arity", "kind", "tensor", "moves", "image", "phases")

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"gate matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        arity = dim.bit_length() - 1
        if 2**arity != dim or arity < 1:
            raise ValueError(f"gate dimension must be a power of two >= 2, got {dim}")
        if not np.abs(m.conj().T @ m - np.eye(dim)).max() <= ATOL:  # NaN fails too
            raise ValueError("gate matrix is not unitary within 1e-10")
        m.setflags(write=False)
        self.matrix = m
        self.arity = arity
        self.tensor = m.reshape((2,) * (2 * arity))
        self._classify()

    def _classify(self) -> None:
        m = self.matrix
        self.moves: tuple[tuple[int, int], ...] = ()
        self.phases: tuple[tuple[int, complex], ...] = ()
        self.image = None
        rows, cols = m.nonzero()
        # a unitary has a nonzero in every column: dim of them means one per column
        if len(rows) == len(m) and (m[rows, cols] == 1).all():
            # out[row] <- in[col]
            self.kind = "permutation"
            rows, cols = rows.tolist(), cols.tolist()
            self.moves = tuple((r, c) for r, c in zip(rows, cols) if r != c)
            self.image = tuple(r for _, r in sorted(zip(cols, rows)))
        elif (rows == cols).all():
            self.kind = "diagonal"
            self.phases = tuple((row, phase) for row, phase in enumerate(np.diagonal(m).tolist()) if phase != 1)
        else:
            self.kind = "general"

    def __repr__(self) -> str:
        return f"GateMatrix(arity={self.arity}, kind={self.kind})"


class Block:
    """One factor of a state: the amplitudes of its live qubits, row by row.

    `qubits` lists them in ascending order and `amps` is a C-contiguous
    array of the block's stored rows over the row grid's trailing axes
    (see the module docstring), then 2^L amplitudes, each row's axes in
    qubit order, so reshaping it onto (2,) * L axes is a view and the
    in-place kernels write through it. Each stored row is normalized and
    stands for every state row it broadcasts to.
    """

    __slots__ = ("amps", "qubits")

    def __init__(self, amps: np.ndarray, qubits: list[int]) -> None:
        self.amps = amps
        self.qubits = qubits

    @property
    def rows(self) -> int:
        """The rows the block stores."""
        return self.amps.size // self.amps.shape[-1]


class StateVector:
    """Normalized amplitudes over 2**num_qubits basis states (per row on a
    split state), kept as a product of blocks and one recorded bit per
    fixed qubit.

    `blocks` are the factors (see Block); no qubit lies in two. A block
    without qubits carries a phase per row, and exists only while no other
    block is left to carry it: a measurement that empties a block multiplies
    it into the first block left. `fixed` maps each qubit in no block to its
    bits, an int64 per-row value; a gate relabels or merges fixed qubits
    (see apply_gate). `grid` holds the sizes of the row axes, newest split
    first, and `rows` is R, their product: 1 for an unsplit state.
    StateVector(n, amplitudes) wraps a dense vector, or a (rows, 2^L) stack
    of inputs, as one block of every qubit not in `fixed`; a stack whose
    rows are bitwise equal is stored as one row.

    `high_water` is the most amplitudes the blocks would have held at one
    time with a row of each per state row, summed over blocks: the memory a
    sweep sizes its runs by, which holds however many rows coincide.
    `largest_block` is the most one block would have held that way, and
    `stored_peak` the most amplitudes the blocks have actually stored.
    """

    __slots__ = ("num_qubits", "grid", "blocks", "fixed", "high_water", "largest_block", "_stored_peak")

    def __init__(self, num_qubits: int, amplitudes, fixed: dict | None = None) -> None:
        n = int(num_qubits)
        fixed = dict(fixed or {})
        amps = np.ascontiguousarray(amplitudes, dtype=complex)
        if not amps.flags.writeable:
            amps = amps.copy()
        qubits = [q for q in range(n) if q not in fixed]
        dim = 2 ** len(qubits)
        if amps.shape != (dim,) and not (amps.ndim == 2 and amps.shape[1] == dim and len(amps)):
            raise ValueError(f"expected {dim} amplitudes (per row), got shape {amps.shape}")
        self.num_qubits = n
        self.grid = (amps.size // dim,)
        self.blocks = [Block(_cut(amps.reshape(self.grid[0], dim), [0]), qubits)]
        self.fixed = fixed
        self.high_water = self.largest_block = amps.size
        self._stored_peak = self.blocks[0].amps.size

    @property
    def rows(self) -> int:
        """R: one row per branch (and input of a stack)."""
        return math.prod(self.grid)

    @property
    def stored_peak(self) -> int:
        """The most amplitudes the blocks have stored at one time."""
        return self._stored_peak

    @property
    def live(self) -> list[int]:
        """Every qubit held in a block, ascending."""
        return sorted(q for b in self.blocks for q in b.qubits)

    def per_row(self, value) -> np.ndarray:
        """A per-row value of this state with one entry per row, in row order."""
        return _flat_rows(self.grid, value)

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense 2^n amplitudes (per row on a split state): the blocks
        multiplied out, built on demand and read-only, since kernels change
        the state, never this array.

        The array starts zeroed, so only the pages of the live entries are
        ever written.
        """
        n, count = self.num_qubits, self.rows
        whole = _product(self.blocks)
        rows, live = _flat_rows(self.grid, whole.amps, 1), whole.qubits
        j = np.arange(rows.shape[1])
        index = np.zeros_like(j)
        for k, q in enumerate(live):
            index |= ((j >> (len(live) - 1 - k)) & 1) << (n - 1 - q)
        offset = sum((np.asarray(b, dtype=np.int64) << (n - 1 - q) for q, b in self.fixed.items()), 0)
        # np.zeros asks for transparent huge pages from 4 MB up, so each
        # scattered write below would fault in and zero a whole 2 MB page;
        # an anonymous mmap is zero-filled and faults in 4 KB pages
        dense = np.frombuffer(mmap.mmap(-1, 16 * count * 2**n), dtype=complex).reshape(count, 2**n)
        dense[np.arange(count)[:, None], self.per_row(offset)[:, None] + index] = rows
        out = dense if count > 1 else dense[0]
        out.setflags(write=False)
        return out

    def norm(self) -> np.ndarray:
        """The norm of every row, in row order."""
        return np.prod([self.per_row(np.linalg.norm(b.amps, axis=-1)) for b in self.blocks], axis=0)

    def copy(self) -> "StateVector":
        """An independent state equal to this one."""
        out = StateVector.__new__(StateVector)
        out.num_qubits, out.grid = self.num_qubits, self.grid
        out.blocks = [Block(b.amps.copy(), list(b.qubits)) for b in self.blocks]
        out.fixed = dict(self.fixed)  # per-row bits are replaced, never written in place
        out.high_water = out.largest_block = out._stored_peak = 0
        _note(out)
        return out


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement: where it happened, what came out, how likely it was.

    `address` is a global qubit index at the state layer and a QubitAddress
    at the network layer.
    """

    address: object
    outcome: np.ndarray
    probability: np.ndarray


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """|index> on num_qubits wires, index read with qubit 0 as MSB: every
    qubit fixed, so the one block holds no qubit and the amplitude 1."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    bits = np.array([[(index >> (num_qubits - 1 - q)) & 1] for q in range(num_qubits)], dtype=np.int64)
    return StateVector(num_qubits, np.ones(1, dtype=complex), dict(enumerate(bits)))


def random_vector(num_qubits: int, rng: random.Random) -> np.ndarray:
    """A normalized complex Gaussian (Haar-random) vector of 2^num_qubits
    amplitudes: Box-Muller on 2^(num_qubits + 1) `rng.random()` draws, the
    first half radii and the second half angles."""
    return random_vectors(num_qubits, 1, rng)[0]


def random_vectors(num_qubits: int, count: int, rng: random.Random) -> np.ndarray:
    """`count` random_vector draws in a row as a (count, 2^num_qubits) array,
    bit for bit: each row is normalized by the sum np.linalg.norm forms."""
    dim = 2**num_qubits
    k = 2 * dim * count
    draws = np.fromiter(itertools.starmap(rng.random, itertools.repeat((), k)), float, k).reshape(count, 2, dim)
    v = np.sqrt(-2.0 * np.log1p(-draws[:, 0])) * np.exp(2j * np.pi * draws[:, 1])
    return v / np.array([[math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))] for x in v])


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
    """The amplitudes on (2,)*n axes, after the row axes."""
    return amps.reshape(amps.shape[:-1] + (2,) * n)


def _flat_rows(grid: tuple, value, tail: int = 0) -> np.ndarray:
    """The per-row `value`, whose last `tail` axes are not row axes, with one
    entry per row of a state of row axes `grid`, in row order."""
    value = np.asarray(value)
    full = np.broadcast_to(value, grid + value.shape[value.ndim - tail :])
    order = [*range(len(grid) - 1, -1, -1), *range(len(grid), full.ndim)]
    return full.transpose(order).reshape((-1,) + full.shape[len(grid) :])


def _compact(value) -> np.ndarray:
    """A per-row value as an array cut to one slice along each row axis it
    does not vary along."""
    value = np.asarray(value)
    return value if value.size == 1 else _cut(value, range(value.ndim))


def _cut(a: np.ndarray, axes) -> np.ndarray:
    """`a` cut to its first slice along each of the listed axes whose slices
    are all bitwise equal."""
    for ax in axes:
        if a.shape[ax] > 1:
            first = a[(slice(None),) * ax + (slice(0, 1),)]
            if not np.count_nonzero(a != first):
                a = first
    return a


def _note(state: StateVector) -> None:
    """Raise the state's high-water marks to what its blocks hold now."""
    width = widest = stored = 0
    for b in state.blocks:
        width += b.amps.shape[-1]
        widest = max(widest, b.amps.shape[-1])
        stored += b.amps.size
    rows = state.rows
    state.high_water = max(state.high_water, rows * width)
    state.largest_block = max(state.largest_block, rows * widest)
    state._stored_peak = max(state._stored_peak, stored)


def _on_rows(state: StateVector, block: Block, rows: np.ndarray, kernel) -> None:
    """Run `kernel` in place on the block's amplitudes of the rows that the
    per-row mask `rows` marks, and leave the others as they are.

    The kernel runs once on a copy that holds a row per combination of the
    axes the block and the mask vary along, one np.where keeps its result
    where the mask reads True, and along each axis of the mask the block is
    cut to one slice where its slices came out bitwise equal, as they do
    once a correction makes branches agree.
    """
    old = block.amps
    lead = np.broadcast(old[..., 0], rows).shape
    block.amps = np.broadcast_to(old, lead + old.shape[-1:]).copy()
    _note(state)
    kernel(block.amps)
    axes = [len(lead) - rows.ndim + ax for ax, size in enumerate(rows.shape) if size > 1]
    block.amps = np.ascontiguousarray(_cut(np.where(rows[..., None], block.amps, old), axes))


def _block_of(state: StateVector, qubit: int) -> Block:
    """The block holding a live qubit."""
    for block in state.blocks:
        if qubit in block.qubits:
            return block
    raise ValueError(f"qubit {qubit} is fixed")


def _product(blocks: Sequence[Block]) -> Block:
    """The blocks multiplied out into one, axes in ascending qubit order.

    The stored rows broadcast against each other: the product varies along
    every row axis one of the blocks varies along. A single block comes
    back as itself, so its amplitudes stay views.
    """
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        return Block(np.ones((1, 1), dtype=complex), [])
    amps, qubits = blocks[0].amps, list(blocks[0].qubits)
    for b in blocks[1:]:
        # in C order: a ufunc lays out its result after its operands' strides
        amps = np.multiply(amps[..., :, None], b.amps[..., None, :], order="C")
        amps = amps.reshape(amps.shape[:-2] + (-1,))
        qubits += b.qubits
    return Block(*_in_qubit_order(amps, qubits))


def _in_qubit_order(amps: np.ndarray, qubits: list[int]) -> tuple[np.ndarray, list[int]]:
    """Amplitudes whose axes belong to `qubits`, in that order, with the axes
    put in ascending qubit order (a copy only when they were not), and the
    sorted qubits."""
    if qubits != sorted(qubits):
        lead = amps.ndim - 1
        order = sorted(range(len(qubits)), key=qubits.__getitem__)
        psi = np.transpose(_qubit_view(amps, len(qubits)), [*range(lead), *(lead + k for k in order)])
        amps = np.ascontiguousarray(psi).reshape(amps.shape)
    return amps, sorted(qubits)


_OUTCOMES = np.arange(2)[:, None]  # a qubit's two bits, on the axis before a block's last


def _insert(block: Block, qubit: int, bit) -> Block:
    """`block` times the fixed `qubit` at its bit: a new block with an axis
    for the qubit, each row's amplitudes in the slot of that row's bit (the
    rows broadcast against a per-row bit)."""
    k = bisect_left(block.qubits, qubit)
    src = block.amps.reshape(block.amps.shape[:-1] + (2**k, 1, -1))
    new = np.ascontiguousarray(np.where(_OUTCOMES == bit[..., None, None, None], src, 0))
    return Block(new.reshape(new.shape[:-3] + (-1,)), [*block.qubits[:k], qubit, *block.qubits[k:]])


def _locate(state: StateVector, qubits: Sequence[int]) -> tuple[list[Block], list[int]]:
    """The blocks that hold the listed live qubits, each once, and the
    listed fixed qubits."""
    held: list[Block] = []
    fixed: list[int] = []
    for q in qubits:
        if q in state.fixed:
            fixed.append(q)
        else:
            block = _block_of(state, q)
            if block not in held:
                held.append(block)
    return held, fixed


def _merged(state: StateVector, held: list[Block], fixed: list[int]) -> Block:
    """The `held` blocks multiplied out, with each `fixed` qubit inserted
    at its bit. The state is left as it was, so a probe reads this block
    alone: every other block is a factor of norm 1."""
    block = _product(held)
    for q in fixed:
        block = _insert(block, q, state.fixed[q])
    return block


def _gather(state: StateVector, qubits: Sequence[int]) -> Block:
    """The state's one block holding every listed qubit.

    The blocks they lie in are merged, and each listed fixed qubit joins
    at its bit and leaves `fixed`. Fixed qubits alone start a block of
    their own, or fill the block without qubits when the state has one,
    so its phase carries over.
    """
    held, fixed = _locate(state, qubits)
    if not fixed and len(held) == 1:
        return held[0]
    if not held:
        held = [b for b in state.blocks if not b.qubits]
    block = _merged(state, held, fixed)
    for b in held:
        state.blocks.remove(b)
    for q in fixed:
        del state.fixed[q]
    state.blocks.append(block)
    _note(state)
    return block


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
    psi = _qubit_view(amps, n)
    slab = _slabs(n, targets)
    if gate.kind == "permutation":
        # every source is saved before any destination is written, so cycles
        # of any length come out right
        saved = [psi[slab[src]].copy() for _, src in gate.moves]
        for (dst, _), block in zip(gate.moves, saved):
            psi[slab[dst]] = block
        return
    for row, phase in gate.phases:
        block = psi[slab[row]]
        block *= phase


def _relabel(state: StateVector, gate: GateMatrix, targets: tuple, rows: np.ndarray | None) -> bool:
    """Apply an X to a fixed qubit by flipping its bit, on the rows the mask
    `rows` marks; return whether the gate was one. A gate is recognised by
    its image, so one built equal to X counts too.
    """
    fixed, t = state.fixed, targets[0]
    if gate.image != (1, 0) or t not in fixed:
        return False
    bit = 1 - fixed[t]
    fixed[t] = bit if rows is None else _compact(np.where(rows, bit, fixed[t]))
    return True


def apply_gate(
    state: StateVector,
    gate: GateMatrix,
    targets: Sequence[int],
    rows: np.ndarray | None = None,
) -> None:
    """Apply `gate` to the listed qubits, overwriting the state in place.

    The first listed target is the gate's most significant wire. `rows`, a
    boolean per-row value of a split state, limits the gate to the rows it
    marks; the others are left as they are. A gate with fixed targets
    takes one of two paths. An X on a fixed qubit (masked or not) relabels
    it (_relabel): it flips the bit. Every other gate merges the blocks of
    its targets into one, which its fixed targets join.
    """
    targets = _check_targets(state, targets, gate.arity)
    if gate.kind == "permutation" and _relabel(state, gate, targets, rows):
        return
    block = _gather(state, targets)
    axes = tuple(bisect_left(block.qubits, t) for t in targets)
    if rows is None:
        _apply(block.amps, len(block.qubits), gate, axes)
    else:
        _on_rows(state, block, rows, lambda amps: _apply(amps, len(block.qubits), gate, axes))


def pattern_weights(state: StateVector, qubits: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes by bit pattern of `qubits`, and each pattern's weight.

    The first is bipartition(state, qubits) laid out C-contiguously with the
    merged block's row axes flattened: a (rows, 2^k, rest) array whose entry
    [r, b] holds stored row r's amplitudes where the listed qubits read the
    bits of b (first listed qubit = most significant bit). Each stored row
    stands for every state row it broadcasts to. The second is the (rows,
    2^k) squared norm of every entry, from one einsum over the float64 view.
    """
    psi = np.ascontiguousarray(_by_pattern(state, qubits))
    psi = psi.reshape((-1,) + psi.shape[-2:])
    f = psi.view(np.float64)
    return psi, np.einsum("rpi,rpi->rp", f, f)


def _block_weight(block: Block, qubit: int, bit: int) -> np.ndarray:
    """Probability that a qubit of `block` reads `bit`, one value per
    stored row of the block, over its row axes.

    One reduction over the float64 view of the block sums the squared real
    and imaginary parts where the qubit reads `bit`, so no squared copy is
    built. The last axis interleaves its two slabs amplitude by amplitude;
    its weight comes from column sums over wide contiguous rows instead,
    which read the block once without a two-element inner loop.
    """
    k, n = bisect_left(block.qubits, qubit), len(block.qubits)
    f = block.amps.view(np.float64).reshape(block.rows, -1)
    if k == n - 1:
        wide = f.reshape(len(f), -1, min(1024, f.shape[1]))
        cols = np.einsum("rij,rij->rj", wide, wide)
        w = cols.reshape(len(f), -1, 2, 2)[:, :, bit, :].sum(axis=(1, 2))
    else:
        half = f.reshape(len(f), 2**k, 2, -1)[:, :, bit, :]
        w = np.einsum("rjk,rjk->r", half, half)
    return w.reshape(block.amps.shape[:-1])


def _bits(value, what: str) -> np.ndarray:
    """A bit, or per-row bits, as a compact int64 per-row value (see
    _compact); anything else raises."""
    bits = np.array(value, dtype=np.int64, ndmin=1)  # a copy: the caller may change its array
    # only a value of another kind than bool or int can lose a digit on the way
    if np.count_nonzero(bits >> 1) or (np.result_type(value).kind not in "biu" and np.count_nonzero(bits != value)):
        raise ValueError(f"{what} must be 0 or 1, got {value}")
    return _compact(bits)


def _drop(state: StateVector, block: Block, qubit: int, amps: np.ndarray, outcome: np.ndarray) -> None:
    """Give `block` the amplitudes `amps`, which no longer have `qubit`'s
    axis, and record the qubit as fixed at `outcome`. A block left without
    qubits (a phase per row) is multiplied into the first other block, if
    there is one."""
    block.amps = amps
    block.qubits.remove(qubit)
    state.fixed[qubit] = outcome
    if not block.qubits and len(state.blocks) > 1:
        state.blocks.remove(block)
        state.blocks[0] = _product([state.blocks[0], block])


def measure(
    state: StateVector,
    qubit: int,
    *,
    rngs: Sequence | None = None,
    forced: int | np.ndarray | None = None,
) -> MeasurementRecord:
    """Projective Z measurement of one qubit, collapsing the state in place:
    the one collapse kernel, whatever the outcomes come from.

    A forced outcome is one bit for every row or a per-row value. `rngs`
    holds one generator per row, in row order, and each draws once: its
    row reads 1 when the draw falls below the row's probability of 1. Any
    other number of generators raises UnforcedOutcomeError, and giving both
    sources raises ValueError. The kept half of the qubit's block, rescaled,
    replaces the block and the qubit becomes fixed at its outcome.

    Given neither source, both outcomes are kept. Row r becomes rows 2r
    (outcome 0) and 2r + 1 (outcome 1): the grid gains a new first axis,
    and of the blocks only the qubit's own varies along it, each of its
    stored rows split into its two outcome halves in one pass.

    Each half is renormalized by its own weight, summed from its own slice
    (_block_weight): the kept state then has unit norm exactly, where 1 -
    p_other would let rounding drift compound over many measurements, and
    halves that a correction makes equal come out bitwise equal. A fixed
    qubit reads its own bit with probability exactly 1, so it is left as
    it is, and cannot be split. The record holds the per-row outcomes and
    probabilities. An outcome or a branch of probability below 1e-12 raises
    ImpossibleBranchError and leaves the state unchanged.
    """
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    if rngs is not None and forced is not None:
        raise ValueError("supply rngs= or forced=, not both")
    if qubit in state.fixed:
        weight = lambda bit: np.asarray(state.fixed[qubit] == bit, dtype=np.float64)
    else:
        block = _block_of(state, qubit)
        weight = lambda bit: _block_weight(block, qubit, bit)
    if rngs is not None:
        if len(rngs) != state.rows:
            raise UnforcedOutcomeError(
                f"qubit {qubit} is measured on {state.rows} rows with {len(rngs)} generators;"
                " an outcome needs a forced bit, a split or a generator per row"
            )
        draws = np.array([g.random() for g in rngs])
        forced = draws.reshape(state.grid[::-1]).T < weight(1)
    if forced is None:
        w = weight(0), weight(1)
        lead = (1,) * (len(state.grid) - w[0].ndim) + w[0].shape
        p = np.array([half.reshape(lead) for half in w])
        outcome = np.arange(2).reshape((2,) + (1,) * len(lead))
    else:
        outcome = _bits(forced, "forced outcome")
        ones = np.count_nonzero(outcome)  # each outcome's weight only where some row reads it
        p = weight(1) if ones == outcome.size else weight(0) if not ones else np.where(outcome == 1, weight(1), weight(0))
        p = _compact(p)
    least = p.min()
    if least < ZERO_CUTOFF:
        what = "a branch of the split" if forced is None else f"outcome {outcome}"
        raise ImpossibleBranchError(f"{what} on qubit {qubit} has probability {least:.3e}")
    if qubit in state.fixed:
        return MeasurementRecord(qubit, outcome, p)
    k = bisect_left(block.qubits, qubit)
    if forced is None:
        # both halves in one pass, the outcome axis first
        r = len(lead)
        halves = block.amps.reshape(lead + (2**k, 2, -1)).transpose(r + 1, *range(r + 1), r + 2)
        amps = np.divide(halves, np.sqrt(p)[..., None, None], order="C")
        state.grid = (2,) + state.grid
    else:
        halves = block.amps.reshape(block.amps.shape[:-1] + (2**k, 2, -1))
        amps = np.ascontiguousarray(np.where((outcome == 1)[..., None, None], halves[..., 1, :], halves[..., 0, :]))
        amps /= np.sqrt(p)[..., None, None]
    _drop(state, block, qubit, amps.reshape(amps.shape[:-2] + (-1,)), outcome)
    _note(state)  # the outcome's rows may have widened the block
    return MeasurementRecord(qubit, outcome, p)


def partial_state_check(state: StateVector, qubit: int, expected: int | np.ndarray) -> np.ndarray:
    """Whether `qubit` is |expected> with probability 1 within 1e-10, a
    per-row value of bools. `expected` is one bit for every row or per-row
    bits, validated by the caller. On a fixed qubit this compares bits.
    """
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits} qubits")
    if qubit in state.fixed:
        return _compact(state.fixed[qubit] == expected)
    block = _block_of(state, qubit)
    other = np.where(np.equal(expected, 1), _block_weight(block, qubit, 0), _block_weight(block, qubit, 1))
    return _compact(other <= ATOL)


def bipartition(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """The amplitudes as a (rows..., 2^len(keep), rest) array: the listed
    qubits (first listed = MSB) index the second-to-last axis and the other
    qubits of their merged block the last, after the block's row axes.

    Every block that holds no listed qubit, and every fixed qubit not
    listed, is a factor of norm 1, so it is left out; `rest` is then
    smaller than 2^(n - len(keep)).
    """
    return _by_pattern(state, keep)


def _by_pattern(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """bipartition's array, for the probes in this module."""
    keep = _check_targets(state, keep, len(keep))
    block = _merged(state, *_locate(state, keep))
    lead = block.amps.ndim - 1
    axes = [bisect_left(block.qubits, k) for k in keep]
    axes += [a for a in range(len(block.qubits)) if a not in axes]
    psi = _qubit_view(block.amps, len(block.qubits)).transpose(*range(lead), *(lead + a for a in axes))
    return psi.reshape(block.amps.shape[:-1] + (2 ** len(keep), -1))


def overlap(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """tr(rho_a rho_e) for every row, a per-row value.

    Both arguments are bipartition() arrays over the same kept qubits, of
    states whose grids end alike (an earlier state of the same run, say),
    and rho_x = x x^dagger is the kept qubits' reduced state. Their row
    axes broadcast against each other. The trace equals ||e^dagger a||^2
    (Frobenius), so neither density matrix is formed.
    """
    m = np.conj(expected).swapaxes(-1, -2) @ actual
    return (np.square(m.real) + np.square(m.imag)).sum(axis=(-1, -2))
