"""The factored state: live qubits in blocks, every other qubit fixed.

A state built from basis_state starts with every qubit fixed and runs each
kernel on whichever path its qubits call for: bit updates and renamed
axes, merged blocks with re-inserted axes, widened or shared rows or the
slab kernels. The reference is the same state kept dense: it is rebuilt as
one block of every qubit and one stored row per row before each
operation, so every operation on it runs the slab kernels over all 2^n
amplitudes of every row.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catnet import network, protocols, qstate, verify
from catnet.errors import ImpossibleBranchError
from catnet.gates import CNOT, CZ, H, SWAP, TOFFOLI, X, Z, ControlledSpec, make_controlled, make_rk
from catnet.qstate import GateMatrix, StateVector, apply_gate, basis_state, measure
from reference import random_state, reduced_density_matrix

N = 5
TOL = 1e-12
MAX_ROWS = 16
# weighted toward splits and masked gates, so most sequences reach per-row bits
OPS = [
    "gate", "masked", "masked", "permutation", "permutation", "forced", "forced", "rng", "split", "split", "probe",
    "pair", "span", "entangle", "entangle",
]


def _unitary(dim: int, seed: int) -> GateMatrix:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return GateMatrix(q)


GATES = {
    1: [X, Z, make_rk(3), H, _unitary(2, 1)],
    2: [CNOT, SWAP, GateMatrix(np.eye(4)[:, [1, 2, 0, 3]]), CZ, GateMatrix(np.diag([1, 1j, -1, np.exp(0.3j)])), _unitary(4, 2)],
    3: [TOFFOLI, make_controlled(ControlledSpec(2, Z)), _unitary(8, 3)],
}


def dense(state: StateVector) -> StateVector:
    """The same state with every qubit live and a stored row per row."""
    return StateVector(state.num_qubits, state.amplitudes)


def generators(seed: int, rows: int) -> list:
    """A generator per row, the same for equal seeds."""
    return [np.random.default_rng([seed, r]) for r in range(rows)]


def flip(state: StateVector, qubit: int, rows) -> None:
    """X on `qubit` on the rows the per-row bool `rows` marks."""
    if np.all(rows):
        apply_gate(state, X, [qubit])
    elif np.any(rows):
        apply_gate(state, X, [qubit], rows=rows)


def grid_form(state: StateVector, flat) -> np.ndarray:
    """One value per row, in row order, as a per-row value of `state`."""
    return np.reshape(flat, state.grid[::-1]).T


def agree(a, b) -> bool:
    return np.max(np.abs(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))) <= TOL


def projected(before: np.ndarray, qubit: int, outcome) -> np.ndarray:
    """Dense rows `before` projected onto `outcome` of `qubit` (per row when
    an array) and renormalized: the measurement oracle."""
    reads = (np.arange(2**N) >> (N - 1 - qubit)) & 1
    kept = np.where(reads == np.reshape(outcome, (-1, 1)), before, 0)
    return kept / np.linalg.norm(kept, axis=1, keepdims=True)


def both(fn, elided: StateVector, ref: StateVector):
    """fn on each state: both results, or ImpossibleBranchError from both."""
    out = []
    for state in (elided, ref):
        try:
            out.append(fn(state))
        except ImpossibleBranchError:
            out.append(ImpossibleBranchError)
    assert (out[0] is ImpossibleBranchError) == (out[1] is ImpossibleBranchError)
    return out


def flipped(state: StateVector) -> StateVector:
    """A copy whose fixed qubits read the other bit: which qubits are live
    after any operation must not depend on those bits."""
    out = state.copy()
    out.fixed = {q: 1 - b for q, b in out.fixed.items()}
    return out


def permutation_gate(data, arity: int) -> GateMatrix:
    """SWAP, CNOT, Toffoli or a random permutation of the basis states."""
    named = {2: [SWAP, CNOT], 3: [TOFFOLI]}[arity]
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(named))
    return GateMatrix(np.eye(2**arity)[:, data.draw(st.permutations(range(2**arity)))])


def mixed_targets(data, state: StateVector, arity: int) -> list[int]:
    """`arity` distinct qubits, one fixed (per-row bits preferred) and one
    live among them when the state has both, in a drawn order."""
    fixed, live = sorted(state.fixed), list(state.live)
    per_row = [q for q in fixed if state.fixed[q].size > 1]
    if per_row and data.draw(st.integers(0, 3)):
        fixed = per_row
    first = [data.draw(st.sampled_from(fixed)), data.draw(st.sampled_from(live))] if fixed and live else []
    rest = [q for q in data.draw(st.permutations(range(N))) if q not in first]
    return data.draw(st.permutations((first + rest)[:arity]))


def block_holding(state: StateVector, qubit: int):
    return next((b for b in state.blocks if qubit in b.qubits), None)


def block_targets(data, state: StateVector, arity: int) -> list[int]:
    """`arity` distinct qubits: one from each of two blocks when the state
    has two that hold qubits, else from a block with fewer rows than the
    state when there is one, then the rest in a drawn order."""
    held = [b for b in state.blocks if b.qubits]
    if len(held) > 1 and data.draw(st.booleans()):
        a, b = data.draw(st.permutations(held))[:2]
        first = [data.draw(st.sampled_from(a.qubits)), data.draw(st.sampled_from(b.qubits))]
    else:
        short = [b for b in held if b.rows < state.rows]
        first = data.draw(st.permutations(short[0].qubits)) if short else []
    rest = [q for q in data.draw(st.permutations(range(N))) if q not in first]
    return data.draw(st.permutations((first + rest)[:arity]))


def check_blocks(state: StateVector) -> None:
    """The product structure: disjoint ascending blocks whose stored rows
    broadcast to the state's rows, each row of norm 1, a block without
    qubits only when it is the only block, per-row bits that broadcast the
    same way, and high-water marks that cover what is held."""
    qubits = [q for b in state.blocks for q in b.qubits]
    assert sorted(qubits + list(state.fixed)) == list(range(N))
    assert state.rows == np.prod(state.grid)
    for b in state.blocks:
        assert b.qubits == sorted(b.qubits) and b.amps.shape[-1] == 2 ** len(b.qubits)
        assert np.broadcast_shapes(b.amps.shape[:-1], state.grid) == state.grid
        assert state.rows % b.rows == 0 and b.amps.flags.c_contiguous
        assert np.allclose(np.linalg.norm(b.amps, axis=-1), 1.0, atol=TOL)
    for bit in state.fixed.values():
        assert np.broadcast_shapes(np.shape(bit), state.grid) == state.grid
    assert all(b.qubits for b in state.blocks) or len(state.blocks) == 1
    widths = [b.amps.shape[-1] for b in state.blocks]
    assert state.high_water >= state.rows * sum(widths) and state.largest_block >= state.rows * max(widths)
    assert state.stored_peak >= sum(b.amps.size for b in state.blocks)


def check_probes(data, elided: StateVector, ref: StateVector) -> None:
    """bipartition/overlap and pattern_weights on a drawn set of qubits,
    against the dense reference."""
    keep = data.draw(st.permutations(range(N)))[: data.draw(st.integers(1, N))]
    rho = np.reshape(reduced_density_matrix(ref, keep), (ref.rows, 2 ** len(keep), 2 ** len(keep)))
    purity = np.trace(rho @ rho, axis1=1, axis2=2).real
    mine, dense_keep = qstate.bipartition(elided, keep), qstate.bipartition(ref, keep)
    assert agree(elided.per_row(qstate.overlap(mine, mine)), purity)
    assert agree(qstate.overlap(qstate._flat_rows(elided.grid, mine, 2), dense_keep), purity)
    probs = np.abs(ref.amplitudes.reshape(ref.rows, -1)) ** 2
    index = np.arange(2**N)
    # the rows are the stored rows of the listed qubits' merged block
    lead = qstate._merged(elided, *qstate._locate(elided, keep)).amps.shape[:-1]
    psi, weights = qstate.pattern_weights(elided, keep)
    for pattern in range(2 ** len(keep)):
        bits = [(pattern >> (len(keep) - 1 - j)) & 1 for j in range(len(keep))]
        reads = np.all([(index >> (N - 1 - q)) & 1 == bit for q, bit in zip(keep, bits)], axis=0)
        weight = elided.per_row(weights[:, pattern].reshape(lead))
        assert agree(weight, probs[:, reads].sum(axis=1))
        assert agree(weight, elided.per_row(np.sum(np.abs(psi[:, pattern]) ** 2, axis=1).reshape(lead)))


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_elided_state_matches_dense_copy(data):
    start = data.draw(st.sampled_from(["basis", "dense", "blocks"]))
    if start == "dense":  # every qubit live, so splits and measurements fix them per row
        elided = random_state(N, np.random.default_rng(data.draw(st.integers(0, 2**16))))
    else:
        elided = basis_state(N, data.draw(st.integers(0, 2**N - 1)))
    if start == "blocks":  # a random unitary on each group of a partition: one block per group
        order = data.draw(st.permutations(range(N)))
        for group in (order[:1], order[1:3], order[3:]):
            apply_gate(elided, _unitary(2 ** len(group), data.draw(st.integers(0, 2**16))), group)
        assert len(elided.blocks) == 3
    for _ in range(data.draw(st.integers(1, 20))):
        ref = dense(elided)
        other = flipped(elided)
        op = data.draw(st.sampled_from(OPS))
        qubits = data.draw(st.permutations(range(N)))
        if op in ("forced", "rng", "probe") and elided.fixed and data.draw(st.booleans()):
            qubits = [data.draw(st.sampled_from(sorted(elided.fixed)))]
        if op == "pair":
            # a pair or cat written onto fixed qubits (at |0> when there are
            # two): a block of its own, on one row unless a bit is per row
            zeros = [q for q, b in elided.fixed.items() if not b.any()]
            pool = zeros if len(zeros) > 1 else sorted(elided.fixed)
            if len(pool) < 2:
                continue
            cat = data.draw(st.permutations(pool))[: data.draw(st.integers(2, min(3, len(pool))))]
            for state in (elided, ref, other):
                apply_gate(state, H, [cat[0]])
                for q in cat[1:]:
                    apply_gate(state, CNOT, [cat[0], q])
            assert [block_holding(elided, q) for q in cat[1:]] == [block_holding(elided, cat[0])] * (len(cat) - 1)
            assert len(block_holding(elided, cat[0]).qubits) == len(cat)
        elif op in ("gate", "masked", "permutation", "span"):
            if op == "permutation":
                arity = data.draw(st.integers(2, 3))
                gate = permutation_gate(data, arity)
                qubits = mixed_targets(data, elided, arity)
            else:
                arity = data.draw(st.integers(1 if op != "span" else 2, 3))
                gate = data.draw(st.sampled_from(GATES[arity]))
                if op != "gate":
                    qubits = block_targets(data, elided, arity)
            rows = None
            if op in ("masked", "permutation") and elided.rows > 1 and data.draw(st.booleans()):
                rows = np.array(data.draw(st.lists(st.booleans(), min_size=elided.rows, max_size=elided.rows)))
            for state in (elided, ref, other):
                apply_gate(state, gate, qubits[:arity], rows=None if rows is None else grid_form(state, rows))
        elif op in ("forced", "rng"):
            seed = data.draw(st.integers(0, 2**16))
            forced = data.draw(st.integers(0, 1))
            if elided.rows > 1 and data.draw(st.booleans()):
                forced = np.array(data.draw(st.lists(st.integers(0, 1), min_size=elided.rows, max_size=elided.rows)))
                if qubits[0] in elided.fixed and elided.fixed[qubits[0]].size > 1 and data.draw(st.booleans()):
                    forced = elided.per_row(elided.fixed[qubits[0]])  # the recorded bits: every row possible

            def measure_one(state):
                if op == "forced":
                    return measure(state, qubits[0], forced=grid_form(state, forced) if np.ndim(forced) else forced)
                return measure(state, qubits[0], rngs=generators(seed, state.rows))

            before = elided.amplitudes.reshape(elided.rows, -1)
            recs = both(measure_one, elided, ref)
            if recs[0] is not ImpossibleBranchError:
                outcome = elided.per_row(recs[0].outcome)
                assert np.array_equal(outcome, ref.per_row(recs[1].outcome))
                assert agree(elided.per_row(recs[0].probability), ref.per_row(recs[1].probability))
                assert agree(elided.amplitudes.reshape(elided.rows, -1), projected(before, qubits[0], outcome))
                measure(other, qubits[0], rngs=generators(seed, other.rows))  # an outcome it can take
        elif op == "split":
            if elided.rows * 2 > MAX_ROWS:
                continue
            measured = block_holding(elided, qubits[0]) or elided.blocks[0]
            untouched = [(list(b.qubits), b.amps.copy()) for b in elided.blocks if b is not measured]
            recs = both(lambda s: measure(s, qubits[0]), elided, ref)
            if recs[0] is ImpossibleBranchError:
                continue
            assert np.array_equal(elided.per_row(recs[0].outcome), ref.per_row(recs[1].outcome))
            assert agree(elided.per_row(recs[0].probability), ref.per_row(recs[1].probability))
            # only the measured block takes the new rows; the others keep
            # theirs (unless the measured block, left empty, joined one)
            if len(measured.qubits) > 1:
                rest = [q for q in measured.qubits if q != qubits[0]]
                assert [(b.qubits, b.amps.tolist()) for b in elided.blocks if b.qubits != rest] == [
                    (q, a.tolist()) for q, a in untouched
                ]
            try:
                measure(other, qubits[0])
            except ImpossibleBranchError:  # its amplitudes may differ; its blocks may not
                other = elided
        elif op == "entangle":
            # the cat-entangler: a pair reset to |00> (measured, then
            # flipped where it read 1) and shared, a control spliced in, a
            # split and its correction. The correction makes the new rows
            # equal, and the block stores them once when they come out
            # bitwise equal, never when one amplitude of one row was moved
            # by one ulp first
            if elided.rows * 2 > MAX_ROWS:
                continue
            control, *pair = data.draw(st.permutations(range(N)))[:3]
            seeds = [data.draw(st.integers(0, 2**16)) for _ in pair]
            nudge = data.draw(st.booleans())
            for state in (elided, ref, other):
                for q, seed in zip(pair, seeds):
                    flip(state, q, measure(state, q, rngs=generators(seed, state.rows)).outcome == 1)
                apply_gate(state, H, [pair[0]])
                apply_gate(state, CNOT, pair)
                apply_gate(state, CNOT, [control, pair[0]])
            stored = block_holding(elided, pair[1]).rows
            fire = [measure(state, pair[0]).outcome == 1 for state in (elided, ref, other)]
            if nudge:  # the first amplitude of the block's last stored row that is not 0
                block = block_holding(elided, pair[1])
                flat = block.amps.reshape(-1, block.amps.shape[-1])
                j = np.flatnonzero(flat[-1])[0]
                flat[-1, j] = np.nextafter(flat[-1, j].real, np.inf) + 1j * flat[-1, j].imag
                ref, fire[1] = dense(elided), elided.per_row(fire[0])
            for state, rows in zip((elided, ref, other), fire):
                apply_gate(state, X, [pair[1]], rows=rows)
            block = block_holding(elided, pair[1])
            if block.rows == 2 * stored:  # kept apart, which only halves that differ in some bit are
                assert not np.array_equal(block.amps[0], block.amps[1])
            else:
                assert block.rows == stored and not nudge
        else:
            bit = data.draw(st.integers(0, 1))
            got, want = (qstate.partial_state_check(s, qubits[0], bit) for s in (elided, ref))
            assert np.array_equal(elided.per_row(got), ref.per_row(want))
            check_probes(data, elided, ref)
        assert elided.rows == ref.rows
        assert agree(elided.amplitudes, ref.amplitudes)
        assert np.allclose(elided.norm(), 1.0, atol=TOL)
        check_blocks(elided)
        assert [b.qubits for b in other.blocks] == [b.qubits for b in elided.blocks]


@pytest.mark.parametrize("per_outcome", [False, True])
@pytest.mark.parametrize("gate", [Z, X], ids=["Z", "X"])
@pytest.mark.parametrize("dropped", [1, 2, 3])
def test_parity_corrections_run_on_row_slices(dropped, gate, per_outcome):
    """A correction controlled by the XOR of 1-3 split outcomes: the Z of a
    cat_shrink that drops `dropped` members (each X-measured), or an X on a
    target that the members' bits were added onto (each Z-measured). It
    runs once on the XOR or once per outcome, oldest first: then its mask
    varies along a row axis that is not the block's first, so the rows it
    marks are not contiguous in the block, and the blend keeps the kernel's
    result on those rows alone. Every correction agrees with the dense
    copy and makes the rows along its mask's axes bitwise equal, so the
    block stores them once; at the end it stores one row."""
    keep, members, target = 0, list(range(1, dropped + 1)), N - 1
    state = basis_state(N)
    apply_gate(state, _unitary(2, 7), [keep])
    if gate is Z:
        fixes = keep
        for m in members:
            apply_gate(state, CNOT, [keep, m])
        for m in members:
            apply_gate(state, H, [m])
    else:
        fixes = target
        apply_gate(state, CNOT, [keep, target])
        for m in members:
            apply_gate(state, H, [m])
            apply_gate(state, CNOT, [m, target])
    outcomes = [measure(state, m).outcome for m in members]
    masks = outcomes if per_outcome else [functools.reduce(np.bitwise_xor, outcomes)]
    for j, mask in enumerate(masks):
        block = block_holding(state, fixes)
        if per_outcome:  # the grid runs newest split first, so outcome j's axis is dropped - 1 - j
            assert block.amps[(slice(None),) * (dropped - 1 - j) + (1,)].flags.c_contiguous == (j == dropped - 1)
        ref = dense(state)
        flat = state.per_row(mask == 1)
        apply_gate(state, gate, [fixes], rows=mask == 1)
        apply_gate(ref, gate, [fixes], rows=grid_form(ref, flat))
        assert agree(state.amplitudes, ref.amplitudes)
        check_blocks(state)
        block = block_holding(state, fixes)
        lead = block.amps.shape[:-1]
        assert all(lead[len(lead) - mask.ndim + ax] == 1 for ax, size in enumerate(mask.shape) if size > 1)
    assert state.rows == 2**dropped and block_holding(state, fixes).rows == 1


@pytest.mark.parametrize("targets", [[4], [2], [4, 2]], ids=["last", "middle", "pair"])
def test_general_gates_on_row_slices_that_are_not_contiguous(targets):
    """The general kernels reshape their rows into one axis. The mask is the
    first of two splits' outcomes, so it marks every other stored row of
    the block, rows that no contiguous slice holds: the kernel runs on a
    copy of every row, and the blend keeps its result on the marked rows."""
    state = random_state(N, np.random.default_rng(11))
    first = measure(state, 0).outcome
    measure(state, 1)
    block = block_holding(state, targets[0])
    assert block.amps.shape[:-1] == (2, 2, 1) and not block.amps[:, 1].flags.c_contiguous
    gate = H if len(targets) == 1 else _unitary(4, 5)
    ref = dense(state)
    flat = state.per_row(first == 1)
    apply_gate(state, gate, targets, rows=first == 1)
    apply_gate(ref, gate, targets, rows=grid_form(ref, flat))
    assert agree(state.amplitudes, ref.amplitudes)
    check_blocks(state)


def test_masked_gates_run_their_kernel_once(monkeypatch):
    """A gate masked to some rows but not all runs its kernel once, however
    many entries the mask marks: the 200 samples of the 6/3 transform mask
    32 corrections, which mark 3,227 entries between them. The network
    masks a correction only when some rows fire but not all."""
    on_rows, runs = qstate._on_rows, []

    def counted(state, block, rows, kernel):
        calls = 0

        def counted_kernel(amps):
            nonlocal calls
            calls += 1
            kernel(amps)

        on_rows(state, block, rows, counted_kernel)
        runs.append((np.count_nonzero(rows), rows.size, calls))

    monkeypatch.setattr(qstate, "_on_rows", counted)
    assert verify.verify_qft(n=6, m=3, branches="sampled").verified
    assert all(0 < hits < size and calls == 1 for hits, size, calls in runs)
    assert len(runs) == 32 and sum(hits for hits, _, _ in runs) == 3227


def test_amplitudes_are_a_read_only_snapshot():
    state = basis_state(3, 0b101)
    apply_gate(state, H, [1])
    amps = state.amplitudes
    with pytest.raises(ValueError):
        amps[0] = 1
    assert state.live == [1] and state.fixed == {0: 1, 2: 1}
    assert np.allclose(amps, np.eye(8)[[0b101, 0b111]].sum(axis=0) / np.sqrt(2))


def test_fixed_qubits_change_only_their_bits():
    """Only an X on a fixed qubit changes just its bit. Any other gate
    merges its fixed targets, a SWAP of a live and a fixed qubit too, and a
    CNOT on two fixed qubits starts a block of their own."""
    state = basis_state(4, 0b1000)
    apply_gate(state, X, [2])
    assert [b.qubits for b in state.blocks] == [[]] and state.fixed == {0: 1, 1: 0, 2: 1, 3: 0}
    # an H on a fixed qubit merges it into the block without qubits
    apply_gate(state, H, [1])
    apply_gate(state, SWAP, [2, 1])
    assert [b.qubits for b in state.blocks] == [[1, 2]] and state.fixed == {0: 1, 3: 0}
    # both fixed and no block without qubits left, so a block of their own
    apply_gate(state, CNOT, [0, 3])
    assert [b.qubits for b in state.blocks] == [[1, 2], [0, 3]] and state.fixed == {}
    assert np.allclose(state.amplitudes, (np.eye(16)[0b1101] + np.eye(16)[0b1111]) / np.sqrt(2))
    assert qstate.partial_state_check(state, 1, 1)


@pytest.mark.parametrize("shape", ["linear", "binary-tree"])
def test_ghz_build_peaks_at_15_live_qubits(shape, monkeypatch):
    """The 8-node build holds its 7 pairs (14 channel qubits) at once, plus
    one register while a stage runs: 15 of 22 qubits, never more. Each pair
    is a block of its own until its entangler joins it to the registers'
    cat, so no block ever holds more than m + 2 = 10 qubits."""
    peak = []
    apply = qstate.apply_gate

    def counting(state, gate, targets, rows=None):
        apply(state, gate, targets, rows)
        peak.append(len(state.live))

    monkeypatch.setattr(qstate, "apply_gate", counting)
    names = [f"N{i}" for i in range(8)]
    req = protocols.em_channel_requirements(8, shape)
    net = network.Network([(name, 1, r) for name, r in zip(names, req)], seed=3)
    protocols.distributed_em(net, names, shape)
    assert net.num_qubits == 22
    assert max(peak) <= 15
    assert net.state.largest_block <= 2**10
    assert [b.qubits for b in net.state.blocks] == [[net.global_index(net.reg(name)) for name in names]]
    assert net.state.blocks[0].amps.size == 2**8


@pytest.mark.parametrize("shape", ["linear", "binary-tree"])
@pytest.mark.parametrize("corrupt", [False, True])
def test_ghz_oracle_stays_within_15_live_qubits(shape, corrupt, monkeypatch):
    """The protocol's own oracle on the 8-node build: its baseline is taken
    before the pairs are shared, so the expected state never holds them
    live, and a stray H on a register still fails the check."""
    sizes = []
    bipartition = qstate.bipartition

    def recording(state, keep):
        sizes.append(state.largest_block)
        return bipartition(state, keep)

    monkeypatch.setattr(qstate, "bipartition", recording)
    names = [f"N{i}" for i in range(8)]
    req = protocols.em_channel_requirements(8, shape)
    net = network.Network([(name, 1, r) for name, r in zip(names, req)], seed=3)
    if corrupt:
        reset, calls = protocols.reset_channel_qubits, []

        def reset_then_flip(net, records):
            out = reset(net, records)
            calls.append(records)
            if len(calls) == 7:  # after the last edge
                net.local_apply(H, [net.reg(names[-1])])
            return out

        monkeypatch.setattr(protocols, "reset_channel_qubits", reset_then_flip)
    rep = protocols.distributed_em(net, names, shape, check=True)
    assert rep.ledger.ebits_consumed == 7 and rep.ledger.cbits_sent == 14
    assert len(sizes) == 2 and max(sizes) <= 2**10
    if corrupt:
        # H on one member of the finished cat leaves a state orthogonal to it
        assert rep.verified is False and abs(rep.max_infidelity - 1.0) < 1e-9
    else:
        assert rep.verified is True and rep.max_infidelity < 1e-10


@pytest.mark.parametrize("shape,rounds", [("linear", 15), ("binary-tree", 4)])
def test_sixteen_node_ghz_build_verifies(shape, rounds):
    """46 qubits are far past a joint vector (2^46 amplitudes), but each
    pair stays a block of its own until its entangler runs, so no block
    holds more than m + 2 = 18 qubits, and the oracle checks the build."""
    names = [f"N{i}" for i in range(16)]
    req = protocols.em_channel_requirements(16, shape)
    net = network.Network([(name, 1, r) for name, r in zip(names, req)], seed=5)
    rep = protocols.distributed_em(net, names, shape, check=True)
    assert net.num_qubits == 46
    assert rep.verified is True and rep.max_infidelity < 1e-10
    assert rep.ledger.ebits_consumed == 15 and rep.ledger.cbits_sent == 30
    assert rep.rounds == rounds
    assert net.state.largest_block <= 2**18


def _fixed_at_zero(net: network.Network, addrs) -> bool:
    return all(
        net.global_index(a) in net.state.fixed and not np.any(net.state.fixed[net.global_index(a)]) for a in addrs
    )


@pytest.mark.parametrize("layout", [[("A", 1, 2), ("B", 1, 2)], [("A", 2, 1), ("B", 1, 1)]])
def test_distributed_swap_leaves_its_channels_fixed(layout):
    """The closing SWAP moves each carried state into its measured register
    slot by renaming an axis, so the vacated channel qubits (and a buffer
    register) are fixed at 0 on every branch row, never live."""
    net = network.Network(layout, seed=0)
    a, b = net.reg("A"), net.reg("B")
    net.inject_state([a, b], random_state(2, np.random.default_rng(1)).amplitudes)
    net.split_outcomes(4)
    rep = protocols.distributed_swap(net, a, b, check=True)
    assert rep.verified and net.rows == 16
    assert net.state.live == sorted([net.global_index(a), net.global_index(b)])
    idle = [q for q in net.addresses() if q not in (a, b)]
    assert _fixed_at_zero(net, idle)
    assert net.state.high_water <= 16 * 2**4


def test_teleport_with_reset_leaves_its_channels_fixed():
    net = network.Network([("A", 1, 1), ("B", 1, 1)], seed=0)
    src, dst = net.reg("A"), net.reg("B")
    net.inject_state([src], [0.6, 0.8j])
    net.preshare_epr(net.chan("A"), net.chan("B"))
    net.split_outcomes(2)
    rep = protocols.teleport_with_reset(net, src, (net.chan("A"), net.chan("B")), dst, check=True)
    assert rep.verified and net.rows == 4
    assert net.state.live == [net.global_index(dst)]
    assert _fixed_at_zero(net, [src, net.chan("A"), net.chan("B")])
