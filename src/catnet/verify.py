"""Branch-enumeration verification harness.

Every verifier is a table of Case records run by one driver. A case holds a
node layout, measurement count, inputs, protocol call, the ideal over the
logical qubits and the qubits that must end in |0>. A sweep walks the
case's positions in order, in runs of at most CHUNK_AMPLITUDES amplitudes,
and every position is a row of some run. An exhaustive sweep's positions
are input x branch: a run forces a prefix of one input's outcomes and
splits the rest into branch rows (Network.split_outcomes), or carries
several whole inputs as rows (a stack for Network.inject_state) and splits
every outcome. A sampled sweep's positions are input x sample: a run
carries a row per position, and each row draws its outcomes from a
generator of its own, the one a run of that row alone would use, so a row
is its own one-row run. A forced, split or drawn outcome is taken by the
one collapse kernel (qstate.measure), so the runs differ only in the
outcome source they give it. Both sweeps are sized by one rule: a run pays
a few ms of per-op overhead, and the rows that the protocols' corrections
make equal are stored once, so the 4,096 branches of the amortized
4-qubit, 2-machine transform, or 200 samples of the 6-qubit one, are one
run at about the cost of one. An exhaustive case of more than
MAX_POSITIONS positions is refused before any run. Each stored row is
checked against the ideal and for its |0> qubits, and a failure is
reported under the label of each row it stands for; each input of an
exhaustive sweep is checked for branch probabilities summing to one, and
each section for one ledger in every run. A run that breaks a model rule
(raises CatnetError) is a failure of the positions it held, and the sweep
goes on with the next run.

A case's ideal is a function from its stacked inputs to their expected
vectors, called once per case, so no verifier builds a 2^n x 2^n operator.
The small verifiers embed their gates by explicit basis-index arithmetic
on whole index arrays (_embed) and apply them as one matrix product;
parallel control applies its three parts to the control-1 half of the
stack with one einsum; the transform's ideal is a radix-2 DFT in n stages
(_transform), which bounds the transform only by its input: 2^n at most
CHUNK_AMPLITUDES, n <= 20. None of them shares code with the simulator's
gate application. A run's checks take a fixed handful of numpy calls.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import qstate
from .gates import CNOT, H, SWAP, TOFFOLI, X, Z, ControlledSpec, make_controlled, make_rk
from .errors import CatnetError
from .network import CHANNEL, REGISTER, Network, QubitAddress, ResourceLedger
from .primitives import cat_entangler, cat_shrink
from .protocols import (
    C4X,
    ProtocolReport,
    _Scope,
    decompose_multi_control_x,
    distributed_em,
    distributed_swap,
    establish_epr_exchange,
    em_channel_requirements,
    nonlocal_cnot,
    nonlocal_controlled_sequence,
    nonlocal_multi_control,
    parallel_distributed_control,
    reset_channel_qubits,
    teleport_with_reset,
)
from .qstate import ATOL
from .qft import build_qft_plan, qft_distributed

PROB_TOL = 1e-9

# The most amplitudes, over all branch rows, that one exhaustive-sweep run
# holds (16 MiB of complex128): 4,096 rows of a 256-amplitude network with
# every qubit live, which the 4-qubit, 2-machine transform is when it
# starts. Runs of networks with more live qubits split fewer measurements.
# Per-op overhead makes a run cost the same few ms whatever its rows, and a
# row only us (the amortized 4/2 protocol: 6.1 ms for 64 rows, 9.7 ms for
# 1,024, 20.8 ms for 4,096), so fewer, wider runs win, at the cost of
# resident memory. Measured on a 2-core box, budgets of 2^14, 2^16, 2^18
# and 2^20 take the 65,536-branch 4/2 sweep to 68, 20, 8 and 5 runs,
# 0.82, 0.45, 0.35 and 0.31 s, and 38, 42, 57 and 65 MB peak RSS; only
# 2^20 makes the amortized 4/2 sweep one run. The budget bounds what the
# blocks would hold with a row per branch (StateVector.high_water); rows
# that corrections make bitwise equal are stored once, so that run now
# stores at most 2^8 amplitudes at a time, and its 65,536-branch sibling
# peaks at 39 MB RSS as a CLI command.
CHUNK_AMPLITUDES = 2**20

# The most input x branch positions an exhaustive sweep walks: 256 times
# the 4/2 sweep, over a minute at its rate. A wider case must be sampled.
MAX_POSITIONS = 2**24


# ---- shared machinery ----------------------------------------------------


def _random_unitary(dim: int, rng: random.Random) -> np.ndarray:
    """Haar-random: Q of a complex Gaussian matrix (any scale), R's phases taken out."""
    q, r = np.linalg.qr(qstate.random_vector(2 * (dim.bit_length() - 1), rng).reshape(dim, dim))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _embed(matrix: np.ndarray, n: int, targets: Sequence[int]) -> np.ndarray:
    """Expand a gate to n qubits by explicit basis-index arithmetic.

    Column c's target bits, read as a gate index (first target = most
    significant bit), pick the gate column; row p of the gate lands in the
    row that is c with its target bits set to p's. Index arrays for every
    column and gate row at once, then one assignment writes each entry.
    Deliberately shares no code with the simulator's gate application so
    the two can vouch for each other.
    """
    dim, shifts = 2**n, n - 1 - np.array(targets)
    bits = np.arange(len(targets) - 1, -1, -1)  # each target's place in a gate index
    cols = np.arange(dim)
    sub = ((cols[:, None] >> shifts) & 1) @ (1 << bits)
    rest = cols & ~sum(1 << (n - 1 - t) for t in targets)
    rows = rest | ((np.arange(len(matrix))[:, None] >> bits) & 1) @ (1 << shifts)[:, None]
    out = np.zeros(dim * dim, dtype=complex)
    out[rows * dim + cols] = matrix[:, sub]
    return out.reshape(dim, dim)


def _apply(matrix: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """An ideal that applies `matrix` to every input of a stack."""
    return lambda stack: stack @ matrix.T


def _transform(stack: np.ndarray) -> np.ndarray:
    """The defining transform, entry (row, col) = e^(2 pi i row col/2^n) /
    sqrt(2^n), applied to every row of a (rows, 2^n) stack without forming
    it: a radix-2 DFT in n stages.

    Before each stage out[r, k, j] is entry k of the size-L transform of
    row r's amplitudes j, j + C, j + 2C, ... (out is (rows, L, C)); a stage
    merges the sequences j and j + C/2 into one of stride C/2 with the
    twiddles e^(i pi k / L). O(n 2^n) per row, and no code shared with the
    simulator or with the dense matrix the tests build (reference.qft_matrix).
    """
    rows, dim = stack.shape
    out = stack.reshape(rows, 1, dim)
    while out.shape[2] > 1:
        size, half = out.shape[1], out.shape[2] // 2
        even = out[..., :half]
        odd = out[..., half:] * np.exp(1j * np.pi * np.arange(size) / size)[:, None]
        out = np.concatenate([even + odd, even - odd], axis=1)
    return out.reshape(rows, dim) / math.sqrt(dim)


def _reg(node: str, slot: int = 0) -> QubitAddress:
    return QubitAddress(node, REGISTER, slot)


def _chan(node: str, slot: int = 0) -> QubitAddress:
    return QubitAddress(node, CHANNEL, slot)


def _channels(spec: Sequence[tuple[str, int, int]]) -> list[QubitAddress]:
    return sorted(_chan(node, s) for node, _, channels in spec for s in range(channels))


def _inputs(rng: random.Random, qubits: int, count: int, seed: int, prefix: str = "input") -> list:
    return [(f"{prefix}{i}", seed + i, a) for i, a in enumerate(qstate.random_vectors(qubits, count, rng))]


def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


class _Sweep:
    """Aggregates runs into one merged report."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.branches = 0
        self.max_infidelity = 0.0
        self.ok = True
        self.failures: list[dict[str, Any]] = []
        self.sections: dict[str, ProtocolReport] = {}
        self.messages: list = []

    def fail(self, label: str, **info: Any) -> None:
        self.ok = False
        if len(self.failures) < 8:
            self.failures.append({"case": label, **info})

    def require(self, condition: bool, label: str, **info: Any) -> None:
        if not condition:
            self.fail(label, **info)

    def add(self, report: ProtocolReport, *, section: str = "", label: str = "", rows: int = 1) -> None:
        """Fold in one report of a run that carried `rows` branches.

        The first report of a section sets the ledger and rounds every later
        one must repeat. The merged message log is that of the first run
        that logged messages, which the report shows at row 0. A report's
        own verified and max_infidelity are not read: the sweep judges the
        run by its case (_drive).
        """
        self.branches += rows
        first = self.sections.setdefault(section, report)
        if first.ledger != report.ledger or first.rounds != report.rounds:
            self.fail(label, ledger=report.ledger.as_dict(), first_seen=first.ledger.as_dict())
        if first is report and not self.messages:
            self.messages = report.messages


# ---- the case table and its driver ----------------------------------------


@dataclass
class Case:
    """Runs of a sweep that share a node layout and a protocol call.

    Each input is (label, seed, amplitudes): the amplitudes go onto
    `inject` (default: `logical`), and np.ones(1) onto inject=[] starts
    from |0...0>. `run` performs the protocol on the prepared network and
    returns its (section, report) pairs. `ideal` maps the stack of the
    case's inputs, a row each, to the vectors the logical qubits must end
    in, one row per input or one row for all of them. `measurements` is
    how many outcomes a sweep enumerates; a case with none has one
    position per input, whose row draws any outcomes from a generator
    seeded with the input's seed. `samples` is the positions per input in
    sampled mode, and `details` lists report details that must hold the
    given values.
    """

    spec: list[tuple[str, int, int]]
    measurements: int
    inputs: list[tuple[str, int, np.ndarray]]
    run: Callable[[Network], list[tuple[str, ProtocolReport]]]
    logical: list[QubitAddress]
    ideal: Callable[[np.ndarray], np.ndarray]
    samples: int = 1
    inject: list[QubitAddress] | None = None
    zero: list[QubitAddress] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)


def _row_label(sweep: _Sweep, case: Case, per: int, exhaustive: bool, p: int) -> str:
    """The failure label of position p, input p // per's branch (or sample)
    p % per: `input3:branch(0, 1, 0, 1)` or `input3:sample5`, the input's
    label alone for a case that enumerates no outcomes, and for the qft
    sweep's one input the bits alone, `branch000001000101` or `sample5`."""
    label, b = case.inputs[p // per][0], p % per
    if not case.measurements:
        return label
    bits = _bits(b, case.measurements)
    if sweep.name == "qft":
        return "branch" + "".join(map(str, bits)) if exhaustive else f"sample{b}"
    return f"{label}:branch{bits}" if exhaustive else f"{label}:sample{b}"


def _split(case: Case, count: int) -> int:
    """log2 of the positions the first run holds: as many of the case's
    `count` positions as CHUNK_AMPLITUDES leaves room for with every qubit
    live."""
    qubits = sum(r + c for _, r, c in case.spec)
    return min((count - 1).bit_length(), max(0, CHUNK_AMPLITUDES.bit_length() - 1 - qubits))


def _run(case: Case, amps: np.ndarray, seeds: Sequence[int], prefix: Sequence[int], split: int) -> tuple[Network, list]:
    """One run of a case: inject `amps` (one input, or a stack of inputs
    that become rows), give row r a generator seeded seeds[r] (none at all
    for an empty list), force `prefix` and split the next `split`
    measurements into branch rows."""
    net = Network(case.spec)
    net.inject_state(case.logical if case.inject is None else case.inject, amps)
    net.rngs = [random.Random(s) for s in seeds]
    net.force_outcomes(prefix)
    net.split_outcomes(split)
    return net, case.run(net)


def _drive(sweep: _Sweep, case: Case, branches: str) -> None:
    """Run every input of `case` through its branches or samples into `sweep`.

    The runs walk the positions input * per + j in order: j is the branch
    (per = 2^M for M measurements) of an exhaustive sweep and the sample (per
    = case.samples, or 1 for a case of no measurements) of a sampled one.
    Both are sized by one rule: each run is a block of 2^s positions that
    starts at a multiple of its size (the last may hold fewer), the first
    holds 2^_split positions, and each later one as many as the previous
    run's high_water leaves room for within CHUNK_AMPLITUDES. high_water
    counts what the blocks would hold with a row per position, however many
    rows coincide and are stored once, so a protocol whose rows never
    coincide stays within the budget too. An exhaustive run with s <= M
    forces a prefix of one input's outcomes and splits s measurements;
    with s > M it carries 2^(s-M) whole inputs as rows and splits all M. A
    sampled run carries a row per position, and row (input i, sample c)
    draws its outcomes from random.Random(seed_i + 7919 c + 13), or
    seed_i's own generator for a case of no measurements, which is what a
    run of that row alone would draw; an exhaustive run of a case of no
    measurements draws from seed_i's generator too, and one of a case with
    measurements has no generators, so a measurement beyond the M it
    enumerates raises UnforcedOutcomeError. Row r is position start + r.
    A run injects and compares the rows of the case's input stack and
    expected vectors that its rows start from; case.ideal forms the
    expected vectors of the whole stack in one call. The protocols run
    unchecked, so these checks alone judge a run: its verdict comes from
    its case, never from a protocol's own oracle. The checks against the
    ideal and for |0> qubits run once per stored row; only a run with a
    failure lays them out one per row and labels them. The blocks are the
    same for every run: which qubits a gate leaves live, and which blocks it
    merges, depends only on which of its targets are fixed, never on their
    bits (qstate._relabel), and a classically controlled correction
    takes the same path on the rows it fires on and the rows it skips, so
    the live qubits depend on neither outcome nor input. A run that raises
    CatnetError fails under its label range (first..last) with the error's
    class and message, and its inputs skip the probability-sum check; the
    sweep goes on with the next run, and any other exception propagates.
    An exhaustive case of more than MAX_POSITIONS positions raises
    ValueError before any run.
    """
    exhaustive, m = branches == "exhaustive", case.measurements
    if exhaustive:
        per = 2**m
    elif branches == "sampled":
        per = case.samples if m else 1
    else:
        raise ValueError(f"branches must be 'exhaustive' or 'sampled', got {branches!r}")
    count = per * len(case.inputs)
    if exhaustive and count > MAX_POSITIONS:
        raise ValueError(
            f"an exhaustive sweep of {count} input x branch positions exceeds {MAX_POSITIONS};"
            " use branches='sampled' (--branches sampled)"
        )
    stack = np.array([a for _, _, a in case.inputs])
    wants = case.ideal(stack)[..., None]
    total_p, raised = np.zeros(len(case.inputs)), set()
    start, size = 0, _split(case, count)
    while start < count:
        stop = min(start + 2**size, count)
        split = min(size, m) if exhaustive else 0
        prefix = _bits(start % per >> split, m - split) if exhaustive else ()
        first_input, end_input = start // per, (stop - 1) // per + 1
        seeds = [] if exhaustive and m else [
            case.inputs[p // per][1] + (7919 * (p % per) + 13 if m else 0) for p in range(start, stop)
        ]
        inputs = np.arange(start, stop, 2**split) // per  # the input of each row before the splits
        first, last = (_row_label(sweep, case, per, exhaustive, p) for p in (start, stop - 1))
        run_label = first if stop - start == 1 else f"{first}..{last}"
        try:
            net, pairs = _run(case, stack[inputs], seeds, prefix, split)
        except CatnetError as exc:
            # a run that breaks a model rule fails its positions; the sweep goes on
            sweep.branches += stop - start
            sweep.fail(run_label, error=type(exc).__name__, message=str(exc))
            raised.update(range(first_input, end_input))
            start = stop
            continue
        rows = net.rows
        for section, rep in pairs:
            sweep.add(rep, section=section, label=run_label, rows=rows)
            for key, want in case.details.items():
                sweep.require(rep.details[key] == want, run_label, **{key: rep.details[key]})
        leftover = net.pending_outcomes
        sweep.require(rows == stop - start and not leftover, run_label, rows=rows, unconsumed_forced_bits=leftover)
        # 1 - <e|rho|e> on the logical qubits, per stored row: e is pure, so
        # the overlap is ||e^dagger A||^2 and no density matrix is formed
        block = qstate.bipartition(net.state, [net.global_index(a) for a in case.logical])
        infidelity = np.maximum(0.0, 1.0 - qstate.overlap(block, wants[inputs]))
        sweep.max_infidelity = max(sweep.max_infidelity, float(infidelity.max()))
        clean = [qstate.partial_state_check(net.state, net.global_index(a), 0) for a in case.zero]
        passed = functools.reduce(np.logical_and, clean, infidelity <= ATOL)
        # only rows with a failure are laid out one per row and pay for a label
        if np.count_nonzero(passed) < np.size(passed):
            per_row = net.state.per_row
            infidelity, clean = per_row(infidelity), [per_row(ok) for ok in clean]
            for r in np.flatnonzero(~per_row(passed)):
                label = _row_label(sweep, case, per, exhaustive, start + int(r))
                sweep.require(infidelity[r] <= ATOL, label, infidelity=float(infidelity[r]))
                for a, ok in zip(case.zero, clean):
                    sweep.require(bool(ok[r]), label, not_reset=str(a))
        if exhaustive and m:
            # a run holds part of one input's branches or whole inputs, in row order
            weights = net.state.per_row(net.branch_probability)
            total_p[first_input:end_input] += weights.reshape(end_input - first_input, -1).sum(axis=1)
        start = stop
        if start < count:
            # each split, input or sample doubles the rows, so at most doubles what the blocks hold
            room = math.floor(math.log2(CHUNK_AMPLITUDES / net.state.high_water))
            size = max(0, min(size + room, (start & -start).bit_length() - 1))
    if exhaustive and m:
        for i, ((label, _, _), p) in enumerate(zip(case.inputs, total_p.tolist())):
            if i not in raised and not abs(p - 1.0) <= PROB_TOL:  # NaN fails too
                sweep.fail(label, probability_sum=p)


def _verify(
    sweep: _Sweep, cases: Sequence[Case], branches: str, expect: dict, *, section: str = "", details: dict
) -> ProtocolReport:
    """Drive the cases into `sweep`, check each section's ledger fields (and
    rounds) against `expect`, and merge everything into one report whose
    ledger and rounds are those of `section`."""
    for case in cases:
        _drive(sweep, case, branches)
    for sec, fields in expect.items():
        first, label = sweep.sections.get(sec), sec or sweep.name  # a verifier's main section may be unnamed
        if first is None:
            sweep.fail(label, missing_section=sec)
            continue
        actual = {**first.ledger.as_dict(), "rounds": first.rounds}
        for key, want in fields.items():
            sweep.require(actual[key] == want, label, field=key, actual=actual[key], expected=want)
    # a section whose every run raised has no report: an empty ledger stands in
    first = sweep.sections.get(section) or ProtocolReport(sweep.name, ResourceLedger(), 0)
    return ProtocolReport(
        sweep.name, first.ledger, first.rounds, sweep.branches, sweep.ok, sweep.max_infidelity,
        {"failures": sweep.failures, **details}, sweep.messages,
    )


# ---- individual protocol verifiers -------------------------------------------

_PAIR = [("A", 1, 1), ("B", 1, 1)]
_WIDE_PAIR = [("A", 1, 2), ("B", 1, 2)]


def verify_nonlocal_cnot(*, seed: int = 0, branches: str = "exhaustive", samples: int = 40) -> ProtocolReport:
    """Criterion: CNOT across nodes matches the plain gate, costing (1, 2)."""
    inputs = _inputs(random.Random(seed), 2, 10, seed)
    chans = _channels(_PAIR)

    def run(net: Network) -> list:
        rep = nonlocal_cnot(net, _reg("A"), _reg("B"))
        reset_channel_qubits(net, [net.last_record(ch) for ch in chans])
        return [("", rep)]

    per_input = max(1, samples // len(inputs))
    case = Case(_PAIR, 2, inputs, run, [_reg("A"), _reg("B")], _apply(CNOT.matrix), per_input, zero=chans)
    expect = {"": {"ebits": 1, "cbits": 2, "qubits_transported": 0}}
    return _verify(_Sweep("nonlocal-cnot"), [case], branches, expect, details={"inputs": len(inputs)})


def verify_teleport(*, seed: int = 0, branches: str = "exhaustive", samples: int = 40) -> ProtocolReport:
    """Criterion: delivery fidelity 1, source freed, ping-pong reuses slots."""
    inputs = _inputs(random.Random(seed), 1, 10, seed)
    src, dst = _reg("A"), _reg("B")
    there, back = (_chan("A"), _chan("B")), (_chan("B"), _chan("A"))

    def one_way(net: Network) -> list:
        net.preshare_epr(*there)
        return [("", teleport_with_reset(net, src, there, dst))]

    # ping-pong: A -> B then B -> A over the channel slots freed by the resets
    def ping_pong(net: Network) -> list:
        one_way(net)
        net.preshare_epr(*back)
        return [("pong", teleport_with_reset(net, dst, back, src))]

    per_input, unchanged = max(1, samples // len(inputs)), _apply(np.eye(2))
    pong = [("ping-pong", seed + 101, inputs[0][2])]
    cases = [
        Case(_PAIR, 2, inputs, one_way, [dst], unchanged, per_input, inject=[src], zero=[src, *there]),
        Case(_PAIR, 4, pong, ping_pong, [src], unchanged, per_input, zero=[dst, *there]),
    ]
    details = {"inputs": len(inputs), "ping_pong_branches": 16}
    return _verify(_Sweep("teleport"), cases, branches, {"": {"ebits": 1, "cbits": 2}}, details=details)


def verify_cat_roundtrip(*, seed: int = 0, branches: str = "exhaustive", samples: int = 60) -> ProtocolReport:
    """Criterion: entangle then disentangle restores the control on any member."""
    rng = random.Random(seed)
    amps = qstate.random_vectors(1, 5, rng)
    cases, expect, unchanged = [], {}, _apply(np.eye(2))
    for size in (2, 3, 4):
        spec = [("N0", 1, 1)] + [(f"N{j}", 0, 1) for j in range(1, size)]
        members = [_reg("N0")] + [_chan(f"N{j}") for j in range(1, size)]
        per_case = max(1, samples // (len(amps) * size * 3))
        for keep in range(size):
            # entangle N0's register into a cat over every node, then shrink it onto member `keep`
            def run(net: Network, size=size, keep=keep) -> list:
                cat = [_chan(f"N{j}") for j in range(size)]
                net.preshare_cat(cat)
                scope = _Scope(net, False)
                group = cat_entangler(net, _reg("N0"), cat)
                cat_shrink(net, group.members, group.members[keep])
                return [(f"m{size}", scope.report("roundtrip", [], details={}))]

            inputs = [(f"m{size}:keep{keep}:input{i}", seed + i, a) for i, a in enumerate(amps)]
            cases.append(Case(spec, size, inputs, run, [members[keep]], unchanged, per_case, inject=[_reg("N0")]))
        expect[f"m{size}"] = {"ebits": size - 1, "cbits": 2 * (size - 1)}
    details = {"cat_sizes": [2, 3, 4]}
    return _verify(_Sweep("cat-roundtrip"), cases, branches, expect, section="m2", details=details)


def verify_ghz(*, seed: int = 0, branches: str = "exhaustive", samples: int = 64) -> ProtocolReport:
    """Criterion: the shared cat state grows with m-1 ebits; tree depth wins.

    The m = 8, 12 and 16 depth comparisons enumerate no outcomes: one RNG
    run per shape, checked against the cat state like every other run.
    """
    shapes = ("linear", "binary-tree")
    cases, expect = [], {}
    for shape, m in [(s, m) for s in shapes for m in (2, 3, 4, 5)] + [(s, m) for m in (8, 12, 16) for s in shapes]:
        spec = [(f"N{i}", 1, max(1, r)) for i, r in enumerate(em_channel_requirements(m, shape))]
        names = [node for node, _, _ in spec]
        section = f"{shape}:m{m}" if m < 8 else f"m{m}:{shape}"
        cat = np.zeros((1, 2**m), dtype=complex)  # the ideal's one row: the input is |0...0>
        cat[0, 0] = cat[0, -1] = 1 / np.sqrt(2)

        def run(net: Network, names=names, shape=shape, section=section) -> list:
            return [(section, distributed_em(net, names, shape))]

        inputs = [(section, seed + (m if m < 8 else 997), np.ones(1))]
        measurements = 2 * (m - 1) if m < 8 else 0
        regs = [_reg(n) for n in names]
        ideal, per_case = (lambda _, cat=cat: cat), max(1, samples // 8)
        cases.append(Case(spec, measurements, inputs, run, regs, ideal, per_case, inject=[], zero=_channels(spec)))
        rounds = m - 1 if shape == "linear" else int(np.ceil(np.log2(m)))
        expect[section] = {"ebits": m - 1, "qubits_transported": 0, "rounds": rounds}
    return _verify(_Sweep("ghz"), cases, branches, expect, section="linear:m2", details={"shapes": list(shapes)})


def verify_refresh(*, seed: int = 0, branches: str = "exhaustive", samples: int = 32) -> ProtocolReport:
    """Criterion: establish, use, reset, re-establish, use again."""
    inputs = _inputs(random.Random(seed), 2, 2, seed)
    a, b = _reg("A"), _reg("B")
    channels = _channels(_WIDE_PAIR)

    def run(net: Network) -> list:
        out = []
        for _cycle in range(2):
            # establishing needs all four channels in |0>, so it also checks
            # the previous cycle's reset
            pairs, est = establish_epr_exchange(net, "A", "B")
            out.append(("establish", est))
            out.append(("gate", nonlocal_cnot(net, a, b, epr=pairs[0])))
            out.append(("gate", nonlocal_cnot(net, a, b, epr=(pairs[1][1], pairs[1][0]))))
            reset_channel_qubits(net, [net.last_record(ch) for ch in channels])
        return out

    four_cnots = _apply(np.linalg.matrix_power(CNOT.matrix, 4))
    per_input = max(1, samples // len(inputs))
    case = Case(_WIDE_PAIR, 8, inputs, run, [a, b], four_cnots, per_input, zero=channels)
    expect = {"gate": {"ebits": 1, "cbits": 2, "qubits_transported": 0}}
    expect["establish"] = {"ebits": 0, "cbits": 0, "qubits_transported": 2}
    details = {"cycles": 2, "gates_per_cycle": 2}
    return _verify(_Sweep("refresh"), [case], branches, expect, section="gate", details=details)


def verify_distributed_swap(*, seed: int = 0, branches: str = "exhaustive", samples: int = 32) -> ProtocolReport:
    """Criterion: states exchanged over 16 branches at (2 ebits, 4 cbits)."""
    inputs = _inputs(random.Random(seed), 2, 5, seed)
    a, b = _reg("A"), _reg("B")
    case = Case(
        _WIDE_PAIR, 4, inputs, lambda net: [("", distributed_swap(net, a, b))], [a, b], _apply(SWAP.matrix),
        max(1, samples // len(inputs)), zero=_channels(_WIDE_PAIR), details={"register_buffers_used": 0},
    )
    expect = {"": {"ebits": 2, "cbits": 4, "qubits_transported": 0}}
    return _verify(_Sweep("distributed-swap"), [case], branches, expect, details={"inputs": len(inputs)})


def verify_multi_control(*, seed: int = 0, branches: str = "exhaustive", samples: int = 32) -> ProtocolReport:
    """Criterion: Toffoli with both controls remote costs (2, 4)."""
    inputs = _inputs(random.Random(seed), 3, 5, seed)
    spec = [("C1", 1, 1), ("C2", 1, 1), ("T", 3, 1)]
    c1, c2, t = _reg("C1"), _reg("C2"), _reg("T", 0)
    ancillas = [_reg("T", 1), _reg("T", 2)]
    case = Case(
        spec, 4, inputs, lambda net: [("", nonlocal_multi_control(net, [c1, c2], X, t))], [c1, c2, t],
        _apply(TOFFOLI.matrix), max(1, samples // len(inputs)), zero=[*ancillas, *_channels(spec)],
    )
    expect = {"": {"ebits": 2, "cbits": 4}}
    return _verify(_Sweep("multi-control"), [case], branches, expect, details={"inputs": len(inputs)})


def verify_decompose_c4x(*, seed: int = 0, branches: str = "exhaustive", samples: int = 268) -> ProtocolReport:
    """Criterion: 64-state equality with the direct 4-control X, both layouts.

    The monolithic layout measures nothing, so its 64 basis states are the
    rows of one run.
    """
    # qubit order everywhere: c1 c2 c3 c4 ancilla target
    c4x = _apply(_embed(C4X.matrix, 6, [0, 1, 2, 3, 5]))
    basis = np.eye(64)
    mono = [_reg("M", j) for j in range(6)]
    mono_inputs = [(f"monolithic:basis{b:06b}", seed, basis[b]) for b in range(64)]
    # the distributed layout takes the basis states and a few superposed inputs
    spec = [("TOP", 3, 1), ("BOT", 3, 1)]
    order = [_reg("TOP", 0), _reg("TOP", 1), _reg("BOT", 0), _reg("BOT", 1), _reg("TOP", 2), _reg("BOT", 2)]
    inputs = [(f"distributed:basis{b:06b}", seed + b, basis[b]) for b in range(64)]
    inputs += _inputs(random.Random(seed), 6, 3, seed + 1000, "distributed:random")

    def run(section: str, qubits: list[QubitAddress]) -> Callable[[Network], list]:
        return lambda net: [(section, decompose_multi_control_x(net, qubits[:4], *qubits[4:]))]

    per_input = max(1, samples // len(inputs))
    cases = [
        Case([("M", 6, 0)], 0, mono_inputs, run("monolithic", mono), mono, c4x),
        Case(spec, 2, inputs, run("distributed", order), order, c4x, per_input, zero=_channels(spec)),
    ]
    expect = {"monolithic": {"ebits": 0, "cbits": 0}, "distributed": {"ebits": 1, "cbits": 2}}
    details = {"basis_states": 64}
    return _verify(_Sweep("decompose-c4x"), cases, branches, expect, section="distributed", details=details)


def verify_amortized(*, seed: int = 0, branches: str = "exhaustive", samples: int = 48) -> ProtocolReport:
    """Criterion: a k-gate controlled run costs (1, 2) for k in {1, 2, 5, 10}."""
    rng = random.Random(seed)
    singles = [H, make_rk(2), X, Z]
    ctrl, b0, b1 = _reg("A"), _reg("B", 0), _reg("B", 1)
    index = {ctrl: 0, b0: 1, b1: 2}
    # every run is a prefix of one sequence; the independent route embeds
    # each controlled constituent explicitly, ideals[k] the first k
    sequence = [(CNOT, [b0, b1]) if j % 3 == 2 else (singles[j % 4], [b0 if j % 2 == 0 else b1]) for j in range(10)]
    ideals = [np.eye(8, dtype=complex)]
    for g, tg in sequence:
        embedded = _embed(make_controlled(ControlledSpec(1, g)).matrix, 3, [0] + [index[t] for t in tg])
        ideals.append(embedded @ ideals[-1])
    cases, expect, gate_counts = [], {}, (1, 2, 5, 10)
    for k in gate_counts:
        gates, ideal = sequence[:k], _apply(ideals[k])

        def run(net: Network, gates=gates, k=k) -> list:
            return [(f"k{k}", nonlocal_controlled_sequence(net, ctrl, gates))]

        inputs = _inputs(rng, 3, 3, seed + k * 31, f"k{k}:input")
        per_input = max(1, samples // (len(gate_counts) * len(inputs)))
        cases.append(Case([("A", 1, 1), ("B", 2, 1)], 2, inputs, run, [ctrl, b0, b1], ideal, per_input))
        expect[f"k{k}"] = {"ebits": 1, "cbits": 2}
    details = {"gate_counts": list(gate_counts)}
    return _verify(_Sweep("amortized"), cases, branches, expect, section="k10", details=details)


def verify_parallel_control(*, seed: int = 0, branches: str = "exhaustive", samples: int = 16) -> ProtocolReport:
    """Criterion: a three-part controlled gate runs its parts in one round."""
    rng = random.Random(seed)
    u1, u2, u3 = (_random_unitary(dim, rng) for dim in (4, 8, 4))
    inputs = _inputs(rng, 8, 3, seed)
    ctrl = _reg("C")
    t1 = [_reg("P1", j) for j in range(2)]
    t2 = [_reg("P2", j) for j in range(3)]
    t3 = [_reg("P3", j) for j in range(2)]
    parts = [(f"P{j + 1}", qstate.GateMatrix(u), t) for j, (u, t) in enumerate([(u1, t1), (u2, t2), (u3, t3)])]

    def controlled_ideal(stack: np.ndarray) -> np.ndarray:
        # [[I, 0], [0, U1 (x) U2 (x) U3]]: the parts act on the half where the control reads 1
        on = np.einsum("ai,bj,ck,rijk->rabc", u1, u2, u3, stack[:, 128:].reshape(-1, 4, 8, 4))
        return np.concatenate([stack[:, :128], on.reshape(-1, 128)], axis=1)

    case = Case(
        [("C", 1, 1), ("P1", 2, 1), ("P2", 3, 1), ("P3", 2, 1)], 4, inputs,
        lambda net: [("", parallel_distributed_control(net, ctrl, parts))],
        [ctrl, *t1, *t2, *t3], controlled_ideal, max(1, samples // len(inputs)), details={"controlled_rounds": 1},
    )
    expect = {"": {"ebits": 3, "cbits": 6}}
    return _verify(_Sweep("parallel-control"), [case], branches, expect, details={"parts": 3, "split": [2, 3, 2]})


def _require_input_fits(n: int) -> None:
    """Refuse an n-qubit transform whose input would hold more than
    CHUNK_AMPLITUDES amplitudes (n > 20), before any input is drawn."""
    if n > CHUNK_AMPLITUDES.bit_length() - 1:
        raise ValueError(f"a {n}-qubit transform's input of 2^{n} amplitudes exceeds {CHUNK_AMPLITUDES}; use a smaller --n")


def verify_qft(
    *, n: int = 4, m: int = 2, seed: int = 0, branches: str = "exhaustive", samples: int = 200,
    amortized: bool = False,
) -> ProtocolReport:
    """Criterion: the distributed transform matches the defining matrix.

    Checks the plan's gate, distribution and swap counts against closed
    forms, sweeps branches (exhaustively or by seeded sampling), and pins
    the rotation-stage ledger to the non-local gate count (or to the
    distribution count in amortized mode). Rows are labelled by their
    outcome bits, branch000001000101 say.
    """
    _require_input_fits(n)
    plan = build_qft_plan(n, m)
    sweep = _Sweep("qft")
    k = n // m
    counts = [
        ("counts:total", plan.total_controlled, n * (n - 1) // 2),
        ("counts:local", plan.local_controlled, m * k * (k - 1) // 2),
        ("counts:nonlocal", plan.nonlocal_controlled, n * (n - 1) // 2 - (k - 1) * n // 2),
        ("counts:amortized", plan.amortized_distributions, n * (m - 1) // 2),
        ("counts:cross_swaps", plan.cross_swaps, n // 2 - (m % 2) * (k // 2)),
    ]
    for label, actual, want in counts:
        sweep.require(actual == want, label, actual=actual)
    amps = qstate.random_vector(n, random.Random(seed))
    ebits = plan.amortized_distributions if amortized else plan.nonlocal_controlled
    num_bits = 2 * ebits + 4 * plan.cross_swaps
    spec = [(f"M{i}", k, 2) for i in range(m)]
    regs = [_reg(f"M{i // k}", i % k) for i in range(n)]

    def run(net: Network) -> list:
        return [("", qft_distributed(net, plan, amortized=amortized))]

    inputs = [("branch-probabilities", seed, amps)]
    case = Case(spec, num_bits, inputs, run, regs, _transform, samples, zero=_channels(spec))
    expect = {"": {"ebits": ebits, "cbits": 2 * ebits, "qubits_transported": 0}}
    details = {"plan": plan.to_dict(), "amortized": amortized, "measurements_per_branch": num_bits}
    return _verify(sweep, [case], branches, expect, details=details)


# ---- registry -------------------------------------------------------------------


VERIFIERS = {
    "nonlocal-cnot": verify_nonlocal_cnot,
    "teleport": verify_teleport,
    "cat-roundtrip": verify_cat_roundtrip,
    "ghz": verify_ghz,
    "refresh": verify_refresh,
    "distributed-swap": verify_distributed_swap,
    "multi-control": verify_multi_control,
    "decompose-c4x": verify_decompose_c4x,
    "amortized": verify_amortized,
    "parallel-control": verify_parallel_control,
    "qft": verify_qft,
}


def verify_protocol(name: str, **kwargs: Any) -> ProtocolReport:
    try:
        fn = VERIFIERS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {', '.join(sorted(VERIFIERS))}"
        ) from None
    return fn(**kwargs)


def verify_all(
    *,
    seed: int = 0,
    branches: str = "exhaustive",
    samples: int | None = None,
    n: int = 4,
    m: int = 2,
    amortized: bool = False,
) -> list[ProtocolReport]:
    """Run every verifier; n, m and amortized go to the qft sweep only.

    `samples`, when given, sets every verifier's sample count; by default
    each keeps its own.
    """
    _require_input_fits(n)
    common: dict[str, Any] = {"seed": seed, "branches": branches}
    if samples is not None:
        common["samples"] = samples
    qft_options = {"n": n, "m": m, "amortized": amortized}
    return [
        fn(**common, **(qft_options if name == "qft" else {})) for name, fn in VERIFIERS.items()
    ]
