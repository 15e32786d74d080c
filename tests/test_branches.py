"""The branch axis: one run carrying many measurement branches as rows.

Every batched run here is checked against the same protocol run once per
branch with all outcomes forced, which is the path the rows replace.
"""

import json
import tracemalloc

import numpy as np
import pytest

from catnet import qstate, verify
from catnet.cli import emit_report
from catnet.errors import BranchDivergenceError, ImpossibleBranchError
from catnet.gates import CNOT, H, X
from catnet.network import CHANNEL, REGISTER, Network, QubitAddress
from catnet.primitives import _require_fresh_cat, cat_entangler
from catnet.protocols import (
    _claim,
    distributed_swap,
    nonlocal_cnot,
    reset_channel_qubits,
    teleport_with_reset,
)
from catnet.qft import build_qft_plan, qft_distributed
from reference import random_state

TOL = 1e-12


def assert_row_matches(batched, single, r):
    """Row r of a batched run equals a per-branch run: state, probability, records."""
    at_row = batched.state.per_row
    assert single.rows == 1
    assert np.max(np.abs(batched.state.amplitudes[r] - single.state.amplitudes)) < TOL
    assert abs(at_row(batched.branch_probability)[r] - single.branch_probability) < TOL
    assert len(batched.records) == len(single.records)
    for rb, rs in zip(batched.records, single.records):
        assert rb.address == rs.address
        assert at_row(rb.outcome)[r] == rs.outcome
        assert abs(at_row(rb.probability)[r] - rs.probability) < TOL


def branch_bits(prefix, split, r):
    return [*prefix, *((r >> (split - 1 - i)) & 1 for i in range(split))]


def run_qft(prefix, split, amps):
    plan = build_qft_plan(4, 2)
    net = Network([("M0", 2, 2), ("M1", 2, 2)], seed=0)
    net.inject_state([net.reg("M0", 0), net.reg("M0", 1), net.reg("M1", 0), net.reg("M1", 1)], amps)
    net.force_outcomes(prefix)
    net.split_outcomes(split)
    rep = qft_distributed(net, plan, amortized=True, check=True)
    return net, rep


def test_batched_qft_rows_match_forced_branches():
    amps = random_state(4, np.random.default_rng(5)).amplitudes
    prefix = (1, 0, 0, 1, 0, 1)
    batched, rep = run_qft(prefix, 6, amps)
    assert batched.rows == 64 and batched.state.amplitudes.shape == (64, 256)
    assert rep.verified and rep.max_infidelity < 1e-10
    for r in (0, 5, 22, 41, 63):
        single, single_rep = run_qft(branch_bits(prefix, 6, r), 0, amps)
        assert_row_matches(batched, single, r)
        assert single_rep.ledger == rep.ledger and single_rep.rounds == rep.rounds


def _cnot(net):
    net.inject_state([net.reg("A"), net.reg("B")], [0.1, 0.7j, 0.5, -0.5])
    return nonlocal_cnot(net, net.reg("A"), net.reg("B"), check=True)


def _teleport(net):
    net.inject_state([net.reg("A")], [0.6, 0.8j])
    net.preshare_epr(net.chan("A"), net.chan("B"))
    return teleport_with_reset(net, net.reg("A"), (net.chan("A"), net.chan("B")), net.reg("B"), check=True)


def _swap(net):
    net.inject_state([net.reg("A"), net.reg("B")], [0.1, 0.7j, 0.5, -0.5])
    return distributed_swap(net, net.reg("A"), net.reg("B"), check=True)


@pytest.mark.parametrize(
    "protocol,spec,measurements",
    [
        (_cnot, [("A", 1, 1), ("B", 1, 1)], 2),
        (_teleport, [("A", 1, 1), ("B", 1, 1)], 2),
        (_swap, [("A", 1, 2), ("B", 1, 2)], 4),
    ],
)
def test_split_protocols_match_forced_branches(protocol, spec, measurements):
    """Every measurement split: each row is one branch, the oracle checks
    every row, and resets and free-qubit lookups see one answer on all rows."""
    batched = Network(spec, seed=0)
    batched.split_outcomes(measurements)
    rep = protocol(batched)
    assert batched.rows == 2**measurements
    assert rep.verified and rep.max_infidelity < 1e-10
    assert abs(np.sum(batched.state.per_row(batched.branch_probability)) - 1.0) < 1e-12
    for r in range(batched.rows):
        single = Network(spec, seed=0)
        single.force_outcomes(branch_bits((), measurements, r))
        single_rep = protocol(single)
        assert_row_matches(batched, single, r)
        assert single_rep.ledger == rep.ledger


def split_plus(spec=(("A", 2, 1), ("B", 1, 1))):
    """A network whose register A[0] was |+> and is now split-measured:
    row 0 holds |0> there, row 1 holds |1>."""
    net = Network(list(spec), seed=0)
    net.local_apply(H, [net.reg("A")])
    net.split_outcomes(1)
    rec = net.measure(net.reg("A"))
    assert net.rows == 2
    assert np.array_equal(net.state.per_row(rec.outcome), [0, 1])
    assert np.allclose(net.state.per_row(rec.probability), [0.5, 0.5])
    return net, rec


def test_probes_answer_once_for_all_rows():
    net, rec = split_plus()
    assert net.qubit_is(net.reg("A", 1), 0) is True
    assert net.qubit_is(net.reg("A"), rec.outcome) is True
    assert _claim(net, "B", CHANNEL, 1, ()) == [net.chan("B")]
    # an excluded qubit is skipped before it is probed
    assert _claim(net, "A", REGISTER, 1, [net.reg("A")]) == [net.reg("A", 1)]


def test_divergent_probe_raises():
    net, rec = split_plus()
    with pytest.raises(BranchDivergenceError):
        net.qubit_is(net.reg("A"), 0)
    with pytest.raises(BranchDivergenceError):
        _claim(net, "A", REGISTER, 1, ())


def test_divergent_cat_check_raises():
    net, _ = split_plus()
    net.preshare_epr(net.chan("A"), net.chan("B"))
    _require_fresh_cat(net, [net.chan("A"), net.chan("B")])
    # on row 1 only, the pair picks up a flip: the cat is fresh on one row alone
    net.local_apply(CNOT, [net.reg("A"), net.chan("A")])
    with pytest.raises(BranchDivergenceError):
        cat_entangler(net, net.reg("A", 1), [net.chan("A"), net.chan("B")])


def test_divergent_reset_precondition_raises():
    net, rec = split_plus()
    net.local_apply(X, [net.reg("A", 1)])
    net.force_outcomes([1])
    flip = net.measure(net.reg("A", 1))  # reads 1 on every row
    # rec XOR flip is 1 on row 0 only, so A[0] leaves its recorded |0> there alone
    net.classically_controlled_apply([rec, flip], X, net.reg("A"))
    with pytest.raises(BranchDivergenceError):
        reset_channel_qubits(net, [rec])


def test_controlled_apply_fires_per_row():
    net, rec = split_plus()
    fired = net.classically_controlled_apply(rec, X, net.reg("A", 1))
    assert np.array_equal(net.state.per_row(fired), [False, True])
    assert net.qubit_is(net.reg("A", 1), rec.outcome)
    reset_channel_qubits(net, [rec])
    assert net.qubit_is(net.reg("A"), 0)


def test_later_splits_repeat_earlier_bits():
    net, first = split_plus()
    net.local_apply(H, [net.reg("A", 1)])
    net.split_outcomes(1)
    second = net.measure(net.reg("A", 1))
    assert net.rows == 4
    assert np.array_equal(net.state.per_row(first.outcome), [0, 0, 1, 1])
    assert np.array_equal(net.state.per_row(second.outcome), [0, 1, 0, 1])
    assert np.allclose(net.branch_probability, 0.25)


def test_forced_queue_comes_before_the_split():
    net = Network([("A", 2, 0)], seed=0)
    net.local_apply(H, [net.reg("A", 0)])
    net.local_apply(H, [net.reg("A", 1)])
    net.force_outcomes([1])
    net.split_outcomes(1)
    assert net.measure(net.reg("A", 0)).outcome == 1
    assert net.rows == 1
    assert np.array_equal(net.state.per_row(net.measure(net.reg("A", 1)).outcome), [0, 1])
    assert net.pending_outcomes == 0


def test_impossible_split_branch_raises():
    net = Network([("A", 1, 0)])
    net.split_outcomes(1)
    with pytest.raises(ImpossibleBranchError):
        net.measure(net.reg("A"))
    assert net.rows == 1


def test_unsplit_surface_is_one_row():
    """An unsplit network has the shape of a split one: per-row values of
    one entry. Its dense amplitudes stay one vector, and a probe collapses
    to a bool."""
    net = Network([("A", 1, 1), ("B", 1, 1)], seed=3)
    rep = nonlocal_cnot(net, net.reg("A"), net.reg("B"))
    assert net.state.amplitudes.shape == (16,)
    values = [net.branch_probability, *(v for r in net.records for v in (r.outcome, r.probability))]
    values += [m.bit for m in rep.messages]
    assert all(type(v) is np.ndarray and v.size == 1 for v in values)
    assert type(net.qubit_is(net.reg("B"), 0)) is bool
    assert [m["bit"] for m in rep.as_dict()["message_log"]] == [int(m.bit[0]) for m in rep.messages]


def verifier_tables():
    """Every case of every verifier's table, as the verifiers hand them over."""
    tables = {}
    mp = pytest.MonkeyPatch()
    mp.setattr(verify, "_verify", lambda sweep, cases, *args, **kwargs: tables.setdefault(sweep.name, cases))
    try:
        for fn in verify.VERIFIERS.values():
            fn(seed=0)
    finally:
        mp.undo()
    return tables


# cases that enumerate no outcomes make one unsplit run, so there is nothing to cross-check
SPLIT_CASES = [
    pytest.param(case, id=f"{name}:{case.inputs[-1][0]}")
    for name, cases in verifier_tables().items()
    for case in cases
    if case.measurements
]


def case_amps(amps):
    """A case input's amplitudes as a run injects them: [1] for none."""
    return np.ones(1) if amps is None else amps


def assert_rows_match_forced_runs(case, batched, pairs, singles):
    """Each row r of a sweep run equals the single-input run singles[r]
    with every outcome forced: state, probability, records, ledger."""
    for r, (amps, bits, seed) in singles.items():
        single, single_pairs = verify._run(case, case_amps(amps), [seed], bits, 0)
        assert_row_matches(batched, single, r)
        assert single.ledger == batched.ledger
        assert [(s, p.ledger, p.rounds) for s, p in single_pairs] == [(s, p.ledger, p.rounds) for s, p in pairs]


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_every_case_splits_like_forced_branches(case):
    """Runs as the sweep makes them, against single forced-branch runs of
    sampled rows: one input split on a fixed prefix, then (for cases of
    several inputs) a stack of three inputs carried as rows, every
    measurement split, so input i's branch b is row i * 2^M + b."""
    m = case.measurements
    _, seed, amps = case.inputs[-1]
    split = min(verify._split(case, 2**m * len(case.inputs)), m)
    prefix = tuple(i % 2 for i in range(m - split))
    batched, pairs = verify._run(case, case_amps(amps), [], prefix, split)
    assert split > 0 and batched.rows == 2**split and batched.pending_outcomes == 0
    rows = sorted({0, 1, batched.rows // 2, batched.rows - 1})
    assert_rows_match_forced_runs(case, batched, pairs, {r: (amps, branch_bits(prefix, split, r), seed) for r in rows})
    stack = case.inputs[-3:]
    if len(stack) > 1:
        batched, pairs = verify._run(case, np.stack([a for _, _, a in stack]), [], (), m)
        assert batched.rows == len(stack) * 2**m and batched.pending_outcomes == 0
        rows = [i * 2**m + b for i in range(len(stack)) for b in sorted({0, 1, 2**m - 1})]
        singles = {r: (stack[r >> m][2], branch_bits((), m, r % 2**m), stack[r >> m][1]) for r in rows}
        assert_rows_match_forced_runs(case, batched, pairs, singles)


def record_runs(monkeypatch, edit=lambda case, net, prefix, seeds: None):
    """Make verify._run log (rows, most amplitudes held at once) of every run, after `edit`."""
    runs = []
    run = verify._run

    def recording(case, amps, seeds, prefix, split):
        net, pairs = run(case, amps, seeds, prefix, split)
        edit(case, net, prefix, seeds)
        runs.append((net.rows, net.state.high_water))
        return net, pairs

    monkeypatch.setattr(verify, "_run", recording)
    return runs


def test_sweep_runs_stay_within_the_chunk_budget(monkeypatch):
    runs = record_runs(monkeypatch)
    rep = verify.verify_qft(n=4, m=2, amortized=True, branches="exhaustive")
    assert rep.verified and rep.branches_tested == 4096
    # the first run splits the 12 measurements that fit with all 8 qubits
    # live, which is every one: the whole sweep is one run
    assert runs == [(4096, 2**16)]
    runs.clear()
    rep = verify.verify_qft(n=4, m=2, branches="exhaustive")
    assert rep.verified and rep.branches_tested == 2**16
    # the first run splits the 12 of 16 measurements that fit with all 8
    # qubits live; measured qubits leave the block and the swaps that follow
    # each teleport leave the vacated channel qubits fixed, so a run of 16
    # amplitudes a row leaves room for 2^16 rows, but each run starts at a
    # multiple of its own size, so the rest double from 4096 to the end
    assert runs == [(4096, 2**16), (4096, 2**16), (8192, 2**17), (16384, 2**18), (32768, 2**19)]
    runs.clear()
    rep = verify.verify_qft(n=2, m=2, branches="exhaustive")
    assert rep.verified and rep.branches_tested == 2 ** rep.details["measurements_per_branch"]
    assert max(size for _, size in runs) <= verify.CHUNK_AMPLITUDES
    small = 0
    for name, fn in verify.VERIFIERS.items():
        if name != "qft":
            runs.clear()
            rep = fn(seed=0, branches="exhaustive")
            assert rep.verified, name
            # only the unsplit runs of cases that enumerate nothing (ghz m=8, 12, 16) may be wider
            assert all(size <= verify.CHUNK_AMPLITUDES or rows == 1 for rows, size in runs), name
            assert len(runs) < rep.branches_tested, name  # not one network per branch
            small += len(runs) if name != "ghz" else 0
            # inputs ride the rows: the 64 + 67 inputs of decompose-c4x take a few runs, not 131
            assert name != "decompose-c4x" or len(runs) <= 8
    assert small == 22  # the nine small verifiers, 230 runs with one run per input


def test_sweep_memory_stays_within_the_chunk_budget(monkeypatch):
    """The 65,536-branch sweep allocates at most twice the budget's bytes at
    once, and no run's blocks ever hold more than the budget."""
    runs = record_runs(monkeypatch)
    tracemalloc.start()
    try:
        rep = verify.verify_qft(n=4, m=2, branches="exhaustive")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.verified and rep.branches_tested == 2**16
    assert peak <= 2 * 16 * verify.CHUNK_AMPLITUDES
    assert all(size <= verify.CHUNK_AMPLITUDES for _, size in runs)


def test_corrected_branches_are_stored_once(monkeypatch):
    """Every correction of the amortized 4/2 transform makes its branches'
    rows bitwise equal, so each run stores about one unsplit network (256
    amplitudes) while it stands for 4,096 rows, and its logical high_water
    (a row of each block per row) stays what runs are sized by."""
    peaks = []
    runs = record_runs(monkeypatch, lambda case, net, prefix, seeds: peaks.append(net.state.stored_peak))
    rep = verify.verify_qft(n=4, m=2, amortized=True, branches="exhaustive")
    assert rep.verified and runs == [(4096, 2**16)]
    assert peaks[0] <= 2**8
    runs.clear()
    peaks.clear()
    rep = verify.verify_qft(n=4, m=2, branches="exhaustive")
    assert rep.verified and [rows for rows, _ in runs] == [4096, 4096, 8192, 16384, 32768]
    assert max(peaks) <= 2**8


def test_dropped_correction_fails_its_row_alone(monkeypatch):
    """A correction dropped on one branch row keeps that row apart from the
    rows it would have matched, and the sweep reports exactly its label."""
    apply, dropped = qstate.apply_gate, []

    def dropping(state, gate, targets, rows=None):
        # the first masked gate once all 12 measurements are split (12 branch axes and the input axis)
        if rows is not None and len(state.grid) == 13 and not dropped:
            fire = np.flatnonzero(state.per_row(rows))
            dropped.append(int(fire[len(fire) // 2]))
            keep = np.ones(state.rows, dtype=bool)
            keep[dropped[0]] = False
            rows = rows & keep.reshape(state.grid[::-1]).T
            apply(state, gate, targets, rows)
            dropped.append(max(b.rows for b in state.blocks))
            return
        apply(state, gate, targets, rows)

    monkeypatch.setattr(qstate, "apply_gate", dropping)
    rep = verify.verify_qft(n=4, m=2, amortized=True, branches="exhaustive")
    row, stored = dropped
    assert stored == 4096  # no axis along which the dropped row's block halves agree
    assert rep.verified is False
    assert [f["case"] for f in rep.details["failures"]] == [f"branch{row:012b}"]


def test_ghz_sweep_compares_depths_up_to_sixteen_nodes(monkeypatch):
    """After the enumerated sections, one unsplit run per shape at m = 8, 12 and 16."""
    runs = []
    record_runs(monkeypatch, lambda case, net, prefix, seeds: runs.append((len(net.nodes), net.rows)))
    rep = verify.verify_ghz(seed=0, branches="exhaustive")
    assert rep.verified and rep.branches_tested == 682 + 4
    assert runs[-6:] == [(8, 1), (8, 1), (12, 1), (12, 1), (16, 1), (16, 1)]


def roll_row(net, addr, r):
    """Roll row r's amplitudes in the block of the qubit at `addr`, after
    giving that block a stored row per row of the state."""
    state = net.state
    block = next(b for b in state.blocks if net.global_index(addr) in b.qubits)
    block.amps = np.broadcast_to(block.amps, state.grid + block.amps.shape[-1:]).copy()
    at = np.unravel_index(r, state.grid[::-1])[::-1]
    block.amps[at] = np.roll(block.amps[at], 1)


def test_sweep_reports_failing_rows_by_branch(monkeypatch):
    """A wrong row is reported under the label the per-branch sweep used."""

    def corrupting(case, net, prefix, seeds):
        # the row of the amortized qft sweep's 12 measurements that holds
        # position (1 << 6) + 5, in whichever run holds it
        if case.measurements == 12:
            start = int("".join(map(str, prefix)), 2) << (12 - len(prefix)) if prefix else 0
            r = (1 << 6) + 5 - start
            if 0 <= r < net.rows:
                roll_row(net, case.logical[0], r)
        # distributed-swap's exhaustive sweep is one run of its five inputs
        # as 5 x 16 rows: row 3 * 16 + 5 is input3's branch 0101
        if net.rows == 5 * 16 and not prefix:
            roll_row(net, case.logical[0], 3 * 16 + 5)
        # the row of sample 5 of distributed-swap's input3 in a sampled
        # sweep, found by the seed of its generator
        if 3 + 7919 * 5 + 13 in seeds:
            roll_row(net, case.logical[0], seeds.index(3 + 7919 * 5 + 13))

    record_runs(monkeypatch, corrupting)
    rep = verify.verify_qft(n=4, m=2, amortized=True, branches="exhaustive")
    assert rep.verified is False
    cases = {f["case"] for f in rep.details["failures"]}
    assert f"branch{(1 << 6) + 5:012b}" in cases
    rep = verify.verify_distributed_swap(seed=0, branches="exhaustive")
    assert rep.verified is False
    assert {f["case"] for f in rep.details["failures"]} == {"input3:branch(0, 1, 0, 1)"}
    rep = verify.verify_distributed_swap(seed=0, branches="sampled")
    assert rep.verified is False
    assert {f["case"] for f in rep.details["failures"]} == {"input3:sample5"}


def test_probability_failure_names_its_input_only(monkeypatch):
    """Probabilities are summed per input, so a run of several inputs
    reports a wrong sum under the one input whose rows carry it."""

    def inflating(case, net, prefix, seeds):
        # the inputs are the last row axis: double input3's probabilities
        if net.rows == 5 * 16:
            net.branch_probability = net.branch_probability * np.where(np.arange(5) == 3, 2, 1)

    record_runs(monkeypatch, inflating)
    rep = verify.verify_distributed_swap(seed=0, branches="exhaustive")
    assert rep.verified is False
    (failure,) = rep.details["failures"]
    assert failure["case"] == "input3" and abs(failure["probability_sum"] - 2.0) < 1e-9


def test_run_of_several_inputs_must_not_draw():
    """An exhaustive run enumerates every outcome its case declares and
    has no generator to draw any other, so a protocol that measures more
    than its case declares is a labelled failure of the run; here a case
    declares one measurement and makes two. A sampled sweep draws both,
    each row from its own generator, and passes."""

    def run(net):
        net.local_apply(H, [net.reg("A", 1)])
        net.measure(net.reg("A", 1))
        net.measure(net.reg("A", 1))
        return []

    inputs = [("input0", 0, np.array([1.0, 0.0])), ("input1", 1, np.array([0.0, 1.0]))]
    case = verify.Case([("A", 2, 0)], 1, inputs, run, [QubitAddress("A", REGISTER, 0)], verify._apply(np.eye(2)))
    sweep = verify._Sweep("draws")
    verify._drive(sweep, case, "exhaustive")
    (failure,) = sweep.failures
    assert failure["case"] == "input0:branch(0,)..input1:branch(1,)"
    assert failure["error"] == "UnforcedOutcomeError"
    assert sweep.branches == 4 and not sweep.ok
    sweep = verify._Sweep("draws")
    verify._drive(sweep, case, "sampled")
    assert sweep.ok


def test_sampled_rows_are_their_own_one_row_runs(monkeypatch):
    """Each row of a sampled sweep equals the one-row run of its sample,
    seeded seed_i + 7919 c + 13: amplitudes, probability, outcomes,
    message bits and label. Checked on nonlocal-cnot (10 inputs of 4
    samples in one run) and the ghz sections of m <= 5, whose one input
    is |0...0> (8 rows stored once)."""
    runs, run = [], verify._run

    def recording(case, amps, seeds, prefix, split):
        net, pairs = run(case, amps, seeds, prefix, split)
        runs.append((case, net, pairs, seeds))
        return net, pairs

    monkeypatch.setattr(verify, "_run", recording)
    for name in ("nonlocal-cnot", "ghz"):
        runs.clear()
        sweep_rep = verify.VERIFIERS[name](seed=3, branches="sampled")
        assert sweep_rep.verified
        sweep = verify._Sweep(name)
        for case, net, pairs, seeds in [r for r in runs if r[0].measurements]:
            per = case.samples
            assert net.rows == len(seeds) == per * len(case.inputs) > 1
            for r, seed in enumerate(seeds):
                label, base, amps = case.inputs[r // per]
                assert seed == base + 7919 * (r % per) + 13
                single = Network(case.spec, seed=seed)
                single.inject_state(case.logical if case.inject is None else case.inject, amps)
                single_pairs = case.run(single)
                assert_row_matches(net, single, r)
                for (_, rep), (_, one) in zip(pairs, single_pairs, strict=True):
                    bits = [net.state.per_row(m.bit)[r] for m in rep.messages]
                    assert bits == [m.bit.item() for m in one.messages]
                assert verify._row_label(sweep, case, per, False, r) == f"{label}:sample{r % per}"


def test_message_log_is_row_zero_of_the_first_run():
    rep = verify.verify_qft(n=4, m=2, amortized=True, branches="exhaustive")
    single = Network([("M0", 2, 2), ("M1", 2, 2)], seed=0)
    single.force_outcomes([0] * 12)
    zero_branch = qft_distributed(single, build_qft_plan(4, 2), amortized=True)
    log = rep.as_dict()["message_log"]
    assert log and all(type(m["bit"]) is int for m in log)
    assert log == zero_branch.as_dict()["message_log"]
    assert json.loads(emit_report([rep]))[0]["message_log"] == log


def test_channels_checked_per_row():
    net, rec = split_plus()
    clean = qstate.partial_state_check(net.state, net.global_index(net.chan("A")), 0)
    assert np.array_equal(net.state.per_row(clean), [True, True])
    net.classically_controlled_apply(rec, X, net.chan("A"))
    clean = qstate.partial_state_check(net.state, net.global_index(net.chan("A")), 0)
    assert np.array_equal(net.state.per_row(clean), [True, False])
    assert net.addresses(pool=CHANNEL) == [net.chan("A"), net.chan("B")]
