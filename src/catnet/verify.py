"""Branch-enumeration verification harness.

Each verifier builds fresh networks, drives one protocol through every
forced measurement branch (or a seeded sample of branches), and folds the
runs into a single ProtocolReport. The transform sweep carries many
branches per run as rows of a split state (see Network.split_outcomes); the
others run one branch per network. The report covers worst-case
infidelity, resource-count constancy across branches, branch probabilities
summing to one, and protocol-specific postconditions (channel hygiene,
restored ancillas).

Where the protocols check themselves against reduced-density-matrix
oracles, the verifiers add a second, independently computed route: ideal
gate matrices are embedded into the full space by explicit basis-index
arithmetic (no shared code with the simulator's gate application) and the
results compared.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from . import qstate
from .gates import CNOT, H, SWAP, TOFFOLI, X, Z, ControlledSpec, make_controlled, make_rk
from .network import CHANNEL, Network, QubitAddress, ResourceLedger
from .primitives import cat_entangler, cat_shrink
from .protocols import (
    C4X,
    ProtocolReport,
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
from .qft import _qft_gate, build_qft_plan, qft_distributed

PROB_TOL = 1e-9


# ---- shared machinery ----------------------------------------------------


def _branches(num_bits: int, mode: str, samples: int, seed: int):
    """Yield (forced bit tuple | None, run seed) pairs for one sweep."""
    if mode == "exhaustive":
        for value in range(2**num_bits):
            yield tuple((value >> (num_bits - 1 - i)) & 1 for i in range(num_bits)), seed
    elif mode == "sampled":
        for i in range(samples):
            yield None, seed + 7919 * i + 13
    else:
        raise ValueError(f"branches must be 'exhaustive' or 'sampled', got {mode!r}")


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _embed(matrix: np.ndarray, n: int, targets: Sequence[int]) -> np.ndarray:
    """Expand a gate to n qubits by explicit basis-index arithmetic.

    Deliberately shares no code with the simulator's gate application so
    the two can vouch for each other.
    """
    dim = 2**n
    arity = len(targets)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub = 0
        for t in targets:
            sub = (sub << 1) | ((col >> (n - 1 - t)) & 1)
        for sub_out in range(2**arity):
            amp = matrix[sub_out, sub]
            if amp == 0:
                continue
            row = col
            for j, t in enumerate(targets):
                bit = (sub_out >> (arity - 1 - j)) & 1
                row = (row & ~(1 << (n - 1 - t))) | (bit << (n - 1 - t))
            out[row, col] += amp
    return out


def _marginal_infidelity(net: Network, addrs: Sequence[QubitAddress], expected: np.ndarray) -> float:
    """1 - <expected| rho |expected> on the reduced state of the addresses."""
    rho = qstate.reduced_density_matrix(net.state, [net.global_index(a) for a in addrs])
    overlap = float(np.real(expected.conj() @ rho @ expected))
    return max(0.0, 1.0 - overlap)


class _Sweep:
    """Aggregates per-branch runs into one merged report."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.branches = 0
        self.max_infidelity = 0.0
        self.ok = True
        self.failures: list[dict[str, Any]] = []
        self.sections: dict[str, dict[str, Any]] = {}
        self.messages: list = []

    def fail(self, label: str, **info: Any) -> None:
        self.ok = False
        if len(self.failures) < 8:
            self.failures.append({"case": label, **info})

    def observe(self, infidelity: float, label: str) -> None:
        infidelity = float(infidelity)
        self.max_infidelity = max(self.max_infidelity, infidelity)
        if infidelity > ATOL:
            self.fail(label, infidelity=infidelity)

    def require(self, condition: bool, label: str, **info: Any) -> None:
        if not condition:
            self.fail(label, **info)

    def add(
        self, report: ProtocolReport, *, section: str = "", label: str = "", rows: int = 1
    ) -> None:
        """Fold in one run, which carried `rows` branches.

        The merged message log is the first single-branch run's; a run over
        many rows has per-row message bits.
        """
        self.branches += rows
        if report.max_infidelity is not None:
            self.max_infidelity = max(self.max_infidelity, report.max_infidelity)
        if report.verified is False:
            self.fail(label, infidelity=report.max_infidelity, ledger=report.ledger.as_dict())
        led = report.ledger.as_dict()
        sec = self.sections.get(section)
        if sec is None:
            self.sections[section] = {"ledger": led, "rounds": report.rounds}
            if not self.messages and rows == 1:
                self.messages = list(report.messages)
        elif sec["ledger"] != led or sec["rounds"] != report.rounds:
            self.fail(label, ledger=led, first_seen=sec["ledger"])

    def expect(self, section: str, label: str = "", *, rounds: int | None = None, **fields: int) -> None:
        sec = self.sections.get(section)
        if sec is None:
            self.fail(label or section, missing_section=section)
            return
        for key, val in fields.items():
            if sec["ledger"].get(key) != val:
                self.fail(label or section, field=key, actual=sec["ledger"].get(key), expected=val)
        if rounds is not None and sec["rounds"] != rounds:
            self.fail(label or section, field="rounds", actual=sec["rounds"], expected=rounds)

    def check_probability(self, total: float, label: str) -> None:
        if abs(total - 1.0) > PROB_TOL:
            self.fail(label, probability_sum=total)

    def result(self, *, section: str | None = None, details: dict | None = None) -> ProtocolReport:
        if section is not None and section in self.sections:
            first = self.sections[section]
        else:
            first = next(
                iter(self.sections.values()),
                {"ledger": ResourceLedger().as_dict(), "rounds": 0},
            )
        led = first["ledger"]
        return ProtocolReport(
            name=self.name,
            ledger=ResourceLedger(
                led["ebits"], led["cbits"], led["qubits_transported"], led["rounds"]
            ),
            rounds=first["rounds"],
            branches_tested=self.branches,
            verified=self.ok,
            max_infidelity=self.max_infidelity,
            details={"failures": self.failures, **(details or {})},
            messages=self.messages,
        )


def _check_zero(net: Network, sweep: _Sweep, addrs: Iterable[QubitAddress], label: str) -> None:
    for a in addrs:
        if not net.qubit_is(a, 0):
            sweep.fail(label, not_reset=str(a))


def _check_drained(net: Network, sweep: _Sweep, label: str) -> None:
    if net.pending_outcomes:
        sweep.fail(label, unconsumed_forced_bits=net.pending_outcomes)


# ---- individual protocol verifiers -------------------------------------------


def verify_nonlocal_cnot(*, seed: int = 0, branches: str = "exhaustive", samples: int = 40) -> ProtocolReport:
    """Criterion: CNOT across nodes matches the plain gate, costing (1, 2)."""
    rng = np.random.default_rng(seed)
    inputs = [qstate.random_state(2, rng).amplitudes for _ in range(10)]
    cnot_mat = CNOT.matrix
    sweep = _Sweep("nonlocal-cnot")
    per_input = max(1, samples // len(inputs))
    for i, amps in enumerate(inputs):
        total_p = 0.0
        exhaustive = branches == "exhaustive"
        for bits, run_seed in _branches(2, branches, per_input, seed + i):
            net = Network([("A", 1, 1), ("B", 1, 1)], seed=run_seed)
            ctrl, tgt = net.reg("A"), net.reg("B")
            net.inject_state([ctrl, tgt], amps)
            if bits is not None:
                net.force_outcomes(bits)
            label = f"input{i}:branch{bits}"
            rep = nonlocal_cnot(net, ctrl, tgt, auto_establish=True)
            sweep.add(rep, label=label)
            sweep.observe(_marginal_infidelity(net, [ctrl, tgt], cnot_mat @ amps), label)
            total_p += net.branch_probability
            reset_channel_qubits(
                net, [net.last_record(net.chan("A")), net.last_record(net.chan("B"))]
            )
            _check_zero(net, sweep, [net.chan("A"), net.chan("B")], label)
            _check_drained(net, sweep, label)
        if exhaustive:
            sweep.check_probability(total_p, f"input{i}")
    sweep.expect("", ebits=1, cbits=2, qubits_transported=0)
    return sweep.result(details={"inputs": len(inputs)})


def verify_teleport(*, seed: int = 0, branches: str = "exhaustive", samples: int = 40) -> ProtocolReport:
    """Criterion: delivery fidelity 1, source freed, ping-pong reuses slots."""
    rng = np.random.default_rng(seed)
    inputs = [qstate.random_state(1, rng).amplitudes for _ in range(10)]
    sweep = _Sweep("teleport")
    per_input = max(1, samples // len(inputs))
    for i, amps in enumerate(inputs):
        total_p = 0.0
        for bits, run_seed in _branches(2, branches, per_input, seed + i):
            net = Network([("A", 1, 1), ("B", 1, 1)], seed=run_seed)
            src, dst = net.reg("A"), net.reg("B")
            net.inject_state([src], amps)
            net.preshare_epr(net.chan("A"), net.chan("B"))
            if bits is not None:
                net.force_outcomes(bits)
            label = f"input{i}:branch{bits}"
            rep = teleport_with_reset(net, src, (net.chan("A"), net.chan("B")), dst)
            sweep.add(rep, label=label)
            sweep.observe(_marginal_infidelity(net, [dst], amps), label)
            _check_zero(net, sweep, [src, net.chan("A"), net.chan("B")], label)
            total_p += net.branch_probability
            _check_drained(net, sweep, label)
        if branches == "exhaustive":
            sweep.check_probability(total_p, f"input{i}")
    sweep.expect("", ebits=1, cbits=2)

    # ping-pong: A -> B then B -> A over the channel slots freed by the resets
    pong = inputs[0]
    total_p = 0.0
    for bits, run_seed in _branches(4, branches, per_input, seed + 101):
        net = Network([("A", 1, 1), ("B", 1, 1)], seed=run_seed)
        src, dst = net.reg("A"), net.reg("B")
        net.inject_state([src], pong)
        if bits is not None:
            net.force_outcomes(bits)
        label = f"ping-pong:branch{bits}"
        net.preshare_epr(net.chan("A"), net.chan("B"))
        teleport_with_reset(net, src, (net.chan("A"), net.chan("B")), dst)
        net.preshare_epr(net.chan("B"), net.chan("A"))
        rep = teleport_with_reset(net, dst, (net.chan("B"), net.chan("A")), src)
        sweep.add(rep, section="pong", label=label)
        sweep.observe(_marginal_infidelity(net, [src], pong), label)
        _check_zero(net, sweep, [dst, net.chan("A"), net.chan("B")], label)
        total_p += net.branch_probability
    if branches == "exhaustive":
        sweep.check_probability(total_p, "ping-pong")
    return sweep.result(section="", details={"inputs": len(inputs), "ping_pong_branches": 16})


def verify_cat_roundtrip(*, seed: int = 0, branches: str = "exhaustive", samples: int = 60) -> ProtocolReport:
    """Criterion: entangle then disentangle restores the control on any member."""
    rng = np.random.default_rng(seed)
    inputs = [qstate.random_state(1, rng).amplitudes for _ in range(5)]
    sweep = _Sweep("cat-roundtrip")
    for size in (2, 3, 4):
        spec = [("N0", 1, 1)] + [(f"N{j}", 0, 1) for j in range(1, size)]
        per_case = max(1, samples // (len(inputs) * size * 3))
        for keep_idx in range(size):
            for i, amps in enumerate(inputs):
                total_p = 0.0
                for bits, run_seed in _branches(size, branches, per_case, seed + i):
                    net = Network(spec, seed=run_seed)
                    control = net.reg("N0")
                    cat = [net.chan(f"N{j}") for j in range(size)]
                    net.inject_state([control], amps)
                    net.preshare_cat(cat)
                    if bits is not None:
                        net.force_outcomes(bits)
                    label = f"m{size}:keep{keep_idx}:input{i}:branch{bits}"
                    snap = net.ledger.snapshot()
                    group = cat_entangler(net, control, cat)
                    keep = group.members[keep_idx]
                    cat_shrink(net, group.members, keep)
                    delta = net.ledger.delta_since(snap)
                    sweep.add(
                        ProtocolReport("roundtrip", delta, delta.rounds),
                        section=f"m{size}",
                        label=label,
                    )
                    sweep.observe(_marginal_infidelity(net, [keep], amps), label)
                    total_p += net.branch_probability
                    _check_drained(net, sweep, label)
                if branches == "exhaustive":
                    sweep.check_probability(total_p, f"m{size}:keep{keep_idx}:input{i}")
        sweep.expect(f"m{size}", ebits=size - 1, cbits=2 * (size - 1))
    return sweep.result(section="m2", details={"cat_sizes": [2, 3, 4]})


def verify_ghz(*, seed: int = 0, branches: str = "exhaustive", samples: int = 64) -> ProtocolReport:
    """Criterion: the shared cat state grows with m-1 ebits; tree depth wins."""
    sweep = _Sweep("ghz")
    for shape, expected_rounds in (("linear", lambda m: m - 1), ("binary-tree", lambda m: int(np.ceil(np.log2(m))))):
        for m in (2, 3, 4, 5):
            req = em_channel_requirements(m, shape)
            spec = [(f"N{i}", 1, max(1, req[i])) for i in range(m)]
            names = [s[0] for s in spec]
            num_meas = 2 * (m - 1)
            per_case = max(1, samples // 8)
            total_p = 0.0
            section = f"{shape}:m{m}"
            for bits, run_seed in _branches(num_meas, branches, per_case, seed + m):
                net = Network(spec, seed=run_seed)
                if bits is not None:
                    net.force_outcomes(bits)
                label = f"{section}:branch{bits}"
                rep = distributed_em(net, names, shape)
                sweep.add(rep, section=section, label=label)
                regs = [net.reg(n) for n in names]
                cat = np.zeros(2**m, dtype=complex)
                cat[0] = cat[-1] = 1 / np.sqrt(2)
                sweep.observe(_marginal_infidelity(net, regs, cat), label)
                _check_zero(net, sweep, net.addresses(pool=CHANNEL), label)
                total_p += net.branch_probability
                _check_drained(net, sweep, label)
            if branches == "exhaustive":
                sweep.check_probability(total_p, section)
            sweep.expect(section, ebits=m - 1, qubits_transported=0, rounds=expected_rounds(m))

    # m=8 depth comparison: one sampled branch per shape. The expected full
    # state has exactly two nonzero amplitudes (all registers 0 / all 1,
    # channels reset), so the overlap needs only two entries of the vector.
    for shape, want_rounds in (("linear", 7), ("binary-tree", 3)):
        req = em_channel_requirements(8, shape)
        spec = [(f"N{i}", 1, max(1, req[i])) for i in range(8)]
        names = [s[0] for s in spec]
        net = Network(spec, seed=seed + 997)
        rep = distributed_em(net, names, shape, check=False)
        label = f"m8:{shape}"
        sweep.add(rep, section=label, label=label)
        sweep.expect(label, ebits=7, rounds=want_rounds)
        total = net.state.num_qubits
        ones = sum(1 << (total - 1 - net.global_index(net.reg(n))) for n in names)
        overlap = (net.state.amplitudes[0] + net.state.amplitudes[ones]) / np.sqrt(2)
        sweep.observe(max(0.0, 1.0 - abs(overlap) ** 2), label)
        _check_zero(net, sweep, net.addresses(pool=CHANNEL), label)
    return sweep.result(section="linear:m2", details={"shapes": ["linear", "binary-tree"]})


def verify_refresh(*, seed: int = 0, branches: str = "exhaustive", samples: int = 32) -> ProtocolReport:
    """Criterion: establish, use, reset, re-establish, use again."""
    rng = np.random.default_rng(seed)
    inputs = [qstate.random_state(2, rng).amplitudes for _ in range(2)]
    cnot_mat = CNOT.matrix
    sweep = _Sweep("refresh")
    per_input = max(1, samples // len(inputs))
    for i, amps in enumerate(inputs):
        total_p = 0.0
        for bits, run_seed in _branches(8, branches, per_input, seed + i):
            net = Network([("A", 1, 2), ("B", 1, 2)], seed=run_seed)
            a, b = net.reg("A"), net.reg("B")
            channels = [net.chan("A", 0), net.chan("A", 1), net.chan("B", 0), net.chan("B", 1)]
            net.inject_state([a, b], amps)
            if bits is not None:
                net.force_outcomes(bits)
            label = f"input{i}:branch{bits}"
            expected = amps
            for cycle in range(2):
                pairs, est = establish_epr_exchange(net, "A", "B")
                sweep.add(est, section="establish", label=f"{label}:cycle{cycle}")
                rep1 = nonlocal_cnot(net, a, b, epr=pairs[0])
                sweep.add(rep1, section="gate", label=f"{label}:cycle{cycle}:gate0")
                rep2 = nonlocal_cnot(net, a, b, epr=(pairs[1][1], pairs[1][0]))
                sweep.add(rep2, section="gate", label=f"{label}:cycle{cycle}:gate1")
                expected = cnot_mat @ (cnot_mat @ expected)
                reset_channel_qubits(net, [net.last_record(ch) for ch in channels])
                _check_zero(net, sweep, channels, f"{label}:cycle{cycle}")
            sweep.observe(_marginal_infidelity(net, [a, b], expected), label)
            total_p += net.branch_probability
            _check_drained(net, sweep, label)
        if branches == "exhaustive":
            sweep.check_probability(total_p, f"input{i}")
    sweep.expect("gate", ebits=1, cbits=2, qubits_transported=0)
    sweep.expect("establish", ebits=0, cbits=0, qubits_transported=2)
    return sweep.result(section="gate", details={"cycles": 2, "gates_per_cycle": 2})


def verify_distributed_swap(*, seed: int = 0, branches: str = "exhaustive", samples: int = 32) -> ProtocolReport:
    """Criterion: states exchanged over 16 branches at (2 ebits, 4 cbits)."""
    rng = np.random.default_rng(seed)
    inputs = [qstate.random_state(2, rng).amplitudes for _ in range(5)]
    swap_mat = SWAP.matrix
    sweep = _Sweep("distributed-swap")
    per_input = max(1, samples // len(inputs))
    for i, amps in enumerate(inputs):
        total_p = 0.0
        for bits, run_seed in _branches(4, branches, per_input, seed + i):
            net = Network([("A", 1, 2), ("B", 1, 2)], seed=run_seed)
            a, b = net.reg("A"), net.reg("B")
            net.inject_state([a, b], amps)
            if bits is not None:
                net.force_outcomes(bits)
            label = f"input{i}:branch{bits}"
            rep = distributed_swap(net, a, b)
            sweep.add(rep, label=label)
            sweep.require(
                rep.details["register_buffers_used"] == 0,
                label,
                register_buffers=rep.details["register_buffers_used"],
            )
            sweep.observe(_marginal_infidelity(net, [a, b], swap_mat @ amps), label)
            _check_zero(net, sweep, net.addresses(pool=CHANNEL), label)
            total_p += net.branch_probability
            _check_drained(net, sweep, label)
        if branches == "exhaustive":
            sweep.check_probability(total_p, f"input{i}")
    sweep.expect("", ebits=2, cbits=4, qubits_transported=0)
    return sweep.result(details={"inputs": len(inputs)})


def verify_multi_control(*, seed: int = 0, branches: str = "exhaustive", samples: int = 32) -> ProtocolReport:
    """Criterion: Toffoli with both controls remote costs (2, 4)."""
    rng = np.random.default_rng(seed)
    inputs = [qstate.random_state(3, rng).amplitudes for _ in range(5)]
    toffoli_full = TOFFOLI.matrix
    sweep = _Sweep("multi-control")
    per_input = max(1, samples // len(inputs))
    for i, amps in enumerate(inputs):
        total_p = 0.0
        for bits, run_seed in _branches(4, branches, per_input, seed + i):
            net = Network([("C1", 1, 1), ("C2", 1, 1), ("T", 3, 1)], seed=run_seed)
            c1, c2, t = net.reg("C1"), net.reg("C2"), net.reg("T", 0)
            ancillas = [net.reg("T", 1), net.reg("T", 2)]
            net.inject_state([c1, c2, t], amps)
            if bits is not None:
                net.force_outcomes(bits)
            label = f"input{i}:branch{bits}"
            rep = nonlocal_multi_control(net, [c1, c2], X, t)
            sweep.add(rep, label=label)
            sweep.observe(_marginal_infidelity(net, [c1, c2, t], toffoli_full @ amps), label)
            _check_zero(net, sweep, ancillas, label)
            _check_zero(net, sweep, net.addresses(pool=CHANNEL), label)
            total_p += net.branch_probability
            _check_drained(net, sweep, label)
        if branches == "exhaustive":
            sweep.check_probability(total_p, f"input{i}")
    sweep.expect("", ebits=2, cbits=4)
    return sweep.result(details={"inputs": len(inputs)})


def verify_decompose_c4x(*, seed: int = 0, branches: str = "exhaustive", samples: int = 16) -> ProtocolReport:
    """Criterion: 64-state equality with the direct 4-control X, both layouts."""
    sweep = _Sweep("decompose-c4x")
    # qubit order everywhere: c1 c2 c3 c4 ancilla target
    def expected_index(basis: int) -> int:
        controls_on = (basis >> 2) == 0b1111
        return basis ^ 1 if controls_on else basis

    for basis in range(64):
        net = Network([("M", 6, 0)])
        qubits = [net.reg("M", j) for j in range(6)]
        vec = np.zeros(64)
        vec[basis] = 1.0
        net.inject_state(qubits, vec)
        label = f"monolithic:basis{basis:06b}"
        rep = decompose_multi_control_x(net, qubits[:4], qubits[4], qubits[5])
        sweep.add(rep, section="monolithic", label=label)
        want = np.zeros(64)
        want[expected_index(basis)] = 1.0
        sweep.observe(_marginal_infidelity(net, qubits, want), label)
    sweep.expect("monolithic", ebits=0, cbits=0)

    per_case = max(1, samples // 4)
    for basis in range(64):
        total_p = 0.0
        for bits, run_seed in _branches(2, branches, per_case, seed + basis):
            net = Network([("TOP", 3, 1), ("BOT", 3, 1)], seed=run_seed)
            c1, c2, anc = net.reg("TOP", 0), net.reg("TOP", 1), net.reg("TOP", 2)
            c3, c4, tgt = net.reg("BOT", 0), net.reg("BOT", 1), net.reg("BOT", 2)
            order = [c1, c2, c3, c4, anc, tgt]
            vec = np.zeros(64)
            vec[basis] = 1.0
            net.inject_state(order, vec)
            if bits is not None:
                net.force_outcomes(bits)
            label = f"distributed:basis{basis:06b}:branch{bits}"
            rep = decompose_multi_control_x(net, [c1, c2, c3, c4], anc, tgt)
            sweep.add(rep, section="distributed", label=label)
            want = np.zeros(64)
            want[expected_index(basis)] = 1.0
            sweep.observe(_marginal_infidelity(net, order, want), label)
            _check_zero(net, sweep, net.addresses(pool=CHANNEL), label)
            total_p += net.branch_probability
            _check_drained(net, sweep, label)
        if branches == "exhaustive":
            sweep.check_probability(total_p, f"distributed:basis{basis}")
    sweep.expect("distributed", ebits=1, cbits=2)

    # a few superposed inputs through the distributed layout
    rng = np.random.default_rng(seed)
    c4x_i = _embed(C4X.matrix, 6, [0, 1, 2, 3, 5])
    for i in range(3):
        amps = qstate.random_state(6, rng).amplitudes
        for bits, run_seed in _branches(2, branches, per_case, seed + 1000 + i):
            net = Network([("TOP", 3, 1), ("BOT", 3, 1)], seed=run_seed)
            c1, c2, anc = net.reg("TOP", 0), net.reg("TOP", 1), net.reg("TOP", 2)
            c3, c4, tgt = net.reg("BOT", 0), net.reg("BOT", 1), net.reg("BOT", 2)
            order = [c1, c2, c3, c4, anc, tgt]
            net.inject_state(order, amps)
            if bits is not None:
                net.force_outcomes(bits)
            label = f"distributed:random{i}:branch{bits}"
            rep = decompose_multi_control_x(net, [c1, c2, c3, c4], anc, tgt)
            sweep.add(rep, section="distributed", label=label)
            sweep.observe(_marginal_infidelity(net, order, c4x_i @ amps), label)
    return sweep.result(section="distributed", details={"basis_states": 64})


def verify_amortized(*, seed: int = 0, branches: str = "exhaustive", samples: int = 16) -> ProtocolReport:
    """Criterion: a k-gate controlled run costs (1, 2) for k in {1, 2, 5, 10}."""
    rng = np.random.default_rng(seed)
    singles = [H, make_rk(2), X, Z]
    sweep = _Sweep("amortized")
    per_case = max(1, samples // 4)
    for k in (1, 2, 5, 10):
        for i in range(3):
            amps = qstate.random_state(3, rng).amplitudes
            total_p = 0.0
            for bits, run_seed in _branches(2, branches, per_case, seed + k * 31 + i):
                net = Network([("A", 1, 1), ("B", 2, 1)], seed=run_seed)
                ctrl = net.reg("A")
                b0, b1 = net.reg("B", 0), net.reg("B", 1)
                gates = []
                for j in range(k):
                    if j % 3 == 2:
                        gates.append((CNOT, [b0, b1]))
                    else:
                        gates.append((singles[j % len(singles)], [b0 if j % 2 == 0 else b1]))
                net.inject_state([ctrl, b0, b1], amps)
                if bits is not None:
                    net.force_outcomes(bits)
                label = f"k{k}:input{i}:branch{bits}"
                rep = nonlocal_controlled_sequence(net, ctrl, gates, auto_establish=True)
                sweep.add(rep, section=f"k{k}", label=label)
                # independent route: embed each controlled constituent explicitly
                ideal = np.eye(8, dtype=complex)
                index = {ctrl: 0, b0: 1, b1: 2}
                for g, tg in gates:
                    cg = make_controlled(ControlledSpec(1, g))
                    ideal = _embed(cg.matrix, 3, [0] + [index[t] for t in tg]) @ ideal
                sweep.observe(_marginal_infidelity(net, [ctrl, b0, b1], ideal @ amps), label)
                total_p += net.branch_probability
                _check_drained(net, sweep, label)
            if branches == "exhaustive":
                sweep.check_probability(total_p, f"k{k}:input{i}")
        sweep.expect(f"k{k}", ebits=1, cbits=2)
    return sweep.result(section="k10", details={"gate_counts": [1, 2, 5, 10]})


def verify_parallel_control(*, seed: int = 0, branches: str = "exhaustive", samples: int = 16) -> ProtocolReport:
    """Criterion: a three-part controlled gate runs its parts in one round."""
    rng = np.random.default_rng(seed)
    u1 = _random_unitary(4, rng)
    u2 = _random_unitary(8, rng)
    u3 = _random_unitary(4, rng)
    sweep = _Sweep("parallel-control")
    per_case = max(1, samples // 3)
    for i in range(3):
        amps = qstate.random_state(8, rng).amplitudes
        total_p = 0.0
        for bits, run_seed in _branches(4, branches, per_case, seed + i):
            net = Network(
                [("C", 1, 1), ("P1", 2, 1), ("P2", 3, 1), ("P3", 2, 1)], seed=run_seed
            )
            ctrl = net.reg("C")
            t1 = [net.reg("P1", j) for j in range(2)]
            t2 = [net.reg("P2", j) for j in range(3)]
            t3 = [net.reg("P3", j) for j in range(2)]
            logical = [ctrl, *t1, *t2, *t3]
            net.inject_state(logical, amps)
            if bits is not None:
                net.force_outcomes(bits)
            label = f"input{i}:branch{bits}"
            rep = parallel_distributed_control(
                net,
                ctrl,
                [
                    ("P1", qstate.GateMatrix(u1), t1),
                    ("P2", qstate.GateMatrix(u2), t2),
                    ("P3", qstate.GateMatrix(u3), t3),
                ],
                auto_establish=True,
            )
            sweep.add(rep, label=label)
            sweep.require(rep.details["controlled_rounds"] == 1, label, rounds=rep.details)
            on = np.zeros((2, 2))
            on[1, 1] = 1.0
            off = np.eye(2) - on
            joint = np.kron(np.kron(u1, u2), u3)
            controlled_ideal = np.kron(off, np.eye(128)) + np.kron(on, joint)
            sweep.observe(_marginal_infidelity(net, logical, controlled_ideal @ amps), label)
            total_p += net.branch_probability
            _check_drained(net, sweep, label)
        if branches == "exhaustive":
            sweep.check_probability(total_p, f"input{i}")
    sweep.expect("", ebits=3, cbits=6)
    return sweep.result(details={"parts": 3, "split": [2, 3, 2]})


# ---- distributed QFT -----------------------------------------------------------


# The most amplitudes, over all branch rows, that one exhaustive-sweep run
# holds: 64 rows of the 256-amplitude network of the 4-qubit, 2-machine
# transform. Wider networks split fewer measurements per run.
QFT_CHUNK_AMPLITUDES = 2**14


def _qft_run(
    plan,
    amortized: bool,
    amps: np.ndarray,
    run_seed: int,
    prefix: Sequence[int] = (),
    split: int = 0,
) -> tuple[Network, ProtocolReport]:
    """One distributed-transform run: force `prefix`, split the next `split`
    measurements into branch rows, and draw any others from the RNG."""
    spec = [(f"M{i}", plan.k, 2) for i in range(plan.m)]
    net = Network(spec, seed=run_seed)
    regs = [net.reg(f"M{i // plan.k}", i % plan.k) for i in range(plan.n)]
    net.inject_state(regs, amps)
    net.force_outcomes(prefix)
    net.split_outcomes(split)
    rep = qft_distributed(net, plan, amortized=amortized, check=False)
    return net, rep


def verify_qft(
    *,
    n: int = 4,
    m: int = 2,
    seed: int = 0,
    branches: str = "exhaustive",
    samples: int = 200,
    amortized: bool = False,
) -> ProtocolReport:
    """Criterion: the distributed transform matches the defining matrix.

    Checks the closed-form gate counts, sweeps branches (exhaustively or by
    seeded sampling), and pins the rotation-stage ledger to the non-local
    gate count (or to the distribution count in amortized mode).

    The exhaustive sweep carries many branches per run: each run forces a
    prefix of the outcomes and splits the remaining measurements into
    branch rows, as many as fit in QFT_CHUNK_AMPLITUDES, so runs and rows
    together visit the branches in order. Every row is checked on its own
    against the defining matrix applied to the input, for clean channels,
    and for its probability.
    """
    plan = build_qft_plan(n, m)
    sweep = _Sweep("qft")
    k = n // m
    sweep.require(
        plan.total_controlled == n * (n - 1) // 2,
        "counts:total",
        actual=plan.total_controlled,
    )
    sweep.require(
        plan.local_controlled == m * k * (k - 1) // 2,
        "counts:local",
        actual=plan.local_controlled,
    )
    sweep.require(
        plan.nonlocal_controlled == n * (n - 1) // 2 - (k - 1) * n // 2,
        "counts:nonlocal",
        actual=plan.nonlocal_controlled,
    )
    rng = np.random.default_rng(seed)
    amps = qstate.random_state(n, rng).amplitudes
    num_bits = (
        2 * (plan.amortized_distributions if amortized else plan.nonlocal_controlled)
        + 4 * plan.cross_swaps
    )
    expected_ebits = plan.amortized_distributions if amortized else plan.nonlocal_controlled

    # independent of the protocol: the defining matrix applied to the input
    ideal = Network([(f"M{i}", plan.k, 2) for i in range(m)])
    regs = [ideal.reg(f"M{i // plan.k}", i % plan.k) for i in range(n)]
    ideal.inject_state(regs, amps)
    expected = qstate.apply_gate(
        ideal.state, _qft_gate(n), [ideal.global_index(a) for a in regs]
    ).amplitudes

    if branches == "exhaustive":
        budget = QFT_CHUNK_AMPLITUDES.bit_length() - 1
        split = min(num_bits, max(0, budget - ideal.num_qubits))
        prefix_bits = num_bits - split
        runs = [
            (tuple((c >> (prefix_bits - 1 - i)) & 1 for i in range(prefix_bits)), seed)
            for c in range(2**prefix_bits)
        ]
    elif branches == "sampled":
        split = 0
        runs = [((), seed + 7919 * i + 13) for i in range(samples)]
    else:
        raise ValueError(f"branches must be 'exhaustive' or 'sampled', got {branches!r}")

    total_p = 0.0
    for c, (prefix, run_seed) in enumerate(runs):
        net, rep = _qft_run(plan, amortized, amps, run_seed, prefix, split)
        rows = net.rows
        if branches == "exhaustive":
            labels = [f"branch{(c << split) + r:0{num_bits}b}" for r in range(rows)]
            run_label = f"{labels[0]}..{labels[-1]}"
        else:
            run_label = f"sample{c}"
            labels = [run_label]
        sweep.add(rep, label=run_label, rows=rows)
        sweep.require(rows == 2**split, run_label, rows=rows, expected_rows=2**split)
        sweep.require(not net.pending_outcomes, run_label, leftover_bits=net.pending_outcomes)
        state = net.state.amplitudes.reshape(rows, -1)
        infidelity = [max(0.0, 1.0 - abs(np.vdot(row, expected))) for row in state]
        clean = np.ones(rows, dtype=bool)
        for a in net.addresses(pool=CHANNEL):
            clean &= qstate.partial_state_check(net.state, net.global_index(a), 0)
        for r in range(rows):
            sweep.observe(infidelity[r], labels[r])
            sweep.require(bool(clean[r]), labels[r], channels_clean=False)
        total_p += float(np.sum(net.branch_probability))
    if branches == "exhaustive":
        sweep.check_probability(total_p, "branch-probabilities")

    sweep.expect("", ebits=expected_ebits, cbits=2 * expected_ebits, qubits_transported=0)
    details = {
        "plan": plan.to_dict(),
        "amortized": amortized,
        "measurements_per_branch": num_bits,
    }
    return sweep.result(details=details)


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
    common: dict[str, Any] = {"seed": seed, "branches": branches}
    if samples is not None:
        common["samples"] = samples
    qft_options = {"n": n, "m": m, "amortized": amortized}
    return [
        fn(**common, **(qft_options if name == "qft" else {})) for name, fn in VERIFIERS.items()
    ]
