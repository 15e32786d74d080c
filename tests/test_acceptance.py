"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run with plain pytest; the verdict lines bypass capture so they always show:

    pytest tests/test_acceptance.py -v
"""

import subprocess
import sys
import time
from contextlib import contextmanager

from catnet.gates import X, ControlledSpec, make_controlled
from catnet.network import Network
from catnet.primitives import cat_entangler, cat_shrink
from catnet.protocols import parallel_distributed_control
from catnet.qft import build_qft_plan
from catnet.verify import verify_protocol

TOL = 1e-10


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        _verdict(capsys, num, label, "FAIL")
        raise
    _verdict(capsys, num, label, "PASS")


def _verdict(capsys, num, label, verdict):
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] criterion {num:02d} {label}: {verdict}")


def test_criterion_01_nonlocal_cnot(capsys):
    with criterion(capsys, 1, "nonlocal-cnot-equivalence"):
        t0 = time.perf_counter()
        rep = verify_protocol("nonlocal-cnot", seed=0, branches="exhaustive")
        elapsed = time.perf_counter() - t0
        assert rep.verified
        assert rep.max_infidelity <= TOL
        led = rep.ledger.as_dict()
        assert (led["ebits"], led["cbits"]) == (1, 2)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_teleport(capsys):
    with criterion(capsys, 2, "teleport-ping-pong"):
        t0 = time.perf_counter()
        rep = verify_protocol("teleport", seed=0, branches="exhaustive")
        elapsed = time.perf_counter() - t0
        assert rep.verified
        assert rep.max_infidelity <= TOL
        led = rep.ledger.as_dict()
        assert (led["ebits"], led["cbits"]) == (1, 2)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_03_cat_roundtrip(capsys):
    with criterion(capsys, 3, "cat-roundtrip-any-member"):
        rep = verify_protocol("cat-roundtrip", seed=0, branches="exhaustive")
        assert rep.verified
        assert rep.max_infidelity <= TOL


def test_criterion_04_ghz(capsys):
    with criterion(capsys, 4, "ghz-growth-and-depth"):
        rep = verify_protocol("ghz", seed=0, branches="exhaustive")
        assert rep.verified
        assert rep.max_infidelity <= TOL


def test_criterion_05_refresh(capsys):
    with criterion(capsys, 5, "channel-refresh-cycle"):
        rep = verify_protocol("refresh", seed=0, branches="exhaustive")
        assert rep.verified
        assert rep.max_infidelity <= TOL


def test_criterion_06_distributed_swap(capsys):
    with criterion(capsys, 6, "distributed-swap"):
        rep = verify_protocol("distributed-swap", seed=0, branches="exhaustive")
        assert rep.verified
        assert rep.branches_tested == 80  # 16 branches x 5 inputs
        led = rep.ledger.as_dict()
        assert (led["ebits"], led["cbits"]) == (2, 4)


def test_criterion_07_c4x_decomposition(capsys):
    with criterion(capsys, 7, "multi-control-x-decomposition"):
        rep = verify_protocol("decompose-c4x", seed=0, branches="exhaustive")
        assert rep.verified
        assert rep.max_infidelity <= TOL


def test_criterion_08_amortization(capsys):
    with criterion(capsys, 8, "amortized-control-sequences"):
        rep = verify_protocol("amortized", seed=0, branches="exhaustive")
        assert rep.verified
        led = rep.ledger.as_dict()
        assert (led["ebits"], led["cbits"]) == (1, 2)


def _controlled_section_rounds():
    """Measured comparison: identical three-part controlled work, batched
    into one round by the protocol versus applied one part per round."""
    spec = [("C", 1, 1), ("P1", 1, 1), ("P2", 1, 1), ("P3", 1, 1)]

    net = Network(spec, seed=0)
    before = net.ledger.rounds
    parallel_distributed_control(
        net,
        net.reg("C"),
        [(f"P{i}", X, [net.reg(f"P{i}")]) for i in (1, 2, 3)],
    )
    parallel_total = net.ledger.rounds - before

    net = Network(spec, seed=0)
    cat = [net.chan("C")] + [net.chan(f"P{i}") for i in (1, 2, 3)]
    net.preshare_cat(cat)
    before = net.ledger.rounds
    group = cat_entangler(net, net.reg("C"), cat)
    cx = make_controlled(ControlledSpec(1, X))
    for member, i in zip(group.members[1:], (1, 2, 3)):
        net.local_apply(cx, [member, net.reg(f"P{i}")])
    cat_shrink(net, group.members, net.reg("C"))
    sequential_total = net.ledger.rounds - before
    return parallel_total, sequential_total


def test_criterion_09_parallel_control(capsys):
    with criterion(capsys, 9, "parallel-control-one-round"):
        rep = verify_protocol("parallel-control", seed=0, branches="exhaustive")
        assert rep.verified
        assert rep.max_infidelity <= TOL
        parallel_total, sequential_total = _controlled_section_rounds()
        # same surrounding protocol, so the whole-run difference is exactly
        # the controlled section: 1 round batched vs 3 one-per-part
        assert sequential_total - parallel_total == 2


def test_criterion_10_distributed_qft(capsys):
    with criterion(capsys, 10, "distributed-qft"):
        plan = build_qft_plan(4, 2)
        assert plan.total_controlled == 6
        assert plan.local_controlled == 2
        assert plan.nonlocal_controlled == 4

        rep = verify_protocol("qft", n=4, m=2, seed=0, branches="exhaustive")
        assert rep.verified
        assert rep.branches_tested == 2**16
        assert rep.max_infidelity <= TOL

        for n, m in ((6, 2), (6, 3)):
            t0 = time.perf_counter()
            rep = verify_protocol("qft", n=n, m=m, seed=0, branches="sampled", samples=200)
            elapsed = time.perf_counter() - t0
            assert rep.verified
            assert rep.branches_tested >= 200
            assert rep.max_infidelity <= TOL
            assert elapsed < 60.0, f"qft n={n} m={m} took {elapsed:.1f}s"


CLI_COMMANDS = [
    ["verify", "nonlocal-cnot"],
    ["verify", "teleport"],
    ["verify", "cat-roundtrip"],
    ["verify", "ghz"],
    ["verify", "refresh"],
    ["verify", "distributed-swap"],
    ["verify", "decompose-c4x"],
    ["verify", "amortized"],
    ["verify", "parallel-control"],
    ["verify", "qft", "--n", "4", "--m", "2"],
    ["verify", "qft", "--n", "6", "--m", "2"],
    ["verify", "qft", "--n", "6", "--m", "3"],
]


def test_criterion_11_cli_determinism(capsys):
    with criterion(capsys, 11, "cli-determinism"):
        for command in CLI_COMMANDS:
            argv = [sys.executable, "-m", "catnet.cli", *command, "--seed", "0"]
            first = subprocess.run(argv, capture_output=True, timeout=300)
            second = subprocess.run(argv, capture_output=True, timeout=300)
            assert first.returncode == 0, (command, first.stderr.decode())
            assert second.returncode == 0, (command, second.stderr.decode())
            assert first.stdout == second.stdout, command
