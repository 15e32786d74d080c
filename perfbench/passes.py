"""One benchmark pass of one workload, in a fresh interpreter.

run.py starts this script once per pass, so every pass begins with an empty
plan cache and has its own peak RSS and set-up time:

    python3 perfbench/passes.py '{"root": ..., "workload": "qft-sweep",
        "seed": 7, "traced": false, "setup_only": false,
        "launched": <time.monotonic() just before launch>,
        "tmp_parent": ..., "spans_path": ...}'

Set-up is everything before the timed body: interpreter start, importing
catnet, generating the seeded inputs and creating the temp dir. The pass
prints one JSON line: timings, branch count, named checks, a fingerprint of
the program's outputs (equal seeds must give equal fingerprints) and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ATOL = 1e-10

# The nine small verifiers and their exhaustive branch counts at the seed commit.
SUITE = {
    "nonlocal-cnot": 40,
    "teleport": 56,
    "cat-roundtrip": 480,
    "refresh": 3072,
    "distributed-swap": 80,
    "multi-control": 80,
    "decompose-c4x": 332,
    "amortized": 48,
    "parallel-control": 48,
}
# binary-tree cat schedule over 8 nodes: (control node, target node) per edge
GHZ_EDGES = ((0, 1), (0, 2), (1, 3), (0, 4), (1, 5), (2, 6), (3, 7))


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---- qft-sweep: 4,096 forced branches of the amortized 4-qubit, 2-machine QFT


def qft_prepare(seed: int, tmp: Path) -> int:
    return seed


def qft_run(seed: int):
    from catnet import verify

    return verify.verify_protocol(
        "qft", n=4, m=2, amortized=True, branches="exhaustive", seed=seed
    )


def qft_check(report, tmp: Path) -> tuple[int, dict[str, bool], dict]:
    led = report.ledger
    checks = {
        "verified": report.verified is True,
        "branches_tested": report.branches_tested == 4096,
        "measurements_per_branch": report.details["measurements_per_branch"] == 12,
        "ebits": led.ebits_consumed == 2,
        "cbits": led.cbits_sent == 4,
        "qubits_transported": led.qubits_transported == 0,
        "max_infidelity": report.max_infidelity <= ATOL,
    }
    fingerprint = {
        "verified": report.verified,
        "branches": report.branches_tested,
        "ledger": led.as_dict(),
        "max_infidelity": report.max_infidelity,
    }
    return report.branches_tested, checks, fingerprint


# ---- ghz-wide: one 8-node binary-tree cat build on 22 qubits, then verify_ghz's checks


def ghz_prepare(seed: int, tmp: Path) -> list[int]:
    """Forced outcomes: a (Z, X) pair per edge, in schedule order.

    A Z outcome of 1 fires X on both pair qubits; an X outcome of 1 fires Z
    on the edge's control register and X on its remote pair qubit. The seed
    picks two edges of each kind, disjoint, the X edges on distinct control
    nodes. Every correction then builds a new plan, so the work is the same
    for every seed.
    """
    rng = random.Random(seed)
    edges = range(len(GHZ_EDGES))
    z_edges = rng.sample(edges, 2)
    while True:
        x_edges = rng.sample([e for e in edges if e not in z_edges], 2)
        if GHZ_EDGES[x_edges[0]][0] != GHZ_EDGES[x_edges[1]][0]:
            break
    return [int(e in chosen) for e in edges for chosen in (z_edges, x_edges)]


def ghz_run(bits: list[int]):
    import numpy as np

    from catnet import network, protocols

    req = protocols.em_channel_requirements(len(GHZ_EDGES) + 1, "binary-tree")
    spec = [(f"N{i}", 1, max(1, r)) for i, r in enumerate(req)]
    names = [s[0] for s in spec]
    net = network.Network(spec, seed=0)  # every outcome is forced
    net.force_outcomes(bits)
    report = protocols.distributed_em(net, names, "binary-tree", check=False)
    # the ideal state has two nonzero amplitudes: all registers 0 or all 1
    ones = sum(1 << (net.num_qubits - 1 - net.global_index(net.reg(n))) for n in names)
    amps = net.state.amplitudes
    overlap = (amps[0] + amps[ones]) / np.sqrt(2)
    infidelity = max(0.0, 1.0 - float(abs(overlap)) ** 2)
    channels_zero = [net.qubit_is(a, 0) for a in net.addresses(pool=network.CHANNEL)]
    return report, infidelity, channels_zero, [r.outcome for r in net.records], bits


def ghz_check(result, tmp: Path) -> tuple[int, dict[str, bool], dict]:
    report, infidelity, channels_zero, outcomes, bits = result
    led = report.ledger
    checks = {
        "ebits": led.ebits_consumed == 7,
        "cbits": led.cbits_sent == 14,
        "rounds": report.rounds == 3,
        "overlap_infidelity": infidelity <= ATOL,
        "channels_zero": len(channels_zero) == 14 and all(channels_zero),
        "forced_branch": outcomes == bits,
    }
    fingerprint = {"ledger": led.as_dict(), "rounds": report.rounds, "infidelity": infidelity}
    return 1, checks, fingerprint


# ---- protocol-suite: the nine small verifiers through the CLI's JSON path


def suite_prepare(seed: int, tmp: Path) -> tuple[int, Path]:
    return seed, tmp


def suite_run(inputs: tuple[int, Path]) -> dict[str, int]:
    from catnet import cli

    seed, tmp = inputs
    return {
        name: cli.main(["verify", name, "--seed", str(seed), "--output", str(tmp / f"{name}.json")])
        for name in SUITE
    }


def suite_check(codes: dict[str, int], tmp: Path) -> tuple[int, dict[str, bool], dict]:
    checks: dict[str, bool] = {}
    fingerprint: dict[str, str] = {}
    branches = 0
    for name, want in SUITE.items():
        raw = (tmp / f"{name}.json").read_bytes()
        (report,) = json.loads(raw)
        branches += report["branches_tested"]
        checks[f"{name}.exit_code"] = codes[name] == 0
        checks[f"{name}.branches"] = report["branches_tested"] == want
        fingerprint[name] = hashlib.sha256(raw).hexdigest()
    return branches, checks, fingerprint


WORKLOADS = {
    "qft-sweep": (qft_prepare, qft_run, qft_check),
    "ghz-wide": (ghz_prepare, ghz_run, ghz_check),
    "protocol-suite": (suite_prepare, suite_run, suite_check),
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    prepare, run, check = WORKLOADS[spec["workload"]]

    import numpy

    import catnet
    from catnet import qstate
    from spans import LAYERS, Tracer

    for layer in LAYERS:
        importlib.import_module(f"catnet.{layer}")
    if not Path(catnet.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"catnet imported from {catnet.__file__}, not from {src}")
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=spec["tmp_parent"]))
    try:
        inputs = prepare(spec["seed"], tmp)
        tracer = None
        if spec["traced"]:
            tracer = Tracer()
            tracer.install()
        setup_s = time.monotonic() - spec["launched"]
        result: dict = {"setup_s": setup_s}
        if not spec["setup_only"]:
            t0 = time.perf_counter()
            out = run(inputs)
            wall_s = time.perf_counter() - t0
            branches, checks, fingerprint = check(out, tmp)
            result.update(
                wall_s=wall_s,
                branches=branches,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                checks={name: bool(ok) for name, ok in checks.items()},
                fingerprint=fingerprint,
            )
            if tracer is not None:
                # the checks above apply no gates, so the plan cache is as the body left it
                plan_cache = getattr(qstate, "_APPLY_CACHE", {})
                layers, moved = tracer.metrics(spec["workload"], wall_s, plan_cache)
                layers["cli.report_bytes"] = sum(f.stat().st_size for f in tmp.glob("*.json"))
                result.update(layers=layers, moved_counts=moved)
                tracer.save(Path(spec["spans_path"]))
        result["env"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": blas_threads(),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
