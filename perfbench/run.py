"""The catnet benchmark.

    python3 perfbench/run.py --workload qft-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run of a workload is a closed loop of passes, one after the other, each
in a fresh interpreter (passes.py), until --seconds have passed; a pass that
has started always finishes. Pass k uses seed 1000 * seed + k. With --trace 0
the run reports the end-to-end metrics as medians over its passes; with
--trace 1 it alternates untraced and traced passes on equal seeds and
reports the per-layer metrics of the traced ones. Metric names and units
come from BENCHMARK.json. The last line of stdout is one JSON object; the
environment and per-pass details go to stderr and to
.perfbench/result-<workload>.json. `--workload all` runs every workload
with tracing off and prints a table that includes failed_share.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("qft-sweep", "ghz-wide", "protocol-suite")
MIN_PASSES = 2
MIN_SETUPS = 9
# A run must end within 180 s; this leaves room to clean up.
RUN_LIMIT_S = 170.0
# One BLAS thread keeps each pass to a single thread on a shared 2-core box.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def launch_pass(workload: str, seed: int, *, traced: bool, setup_only: bool, run_dir: Path, deadline: float) -> dict:
    spec = {
        "root": str(ROOT),
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_only": setup_only,
        "tmp_parent": str(run_dir),
        "spans_path": str(OUT / f"spans-{workload}.npz"),
    }
    env = dict(os.environ, **{name: str(BLAS_THREADS) for name in BLAS_ENV})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the pass could start")
    spec["launched"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passes.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} pass (seed {seed}) did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass (seed {seed}) exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} pass (seed {seed}) printed no result")
    result = json.loads(lines[-1])
    result.update(seed=seed, traced=traced)
    return result


def run_workload(workload: str, seed: int, seconds: int, trace: bool, started: float) -> dict:
    """Run the passes of one workload and return its metrics and checks."""
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    base = 1000 * seed
    passes: list[dict] = []
    t0 = time.monotonic()

    def launch(pass_seed: int, traced: bool = False, setup_only: bool = False) -> dict:
        return launch_pass(
            workload, pass_seed, traced=traced, setup_only=setup_only, run_dir=run_dir, deadline=deadline
        )

    try:
        k = 0
        if trace:
            while k == 0 or time.monotonic() - t0 < seconds:
                passes += [launch(base + k), launch(base + k, traced=True)]
                k += 1
        else:
            # protocol-suite ends with a repeat of its first seed, so every run
            # checks that the CLI's JSON is byte-identical across processes
            repeat = workload == "protocol-suite"
            while k < MIN_PASSES - repeat or time.monotonic() - t0 < seconds:
                passes.append(launch(base + k))
                k += 1
            if repeat:
                passes.append(launch(base))
        setups = [p["setup_s"] for p in passes if not p["traced"]]
        while not trace and len(setups) < MIN_SETUPS:
            setups.append(launch(base, setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = [(f"seed{p['seed']}:{name}", ok) for p in passes for name, ok in p["checks"].items()]
    first_by_seed: dict[int, dict] = {}
    for p in passes:
        first = first_by_seed.setdefault(p["seed"], p)
        if first is not p:
            for key, value in first["fingerprint"].items():
                checks.append((f"seed{p['seed']}:same-output:{key}", p["fingerprint"].get(key) == value))

    failed = sum(not ok for _, ok in checks)
    plain = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    metrics = {
        "failed_share": failed / len(checks),
        "wall_s": wall,
        "branches_per_s": statistics.median(p["branches"] / p["wall_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "setup_s": statistics.median(setups) if not trace else None,
    }
    moved: list[str] = []
    if trace:
        traced = [p for p in passes if p["traced"]]
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        metrics["trace.overhead"] = statistics.median(p["wall_s"] for p in traced) / wall - 1
        moved = traced[-1]["moved_counts"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metrics": metrics,
        "checks": checks,
        "failed": failed,
        "moved_counts": moved,
        "passes": [
            {k: p[k] for k in ("seed", "traced", "setup_s", "wall_s", "branches", "peak_rss_mb")}
            for p in passes
        ],
        "env": {"nproc": len(os.sched_getaffinity(0)), **passes[0]["env"]},
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def select(metrics: dict, declared: list[dict], *, absent_is_zero: bool = False) -> dict:
    """The declared metrics with their units.

    A per-layer metric of a function no pass called or that no longer exists
    reads 0; a missing end-to-end metric is an error.
    """
    out = {}
    for m in declared:
        value = metrics.get(m["name"])
        if value is None:
            if not absent_is_zero:
                raise BenchError(f"metric {m['name']} was not measured")
            print(f"note: no span gives {m['name']}; reporting 0", file=sys.stderr)
            value = 0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def report(result: dict) -> None:
    """Environment, per-pass details and failed checks to stderr and a file."""
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{result['workload']}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"[{result['workload']}] env {json.dumps(result['env'], sort_keys=True)}", file=sys.stderr)
    for p in result["passes"]:
        print(f"[{result['workload']}] pass {json.dumps(p, sort_keys=True)}", file=sys.stderr)
    for name, ok in result["checks"]:
        if not ok:
            print(f"[{result['workload']}] FAILED check {name}", file=sys.stderr)
    for line in result["moved_counts"]:
        print(f"[{result['workload']}] count differs from the seed commit: {line}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "catnet" / "__init__.py").is_file():
        print(f"error: no catnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), started)
            report(result)
            line = {
                "correct": result["failed"] == 0,
                "attempted": len(result["checks"]),
                "failed": result["failed"],
                "metrics": select(
                    result["metrics"], declared_metrics(bool(args.trace)), absent_is_zero=bool(args.trace)
                ),
            }
            print(json.dumps(line))
            return 0
        summary = {}
        declared = declared_metrics(False) + [{"name": "failed_share", "unit": "1"}]
        for workload in WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, False, time.monotonic())
            report(result)
            summary[workload] = select(result["metrics"], declared)
            for name, m in summary[workload].items():
                print(f"{workload:<15} {name:<15} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps(summary))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
