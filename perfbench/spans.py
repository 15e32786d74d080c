"""Outside-in span tracer for the catnet benchmark.

The tracer wraps the public functions of each catnet layer from outside the
package: every module attribute that holds a wrapped function (including
names other modules imported by value), the `Network` methods on the class,
`GateMatrix.__init__` and `_Scope.oracle_infidelity`. Spans live in memory as
parallel arrays (name, parent, qubits, start, end) and are written out once,
when the pass ends. Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Package modules, bottom to top. Span names are "<layer>.<function>".
LAYERS = ("qstate", "gates", "network", "primitives", "protocols", "qft", "verify", "cli")

# Address lookups run several times per operation; a span would cost more than
# the lookup, so their time stays in the caller's self time. parallel_round is
# a context manager, so a span would close before the round's body runs.
UNTRACED_METHODS = frozenset({"reg", "chan", "global_index", "parallel_round"})

# Full passes over a 2^n-amplitude vector (16 B per amplitude), reads plus
# writes, that each kernel makes. This is a model of the kernels' numpy
# calls, so the byte total it gives is computed, not measured.
VECTOR_PASSES = {
    "qstate.apply_gate:permutation": 2.5,  # read state and int64 index, write result
    "qstate.apply_gate:diagonal": 3.0,  # read state and phases, write result
    "qstate.apply_gate:general": 6.0,  # tensordot copy, dot, contiguous copy
    "qstate.measure": 5.5,  # weights, copy, zero half, renormalise
    "qstate.partial_state_check": 0.5,  # read the half where the qubit is 1
    "qstate.reduced_density_matrix": 6.0,  # reorder copy, conj copy, matmul reads
    "qstate.fidelity_up_to_global_phase": 2.0,
    "qstate.basis_state": 1.0,
    "qstate.random_state": 3.0,
}

# Counts per branch at the seed commit. A branch is everything from one
# Network construction to the next; the value is the median over a pass's
# branches. ghz-wide is a single branch: its 42 probes are 28 inside
# distributed_em and 14 from the channel checks that follow the build.
SEED_BRANCH_COUNTS = {
    "qft-sweep": {
        "qstate.apply_gate": 51,
        "qstate.apply_gate:permutation": 25,
        "qstate.apply_gate:diagonal": 9,
        "qstate.apply_gate:general": 17,
        "qstate.measure": 12,
        "qstate.partial_state_check": 40,
        "gates.gate_matrix": 4,
        "network.init": 1,
    },
    "ghz-wide": {
        "qstate.apply_gate": 44,
        "qstate.apply_gate:permutation": 27,
        "qstate.apply_gate:diagonal": 2,
        "qstate.apply_gate:general": 15,
        "qstate.partial_state_check": 42,
    },
}
SEED_PLAN_CACHE_ENTRIES = {"qft-sweep": 16419}

class Tracer:
    """In-memory spans; parent -1 marks a span called from the benchmark."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.qubits = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """Return fn wrapped in a span named `name`.

        qstate kernels also record their qubit count; apply_gate spans are
        named by gate kind ("qstate.apply_gate:<kind>").
        """
        name_id, parent, qubits = self.name_id, self.parent, self.qubits
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter
        nid = self._id(name)
        by_kind = name == "qstate.apply_gate"
        if by_kind:
            kind_ids = {k: self._id(f"{name}:{k}") for k in ("permutation", "diagonal", "general")}
        sized = by_kind or name in VECTOR_PASSES

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(start)
            name_id.append(kind_ids[args[1].kind] if by_kind else nid)
            parent.append(stack[-1])
            qubits.append(getattr(args[0], "num_qubits", args[0]) if sized else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return span

    def install(self) -> None:
        """Patch every catnet layer; call once, after catnet is imported."""
        from catnet import network, protocols, qstate, verify

        modules = [m for n, m in sys.modules.items() if n == "catnet" or n.startswith("catnet.")]
        verifier_key = {fn: key for key, fn in verify.VERIFIERS.items()}

        def patch(fn, name: str) -> None:
            wrapped = self.wrap(fn, name)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    setattr(mod, attr, wrapped)
            for key in [k for k, v in verify.VERIFIERS.items() if v is fn]:
                verify.VERIFIERS[key] = wrapped

        for layer in LAYERS:
            mod = sys.modules[f"catnet.{layer}"]
            for attr, val in list(vars(mod).items()):
                public = not attr.startswith("_") and callable(val) and not isinstance(val, type)
                if public and getattr(val, "__module__", None) == mod.__name__:
                    label = verifier_key.get(val, attr)
                    patch(val, f"{layer}.{label}")

        for attr, val in list(vars(network.Network).items()):
            if callable(val) and attr not in UNTRACED_METHODS:
                if attr == "__init__":
                    setattr(network.Network, attr, self.wrap(val, "network.init"))
                elif not attr.startswith("_"):
                    setattr(network.Network, attr, self.wrap(val, f"network.{attr}"))
        qstate.GateMatrix.__init__ = self.wrap(qstate.GateMatrix.__init__, "gates.gate_matrix")
        protocols._Scope.oracle_infidelity = self.wrap(
            protocols._Scope.oracle_infidelity, "protocols.oracle"
        )

    def save(self, path: Path) -> None:
        """Write every span (name, parent index, qubits, start, end) to .npz."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            qubits=np.frombuffer(self.qubits, dtype=np.int8),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def metrics(
        self, workload: str, wall_s: float, plan_cache: dict
    ) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of one traced pass, and the pinned counts that moved.

        Every span name gets `.calls`, `.self_s` (duration minus child spans)
        and `.wall_s`; apply_gate also gets `.calls.<kind>`, and each layer
        gets `<layer>.self_s`.
        """
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        dur = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n_names = len(self.names)
        calls_by = np.bincount(nid, minlength=n_names)
        self_by = np.bincount(nid, weights=dur - child_time, minlength=n_names)
        dur_by = np.bincount(nid, weights=dur, minlength=n_names)
        base = [n.split(":")[0] for n in self.names]

        def ids(name: str) -> list[int]:
            return [i for i, b in enumerate(base) if b == name or self.names[i] == name]

        out: dict[str, float] = {}
        for name in set(base):
            group = ids(name)
            out[f"{name}.calls"] = int(calls_by[group].sum())
            out[f"{name}.self_s"] = float(self_by[group].sum())
            out[f"{name}.wall_s"] = float(dur_by[group].sum())
        for i, name in enumerate(self.names):
            if ":" in name:
                out[name.replace(":", ".calls.")] = int(calls_by[i])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(
                sum(self_by[i] for i, b in enumerate(base) if b.startswith(layer + "."))
            )
        out["gates.gate_matrix.constructions"] = out["gates.gate_matrix.calls"]

        passes = np.zeros(n_names)
        for name, p in VECTOR_PASSES.items():
            passes[ids(name)] = p
        qubits = np.frombuffer(self.qubits, dtype=np.int8).astype(np.float64)
        out["qstate.bytes_computed"] = float(np.sum(16.0 * np.exp2(qubits) * passes[nid]))

        # apply_gate time spent directly under local_apply, for the overhead ratio
        under_local = nested & np.isin(nid, ids("qstate.apply_gate"))
        under_local[under_local] = np.isin(nid[parent[under_local]], ids("network.local_apply"))
        apply_under_local = float(dur[under_local].sum())
        out["network.local_apply.overhead_ratio"] = (
            out["network.local_apply.self_s"] / apply_under_local if apply_under_local else 0.0
        )

        # A branch runs from one Network construction to the next.
        init_starts = start[np.isin(nid, ids("network.init"))]
        n_branches = len(init_starts)
        branch = np.searchsorted(init_starts, start, side="right") - 1
        qft_branches = np.unique(branch[(branch >= 0) & np.isin(nid, ids("qft.qft_distributed"))])
        out["qft.branch_ms.p50"] = out["qft.branch_ms.p99"] = 0.0
        if len(qft_branches):
            bounds = np.append(init_starts, end[branch == n_branches - 1].max())
            branch_ms = 1e3 * np.diff(bounds)[qft_branches]
            out["qft.branch_ms.p50"] = float(np.percentile(branch_ms, 50))
            out["qft.branch_ms.p99"] = float(np.percentile(branch_ms, 99))

        out["qstate.plan_cache.entries"] = len(plan_cache)
        out["qstate.plan_cache.mb"] = sum(p.nbytes for _, p in plan_cache.values()) / 2**20
        out["trace.coverage"] = float(dur[~nested].sum()) / wall_s
        out["trace.spans"] = len(dur)

        moved = []
        want = SEED_PLAN_CACHE_ENTRIES.get(workload)
        if want is not None and len(plan_cache) != want:
            moved.append(f"qstate.plan_cache.entries: {len(plan_cache)} (seed commit {want})")
        for name, want in SEED_BRANCH_COUNTS.get(workload, {}).items():
            mask = (branch >= 0) & np.isin(nid, ids(name))
            got = float(np.median(np.bincount(branch[mask], minlength=n_branches))) if n_branches else 0.0
            if got != want:
                moved.append(f"{name} per branch: {got:g} (seed commit {want})")
        out["trace.seed_count_mismatches"] = len(moved)
        return out, moved
