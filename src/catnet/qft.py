"""Quantum Fourier transform, monolithic and distributed.

The circuit form is the usual cascade: for each qubit (most significant
first) a Hadamard followed by controlled phase rotations from every later
qubit, then a final order-reversing swap layer. _steps lays the cascade out
on machines of adjacent qubits and groups the cross-node rotations that
share one distribution of their control; build_qft_plan counts from those
steps, and qft_distributed runs them on a network, spending one EPR pair
per distribution and swapping cross-node pairs in the reversal with
distributed_swap's gates. The run claims two idle channel qubits per node
before its first gate, and every distribution and reversal swap runs over
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence

from . import qstate
from .gates import H, SWAP, ControlledSpec, make_controlled, make_rk
from .network import CHANNEL, REGISTER, Network
from .protocols import ProtocolReport, _claim, _Scope, _share_control, _swap_over, reset_channel_qubits
from .qstate import GateMatrix, StateVector


@lru_cache(maxsize=None)
def controlled_rk(order: int) -> GateMatrix:
    """Controlled phase rotation: phase e^(2*pi*i/2^order) when both qubits are 1."""
    return make_controlled(ControlledSpec(1, make_rk(order)))


def _cascade(n: int) -> list[tuple[int, int]]:
    """The transform's Hadamards and rotations on positions 0..n-1 (0 the
    most significant), in circuit order, as (control, target) pairs: (t, t)
    is the Hadamard on t, and (c, t) with c > t the rotation of order
    c - t + 1 that c controls on t."""
    return [(c, t) for t in range(n) for c in range(t, n)]


def _circuit(n: int) -> list[tuple[GateMatrix, list[int]]]:
    """The transform's gates on positions 0..n-1, in order: the cascade,
    then the reversal swaps."""
    ops = [(H, [t]) if c == t else (controlled_rk(c - t + 1), [c, t]) for c, t in _cascade(n)]
    return ops + [(SWAP, [i, n - 1 - i]) for i in range(n // 2)]


def _steps(n: int, k: int, amortized: bool) -> list[tuple[int, list[int]]]:
    """The cascade on machines of k adjacent qubits, as (c, targets) steps:
    the Hadamard on c when targets is [c], and otherwise rotations that c
    controls on targets of one machine, a local gate when that machine is
    c's and one distribution of c when it is not.

    Amortized, each rotation moves to just before its control's Hadamard,
    local rotations first and then machine by machine (the phase gates
    commute, so this is an identity rewrite). Adjacent cross-machine
    rotations that share a control and a target machine then merge into one
    step. In the plain order no two such rotations are adjacent, so each
    takes a distribution of its own.
    """
    order = _cascade(n)
    if amortized:
        order.sort(key=lambda g: (g[0], g[0] == g[1], g[1] // k != g[0] // k, g[1] // k))
    steps: list[tuple[int, list[int]]] = []
    for c, t in order:
        if t // k != c // k and steps and steps[-1][0] == c and steps[-1][1][0] // k == t // k:
            steps[-1][1].append(t)
        else:
            steps.append((c, [t]))
    return steps


def qft_local(state: StateVector, qubits: Sequence[int]) -> StateVector:
    """The transform circuit applied to the listed qubits of an n-qubit state.

    qubits[0] is the most significant position of the transformed value.
    Returns a new state and leaves the input alone.
    """
    qubits = [int(q) for q in qubits]
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits in {qubits}")
    out = state.copy()
    for gate, targets in _circuit(len(qubits)):
        qstate.apply_gate(out, gate, [qubits[t] for t in targets])
    return out


@dataclass(frozen=True)
class QftPlan:
    """A transform on n qubits split over m machines of k adjacent qubits,
    with its gate counts: the nonlocal and amortized counts are the
    distributions of _steps in the plain and the amortized order."""

    n: int
    m: int
    k: int
    swaps: tuple[tuple[int, int], ...]
    total_controlled: int
    local_controlled: int
    nonlocal_controlled: int
    amortized_distributions: int
    cross_swaps: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "m": self.m,
            "qubits_per_machine": self.k,
            "controlled_gates": {
                "total": self.total_controlled,
                "local": self.local_controlled,
                "nonlocal": self.nonlocal_controlled,
                "amortized_distributions": self.amortized_distributions,
            },
            "cross_node_swaps": self.cross_swaps,
            "schedule_length": self.n + self.total_controlled,
        }


def build_qft_plan(n: int, m: int) -> QftPlan:
    """Assign the cascade to m machines holding n/m adjacent qubits each."""
    if n < 1:
        raise ValueError(f"need at least 1 qubit, got {n}")
    if m < 1 or n % m != 0:
        raise ValueError(f"machine count {m} must divide the qubit count {n}")
    k = n // m
    plain, amortized = (sum(c // k != ts[0] // k for c, ts in _steps(n, k, a)) for a in (False, True))
    total = n * (n - 1) // 2
    swaps = tuple((i, n - 1 - i) for i in range(n // 2))
    cross = sum(1 for i, j in swaps if i // k != j // k)
    return QftPlan(
        n=n,
        m=m,
        k=k,
        swaps=swaps,
        total_controlled=total,
        local_controlled=total - plain,
        nonlocal_controlled=plain,
        amortized_distributions=amortized,
        cross_swaps=cross,
    )


def qft_distributed(
    net: Network,
    plan: QftPlan,
    *,
    amortized: bool = False,
    check: bool = False,
) -> ProtocolReport:
    """Run the planned transform on a network, one node per machine.

    The cascade runs as _steps lays it out: each distribution of a control
    to a remote node consumes a fresh EPR pair, and in amortized mode the
    rotations that share a control and a remote node ride one distribution
    instead of one each. Before its first gate the run claims two idle
    channel qubits on every node (_claim); a shortfall raises CapacityError
    with the network unchanged. Every pair is written onto the first
    claimed channel qubit of each node and reset after its distribution.
    Each cross-node reversal swap runs distributed_swap's gates on the two
    claimed channel qubits of its two nodes, b's state waiting on a's
    second one. The report's ledger covers the rotation stage only; the
    reversal swaps are tallied separately under details["swap_ledger"].
    Machine i runs on the network's i-th node.

    With check=True (False by default), the report compares the result
    with the transform's circuit (the gate list qft_local runs) applied to
    a copy of the state the run started from, so no 2^n x 2^n matrix is
    built; unchecked, its verified and max_infidelity stay None.
    """
    if len(net.nodes) != plan.m:
        raise ValueError(f"plan wants {plan.m} machines, got {len(net.nodes)} nodes")
    for name in net.nodes:
        if len(net.addresses(name, REGISTER)) < plan.k:
            raise ValueError(f"{name} needs {plan.k} register qubits for this plan")
    addr = [net.reg(net.nodes[i // plan.k], i % plan.k) for i in range(plan.n)]
    # every distribution and reversal swap on a node runs over these two,
    # reset after each
    chans = {node: _claim(net, node, CHANNEL, 2, ()) for node in net.nodes}

    scope = _Scope(net, check)
    distributions_used = 0
    for c, targets in _steps(plan.n, plan.k, amortized):
        ctrl, target = addr[c], addr[targets[0]]
        if c == targets[0]:
            net.local_apply(H, [ctrl])
        elif ctrl.node == target.node:
            net.local_apply(controlled_rk(c - targets[0] + 1), [ctrl, target])
        else:
            pair = [chans[ctrl.node][0], chans[target.node][0]]
            net._write_cat(pair)
            layers = [[(1, controlled_rk(c - t + 1), [addr[t]])] for t in targets]
            _, records, _ = _share_control(net, ctrl, pair, layers, tag=f"qft:c{c}")
            reset_channel_qubits(net, records)
            distributions_used += 1

    swap_start = net.ledger.snapshot()
    for i, j in plan.swaps:
        if addr[i].node == addr[j].node:
            net.local_apply(SWAP, [addr[i], addr[j]])
        else:
            ci, cj = chans[addr[i].node], chans[addr[j].node]
            _swap_over(net, addr[i], addr[j], ci, cj, ci[1], f"qft:swap{i}-{j}")
    swap_ledger = net.ledger.delta_since(swap_start)

    report = scope.report(
        "distributed-qft",
        [(gate, [addr[t] for t in targets]) for gate, targets in _circuit(plan.n)] if check else [],
        details={
            "plan": plan.to_dict(),
            "amortized": amortized,
            "distributions_used": distributions_used,
            "swap_ledger": swap_ledger.as_dict(),
        },
    )
    # the scope's ledger covers the whole run: it becomes the total, and the
    # report's own ledger is the rotation stage
    report.details["total_ledger"] = report.ledger.as_dict()
    report.ledger = swap_start.delta_since(scope.snap)
    return report
