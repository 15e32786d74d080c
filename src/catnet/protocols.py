"""Composite distributed protocols built on the cat-state primitives.

Every operation here mutates the network in place and returns a
ProtocolReport carrying the resource delta (ebits, cbits, transports,
rounds). Every protocol reports through one _Scope, opened before its body
runs. A protocol checks itself only when its caller passes check=True:
then the scope keeps the pre-protocol state and, at report time, compares
the protocol's effect on the surviving qubits with the ideal gates applied
to that state, through the overlap tr(rho_actual rho_ideal) of their
reduced states. Consumed helper qubits (measured channel qubits, released
ancillas) are excluded from that comparison. By default nothing is copied
or replayed, and the report's verified and max_infidelity stay None; the
verifiers' sweeps judge every run by their Case alone (verify.py).

Non-local control is one routine, _share_control: the cat-entangler
shares a control qubit over a cat state, each cat member drives controlled
gates on its own node, and the cat-disentangler reclaims the share onto
the control. The non-local CNOT, the controlled sequence, parallel control,
every edge of the GHZ build (distributed_em) and every distribution of
the transform (qft.qft_distributed) run through it; each protocol keeps
its own validation, scope and report.

Entanglement policy: protocols consume pre-established EPR pairs. Every
helper qubit a protocol holds (a pair or cat member, an ancilla, a
register to wait in, a channel qubit to establish over) comes from one
allocator, _claim: idle |0> qubits of one node's pool in slot order,
probed once each, never one of the call's own qubits. A protocol claims
them all before its first gate, so a shortfall raises CapacityError with
the network unchanged. Network._write_cat writes a pair onto claimed
qubits without probing them again, a stand-in for earlier distribution;
the first measurement of a share charges it. The non-local CNOT and the
controlled sequence may take a pair from the caller; otherwise _fresh_cat
claims one channel qubit on each node and writes a fresh pair (or cat)
there. The rule for every protocol: a call never writes or accepts a pair
on a qubit it acts on, and it refuses a given pair there before any gate
runs. establish_epr_exchange is the in-model establishment that actually
ships qubits.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Any, Collection, Sequence

from . import qstate
from .errors import CannotResetError, CapacityError, LocalityError, PreconditionError
from .gates import (
    CNOT,
    CZ,
    H,
    SWAP,
    TOFFOLI,
    X,
    ControlledSpec,
    em_schedule,
    make_controlled,
)
from .network import (
    CHANNEL,
    REGISTER,
    ClassicalMessage,
    Network,
    QubitAddress,
    ResourceLedger,
)
from .primitives import cat_entangler, cat_shrink, teleport
from .qstate import ATOL, MeasurementRecord

C3X = make_controlled(ControlledSpec(3, X))
C4X = make_controlled(ControlledSpec(4, X))


@dataclass
class ProtocolReport:
    """What one protocol run cost and whether it checked out."""

    name: str
    ledger: ResourceLedger
    rounds: int
    branches_tested: int = 1
    verified: bool | None = None
    max_infidelity: float | None = None
    details: dict[str, Any] = field(default_factory=dict)
    messages: list[ClassicalMessage] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        """The report as plain data; the message log shows row 0's bits."""
        return {
            "protocol": self.name,
            "branches_tested": self.branches_tested,
            "ebits": self.ledger.ebits_consumed,
            "cbits": self.ledger.cbits_sent,
            "qubits_transported": self.ledger.qubits_transported,
            "rounds": self.rounds,
            "max_infidelity": self.max_infidelity,
            "verified": self.verified,
            "message_log": [
                {"from": m.sender, "to": list(m.to), "bit": int(m.bit.flat[0]), "tag": m.tag}
                for m in self.messages
            ],
            "details": self.details,
        }


class _Scope:
    """Captures ledger, message, and state baselines for one protocol body,
    and reports the run against them.

    The network overwrites its state in place, so the state baseline is a
    copy, and it is taken only when `check` says the oracle will read it:
    when the protocol's caller passed check=True, which no verifier does.
    A copy of `ownership` goes with it: the slots the baseline's qubits sat
    in, since exchanges and SWAPs move qubits between slots. The oracle
    applies the ideal gates to that copy itself, so a scope reports once: a
    second report raises rather than read a spent baseline.
    """

    def __init__(self, net: Network, check: bool) -> None:
        self.net = net
        self.snap = net.ledger.snapshot()
        self.msg_start = len(net.message_log)
        self.check = check
        self.pre_state = net.state.copy() if check else None
        self.pre_slots = dict(net.ownership) if check else None

    def report(
        self,
        name: str,
        ideal: Sequence[tuple[Any, Sequence[QubitAddress]]],
        exclude: Sequence[QubitAddress] = (),
        *,
        rounds: int | None = None,
        details: dict[str, Any],
    ) -> ProtocolReport:
        """The ledger delta, rounds and messages since the scope opened.

        When the scope was opened with `check`, the oracle compares the
        state with the `ideal` (gate, addresses) pairs applied to the
        baseline, outside the `exclude`d qubits, and its result fills
        `verified` and `max_infidelity`; otherwise both stay None.
        """
        delta = self.net.ledger.delta_since(self.snap)
        infid = self.oracle_infidelity(ideal, exclude) if self.check else None
        return ProtocolReport(
            name=name,
            ledger=delta,
            rounds=delta.rounds if rounds is None else rounds,
            verified=None if infid is None else infid <= ATOL,
            max_infidelity=infid,
            details=details,
            messages=list(self.net.message_log[self.msg_start:]),
        )

    def oracle_infidelity(
        self,
        ideal: Sequence[tuple[Any, Sequence[QubitAddress]]],
        exclude: Sequence[QubitAddress] = (),
    ) -> float:
        """Distance from the ideal-gate result on all non-excluded qubits.

        Excluded qubits are the protocol's consumables; everything else must
        carry exactly the state the ideal gates would have produced. On a
        split network each row is compared with the ideal result of the row
        it descends from, and the worst row counts. The ideal gates address
        the baseline through the slots its qubits sat in when the scope
        opened, and each kept slot is read through each state's own table.
        The overlap tr(rho_actual rho_ideal) is computed as ||E^dagger A||^2
        from the states reshaped to (kept, excluded) matrices, without
        forming either density matrix. The ideal gates run on the scope's
        baseline itself, which this spends: a second call raises
        RuntimeError.
        """
        net, expected, slots, self.pre_state = self.net, self.pre_state, self.pre_slots, None
        if expected is None:
            raise RuntimeError("the scope's baseline was spent by an earlier report")
        for gate, addrs in ideal:
            qstate.apply_gate(expected, gate, [slots[a] for a in addrs])
        skip = set(exclude)
        keep = [a for a in net.ownership if a not in skip]
        actual = qstate.bipartition(net.state, [net.ownership[a] for a in keep])
        overlap = float(qstate.overlap(actual, qstate.bipartition(expected, [slots[a] for a in keep])).min())
        return max(0.0, 1.0 - overlap)


def _claim(net: Network, node: str, pool: str, count: int, own: Collection[QubitAddress]) -> list[QubitAddress]:
    """The one allocator of helper qubits and the one probe for them: `count`
    qubits of the node's pool that sit idle in |0>, in slot order, with the
    qubits in `own` skipped unprobed. A shortfall raises CapacityError and
    changes nothing."""
    found: list[QubitAddress] = []
    for addr in net.addresses(node, pool):
        if len(found) < count and addr not in own and net.qubit_is(addr, 0):
            found.append(addr)
    if len(found) < count:
        raise CapacityError(f"{count} idle |0> {pool} qubits needed on {node}, {len(found)} available")
    return found


def _fresh_cat(
    net: Network, nodes: Sequence[str], own: Sequence[QubitAddress], given: Sequence[QubitAddress] | None = None
) -> list[QubitAddress]:
    """The pair (a cat for more nodes) a call on the qubits `own` runs over,
    one qubit per node of `nodes`: `given` once it is checked to span them
    and to hold none of `own`, or else a fresh cat written onto the channel
    qubit _claim takes on each node outside `own`, all claimed first."""
    if given is not None:
        if [q.node for q in given] != list(nodes):
            raise ValueError(f"pair ({', '.join(map(str, given))}) does not span nodes {', '.join(nodes)}")
        for q in given:
            if q in own:
                raise ValueError(f"{q} is reserved as the shared control line, so the call cannot act on it")
        return list(given)
    cat: list[QubitAddress] = []
    for node in nodes:
        cat += _claim(net, node, CHANNEL, 1, [*own, *cat])
    net._write_cat(cat)
    return cat


# ---- entanglement lifecycle -------------------------------------------------


def establish_epr_exchange(
    net: Network,
    node_a: str,
    node_b: str,
    *,
    check: bool = False,
) -> tuple[list[tuple[QubitAddress, QubitAddress]], ProtocolReport]:
    """Create two EPR pairs between two nodes with one crossing shipment.

    Each node entangles a stay-home channel qubit with a traveler, then the
    travelers trade places: two qubits shipped, two shared pairs gained.
    Returns the pairs as address tuples, each led by its stay-home qubit,
    node_a's pair first. Each node uses the first two channel qubits _claim
    finds in |0>; a node with fewer raises CapacityError. The pairs are
    registered as unspent before the first gate, and each charges its ebit
    when one of its halves is first measured.
    """
    if node_a == node_b:
        raise ValueError("entanglement establishment needs two distinct nodes")
    (keep_a, move_a), (keep_b, move_b) = [_claim(net, node, CHANNEL, 2, ()) for node in (node_a, node_b)]
    net._share(*[[net.global_index(q) for q in pair] for pair in ((keep_a, move_a), (keep_b, move_b))])
    scope = _Scope(net, check)
    with net.parallel_round():
        net.local_apply(H, [keep_a])
        net.local_apply(H, [keep_b])
    with net.parallel_round():
        net.local_apply(CNOT, [keep_a, move_a])
        net.local_apply(CNOT, [keep_b, move_b])
    net.exchange_channel_qubits(move_a, move_b)
    pairs = [(keep_a, move_b), (keep_b, move_a)]
    return pairs, scope.report(
        "establish-epr",
        [(H, [keep_a]), (CNOT, [keep_a, move_a]), (H, [keep_b]), (CNOT, [keep_b, move_b]), (SWAP, [move_a, move_b])],
        details={"pairs": [[str(p), str(q)] for p, q in pairs]},
    )


def reset_channel_qubits(
    net: Network, records: Sequence[MeasurementRecord | None]
) -> list[QubitAddress]:
    """Return measured qubits to |0> using their recorded outcomes.

    A qubit can only be erased when its state is known, so each record must
    still describe its qubit exactly; anything less raises CannotResetError.
    Works for register qubits too (e.g. released ancillas).
    """
    checked: list[MeasurementRecord] = []
    for rec in records:
        if rec is None:
            raise CannotResetError("no measurement record available for reset")
        if not net.knows(rec):
            raise CannotResetError("measurement record does not belong to this network")
        if not net.qubit_is(rec.address, rec.outcome):
            raise CannotResetError(
                f"{rec.address} no longer holds the recorded state |{rec.outcome}>; "
                f"a qubit in an unknown state cannot be erased"
            )
        checked.append(rec)
    if not checked:
        return []
    with net.parallel_round():
        for rec in checked:
            net.classically_controlled_apply(rec, X, rec.address)
    return [rec.address for rec in checked]


# ---- non-local gates --------------------------------------------------------


def _share_control(
    net: Network,
    control: QubitAddress,
    cat: Sequence[QubitAddress],
    layers: Sequence[Sequence[tuple[int, Any, list[QubitAddress]]]],
    *,
    tag: str,
) -> tuple[list[tuple[Any, list[QubitAddress]]], list[MeasurementRecord], int]:
    """Share `control` over `cat`, run controlled gates off the share, and
    reclaim it.

    Each layer is one round of (member, controlled gate, targets) parts,
    the gate driven by cat[member] on the targets' node. Returns the ideal
    (the same gates controlled by `control` itself), the entangler's and
    the shrink's measurement records, and the rounds the layers took.
    """
    group = cat_entangler(net, control, cat, tag=tag)
    ideal: list[tuple[Any, list[QubitAddress]]] = []
    start = net.ledger.rounds
    for layer in layers:
        with net.parallel_round():
            for member, gate, targets in layer:
                net.local_apply(gate, [cat[member], *targets])
                ideal.append((gate, [control, *targets]))
    rounds = net.ledger.rounds - start
    return ideal, [group.record, *cat_shrink(net, group.members, control, tag=tag)], rounds


def nonlocal_cnot(
    net: Network,
    control: QubitAddress,
    target: QubitAddress,
    *,
    epr: tuple[QubitAddress, QubitAddress] | None = None,
    check: bool = False,
) -> ProtocolReport:
    """CNOT between qubits on different nodes over one shared EPR pair.

    The control is spliced into the pair (`epr`, or a fresh one), the
    remote half drives a local CNOT, and the splice is undone; the control
    line ends restored on its home node. Costs exactly 1 ebit and 2 cbits.
    Both pair qubits end measured, so reset_channel_qubits can reclaim
    them.
    """
    if control.node == target.node:
        raise ValueError(f"{control} and {target} share a node; apply a local CNOT")
    pair = _fresh_cat(net, [control.node, target.node], [control, target], epr)
    scope = _Scope(net, check)
    ideal, records, _ = _share_control(net, control, pair, [[(1, CNOT, [target])]], tag="nl-cnot")
    return scope.report("nonlocal-cnot", ideal, pair, details={"outcome_bits": [r.outcome for r in records]})


def nonlocal_controlled_sequence(
    net: Network,
    control: QubitAddress,
    gates: Sequence[tuple[Any, QubitAddress | Sequence[QubitAddress]]],
    *,
    epr: tuple[QubitAddress, QubitAddress] | None = None,
    check: bool = False,
) -> ProtocolReport:
    """Run several controlled gates off one distributed control line.

    `gates` lists (gate, targets) pairs, applied in order, all targeting one
    remote node. The control is distributed once and reclaimed once, so the
    whole run costs 1 ebit and 2 cbits no matter how many gates it contains.
    """
    seq = [(gate, [tgts] if isinstance(tgts, QubitAddress) else list(tgts)) for gate, tgts in gates]
    if not seq:
        raise ValueError("empty controlled-gate sequence")
    targets = [t for _, tg in seq for t in tg]
    nodes = {t.node for t in targets}
    if len(nodes) != 1:
        raise LocalityError(f"sequence targets must share one node, got {sorted(nodes)}")
    remote = nodes.pop()
    if remote == control.node:
        raise ValueError("targets sit with the control; apply the controlled gates directly")
    pair = _fresh_cat(net, [control.node, remote], [control, *targets], epr)
    scope = _Scope(net, check)
    layers = [[(1, make_controlled(ControlledSpec(1, g)), tg)] for g, tg in seq]
    ideal, _, _ = _share_control(net, control, pair, layers, tag="nl-seq")
    return scope.report("nonlocal-controlled-sequence", ideal, pair, details={"gate_count": len(seq)})


def parallel_distributed_control(
    net: Network,
    control: QubitAddress,
    parts: Sequence[tuple[str, Any, QubitAddress | Sequence[QubitAddress]]],
    *,
    check: bool = False,
) -> ProtocolReport:
    """One control qubit drives gates on several nodes in a single round.

    `parts` lists (node, gate, local targets), each on a node other than
    the control's; the gates must act on disjoint qubits since they run
    simultaneously. The control is shared through one multi-party cat
    state, written onto the first free |0> channel qubit of the control's
    node and of every part node, each node applies its controlled part
    locally, and the share is reclaimed. The report's details give the
    rounds the controlled parts took.
    """
    norm: list[tuple[str, Any, list[QubitAddress]]] = []
    for node, gate, tgts in parts:
        tg = [tgts] if isinstance(tgts, QubitAddress) else list(tgts)
        if node == control.node:
            raise ValueError(f"part on {node} sits with the control; apply its controlled gate directly")
        for t in tg:
            if t.node != node:
                raise ValueError(f"part on {node} lists target {t} from another node")
        norm.append((node, gate, tg))
    if not norm:
        raise ValueError("no parts given")
    part_nodes = [node for node, _, _ in norm]
    if len(set(part_nodes)) != len(part_nodes):
        raise ValueError("each part must sit on its own node (merge same-node parts)")

    cat = _fresh_cat(net, [control.node, *part_nodes], [control, *(t for _, _, tg in norm for t in tg)])
    scope = _Scope(net, check)
    layer = [(i, make_controlled(ControlledSpec(1, g)), tg) for i, (_, g, tg) in enumerate(norm, 1)]
    ideal, _, controlled_rounds = _share_control(net, control, cat, [layer], tag="par-ctrl")
    details = {"parts": len(norm), "controlled_rounds": controlled_rounds}
    return scope.report("parallel-distributed-control", ideal, cat, details=details)


# ---- multi-node cat construction ---------------------------------------------


def em_channel_requirements(m: int, shape: str) -> list[int]:
    """Channel qubits node i must hold at once to run distributed_em."""
    req = [0] * m
    for stage in em_schedule(m, shape):
        for c, t in stage:
            req[c] += 1
            req[t] += 1
    return req


def distributed_em(
    net: Network,
    nodes: Sequence[str],
    shape: str = "linear",
    *,
    check: bool = False,
) -> ProtocolReport:
    """Grow the shared cat state over register slot 0 of every node.

    Follows the chosen schedule shape, replacing every CNOT of the local
    cat-construction circuit with its non-local counterpart over a
    pre-established EPR pair. All pairs are held simultaneously, so each
    node needs em_channel_requirements-many idle channel qubits: every
    edge's pair is claimed (_claim, in slot order) before the first pair is
    written, so a shortfall raises CapacityError with nothing changed. The
    pairs are consumed stage by stage (m-1 ebits total) and the channel
    qubits are reset as they are released. The reported round count is the
    number of schedule stages.
    """
    nodes = [str(n) for n in nodes]
    m = len(nodes)
    schedule = em_schedule(m, shape)
    if len(set(nodes)) != m:
        raise ValueError("node list repeats a node")
    regs = [net.reg(n, 0) for n in nodes]
    edges = [edge for stage in schedule for edge in stage]
    held: list[QubitAddress] = []  # every pair is held until its edge runs
    for node in [nodes[i] for edge in edges for i in edge]:
        held += _claim(net, node, CHANNEL, 1, [*regs, *held])
    pairs = list(zip(held[::2], held[1::2]))

    scope = _Scope(net, check)  # before the pairs: the oracle's baseline holds them as |0>
    for pair in pairs:
        net._write_cat(pair)
    net.local_apply(H, [regs[0]])
    ideal = [(H, [regs[0]])]
    for (c, t), pair in zip(edges, pairs):
        cnot, records, _ = _share_control(net, regs[c], pair, [[(1, CNOT, [regs[t]])]], tag=f"em:{c}-{t}")
        ideal += cnot
        reset_channel_qubits(net, records)
    return scope.report(
        "distributed-em",
        ideal,
        held,
        rounds=len(schedule),
        details={
            "shape": shape,
            "stages": len(schedule),
            "schedule": [[list(edge) for edge in stage] for stage in schedule],
        },
    )


# ---- qubit movement ------------------------------------------------------------


def teleport_with_reset(
    net: Network,
    source: QubitAddress,
    epr: tuple[QubitAddress, QubitAddress],
    empty: QubitAddress,
    *,
    check: bool = False,
) -> ProtocolReport:
    """Teleport into a register slot and leave every helper qubit in |0>.

    The state lands in `empty` (a |0> register qubit on the receiving
    node) by swapping it off the channel qubit, and the three consumed
    qubits (both pair halves and the source) are erased using their
    measurement outcomes. The source slot is then ready to receive a
    teleport in the opposite direction.
    """
    e_src, e_dst = epr
    if empty.pool != REGISTER:
        raise ValueError(f"the landing slot must be a register qubit, got {empty}")
    if empty.node != e_dst.node:
        raise ValueError(
            f"landing slot {empty} is not on the receiving node {e_dst.node}"
        )
    if not net.qubit_is(empty, 0):
        raise PreconditionError(f"landing slot {empty} must hold |0>")
    scope = _Scope(net, check)
    r1, r2 = teleport(net, source, (e_src, e_dst), tag="teleport")
    net.local_apply(SWAP, [e_dst, empty])
    reset_channel_qubits(net, [r1, r2])
    return scope.report(
        "teleport-with-reset",
        [(SWAP, [source, empty])],
        [e_src, e_dst],
        details={"destination": str(empty)},
    )


def _swap_over(
    net: Network, a: QubitAddress, b: QubitAddress, chans_a: Sequence[QubitAddress], chans_b: Sequence[QubitAddress],
    wait: QubitAddress, tag: str,
) -> None:
    """distributed_swap's gates on claimed qubits: b hops to a's node over
    the pair on the last of chans_a and chans_b, waits on `wait`, and a hops
    to b's node over the pair on the first of each."""
    ea, eb = chans_a[-1], chans_b[-1]
    net._write_cat([eb, ea])
    reset_channel_qubits(net, teleport(net, b, (eb, ea), tag=f"{tag}:b-to-a"))
    if wait != ea:
        net.local_apply(SWAP, [ea, wait])
    ea, eb = chans_a[0], chans_b[0]
    net._write_cat([ea, eb])
    reset_channel_qubits(net, teleport(net, a, (ea, eb), tag=f"{tag}:a-to-b"))
    with net.parallel_round():
        net.local_apply(SWAP, [wait, a])
        net.local_apply(SWAP, [eb, b])


def distributed_swap(
    net: Network,
    a: QubitAddress,
    b: QubitAddress,
    *,
    check: bool = False,
) -> ProtocolReport:
    """Exchange the states of two qubits on different nodes.

    Two teleportations, b to a and then a to b, each over its own EPR
    pair. b's state waits on a's node between the hops: on a's second
    channel qubit when both nodes have a second idle one, and otherwise on
    a |0> register qubit there, which ends back in |0>. Every qubit is
    claimed before the first gate, and each is probed at most once. The
    second pair is written after the first hop: its entanglement is assumed
    distributed between the hops. Costs 2 ebits and 4 cbits. The transform
    runs its cross-node reversal swaps through the same gates (_swap_over),
    on the two channel qubits per node it claims up front.
    """
    if a.node == b.node:
        raise ValueError(f"{a} and {b} share a node; apply a local swap")
    chans_a, chans_b = (_claim(net, q.node, CHANNEL, 1, [q]) for q in (a, b))
    try:
        # a second channel qubit on each node, probed from past the first
        for q, chans in ((a, chans_a), (b, chans_b)):
            chans += _claim(net, q.node, CHANNEL, 1, [q, *net.addresses(q.node, CHANNEL)[: chans[0].slot + 1]])
    except CapacityError:
        del chans_a[1:]
    # b's state waits on a's second channel qubit, or else in a register qubit there
    (wait,) = chans_a[1:] or _claim(net, a.node, REGISTER, 1, [a])
    scope = _Scope(net, check)
    _swap_over(net, a, b, chans_a, chans_b, wait, "dswap")
    return scope.report(
        "distributed-swap",
        [(SWAP, [a, b])],
        [*chans_a, *chans_b],
        details={"register_buffers_used": int(wait.pool == REGISTER)},
    )


# ---- multi-controlled gates -----------------------------------------------------


def nonlocal_multi_control(
    net: Network,
    controls: Sequence[QubitAddress],
    base: Any,
    target: QubitAddress,
    *,
    check: bool = False,
) -> ProtocolReport:
    """Apply base on `target` controlled on qubits spread across nodes.

    Every remote control is shared onto the target node through an EPR
    pair, then immediately swapped off the channel qubit onto a spare |0>
    register qubit so one channel slot on the target node serves all of
    them. On a control's node the consumed channel qubit stays held until
    its reset, so two remote controls there need two channel qubits. Both
    the ancillas and these channel qubits are claimed before any gate
    runs, and each share's pair is written onto its claimed channels. The
    multi-controlled gate runs locally, the shares are reclaimed, and
    ancillas and channel qubits are reset. Costs 1 ebit + 2 cbits per
    remote control.
    """
    controls = list(controls)
    if not controls:
        raise ValueError("need at least one control qubit")
    if len({*controls, target}) != len(controls) + 1:
        raise ValueError("controls and target must be distinct qubits")
    t_node = target.node
    remote = [c for c in controls if c.node != t_node]

    try:
        ancillas = _claim(net, t_node, REGISTER, len(remote), {target, *controls})
    except CapacityError as exc:
        raise CapacityError(
            f"{exc}, one per distributed control; decompose the gate instead (see decompose_multi_control_x)"
        ) from None
    own = [*controls, target, *ancillas]
    # one channel qubit per remote control on its node, one on the target's
    need = collections.Counter([c.node for c in remote] + ([t_node] if remote else []))
    chans = {node: _claim(net, node, CHANNEL, count, own) for node, count in need.items()}

    scope = _Scope(net, check)
    line_for: dict[QubitAddress, QubitAddress] = {c: c for c in controls}
    # each share's control, ancilla and the record of its consumed channel qubit
    shares: list[tuple[QubitAddress, QubitAddress, MeasurementRecord]] = []
    for ctrl, anc in zip(remote, ancillas):
        e_c, e_t = chans[ctrl.node].pop(0), chans[t_node][0]
        net._write_cat([e_c, e_t])
        group = cat_entangler(net, ctrl, (e_c, e_t), tag=f"mctrl:{ctrl.node}")
        net.local_apply(SWAP, [e_t, anc])
        line_for[ctrl] = anc
        shares.append((ctrl, anc, group.record))

    lines = [line_for[c] for c in controls]
    gate = make_controlled(ControlledSpec(len(controls), base))
    net.local_apply(gate, [*lines, target])

    for ctrl, anc, rec in shares:
        recs = cat_shrink(net, (ctrl, anc), ctrl, tag=f"mctrl:{ctrl.node}")
        reset_channel_qubits(net, [recs[0], rec])

    return scope.report(
        "nonlocal-multi-control",
        [(gate, [*controls, target])],
        [rec.address for _, _, rec in shares],
        details={"remote_controls": len(remote)},
    )


def decompose_multi_control_x(
    net: Network,
    controls: Sequence[QubitAddress],
    ancilla: QubitAddress,
    target: QubitAddress,
    *,
    check: bool = False,
) -> ProtocolReport:
    """Four-fold controlled X on six qubits without a wide controlled gate.

    Co-located layout: the standard borrowed-ancilla alternation of two
    double-controlled and two triple-controlled X gates; works for any
    ancilla state and restores it.

    Split layout (controls[0], controls[1], ancilla on one node;
    controls[2], controls[3], target on the other): the AND of the first
    two controls is written onto one EPR half and announced onto the other,
    the receiving node runs its triple-controlled X locally, and releasing
    the shared line costs one X-basis measurement plus a conditional CZ
    back on the first two controls. The EPR pair is written onto the first
    |0> channel qubit of each node outside the six qubits. One ebit, two
    cbits, the ancilla is not touched at all, and both channels end reset.
    """
    controls = list(controls)
    if len(controls) != 4:
        raise ValueError(f"exactly 4 control qubits required, got {len(controls)}")
    c1, c2, c3, c4 = controls
    six = [c1, c2, c3, c4, ancilla, target]
    if len(set(six)) != 6:
        raise ValueError("controls, ancilla, and target must be 6 distinct qubits")
    nodes = {q.node for q in six}

    if len(nodes) == 1:
        scope = _Scope(net, check)
        net.local_apply(TOFFOLI, [c1, c2, ancilla])
        net.local_apply(C3X, [c3, c4, ancilla, target])
        net.local_apply(TOFFOLI, [c1, c2, ancilla])
        net.local_apply(C3X, [c3, c4, ancilla, target])
        variant = "monolithic"
        exclude: list[QubitAddress] = []
    elif (
        len(nodes) == 2
        and c1.node == c2.node == ancilla.node
        and c3.node == c4.node == target.node
    ):
        top, bottom = c1.node, target.node
        e_top, e_bot = _fresh_cat(net, [top, bottom], six)
        scope = _Scope(net, check)
        net.local_apply(TOFFOLI, [c1, c2, e_top])
        r1 = net.measure(e_top)  # spends the pair carrying the AND value
        msg1 = net.send_cbit(ClassicalMessage(top, (bottom,), [r1], "c4x:and"))
        net.classically_controlled_apply(msg1, X, e_bot)
        net.local_apply(C3X, [c3, c4, e_bot, target])
        r2 = net.measure_x(e_bot)
        msg2 = net.send_cbit(ClassicalMessage(bottom, (top,), [r2], "c4x:phase"))
        net.classically_controlled_apply(msg2, CZ, [c1, c2])
        reset_channel_qubits(net, [r1, r2])
        variant = "distributed"
        exclude = [e_top, e_bot]
    else:
        raise ValueError(
            "supported layouts: all six qubits on one node, or controls[0:2] + "
            "ancilla on one node and controls[2:4] + target on another"
        )

    return scope.report(
        "decompose-c4x",
        [(C4X, [c1, c2, c3, c4, target])],
        exclude,
        details={"variant": variant},
    )
