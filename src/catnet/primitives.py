"""Cat-state channel primitives.

Two operations carry all non-local behaviour in this package. The entangler
splices a control qubit into a shared cat state, so that several nodes hold
qubits that act as copies of the control for classical-basis purposes. The
disentangler (cat_shrink) releases members from such a group with X-basis
measurements and a single conditional phase fix, leaving the survivor(s)
carrying the original amplitudes.

Teleportation is the two composed back to back over an EPR pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qstate
from .errors import EntanglementError, ResourceError
from .gates import CNOT, X, Z
from .network import ClassicalMessage, Network, QubitAddress, _one_answer
from .qstate import ATOL, MeasurementRecord


@dataclass(frozen=True)
class CatGroup:
    """A control plus the cat members now carrying its basis value.

    `measured` is the channel qubit consumed to set the group up; it is left
    in the classical state given by `record.outcome`.
    """

    members: tuple[QubitAddress, ...]
    measured: QubitAddress
    record: MeasurementRecord
    message: ClassicalMessage


def _require_correlated(
    net: Network, addrs: Sequence[QubitAddress], what: str
) -> np.ndarray:
    """Check the qubits only ever read all-0 or all-1 together.

    Returns their amplitudes by bit pattern (first address = most
    significant bit), the (rows, 2^k, rest) array of
    qstate.pattern_weights, whose pattern weights make the check. On a
    split state the check is made per row, and rows that disagree raise
    BranchDivergenceError.
    """
    psi, weights = qstate.pattern_weights(net.state, [net.global_index(a) for a in addrs])
    mixed = np.sqrt(weights[:, 1:-1].sum(axis=1))
    if _one_answer(mixed > ATOL, "a mix of patterns on", addrs):
        raise EntanglementError(
            f"{what} requires qubits {[str(a) for a in addrs]} to agree in the "
            f"classical basis; mixed patterns carry weight {mixed.max():.3e}"
        )
    return psi


def _require_fresh_cat(net: Network, addrs: Sequence[QubitAddress]) -> None:
    """Check the qubits hold (|0..0> + |1..1>)/sqrt(2), nothing else attached."""
    psi = _require_correlated(net, addrs, "the entangler")
    diff = (psi[:, 0] - psi[:, -1]).view(np.float64)
    differ = np.sqrt(np.einsum("ri,ri->r", diff, diff)) > ATOL
    if _one_answer(differ, "a broken cat state on", addrs):
        raise EntanglementError(
            f"qubits {[str(a) for a in addrs]} are not in a fresh shared cat state "
            f"(the all-0 and all-1 branches differ)"
        )


def cat_entangler(
    net: Network,
    control: QubitAddress,
    cat: Sequence[QubitAddress],
    *,
    tag: str = "entangle",
) -> CatGroup:
    """Splice `control` into a shared cat state held at `cat`.

    cat[0] must sit on the control's node and is consumed: a CNOT copies the
    control onto it, it is measured, and a message whose source is that
    record is broadcast so every other member can flip itself to match the
    control. Afterwards control and cat[1:] form one correlated group
    carrying the control's amplitudes, and cat[0] is left in the announced
    classical state.

    `cat` must be exactly the shares of one unspent pair or cat that the
    Network registered, so that spending it charges its ebits; other
    qubits in a cat state, built by hand say, raise ResourceError before
    any gate. Costs one cbit per distinct remote member node, and
    measuring cat[0] spends the shared cat: the Network charges its
    len(cat)-1 ebits.
    """
    cat = list(cat)
    if len(cat) < 2:
        raise ValueError("the entangler needs a shared cat state of at least 2 qubits")
    seen = {control, *cat}
    if len(seen) != len(cat) + 1:
        raise ValueError("control and cat members must be distinct qubits")
    if cat[0].node != control.node:
        raise EntanglementError(
            f"one cat member must sit with the control ({control.node}); "
            f"got {cat[0]} instead"
        )
    _require_fresh_cat(net, cat)
    shares = [net.global_index(a) for a in cat]
    if set(net._shares.get(shares[0], ())) != set(shares):
        raise ResourceError(f"qubits {[str(a) for a in cat]} are not the shares of one unspent pair or cat")

    net.local_apply(CNOT, [control, cat[0]])
    rec = net.measure(cat[0])

    member_nodes: list[str] = []
    for a in cat[1:]:
        if a.node not in member_nodes:
            member_nodes.append(a.node)
    msg = net.send_cbit(ClassicalMessage(cat[0].node, tuple(member_nodes), [rec], f"{tag}:broadcast"))
    with net.parallel_round():
        for member in cat[1:]:
            net.classically_controlled_apply(msg, X, member)

    return CatGroup((control, *cat[1:]), cat[0], rec, msg)


def cat_shrink(
    net: Network,
    members: Sequence[QubitAddress],
    keep: QubitAddress | Sequence[QubitAddress],
    *,
    tag: str = "shrink",
) -> list[MeasurementRecord]:
    """The paper's cat-disentangler: release group members, leaving `keep`
    with the original amplitudes.

    cat_shrink(net, group.members, control) undoes cat_entangler's fan-out;
    any member, or several, may survive instead. The dropped qubits are
    measured in the X basis in one round; each other node that measured
    sends the survivor's node a message naming its own records, which
    carries their parity, and a single conditional Z there, controlled by
    those messages and the survivor node's own records, repairs the sign.
    Only classical-basis agreement across `members` is needed, so this
    works even while the group is entangled with outside qubits.

    Costs one cbit per distinct remote measuring node. Dropped qubits end
    in |+> or |-> collapsed form, i.e. classical states after the H.
    """
    if isinstance(keep, QubitAddress):
        keep = [keep]
    members = list(members)
    keep = list(keep)
    if not keep:
        raise ValueError("at least one member must survive the shrink")
    for k in keep:
        if k not in members:
            raise ValueError(f"{k} is not a member of the group being shrunk")
    dropped = [m for m in members if m not in keep]
    if len(set(members)) != len(members):
        raise ValueError("duplicate addresses in group")
    if not dropped:
        return []  # keeping everything is the identity
    _require_correlated(net, members, "the disentangler")

    fix = keep[0]
    with net.parallel_round():
        records = [net.measure_x(d) for d in dropped]

    by_node: dict[str, list[MeasurementRecord]] = {}
    for rec in records:
        by_node.setdefault(rec.address.node, []).append(rec)
    controls: list[ClassicalMessage | MeasurementRecord] = by_node.pop(fix.node, [])
    if by_node:
        with net.parallel_round():
            for node, recs in by_node.items():
                controls.append(net.send_cbit(ClassicalMessage(node, (fix.node,), recs, f"{tag}:parity")))
    net.classically_controlled_apply(controls, Z, fix)
    return records


def teleport(
    net: Network,
    source: QubitAddress,
    epr: tuple[QubitAddress, QubitAddress],
    *,
    tag: str = "teleport",
) -> tuple[MeasurementRecord, MeasurementRecord]:
    """Move the state at `source` onto epr[1] over a shared EPR pair.

    epr[0] must sit with the source. Entangle source into the pair, then
    shrink the group down to epr[1]. Afterwards epr[1] carries the state,
    while source and epr[0] are left in the classical states given by the
    two returned measurement records. Costs 1 ebit and 2 cbits.
    """
    group = cat_entangler(net, source, epr, tag=tag)
    dropped = cat_shrink(net, group.members, epr[1], tag=tag)
    return group.record, dropped[0]
