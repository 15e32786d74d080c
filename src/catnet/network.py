"""Multi-node execution layer.

A Network owns one global state spanning every qubit of every node (a
product of independent blocks, see qstate), but the operation surface only
permits what distributed hardware could do: gates act on qubits of a
single node, qubits move between nodes only as channel qubits traded in
an exchange, and classical bits are usable at a node only after being
measured there or received in a message. A message names the records and
messages whose XOR it carries, its sources, and its sender must hold each
one, so the network derives every bit it delivers. Resource counters
(ebits, cbits, transports, rounds) are maintained by the operations
themselves.

Each node owns a register pool (long-lived data qubits) and a channel pool
(communication qubits). All slots start occupied by |0> qubits. One table,
`ownership`, records them: it maps each slot's address to the global index
of the qubit held there. Its keys are fixed when the network is built, and
a qubit changes slots only as two of its values swap: across nodes in an
exchange, and within a node in a SWAP gate, which moves no amplitude.
global_index is the one lookup, so an address outside the table raises the
same error at every entry point, and each operation resolves every address
it is given once and charges the round with the global indices it touches.

Shared pairs and cats are resources spent once. The network keeps one
table of unspent shares, keyed by global index, so a share follows its
qubit through exchanges and SWAPs: writing a pair or cat registers its
qubits, the first measurement of any share charges the resource's ebits
(one fewer than its shares) and spends it, and writing a pair onto a qubit
that still holds an unspent share raises ResourceError before any gate.

A run carries one or more rows of the state: measurement branches (see
split_outcomes), inputs of a stack, or sampled runs that each draw from a
generator of their own (see rngs). Gates, ledger and rounds are shared by
every row; outcomes, the bits messages derive from them and branch
probabilities are per-row values (arrays over the state's row axes, see
qstate), a classically controlled gate fires only on the rows whose
control bits XOR to 1, and a probe of the state must answer alike on
every row or raise BranchDivergenceError.
"""

from __future__ import annotations

import collections
import functools
import operator
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import qstate
from .errors import (
    BranchDivergenceError,
    CausalityError,
    LocalityError,
    PoolError,
    PreconditionError,
    ResourceError,
)
from .gates import CNOT, SWAP, H
from .qstate import GateMatrix, MeasurementRecord, StateVector

REGISTER = "register"
CHANNEL = "channel"


class QubitAddress(collections.namedtuple("QubitAddress", "node pool slot")):
    """Where a qubit lives: node id, pool kind, slot index.

    A tuple, so hashing and comparing (ordered by node, pool, slot) run in C:
    the network looks addresses up on every operation.
    """

    __slots__ = ()

    def __new__(cls, node: str, pool: str, slot: int) -> "QubitAddress":
        if pool not in (REGISTER, CHANNEL):
            raise ValueError(f"pool must be {REGISTER!r} or {CHANNEL!r}, got {pool!r}")
        return super().__new__(cls, node, pool, slot)

    def __str__(self) -> str:
        return f"{self.node}.{self.pool}[{self.slot}]"


@dataclass(frozen=True)
class ClassicalMessage:
    """A classical bit in flight: sender, recipients, sources, label.

    `sources` are the measurement records and messages whose XOR the
    message carries; send_cbit checks that the sender holds each of them.
    `bit` is derived from them, a per-row value, so no caller hands in a
    payload of its own.
    """

    sender: str
    to: tuple[str, ...]
    sources: tuple[ControlToken, ...]
    tag: str

    def __post_init__(self) -> None:
        to = (self.to,) if isinstance(self.to, str) else tuple(self.to)
        object.__setattr__(self, "to", to)
        object.__setattr__(self, "sources", tuple(self.sources))

    @property
    def bit(self) -> np.ndarray:
        """The XOR of the sources' outcomes and bits."""
        bits = [s.outcome if isinstance(s, MeasurementRecord) else s.bit for s in self.sources]
        return functools.reduce(operator.xor, bits)


@dataclass
class ResourceLedger:
    """Cumulative cost counters for a network or a protocol section."""

    ebits_consumed: int = 0
    cbits_sent: int = 0
    qubits_transported: int = 0
    rounds: int = 0

    def snapshot(self) -> "ResourceLedger":
        return ResourceLedger(
            self.ebits_consumed, self.cbits_sent, self.qubits_transported, self.rounds
        )

    def delta_since(self, snap: "ResourceLedger") -> "ResourceLedger":
        return ResourceLedger(
            self.ebits_consumed - snap.ebits_consumed,
            self.cbits_sent - snap.cbits_sent,
            self.qubits_transported - snap.qubits_transported,
            self.rounds - snap.rounds,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "ebits": self.ebits_consumed,
            "cbits": self.cbits_sent,
            "qubits_transported": self.qubits_transported,
            "rounds": self.rounds,
        }


ControlToken = MeasurementRecord | ClassicalMessage


def _count(value: object, what: str) -> int:
    """`value` as a count: anything but an integer >= 0 (1.5, 2.0, nan, -1)
    raises ValueError rather than be truncated."""
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {value!r}")
    return int(value)


def _one_answer(answer: np.ndarray, what: str, addrs: Sequence[object] = ()) -> bool:
    """The answer of a probe: per-row answers that must all agree.

    The error names `what` (followed by `addrs`, if given) when they do not.
    """
    hits = np.count_nonzero(answer)
    if hits == answer.size:
        return True
    if not hits:
        return False
    if addrs:
        what = f"{what} {[str(a) for a in addrs]}"
    raise BranchDivergenceError(
        f"{what} holds on {hits} of {answer.size} branch rows; "
        f"protocol structure must not depend on measurement outcomes"
    )


class Network:
    """A set of nodes sharing one exact global state.

    `state` is a StateVector that the network owns and mutates: gates,
    measurements and setup helpers all change that one state in place, so
    a caller that needs the state as it was must copy it; a split
    measurement doubles its rows.

    `rngs` holds one generator per row, in row order, and a measurement
    that no forced outcome or split covers draws each row's outcome from
    the row's own generator (qstate.measure): a row of a sampled sweep draws
    exactly what a run of that row alone would. It starts as the one
    generator random.Random(seed); a sweep that gives the network more rows
    sets one per row, or none where every outcome must be forced or split,
    so that a draw raises UnforcedOutcomeError.
    """

    def __init__(
        self,
        nodes: Sequence[tuple[str, int, int]],
        seed: int | None = None,
    ) -> None:
        specs = [(str(n), _count(r, "register count"), _count(c, "channel count")) for n, r, c in nodes]
        self.nodes: tuple[str, ...] = tuple(name for name, _, _ in specs)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"duplicate node names: {list(self.nodes)}")
        # the one record of the qubits: address -> global index, in node order
        # and, within a node, registers before channels
        self.ownership: dict[QubitAddress, int] = {}
        for name, registers, channels in specs:
            if registers + channels == 0:
                raise ValueError(f"node {name} needs at least one qubit slot")
            for pool, count in ((REGISTER, registers), (CHANNEL, channels)):
                for slot in range(count):
                    self.ownership[QubitAddress(name, pool, slot)] = len(self.ownership)
        self.num_qubits = len(self.ownership)
        self.state: StateVector = qstate.basis_state(self.num_qubits, 0)
        self.ledger = ResourceLedger()
        self.message_log: list[ClassicalMessage] = []
        self.records: list[MeasurementRecord] = []
        self.rngs: list[random.Random] = [random.Random(seed)]
        # the product of every outcome's probability, a per-row value
        self.branch_probability: np.ndarray = np.ones(1)
        self._forced: collections.deque[int] = collections.deque()
        self._splits = 0
        # ids of the records and messages made here, for causality checks
        self._token_ids: set[int] = set()
        self._in_round = False
        self._round_touched: set[int] = set()
        # global index -> the shares of the unspent resource it belongs to
        self._shares: dict[int, tuple[int, ...]] = {}

    # ---- addressing -----------------------------------------------------

    def reg(self, node: str, slot: int = 0) -> QubitAddress:
        self.global_index(addr := QubitAddress(node, REGISTER, slot))
        return addr

    def chan(self, node: str, slot: int = 0) -> QubitAddress:
        self.global_index(addr := QubitAddress(node, CHANNEL, slot))
        return addr

    def global_index(self, addr: QubitAddress) -> int:
        """The global index of the qubit held at `addr`: the one address
        lookup. An address outside the table raises ValueError naming an
        unknown node or a slot out of range."""
        try:
            return self.ownership[addr]
        except KeyError:
            if addr.node not in self.nodes:
                raise ValueError(f"unknown node {addr.node!r}") from None
            raise ValueError(f"slot out of range for {addr}") from None

    def addresses(self, node: str | None = None, pool: str | None = None) -> list[QubitAddress]:
        out = [
            a
            for a in self.ownership
            if (node is None or a.node == node) and (pool is None or a.pool == pool)
        ]
        return sorted(out)

    # ---- round accounting ------------------------------------------------

    @contextmanager
    def parallel_round(self):
        """Group the enclosed operations into one scheduling round.

        Operations inside the batch must touch pairwise-disjoint qubits.
        """
        if self._in_round:
            raise ValueError("parallel rounds do not nest")
        self._in_round = True
        self._round_touched = set()
        self.ledger.rounds += 1
        try:
            yield self
        finally:
            self._in_round = False
            self._round_touched = set()

    def _account_round(self, indices: Iterable[int]) -> None:
        if self._in_round:
            overlap = self._round_touched.intersection(indices)
            if overlap:
                raise ValueError(
                    f"operations in one parallel round must touch disjoint qubits "
                    f"(global indices {sorted(overlap)} reused)"
                )
            self._round_touched.update(indices)
        else:
            self.ledger.rounds += 1

    # ---- quantum operations ----------------------------------------------

    def local_apply(self, gate: GateMatrix, targets: Sequence[QubitAddress]) -> None:
        """Apply a gate whose targets all sit on one node.

        A SWAP of two qubits (any gate whose image is SWAP's) trades their
        slots in `ownership`, as an exchange does across nodes, and leaves
        the state as it is.
        """
        targets = list(targets)  # read twice: resolved, then their nodes
        idx = [self.global_index(t) for t in targets]
        if not idx:
            raise ValueError("no target qubits given")
        nodes = {t.node for t in targets}
        if len(nodes) > 1:
            raise LocalityError(
                f"gate targets span nodes {sorted(nodes)}; gates are node-local"
            )
        self._account_round(idx)
        if gate.image == SWAP.image and len(set(idx)) == len(idx) == 2:
            a, b = targets
            self.ownership[a], self.ownership[b] = idx[1], idx[0]
        else:
            qstate.apply_gate(self.state, gate, idx)

    def measure(self, addr: QubitAddress) -> MeasurementRecord:
        """Measure one qubit in the Z basis.

        Outcomes come from, in priority order: the queue loaded by
        force_outcomes(), a split (split_outcomes()), or a draw from each
        row's generator (rngs).
        """
        return self._measure(addr, x_basis=False)

    def measure_x(self, addr: QubitAddress) -> MeasurementRecord:
        """X-basis measurement (H then Z-measure) as one scheduling step."""
        return self._measure(addr, x_basis=True)

    def _measure(self, addr: QubitAddress, x_basis: bool) -> MeasurementRecord:
        """One call of qstate.measure, the one collapse kernel, with the
        outcome source measure() names: a forced bit, no source for a split,
        or the rows' generators. The first measurement of a share spends its
        resource."""
        gidx = self.global_index(addr)
        self._account_round([gidx])
        if x_basis:
            qstate.apply_gate(self.state, H, [gidx])
        forced = self._forced.popleft() if self._forced else None
        split = forced is None and self._splits > 0
        rngs = self.rngs if forced is None and not split else None
        rec = qstate.measure(self.state, gidx, rngs=rngs, forced=forced)
        self._splits -= split
        self.branch_probability = self.branch_probability * rec.probability
        spent = self._shares.get(gidx)
        if spent:
            self.ledger.ebits_consumed += len(spent) - 1
            for share in spent:
                del self._shares[share]
        record = MeasurementRecord(addr, rec.outcome, rec.probability)
        self.records.append(record)
        self._token_ids.add(id(record))
        return record

    def force_outcomes(self, bits: Iterable[int]) -> None:
        """Queue outcomes for upcoming measurements (branch enumeration)."""
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"forced outcomes must be bits, got {b}")
            self._forced.append(int(b))

    def split_outcomes(self, count: int) -> None:
        """Let the next `count` measurements that the forced queue does not
        cover take both outcomes.

        Each such measurement is qstate.measure given no outcome source,
        which turns row r of the state into rows 2r (outcome 0) and 2r+1
        (outcome 1), so after k splits the rows are the 2^k branches in
        order, the first split outcome the most significant bit of the row
        index. The rows are stored as a grid with one axis per split (see
        qstate): only the measured block gains the new axis, and a
        correction that makes a block's two outcome halves bitwise equal
        stores them once again.
        """
        self._splits += _count(count, "split count")

    @property
    def rows(self) -> int:
        """Branch rows the state carries: 1 until a measurement splits it."""
        return self.state.rows

    @property
    def pending_outcomes(self) -> int:
        """Forced outcomes queued but not yet consumed."""
        return len(self._forced)

    # ---- classical communication ------------------------------------------

    def send_cbit(self, msg: ClassicalMessage) -> ClassicalMessage:
        """Send one classical bit, the XOR of the message's sources; each
        remote recipient costs one cbit.

        The sender must hold every source: a record of a measurement made
        at the sender, or a message sent to it. A source it does not hold
        raises CausalityError; no sources, no recipient or a recipient
        named twice raise ValueError. Both are raised before anything is
        charged or logged.
        """
        if msg.sender not in self.nodes:
            raise ValueError(f"unknown sender {msg.sender!r}")
        if not msg.to or len(set(msg.to)) != len(msg.to):
            raise ValueError(f"a message needs distinct recipients, got {list(msg.to)}")
        for dest in msg.to:
            if dest not in self.nodes:
                raise ValueError(f"unknown recipient {dest!r}")
        if not msg.sources:
            raise ValueError(f"message {msg.tag!r} names no source bits")
        for source in msg.sources:
            self._token_bit_at(source, msg.sender)
        self._account_round([])
        self.message_log.append(msg)
        self._token_ids.add(id(msg))
        self.ledger.cbits_sent += sum(1 for dest in msg.to if dest != msg.sender)
        return msg

    def knows(self, token: ControlToken) -> bool:
        """True when the record or message was made by this network."""
        return id(token) in self._token_ids

    def _token_bit_at(self, token: ControlToken, node: str) -> np.ndarray:
        if isinstance(token, MeasurementRecord):
            if not self.knows(token):
                raise CausalityError("measurement record does not belong to this network")
            if token.address.node != node:
                raise CausalityError(
                    f"bit measured at {token.address.node} was never sent to {node}"
                )
            return token.outcome
        if isinstance(token, ClassicalMessage):
            if not self.knows(token):
                raise CausalityError("message was never sent on this network")
            if node != token.sender and node not in token.to:
                raise CausalityError(
                    f"message {token.tag!r} from {token.sender} was not addressed to {node}"
                )
            return token.bit
        raise ValueError(f"control must be a record or message, got {type(token).__name__}")

    def classically_controlled_apply(
        self,
        controls: ControlToken | Sequence[ControlToken],
        gate: GateMatrix,
        targets: QubitAddress | Sequence[QubitAddress],
    ) -> np.ndarray:
        """Apply `gate` on the rows where the XOR of the control bits is 1.

        Every control bit must be available at the target node: measured
        there, or delivered there by a logged message. The scheduling round
        is charged whether or not the gate fires, so costs do not depend on
        measurement outcomes. Returns the XOR of the control bits, a per-row
        value that is 1 on the rows the gate fired on. No targets or no
        controls raise ValueError before the round is charged.
        """
        targets = [targets] if isinstance(targets, QubitAddress) else list(targets)
        idx = [self.global_index(t) for t in targets]
        if isinstance(controls, (MeasurementRecord, ClassicalMessage)):
            controls = [controls]
        if not idx or not controls:
            raise ValueError("no target qubits given" if controls else "no control bits given")
        nodes = {t.node for t in targets}
        if len(nodes) > 1:
            raise LocalityError(f"controlled correction spans nodes {sorted(nodes)}")
        node = targets[0].node
        bit = functools.reduce(operator.xor, [self._token_bit_at(token, node) for token in controls])
        self._account_round(idx)
        hits = np.count_nonzero(bit)  # every row fires, some do, or none
        if 0 < hits < bit.size:
            qstate.apply_gate(self.state, gate, idx, rows=bit == 1)
        elif hits:
            qstate.apply_gate(self.state, gate, idx)
        return bit

    # ---- qubit movement ----------------------------------------------------

    def exchange_channel_qubits(
        self, addr_a: QubitAddress, addr_b: QubitAddress
    ) -> tuple[QubitAddress, QubitAddress]:
        """Two nodes swap one channel qubit each, as one crossing shipment.

        Counts two transports and one round; inside a parallel round it
        touches the two qubits it ships, like any other operation. Returns
        the new addresses of the qubits formerly at addr_a and addr_b (they
        trade slots, so no free capacity is needed).
        """
        ga, gb = self.global_index(addr_a), self.global_index(addr_b)
        if addr_a.pool != CHANNEL or addr_b.pool != CHANNEL:
            raise PoolError("only channel qubits travel")
        if addr_a.node == addr_b.node:
            raise ValueError("exchange requires two different nodes")
        self._account_round([ga, gb])
        self.ownership[addr_a], self.ownership[addr_b] = gb, ga
        self.ledger.qubits_transported += 2
        return addr_b, addr_a

    # ---- state inspection ---------------------------------------------------

    def qubit_is(self, addr: QubitAddress, bit: int | np.ndarray) -> bool:
        """True when the qubit at addr reads `bit` with probability 1.

        `bit` may be per-row bits (a measurement outcome, say); any value
        but 0 or 1, or per-row bits that do not fit the state's rows, raises
        ValueError, whether the qubit is fixed or live. Every row must give
        the same answer, or the probe raises BranchDivergenceError.
        """
        if isinstance(bit, np.ndarray) or bit not in (0, 1):
            # the shape as given, before _bits compacts it: an array over
            # the grid's trailing axes, of size 1 or the axis's size on each
            shape, grid, bit = np.shape(bit), self.state.grid, qstate._bits(bit, "expected bit")
            if len(shape) > len(grid) or any(b not in (1, g) for b, g in zip(shape[::-1], grid[::-1])):
                raise ValueError(f"expected bit of shape {shape} does not fit the state's rows (grid {grid})")
        return self._holds(addr, self.global_index(addr), bit)

    def _holds(self, addr: QubitAddress, gidx: int, bit: int | np.ndarray) -> bool:
        """qubit_is on an address already resolved to `gidx`."""
        answer = qstate.partial_state_check(self.state, gidx, bit)
        return _one_answer(answer, "the expected bit on", [addr])

    def last_record(self, addr: QubitAddress) -> MeasurementRecord | None:
        for rec in reversed(self.records):
            if rec.address == addr:
                return rec
        return None

    # ---- bootstrap helpers ----------------------------------------------------

    def preshare_epr(self, addr_a: QubitAddress, addr_b: QubitAddress) -> None:
        """Write (|00> + |11>)/sqrt(2) onto two |0> qubits directly.

        Setup-only shortcut standing in for entanglement distributed before
        the protocol under study begins; it bypasses locality on purpose.
        Writing charges nothing: the first measurement of either half spends
        the pair and charges its ebit. The in-model path is
        establish_epr_exchange.
        """
        self.preshare_cat([addr_a, addr_b])

    def preshare_cat(self, addrs: Sequence[QubitAddress]) -> None:
        """Write (|0..0> + |1..1>)/sqrt(2) onto the listed |0> qubits.

        Qubits fixed at |0> (never touched, or measured and reset) become
        a block of their own, apart from the rest of the state until a
        gate joins them to it.
        """
        addrs = list(addrs)  # read twice: resolved, then named by the probe
        idx = [self.global_index(a) for a in addrs]
        if len(idx) < 2:
            raise ValueError("a shared cat state needs at least 2 qubits")
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate addresses in cat preparation")
        for a, i in zip(addrs, idx):
            if not self._holds(a, i, 0):
                raise PreconditionError(f"{a} must hold |0> before entanglement setup")
        self._cat_at(idx)

    def _write_cat(self, addrs: Sequence[QubitAddress]) -> None:
        """Write a cat onto qubits the caller has found at |0>, with no probe.
        A qubit that still holds an unspent share raises ResourceError with
        the network unchanged."""
        self._cat_at([self.global_index(a) for a in addrs])

    def _cat_at(self, idx: Sequence[int]) -> None:
        """The one cat writer: registers the qubits as one resource's shares
        (_share), then H on the first qubit and a CNOT from it onto each
        other one."""
        self._share(idx)
        qstate.apply_gate(self.state, H, [idx[0]])
        for other in idx[1:]:
            qstate.apply_gate(self.state, CNOT, [idx[0], other])

    def _share(self, *resources: Sequence[int]) -> None:
        """Register each of `resources` (the global indices of a pair or a
        cat) as one unspent resource, which the first measurement of any of
        its shares spends. A qubit that still holds an unspent share raises
        ResourceError before anything is registered."""
        held = [i for res in resources for i in res if i in self._shares]
        if held:
            names = [str(a) for a, i in self.ownership.items() if i in held]
            raise ResourceError(f"{names} still hold an unspent share of a pair or cat")
        for res in resources:
            self._shares.update(dict.fromkeys(res, tuple(res)))

    def inject_state(self, addrs: Sequence[QubitAddress], amplitudes) -> None:
        """Overwrite the global state with a chosen input (setup only).

        The listed qubits receive the given joint amplitudes (first address
        = most significant bit) as the state's one block; every other qubit
        is fixed at |0>. Normalizes: a zero, nan or infinite input, or one
        whose norm overflows, raises ValueError. The network must be
        unsplit and hold no measurement record and no unspent share: its
        rows' probabilities, records and shares would not describe the new
        state.

        A (R, 2^k) stack makes row i hold row i of the stack, normalized on
        its own, and rows that are bitwise equal are stored once; after s
        splits row i's branches are rows i * 2^s to (i + 1) * 2^s - 1.
        """
        if self.rows > 1 or self.records or self._shares:
            raise ValueError("inject_state needs an unsplit network with no measurement record or unspent share")
        idx = [self.global_index(a) for a in addrs]
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate addresses in input preparation")
        k = len(idx)
        amps = np.ascontiguousarray(np.atleast_2d(amplitudes), dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != 2**k:
            raise ValueError(f"expected {2**k} amplitudes (per input) for {k} qubits, got shape {amps.shape}")
        # one reduction per row, so each input's norm is the one it has alone
        f = amps.view(np.float64)
        norm = np.sqrt(np.einsum("ri,ri->r", f, f))
        if not np.all((norm >= qstate.ZERO_CUTOFF) & (norm < np.inf)):  # a nan fails both
            raise ValueError("cannot inject the zero vector, or amplitudes that are not finite or whose norm overflows")
        # a block's axes run in ascending global index; reorder the
        # input's to match (one row per input of a stack)
        axes = (0, *(1 + np.argsort(idx)))
        block = np.transpose((amps / norm[:, None]).reshape((-1,) + (2,) * k), axes).reshape(len(amps), -1)
        zero = np.zeros(1, dtype=np.int64)
        self.state = StateVector(self.num_qubits, block, {q: zero for q in range(self.num_qubits) if q not in idx})
