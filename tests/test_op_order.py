"""Each protocol's Network operations, in order, pinned against
protocol_op_order.json.

An entry is one call of a recorded Network operation: ledger.rounds after
the call, then the operation's name and the addresses it acts on (a
message's sender, recipients and tag). preshare_* calls are left out: they
set a pair up without charging for it, and where that happens is not part
of a protocol's order. Calls in one parallel round share their rounds
value and may run in any order, so the comparison is between the entries
as multisets: each carries its round, which fixes the order between
rounds.

To re-record the file after an intended change of order, run
`PYTHONPATH=src python tests/test_op_order.py`.
"""

import json
from pathlib import Path

import pytest

from catnet.gates import CNOT, H, X
from catnet.network import Network, QubitAddress
from catnet.protocols import (
    distributed_em,
    distributed_swap,
    em_channel_requirements,
    nonlocal_cnot,
    nonlocal_controlled_sequence,
    parallel_distributed_control,
)

PINNED = Path(__file__).parent / "protocol_op_order.json"

OPS = (
    "local_apply",
    "measure",
    "measure_x",
    "send_cbit",
    "classically_controlled_apply",
    "exchange_channel_qubits",
)


def _entry(op, args):
    if op == "send_cbit":
        msg = args[0]
        return f"send_cbit {msg.sender}->{','.join(msg.to)} {msg.tag}"
    if op == "local_apply":
        addrs = args[1]
    elif op == "classically_controlled_apply":
        addrs = args[2]
    elif op == "exchange_channel_qubits":
        addrs = args
    else:  # measure and measure_x: the address, not `forced`
        addrs = args[:1]
    return " ".join([op, *map(str, [addrs] if isinstance(addrs, QubitAddress) else addrs)])


def recorded(run):
    """The recorded operations `run()` makes, as "rounds: entry" strings."""
    log = []
    saved = {op: getattr(Network, op) for op in OPS}

    def wrap(op, fn):
        def call(net, *args, **kwargs):
            out = fn(net, *args, **kwargs)
            log.append(f"{net.ledger.rounds}: {_entry(op, args)}")
            return out

        return call

    try:
        for op, fn in saved.items():
            setattr(Network, op, wrap(op, fn))
        run()
    finally:
        for op, fn in saved.items():
            setattr(Network, op, fn)
    return log


def _cnot():
    net = Network([("A", 1, 1), ("B", 1, 1)], seed=0)
    nonlocal_cnot(net, net.reg("A"), net.reg("B"))


def _sequence(k):
    net = Network([("A", 1, 1), ("B", 2, 1)], seed=0)
    b0, b1 = net.reg("B", 0), net.reg("B", 1)
    gates = [(H, [b0]), (X, [b1]), (CNOT, [b0, b1])][:k]
    nonlocal_controlled_sequence(net, net.reg("A"), gates)


def _parallel(k):
    parts = [f"P{i}" for i in range(1, k + 1)]
    net = Network([("C", 1, 1), *((p, 1, 1) for p in parts)], seed=0)
    parallel_distributed_control(net, net.reg("C"), [(p, X, [net.reg(p)]) for p in parts])


def _em(m, shape):
    names = [f"N{i}" for i in range(m)]
    net = Network([(n, 1, r) for n, r in zip(names, em_channel_requirements(m, shape))], seed=0)
    distributed_em(net, names, shape)


def _swap(chans_a, chans_b):
    # A holds a second register qubit, the buffer, wherever one is needed
    net = Network([("A", 1 if chans_a == chans_b == 2 else 2, chans_a), ("B", 1, chans_b)], seed=0)
    distributed_swap(net, net.reg("A"), net.reg("B"))


CASES = {
    "nonlocal-cnot": _cnot,
    "sequence 1": lambda: _sequence(1),
    "sequence 3": lambda: _sequence(3),
    "parallel 1": lambda: _parallel(1),
    "parallel 3": lambda: _parallel(3),
    **{
        f"em {shape} {m}": (lambda m=m, shape=shape: _em(m, shape))
        for shape in ("linear", "binary-tree")
        for m in range(2, 6)
    },
    **{
        f"swap {ca}/{cb}": (lambda ca=ca, cb=cb: _swap(ca, cb))
        for ca, cb in ((2, 2), (2, 1), (1, 2), (1, 1))
    },
}


@pytest.mark.parametrize("case", CASES)
def test_protocol_runs_its_pinned_operations(case):
    want = json.loads(PINNED.read_text())[case]
    assert sorted(recorded(CASES[case])) == sorted(want)


if __name__ == "__main__":
    PINNED.write_text(json.dumps({case: recorded(run) for case, run in CASES.items()}, indent=1) + "\n")
