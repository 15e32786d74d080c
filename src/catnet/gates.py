"""Gate constructors: fixed gates, controlled wrappers, phase rotations, and
the cat/GHZ preparation schedules in their two shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from .qstate import GateMatrix

SQRT2_INV = 1.0 / math.sqrt(2.0)

IDENTITY = GateMatrix(np.eye(2))
X = GateMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
Z = GateMatrix(np.array([[1, 0], [0, -1]], dtype=complex))
H = GateMatrix(np.array([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]]))
CNOT = GateMatrix(
    np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
)
SWAP = GateMatrix(
    np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
)

EM_SHAPES = ("linear", "binary-tree")


@dataclass(frozen=True)
class ControlledSpec:
    """How to wrap a base unitary in control qubits.

    Control wires come first (most significant), the base acts on the least
    significant wires only when every control reads 1.
    """

    num_controls: int
    base: GateMatrix


def make_controlled(spec: ControlledSpec) -> GateMatrix:
    """Build the controlled gate described by `spec`.

    The result is the identity on the full space except that the final block
    (all controls 1) equals the base matrix. num_controls=0 returns a gate
    equal to the base itself. Equal specs (same control count, same base
    matrix) return the same GateMatrix object.
    """
    if spec.num_controls < 0:
        raise ValueError(f"num_controls must be >= 0, got {spec.num_controls}")
    return _controlled(spec.num_controls, spec.base.matrix.tobytes())


# Keyed by content, so the gates a protocol wraps afresh on every call are
# built and validated once; bounded, so a stream of distinct gates cannot
# grow it without limit.
@lru_cache(maxsize=256)
def _controlled(num_controls: int, base_bytes: bytes) -> GateMatrix:
    base = np.frombuffer(base_bytes, dtype=complex)
    side = math.isqrt(base.size)
    dim = side * 2**num_controls
    out = np.eye(dim, dtype=complex)
    out[-side:, -side:] = base.reshape(side, side)
    return GateMatrix(out)


CZ = make_controlled(ControlledSpec(1, Z))
TOFFOLI = make_controlled(ControlledSpec(2, X))


@lru_cache(maxsize=None)
def make_rk(k: int) -> GateMatrix:
    """Phase rotation diag(1, e^(2*pi*i / 2^k)); k=1 is Z."""
    if k < 1:
        raise ValueError(f"rotation order k must be >= 1, got {k}")
    return GateMatrix(np.diag([1.0, np.exp(2j * np.pi / 2**k)]))


def em_schedule(m: int, shape: str) -> list[list[tuple[int, int]]]:
    """CNOT rounds that grow |0..0> + |1..1> over m wires after H on wire 0.

    Returns a list of rounds; each round is a list of (control, target)
    index pairs into the caller's qubit list. "linear" chains one CNOT per
    round; "binary-tree" lets every already-entangled wire fan out to a fresh
    one each round (lowest entangled index pairs with lowest fresh index).
    """
    if m < 2:
        raise ValueError(f"cat preparation needs at least 2 qubits, got {m}")
    if shape not in EM_SHAPES:
        raise ValueError(f"shape must be one of {EM_SHAPES}, got {shape!r}")
    if shape == "linear":
        return [[(i, i + 1)] for i in range(m - 1)]
    rounds: list[list[tuple[int, int]]] = []
    entangled = 1
    while entangled < m:
        fresh = min(entangled, m - entangled)
        rounds.append([(src, entangled + src) for src in range(fresh)])
        entangled += fresh
    return rounds

