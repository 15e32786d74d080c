"""Exact simulation of entanglement-mediated gates on small quantum networks.

Nodes hold register and channel qubits; one shared state vector tracks all
of them, while the Network API enforces that gates stay node-local and that
anything crossing node boundaries is paid for in entangled pairs, classical
bits, and communication rounds.
"""

from .errors import (
    BranchDivergenceError,
    CannotResetError,
    CapacityError,
    CatnetError,
    CausalityError,
    EntanglementError,
    ImpossibleBranchError,
    LocalityError,
    PoolError,
    PreconditionError,
    ResourceError,
)
from .gates import CNOT, CZ, H, IDENTITY, SWAP, TOFFOLI, X, Z, ControlledSpec, make_controlled, make_rk
from .network import (
    CHANNEL,
    REGISTER,
    ClassicalMessage,
    Network,
    QubitAddress,
    ResourceLedger,
)
from .primitives import CatGroup, cat_entangler, cat_shrink, teleport
from .protocols import (
    ProtocolReport,
    decompose_multi_control_x,
    distributed_em,
    distributed_swap,
    em_channel_requirements,
    establish_epr_exchange,
    nonlocal_cnot,
    nonlocal_controlled_sequence,
    nonlocal_multi_control,
    parallel_distributed_control,
    reset_channel_qubits,
    teleport_with_reset,
)
from .qft import QftPlan, build_qft_plan, qft_distributed, qft_local
from .qstate import ATOL, GateMatrix, MeasurementRecord, StateVector
from .verify import VERIFIERS, verify_all, verify_protocol

__version__ = "0.1.0"

__all__ = [
    "ATOL",
    "BranchDivergenceError",
    "CHANNEL",
    "CNOT",
    "CZ",
    "CannotResetError",
    "CapacityError",
    "CatGroup",
    "CatnetError",
    "CausalityError",
    "ClassicalMessage",
    "ControlledSpec",
    "EntanglementError",
    "GateMatrix",
    "H",
    "IDENTITY",
    "ImpossibleBranchError",
    "LocalityError",
    "MeasurementRecord",
    "Network",
    "PoolError",
    "PreconditionError",
    "ProtocolReport",
    "QftPlan",
    "QubitAddress",
    "REGISTER",
    "ResourceError",
    "ResourceLedger",
    "SWAP",
    "StateVector",
    "TOFFOLI",
    "VERIFIERS",
    "X",
    "Z",
    "build_qft_plan",
    "cat_entangler",
    "cat_shrink",
    "decompose_multi_control_x",
    "distributed_em",
    "distributed_swap",
    "em_channel_requirements",
    "establish_epr_exchange",
    "make_controlled",
    "make_rk",
    "nonlocal_cnot",
    "nonlocal_controlled_sequence",
    "nonlocal_multi_control",
    "parallel_distributed_control",
    "qft_distributed",
    "qft_local",
    "reset_channel_qubits",
    "teleport",
    "teleport_with_reset",
    "verify_all",
    "verify_protocol",
]
