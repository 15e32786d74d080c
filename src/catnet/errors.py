"""Error types for the simulator.

Plain parameter problems (bad indices, non-unitary matrices, malformed
arguments) raise ValueError. The classes below mark violations of the
distributed execution model itself.
"""


class CatnetError(Exception):
    """Base class for model-level errors."""


class LocalityError(CatnetError):
    """A gate tried to touch qubits held by different nodes."""


class PoolError(CatnetError):
    """An operation used a qubit from the wrong pool (register vs channel)."""


class CapacityError(CatnetError):
    """A node ran out of idle register or channel qubits: the one shortfall
    error, raised by the allocator every protocol takes its qubits through.
    A protocol claims its qubits before its first gate, so the error leaves
    the network unchanged."""


class CausalityError(CatnetError):
    """A classically controlled gate used a bit its node never received, or
    a message named a bit its sender never held."""


class ImpossibleBranchError(CatnetError):
    """A forced measurement outcome has (near-)zero probability."""


class UnforcedOutcomeError(CatnetError):
    """A measurement had no forced outcome, no split left and no generator
    per row to draw one from."""


class BranchDivergenceError(CatnetError):
    """A probe of a state split into branch rows gave different answers on
    different rows.

    Protocol structure (which qubits are free, which hold a cat state) must
    not depend on measurement outcomes; a probe whose answer does depend on
    them cannot steer one run that carries many branches.
    """


class PreconditionError(CatnetError):
    """A protocol input was not in its required state."""


class EntanglementError(PreconditionError):
    """A qubit group did not hold the entangled resource a protocol needs."""


class ResourceError(CatnetError):
    """A pair or cat was written onto a qubit that still holds an unspent
    share of another, or the entangler was given qubits that are not the
    shares of one unspent pair or cat: the Network spends each shared
    resource it registered once, at the first measurement of one of its
    shares."""


class CannotResetError(PreconditionError):
    """A channel qubit cannot be erased back to zero.

    Measured qubits can be restored with a classically controlled X; an
    unmeasured qubit in an unknown state cannot, so asking for it is an
    error rather than a silent overwrite.
    """
