"""Reference helpers the tests share.

They read a state only through its dense amplitudes, and build an embedded
gate from Kronecker products, so they share no code with the kernels,
views and basis-index arithmetic they check. random_state builds the
random inputs the tests start from, and qft_matrix the transform's dense
matrix.
"""

import numpy as np

from catnet.qstate import StateVector, random_vector


def random_state(num_qubits, rng):
    """A Haar-random pure state: random_vector's amplitudes as one block."""
    return StateVector(num_qubits, random_vector(num_qubits, rng))


def reduced_density_matrix(state, keep):
    """Density matrix of the qubits `keep` with every other qubit traced out.

    Row/column indices follow the order of `keep` (first listed = MSB). A
    split state gives a stack of matrices, one per row.
    """
    amps = state.amplitudes
    n = state.num_qubits
    rest = [q for q in range(n) if q not in keep]
    psi = amps.reshape((-1,) + (2,) * n).transpose([0, *(1 + q for q in keep), *(1 + q for q in rest)])
    psi = psi.reshape(len(psi), 2 ** len(keep), -1)
    rho = psi @ psi.conj().swapaxes(-1, -2)
    return rho if amps.ndim == 2 else rho[0]


def embed(matrix, n, targets):
    """`matrix` on the listed qubits (first listed = MSB) of n, identity on
    the rest: the Kronecker product with an identity over the listed qubits
    first, then its axes permuted into qubit order."""
    k = len(targets)
    order = [*targets, *(q for q in range(n) if q not in targets)]
    full = np.kron(matrix, np.eye(2 ** (n - k))).reshape((2,) * (2 * n))
    axis = np.argsort(order)
    return full.transpose([*axis, *(n + axis)]).reshape(2**n, 2**n)


def qft_matrix(n):
    """The defining transform: entry (row, col) = e^(2*pi*i*row*col/2^n)/sqrt(2^n)."""
    if n < 1:
        raise ValueError(f"need at least 1 qubit, got {n}")
    dim = 2**n
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * grid / dim) / np.sqrt(dim)
