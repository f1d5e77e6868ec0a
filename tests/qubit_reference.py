"""Reference routes for multi-qubit operators on full 2**n x 2**n matrices.

The tests compare the library's einsum contractions against these helpers.
They import only numpy, never jointcert, so the two sides of each check stay
independent.  Qubits are tensor factors in row-major (big-endian) order, so
qubit 0 is the leftmost factor of a Kronecker product.
"""
import functools

import numpy as np

ID2 = np.eye(2, dtype=complex)


def kron_all(*ops):
    """Kronecker product of any number of factors, left to right."""
    return functools.reduce(np.kron, ops)


def permute_qubits(op, perm):
    """Reorder the tensor factors of a multi-qubit operator.

    perm[i] is the source qubit that ends up at target position i, so
    permute_qubits(kron(A, B), [1, 0]) == kron(B, A).
    """
    nq = len(perm)
    if op.shape != (2**nq, 2**nq):
        raise ValueError(f"operator shape {op.shape} does not match {nq} qubits")
    t = op.reshape((2,) * (2 * nq))
    axes = list(perm) + [p + nq for p in perm]
    return t.transpose(axes).reshape(2**nq, 2**nq)


def embed_operator(op, positions, n_qubits):
    """Embed an operator acting on the given qubit positions into n_qubits.

    positions lists, in order, which global qubit each factor of op acts on;
    the remaining qubits get identities.
    """
    positions = list(positions)
    rest = [q for q in range(n_qubits) if q not in positions]
    full = kron_all(op, *([ID2] * len(rest))) if rest else np.asarray(op, dtype=complex)
    # full currently acts on qubit order positions + rest; move each factor home
    source_order = positions + rest
    perm = [source_order.index(q) for q in range(n_qubits)]
    return permute_qubits(full, perm)


def partial_trace(rho, keep, n_qubits):
    """Trace out all qubits not listed in keep; keep order sets the output order."""
    keep = list(keep)
    t = np.asarray(rho).reshape((2,) * (2 * n_qubits))
    traced = [q for q in range(n_qubits) if q not in keep]
    for off, q in enumerate(sorted(traced, reverse=True)):
        t = np.trace(t, axis1=q, axis2=q + (n_qubits - off))
    # remaining row axes follow the original qubit order; reorder to keep
    current = sorted(keep)
    m = len(keep)
    axes = [current.index(q) for q in keep]
    t = t.transpose(axes + [a + m for a in axes])
    return t.reshape(2**m, 2**m)
