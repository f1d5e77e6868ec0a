"""Post-selected view of the quantum model, and the certification gap.

Conditioning the two parties' system qubits on a Bell-measurement outcome c
swaps the entanglement inward: the induced two-qubit state is exactly the
Werner state

    rho_c = p |beta_c><beta_c| + (1 - p) I/4

with the same Bell label the measuring device announced, each outcome having
probability 1/4.  Werner states with visibility below 0.66 are known to admit
a local hidden-variable model for projective measurements (a published
sufficient threshold), and their largest CHSH value is 2*sqrt(2)*p, crossing
the local bound 2 only at p = 1/sqrt(2).

The certification gap: for 1/2 < p < 0.66 the joint statistic sqrt(2p)
already exceeds its classical bound while every post-selected state is
LHV-simulable, so the violation is attributable to the measurement itself.

Each induced state is one contraction of the quantum model's rank-8 state
tensor, axes (i0, i1, j0, j1, i2, i3, j2, j3) for row (i) and column (j)
index of each qubit, with the POVM element on the ancillas (qubits 1 and 3);
the system qubits 0 and 2 stay open.  The correlation matrix is one
contraction against a fixed stack of the nine Pauli pairs.
"""
import functools
from dataclasses import dataclass

import numpy as np

from .inequalities import evaluate_mn
from .quantum import BELL_LABELING, PAULIS, _state_tensor, noisy_bsm, proj, quantum_behavior

WERNER_LHV_THRESHOLD = 0.66
VERDICT_TOL = 1e-9


def induced_state(p, outcome):
    """Conditional state of the two system qubits given outcome c, with its
    probability.  Returns (rho, probability); rho is a 4x4 density matrix."""
    if not 0 <= outcome < 4:
        raise ValueError(f"outcome must be one of 0..3, got {outcome}")
    element = noisy_bsm(p)[outcome].reshape(2, 2, 2, 2)
    # Tr_{1,3}[rho (I (x) E_c)]: E_c's rows meet the ancillas' state columns,
    # its columns the ancillas' state rows
    unnorm = np.einsum("ABCDEFGH,DHBF->AECG", _state_tensor(), element).reshape(4, 4)
    prob = float(np.trace(unnorm).real)
    return unnorm / prob, prob


def trace_distance(rho, sigma):
    """(1/2) * trace norm of rho - sigma for Hermitian matrices."""
    diff = np.asarray(rho) - np.asarray(sigma)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def werner_visibility(rho, target):
    """Visibility of the Werner state closest to rho around the pure state
    target (a 4-vector), plus the trace-distance residual of that fit.

    Uses v = (4 F - 1) / 3 with F the fidelity <target|rho|target>; the
    residual is 0 exactly when rho is of Werner form.
    """
    target = np.asarray(target, dtype=complex).reshape(4)
    fidelity = float(np.real(target.conj() @ rho @ target))
    v = (4.0 * fidelity - 1.0) / 3.0
    model = v * proj(target) + (1.0 - v) * np.eye(4, dtype=complex) / 4.0
    return v, trace_distance(rho, model)


@functools.cache
def _pauli_pairs():
    """pairs[i, j] = sigma_i (x) sigma_j over (X, Y, Z), shape (3, 3, 4, 4)."""
    pairs = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])
    pairs.setflags(write=False)
    return pairs


def correlation_matrix(rho):
    """T[i, j] = Tr[rho sigma_i x sigma_j] for i, j over (X, Y, Z)."""
    return np.einsum("rc,ijcr->ij", rho, _pauli_pairs()).real


def chsh_max(rho):
    """Largest CHSH value reachable with projective measurements on rho:
    2 sqrt(s1^2 + s2^2) over the two largest singular values of the
    correlation matrix."""
    s = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
    return 2.0 * float(np.sqrt(s[0] ** 2 + s[1] ** 2))


@dataclass(frozen=True)
class GapReport:
    sharpness: float
    statistic: float
    components: tuple
    chsh_max: float
    werner_visibility: float
    werner_residual: float
    jointly_nonclassical: bool
    postselected_lhv_simulable: bool
    gap_witness: bool


def gap_report(p, tol=VERDICT_TOL):
    """Evaluate the joint statistic and every post-selected state at sharpness p.

    jointly_nonclassical requires the floor of the statistic (its verdict
    side, see inequalities) to exceed its bound by more than tol;
    postselected_lhv_simulable requires the worst-case visibility to stay
    strictly below the LHV threshold; gap_witness is their conjunction.
    Raises ValueError unless tol is finite and >= 0.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    report = evaluate_mn(quantum_behavior(p))
    worst_v = -np.inf
    worst_chsh = -np.inf
    worst_residual = 0.0
    for outcome, (_, target) in enumerate(BELL_LABELING):
        rho, _ = induced_state(p, outcome)
        v, residual = werner_visibility(rho, target)
        worst_v = max(worst_v, v)
        worst_chsh = max(worst_chsh, chsh_max(rho))
        worst_residual = max(worst_residual, residual)
    nonclassical = report.floor > report.bound + tol
    simulable = worst_v < WERNER_LHV_THRESHOLD
    return GapReport(
        sharpness=float(p),
        statistic=report.statistic,
        components=report.components,
        chsh_max=worst_chsh,
        werner_visibility=worst_v,
        werner_residual=worst_residual,
        jointly_nonclassical=nonclassical,
        postselected_lhv_simulable=simulable,
        gap_witness=nonclassical and simulable,
    )
