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

Every function takes stacks: leading axes of p, rho or target carry through,
and one state still gives a (4, 4) matrix or a float.  The induced states of
all four outcomes at every p are one einsum of the rank-8 state tensor with
the (P, 4, 4, 4) POVM stack; fidelities are one stacked matmul, CHSH values
and residuals one batched svd and eigvalsh.  gap_report(p) is a stack of one;
cli's sweep runs SWEEP_BLOCK values of p per stack.  chsh_max squares by s * s,
so it can sit 1 ulp from the former per-state s ** 2 (libm pow), as at p = 0.375.
"""
import functools
from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorTensor
from .inequalities import VERDICT_TOL, check_tol, evaluate_mn, exceeds_bound
from .quantum import BELL_LABELING, PAULIS, _bsm_elements, _sharpness, _simulated, _state_tensor, proj
from .scenario import ScenarioShape, _integer

WERNER_LHV_THRESHOLD = 0.66


def _scalar(x):
    """A 0-d result as a Python float; a stacked one as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _induced_states(p):
    """(rho, prob) of every outcome: p.shape + (4, 4, 4) states, p.shape + (4,) probabilities."""
    p = _sharpness(p)
    povm = _bsm_elements(p).reshape((-1, 4) + (2,) * 4)
    # Tr_{1,3}[rho (I (x) E_c)]: E_c's rows meet the ancillas' state columns, its
    # columns their rows; one nonzero term per entry, so the BLAS route is exact
    unnorm = np.einsum("ABCDEFGH,PcDHBF->PcAECG", _state_tensor(), povm, optimize=True).reshape(p.shape + (4,) * 3)
    prob = np.trace(unnorm, axis1=-2, axis2=-1).real
    return unnorm / prob[..., None, None], prob


def induced_state(p, outcome):
    """Conditional state of the two system qubits given outcome c, with its
    probability.  Returns (rho, probability); rho is a 4x4 density matrix."""
    if not 0 <= _integer(outcome, "outcome") < 4:
        raise ValueError(f"outcome must be one of 0..3, got {outcome}")
    rho, prob = _induced_states(p)
    return rho[..., outcome, :, :], _scalar(prob[..., outcome])


def trace_distance(rho, sigma):
    """(1/2) * trace norm of rho - sigma for Hermitian matrices."""
    diff = np.asarray(rho) - np.asarray(sigma)
    return _scalar(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1))


def werner_visibility(rho, target):
    """Visibility of the Werner state closest to rho around the pure state
    target (a 4-vector), plus the trace-distance residual of that fit.

    Uses v = (4 F - 1) / 3 with F the fidelity <target|rho|target>; the
    residual is 0 exactly when rho is of Werner form.
    """
    target = np.asarray(target, dtype=complex)
    fidelity = (target.conj()[..., None, :] @ rho @ target[..., None])[..., 0, 0].real
    v = ((4.0 * fidelity - 1.0) / 3.0)[..., None, None]
    model = v * proj(target) + (1.0 - v) * np.eye(4, dtype=complex) / 4.0
    return _scalar(v[..., 0, 0]), trace_distance(rho, model)


@functools.cache
def _pauli_pairs():
    """pairs[i, j] = sigma_i (x) sigma_j over (X, Y, Z), shape (3, 3, 4, 4)."""
    pairs = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])
    pairs.setflags(write=False)
    return pairs


def correlation_matrix(rho):
    """T[i, j] = Tr[rho sigma_i x sigma_j] for i, j over (X, Y, Z)."""
    return np.einsum("...rc,ijcr->...ij", rho, _pauli_pairs()).real


def chsh_max(rho):
    """Largest CHSH value reachable with projective measurements on rho:
    2 sqrt(s1^2 + s2^2) over the two largest singular values of the
    correlation matrix."""
    s = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
    return _scalar(2.0 * np.sqrt(s[..., 0] * s[..., 0] + s[..., 1] * s[..., 1]))


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
    Raises ValueError unless tol is finite and >= 0, or for more than one p.
    """
    (report,) = _gap_reports(p, tol)
    return report


def _gap_reports(p, tol):
    """gap_report for each of a 1-D stack of sharpness values (or one p), in
    order: one stacked simulation and one stacked pass over the four outcomes."""
    tol = check_tol(tol)
    p = np.atleast_1d(_sharpness(p))
    rho, _ = _induced_states(p)
    visibility, residual = werner_visibility(rho, [vec for _, vec in BELL_LABELING])
    worst = (chsh_max(rho).max(-1), visibility.max(-1), residual.max(-1))
    for p_i, arr, chsh, v, res in zip(p.tolist(), _simulated(p), *(w.tolist() for w in worst)):
        report = evaluate_mn(BehaviorTensor(ScenarioShape(2, 2), arr))
        nonclassical, simulable = exceeds_bound(report, tol), v < WERNER_LHV_THRESHOLD
        yield GapReport(p_i, report.statistic, report.components, chsh, v, res, nonclassical, simulable,
                        nonclassical and simulable)
