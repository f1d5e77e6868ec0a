"""Quantum model that violates the two-setting inequality.

Each of the two parties holds one half of a singlet; the other halves go to
the measuring device, which performs a noisy Bell-state measurement on them.
Qubit order of the global 4-qubit state is

    (party-0 system, party-0 ancilla, party-1 system, party-1 ancilla)

with the singlets on (0,1) and (2,3).  Party j measures its system qubit
along O_x = (sigma_Z + (-1)^x sigma_X)/sqrt(2); party 0 assigns output a to
projector (1 + (-1)^a O_x)/2, party 1 uses the opposite sign, (1 - (-1)^b
O_y)/2.  The opposite sign on exactly one party is part of the convention:
flipping it negates both correlator averages.

The Bell-state measurement with sharpness p in [0, 1] has elements

    E_c = p |beta_c><beta_c| + (1 - p) I/4,

with the two-bit outcome c = (c_0, c_1) labeling the Bell basis as
00 -> psi-, 01 -> psi+, 10 -> phi-, 11 -> phi+ (frozen; tests pin it).

The exact behavior is

    P(a, b, c0 c1 | x, y)
        = (1/16) (1 + p (-1)^(a+b) [(-1)^c0 + (-1)^(x+y+c1)] / 2),

giving M = N = p/2, statistic sqrt(2p), which exceeds the classical bound 1
exactly when p > 1/2.

The simulation never reads the closed form.  It holds the 4-qubit state
once as a rank-8 tensor, the outer product of the two singlet projectors,

    state[i0, i1, j0, j1, i2, i3, j2, j3] = <i0 i1 i2 i3| rho |j0 j1 j2 j3>

(i row and j column indices, one per qubit), and computes the whole behavior
as one einsum of that tensor with the two parties' projector stacks [x, a]
and the four POVM elements.

Conventions: qubits are tensor factors in row-major (big-endian) order, so
qubit 0 is the leftmost factor of a Kronecker product; states are numpy
vectors and operators numpy matrices, all complex128.
"""
import functools

import numpy as np

from .behavior import BehaviorTensor
from .scenario import ScenarioShape

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)

PHI_PLUS = (np.kron(KET_0, KET_0) + np.kron(KET_1, KET_1)) / np.sqrt(2)
PHI_MINUS = (np.kron(KET_0, KET_0) - np.kron(KET_1, KET_1)) / np.sqrt(2)
PSI_PLUS = (np.kron(KET_0, KET_1) + np.kron(KET_1, KET_0)) / np.sqrt(2)
PSI_MINUS = (np.kron(KET_0, KET_1) - np.kron(KET_1, KET_0)) / np.sqrt(2)

BELL_LABELING = (
    ("psi_minus", PSI_MINUS),
    ("psi_plus", PSI_PLUS),
    ("phi_minus", PHI_MINUS),
    ("phi_plus", PHI_PLUS),
)

POVM_TOL = 1e-10


def proj(vec):
    """Projector |vec><vec| onto a (normalized) state vector, or a stack of them."""
    v = np.asarray(vec, dtype=complex)
    return v[..., :, None] * v.conj()[..., None, :]


def party_observable(x):
    """System-qubit observable for setting x in {0, 1}."""
    return (SIGMA_Z + (-1) ** x * SIGMA_X) / np.sqrt(2)


def party_projector(party, outcome, setting):
    """Rank-1 projector party j applies for the given outcome and setting."""
    sign = (-1) ** outcome * (1 if party == 0 else -1)
    return (ID2 + sign * party_observable(setting)) / 2


@functools.cache
def _bell_projectors():
    """|beta_c><beta_c| in outcome order, shape (4, 4, 4), read-only."""
    stack = np.array([proj(vec) for _, vec in BELL_LABELING])
    stack.setflags(write=False)
    return stack


def _sharpness(p):
    """p (or a stack of p) as floats; raises unless all lie in [0, 1]."""
    arr = np.asarray(p) * 1.0  # strings and None raise TypeError here
    if not np.all((0.0 <= arr) & (arr <= 1.0)):
        raise ValueError(f"sharpness p must lie in [0, 1], got {p}")
    return arr


def _bsm_elements(p):
    """Noisy Bell-state measurement elements for any real p (no range check),
    or a stack of p: shape p.shape + (4, 4, 4), outcome after p's axes."""
    p = np.asarray(p, dtype=float)[..., None, None, None]
    noise = (1 - p) * np.eye(4, dtype=complex) / 4
    return p * _bell_projectors() + noise


def noisy_bsm(p):
    """The four POVM elements E_c = p |beta_c><beta_c| + (1-p) I/4.

    Outcome order follows the two-bit label (c_0, c_1) read as a binary
    number: psi-, psi+, phi-, phi+.  Raises unless 0 <= p <= 1.
    """
    return tuple(_bsm_elements(_sharpness(p)))


def validate_povm(elements):
    """Return a list of POVM violations: elements that are not square
    matrices of the first one's shape, non-Hermitian or non-positive
    elements, or completeness failure (sum != identity), checked within
    POVM_TOL."""
    return _check_povm(elements)[0]


def _check_povm(elements):
    """(problems, floor, residual): validate_povm's list, the lowest
    eigenvalue of any well-shaped Hermitian element, and the largest entry of
    |sum - identity|; floor and residual are NaN where undefined."""
    problems = []
    nonfinite = False
    elements = [np.asarray(e, dtype=complex) for e in elements]
    if not elements:
        return ["no elements given"], np.nan, np.nan
    first = elements[0].shape
    if len(first) != 2 or first[0] != first[1]:
        return [f"element 0 has shape {first}, expected a square matrix"], np.nan, np.nan
    dim = first[0]
    lows = []
    for idx, el in enumerate(elements):
        if el.shape != (dim, dim):
            problems.append(f"element {idx} has shape {el.shape}, expected ({dim}, {dim})")
            continue
        if not np.isfinite(el).all():
            problems.append(f"element {idx} has non-finite entries")
            nonfinite = True
            continue
        herm = np.abs(el - el.conj().T).max()
        if herm > POVM_TOL:
            problems.append(f"element {idx} deviates from Hermitian by {herm:.3e}")
            continue
        low = np.linalg.eigvalsh(el).min()
        lows.append(low)
        if low < -POVM_TOL:
            problems.append(f"element {idx} has negative eigenvalue {low:.3e}")
    residual = np.nan
    # summed only when no element is mis-shaped, as numpy would broadcast them;
    # a non-finite element, already reported, makes the residual NaN or
    # infinite, which is returned but not reported again
    if all(el.shape == (dim, dim) for el in elements):
        residual = np.abs(sum(elements) - np.eye(dim)).max()
        if not residual <= POVM_TOL and not nonfinite:
            problems.append(f"elements sum to identity only within {residual:.3e}")
    return problems, min(lows, default=np.nan), residual


@functools.cache
def _state_tensor():
    """The 4-qubit state as the read-only rank-8 tensor described above."""
    singlet = proj(PSI_MINUS).reshape(2, 2, 2, 2)
    state = np.multiply.outer(singlet, singlet)
    state.setflags(write=False)
    return state


@functools.cache
def _projector_stack(party):
    """stack[x, a] = party_projector(party, a, x), shape (2, 2, 2, 2)."""
    stack = np.array([[party_projector(party, a, x) for a in range(2)] for x in range(2)])
    stack.setflags(write=False)
    return stack


# P(a, b, c | x, y) = Tr[rho P^0_{a|x} P^1_{b|y} E_c] for each sharpness value
# P.  State axes: rows A B E F and columns C D G H of qubits 0 1 2 3.  The
# trace pairs each operator's row index with a state column and its column
# index with a state row: P^0 on qubit 0 [C, A], P^1 on qubit 2 [G, E], E_c on
# the ancillas 1 and 3 [D H, B F].
_BEHAVIOR_SUBSCRIPTS = "ABCDEFGH,xaCA,ybGE,PcDHBF->Pxyabc"
# einsum_path's order for one state; the one it finds with the P axis rounds differently
_BEHAVIOR_PATH = ["einsum_path", (0, 3), (0, 2), (0, 1)]


def _simulated(p):
    """Behavior arrays by simulation for p or a stack of sharpness values,
    shape p.shape + (2,) * 6; raises unless every p lies in [0, 1]."""
    p = _sharpness(p)
    povm = _bsm_elements(p).reshape((-1, 4) + (2,) * 4)
    stacks = (_state_tensor(), _projector_stack(0), _projector_stack(1), povm)
    arr = np.einsum(_BEHAVIOR_SUBSCRIPTS, *stacks, optimize=_BEHAVIOR_PATH)
    return arr.real.reshape(p.shape + (2,) * 6)


def quantum_behavior(p):
    """Behavior tensor of the singlet-pair model, by full density-matrix
    simulation of the 4-qubit state."""
    return BehaviorTensor(ScenarioShape(2, 2), _simulated(p))


@functools.cache
def _closed_form_signs():
    """(-1)**(a+b) * ((-1)**c0 + (-1)**(x+y+c1)) / 2 over (x, y, a, b, c0, c1),
    read-only; its entries are 0 and +-1, so p times it rounds as p times each factor in turn does."""
    x, y, a, b, c0, c1 = np.indices((2,) * 6, sparse=True)
    signs = (-1.0) ** (a + b) * (((-1.0) ** c0 + (-1.0) ** (x + y + c1)) / 2.0)
    signs.setflags(write=False)
    return signs


def closed_form_behavior(p):
    """The same behavior directly from its exact closed form."""
    p = float(_sharpness(p))
    return BehaviorTensor(ScenarioShape(2, 2), (1.0 + p * _closed_form_signs()) / 16.0)
