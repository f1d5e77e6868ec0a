import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubit_reference import embed_operator, kron_all

from jointcert.behavior import signalling_residuals, validate_behavior
from jointcert.quantum import (
    _BEHAVIOR_PATH,
    BELL_LABELING,
    ID2,
    KET_0,
    KET_1,
    PSI_MINUS,
    _bell_projectors,
    _bsm_elements,
    _check_povm,
    _projector_stack,
    _simulated,
    _state_tensor,
    closed_form_behavior,
    noisy_bsm,
    party_observable,
    party_projector,
    proj,
    quantum_behavior,
    validate_povm,
)

P_GRID = [round(0.1 * i, 1) for i in range(11)]


def reference_behavior(p):
    """P(a, b, c | x, y) entry by entry: Tr[rho (P_a (x) I (x) P_b (x) I) E_c]
    with 16x16 matrices and E_c embedded on qubits 1 and 3."""
    povm = noisy_bsm(p)
    rho = np.kron(proj(PSI_MINUS), proj(PSI_MINUS))
    arr = np.empty((2, 2, 2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        local = kron_all(party_projector(0, a, x), ID2, party_projector(1, b, y), ID2)
        for c0, c1 in itertools.product(range(2), repeat=2):
            joint = embed_operator(povm[2 * c0 + c1], [1, 3], 4)
            arr[x, y, a, b, c0, c1] = np.trace(rho @ local @ joint).real
    return arr


def test_contraction_matches_entrywise_reference_on_grid():
    for p in P_GRID:
        np.testing.assert_allclose(quantum_behavior(p).probabilities, reference_behavior(p), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_contraction_matches_entrywise_reference(p):
    np.testing.assert_allclose(quantum_behavior(p).probabilities, reference_behavior(p), rtol=0, atol=1e-12)


def test_simulation_matches_closed_form_on_grid():
    for p in P_GRID:
        sim = quantum_behavior(p)
        exact = closed_form_behavior(p)
        assert np.abs(sim.probabilities - exact.probabilities).max() < 1e-10


def test_behavior_is_valid_and_nonsignalling():
    for p in np.linspace(0.0, 1.0, 101):
        behavior = quantum_behavior(p)
        assert signalling_residuals(behavior).max() <= 1e-14
        assert validate_behavior(behavior) == []
    # every party's output is uniform at every setting
    outputs = quantum_behavior(0.8).probabilities.sum(axis=(4, 5))
    np.testing.assert_allclose(outputs.sum(axis=3), 0.5, atol=1e-12)
    np.testing.assert_allclose(outputs.sum(axis=2), 0.5, atol=1e-12)


def test_correlators_by_direct_summation():
    # independent of the correlator helper: plain loops over the tensor
    for p in [0.0, 0.4, 0.7, 1.0]:
        arr = quantum_behavior(p).probabilities
        for x, y in itertools.product(range(2), repeat=2):
            c0 = c1 = 0.0
            for a, b, u, v in itertools.product(range(2), repeat=4):
                c0 += (-1.0) ** (a + b + u) * arr[x, y, a, b, u, v]
                c1 += (-1.0) ** (a + b + v) * arr[x, y, a, b, u, v]
            assert c0 == pytest.approx(p / 2, abs=1e-12)
            assert c1 == pytest.approx((-1.0) ** (x + y) * p / 2, abs=1e-12)


def test_party_observables_square_to_identity():
    for x in range(2):
        o = party_observable(x)
        np.testing.assert_allclose(o @ o, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(o, o.conj().T, atol=1e-15)
    # the two settings anticommute
    anti = party_observable(0) @ party_observable(1) + party_observable(1) @ party_observable(0)
    np.testing.assert_allclose(anti, 0.0, atol=1e-14)


def test_party_projectors_are_complete_and_opposed():
    for party, setting in itertools.product(range(2), range(2)):
        p0 = party_projector(party, 0, setting)
        p1 = party_projector(party, 1, setting)
        np.testing.assert_allclose(p0 + p1, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(p0 @ p0, p0, atol=1e-14)
    # the sign convention differs between the parties
    np.testing.assert_allclose(
        party_projector(0, 0, 1), party_projector(1, 1, 1), atol=1e-14
    )


def test_bell_labeling_is_pinned():
    names = [name for name, _ in BELL_LABELING]
    assert names == ["psi_minus", "psi_plus", "phi_minus", "phi_plus"]
    s = 1 / np.sqrt(2)
    want = {
        "psi_minus": s * (kron_all(KET_0, KET_1) - kron_all(KET_1, KET_0)),
        "psi_plus": s * (kron_all(KET_0, KET_1) + kron_all(KET_1, KET_0)),
        "phi_minus": s * (kron_all(KET_0, KET_0) - kron_all(KET_1, KET_1)),
        "phi_plus": s * (kron_all(KET_0, KET_0) + kron_all(KET_1, KET_1)),
    }
    for name, vec in BELL_LABELING:
        np.testing.assert_allclose(vec, want[name], atol=1e-15)


def test_povm_spectrum_formula():
    for p in P_GRID:
        for element in noisy_bsm(p):
            eig = np.sort(np.linalg.eigvalsh(element))
            want = np.sort([p + (1 - p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])
            np.testing.assert_allclose(eig, want, atol=1e-10)


def test_povm_validity_on_grid():
    for p in P_GRID:
        assert validate_povm(noisy_bsm(p)) == []


def test_povm_projective_only_at_full_sharpness():
    for element in noisy_bsm(1.0):
        np.testing.assert_allclose(element @ element, element, atol=1e-12)
    element = noisy_bsm(0.5)[0]
    assert np.abs(element @ element - element).max() > 1e-3


def test_noisy_bsm_range_check():
    with pytest.raises(ValueError):
        noisy_bsm(-0.1)
    with pytest.raises(ValueError):
        noisy_bsm(1.0000001)


def test_unchecked_elements_flag_invalid_sharpness():
    problems = validate_povm(_bsm_elements(1.5))
    assert any("negative eigenvalue" in p for p in problems)


def test_validate_povm_catches_defects():
    elements = list(noisy_bsm(0.5))
    assert any("identity" in p for p in validate_povm(elements[:3]))
    broken = [e.copy() for e in elements]
    broken[0] = broken[0] + 1j * np.eye(4) * 1e-3
    assert any("Hermitian" in p for p in validate_povm(broken))
    assert validate_povm([]) == ["no elements given"]
    # a non-finite element is one problem: its NaN or infinite completeness
    # residual stays in _check_povm's triple but is not reported again
    for value in (np.nan, np.inf):
        nonfinite = [np.array([[value, 0.0], [0.0, 1.0]]), np.eye(2)]
        problems, floor, residual = _check_povm(nonfinite)
        assert problems == validate_povm(nonfinite) == ["element 0 has non-finite entries"]
        assert floor == 1.0 and not np.isfinite(residual)


@pytest.mark.parametrize(
    "elements, problems",
    [
        # no common shape to sum them in: numpy would raise a broadcast error
        ([np.eye(2) / 2, np.eye(3) / 2], ["element 1 has shape (3, 3), expected (2, 2)"]),
        # no dimension to check the others against
        ([1.0], ["element 0 has shape (), expected a square matrix"]),
        ([np.ones((2, 3))], ["element 0 has shape (2, 3), expected a square matrix"]),
        # numpy would broadcast the vector onto the matrix and sum to identity
        ([np.eye(2) / 2, np.ones(2) / 2], ["element 1 has shape (2,), expected (2, 2)"]),
    ],
    ids=["two-dimensions", "scalar", "non-square", "vector"],
)
def test_validate_povm_reports_mis_shaped_elements(elements, problems):
    # a mis-shaped element is a problem in the list, never an exception, and
    # completeness is checked only when every element has the first one's shape
    assert validate_povm(elements) == problems


def reference_closed_form(p):
    """closed_form_behavior as the 64-iteration loop it replaced, verbatim."""
    arr = np.empty((2, 2, 2, 2, 2, 2))
    for x, y, a, b, c0, c1 in itertools.product(range(2), repeat=6):
        bracket = ((-1.0) ** c0 + (-1.0) ** (x + y + c1)) / 2.0
        arr[x, y, a, b, c0, c1] = (1.0 + p * (-1.0) ** (a + b) * bracket) / 16.0
    return arr


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
@example(0.0)
@example(0.25)
@example(0.5)
@example(0.66)
@example(1.0)
def test_closed_form_matches_the_reference_loop_bit_for_bit(p):
    assert np.array_equal(closed_form_behavior(p).probabilities, reference_closed_form(p))
    assert np.array_equal(closed_form_behavior(np.float64(p)).probabilities, reference_closed_form(np.float64(p)))


def one_state_behavior(p):
    """The simulation as it was written for one p: the four POVM elements
    built one by one and the einsum without a stack axis, on the order
    einsum_path finds for it."""
    noise = (1 - p) * np.eye(4, dtype=complex) / 4
    povm = np.array([p * bell + noise for bell in _bell_projectors()]).reshape((4,) + (2,) * 4)
    operands = (_state_tensor(), _projector_stack(0), _projector_stack(1), povm)
    subscripts = "ABCDEFGH,xaCA,ybGE,cDHBF->xyabc"
    path = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
    return path, np.einsum(subscripts, *operands, optimize=path).real.reshape((2,) * 6)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=300))
@example([0.0, 0.5, 0.66, 1.0])
def test_stacked_simulation_is_the_one_state_simulation_bit_for_bit(ps):
    # the stack keeps the one-state contraction order; the order einsum_path
    # finds for the stacked operands moves entries by up to 5.6e-17
    stacked = _simulated(ps)
    assert stacked.shape == (len(ps),) + (2,) * 6
    for p, row in zip(ps, stacked):
        path, want = one_state_behavior(p)
        assert path == _BEHAVIOR_PATH
        assert np.array_equal(row, want)
        assert np.array_equal(quantum_behavior(p).probabilities, want)


def test_stacked_elements_are_the_one_state_elements():
    ps = np.linspace(0.0, 1.0, 41)
    stacked = _bsm_elements(ps)
    assert stacked.shape == (41, 4, 4, 4)
    for p, row in zip(ps.tolist(), stacked):
        # the elements as they were built for one p, one at a time
        noise = (1 - p) * np.eye(4, dtype=complex) / 4
        want = [p * proj(vec) + noise for _, vec in BELL_LABELING]
        elements = noisy_bsm(p)
        assert isinstance(elements, tuple) and len(elements) == 4
        for got, element, one in zip(elements, row, want):
            assert got.shape == (4, 4)
            assert np.array_equal(got, one) and np.array_equal(element, one)


@pytest.mark.parametrize("p", [-0.1, 1.0000001, float("nan")])
def test_stacked_simulation_refuses_any_sharpness_outside_the_range(p):
    with pytest.raises(ValueError, match="sharpness p must lie in"):
        _simulated([0.5, p])
    with pytest.raises(ValueError, match="sharpness p must lie in"):
        quantum_behavior(p)
    with pytest.raises(ValueError, match="sharpness p must lie in"):
        closed_form_behavior(p)
