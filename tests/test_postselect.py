import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubit_reference import embed_operator, partial_trace

from jointcert.postselect import (
    WERNER_LHV_THRESHOLD,
    chsh_max,
    correlation_matrix,
    gap_report,
    induced_state,
    trace_distance,
    werner_visibility,
)
from jointcert.quantum import BELL_LABELING, PAULIS, PSI_MINUS, noisy_bsm, proj

P_GRID = [round(0.1 * i, 1) for i in range(11)]


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def reference_induced_state(p, outcome):
    """Tr_{1,3}[rho (I (x) E_c)] on 16x16 matrices, normalized."""
    rho = np.kron(proj(PSI_MINUS), proj(PSI_MINUS))
    element = embed_operator(noisy_bsm(p)[outcome], [1, 3], 4)
    unnorm = partial_trace(rho @ element, keep=[0, 2], n_qubits=4)
    prob = np.trace(unnorm).real
    return unnorm / prob, prob


def reference_correlation_matrix(rho):
    t = np.empty((3, 3))
    for i, si in enumerate(PAULIS):
        for j, sj in enumerate(PAULIS):
            t[i, j] = np.trace(rho @ np.kron(si, sj)).real
    return t


def werner(v, target):
    return v * proj(target) + (1 - v) * np.eye(4, dtype=complex) / 4


def chsh_brute_force(t, restarts=24, iters=80, rng=None):
    """Alternating ascent over the four Bloch vectors of a CHSH expression.

    For fixed directions b0, b1 the optimal a's align with T(b0 +/- b1) and
    vice versa, so alternation converges to a stationary point; restarts make
    it reliably global on 3x3 problems.
    """
    rng = rng or np.random.default_rng(0)
    best = 0.0
    for _ in range(restarts):
        b0, b1 = rng.normal(size=(2, 3))
        b0 /= np.linalg.norm(b0)
        b1 /= np.linalg.norm(b1)
        for _ in range(iters):
            u, v = t @ (b0 + b1), t @ (b0 - b1)
            value = np.linalg.norm(u) + np.linalg.norm(v)
            a0 = u / max(np.linalg.norm(u), 1e-15)
            a1 = v / max(np.linalg.norm(v), 1e-15)
            s, d = t.T @ a0, t.T @ a1
            b0 = (s + d) / max(np.linalg.norm(s + d), 1e-15)
            b1 = (s - d) / max(np.linalg.norm(s - d), 1e-15)
        best = max(best, value)
    return best


def test_induced_states_are_werner_with_matching_label():
    for p in P_GRID:
        total = 0.0
        for outcome, (_, target) in enumerate(BELL_LABELING):
            rho, prob = induced_state(p, outcome)
            assert trace_distance(rho, werner(p, target)) <= 1e-10
            assert prob == pytest.approx(0.25, abs=1e-12)
            total += prob
        assert total == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        induced_state(0.5, 4)


def assert_matches_reference(p):
    for outcome in range(4):
        rho, prob = induced_state(p, outcome)
        want_rho, want_prob = reference_induced_state(p, outcome)
        np.testing.assert_allclose(rho, want_rho, rtol=0, atol=1e-12)
        assert prob == pytest.approx(want_prob, abs=1e-12)


def test_induced_state_matches_partial_trace_reference_on_grid():
    for p in P_GRID:
        assert_matches_reference(p)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_induced_state_matches_partial_trace_reference(p):
    assert_matches_reference(p)


def test_correlation_matrix_matches_kron_loop():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rho = random_density(rng)
        np.testing.assert_allclose(correlation_matrix(rho), reference_correlation_matrix(rho), rtol=0, atol=1e-12)


def test_werner_visibility_recovers_parameter():
    for p in [0.0, 0.3, 0.66, 1.0]:
        for _, target in BELL_LABELING:
            v, residual = werner_visibility(werner(p, target), target)
            assert v == pytest.approx(p, abs=1e-12)
            assert residual <= 1e-12


def test_werner_visibility_residual_flags_non_werner():
    rho = proj(np.kron([1, 0], [1, 0]).astype(complex))
    _, residual = werner_visibility(rho, BELL_LABELING[0][1])
    assert residual > 0.1


def test_correlation_matrix_of_singlet():
    rho = proj(BELL_LABELING[0][1])
    np.testing.assert_allclose(correlation_matrix(rho), -np.eye(3), atol=1e-12)


def test_chsh_on_werner_states():
    for v in [0.0, 0.25, 1 / np.sqrt(2), 0.9, 1.0]:
        for _, target in BELL_LABELING:
            got = chsh_max(werner(v, target))
            assert got == pytest.approx(2 * np.sqrt(2) * v, abs=1e-9)


def test_chsh_on_product_state_is_classical():
    rho = proj(np.kron([1, 0], [1, 0]).astype(complex))
    assert chsh_max(rho) == pytest.approx(2.0, abs=1e-12)


def test_chsh_formula_against_brute_force():
    # ascent over measurement directions must reproduce the singular-value
    # formula; 100 random states
    rng = np.random.default_rng(59)
    for _ in range(100):
        rho = random_density(rng)
        t = correlation_matrix(rho)
        formula = chsh_max(rho)
        brute = chsh_brute_force(t, rng=rng)
        assert abs(brute - formula) < 1e-6


def test_gap_region_flags():
    for p in [0.51, 0.55, 0.60, 0.65]:
        assert gap_report(p).gap_witness, f"expected gap at p={p}"
    for p in [0.30, 0.50, 0.70, 1.00]:
        assert not gap_report(p).gap_witness, f"expected no gap at p={p}"


def test_gap_report_fields_consistent():
    g = gap_report(0.6)
    assert g.sharpness == 0.6
    assert g.statistic == pytest.approx(np.sqrt(1.2), abs=1e-9)
    assert g.werner_visibility == pytest.approx(0.6, abs=1e-9)
    assert g.chsh_max == pytest.approx(2 * np.sqrt(2) * 0.6, abs=1e-9)
    assert g.werner_residual <= 1e-10
    assert g.jointly_nonclassical and g.postselected_lhv_simulable
    assert g.gap_witness == (g.jointly_nonclassical and g.postselected_lhv_simulable)
    assert 0.6 < WERNER_LHV_THRESHOLD < 1 / np.sqrt(2)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.5])
def test_gap_report_refuses_bad_tolerance(tol):
    # a negative or non-finite tol would decide the verdict by itself
    with pytest.raises(ValueError, match=re.escape(f"tol must be finite and >= 0, got {tol}")):
        gap_report(0.6, tol=tol)


def test_gap_needs_both_conditions():
    # below threshold: simulable but not violating
    g = gap_report(0.4)
    assert g.postselected_lhv_simulable and not g.jointly_nonclassical
    # sharp measurement: violating but not simulable
    g = gap_report(0.9)
    assert g.jointly_nonclassical and not g.postselected_lhv_simulable


def test_correlation_matrix_paulis_are_ordered():
    # the (X, Y, Z) ordering of PAULIS is what correlation_matrix assumes
    assert np.allclose(PAULIS[0], np.array([[0, 1], [1, 0]]))
    assert np.allclose(PAULIS[2], np.diag([1, -1]))
