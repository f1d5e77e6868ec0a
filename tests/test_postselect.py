import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubit_reference import embed_operator, partial_trace

from jointcert.postselect import (
    VERDICT_TOL,
    WERNER_LHV_THRESHOLD,
    _gap_reports,
    _pauli_pairs,
    chsh_max,
    correlation_matrix,
    gap_report,
    induced_state,
    trace_distance,
    werner_visibility,
)
from jointcert.quantum import BELL_LABELING, PAULIS, PSI_MINUS, _state_tensor, noisy_bsm, proj

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
    it reliably global on 3x3 problems.  All restarts run at once, one row
    each; one (restarts, 2, 3) draw takes the same numbers from rng as a
    (2, 3) draw per restart.
    """
    rng = rng or np.random.default_rng(0)

    def unit(rows):
        return rows / np.maximum(np.linalg.norm(rows, axis=1), 1e-15)[:, None]

    start = rng.normal(size=(restarts, 2, 3))
    b0, b1 = unit(start[:, 0]), unit(start[:, 1])
    for _ in range(iters):
        u, v = (b0 + b1) @ t.T, (b0 - b1) @ t.T
        value = np.linalg.norm(u, axis=1) + np.linalg.norm(v, axis=1)
        a0, a1 = unit(u), unit(v)
        s, d = a0 @ t, a1 @ t
        b0, b1 = unit(s + d), unit(s - d)
    return max(0.0, value.max())


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


def test_gap_report_refuses_more_than_one_sharpness_value():
    # one report per call; a stack goes through the stacked pass
    with pytest.raises(ValueError):
        gap_report([0.3, 0.6])
    assert exact_fields(gap_report([0.6])) == exact_fields(gap_report(0.6))


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


@pytest.mark.parametrize("outcome", [1.5, 3.0, True, -1, 4])
def test_induced_state_refuses_an_outcome_that_is_not_one_of_0_to_3(outcome):
    # 1.5 and 3.0 used to fail on tuple indexing, and True was read as 1
    with pytest.raises(ValueError, match="outcome"):
        induced_state(0.5, outcome)


def test_induced_state_accepts_a_numpy_integer_outcome():
    rho, prob = induced_state(0.5, np.int64(2))
    want_rho, want_prob = induced_state(0.5, 2)
    assert np.array_equal(rho, want_rho)
    assert prob == want_prob and type(prob) is float


def one_state_postselection(p, outcome):
    """The per-outcome formulas the stacked functions replaced, verbatim:
    (rho, prob, visibility, residual, correlation matrix, CHSH value)."""
    element = noisy_bsm(p)[outcome].reshape(2, 2, 2, 2)
    unnorm = np.einsum("ABCDEFGH,DHBF->AECG", _state_tensor(), element).reshape(4, 4)
    prob = float(np.trace(unnorm).real)
    rho = unnorm / prob
    target = BELL_LABELING[outcome][1]
    fidelity = float(np.real(target.conj() @ rho @ target))
    v = (4.0 * fidelity - 1.0) / 3.0
    model = v * np.outer(target, target.conj()) + (1.0 - v) * np.eye(4, dtype=complex) / 4.0
    residual = 0.5 * float(np.abs(np.linalg.eigvalsh(rho - model)).sum())
    t = np.einsum("rc,ijcr->ij", rho, _pauli_pairs()).real
    s = np.linalg.svd(t, compute_uv=False)
    return rho, prob, v, residual, t, 2.0 * float(np.sqrt(s[0] ** 2 + s[1] ** 2))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
@example(0.375)
def test_stacked_postselection_is_the_per_outcome_formulas_bit_for_bit(p):
    for outcome, (_, target) in enumerate(BELL_LABELING):
        rho, prob, v, residual, t, chsh = one_state_postselection(p, outcome)
        got_rho, got_prob = induced_state(p, outcome)
        assert np.array_equal(got_rho, rho) and got_prob == prob
        assert werner_visibility(got_rho, target) == (v, residual)
        assert np.array_equal(correlation_matrix(got_rho), t)
        # s * s in place of the numpy scalar s ** 2 (libm pow): at most 1 ulp
        assert abs(chsh_max(got_rho) - chsh) <= np.spacing(chsh)


def test_stacked_functions_keep_every_leading_axis():
    rng = np.random.default_rng(5)
    rhos = np.array([[random_density(rng) for _ in range(3)] for _ in range(2)])
    assert correlation_matrix(rhos).shape == (2, 3, 3, 3)
    chsh, traces = chsh_max(rhos), trace_distance(rhos, rhos[:, ::-1])
    visibility, residual = werner_visibility(rhos, BELL_LABELING[1][1])
    for i, j in np.ndindex(2, 3):
        assert chsh[i, j] == chsh_max(rhos[i, j])
        assert traces[i, j] == trace_distance(rhos[i, j], rhos[i, 2 - j])
        assert (visibility[i, j], residual[i, j]) == werner_visibility(rhos[i, j], BELL_LABELING[1][1])
    rho, prob = induced_state([0.2, 0.7], 3)
    assert rho.shape == (2, 4, 4) and prob.shape == (2,)
    assert np.array_equal(rho[1], induced_state(0.7, 3)[0])


def exact_fields(report):
    """Every field of a GapReport with its type, floats as hex (bit-exact)."""

    def exact(value):
        if isinstance(value, tuple):
            return tuple(exact(item) for item in value)
        return type(value).__name__, value.hex() if isinstance(value, float) else value

    return [exact(getattr(report, field.name)) for field in dataclasses.fields(report)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=40))
def test_gap_report_is_its_row_of_the_stacked_pass(ps):
    ps = [0.0, 0.5, 0.66, 1.0] + ps
    rows = list(_gap_reports(np.array(ps), VERDICT_TOL))
    assert len(rows) == len(ps)
    for p, row in zip(ps, rows):
        assert exact_fields(gap_report(p)) == exact_fields(row)
