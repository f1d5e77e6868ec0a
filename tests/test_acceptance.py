"""Acceptance suite: one test per advertised guarantee.

Each test prints a single summary line (visible with pytest -rA or -s) of the
form 'criterion N [PASS|FAIL] ...' with the measured worst-case numbers and
the pinned tolerance, then asserts.  Runtime budgets are asserted too.
"""
import itertools
import time

import numpy as np

from jointcert.behavior import BehaviorTensor, ScenarioShape
from jointcert.classical import (
    deterministic_count,
    enumerate_deterministic,
    optimize_classical,
    saturation_strategy,
    strategy_to_behavior,
)
from jointcert.inequalities import evaluate_chain, evaluate_mn
from jointcert.postselect import chsh_max, gap_report, induced_state, trace_distance
from jointcert.quantum import BELL_LABELING, closed_form_behavior, noisy_bsm, proj, quantum_behavior, validate_povm

P_GRID = [round(0.1 * i, 1) for i in range(11)]
VERDICT_TOL = 1e-9  # caller-side tolerance used for boundary-safe verdicts


def emit(num, ok, detail):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


def test_criterion_1_quantum_violation_curve():
    t0 = time.perf_counter()
    worst = 0.0
    verdicts_ok = True
    for p in P_GRID:
        report = evaluate_mn(quantum_behavior(p))
        worst = max(worst, abs(report.statistic - np.sqrt(2 * p)))
        violated = report.statistic > report.bound + VERDICT_TOL
        verdicts_ok = verdicts_ok and (violated == (p > 0.5))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and verdicts_ok and elapsed < 1.0
    emit(
        1,
        ok,
        f"statistic = sqrt(2p) on 11-point grid (tol 1e-9): worst dev {worst:.3e}; "
        f"violated iff p > 0.5 at verdict tol {VERDICT_TOL:g}: {verdicts_ok}; {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_simulation_matches_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for p in P_GRID:
        dev = np.abs(
            quantum_behavior(p).probabilities - closed_form_behavior(p).probabilities
        ).max()
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    emit(
        2,
        ok,
        f"simulation vs closed form, entrywise (tol 1e-10): worst dev {worst:.3e}; "
        f"{elapsed:.2f}s (budget 1s)",
    )


def test_criterion_3_classical_saturation():
    t0 = time.perf_counter()
    worst = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        report = evaluate_mn(strategy_to_behavior(saturation_strategy(r)))
        worst = max(
            worst,
            abs(report.components[0] - r**2),
            abs(report.components[1] - (1 - r) ** 2),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    emit(
        3,
        ok,
        f"saturation family (M,N) = (r^2, (1-r)^2), 101 points (tol 1e-12): "
        f"worst dev {worst:.3e}; {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_4_classical_bound_exhaustive():
    t0 = time.perf_counter()
    shape = ScenarioShape(2, 2)
    count = 0
    best = 0.0
    for strategy in enumerate_deterministic(shape, 2):
        count += 1
        best = max(best, evaluate_mn(strategy_to_behavior(strategy)).statistic)
    elapsed = time.perf_counter() - t0
    expected = deterministic_count(shape, 2)
    ok = count == expected and abs(best - 1.0) <= 1e-12 and elapsed < 30.0
    emit(
        4,
        ok,
        f"exhaustive deterministic max over all {count} strategies "
        f"(n=k=2, L=2): {best:.15f}, |max - 1| = {abs(best - 1.0):.3e} (tol 1e-12); "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_criterion_5_classical_bound_stochastic():
    t0 = time.perf_counter()
    runs = [
        (ScenarioShape(2, 2), 4, 1000, 1.0),
        (ScenarioShape(2, 3), 2, 500, 2.0),
        (ScenarioShape(3, 2), 2, 500, 1.0),
    ]
    results = []
    ok = True
    for shape, alphabet, restarts, bound in runs:
        report, _ = optimize_classical(
            shape, hidden_alphabet=alphabet, restarts=restarts, seed=7
        )
        results.append((shape.n, shape.k, report.statistic, bound))
        ok = ok and report.statistic <= bound + 1e-6 and report.bound == bound
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    detail = "; ".join(
        f"(n={n},k={k}) best {s:.9f} <= {b} + 1e-6" for n, k, s, b in results
    )
    emit(5, ok, f"optimizer never exceeds the bound: {detail}; {elapsed:.0f}s (budget 600s)")


def test_criterion_6_chain_reduces_to_two_component_form():
    rng = np.random.default_rng(2024)
    shape = ScenarioShape(2, 2)
    worst = 0.0
    for _ in range(100):
        arr = rng.random(shape.tensor_shape)
        arr /= arr.reshape(2, 2, -1).sum(-1).reshape(2, 2, 1, 1, 1, 1)
        behavior = BehaviorTensor(shape, arr)
        r_mn = evaluate_mn(behavior)
        r_chain = evaluate_chain(behavior)
        worst = max(
            worst,
            abs(r_chain.statistic - r_mn.statistic),
            max(abs(a - b) for a, b in zip(r_chain.components, r_mn.components)),
        )
    ok = worst <= 1e-12
    emit(
        6,
        ok,
        f"general form == two-component form on 100 random behaviors (tol 1e-12): "
        f"worst dev {worst:.3e}",
    )


def test_criterion_7_postselection_gap():
    t0 = time.perf_counter()
    worst_td = 0.0
    worst_chsh = 0.0
    for p in P_GRID:
        for outcome, (_, target) in enumerate(BELL_LABELING):
            rho, _ = induced_state(p, outcome)
            model = p * proj(target) + (1 - p) * np.eye(4, dtype=complex) / 4
            worst_td = max(worst_td, trace_distance(rho, model))
            worst_chsh = max(worst_chsh, abs(chsh_max(rho) - 2 * np.sqrt(2) * p))
    flags_ok = all(gap_report(p).gap_witness for p in [0.51, 0.55, 0.60, 0.65]) and not any(
        gap_report(p).gap_witness for p in [0.30, 0.50, 0.70, 1.00]
    )
    elapsed = time.perf_counter() - t0
    ok = worst_td <= 1e-10 and worst_chsh <= 1e-9 and flags_ok and elapsed < 5.0
    emit(
        7,
        ok,
        f"induced Werner states: worst trace distance {worst_td:.3e} (tol 1e-10), "
        f"worst |chsh - 2*sqrt(2)p| {worst_chsh:.3e} (tol 1e-9); gap flags correct: {flags_ok}; "
        f"{elapsed:.2f}s (budget 5s)",
    )


def test_criterion_8_proof_step_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    z, zp, w, wp = rng.exponential(size=(4, 10**5))
    bad1 = int(np.sum(np.sqrt(z * w) + np.sqrt(zp * wp) > np.sqrt(z + zp) * np.sqrt(w + wp) + 1e-12))

    bad2 = 0
    total = 0
    for n, terms in [(1, 3), (2, 2), (2, 5), (3, 3), (4, 4)]:
        c = rng.exponential(size=(20000, n, terms))
        lhs = (c.prod(axis=1) ** (1.0 / n)).sum(axis=1)
        rhs = (c.sum(axis=2) ** (1.0 / n)).prod(axis=1)
        bad2 += int(np.sum(lhs > rhs * (1 + 1e-12) + 1e-12))
        total += 20000
    elapsed = time.perf_counter() - t0
    ok = bad1 == 0 and bad2 == 0 and total == 10**5 and elapsed < 10.0
    emit(
        8,
        ok,
        f"proof-step inequalities on 10^5 samples each: {bad1} and {bad2} counterexamples; "
        f"{elapsed:.2f}s (budget 10s)",
    )


def test_criterion_9_povm_validity_and_spectrum():
    worst = 0.0
    all_valid = True
    for p in P_GRID:
        elements = noisy_bsm(p)
        all_valid = all_valid and validate_povm(elements) == []
        want = np.sort([p + (1 - p) / 4] + [(1 - p) / 4] * 3)
        for element in elements:
            got = np.sort(np.linalg.eigvalsh(element))
            worst = max(worst, np.abs(got - want).max())
    ok = all_valid and worst <= 1e-10
    emit(
        9,
        ok,
        f"noisy Bell measurement valid on the grid: {all_valid}; eigenvalue spectrum "
        f"{{p + (1-p)/4, 3 x (1-p)/4}} worst dev {worst:.3e} (tol 1e-10)",
    )
