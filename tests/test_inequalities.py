import dataclasses
import functools
import itertools
import json
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointcert.behavior import BehaviorTensor, ScenarioShape, correlator_table
from jointcert.classical import (
    ClassicalStrategy,
    enumerate_deterministic,
    saturation_strategy,
    strategy_to_behavior,
    validate_strategy,
)
from jointcert.inequalities import (
    VERDICT_TOL,
    chain_components,
    evaluate_chain,
    evaluate_mn,
    exceeds_bound,
    report_to_json,
)
from jointcert.postselect import gap_report
from jointcert.quantum import closed_form_behavior, quantum_behavior

SHAPE22 = ScenarioShape(2, 2)


def random_behavior(shape, rng):
    arr = rng.random(shape.tensor_shape)
    sums = arr.reshape(shape.settings_shape + (-1,)).sum(-1)
    return BehaviorTensor(shape, arr / sums.reshape(shape.settings_shape + (1,) * (shape.n + shape.k)))


def test_uniform_scores_zero():
    report = evaluate_mn(BehaviorTensor.uniform(SHAPE22))
    assert report.statistic == pytest.approx(0.0, abs=1e-14)
    assert report.bound == 1.0
    assert not report.violated
    assert report.margin == pytest.approx(-1.0, abs=1e-14)


def test_quantum_closed_form_statistic_curve():
    for p in [0.0, 0.25, 0.5, 0.8, 1.0]:
        report = evaluate_mn(closed_form_behavior(p))
        assert report.statistic == pytest.approx(np.sqrt(2 * p), abs=1e-12)
        np.testing.assert_allclose(report.components, [p / 2, p / 2], atol=1e-14)


def test_violation_verdict_is_strict():
    report = evaluate_mn(closed_form_behavior(0.5))
    assert report.statistic == pytest.approx(1.0, abs=1e-12)
    assert report.violated == (report.statistic > 1.0)
    assert evaluate_mn(closed_form_behavior(0.51)).violated
    assert not evaluate_mn(closed_form_behavior(0.49)).violated


def test_mn_requires_two_by_two():
    with pytest.raises(ValueError):
        evaluate_mn(BehaviorTensor.uniform(ScenarioShape(3, 2)))
    with pytest.raises(ValueError):
        evaluate_mn(BehaviorTensor.uniform(ScenarioShape(2, 3)))


def test_chain_reduces_to_mn_on_random_behaviors():
    rng = np.random.default_rng(23)
    for _ in range(100):
        behavior = random_behavior(SHAPE22, rng)
        r_mn = evaluate_mn(behavior)
        r_chain = evaluate_chain(behavior)
        assert r_chain.bound == r_mn.bound == 1.0
        assert abs(r_chain.statistic - r_mn.statistic) < 1e-12
        np.testing.assert_allclose(r_chain.components, r_mn.components, atol=1e-12)


def test_chain_known_deterministic_value():
    # all outputs 0 and charlie always (0,..,0): <A_x> = 1 so I_0 = 1 and the
    # wrapped component vanishes; statistic equals 1 at the bound k-1 = 1
    arr = np.zeros(SHAPE22.tensor_shape)
    arr[:, :, 0, 0, 0, 0] = 1.0
    report = evaluate_chain(BehaviorTensor(SHAPE22, arr))
    np.testing.assert_allclose(report.components, [1.0, 0.0], atol=1e-14)
    assert report.statistic == pytest.approx(1.0, abs=1e-14)
    assert not report.violated


def test_chain_components_linear_under_mixing():
    rng = np.random.default_rng(29)
    shape = ScenarioShape(2, 3)
    for _ in range(20):
        b1 = random_behavior(shape, rng)
        b2 = random_behavior(shape, rng)
        w = rng.random()
        mixed = BehaviorTensor(
            shape, w * b1.probabilities + (1 - w) * b2.probabilities
        )
        got = np.array(chain_components(mixed))
        want = w * np.array(chain_components(b1)) + (1 - w) * np.array(chain_components(b2))
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_mixing_quantum_behaviors_moves_statistic_affinely():
    # mixing the p and q models gives the model at the mixed sharpness
    for p, q, w in [(0.2, 0.9, 0.3), (0.0, 1.0, 0.5), (0.4, 0.6, 0.75)]:
        mixed = BehaviorTensor(
            SHAPE22,
            w * closed_form_behavior(p).probabilities
            + (1 - w) * closed_form_behavior(q).probabilities,
        )
        eff = w * p + (1 - w) * q
        report = evaluate_mn(mixed)
        assert report.statistic == pytest.approx(np.sqrt(2 * eff), abs=1e-12)


@pytest.mark.parametrize(
    "shape, index, value, evaluators, components",
    [
        ((2, 2), (0,) * 6, np.nan, (evaluate_mn, evaluate_chain), r"\(nan, nan\)"),
        ((2, 2), (0,) * 6, np.inf, (evaluate_mn, evaluate_chain), r"\(inf, inf\)"),
        # x_1 = 2 enters only the wrapped block I_2
        ((2, 3), (2,) + (0,) * 6, np.nan, (evaluate_chain,), r"\(0\.0, 0\.0, nan\)"),
    ],
    ids=["nan", "inf", "nan-in-wrapped-block"],
)
def test_non_finite_behavior_gets_no_verdict(shape, index, value, evaluators, components):
    # a NaN statistic used to read as not violated and an infinite one as violated
    shape = ScenarioShape(*shape)
    arr = BehaviorTensor.uniform(shape).probabilities.copy()
    arr[index] = value
    behavior = BehaviorTensor(shape, arr)
    for evaluate in evaluators:
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=r"not finite: components " + components):
                evaluate(behavior)


REPORT_FIELD_TYPES = {
    "statistic": float,
    "bound": float,
    "components": tuple,
    "violated": bool,
    "margin": float,
    "floor": float,
}


@pytest.mark.parametrize("evaluate", [evaluate_mn, evaluate_chain])
def test_reports_carry_plain_python_scalars(evaluate):
    behaviors = [
        quantum_behavior(0.8),
        closed_form_behavior(0.3),
        BehaviorTensor.uniform(SHAPE22),
        strategy_to_behavior(saturation_strategy(0.25)),
    ]
    if evaluate is evaluate_chain:
        rng = np.random.default_rng(37)
        behaviors += [random_behavior(ScenarioShape(3, 2), rng), random_behavior(ScenarioShape(2, 3), rng)]
    for behavior in behaviors:
        report = evaluate(behavior)
        types = {field.name: type(getattr(report, field.name)) for field in dataclasses.fields(report)}
        assert types == REPORT_FIELD_TYPES
        assert [type(c) for c in report.components] == [float] * behavior.shape.k
        assert type(exceeds_bound(report, VERDICT_TOL)) is bool
    for p in (0.3, 0.6, 1.0):
        gap = gap_report(p)
        flags = (gap.jointly_nonclassical, gap.postselected_lhv_simulable, gap.gap_witness)
        assert [type(flag) for flag in flags] == [bool] * 3


def test_report_json_round_trip():
    report = evaluate_mn(closed_form_behavior(0.8))
    text = report_to_json(report)
    doc = json.loads(text)
    assert doc == {
        "statistic": report.statistic,
        "bound": report.bound,
        "components": list(report.components),
        "violated": report.violated,
        "margin": report.margin,
        "floor": report.floor,
    }
    # deterministic serialization
    assert text == report_to_json(report)
    assert text.index('"bound"') < text.index('"components"') < text.index('"margin"')


# --- verdicts on the floor ---------------------------------------------------


def reference_evaluate_mn(behavior):
    """evaluate_mn's arithmetic written as the loop it replaced: the
    statistic, the components (M, N) and the floor at delta = 2**-48 as
    a sum of two terms."""
    table = correlator_table(behavior).tolist()
    m = 0.0
    n_comp = 0.0
    for x, y in itertools.product(range(2), repeat=2):
        m += table[x][y][0]
        n_comp += (-1.0) ** (x + y) * table[x][y][1]
    m /= 4.0
    n_comp /= 4.0
    floor = max(abs(m) - 2**-48, 0.0) ** 0.5 + max(abs(n_comp) - 2**-48, 0.0) ** 0.5
    return abs(m) ** 0.5 + abs(n_comp) ** 0.5, (m, n_comp), floor


def test_evaluate_mn_matches_the_reference_loop_bit_for_bit():
    # every deterministic strategy has exact correlators, so any summation
    # order gives the same bits there; the random behaviors catch a reorder
    rng = np.random.default_rng(37)
    behaviors = itertools.chain(
        (strategy_to_behavior(s) for s in enumerate_deterministic(SHAPE22, 2)),
        (random_behavior(SHAPE22, rng) for _ in range(1000)),
    )
    count = 0
    for behavior in behaviors:
        report = evaluate_mn(behavior)
        statistic, components, floor = reference_evaluate_mn(behavior)
        # hex strings tell -0.0 from 0.0
        got = [v.hex() for v in (report.statistic, *report.components, report.margin)]
        assert got == [v.hex() for v in (statistic, *components, statistic - 1.0)]
        assert report.floor.hex() == floor.hex()
        assert report.bound == 1.0
        assert report.violated == (statistic > 1.0)
        count += 1
    assert count == 16384 + 1000


def near_bound_strategy(n, k, L, noise, rng):
    """A classical strategy next to the chain bound with I_0 close to 0.

    Party j's output means are s_j at setting 0 and -s_j at every other
    setting, each shrunk by up to noise: settings 0 and 1 are anti-aligned,
    so hbar_j(0) is at most noise and every other |hbar_j(i)| is near 1.
    One response of the measuring device carries all but noise of each row,
    so every |Gamma_i| is near 1 and the statistic near k - 1.
    """
    tables = []
    for sign in rng.choice([-1.0, 1.0], size=n):
        target = np.full(k, -sign)
        target[0] = sign
        mean = target * (1.0 - noise * rng.random(k))
        tables.append(np.stack([(1.0 + mean) / 2, (1.0 - mean) / 2], axis=1))
    dists = tuple(rng.dirichlet(np.ones(L)) for _ in range(n))
    charlie = noise * rng.dirichlet(np.ones(2**k), size=L**n)
    charlie[:, rng.integers(2**k)] += 1.0 - noise
    shape = ScenarioShape(n, k)
    return ClassicalStrategy(shape, L, tuple(tables), dists, charlie.reshape((L,) * n + (2,) * k))


@settings(max_examples=300, deadline=None)
@given(
    nk=st.sampled_from([(2, 2), (3, 2), (4, 2), (5, 2), (3, 3)]),
    L=st.sampled_from([2, 3]),
    noise_exponent=st.floats(-9.0, -4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_bound_classical_strategies_are_never_violated(nk, L, noise_exponent, seed):
    # the exact statistic is at most the bound, but rounding of about 1e-16
    # in the vanishing I_0, raised to the power 1/n, lifts the computed
    # statistic above it in 40 to 80 % of these draws at n >= 3
    strategy = near_bound_strategy(*nk, L, 10.0**noise_exponent, np.random.default_rng(seed))
    assert validate_strategy(strategy) == []
    behavior = strategy_to_behavior(strategy)
    reports = [evaluate_chain(behavior)] + ([evaluate_mn(behavior)] if nk == (2, 2) else [])
    n, k = nk
    for report in reports:
        assert not report.violated
        assert report.floor <= report.statistic
        # the floor as a generator sum, apart from _report's loop
        floor = sum(max(abs(c) - 2.0 ** (n + k - 52), 0.0) ** (1.0 / n) for c in report.components)
        assert report.floor.hex() == floor.hex()


def exact_components(behavior):
    """The chain components of a behavior's float entries in exact rational
    arithmetic, term by term from the definition."""
    n, k = behavior.shape.n, behavior.shape.k
    probs = behavior.probabilities
    components = []
    for i in range(k):
        total = Fraction(0)
        for picks in itertools.product(range(2), repeat=n):
            x = tuple((i + p) % k for p in picks)
            wrap = (-1) ** sum(picks) if i == k - 1 else 1
            for a in itertools.product(range(2), repeat=n):
                for c in itertools.product(range(2), repeat=k):
                    sign = wrap * (-1) ** (sum(a) + c[i])
                    total += sign * Fraction(probs.item(x + a + c))
        components.append(total / 2**n)
    return components


@settings(max_examples=40, deadline=None)
@given(
    nk=st.sampled_from([(2, 2), (3, 2), (2, 3)]),
    near_bound=st.booleans(),
    noise_exponent=st.floats(-9.0, -4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_floor_never_exceeds_the_exact_statistic(nk, near_bound, noise_exponent, seed):
    rng = np.random.default_rng(seed)
    shape = ScenarioShape(*nk)
    if near_bound:
        behavior = strategy_to_behavior(near_bound_strategy(*nk, 2, 10.0**noise_exponent, rng))
    else:
        behavior = random_behavior(shape, rng)
    report = evaluate_chain(behavior)
    with localcontext() as ctx:
        ctx.prec = 60
        root = Decimal(1) / shape.n
        exact = sum(
            (Decimal(abs(c.numerator)) / c.denominator) ** root for c in exact_components(behavior) if c
        )
        assert Decimal(report.floor) <= exact


@functools.cache
def deterministic_strategies(n, k, L):
    return list(enumerate_deterministic(ScenarioShape(n, k), L))


@settings(max_examples=100, deadline=None)
@given(nkL=st.sampled_from([(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)]), data=st.data())
def test_mixtures_of_deterministic_strategies_obey_the_shared_source_bound(nkL, data):
    # a mixture of deterministic strategies is a model with one shared source;
    # the components are linear in the behavior, and at a deterministic point
    # each |I_i| is 0 or 1 with at least one 0, so sum_i |I_i| <= k - 1.  At
    # n = k = 2 this is |I| + |J| <= 1 (Branciard, Rosset, Gisin, Pironio,
    # PRA 85, 032119, 2012)
    n, k, L = nkL
    pool = deterministic_strategies(n, k, L)
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    weights = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(len(picks)))
    mixture = sum(w * strategy_to_behavior(pool[i]).probabilities for w, i in zip(weights, picks))
    components = chain_components(BehaviorTensor(ScenarioShape(n, k), mixture))
    assert sum(abs(c) for c in components) <= k - 1 + 1e-12


def test_quantum_violations_above_one_half_survive_the_floor():
    for p in [0.5 + 1e-9, 0.5 + 1e-6, 0.51, 0.6, 0.75, 0.9, 1.0]:
        for behavior in (quantum_behavior(p), closed_form_behavior(p)):
            for report in (evaluate_mn(behavior), evaluate_chain(behavior)):
                assert report.violated and report.floor > 1.0
                assert report.statistic - report.floor < 1e-13


# --- proof-step property suites -------------------------------------------
#
# The classical bounds rest on two elementary inequalities; both are checked
# on large random samples.


def test_root_product_inequality_large_sample():
    # sqrt(z w) + sqrt(z' w') <= sqrt(z + z') sqrt(w + w') for nonnegative reals
    rng = np.random.default_rng(101)
    count = 10**5
    z, zp, w, wp = rng.exponential(size=(4, count))
    lhs = np.sqrt(z * w) + np.sqrt(zp * wp)
    rhs = np.sqrt(z + zp) * np.sqrt(w + wp)
    assert np.all(lhs <= rhs + 1e-12)


def test_product_sum_inequality_large_sample():
    # sum_t (prod_i c[i,t])^(1/n) <= prod_i (sum_t c[i,t])^(1/n), c >= 0
    rng = np.random.default_rng(103)
    total = 0
    for n, terms in [(1, 3), (2, 2), (2, 5), (3, 3), (4, 4)]:
        count = 20000
        c = rng.exponential(size=(count, n, terms))
        lhs = (c.prod(axis=1) ** (1.0 / n)).sum(axis=1)
        rhs = (c.sum(axis=2) ** (1.0 / n)).prod(axis=1)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12), f"failed at n={n}, terms={terms}"
        total += count
    assert total == 10**5
