import itertools
import json

import numpy as np
import pytest

from jointcert.behavior import BehaviorTensor, ScenarioShape
from jointcert.inequalities import (
    chain_components,
    evaluate_chain,
    evaluate_mn,
    report_to_json,
)
from jointcert.quantum import closed_form_behavior

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
    }
    # deterministic serialization
    assert text == report_to_json(report)
    assert text.index('"bound"') < text.index('"components"') < text.index('"margin"')


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
