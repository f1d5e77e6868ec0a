import dataclasses
import itertools
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jointcert import classical
from jointcert.behavior import (
    BehaviorTensor,
    InvalidBehaviorError,
    ScenarioShape,
    load_behavior,
    save_behavior,
    signalling_residuals,
    validate_behavior,
)
from jointcert.classical import (
    MAX_COUNT_BITS,
    MAX_DETERMINISTIC,
    MAX_OPTIMIZER_CELLS,
    RESPONSE_BLOCK_CELLS,
    ROW_TOL,
    ClassicalStrategy,
    _ascend,
    _charlie_signs,
    _gradient_pass,
    _normalize_logits,
    _output_rows,
    _softmax,
    _state_views,
    deterministic_count,
    enumerate_deterministic,
    load_strategy,
    optimize_classical,
    saturation_strategy,
    save_strategy,
    strategy_to_behavior,
    validate_strategy,
)
from jointcert.cli import EXIT_OK, main
from jointcert.inequalities import InequalityReport, evaluate_chain, evaluate_mn, report_to_json

SHAPE22 = ScenarioShape(2, 2)


def random_strategy(n, k, L, rng):
    tables = tuple(rng.dirichlet(np.ones(2), size=k) for _ in range(n))
    dists = tuple(rng.dirichlet(np.ones(L)) for _ in range(n))
    charlie = rng.dirichlet(np.ones(2**k), size=L**n).reshape((L,) * n + (2,) * k)
    return ClassicalStrategy(ScenarioShape(n, k), L, tables, dists, charlie)


def gradient(theta, n, k, L):
    """The optimizer's gradient at a (D, R) state, and the statistic."""
    grad = np.empty(theta.shape)
    stat = _gradient_pass(theta.copy(), grad, n, k, L)()
    return grad, stat


def fast_statistic(theta, n, k, L):
    return gradient(theta, n, k, L)[1]


# The reference gradient: the model pass with fresh arrays, one expression
# per quantity.  The workspace pass must keep every product and sum of this
# association, so the two agree bit for bit.


def reference_setting_steps(k):
    """Read-only (sigma, nxt, prv) over k settings: sigma_i = -1 at i = k-1
    and 1 elsewhere, as a (k, 1) column that broadcasts over restarts,
    nxt[i] = i+1 mod k and prv[i] = i-1 mod k."""
    sigma = np.ones((k, 1))
    sigma[k - 1] = -1.0
    nxt = (np.arange(k) + 1) % k
    prv = (np.arange(k) - 1) % k
    for table in (sigma, nxt, prv):
        table.setflags(write=False)
    return sigma, nxt, prv


def reference_decompose(theta, n, k, L):
    """All intermediate quantities of the fast statistic at each column of a
    (D, R) state; each comes out with the restart axis last."""
    gaps, hid, cha = _state_views(theta, n, k, L)
    R = theta.shape[1]
    hid_probs = _softmax(hid)  # (L, n, R)
    cha_probs = _softmax(cha)  # (2**k, L**n, R)
    sigma, nxt, _ = reference_setting_steps(k)
    means = np.tanh(0.5 * gaps)  # (n, k, R)
    h = 0.5 * (means + sigma * means[:, nxt])  # (n, k, R)
    # h_before[j] multiplies the factors of parties < j
    h_before = np.empty_like(h)
    h_before[0] = 1.0
    hprod = h[0]  # (k, R)
    for j in range(1, n):
        h_before[j] = hprod
        hprod = hprod * h[j]
    # w_prefix[j] is the joint weight of parties < j, (L**j, R), and
    # w_prefix[n] is w; party 0's value is the most significant digit
    w_prefix = [np.ones((1, R)), hid_probs[:, 0]]
    for j in range(1, n):
        w_prefix.append((w_prefix[j][:, None] * hid_probs[:, j]).reshape(-1, R))
    pbar = (cha_probs * w_prefix[n]).sum(axis=1)  # (2**k, R)
    gamma = _charlie_signs(k).T @ pbar  # (k, R)
    comps = gamma * hprod  # (k, R)
    roots = np.abs(comps) ** (1.0 / n)  # (k, R)
    stat = roots.sum(axis=0)  # (R,)
    return {
        "hid_probs": hid_probs,
        "cha_probs": cha_probs,
        "means": means,
        "h": h,
        "h_before": h_before,
        "hprod": hprod,
        "w_prefix": w_prefix,
        "gamma": gamma,
        "comps": comps,
        "roots": roots,
        "stat": stat,
    }


def reference_gradient(theta, grad, n, k, L):
    """Exact gradient of the chain statistic at each column of a (D, R)
    state, written into grad, a (D, R) array of the same layout; its gap
    segment holds twice the slope in each gap.  Returns the statistic, (R,).
    """
    d = reference_decompose(theta, n, k, L)
    g_gaps, g_hid, g_cha = _state_views(grad, n, k, L)
    h, comps, means, hid_probs = d["h"], d["comps"], d["means"], d["hid_probs"]
    w_prefix = d["w_prefix"]
    R = theta.shape[1]
    sigma, _, prv = reference_setting_steps(k)

    # d stat / d I_i = sign(I_i) |I_i|^(1/n - 1) / n = |I_i|^(1/n) / (n I_i)
    g_comps = np.divide(
        d["roots"],
        n * comps,
        out=np.zeros_like(comps),
        where=comps != 0,
    )  # (k, R)

    # output rows: hbar_j(i) enters I_i times the other parties' factors,
    # the prefix over parties < j times the suffix over parties > j, which
    # multiplies into the prefixes in place
    excl = d["h_before"]
    h_after = h[n - 1]
    for j in range(n - 2, -1, -1):
        excl[j] *= h_after
        if j:
            h_after = h_after * h[j]
    g_h = (g_comps * d["gamma"]) * excl  # (n, k, R)
    # <A_x> enters hbar(x) with weight 1/2 and hbar(x-1) with sigma_{x-1}/2,
    # and 2 d <A_x> / du_x = 1 - <A_x>**2
    np.multiply(0.5 * (1.0 - means * means), g_h + (sigma * g_h)[:, prv], out=g_gaps)

    # response rows: d stat / d P(c | m) = w_m g_corr(c), whose softmax VJP
    # is P(c | m) w_m (g_corr(c) - g_w(m)) with g_w(m) = sum_c P(c | m) g_corr(c)
    g_corr = _charlie_signs(k) @ (g_comps * d["hprod"])  # (2**k, R)
    cha_probs = d["cha_probs"]
    g_w = (cha_probs * g_corr[:, None]).sum(axis=0)  # (L**n, R)
    np.subtract(g_corr[:, None], g_w, out=g_cha)
    g_cha *= cha_probs
    g_cha *= w_prefix[n]

    # hidden rows: w_m is the product of one entry per party, so party j's
    # slope sums g_w over the other parties' weights: the suffix over
    # parties > j, then the prefix over parties < j; party n-1 has no
    # suffix and party 0 no prefix, so those sides are skipped
    after = None
    for j in reversed(range(n)):
        grid = g_w.reshape(L**j, L, -1, R)
        grid = grid[:, :, 0] if after is None else (grid * after).sum(axis=2)
        g_hid[:, j] = grid[0] if j == 0 else (grid * w_prefix[j][:, None]).sum(axis=0)
        if j:
            probs = hid_probs[:, j]
            after = probs if after is None else (probs[:, None] * after).reshape(-1, R)
    g_hid -= (hid_probs * g_hid).sum(axis=0)
    g_hid *= hid_probs
    return d["stat"]


def logits_of(strategy):
    """One restart's (D, 1) state in the optimizer's layout: output gaps
    log p_0 - log p_1 as (n, k), then the softmax axis first, hidden logits
    (L, n) and response logits (2**k, L**n), each flattened into rows."""
    n, k = strategy.shape.n, strategy.shape.k
    L = strategy.hidden_alphabet
    log_tables = np.log(np.stack(strategy.output_tables))
    out = log_tables[..., 0] - log_tables[..., 1]
    hid = np.log(np.stack(strategy.hidden_dists)).T
    cha = np.log(strategy.charlie_table.reshape(L**n, 2**k)).T
    return np.concatenate([out.ravel(), hid.ravel(), cha.ravel()])[:, None]


def random_starts(n, k, L, restarts, rng):
    """A (D, R) state of random gaps and normalized random hidden and
    response logits."""
    theta = rng.normal(size=(n * k + n * L + 2**k * L**n, restarts))
    _, hid, cha = _state_views(theta, n, k, L)
    _normalize_logits(hid)
    _normalize_logits(cha)
    return theta


def test_strategy_shape_validation():
    with pytest.raises(ValueError, match="hidden alphabet size must be >= 1"):
        ClassicalStrategy(SHAPE22, 0, (), (), np.zeros(()))
    # alphabet 0 with shapes that agree with it: only the alphabet check can raise
    with pytest.raises(ValueError, match="hidden alphabet size must be >= 1"):
        ClassicalStrategy(
            SHAPE22,
            0,
            (np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
            (np.zeros(0), np.zeros(0)),
            np.zeros((0, 0, 2, 2)),
        )
    with pytest.raises(ValueError, match=r"need 2 output tables of shape \(2, 2\)"):
        ClassicalStrategy(
            SHAPE22,
            2,
            (np.zeros((2, 2)),),  # only one table for two parties
            (np.full(2, 0.5), np.full(2, 0.5)),
            np.zeros((2, 2, 2, 2)),
        )
    with pytest.raises(ValueError, match=r"need 2 hidden distributions of shape \(2,\)"):
        ClassicalStrategy(
            SHAPE22,
            2,
            (np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
            (np.full(3, 1 / 3), np.full(3, 1 / 3)),  # length 3 for alphabet 2
            np.zeros((2, 2, 2, 2)),
        )
    with pytest.raises(ValueError, match=r"charlie table has shape \(2, 2, 2\), expected \(2, 2, 2, 2\)"):
        ClassicalStrategy(
            SHAPE22,
            2,
            (np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
            (np.full(2, 0.5), np.full(2, 0.5)),
            np.zeros((2, 2, 2)),
        )
    # a hidden alphabet that is not an integer is refused, never truncated
    tables = (np.full((2, 2), 0.5), np.full((2, 2), 0.5))
    dists = (np.full(2, 0.5), np.full(2, 0.5))
    for alphabet in (2.7, 2.0, True):
        with pytest.raises(ValueError, match="hidden alphabet size must be an integer"):
            ClassicalStrategy(SHAPE22, alphabet, tables, dists, np.full((2, 2, 2, 2), 0.25))
    strategy = ClassicalStrategy(SHAPE22, np.int64(2), tables, dists, np.full((2, 2, 2, 2), 0.25))
    assert type(strategy.hidden_alphabet) is int and strategy.hidden_alphabet == 2


def test_validate_strategy_reports_bad_rows():
    strategy = saturation_strategy(0.3)
    assert validate_strategy(strategy) == []
    bad_table = np.array([[0.9, 0.2], [0.5, 0.5]])
    bad = ClassicalStrategy(
        SHAPE22,
        2,
        (bad_table, np.full((2, 2), 0.5)),
        (np.full(2, 0.5), np.full(2, 0.5)),
        strategy.charlie_table,
    )
    assert any("output table 0" in p for p in validate_strategy(bad))
    neg = ClassicalStrategy(
        SHAPE22,
        2,
        (np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
        (np.array([1.5, -0.5]), np.full(2, 0.5)),
        strategy.charlie_table,
    )
    assert any("negative" in p for p in validate_strategy(neg))
    # NaN compares false against any tolerance, so it must be named, not missed
    for value in (np.nan, np.inf):
        table = np.full((2, 2), 0.5)
        table[1, 0] = value
        charlie = strategy.charlie_table.copy()
        charlie[1, 0, 0, 1] = value
        odd = ClassicalStrategy(
            SHAPE22, 2, (table, np.full((2, 2), 0.5)), (np.full(2, 0.5), np.full(2, 0.5)), charlie
        )
        problems = validate_strategy(odd)
        assert "output table 0 has 1 non-finite entries (NaN or infinity)" in problems, problems
        assert "charlie table has 1 non-finite entries (NaN or infinity)" in problems, problems


def test_validate_strategy_gives_every_problem_in_table_order():
    # every table of a three-party strategy broken at once, some twice: each
    # problem text and their order are those of one check per table
    rng = np.random.default_rng(17)
    strategy = random_strategy(3, 2, 3, rng)
    tables = [t.copy() for t in strategy.output_tables]
    dists = [d.copy() for d in strategy.hidden_dists]
    charlie = strategy.charlie_table.copy()
    tables[0][1] = [1.5, -0.5]
    tables[1][0, 0] = np.nan
    tables[2][0] = [-0.25, 1.0]
    dists[0][0] = np.inf
    dists[1] = np.array([0.5, 0.5, 0.5])
    dists[2][2] = -1e-3
    charlie[0, 1, 2, 1, 0] = np.nan
    charlie[2, 2, 2] = [[0.75, 0.5], [-0.25, 0.0]]
    broken = ClassicalStrategy(strategy.shape, 3, tuple(tables), tuple(dists), charlie)
    # the response table's NaN hides its -0.25: a NaN minimum compares false
    assert validate_strategy(broken) == [
        "output table 0 has a negative entry -5.000e-01",
        "hidden distribution 0 has 1 non-finite entries (NaN or infinity)",
        "output table 1 has 1 non-finite entries (NaN or infinity)",
        "hidden distribution 1 rows off normalization by 5.000e-01",
        "output table 2 has a negative entry -2.500e-01",
        "output table 2 rows off normalization by 2.500e-01",
        "hidden distribution 2 has a negative entry -1.000e-03",
        "hidden distribution 2 rows off normalization by 7.352e-01",
        "charlie table has 1 non-finite entries (NaN or infinity)",
    ]
    assert validate_strategy(strategy) == []


@pytest.mark.parametrize(
    "row, expected",
    [
        (
            [np.inf, -np.inf],
            [
                "output table 0 has a negative entry -inf",
                "output table 0 has 2 non-finite entries (NaN or infinity)",
            ],
        ),
        ([1e308, 1e308], ["output table 0 rows off normalization by inf"]),
    ],
)
def test_validate_strategy_names_infinite_and_overflowing_rows_without_warnings(row, expected):
    # the row sums are NaN or overflow; the texts say so, and numpy stays quiet
    table = np.array([row, [0.5, 0.5]])
    strategy = saturation_strategy(0.3)
    odd = dataclasses.replace(strategy, output_tables=(table, strategy.output_tables[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_strategy(odd) == expected


def test_every_strategy_the_package_builds_is_valid(tmp_path):
    built = []
    for n, k, L in [(1, 2, 3), (2, 3, 1), (3, 2, 1)]:
        built += list(enumerate_deterministic(ScenarioShape(n, k), L))
    assert len(built) == 768 + 512 + 256
    built += [saturation_strategy(r) for r in np.linspace(0.0, 1.0, 11)]
    for shape, L in [(ScenarioShape(2, 2), 4), (ScenarioShape(2, 3), 2), (ScenarioShape(3, 2), 2)]:
        built.append(optimize_classical(shape, hidden_alphabet=L, restarts=3, seed=7, iterations=50)[1])
    path = tmp_path / "s.json"
    argv = ["optimize", "--n", "3", "--restarts", "3", "--iterations", "50", "--strategy-out", str(path)]
    assert main(argv) == EXIT_OK
    built.append(load_strategy(path))
    assert [validate_strategy(strategy) for strategy in built] == [[]] * len(built)


def test_strategy_behavior_is_valid_and_factorizes():
    rng = np.random.default_rng(31)
    for n, k, L in [(2, 2, 2), (2, 3, 3), (3, 2, 2), (1, 2, 2)]:
        strategy = random_strategy(n, k, L, rng)
        behavior = strategy_to_behavior(strategy)
        assert validate_behavior(behavior) == []
        # outputs and charlie outcome are independent: P(a, c | x) = P(a|x) P(c)
        arr = behavior.probabilities
        out_marg = arr.sum(axis=tuple(range(2 * n, 2 * n + k)))
        cha_marg = arr[(0,) * n].sum(axis=tuple(range(n)))
        product = np.multiply.outer(out_marg, cha_marg)
        np.testing.assert_allclose(arr, product, atol=1e-13)


def test_strategy_behavior_hand_oracle():
    # deterministic: a = x, b = 1 - y, lambda = (0, 1), c = (l1 AND l2, l1 OR l2)
    tables = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    dists = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    charlie = np.zeros((2, 2, 2, 2))
    for l1, l2 in itertools.product(range(2), repeat=2):
        charlie[l1, l2, l1 & l2, l1 | l2] = 1.0
    behavior = strategy_to_behavior(ClassicalStrategy(SHAPE22, 2, tables, dists, charlie))
    want = np.zeros(SHAPE22.tensor_shape)
    for x, y in itertools.product(range(2), repeat=2):
        want[x, y, x, 1 - y, 0, 1] = 1.0  # lambda = (0,1): AND = 0, OR = 1
    np.testing.assert_array_equal(behavior.probabilities, want)


def test_saturation_family_components():
    for r in np.linspace(0.0, 1.0, 101):
        report = evaluate_mn(strategy_to_behavior(saturation_strategy(r)))
        assert abs(report.components[0] - r**2) < 1e-12
        assert abs(report.components[1] - (1 - r) ** 2) < 1e-12
        # the statistic sits exactly on the bound, so it can exceed it at
        # float precision; the margin is what must vanish, and the verdict,
        # taken on the floor, must never read violated
        assert abs(report.margin) < 1e-12
        assert not report.violated
    with pytest.raises(ValueError):
        saturation_strategy(1.2)


@settings(max_examples=60, deadline=None)
@given(
    nk=st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]),
    L=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_classical_behaviors_do_not_signal(nk, L, seed):
    behavior = strategy_to_behavior(random_strategy(*nk, L, np.random.default_rng(seed)))
    assert signalling_residuals(behavior).max() <= 1e-14
    assert validate_behavior(behavior) == []


def test_deterministic_count_values():
    assert deterministic_count(SHAPE22, 2) == 16384
    assert deterministic_count(ScenarioShape(1, 2), 1) == 16
    assert deterministic_count(ScenarioShape(3, 2), 1) == 256
    assert deterministic_count(ScenarioShape(2, 2), 1) == 64


def test_enumeration_refuses_bad_alphabet():
    # True used to count as L = 1 (64 strategies) and 2.0 failed inside np.eye;
    # 0 used to count 0 strategies and enumerate none
    for alphabet, message in [(True, "an integer"), (2.0, "an integer"), ("2", "an integer"), (0, ">= 1"), (-1, ">= 1")]:
        with pytest.raises(ValueError, match="hidden alphabet size must be " + message):
            deterministic_count(SHAPE22, alphabet)
        with pytest.raises(ValueError, match="hidden alphabet size must be " + message):
            next(enumerate_deterministic(SHAPE22, alphabet))
    assert deterministic_count(SHAPE22, np.int64(2)) == 16384
    strategy = next(enumerate_deterministic(ScenarioShape(1, 2), np.int64(1)))
    assert type(strategy.hidden_alphabet) is int


def test_enumerate_small_scenario_exhaustively():
    shape = ScenarioShape(1, 2)
    strategies = list(enumerate_deterministic(shape, 1))
    assert len(strategies) == deterministic_count(shape, 1)
    best = 0.0
    for strategy in strategies:
        assert validate_strategy(strategy) == []
        report = evaluate_chain(strategy_to_behavior(strategy))
        best = max(best, report.statistic)
        assert report.statistic <= 1.0 + 1e-12
    assert best == pytest.approx(1.0, abs=1e-12)


def test_enumerate_respects_cap():
    # (n, k, L) = (2, 2, 4) has 16 * 16 * 4**16, about 1.1e12, strategies;
    # at L = 100 the count has more than 4300 digits (its text used to raise
    # Python's digit-limit error) and at L = 10**5 it is about 4**(10**10)
    # (forming it used to hang): all are refused before the count is formed
    assert deterministic_count(SHAPE22, 4) > MAX_DETERMINISTIC
    for alphabet in (4, 100, 10**5, 10**9):
        with pytest.raises(ValueError, match="MAX_DETERMINISTIC = 100000000 deterministic"):
            next(enumerate_deterministic(SHAPE22, alphabet))


def test_enumerate_below_the_cap_passes_the_screen():
    # every shape the exact count admits passes the bit-length screen;
    # criterion 4 counts the 16384 strategies at (2, 2, L=2)
    for n, k, L in itertools.product(range(1, 5), range(2, 5), range(1, 6)):
        shape = ScenarioShape(n, k)
        if deterministic_count(shape, L) <= MAX_DETERMINISTIC:
            assert next(enumerate_deterministic(shape, L)).hidden_alphabet == L


def test_deterministic_count_refuses_huge_counts_at_once():
    # 4**(10**10) at L = 10**5 used to hang; at (18, 2, 3) the count has
    # about 775 million bits, where a bound from L's bit length alone reads
    # 524,342; n = 10**9 and k = 10**7 need no large L at all
    for n, k, L in [(2, 2, 10**5), (2, 2, 10**9), (18, 2, 3), (10**9, 2, 1), (1, 10**7, 1)]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_COUNT_BITS = 1048576 bits"):
            deterministic_count(ScenarioShape(n, k), L)
        assert time.perf_counter() - start < 1.0, (n, k, L)
    assert deterministic_count(SHAPE22, 100) == 16 * 100**2 * 4 ** (100**2)
    assert deterministic_count(SHAPE22, 100).bit_length() == 20018
    # the cap is on the exact bit length, 2 + 2L + 19 at (1, 2, L) for L
    # below 2**19: one bit under it at L = 524277, one over at L = 524278
    assert deterministic_count(ScenarioShape(1, 2), 524277).bit_length() == MAX_COUNT_BITS - 1
    with pytest.raises(ValueError, match="MAX_COUNT_BITS"):
        deterministic_count(ScenarioShape(1, 2), 524278)


def test_enumerated_strategies_share_no_writable_state():
    shape = ScenarioShape(1, 2)
    reference = [strategy_to_behavior(s).probabilities for s in enumerate_deterministic(shape, 2)]
    stream = enumerate_deterministic(shape, 2)
    first = next(stream)
    for shared in (first.output_tables[0], first.hidden_dists[0]):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.5
    first.charlie_table[...] = 0.25  # each strategy owns its response table
    for want, strategy in zip(reference[1:], stream, strict=True):
        assert validate_strategy(strategy) == []
        np.testing.assert_array_equal(strategy_to_behavior(strategy).probabilities, want)


def reference_enumeration(shape, L):
    """The enumeration one strategy at a time, each response table a row
    selection of a 2**k identity: (output tables, hidden dists, response table)."""
    n, k = shape.n, shape.k
    functions = np.array(list(itertools.product(range(2), repeat=k)))
    table_pool = np.eye(2)[functions]
    responses = np.eye(2**k)
    for tables in itertools.product(table_pool, repeat=n):
        for dists in itertools.product(np.eye(L), repeat=n):
            for response in itertools.product(range(2**k), repeat=L**n):
                yield tables, dists, responses[list(response)].reshape((L,) * n + (2,) * k)


@pytest.mark.parametrize("n, k, L", [(1, 2, 3), (2, 2, 1), (2, 2, 2), (1, 2, 8)])
def test_enumeration_matches_the_reference_generator(n, k, L):
    shape = ScenarioShape(n, k)
    rows = RESPONSE_BLOCK_CELLS // (L**n * 2**k)
    limit = None
    if (2**k) ** (L**n) > rows:
        # more response codes than one block holds: the first two blocks
        # and the first strategy of the third
        limit = 2 * rows + 1
    got = list(itertools.islice(enumerate_deterministic(shape, L), limit))
    want = list(itertools.islice(reference_enumeration(shape, L), limit))
    assert len(got) == len(want) == (limit or deterministic_count(shape, L))
    for field, index in [("output_tables", 0), ("hidden_dists", 1), ("charlie_table", 2)]:
        np.testing.assert_array_equal(
            np.array([getattr(s, field) for s in got]), np.array([w[index] for w in want])
        )
    # each response table is C-contiguous, the layout strategy_to_behavior
    # reads, and writable
    assert all(s.charlie_table.flags.c_contiguous and s.charlie_table.flags.writeable for s in got)


def strategy_arrays(strategy):
    return [*strategy.output_tables, *strategy.hidden_dists, strategy.charlie_table]


FIELD_NAMES = {field.name for field in dataclasses.fields(ClassicalStrategy)}


def rebuild(strategy):
    """The strategy built anew by the validating constructor from its fields,
    so with a _factors of its own, computed on first use."""
    return ClassicalStrategy(**{name: getattr(strategy, name) for name in FIELD_NAMES})


@pytest.mark.parametrize("n, k, L", [(1, 2, 3), (2, 2, 2), (2, 3, 1)])
def test_enumerated_strategies_are_what_the_constructor_builds(n, k, L):
    # enumerate_deterministic validates one strategy per group and assembles
    # the rest without __post_init__: each must hold every field and its
    # group's _factors, and the validating constructor must accept its fields
    # and rebuild the same arrays
    got, want = [], []
    for strategy in enumerate_deterministic(ScenarioShape(n, k), L):
        assert set(vars(strategy)) == FIELD_NAMES | {"_factors"}
        rebuilt = rebuild(strategy)
        assert rebuilt.shape == strategy.shape and rebuilt.hidden_alphabet == strategy.hidden_alphabet == L
        got.append(strategy_arrays(strategy))
        want.append(strategy_arrays(rebuilt))
        assert [(type(a), a.shape, a.dtype, a.flags.writeable) for a in got[-1]] == [
            (np.ndarray, b.shape, b.dtype, b.flags.writeable) for b in want[-1]
        ]
        assert validate_strategy(strategy) == []
    # shapes agree field by field, so each field stacks across strategies
    for got_field, want_field in zip(zip(*got), zip(*want), strict=True):
        np.testing.assert_array_equal(np.array(got_field), np.array(want_field))


def behavior_bytes(strategy):
    return strategy_to_behavior(strategy).probabilities.tobytes()


def converted_as_rebuilt(streamed):
    """Whether each (behavior bytes, strategy) pair, converted while its
    enumeration ran, matches its strategy's rebuild converted afterwards."""
    return all(got == behavior_bytes(rebuild(s)) for got, s in streamed)


@pytest.mark.parametrize("n, k, L", [(1, 2, 3), (2, 2, 2), (2, 3, 1)])
def test_group_factors_give_the_bytes_of_the_uncached_path(n, k, L):
    streamed, groups = [], {}
    for strategy in enumerate_deterministic(ScenarioShape(n, k), L):
        # a streamed strategy holds the one _factors object of its group, the
        # strategies that share its output tables and hidden distributions
        group = (id(strategy.output_tables), id(strategy.hidden_dists))
        assert groups.setdefault(group, strategy._factors) is strategy._factors
        streamed.append((behavior_bytes(strategy), strategy))
    assert len(groups) == (2**k) ** n * L**n
    assert converted_as_rebuilt(streamed)


@pytest.mark.parametrize(
    "first, second, skip",
    [((1, 2, 3), (1, 2, 3), 100), ((1, 2, 3), (2, 3, 1), 0)],
    ids=["same-shape", "other-shape"],
)
def test_interleaved_enumerations_convert_as_the_uncached_path(first, second, skip):
    # at (1, 2, 3), 64 strategies per group, a second stream 100 strategies
    # ahead is always in another group, of equal values but its own factors
    streams = [enumerate_deterministic(ScenarioShape(n, k), L) for n, k, L in (first, second)]
    for _ in range(skip):
        next(streams[1])
    streamed = [(behavior_bytes(s), s) for pair in zip(*streams) for s in pair]
    counts = [deterministic_count(ScenarioShape(n, k), L) for n, k, L in (first, second)]
    assert len(streamed) == 2 * min(counts[0], counts[1] - skip)
    for stream in streams:
        stream.close()
    assert converted_as_rebuilt(streamed)


def test_listed_strategies_share_one_factors_per_group():
    listed = list(enumerate_deterministic(SHAPE22, 2))
    assert len(listed) == 16384
    # one group per pair of output tables (4**2) and hidden points (2**2)
    assert len({id(strategy._factors) for strategy in listed}) == 64
    # listed or streamed, a strategy converts as its rebuild does
    pairs = zip(listed, enumerate_deterministic(SHAPE22, 2), strict=True)
    streamed = [(behavior_bytes(twin), strategy) for strategy, twin in pairs]
    assert [got for got, _ in streamed] == [behavior_bytes(strategy) for strategy in listed]
    assert converted_as_rebuilt(streamed)


def test_an_enumeration_leaves_the_module_namespace_as_it_was():
    def snapshot():
        return dict(vars(classical))

    def same(first, second):
        return first.keys() == second.keys() and all(first[name] is second[name] for name in first)

    before = snapshot()
    stream = enumerate_deterministic(SHAPE22, 2)
    for strategy in itertools.islice(stream, 300):  # into the second group
        strategy_to_behavior(strategy)
    during = snapshot()
    stream.close()
    assert same(before, during) and same(during, snapshot())


def test_strategy_tables_are_read_only_copies(tmp_path):
    rng = np.random.default_rng(5)
    tables = [rng.dirichlet(np.ones(2), size=2) for _ in range(2)]
    dists = [rng.dirichlet(np.ones(2)) for _ in range(2)]
    charlie = rng.dirichlet(np.ones(4), size=4).reshape(2, 2, 2, 2)
    built = ClassicalStrategy(SHAPE22, 2, tuple(tables), tuple(dists), charlie)
    unconverted = ClassicalStrategy(SHAPE22, 2, tuple(tables), tuple(dists), charlie)
    want = behavior_bytes(built)
    # the caller's arrays change after one strategy cached its factors and
    # before the other computes them; neither strategy sees it
    for array in tables + dists:
        array[...] = 0.5
    assert behavior_bytes(built) == behavior_bytes(unconverted) == want
    save_strategy(saturation_strategy(0.3), tmp_path / "saturation.json")
    kinds = [
        built,
        load_strategy(tmp_path / "saturation.json"),
        optimize_classical(SHAPE22, restarts=2, iterations=5)[1],
        saturation_strategy(0.3),
    ]
    for strategy in kinds:
        for j in range(strategy.shape.n):
            for array in (strategy.output_tables[j], strategy.hidden_dists[j]):
                assert array.dtype == np.float64
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.5


@settings(max_examples=100, deadline=None)
@given(
    nk=st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]),
    L=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_assembled_behaviors_and_reports_are_what_the_constructors_build(nk, L, seed):
    # strategy_to_behavior and the evaluators' reports skip __post_init__
    shape = ScenarioShape(*nk)
    behavior = strategy_to_behavior(random_strategy(*nk, L, np.random.default_rng(seed)))
    assert type(behavior) is BehaviorTensor and behavior.shape == shape
    probs = behavior.probabilities
    assert type(probs) is np.ndarray and probs.dtype == np.float64 and probs.shape == shape.tensor_shape
    assert behavior == BehaviorTensor(shape, probs)
    reports = [evaluate_chain(behavior)] + ([evaluate_mn(behavior)] if nk == (2, 2) else [])
    for report in reports:
        assert report == InequalityReport(**vars(report))


def test_first_strategy_allocates_one_block():
    # (n, k, L) = (1, 11, 1) has 2048 response codes of 2048 floats each; a
    # 2048 x 2048 identity to index them from would take 32 MiB
    stream = enumerate_deterministic(ScenarioShape(1, 11), 1)
    tracemalloc.start()
    try:
        next(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_three_party_enumeration_stays_below_bound():
    shape = ScenarioShape(3, 2)
    best = 0.0
    for strategy in enumerate_deterministic(shape, 1):
        report = evaluate_chain(strategy_to_behavior(strategy))
        best = max(best, report.statistic)
        assert report.statistic <= 1.0 + 1e-12
    assert best == pytest.approx(1.0, abs=1e-12)


def test_fast_statistic_matches_public_route():
    rng = np.random.default_rng(37)
    for n, k, L in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (1, 2, 3), (2, 2, 4)]:
        for _ in range(10):
            strategy = random_strategy(n, k, L, rng)
            public = evaluate_chain(strategy_to_behavior(strategy)).statistic
            fast = fast_statistic(logits_of(strategy), n, k, L)[0]
            assert abs(public - fast) < 1e-12


def naive_gradient(theta, n, k, L, step=1e-6):
    """Central differences of the full statistic at a (D, 1) state, one
    entry at a time."""
    grad = np.empty_like(theta)
    for idx in np.ndindex(theta.shape):
        plus, minus = theta.copy(), theta.copy()
        plus[idx] += step
        minus[idx] -= step
        grad[idx] = (fast_statistic(plus, n, k, L)[0] - fast_statistic(minus, n, k, L)[0]) / (2 * step)
    return grad


def test_analytic_gradient_matches_naive_differences():
    # central differences with a 1e-6 step carry about 1e-10 of rounding
    # error on these O(0.1) slopes, hence the 1e-8 tolerance; n = 9 runs the
    # hidden-weight contractions past eight parties, n = 1 has an empty prefix
    # and suffix, and n = 4 and 5 have suffixes of three and four factors
    rng = np.random.default_rng(41)
    for n, k, L in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (9, 2, 1), (1, 2, 3), (4, 2, 2), (5, 2, 2)]:
        theta = logits_of(random_strategy(n, k, L, rng))
        analytic, stat = gradient(theta, n, k, L)
        assert stat[0] == fast_statistic(theta, n, k, L)[0]
        naive = naive_gradient(theta, n, k, L)
        # the gap segment holds 2 d stat / du, the move of a gap when both of
        # its row's logits step by eta; doubling is exact, so the naive
        # slopes are doubled exactly rather than the tolerance widened
        naive[: n * k] *= 2.0
        np.testing.assert_allclose(analytic, naive, rtol=0, atol=1e-8)


def test_gradient_of_a_batch_is_per_restart():
    # with the restart axis last, a broadcast along the wrong axis would mix
    # restarts without failing; each column of a batch must be what that
    # column gives alone, up to sums that numpy blocks by array shape.  The
    # starts keep every |I_i| >= 1e-4: the slope |I_i|^(1/n) / (n I_i)
    # magnifies those reblocked sums as I_i nears 0 (a column drawn with
    # I_1 = -2.2e-7 at (2, 2, 4) moved by 1.6e-12)
    rng = np.random.default_rng(59)
    for n, k, L in [(2, 2, 4), (2, 3, 2), (3, 2, 2), (1, 2, 3), (4, 2, 2)]:
        columns = []
        while len(columns) < 7:
            column = random_starts(n, k, L, 1, rng)
            if np.abs(reference_decompose(column, n, k, L)["comps"]).min() >= 1e-4:
                columns.append(column)
        theta = np.hstack(columns)
        grad, stat = gradient(theta, n, k, L)
        for r in range(7):
            alone, alone_stat = gradient(theta[:, r : r + 1].copy(), n, k, L)
            np.testing.assert_allclose(grad[:, r], alone[:, 0], rtol=0, atol=1e-13)
            assert abs(stat[r] - alone_stat[0]) <= 1e-13


def vanishing_component_starts():
    """Logits of a (n, k, L) = (2, 3, 2) strategy where some I_i = 0, with the
    indices of the vanishing components."""
    rng = np.random.default_rng(47)
    n, k, L = 2, 3, 2
    theta = logits_of(random_strategy(n, k, L, rng))
    # party 0 uniform (gap 0) at settings 0 and 1: hbar_0(0) = 0, so only I_0 = 0
    zero_mean = theta.copy()
    _state_views(zero_mean, n, k, L)[0][0, :2] = 0.0
    # uniform responses: every <C^i> = 0, so every Gamma_i and I_i = 0
    zero_gamma = theta.copy()
    _state_views(zero_gamma, n, k, L)[2][...] = 0.0
    return (n, k, L), [(zero_mean, [0]), (zero_gamma, [0, 1, 2])]


def test_gradient_is_finite_where_a_component_vanishes():
    # |I_i|^(1/n) has an infinite slope at I_i = 0; the gradient must take
    # it as 0 there instead of producing inf or NaN
    (n, k, L), starts = vanishing_component_starts()
    for theta, zeros in starts:
        comps = reference_decompose(theta, n, k, L)["comps"][:, 0]
        assert list(np.flatnonzero(comps == 0.0)) == zeros
        grad, stat = gradient(theta, n, k, L)
        assert np.isfinite(grad).all()
        final, final_stat = _ascend(theta, n, k, L, iterations=5)
        assert np.isfinite(final).all()
        assert final_stat[0] >= stat[0]
        assert final_stat[0] == fast_statistic(final, n, k, L)[0]


def reference_ascend(theta, n, k, L, iterations):
    """The two-pass ascent _ascend replaced: a fresh gradient at the current
    point and a separate statistic of the candidate in every iteration.  It
    keeps that ascent's clip of the gaps to [-60, 60], which _ascend dropped:
    tanh(u/2) is exactly +-1 beyond |u| ~ 38.0, so the clip moves no mean."""
    eta = np.full(theta.shape[1], 0.5)
    for _ in range(iterations):
        grad, stat = gradient(theta, n, k, L)
        # the gaps step by eta times twice their slope and stay within
        # [-60, 60]; the hidden and response rows are normalized
        cand = theta + eta * grad
        gaps, hid, cha = _state_views(cand, n, k, L)
        gaps[...] = np.clip(gaps, -60.0, 60.0)
        _normalize_logits(hid)
        _normalize_logits(cha)
        cand_stat = fast_statistic(cand, n, k, L)
        accept = cand_stat > stat
        theta = np.where(accept, cand, theta)
        eta = np.clip(np.where(accept, eta * 1.25, eta * 0.5), 1e-12, 1e6)
    return theta


def test_one_pass_ascent_matches_two_pass_reference():
    # reusing the candidate's gradient and statistic, and dropping the gap
    # clip, must not move a single bit of the ascent: every mean tanh(u/2),
    # hidden and response logit and statistic is equal exactly, and so is
    # every gap the reference leaves inside its clip
    rng = np.random.default_rng(53)
    cases = []
    for n, k, L in [(2, 2, 4), (2, 3, 2), (3, 2, 2), (9, 2, 1), (4, 2, 2)]:
        cases.append(((n, k, L), random_starts(n, k, L, 5, rng)))
    nkl, starts = vanishing_component_starts()
    cases += [(nkl, theta) for theta, _ in starts]
    # next to a vanishing component the slope of |I_0|^(1/2) is steep, so
    # the first step overshoots past the reference's clip at +-60
    zero_mean, _ = starts[0]
    near = zero_mean.copy()
    _state_views(near, *nkl)[0][...] += 1e-12
    cases.append((nkl, near))
    for (n, k, L), theta in cases:
        got, got_stat = _ascend(theta, n, k, L, iterations=50)
        want = reference_ascend(theta, n, k, L, iterations=50)
        got_gaps, *got_rows = _state_views(got, n, k, L)
        want_gaps, *want_rows = _state_views(want, n, k, L)
        np.testing.assert_array_equal(np.tanh(0.5 * got_gaps), np.tanh(0.5 * want_gaps))
        inside = np.abs(want_gaps) < 60.0
        np.testing.assert_array_equal(got_gaps[inside], want_gaps[inside])
        for got_part, want_part in zip(got_rows, want_rows):
            np.testing.assert_array_equal(got_part, want_part)
        # the statistic _ascend hands back is that of the state it returns
        np.testing.assert_array_equal(got_stat, fast_statistic(want, n, k, L))
    assert (np.abs(got_gaps) > 60.0).any()  # a gap of the last case passes 60


def test_gradient_pass_matches_the_reference_bit_for_bit():
    # the workspace pass associates every product and sum as the reference
    # does, so the statistic and each segment of the gradient are equal
    # exactly.  Each shape's pass runs on two starts in the same buffers, so
    # nothing left from the first call can leak into the second; the
    # vanishing starts follow a start where every component is nonzero
    rng = np.random.default_rng(61)
    nkl_zero, zero_starts = vanishing_component_starts()
    shapes = [(2, 2, 4), (2, 3, 2), (3, 2, 2), (4, 2, 2), (1, 2, 3), (2, 2, 2), (5, 2, 2), (9, 2, 1), (2, 4, 3)]
    # a middle party with L > 2, and one party with one hidden value, where
    # the per-party views' shapes are easiest to get wrong
    shapes += [(3, 2, 3), (3, 3, 3), (1, 2, 1)]
    for n, k, L in shapes:
        for R in (1, 7, 100):
            starts = [random_starts(n, k, L, R, rng) for _ in range(2)]
            if ((n, k, L), R) == (nkl_zero, 1):
                starts += [theta for theta, _ in zero_starts]
            theta, grad = np.empty(starts[0].shape), np.empty(starts[0].shape)
            evaluate = _gradient_pass(theta, grad, n, k, L)
            for start in starts:
                theta[...] = start
                want = np.empty(start.shape)
                want_stat = reference_gradient(start, want, n, k, L)
                np.testing.assert_array_equal(evaluate(), want_stat)
                for got_part, want_part in zip(_state_views(grad, n, k, L), _state_views(want, n, k, L)):
                    np.testing.assert_array_equal(got_part, want_part)


@settings(max_examples=200, deadline=None)
@given(
    logits=st.sampled_from([1, 2, 3, 4, 8]).flatmap(
        lambda width: hnp.arrays(
            np.float64,
            st.tuples(st.just(width), st.integers(1, 4), st.integers(1, 3)),
            elements=st.floats(-1e6, 1e6),
        )
    )
)
def test_normalized_logits_meet_the_softmax_precondition(logits):
    # _softmax takes no row max of its own: it relies on every row (over
    # axis 0) coming out of _normalize_logits with a max of exactly 0.0
    z = _normalize_logits(logits.copy())
    assert (z.max(axis=0) == 0.0).all()
    assert (z >= -60.0).all()
    p = _softmax(z)
    assert np.isfinite(p).all()
    # fsum keeps the check's own rounding out; the softmax's row sum and
    # divisions are off by at most width * 2**-53, 8.9e-16 at width 8
    for row in p.reshape(p.shape[0], -1).T:
        assert abs(math.fsum(row) - 1.0) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(gap=st.floats(-1e6, 1e6))
@example(gap=60.0)
@example(gap=-60.0)
@example(gap=0.0)
def test_tanh_output_rows_match_the_two_logit_softmax(gap):
    # an output row is held as its logit gap, unbounded; its mean
    # tanh(gap/2) must be the two-logit softmax's p_0 - p_1 of the row
    # (gap, 0), which each differ from the exact value by about 2**-53
    p = _softmax(_normalize_logits(np.array([gap, 0.0])))
    assert abs(np.tanh(0.5 * gap) - (p[0] - p[1])) <= 4.5e-16
    rows = _output_rows(gap)
    assert (rows >= 0.0).all()
    assert abs(rows.sum() - 1.0) <= ROW_TOL
    # the strategy the optimizer would extract from these gaps is valid,
    # also where a large gap pushes one entry to exactly 0
    tables = tuple(_output_rows(np.full((2, 2), gap)))
    strategy = ClassicalStrategy(SHAPE22, 1, tables, (np.ones(1), np.ones(1)), np.full((1, 1, 2, 2), 0.25))
    assert validate_strategy(strategy) == []


# best statistics of optimize_classical(shape, L, restarts=20, seed=7,
# iterations=200), pinned from the optimizer as it stood with restart-first
# logits of shape (R, n, k, 2), (R, n, L) and (R, L**n, 2**k); the packed
# (D, R) state sums Gamma as S^T (sum_m w_m P(c | m)) and each hidden slope
# over the suffix, then the prefix, and meets them within 7e-15
PINNED_BEST = [
    ((2, 2, 4), 0.9996645353778673),
    ((2, 3, 2), 1.99991408992774),
    ((3, 2, 2), 0.9995760784774461),
]


# tracemalloc peak, in bytes, of optimize_classical((2, 2), L=4,
# restarts=100, iterations=50) when every ascent step allocated fresh arrays
# (numpy 2.4); the workspace ascent measured 540,956
FRESH_ARRAYS_PEAK = 589_500


def test_ascent_workspace_memory_is_bounded():
    # the workspace holds every buffer of the ascent at once, so it must not
    # hold more than the fresh arrays it replaced ever did
    optimize_classical(SHAPE22, hidden_alphabet=4, restarts=2, iterations=2)  # caches filled
    tracemalloc.start()
    try:
        optimize_classical(SHAPE22, hidden_alphabet=4, restarts=100, iterations=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= FRESH_ARRAYS_PEAK, peak


def test_gradient_pass_allocates_no_per_call_arrays():
    # a pass on fresh arrays passes every other test here, at a peak 4.2-5.3
    # times the response segment.  The workspace pass allocates only numpy's
    # own buffer where a ufunc broadcasts an operand across the response
    # axis, one response segment at a time
    rng = np.random.default_rng(67)
    for (n, k, L), _ in PINNED_BEST:
        theta = random_starts(n, k, L, 100, rng)
        evaluate = _gradient_pass(theta, np.empty(theta.shape), n, k, L)
        evaluate()
        tracemalloc.start()
        try:
            for _ in range(5):
                evaluate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**k * L**n * 100 * 8, ((n, k, L), peak)


def test_optimizer_matches_pinned_statistics():
    # rows of width 8 (k = 3) sum in another order with the softmax axis
    # first, the output rows' tanh rounds unlike their two-logit softmax,
    # and the packed state associates Gamma and the slopes anew, so the pins
    # hold to 1e-12 rather than bit for bit
    for (n, k, L), want in PINNED_BEST:
        report, _ = optimize_classical(
            ScenarioShape(n, k), hidden_alphabet=L, restarts=20, seed=7, iterations=200
        )
        assert abs(report.statistic - want) <= 1e-12, ((n, k, L), report.statistic)


def test_optimizer_starts_from_each_restarts_own_draws():
    # with no iterations the best strategy is a start: restart r's rows are
    # the softmax of the blocks drawn, in this order, by numpy's generator
    # seeded with seed + r, and an output row (z_0, z_1) gives P(0) first
    n, k, L, seed, restarts = 2, 3, 2, 11, 4
    report, strategy = optimize_classical(
        ScenarioShape(n, k), hidden_alphabet=L, restarts=restarts, seed=seed, iterations=0
    )

    def rows(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    starts = []
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        out = rows(rng.normal(size=(n, k, 2)))
        hid = rows(rng.normal(size=(n, L)))
        cha = rows(rng.normal(size=(L**n, 2**k))).reshape((L,) * n + (2,) * k)
        starts.append(ClassicalStrategy(ScenarioShape(n, k), L, tuple(out), tuple(hid), cha))
    stats = [evaluate_chain(strategy_to_behavior(s)).statistic for s in starts]
    want = starts[int(np.argmax(stats))]
    np.testing.assert_allclose(np.stack(strategy.output_tables), np.stack(want.output_tables), rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.stack(strategy.hidden_dists), np.stack(want.hidden_dists), rtol=0, atol=1e-15)
    np.testing.assert_allclose(strategy.charlie_table, want.charlie_table, rtol=0, atol=1e-15)
    assert abs(report.statistic - max(stats)) <= 1e-12


def test_optimizer_is_deterministic():
    report1, strategy1 = optimize_classical(SHAPE22, restarts=4, seed=11, iterations=60)
    report2, strategy2 = optimize_classical(SHAPE22, restarts=4, seed=11, iterations=60)
    assert report_to_json(report1) == report_to_json(report2)
    for t1, t2 in zip(strategy1.output_tables, strategy2.output_tables):
        np.testing.assert_array_equal(t1, t2)
    for d1, d2 in zip(strategy1.hidden_dists, strategy2.hidden_dists):
        np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(strategy1.charlie_table, strategy2.charlie_table)


def test_optimizer_stays_below_bound_and_makes_progress():
    report, strategy = optimize_classical(SHAPE22, restarts=8, seed=3, iterations=200)
    assert report.statistic <= 1.0 + 1e-6
    assert report.statistic > 0.99
    assert validate_strategy(strategy) == []

    report31, _ = optimize_classical(
        ScenarioShape(3, 2), hidden_alphabet=2, restarts=6, seed=5, iterations=150
    )
    assert report31.bound == 1.0
    assert report31.statistic <= 1.0 + 1e-6

    report91, strategy91 = optimize_classical(
        ScenarioShape(9, 2), hidden_alphabet=1, restarts=2, seed=1, iterations=20
    )
    assert report91.bound == 1.0
    assert report91.statistic <= 1.0 + 1e-6
    assert validate_strategy(strategy91) == []


def test_rounding_residue_above_the_bound_is_not_a_violation():
    # the best strategy found at this seed has components (-9.7e-17,
    # 0.99999107); in exact arithmetic on its tables I_0 = +2.6e-17 and the
    # statistic is 0.9999999930, but the rounding in I_0, raised to the
    # power 1/3, lifts the computed statistic to 1.0000016 (the CLI route
    # is in test_cli)
    report, strategy = optimize_classical(ScenarioShape(3, 2), hidden_alphabet=2, restarts=100, seed=1501)
    assert report.statistic > report.bound
    assert not report.violated and report.floor <= report.bound
    assert evaluate_chain(strategy_to_behavior(strategy)) == report


def test_optimizer_input_validation():
    with pytest.raises(ValueError):
        optimize_classical(SHAPE22, hidden_alphabet=0)
    # a hidden alphabet that is not an integer is refused, never truncated
    for alphabet in (2.9, 2.0, True):
        with pytest.raises(ValueError, match="hidden alphabet size must be an integer"):
            optimize_classical(SHAPE22, hidden_alphabet=alphabet)
    report, strategy = optimize_classical(SHAPE22, hidden_alphabet=np.int64(2), restarts=1, iterations=1)
    assert strategy.hidden_alphabet == 2
    with pytest.raises(ValueError):
        optimize_classical(SHAPE22, restarts=0)
    with pytest.raises(ValueError, match="iterations"):
        optimize_classical(SHAPE22, iterations=-5)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        optimize_classical(SHAPE22, seed=-1)
    # counts and the seed must be integers: a float, NaN or boolean is
    # refused by name, never truncated, converted or run as 1
    for name, value in [
        ("restarts", 2.0),
        ("restarts", float("nan")),
        ("restarts", True),
        ("iterations", 2.5),
        ("iterations", True),
        ("iterations", np.float64(3.0)),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "7"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
            optimize_classical(SHAPE22, **{name: value})
    want, _ = optimize_classical(SHAPE22, restarts=2, iterations=3, seed=4)
    got, _ = optimize_classical(SHAPE22, restarts=np.int64(2), iterations=np.int32(3), seed=np.uint8(4))
    assert got == want
    # refused before anything is allocated; 2**10**9 would not fit in memory
    for shape, alphabet, restarts in [
        (ScenarioShape(10**9, 2), 2, 1),
        (ScenarioShape(10**9, 2), 1, 1),
        (ScenarioShape(2, 10**9), 2, 1),
        (SHAPE22, 2, 10**12),
        (ScenarioShape(22, 2), 2, 1),  # 2**24 response logits plus the rest
    ]:
        with pytest.raises(ValueError, match=str(MAX_OPTIMIZER_CELLS)):
            optimize_classical(shape, hidden_alphabet=alphabet, restarts=restarts)
    # few logits, but the report's behavior tensor holds k**n * 2**(n + k)
    # floats: 2**42 at n = 20, and more than numpy has axes at n = 40
    for n in (20, 40):
        with pytest.raises(ValueError, match=f"behavior tensor .* {MAX_OPTIMIZER_CELLS}"):
            optimize_classical(ScenarioShape(n, 2), hidden_alphabet=1, restarts=1)


def test_strategy_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    strategy = random_strategy(2, 3, 2, rng)
    path = tmp_path / "strategy.json"
    save_strategy(strategy, path)
    loaded = load_strategy(path)
    assert loaded.shape == strategy.shape
    assert loaded.hidden_alphabet == strategy.hidden_alphabet
    for t1, t2 in zip(loaded.output_tables, strategy.output_tables):
        np.testing.assert_array_equal(t1, t2)
    for d1, d2 in zip(loaded.hidden_dists, strategy.hidden_dists):
        np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(loaded.charlie_table, strategy.charlie_table)
    # stored file is well-formed JSON
    doc = json.loads(path.read_text())
    assert doc["hidden_alphabet"] == 2
    # byte-identical on re-save
    second = tmp_path / "strategy2.json"
    save_strategy(loaded, second)
    assert path.read_bytes() == second.read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    nkl=st.sampled_from([(1, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 4, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_strategies_obey_the_bound_and_round_trip(tmp_path_factory, nkl, seed):
    strategy = random_strategy(*nkl, np.random.default_rng(seed))
    behavior = strategy_to_behavior(strategy)
    report = evaluate_chain(behavior)
    assert report.statistic <= report.bound + 1e-9
    folder = tmp_path_factory.mktemp("round-trip")
    for obj, save, load in [
        (strategy, save_strategy, load_strategy),
        (behavior, save_behavior, load_behavior),
    ]:
        save(obj, folder / "first.json")
        save(load(folder / "first.json"), folder / "second.json")
        assert (folder / "first.json").read_bytes() == (folder / "second.json").read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"hidden_alphabet": 2.7}, "hidden_alphabet must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"hidden_alphabet": 0}, "hidden_alphabet must be >= 1"),
        ({"charlie_table": ["a"] * 16}, "charlie_table must all be numbers"),
        ({"output_tables": [["a"] * 4] * 2}, r"output_tables\[0\] must all be numbers"),
        ({"hidden_dists": [[[0.5], [0.5]]] * 2}, r"hidden_dists\[0\] must all be numbers, got nested"),
        ({"charlie_table": ["0.25"] * 16}, "charlie_table must all be numbers, got strings"),
        ({"hidden_dists": [[True, False]] * 2}, r"hidden_dists\[0\] must all be numbers, got booleans"),
        ({"charlie_table": [[0.25] * 4] * 4}, "charlie_table must be a list of 16 numbers, got 4"),
        ({"output_tables": [[0.5] * 4]}, "output_tables must be a list of 2 lists, got 1"),
        ({"hidden_dists": [[1.0], [1.0]]}, r"hidden_dists\[0\] must be a list of 2 numbers, got 1"),
        ({"n": 1000000000}, "1000000002 axes exceeds numpy's 64"),
        ({"k": 10**40}, "axes exceeds numpy's 64"),
        ({"n": 3, "k": 2}, "charlie_table must be a list of 32 numbers, got 16"),
        # L**2 * 4 has 8001 digits, more than Python will print
        ({"hidden_alphabet": 10**4000}, r"^charlie_table must be a list of at least 2\*\*26576 numbers, got 16$"),
        # 2**1202 would print in 362 digits; the whole message is pinned
        ({"hidden_alphabet": 2**600}, r"^charlie_table must be a list of at least 2\*\*1202 numbers, got 16$"),
        ("top-level list", "top level must be a JSON object"),
        ("missing key", "missing required key 'charlie_table'"),
        ("truncated", "not valid JSON"),
    ],
    ids=[
        "fractional-alphabet", "bool-n", "zero-alphabet", "strings", "string-rows",
        "nested-entries", "numeric-strings", "booleans", "nested-table", "too-few-tables", "short-dist", "huge-n",
        "huge-k", "wrong-count", "huge-alphabet", "long-count", "top-level-list", "missing-key", "truncated",
    ],
)
def test_load_strategy_structural_errors(tmp_path, edit, message):
    path = tmp_path / "bad.json"
    save_strategy(saturation_strategy(0.3), path)
    text = path.read_text()
    doc = json.loads(text)
    if edit == "top-level list":
        text = json.dumps([doc])
    elif edit == "missing key":
        text = json.dumps({key: value for key, value in doc.items() if key != "charlie_table"})
    elif edit == "truncated":
        text = text[: len(text) // 2]
    else:
        text = json.dumps({**doc, **edit})
    path.write_text(text)
    with pytest.raises(InvalidBehaviorError, match=message):
        load_strategy(path)
