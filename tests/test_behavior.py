import itertools
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jointcert import codec
from jointcert.behavior import (
    BehaviorTensor,
    InvalidBehaviorError,
    ScenarioShape,
    _correlators,
    correlator_table,
    independence_residual,
    load_behavior,
    save_behavior,
    signalling_residuals,
    validate_behavior,
)
from jointcert.classical import (
    MAX_COUNT_BITS,
    MAX_OPTIMIZER_CELLS,
    ClassicalStrategy,
    load_strategy,
    saturation_strategy,
    save_strategy,
    strategy_to_behavior,
)
from jointcert.codec import DEDUPLICATE_SHARE, SMALL_BLOCK, WRITE_BLOCK, _count_text, _number_chunks
from jointcert.quantum import closed_form_behavior, quantum_behavior
from jointcert.scenario import SHOWN_CHARS, _exceeds
from test_classical import random_strategy
from read_paths import BEHAVIOR_FORMAT, STRATEGY_FORMAT, assert_same_read, streamed_read, whole_document_read

SHAPE22 = ScenarioShape(2, 2)


def deterministic_behavior(shape, rule):
    """Point-mass behavior from a rule mapping settings to (outputs, charlie bits)."""
    arr = np.zeros(shape.tensor_shape)
    for settings in itertools.product(range(shape.k), repeat=shape.n):
        outputs, bits = rule(settings)
        arr[settings + tuple(outputs) + tuple(bits)] = 1.0
    return BehaviorTensor(shape, arr)


def test_shape_validation():
    with pytest.raises(ValueError):
        ScenarioShape(0, 2)
    with pytest.raises(ValueError):
        ScenarioShape(2, 1)
    assert ScenarioShape(3, 2).tensor_shape == (2, 2, 2, 2, 2, 2, 2, 2)


def test_shape_refuses_non_integer_sizes():
    # True is not one party and 2.5 is not a party count; both used to
    # construct and fail later with a bare TypeError
    for n, k, message in [
        (2.5, 2, "n must be an integer, got 2.5"),
        (True, 2, "n must be an integer, got True"),
        (2.0, 2, "n must be an integer, got 2.0"),
        (2, 3.0, "k must be an integer, got 3.0"),
        (2, False, "k must be an integer, got False"),
        (2, "2", "k must be an integer, got '2'"),
    ]:
        with pytest.raises(ValueError, match=message):
            ScenarioShape(n, k)
    shape = ScenarioShape(np.int64(2), np.int32(3))
    assert type(shape.n) is int and type(shape.k) is int
    assert shape == ScenarioShape(2, 3)
    assert BehaviorTensor.uniform(shape).probabilities.shape == (3, 3, 2, 2, 2, 2, 2)


@settings(max_examples=300, deadline=None)
@given(
    factors=st.lists(st.tuples(st.integers(1, 20), st.integers(0, 20)), max_size=5),
    offset=st.one_of(st.integers(-2, 2), st.integers(-(2**100), 2**100)),
)
def test_exceeds_is_the_exact_comparison(factors, offset):
    # limits at, next to and far from the product, on both sides
    product = math.prod(base**exp for base, exp in factors)
    assert _exceeds(factors, product + offset) == (product > product + offset)


def test_exceeds_at_the_limit_and_on_huge_exponents():
    assert not _exceeds([(3, 5), (2, 3), (1, 7)], 3**5 * 2**3)
    assert _exceeds([(3, 5), (2, 3), (1, 7)], 3**5 * 2**3 - 1)
    # settled without forming 2**(10**4000) or 3**(10**9); 1**(10**40) is 1
    for factors, exceeded in [([(1, 10**40)], False), ([(2, 10**4000)], True), ([(3, 10**9)], True)]:
        start = time.perf_counter()
        assert _exceeds(factors, 2**24) is exceeded
        assert time.perf_counter() - start < 1.0, factors


def test_count_text_is_exact_up_to_its_width():
    assert _count_text([(2, 64)]) == "18446744073709551616"
    assert _count_text([(10, SHOWN_CHARS - 1), (9, 1)]) == "9" + "0" * (SHOWN_CHARS - 1)
    # past SHOWN_CHARS digits only the bound 2**(sum of repeat * (bit length
    # of size - 1)) is printed: 10 has 4 bits, 2**600 has 601
    assert _count_text([(10, SHOWN_CHARS), (1, 9)]) == "at least 2**192"
    assert _count_text([(2**600, 2), (2, 2)]) == "at least 2**1202"


def test_exceeds_pins_the_size_caps():
    # the factors the library screens, at each cap's exact boundary; the
    # optimizer itself would allocate 128 MiB arrays at an accepted one
    n, k = 11, 2  # the report tensor k**n * 2**(n + k): 2**24, then 2**26 at n = 12
    assert not _exceeds([(k, n), (2, n + k)], MAX_OPTIMIZER_CELLS)
    assert _exceeds([(k, n + 1), (2, n + 1 + k)], MAX_OPTIMIZER_CELLS)
    # restarts * L**n * 2**k response logits, before the other logits are added
    assert not _exceeds([(2**20, 1), (2, 2), (2, 2)], MAX_OPTIMIZER_CELLS)
    assert _exceeds([(2**20 + 1, 1), (2, 2), (2, 2)], MAX_OPTIMIZER_CELLS)
    assert not _exceeds([(1, 1), (2, 22), (2, 2)], MAX_OPTIMIZER_CELLS)
    # M = L**n of the deterministic count, which has more than 2M bits
    assert not _exceeds([(2**10, 2)], MAX_COUNT_BITS)
    assert _exceeds([(2**10 + 1, 2)], MAX_COUNT_BITS)


def test_tensor_shape_mismatch_rejected():
    with pytest.raises(InvalidBehaviorError):
        BehaviorTensor(SHAPE22, np.zeros((2, 2, 2, 2)))


def test_uniform_is_valid():
    behavior = BehaviorTensor.uniform(SHAPE22)
    assert validate_behavior(behavior) == []
    assert behavior.probabilities.sum() == pytest.approx(4.0)


def test_validate_catches_negative_and_unnormalized():
    arr = BehaviorTensor.uniform(SHAPE22).probabilities.copy()
    arr[0, 0, 0, 0, 0, 0] = -1e-6
    problems = validate_behavior(BehaviorTensor(SHAPE22, arr))
    assert any("negative" in p for p in problems)
    arr = BehaviorTensor.uniform(SHAPE22).probabilities.copy()
    arr[1, 1] *= 2.0
    problems = validate_behavior(BehaviorTensor(SHAPE22, arr))
    assert any("sums to" in p for p in problems)
    for value in (np.nan, np.inf, -np.inf):
        arr = BehaviorTensor.uniform(SHAPE22).probabilities.copy()
        arr[0, 1, 1, 0, 0, 1] = value
        problems = validate_behavior(BehaviorTensor(SHAPE22, arr))
        assert any("setting (0, 1) has 1 non-finite" in p for p in problems), problems


def test_a_negative_entry_is_named_by_its_index_in_plain_ints(tmp_path):
    # numpy 2 prints the index tuple of np.unravel_index as np.int64(...)
    arr = BehaviorTensor.uniform(SHAPE22).probabilities.copy()
    arr[1, 0, 1, 1, 0, 1] = -0.01
    message = "negative probability -1.000e-02 at index (1, 0, 1, 1, 0, 1) (tolerance -1e-12)"
    assert validate_behavior(BehaviorTensor(SHAPE22, arr))[0] == message
    path = tmp_path / "b.json"
    save_behavior(BehaviorTensor(SHAPE22, arr), path)
    with pytest.raises(InvalidBehaviorError) as refused:
        load_behavior(path, strict=True)
    assert str(refused.value).startswith(message + "; ")


@pytest.mark.parametrize("entries", [[1e308] * 64, [1e308, -1e308] * 32], ids=["1e308", "+-1e308"])
def test_validation_reports_overflowing_sums_without_numpy_warnings(entries):
    behavior = BehaviorTensor(SHAPE22, np.reshape(entries, SHAPE22.tensor_shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problems = validate_behavior(behavior)
    assert [p for p in problems if "sums to" in p] == [
        f"setting {setting} sums to {'inf' if len(set(entries)) == 1 else 'nan'}, expected 1 within 1e-10"
        for setting in itertools.product(range(2), repeat=2)
    ]


def marginal_party(behavior, party):
    """Loop-based oracle: party's output marginal and its stability.

    Returns (table, residual): table[x, a] is P(a_party = a | x_party = x)
    averaged uniformly over the other parties' settings, and residual is the
    largest total-variation distance between any P(a_party | x) and that
    average, over all setting tuples x."""
    n, k = behavior.shape.n, behavior.shape.k
    arr = behavior.probabilities
    single = np.zeros((k,) * n + (2,))
    for index in itertools.product(*(range(d) for d in arr.shape)):
        single[index[:n] + (index[n + party],)] += arr[index]
    table = np.zeros((k, 2))
    for setting in itertools.product(range(k), repeat=n):
        table[setting[party]] += single[setting] / k ** (n - 1)
    residual = max(
        0.5 * np.abs(single[setting] - table[setting[party]]).sum()
        for setting in itertools.product(range(k), repeat=n)
    )
    return table, residual


def test_marginal_of_product_behavior():
    # party 0 outputs 0 with prob 0.7 at x=0 and 0.2 at x=1, party 1 uniform
    table = np.array([[0.7, 0.3], [0.2, 0.8]])
    arr = np.zeros(SHAPE22.tensor_shape)
    for x, y, a, b in itertools.product(range(2), repeat=4):
        arr[x, y, a, b, 0, 0] = table[x, a] * 0.5
    behavior = BehaviorTensor(SHAPE22, arr)
    got, residual = marginal_party(behavior, 0)
    np.testing.assert_allclose(got, table, atol=1e-14)
    assert residual < 1e-14
    got1, residual1 = marginal_party(behavior, 1)
    np.testing.assert_allclose(got1, 0.5 * np.ones((2, 2)), atol=1e-14)
    assert residual1 < 1e-14
    assert signalling_residuals(behavior).max() < 1e-14
    assert validate_behavior(behavior) == []


def test_marginal_detects_signalling():
    # party 0's output copies party 1's setting: maximal signalling
    behavior = deterministic_behavior(SHAPE22, lambda s: ((s[1], 0), (0, 0)))
    _, residual = marginal_party(behavior, 0)
    assert residual == pytest.approx(0.5, abs=1e-14)
    # party 1's setting moves party 0's output from one point mass to another
    np.testing.assert_array_equal(signalling_residuals(behavior), [0.0, 1.0])
    assert validate_behavior(behavior) == [
        "party 1 signals: its setting moves the other outputs and the outcome "
        "by 1.000e+00 in total variation (tolerance 1e-09)"
    ]


def test_correlated_outputs_do_not_signal():
    # outputs perfectly correlated, a = b uniform: correlation is not
    # signalling, but independent sources forbid it, so validation refuses it
    arr = np.zeros(SHAPE22.tensor_shape)
    for x, y, a in itertools.product(range(2), repeat=3):
        arr[x, y, a, a, 0, 0] = 0.5
    behavior = BehaviorTensor(SHAPE22, arr)
    np.testing.assert_array_equal(signalling_residuals(behavior), [0.0, 0.0])
    assert independence_residual(behavior) == 0.5
    assert validate_behavior(behavior) == [
        "the parties' outputs are correlated: P(a_1..a_n | x) departs from the product of its one-party "
        "marginals by 5.000e-01 in total variation (tolerance 1e-09), which independent sources forbid"
    ]


def signalling_reference(behavior):
    """Loop-based oracle for signalling_residuals: per party j, the largest
    total variation between P(a_-j, c | x) and P(a_-j, c | x with x_j = 0),
    one setting tuple at a time."""
    n, k = behavior.shape.n, behavior.shape.k
    arr = behavior.probabilities
    residuals = []
    for j in range(n):
        view = arr.sum(axis=n + j)  # P(a_-j, c | x)
        worst = 0.0
        for setting in itertools.product(range(k), repeat=n):
            anchor = setting[:j] + (0,) + setting[j + 1 :]
            worst = max(worst, 0.5 * np.abs(view[setting] - view[anchor]).sum())
        residuals.append(worst)
    return residuals


def near_nonsignalling_behavior(shape, t, rng):
    """A product of per-party output tables and an outcome distribution (no
    signalling), mixed with weight t into a random behavior (signalling)."""
    n, k = shape.n, shape.k
    arr = np.ones(())
    for _ in range(n):
        arr = np.multiply.outer(arr, rng.dirichlet(np.ones(2), size=k))
    # axes (x_1, a_1, .., x_n, a_n) -> (x_1 .. x_n, a_1 .. a_n)
    arr = arr.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))
    arr = np.multiply.outer(arr, rng.dirichlet(np.ones(2**k)).reshape((2,) * k))
    noise = rng.dirichlet(np.ones(shape.cells_per_setting), size=k**n).reshape(shape.tensor_shape)
    return BehaviorTensor(shape, (1 - t) * arr + t * noise)


SIGNALLING_SHAPES = [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]


@settings(max_examples=60, deadline=None)
@given(
    nk=st.sampled_from(SIGNALLING_SHAPES),
    t=st.sampled_from([0.0, 1e-9, 1e-6, 0.01, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_signalling_residuals_match_the_loop_oracle(nk, t, seed):
    behavior = near_nonsignalling_behavior(ScenarioShape(*nk), t, np.random.default_rng(seed))
    residuals = signalling_residuals(behavior)
    assert residuals.shape == (nk[0],)
    np.testing.assert_allclose(residuals, signalling_reference(behavior), rtol=0, atol=1e-14)
    if t == 0.0:
        assert residuals.max() <= 1e-14
        assert validate_behavior(behavior) == []


@settings(max_examples=60, deadline=None)
@given(
    nk=st.sampled_from(SIGNALLING_SHAPES),
    t=st.sampled_from([0.0, 1e-6, 0.01, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_marginal_moves_no_further_than_the_other_parties_signal(nk, t, seed):
    # party i's output reads other settings only through their signalling:
    # walking from x to x' one coordinate x_j at a time moves P(a_i | x) by
    # at most r_j (one end at x_j = 0) or 2 r_j, so averaging x_-i gives
    # residual_i <= (2 - 3/k) * sum_{j != i} r_j: a factor 1/2 at k = 2,
    # 1 at k = 3 and above 1 from k = 4 on
    n, k = nk
    behavior = near_nonsignalling_behavior(ScenarioShape(n, k), t, np.random.default_rng(seed))
    residuals = signalling_residuals(behavior)
    for i in range(n):
        _, marginal = marginal_party(behavior, i)
        assert marginal <= (2 - 3 / k) * (residuals.sum() - residuals[i]) + 1e-14


def independence_reference(behavior):
    """Loop-based oracle for independence_residual: the largest total
    variation between P(a_1..a_n | x) and the outer product of its one-party
    marginals, one setting tuple at a time."""
    n, k = behavior.shape.n, behavior.shape.k
    worst = 0.0
    for setting in itertools.product(range(k), repeat=n):
        outputs = behavior.probabilities[setting].reshape((2,) * n + (-1,)).sum(axis=-1)
        product = np.ones(())
        for j in range(n):
            product = np.multiply.outer(product, outputs.sum(axis=tuple(i for i in range(n) if i != j)))
        worst = max(worst, 0.5 * np.abs(outputs - product).sum())
    return worst


@settings(max_examples=60, deadline=None)
@given(nk=st.sampled_from(SIGNALLING_SHAPES), seed=st.integers(0, 2**32 - 1))
def test_independence_residual_matches_the_loop_oracle(nk, seed):
    # random behaviors signal and correlate their parties alike
    shape = ScenarioShape(*nk)
    rng = np.random.default_rng(seed)
    arr = rng.dirichlet(np.ones(shape.cells_per_setting), size=shape.k**shape.n).reshape(shape.tensor_shape)
    behavior = BehaviorTensor(shape, arr)
    assert independence_residual(behavior) == pytest.approx(independence_reference(behavior), rel=0, abs=1e-15)
    assert shape.n == 1 or independence_residual(behavior) > 1e-3


def test_the_built_in_families_have_independent_parties():
    for p in np.linspace(0.0, 1.0, 11):
        assert independence_residual(quantum_behavior(p)) <= 1e-15
        assert independence_residual(closed_form_behavior(p)) == 0.0
    for r in np.linspace(0.0, 1.0, 11):
        assert independence_residual(strategy_to_behavior(saturation_strategy(r))) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(
    nkl=st.sampled_from([(1, 2, 2), (2, 2, 2), (2, 3, 3), (3, 2, 2), (2, 2, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_classical_behavior_is_refused_for_correlation(nkl, seed):
    behavior = strategy_to_behavior(random_strategy(*nkl, np.random.default_rng(seed)))
    assert independence_residual(behavior) <= 1e-15
    assert validate_behavior(behavior) == []


def test_pairwise_independence_is_not_enough():
    # n = 3: a_1 and a_2 uniform, a_3 = a_1 xor a_2, a uniform outcome; every
    # pair of parties is independent and nothing signals, but the three
    # outputs are not independent
    shape = ScenarioShape(3, 2)
    arr = np.zeros(shape.tensor_shape)
    for x in itertools.product(range(2), repeat=3):
        for a1, a2 in itertools.product(range(2), repeat=2):
            arr[x + (a1, a2, a1 ^ a2)] = 1 / 16
    behavior = BehaviorTensor(shape, arr)
    outputs = arr[0, 0, 0].sum(axis=(-2, -1))
    for pair in itertools.combinations(range(3), 2):
        (other,) = set(range(3)) - set(pair)
        np.testing.assert_array_equal(outputs.sum(axis=other), np.full((2, 2), 0.25))
    np.testing.assert_array_equal(signalling_residuals(behavior), [0.0, 0.0, 0.0])
    assert independence_residual(behavior) == 0.5
    assert len(validate_behavior(behavior)) == 1


@pytest.mark.parametrize("residual, refused", [(2e-9, True), (5e-10, False)])
def test_correlation_is_refused_above_the_signalling_tolerance(residual, refused):
    # moving residual / 2 from a != b to a = b at every setting keeps both
    # marginals uniform and signals nothing
    arr = BehaviorTensor.uniform(SHAPE22).probabilities.copy()
    for a, b in itertools.product(range(2), repeat=2):
        arr[:, :, a, b] += (1 if a == b else -1) * residual / 2 / 4
    behavior = BehaviorTensor(SHAPE22, arr)
    assert signalling_residuals(behavior).max() == 0.0
    assert independence_residual(behavior) == pytest.approx(residual, rel=1e-6)
    problems = validate_behavior(behavior)
    assert problems == ([f"the parties' outputs are correlated: P(a_1..a_n | x) departs from the product of its "
                         f"one-party marginals by {residual:.3e} in total variation (tolerance 1e-09), which "
                         f"independent sources forbid"] if refused else [])


def test_the_marginal_bound_is_reached_at_four_settings():
    # party 0's output leans +r at y = 1 and -r at y = 2, 3: party 1's
    # residual is r, read against y = 0, not the 2r between y = 1 and 2; the
    # average sits at -r/2, so at y = 1 the marginal is 5r/4 from it
    shape = ScenarioShape(2, 4)
    r = 0.125
    arr = np.zeros(shape.tensor_shape)
    for x, y in itertools.product(range(4), repeat=2):
        lean = (0.0, r, -r, -r)[y]
        arr[(x, y, 0, 0) + (0,) * 4] = 0.5 + lean
        arr[(x, y, 1, 0) + (0,) * 4] = 0.5 - lean
    behavior = BehaviorTensor(shape, arr)
    np.testing.assert_array_equal(signalling_residuals(behavior), [0.0, r])
    assert marginal_party(behavior, 0)[1] == (2 - 3 / 4) * r


def test_correlator_on_parity_behavior():
    # outputs a = x, b = y, charlie announces (x XOR y, 0) -- fully deterministic
    behavior = deterministic_behavior(
        SHAPE22, lambda s: ((s[0], s[1]), ((s[0] + s[1]) % 2, 0))
    )
    table = correlator_table(behavior)
    for x, y in itertools.product(range(2), repeat=2):
        want = (-1.0) ** (x + y + (x + y) % 2)
        assert table[x, y, 0] == pytest.approx(want, abs=1e-14)
        # charlie bit 1 is constantly 0
        assert table[x, y, 1] == pytest.approx((-1.0) ** (x + y), abs=1e-14)


def nested_loop_table(behavior):
    """Reference correlator table: sum (-1)^(a_1+..+a_n+c_i) P entry by entry."""
    n, k = behavior.shape.n, behavior.shape.k
    table = np.zeros((k,) * n + (k,))
    arr = behavior.probabilities
    for index in itertools.product(*(range(d) for d in arr.shape)):
        setting, outputs, bits = index[:n], index[n : 2 * n], index[2 * n :]
        for i in range(k):
            table[setting + (i,)] += (-1.0) ** (sum(outputs) + bits[i]) * arr[index]
    return table


@settings(max_examples=40, deadline=None)
@given(
    nk=st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 3), (4, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_correlator_table_matches_nested_loop(nk, seed):
    shape = ScenarioShape(*nk)
    rng = np.random.default_rng(seed)
    arr = rng.random(shape.tensor_shape)
    sums = arr.reshape(shape.settings_shape + (-1,)).sum(-1)
    behavior = BehaviorTensor(shape, arr / sums.reshape(shape.settings_shape + (1,) * (shape.n + shape.k)))
    table = correlator_table(behavior)
    assert table.shape == (shape.k,) * shape.n + (shape.k,)
    np.testing.assert_allclose(table, nested_loop_table(behavior), rtol=0, atol=1e-12)


@pytest.mark.parametrize("nk", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("stack", [(1,), (5,), (2, 3)])
def test_stacked_correlators_are_each_items_table_bit_for_bit(nk, stack):
    shape = ScenarioShape(*nk)
    arrays = np.random.default_rng(sum(nk) + len(stack)).random(stack + shape.tensor_shape)
    tables = _correlators(arrays, *nk)
    assert tables.shape == stack + (shape.k,) * shape.n + (shape.k,)
    for index in np.ndindex(stack):
        alone = correlator_table(BehaviorTensor(shape, arrays[index]))
        assert tables[index].tobytes() == alone.tobytes()


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    arr = rng.random(SHAPE22.tensor_shape)
    arr /= arr.reshape(2, 2, -1).sum(-1).reshape(2, 2, 1, 1, 1, 1)
    behavior = BehaviorTensor(SHAPE22, arr)
    path = tmp_path / "behavior.json"
    save_behavior(behavior, path)
    loaded = load_behavior(path)
    assert loaded.shape == SHAPE22
    np.testing.assert_array_equal(loaded.probabilities, arr)
    # byte-identical on re-save
    second = tmp_path / "behavior2.json"
    save_behavior(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_load_clamps_tiny_negatives(tmp_path):
    behavior = BehaviorTensor.uniform(SHAPE22)
    path = tmp_path / "b.json"
    save_behavior(behavior, path)
    text = path.read_text().replace("0.0625", "-5e-13", 1)
    path.write_text(text)
    loaded = load_behavior(path)
    assert loaded.probabilities.min() == 0.0


def test_load_strict_raises_on_invariant_violation(tmp_path):
    behavior = BehaviorTensor.uniform(SHAPE22)
    path = tmp_path / "b.json"
    save_behavior(behavior, path)
    text = path.read_text().replace("0.0625", "-1e-3", 1)
    path.write_text(text)
    # non-strict load returns it as stored
    loaded = load_behavior(path)
    assert loaded.probabilities.min() == pytest.approx(-1e-3)
    with pytest.raises(InvalidBehaviorError):
        load_behavior(path, strict=True)


def test_load_structural_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidBehaviorError):
        load_behavior(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(InvalidBehaviorError):
        load_behavior(path)
    path.write_text('{"n": 2, "k": 2}')
    with pytest.raises(InvalidBehaviorError):
        load_behavior(path)
    path.write_text('{"n": 2, "k": 2, "probabilities": [0.5, 0.5]}')
    with pytest.raises(InvalidBehaviorError):
        load_behavior(path)
    path.write_text('{"n": 0, "k": 2, "probabilities": []}')
    with pytest.raises(InvalidBehaviorError):
        load_behavior(path)
    # true is not n = 1, and 2.5 is not a party count
    path.write_text('{"n": true, "k": 2, "probabilities": [%s]}' % ", ".join(["0.125"] * 16))
    with pytest.raises(InvalidBehaviorError, match="n must be an integer"):
        load_behavior(path)
    path.write_text('{"n": 2.5, "k": 2, "probabilities": []}')
    with pytest.raises(InvalidBehaviorError, match="n must be an integer"):
        load_behavior(path)
    path.write_text('{"n": 2, "k": false, "probabilities": []}')
    with pytest.raises(InvalidBehaviorError, match="k must be an integer"):
        load_behavior(path)
    # 2**130 entries: an int64 product wraps to 0 and would accept this empty list
    path.write_text('{"n": 64, "k": 2, "probabilities": []}')
    with pytest.raises(InvalidBehaviorError, match="list of %d numbers" % 2**130):
        load_behavior(path)
    # the tensor for n = 10**9 would have 2 * 10**9 + 2 axes; refused without
    # building its shape
    path.write_text('{"n": 1000000000, "k": 2, "probabilities": [0.5]}')
    with pytest.raises(InvalidBehaviorError, match="2000000002 axes"):
        load_behavior(path)
    path.write_text('{"n": 2, "k": 2, "probabilities": [%s]}' % ", ".join(['"a"'] * 64))
    with pytest.raises(InvalidBehaviorError, match="must all be numbers"):
        load_behavior(path)
    path.write_text('{"n": 2, "k": 2, "probabilities": [%s]}' % ", ".join(["[0.5]"] * 64))
    with pytest.raises(InvalidBehaviorError, match="must all be numbers, got nested lists"):
        load_behavior(path)
    # strings that spell numbers and JSON booleans are not probabilities, even
    # where float() would read them as a valid behavior
    for entries, kinds in [
        (['"0.0625"'] * 64, "strings"),
        (['"6.25e-2"'] + ["0.0625"] * 63, "strings"),
        ((["true"] + ["false"] * 15) * 4, "booleans"),
        (["0.0625"] * 63 + ["null"], "nulls"),
        (["0.0625"] * 63 + ["{}"], "objects"),
    ]:
        path.write_text('{"n": 2, "k": 2, "probabilities": [%s]}' % ", ".join(entries))
        with pytest.raises(InvalidBehaviorError, match="probabilities must all be numbers, got " + kinds):
            load_behavior(path)
    # a 5000-digit literal passes Python's int-parsing limit, a 401-digit entry
    # overflows float, and 10**5 open brackets pass the decoder's recursion limit
    path.write_text('{"n": %s, "k": 2, "probabilities": []}' % ("9" * 5000))
    with pytest.raises(InvalidBehaviorError, match="not valid JSON"):
        load_behavior(path)
    path.write_text('{"n": 2, "k": 2, "probabilities": [%s]}' % ", ".join(["1" + "0" * 400] * 64))
    with pytest.raises(InvalidBehaviorError, match="must all be numbers"):
        load_behavior(path)
    path.write_text("[" * 10**5)
    with pytest.raises(InvalidBehaviorError, match="not valid JSON"):
        load_behavior(path)
    # truncated file
    good = tmp_path / "good.json"
    save_behavior(BehaviorTensor.uniform(SHAPE22), good)
    path.write_text(good.read_text()[: len(good.read_text()) // 2])
    with pytest.raises(InvalidBehaviorError):
        load_behavior(path)


def number_text(values):
    """The whole text _number_chunks yields."""
    return "".join(_number_chunks(values))


def reference_number_text(values):
    """The per-entry writer: each float formatted by its own "%.17g", and
    negative zero as "-0.0", since JSON reads "-0" as the integer 0."""
    return "[%s]" % ", ".join("-0.0" if v == 0 and math.copysign(1, v) < 0 else "%.17g" % v
                              for v in np.asarray(values).ravel())


def ulps_away(x, count):
    """The float count steps of one ulp above x, below it for count < 0."""
    return float((np.float64(x).view(np.int64) + count).view(np.float64))


# the writer's digit kernel formats entries of magnitude in [2**-40, 1) and
# leaves the others to "%.17g" one by one; its edge cases are ties at 17
# digits, whose halves round to even, and the neighbours of each power of
# ten, where its exponent is corrected
TIES = [
    2.0**-25,  # 2.98023223876953125e-08
    43 * 2.0**-22,  # 1.02519989013671875e-05, rounded up
    45 * 2.0**-22,  # 1.07288360595703125e-05, rounded down
    26215 * 2.0**-18,  # 0.100002288818359375, rounded up
    26217 * 2.0**-18,  # 0.100009918212890625, rounded down
]
POWER_NEIGHBOURS = [ulps_away(float(f"1e-{k}"), step) for k in range(1, 13) for step in (-1, 1)]
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, 1.0, 3.0, -42.0, 0.1,
    2.0**-40, ulps_away(2.0**-40, -1), ulps_away(1.0, -1), -ulps_away(1.0, -1), 1e-12,
    *TIES, -TIES[0], *POWER_NEIGHBOURS, -POWER_NEIGHBOURS[-2],
]
floats64 = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**53), 2**53).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(2.0**-40, 1.0, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x])),
    st.builds(ulps_away, st.integers(0, 13).map(lambda k: float(f"1e-{k}")), st.integers(-3, 3)),
)


@settings(max_examples=200, deadline=None)
@given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, max_side=5), elements=floats64))
def test_number_text_matches_per_entry_reference(arr):
    assert number_text(arr) == reference_number_text(arr)


def test_writers_match_per_entry_reference(tmp_path):
    # one behavior at the (5, 4) size, 524288 entries, and one strategy
    rng = np.random.default_rng(11)
    shape = ScenarioShape(5, 4)
    arr = rng.random(shape.tensor_shape)
    arr.reshape(-1)[: len(EDGE_FLOATS)] = EDGE_FLOATS
    path = tmp_path / "b54.json"
    save_behavior(BehaviorTensor(shape, arr), path)
    assert first_difference(
        path.read_text(), '{"n": 5, "k": 4, "probabilities": %s}\n' % reference_number_text(arr)
    ) is None

    tables = (rng.dirichlet(np.ones(2), size=3), np.array([[1.0, 0.0], [-0.0, 1.0], [0.5, 0.5]]))
    dists = (np.array([1 / 3, 2 / 3]), np.array([5e-324, 1.0]))
    charlie = rng.dirichlet(np.ones(8), size=4).reshape(2, 2, 2, 2, 2)
    strategies = [ClassicalStrategy(ScenarioShape(2, 3), 2, tables, dists, charlie)]
    # three parties, so two ", " separators inside each per-party list
    strategies.append(ClassicalStrategy(
        ScenarioShape(3, 2),
        3,
        tuple(rng.dirichlet(np.ones(2), size=2) for _ in range(3)),
        tuple(rng.dirichlet(np.ones(3)) for _ in range(3)),
        rng.dirichlet(np.ones(4), size=27).reshape((3,) * 3 + (2, 2)),
    ))
    path = tmp_path / "s.json"
    for strategy in strategies:
        save_strategy(strategy, path)
        want = '{"n": %d, "k": %d, "hidden_alphabet": %d, "output_tables": [%s], "hidden_dists": [%s], "charlie_table": %s}\n' % (
            strategy.shape.n,
            strategy.shape.k,
            strategy.hidden_alphabet,
            ", ".join(map(reference_number_text, strategy.output_tables)),
            ", ".join(map(reference_number_text, strategy.hidden_dists)),
            reference_number_text(strategy.charlie_table),
        )
        assert first_difference(path.read_text(), want) is None


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_writers_refuse_non_finite_entries(tmp_path, value):
    arr = BehaviorTensor.uniform(SHAPE22).probabilities.copy()
    arr[0, 1, 1, 0, :, 1] = value
    path = tmp_path / "b.json"
    with pytest.raises(InvalidBehaviorError, match="cannot write 2 non-finite entries"):
        save_behavior(BehaviorTensor(SHAPE22, arr), path)
    assert not path.exists()

    # once in the response table, once in a hidden distribution
    tables = (np.full((2, 2), 0.5), np.full((2, 2), 0.5))
    dists = (np.full(2, 0.5), np.full(2, 0.5))
    charlie = np.full((2, 2, 2, 2), 0.25)
    bad_charlie = charlie.copy()
    bad_charlie[1, 0, 0, 1] = value
    bad_dists = (np.array([value, 0.5]), dists[1])
    path = tmp_path / "s.json"
    for strategy in [
        ClassicalStrategy(SHAPE22, 2, tables, dists, bad_charlie),
        ClassicalStrategy(SHAPE22, 2, tables, bad_dists, charlie),
    ]:
        with pytest.raises(InvalidBehaviorError, match="cannot write 1 non-finite entries"):
            save_strategy(strategy, path)
        assert not path.exists()


def one_party_strategy(hidden_dist):
    """A one-party strategy whose hidden distribution is hidden_dist and whose
    Charlie table is all zeros: not valid, but the writer does not check that."""
    L = hidden_dist.size
    tables = (np.array([[1.0, 0.0], [0.0, 1.0]]),)
    return ClassicalStrategy(ScenarioShape(1, 2), L, tables, (hidden_dist,), np.zeros((L, 2, 2)))


def test_writers_refuse_a_non_finite_entry_in_a_later_block(tmp_path):
    # the whole array is checked before the file is opened, not block by block
    arr = np.random.default_rng(4).random(ScenarioShape(5, 4).tensor_shape)
    arr.reshape(-1)[-1] = np.nan
    path = tmp_path / "b.json"
    with pytest.raises(InvalidBehaviorError, match="cannot write 1 non-finite entries"):
        save_behavior(BehaviorTensor(ScenarioShape(5, 4), arr), path)
    assert not path.exists()
    dist = np.full(WRITE_BLOCK + 1, 1 / (WRITE_BLOCK + 1))
    dist[-1] = np.inf
    path = tmp_path / "s.json"
    with pytest.raises(InvalidBehaviorError, match="cannot write 1 non-finite entries"):
        save_strategy(one_party_strategy(dist), path)
    assert not path.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_readers_refuse_non_finite_entries(tmp_path, token):
    # JSON has no literal for these, but json.load reads the first three, and
    # reads 1e400 as infinity; the writers would refuse what they give
    path = tmp_path / "b.json"
    save_behavior(BehaviorTensor.uniform(SHAPE22), path)
    path.write_text(path.read_text().replace("0.0625", token, 1))
    for strict in (False, True):
        with pytest.raises(InvalidBehaviorError, match=r"^probabilities has 1 non-finite entries"):
            load_behavior(path, strict=strict)

    tables = (np.full((2, 2), 0.5), np.full((2, 2), 0.5))
    dists = (np.full(2, 0.5), np.array([0.375, 0.625]))
    save_strategy(ClassicalStrategy(SHAPE22, 2, tables, dists, np.full((2, 2, 2, 2), 0.25)), path)
    text = path.read_text()
    for value, key in [("0.5", r"output_tables\[0\]"), ("0.375", r"hidden_dists\[1\]"), ("0.25", "charlie_table")]:
        path.write_text(text.replace(value, token, 1))
        with pytest.raises(InvalidBehaviorError, match="^%s has 1 non-finite entries" % key):
            load_strategy(path)


def edge_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=st.sampled_from(EDGE_FLOATS))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_save_load_save_is_byte_identical_over_edge_floats(tmp_path_factory, data):
    # -0.0 among them, which JSON reads back as the integer 0 unless it is
    # written "-0.0"
    path = tmp_path_factory.mktemp("edge") / "f.json"
    shape = ScenarioShape(2, 2)
    probabilities = data.draw(edge_arrays(shape.tensor_shape))
    strategy = ClassicalStrategy(
        shape,
        2,
        tuple(data.draw(edge_arrays((2, 2))) for _ in range(2)),
        tuple(data.draw(edge_arrays(2)) for _ in range(2)),
        data.draw(edge_arrays((2,) * 4)),
    )
    # load_behavior clamps every entry in [-1e-12, 0) to 0.0, -5e-324 and the
    # negative kernel edges among them
    clamped = np.where((probabilities < 0) & (probabilities >= -1e-12), 0.0, probabilities)
    for values, want, save, load, arrays in [
        (BehaviorTensor(shape, probabilities), BehaviorTensor(shape, clamped), save_behavior, load_behavior,
         lambda b: [b.probabilities]),
        (strategy, strategy, save_strategy, load_strategy,
         lambda s: [*s.output_tables, *s.hidden_dists, s.charlie_table]),
    ]:
        save(want, path)
        want_bytes = path.read_bytes()
        save(values, path)
        loaded = load(path)
        for got, expected in zip(arrays(loaded), arrays(want), strict=True):
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        save(loaded, path)
        assert path.read_bytes() == want_bytes


def test_save_to_a_directory_fails_before_formatting(tmp_path, monkeypatch):
    # an all-distinct (5, 4) behavior, which the digit kernel would format
    formatted = []
    monkeypatch.setattr(codec, "_block_text", formatted.append)
    shape = ScenarioShape(5, 4)
    behavior = BehaviorTensor(shape, np.random.default_rng(3).random(shape.tensor_shape))
    with pytest.raises(OSError):
        save_behavior(behavior, tmp_path)
    with pytest.raises(OSError):
        save_strategy(one_party_strategy(np.random.default_rng(5).random(WRITE_BLOCK)), tmp_path)
    assert formatted == []


def single_call_number_text(values):
    """The writer before deduplication, verbatim but for negative zero: one %
    call over all entries, then each "-0" entry rewritten as "-0.0"."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    nonfinite = arr.size - np.count_nonzero(np.isfinite(arr))
    if nonfinite:
        raise InvalidBehaviorError(
            f"cannot write {nonfinite} non-finite entries (NaN or infinity): JSON has no literal for them"
        )
    text = ", ".join(["%.17g"] * arr.size) % tuple(arr.tolist())
    # an entry is "-0" exactly when a space or the start is before it and a
    # comma or the end after it
    return "[%s]" % (" %s," % text).replace(" -0,", " -0.0,")[1:-1]


def single_call_save_behavior(behavior, path):
    """save_behavior before deduplication, verbatim but for the writer's name."""
    text = '{"n": %d, "k": %d, "probabilities": %s}\n' % (
        behavior.shape.n,
        behavior.shape.k,
        single_call_number_text(behavior.probabilities),
    )
    with open(path, "w") as fh:
        fh.write(text)


# -0.0 and 0.0 compare equal but print apart; the subnormals and the
# 24-character values are the longest texts %.17g gives
POOL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.5e-323, -1.2345678901234567e-308, 1.2345678901234567e-308,
               -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3, -2 / 3, 1.0, 0.0625]


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(st.one_of(st.sampled_from(POOL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
                  min_size=1, max_size=10),
    data=st.data(),
)
def test_number_text_from_a_small_pool_matches_the_single_call_writer(pool, data):
    # up to 512 entries from at most 10 values: large arrays take the
    # deduplicating branch, small ones with many distinct values the kernel
    arr = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=8),
                               elements=st.sampled_from(pool)))
    assert number_text(arr) == single_call_number_text(arr)


def spy_on_searchsorted(monkeypatch):
    """Record the needle count of every np.searchsorted call: only the
    deduplicating branch makes one, once per block with that block's size."""
    calls = []
    original = np.searchsorted

    def spy(a, v, *args, **kwargs):
        calls.append(np.size(v))
        return original(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    return calls


@pytest.mark.parametrize("extra, deduplicates", [(0, True), (1, False)])
def test_number_text_at_the_cut_off(monkeypatch, extra, deduplicates):
    # a block past SMALL_BLOCK with exactly DEDUPLICATE_SHARE of its entries
    # distinct, then one more: every POOL_FLOATS value, then values from 2 up
    size = 2 * SMALL_BLOCK
    distinct = int(size * DEDUPLICATE_SHARE) + extra
    values = np.array(POOL_FLOATS + [2 + j / 7 for j in range(distinct)])[:distinct]
    assert len(np.unique(values.view(np.uint64))) == distinct
    arr = np.resize(values, size)
    calls = spy_on_searchsorted(monkeypatch)
    assert number_text(arr) == single_call_number_text(arr)
    assert calls == ([size] if deduplicates else [])


@pytest.mark.parametrize("size, deduplicates", [(1, True), (SMALL_BLOCK, True), (SMALL_BLOCK + 1, False)])
def test_small_blocks_are_deduplicated_whatever_their_share(monkeypatch, size, deduplicates):
    # all distinct, with POOL_FLOATS first: up to SMALL_BLOCK entries the
    # digit kernel's fixed cost exceeds formatting each entry once
    arr = np.concatenate([POOL_FLOATS, np.random.default_rng(4).random(size)])[:size]
    assert len(np.unique(arr.view(np.uint64))) == size
    calls = spy_on_searchsorted(monkeypatch)
    assert number_text(arr) == single_call_number_text(arr) == reference_number_text(arr)
    assert calls == ([size] if deduplicates else [])


def test_a_block_holding_negative_zero_takes_the_per_entry_route(monkeypatch):
    # all distinct and past SMALL_BLOCK, so the digit kernel writes the
    # block; -0.0, 0 and the entries of 1 and more are each formatted alone
    # and spliced in place
    arr = np.arange(2.0 * SMALL_BLOCK) / 8
    arr[5] = -0.0
    calls = spy_on_searchsorted(monkeypatch)
    text = number_text(arr)
    assert calls == []
    assert text == single_call_number_text(arr) == reference_number_text(arr)
    assert text.startswith("[0, 0.125, 0.25, 0.375, 0.5, -0.0, 0.75, 0.875, 1, 1.125, ")


def first_difference(got, want):
    """None when the texts are equal, else the first index where they differ
    with the text around it in each: pytest's own diff of two multi-megabyte
    strings would take minutes."""
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return at, got[max(at - 30, 0) : at + 30], want[max(at - 30, 0) : at + 30]


def deduplicated_block_sizes(arr):
    """The sizes of the blocks of arr that take the deduplicating branch,
    those with few distinct values or few entries."""
    blocks = [arr[start : start + WRITE_BLOCK].view(np.uint64) for start in range(0, arr.size, WRITE_BLOCK)]
    return [b.size for b in blocks if b.size <= SMALL_BLOCK or np.unique(b).size <= DEDUPLICATE_SHARE * b.size]


# no shrink phase: each run writes up to 200,000 entries several times, so
# shrinking a failure would take thousands of such runs
@pytest.mark.parametrize("size", [WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1, 3 * WRITE_BLOCK + 7])
@settings(max_examples=3, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(pool=st.lists(st.sampled_from(POOL_FLOATS), min_size=1, max_size=6), data=st.data())
def test_block_boundaries_never_change_the_bytes(tmp_path_factory, size, pool, data):
    # few-value blocks drawn from the pool, with pool values on both sides of
    # every block boundary, alternating with blocks of all-distinct values
    arr = data.draw(hnp.arrays(np.float64, size, elements=st.sampled_from(pool), fill=st.sampled_from(pool)))
    starts = range(0, size, WRITE_BLOCK)
    for start in starts[1:]:
        arr[start - 1 : start + 1] = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for start in starts[data.draw(st.integers(0, 1)) :: 2]:
        block = arr[start : start + WRITE_BLOCK]
        block[:] = rng.random(block.size)
    want = single_call_number_text(arr)
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_on_searchsorted(patch)
        assert first_difference(number_text(arr), want) is None
    assert calls == deduplicated_block_sizes(arr)

    path = tmp_path_factory.mktemp("boundaries") / "s.json"
    save_strategy(one_party_strategy(arr), path)
    assert first_difference(path.read_text(), (
        '{"n": 1, "k": 2, "hidden_alphabet": %d, "output_tables": [[1, 0, 0, 1]], "hidden_dists": [%s], '
        '"charlie_table": [%s]}\n' % (size, want, ", ".join(["0"] * (4 * size)))
    )) is None
    # an (8, 2) behavior, 4 * 2**16 entries, whose flat entries begin with arr
    probabilities = np.full(ScenarioShape(8, 2).tensor_shape, arr[-1])
    probabilities.reshape(-1)[:size] = arr
    behavior = BehaviorTensor(ScenarioShape(8, 2), probabilities)
    got = path.with_name("b.json")
    save_behavior(behavior, got)
    # single_call_save_behavior's text, built from want: the fill entries
    # after arr all print as arr[-1]
    fill = ", " + reference_number_text(arr[-1:])[1:-1]
    reference = '{"n": 8, "k": 2, "probabilities": ' + want[:-1] + fill * (probabilities.size - size) + "]}\n"
    assert first_difference(got.read_text(), reference) is None


def test_streamed_reader_takes_only_the_writer_layout(tmp_path, monkeypatch):
    allocated = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        allocated.append(math.prod(shape))
        return empty(shape, *args, **kwargs)

    path = tmp_path / "b.json"
    save_behavior(BehaviorTensor.uniform(SHAPE22), path)
    text = path.read_text()
    # the writer's text, with trailing whitespace, with entries that are
    # other spellings of numbers, and with JSON whitespace between entries
    for edited in [
        text,
        text + " \r\n\t",
        text.replace("0.0625", "6.25E-2", 1),
        text.replace("0.0625", "-0", 1),
        text.replace(", 0.0625", ",0.0625"),
        text.replace(", 0.0625", " ,\n\t0.0625", 1),
        text.replace("[0.0625", "[ 0.0625", 1).replace("0.0625]", "0.0625\r\n]"),
    ]:
        path.write_text(edited)
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", spy)
            got = streamed_read(path, *BEHAVIOR_FORMAT)
        assert got is not None, edited
        assert_same_read(got, whole_document_read(path, *BEHAVIOR_FORMAT))
    assert allocated == [64] * 7
    # other layouts of the same values outside the list, which only the
    # whole-document reader reads
    for edited in [
        " " + text,
        text.replace('2, "k"', '2,"k"'),
        text.replace('{"n": 2, "k": 2', '{"k": 2, "n": 2'),
        text.replace('"k": 2', '"k": 2, "k": 2'),
        text.replace("]}", '], "x": 1}'),
        text.replace(": [", ":[", 1),
        text.replace(": [", ": \n[", 1),
        text.replace("]}", "] }", 1),
    ]:
        path.write_text(edited)
        assert streamed_read(path, *BEHAVIOR_FORMAT) is None, edited
        assert not isinstance(whole_document_read(path, *BEHAVIOR_FORMAT), Exception), edited
    # and texts that no reader takes
    for edited in [
        text.replace(", 0.0625", ", , 0.0625", 1),
        text.replace("[0.0625, ", "[, 0.0625, ", 1),
        text.replace(", 0.0625", ",, 0.0625", 1),
        text.replace("0.0625]", "0.0625, ]"),
        text.replace("0.0625]", "0.0625, 0.0625]"),
        text.replace("[0.0625, ", "[[0.0625], ", 1),
        text.replace("0.0625", "NaN", 1),
        text.replace("0.0625", '"0.0625"', 1),
        text + "}",
        # 4194304 entries promised in a file of a few hundred bytes
        text.replace('"n": 2', '"n": 10'),
    ]:
        path.write_text(edited)
        # read whole, and a character at a time, so that an empty entry can
        # be a piece of its own
        for block in (WRITE_BLOCK, 1):
            allocated.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np, "empty", spy)
                patch.setattr(codec, "READ_BLOCK", block)
                assert streamed_read(path, *BEHAVIOR_FORMAT) is None, edited
            assert all(count <= len(edited) for count in allocated), edited
        assert isinstance(whole_document_read(path, *BEHAVIOR_FORMAT), InvalidBehaviorError), edited
    # few-valued lists of 256 entries with READ_SAMPLE = 64, so at most 8
    # spellings, read whole and in pieces of about 1024 characters: each
    # (tokens, the blocks at which every piece is read by its spellings,
    # whether a reader takes it)
    base = ["0.03125"] * 256
    both, neither = (WRITE_BLOCK, 1024), ()

    def base_with(at, token):
        return base[:at] + [token] + base[at + 1 :]

    for tokens, by_spellings, valid in [
        # one-character tokens, shorter than a key's 8 characters
        (["1"] * 256, both, True),
        (["1", "0"] * 128, both, True),
        # a spelling inside another
        (["0.5", "0.55"] * 128, both, True),
        (["0.55", "0.5"] * 128, both, True),
        # two spellings of one value, and -0, which JSON reads as the integer 0
        (["0.0625", "6.25E-2", "-0", "-0.0"] * 64, both, True),
        # a new value after the sample, in the first piece
        (base_with(100, "1e-3"), both, True),
        # and in a later piece, whose spellings the first piece's table
        # lacks, so that piece and the rest of the list are read whole
        (base_with(250, "0.25"), (WRITE_BLOCK,), True),
        # a separator without its space, in the sample and after it
        (base_with(10, "0.03125,0.03125")[:-1], neither, True),
        (base_with(200, "0.03125,0.03125")[:-1], neither, True),
        # a new value after the sample that ends in the same 8 characters as
        # a known one
        (["0.10000000000000001"] * 100 + ["0.20000000000000001"] * 156, neither, True),
        # more than 8 spellings after the sample
        (base[:128] + [str(j / 4) for j in range(8)] * 16, neither, True),
        *[(base_with(at, token), neither, False) for at in (10, 100, 250)
          for token in ["true", '"0.03125"', "NaN", "1e400", "[0.03125]"]],
    ]:
        path.write_text('{"n": 3, "k": 2, "probabilities": [%s]}\n' % ", ".join(tokens))
        want = whole_document_read(path, *BEHAVIOR_FORMAT)
        assert isinstance(want, InvalidBehaviorError) != valid, tokens
        for block in (WRITE_BLOCK, 1024):
            with monkeypatch.context() as patch:
                patch.setattr(codec, "READ_SAMPLE", 64)
                patch.setattr(codec, "READ_BLOCK", block)
                parsed = json_characters(patch)
                got = streamed_read(path, *BEHAVIOR_FORMAT)
            if valid:
                assert_same_read(got, want)
            else:
                assert got is None, tokens
            # by its spellings, a list passes json.loads its few spellings alone
            assert (sum(parsed) < 100) == (block in by_spellings), (tokens, block)


def json_characters(monkeypatch):
    """Record the length of each text json.loads is passed."""
    lengths = []
    loads = json.loads

    def spy(text, *args, **kwargs):
        lengths.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    return lengths


# plain numbers, spelled as the writer does and not, and tokens that no
# reader takes
SPELLINGS = [
    "0", "1", "-0", "-0.0", "0.5", "0.55", "0.0625", "6.25E-2", "1e-3", "0.10000000000000001",
    "4.9406564584124654e-324", "-1.2345678901234567e-308", "1.7976931348623157e308",
    "123456789012345678901234567890", " 0.25", "0.125 ", "0.75\n",
    "1e400", "NaN", "true", '"0.5"', "[0.5]", "0.5,0.5", "", "0.5 0.5", "0x1",
]


@settings(max_examples=100, deadline=None)
@given(
    spellings=st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=8, unique=True),
    n=st.sampled_from([1, 2, 3, 4]),
    block=st.sampled_from([1, 7, 64, 1024, codec.READ_BLOCK]),
    sample=st.sampled_from([64, codec.READ_SAMPLE]),
    data=st.data(),
)
def test_few_valued_lists_read_alike_on_both_paths(tmp_path_factory, spellings, n, block, sample, data):
    # a (n, 2) behavior's 2**(2n + 2) entries in the writer's layout, each one
    # of at most 8 spellings: the streamed reader reads the same bits as the
    # whole-document reader, and takes every text that reader takes
    shape = ScenarioShape(n, 2)
    size = math.prod(shape.tensor_shape)
    picks = data.draw(hnp.arrays(np.intp, size, elements=st.integers(0, len(spellings) - 1)))
    path = tmp_path_factory.mktemp("few_valued") / "b.json"
    path.write_text('{"n": %d, "k": 2, "probabilities": [%s]}\n' % (n, ", ".join(spellings[i] for i in picks)))
    want = whole_document_read(path, *BEHAVIOR_FORMAT)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "READ_BLOCK", block)
        patch.setattr(codec, "READ_SAMPLE", sample)
        got = streamed_read(path, *BEHAVIOR_FORMAT)
    if isinstance(want, InvalidBehaviorError):
        assert got is None
    else:
        assert_same_read(got, want)


def test_a_three_valued_list_is_read_by_its_spellings(tmp_path, monkeypatch):
    # 524288 entries in 7 MB of text, 3 spellings: json.loads is passed the
    # spellings, not the list
    path = tmp_path / "b.json"
    save_behavior(three_valued_behavior(), path)
    want = whole_document_read(path, *BEHAVIOR_FORMAT)
    parsed = json_characters(monkeypatch)
    got = load_behavior(path)
    assert 0 < sum(parsed) < 1000, sum(parsed)
    assert np.array_equal(got.probabilities.view(np.uint64), want[1]["probabilities"].view(np.uint64))


def test_a_non_ascii_piece_after_the_first_is_read_whole(tmp_path, monkeypatch):
    # 256 entries of one spelling read in pieces of about 1024 characters,
    # so the first piece, over 100 tokens, is kept by its spellings; the
    # second holds a non-ASCII character, which _spelled declines, and the
    # whole-document reader refuses the text
    tokens = ["0.03125"] * 256
    tokens[150] = "0.03125\u00e9"
    path = tmp_path / "b.json"
    text = '{"n": 3, "k": 2, "probabilities": [%s]}\n' % ", ".join(tokens)
    path.write_text(text, encoding="utf-8")
    assert 1024 < text.index("\u00e9") < 2048
    want = whole_document_read(path, *BEHAVIOR_FORMAT)
    assert isinstance(want, InvalidBehaviorError)
    monkeypatch.setattr(codec, "READ_SAMPLE", 64)
    monkeypatch.setattr(codec, "READ_BLOCK", 1024)
    # what _spelled gives for each piece; without its ASCII check the second
    # piece would raise in _token_keys instead
    declined = []
    spelled = codec._spelled

    def spy(spellings, piece):
        declined.append(spelled(spellings, piece))
        return declined[-1]

    monkeypatch.setattr(codec, "_spelled", spy)
    assert streamed_read(path, *BEHAVIOR_FORMAT) is None
    assert len(declined) == 2 and declined[0] is not None and declined[1] is None
    with pytest.raises(InvalidBehaviorError) as refused:
        load_behavior(path)
    assert str(refused.value) == str(want)


@pytest.fixture(scope="module")
def read_boundary_files(tmp_path_factory):
    """[(path, format)]: an (8, 2) behavior, 262144 entries, and an n = 3
    strategy, each with every POOL_FLOATS value and some all-distinct
    stretches, saved once."""
    rng = np.random.default_rng(8)
    arr = np.zeros(ScenarioShape(8, 2).tensor_shape)
    flat = arr.reshape(-1)
    flat[: len(POOL_FLOATS)] = POOL_FLOATS
    flat[-len(POOL_FLOATS) :] = POOL_FLOATS
    flat[rng.integers(0, flat.size, 500)] = rng.random(500)
    path = tmp_path_factory.mktemp("read_boundaries") / "b.json"
    save_behavior(BehaviorTensor(ScenarioShape(8, 2), arr), path)
    strategy = ClassicalStrategy(
        ScenarioShape(3, 2),
        3,
        tuple(rng.choice(POOL_FLOATS, (2, 2)) for _ in range(3)),
        tuple(rng.choice(POOL_FLOATS, 3) for _ in range(3)),
        rng.random((3,) * 3 + (2, 2)),
    )
    strategy_path = path.with_name("s.json")
    save_strategy(strategy, strategy_path)
    return [(path, BEHAVIOR_FORMAT), (strategy_path, STRATEGY_FORMAT)]


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_read_block_boundaries_never_change_the_values(read_boundary_files, monkeypatch, block):
    # with reads of 1, 2, 7 and 64 characters, the pieces are cut at every
    # offset of entries, separators and keys
    monkeypatch.setattr(codec, "READ_BLOCK", block)
    for path, file_format in read_boundary_files:
        got = streamed_read(path, *file_format)
        assert got is not None
        assert_same_read(got, whole_document_read(path, *file_format))


@pytest.mark.parametrize(
    "arr, text",
    [
        (np.array([]), "[]"),
        (np.array([-0.0]), "[-0.0]"),
        (np.array([-1.2345678901234567e-308]), "[-1.2345678901234567e-308]"),
        (np.full(1000, 0.1), "[%s]" % ", ".join(["0.10000000000000001"] * 1000)),
        (np.full((2, 2, 2), 5e-324), "[%s]" % ", ".join(["4.9406564584124654e-324"] * 8)),
    ],
    ids=["empty", "single", "single-long", "all-equal", "all-equal-subnormal"],
)
def test_number_text_small_and_uniform_arrays(arr, text):
    assert number_text(arr) == single_call_number_text(arr) == text


def three_valued_behavior(v=0.3):
    """A (5, 4) behavior whose one nonzero correlator block, settings in
    {0, 1}**5 against Charlie bit 0, gives entries (1 +- v) / 512 there and
    1 / 512 elsewhere: 524288 entries, 3 distinct values."""
    n, k = 5, 4
    parity = np.indices((2,) * n).sum(axis=0) % 2
    c0 = np.indices((2,) * k)[0]
    sign = (-1.0) ** (parity.reshape((2,) * n + (1,) * k) + c0)  # (2,)*(n + k)
    corr = np.zeros((k,) * n)
    corr[(slice(0, 2),) * n] = v
    arr = (1.0 + corr.reshape((k,) * n + (1,) * (n + k)) * sign) / 2 ** (n + k)
    return BehaviorTensor(ScenarioShape(n, k), arr)


def test_three_valued_54_behavior_writes_the_single_call_bytes(tmp_path):
    behavior = three_valued_behavior()
    assert len(np.unique(behavior.probabilities)) == 3
    assert validate_behavior(behavior) == []
    path, want = tmp_path / "b.json", tmp_path / "want.json"
    save_behavior(behavior, path)
    single_call_save_behavior(behavior, want)
    assert first_difference(path.read_bytes(), want.read_bytes()) is None
    again = tmp_path / "again.json"
    save_behavior(load_behavior(path), again)
    assert first_difference(again.read_bytes(), path.read_bytes()) is None


def traced_peak(write, *args):
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peak, in bytes, of single_call_save_behavior on the behavior
# below (numpy 2.4.6, Python 3.11.7): 31,645,589 to 31,647,269 over three
# runs, pinned at the largest
SINGLE_CALL_WRITER_PEAK = 31_647_269


@pytest.fixture(scope="module")
def all_distinct_54_save(tmp_path_factory):
    """(behavior, path, peak): an all-distinct (5, 4) behavior, saved once
    to path under traced_peak, which read peak bytes."""
    shape = ScenarioShape(5, 4)
    behavior = BehaviorTensor(shape, np.random.default_rng(3).random(shape.tensor_shape))
    path = tmp_path_factory.mktemp("all_distinct_54") / "got.json"
    return behavior, path, traced_peak(save_behavior, behavior, path)


def test_all_distinct_54_write_peaks_no_higher_than_the_single_call_writer(tmp_path, all_distinct_54_save):
    # every entry distinct, so the digit kernel runs; its sort and mask are
    # dropped before the formatting, and no whole-file copy follows it
    behavior, path, got = all_distinct_54_save
    single_call_save_behavior(behavior, tmp_path / "want.json")
    assert first_difference(path.read_bytes(), (tmp_path / "want.json").read_bytes()) is None
    assert got <= 1.1 * SINGLE_CALL_WRITER_PEAK, got


# tracemalloc peaks, in bytes, of save_behavior on the all-distinct behavior
# above and on three_valued_behavior() with WRITE_BLOCK = 2**16 (numpy 2.4.6,
# Python 3.11.7): the largest of three fresh processes each, the first save
# building the digit kernel's tables, where the single-call writer reads
# 31,647,424 and 15,893,693 and the writer before the kernel 4,552,265 and
# 2,054,681
STREAMED_WRITER_PEAKS = {"all-distinct": 3_055_736, "three-valued": 1_874_392}


# tracemalloc peaks, in bytes, of load_behavior on the all-distinct (5, 4)
# file above (numpy 2.4.6, Python 3.11.7, the same in three fresh processes
# each): the whole-document reader, json.load with every entry a Python float
# at once, and the streamed reader with READ_BLOCK = 2**16, whose float64
# array alone takes 4,194,304
WHOLE_DOCUMENT_READER_PEAK = 28_286_478
STREAMED_READER_PEAK = 5_248_062


def test_54_read_peak_is_one_block_deep(all_distinct_54_save):
    # a block's text and numbers are dropped before the next block is read
    got = traced_peak(load_behavior, all_distinct_54_save[1])
    assert got <= 1.1 * STREAMED_READER_PEAK, got
    assert got <= WHOLE_DOCUMENT_READER_PEAK / 2, got


@pytest.mark.parametrize("name", STREAMED_WRITER_PEAKS)
def test_54_write_peak_is_one_block_deep(tmp_path, request, name):
    # a block's text is formatted, written and dropped before the next block
    if name == "all-distinct":
        got = request.getfixturevalue("all_distinct_54_save")[2]
    else:
        got = traced_peak(save_behavior, three_valued_behavior(), tmp_path / "b.json")
    assert got <= 1.1 * STREAMED_WRITER_PEAKS[name], got
    assert got <= SINGLE_CALL_WRITER_PEAK / 4, got
