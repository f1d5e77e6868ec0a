"""Classical causal models for the joint-measurement scenario.

A classical strategy consists of, for each party j:

 - an output table P(a_j | x_j), shape (k, 2), one row per setting;
 - a hidden-source distribution P(lambda_j), shape (L,), where L is the
   hidden alphabet size shared by all parties;

plus a response table for the measuring device, P(c | lambda_1 .. lambda_n)
of shape (L,)*n + (2,)*k.  The hidden sources do not depend on the settings;
this is the constraint that makes the inequality bounds hold, and behaviors
generated here factorize as P(a|x) * P(c).

The module provides exact conversion to behavior tensors, exhaustive
enumeration of deterministic strategies, a known family saturating the
two-setting bound, and a seeded multi-restart ascent optimizer over the full
(continuous) strategy class.
"""
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .behavior import (
    BehaviorTensor,
    InvalidBehaviorError,
    ScenarioShape,
    _int_field,
    _integer,
    _number_text,
    _read_lists,
    _read_numbers,
    _read_object,
    _read_shape,
)
from .inequalities import evaluate_chain

ROW_TOL = 1e-12
# the optimizer refuses runs whose logits alone exceed this many floats; its
# gradient holds a few arrays of the response-logit size (128 MiB each at the cap)
MAX_OPTIMIZER_CELLS = 2**24
# enumerate_deterministic refuses shapes with more strategies than this
MAX_DETERMINISTIC = 10**8


def _alphabet_size(value):
    """The hidden alphabet size as an int.  Refuses booleans, non-integers
    and sizes below 1 with a ValueError instead of truncating them."""
    L = _integer(value, "hidden alphabet size")
    if L < 1:
        raise ValueError(f"hidden alphabet size must be >= 1, got {L}")
    return L


@dataclass(frozen=True)
class ClassicalStrategy:
    shape: ScenarioShape
    hidden_alphabet: int
    output_tables: tuple  # n arrays of shape (k, 2)
    hidden_dists: tuple  # n arrays of shape (L,)
    charlie_table: np.ndarray  # shape (L,)*n + (2,)*k

    def __post_init__(self):
        n, k = self.shape.n, self.shape.k
        L = _alphabet_size(self.hidden_alphabet)
        object.__setattr__(self, "hidden_alphabet", L)
        tables = tuple(np.asarray(t, dtype=float) for t in self.output_tables)
        dists = tuple(np.asarray(d, dtype=float) for d in self.hidden_dists)
        charlie = np.asarray(self.charlie_table, dtype=float)
        if len(tables) != n or any(t.shape != (k, 2) for t in tables):
            raise ValueError(f"need {n} output tables of shape ({k}, 2)")
        if len(dists) != n or any(d.shape != (L,) for d in dists):
            raise ValueError(f"need {n} hidden distributions of shape ({L},)")
        expect = (L,) * n + (2,) * k
        if charlie.shape != expect:
            raise ValueError(f"charlie table has shape {charlie.shape}, expected {expect}")
        object.__setattr__(self, "output_tables", tables)
        object.__setattr__(self, "hidden_dists", dists)
        object.__setattr__(self, "charlie_table", charlie)


def validate_strategy(strategy):
    """Return a list of probability-invariant violations (empty iff valid)."""
    problems = []
    n = strategy.shape.n

    def check_rows(name, rows):
        rows = rows.reshape(-1, rows.shape[-1])
        if rows.min() < -ROW_TOL:
            problems.append(f"{name} has a negative entry {rows.min():.3e}")
        err = np.abs(rows.sum(axis=-1) - 1.0).max()
        # a non-finite entry makes err NaN or infinite; NaN fails err > tol
        if not err <= ROW_TOL:
            nonfinite = np.count_nonzero(~np.isfinite(rows))
            if nonfinite:
                problems.append(f"{name} has {nonfinite} non-finite entries (NaN or infinity)")
            else:
                problems.append(f"{name} rows off normalization by {err:.3e}")

    for j in range(n):
        check_rows(f"output table {j}", strategy.output_tables[j])
        check_rows(f"hidden distribution {j}", strategy.hidden_dists[j][None, :])
    flat = strategy.charlie_table.reshape(strategy.hidden_alphabet**n, -1)
    check_rows("charlie table", flat)
    return problems


@functools.cache
def _table_shapes(n, k):
    """Per party j, the shape that lays its (k, 2) output table on axes x_j
    and a_j of a behavior tensor (k,)*n + (2,)*n + (2,)*k, size 1 elsewhere."""
    shapes = []
    for j in range(n):
        dims = [1] * (2 * n + k)
        dims[j], dims[n + j] = k, 2
        shapes.append(tuple(dims))
    return tuple(shapes)


def strategy_to_behavior(strategy):
    """Exact behavior tensor P(a, c | x) produced by a classical strategy."""
    shape = strategy.shape
    n, k = shape.n, shape.k
    # output part: the parties' tables broadcast onto their own axes
    shapes = _table_shapes(n, k)
    out = strategy.output_tables[0].reshape(shapes[0])
    for table, dims in zip(strategy.output_tables[1:], shapes[1:]):
        out = out * table.reshape(dims)
    # measuring-device part: average the response table over the joint
    # hidden-source distribution, the outer product of the per-party ones
    weights = strategy.hidden_dists[0]
    for dist in strategy.hidden_dists[1:]:
        weights = (weights[:, None] * dist).reshape(-1)
    responses = strategy.charlie_table.reshape(weights.size, 2**k)
    cdist = weights @ responses
    return BehaviorTensor(shape, out * cdist.reshape((2,) * k))


def saturation_strategy(r):
    """A strategy family meeting the two-setting classical bound exactly.

    Both parties output 0 deterministically at setting 0 and output 0 with
    probability r at setting 1; the measuring device always announces (0, 0).
    The resulting correlator averages are (r**2, (1-r)**2), so the statistic
    sqrt|M| + sqrt|N| equals 1 for every r in [0, 1].
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    shape = ScenarioShape(2, 2)
    table = np.array([[1.0, 0.0], [r, 1.0 - r]])
    charlie = np.zeros((2, 2, 2, 2))
    charlie[:, :, 0, 0] = 1.0
    return ClassicalStrategy(
        shape=shape,
        hidden_alphabet=2,
        output_tables=(table, table.copy()),
        hidden_dists=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        charlie_table=charlie,
    )


def deterministic_count(shape, hidden_alphabet):
    """Number of deterministic strategies: output functions x_j -> a_j per
    party, a point-mass hidden value per party, and a response function
    lambda -> c for the measuring device.  Raises ValueError on a hidden
    alphabet that is not an integer >= 1."""
    n, k = shape.n, shape.k
    L = _alphabet_size(hidden_alphabet)
    return (2**k) ** n * L**n * (2**k) ** (L**n)


@functools.cache
def _identity(m):
    """Read-only m x m identity; row v is the point mass on value v."""
    eye = np.eye(m)
    eye.setflags(write=False)
    return eye


def enumerate_deterministic(shape, hidden_alphabet):
    """Yield every deterministic strategy of the given shape.

    Refuses upfront (ValueError) a hidden alphabet that is not an integer
    >= 1, and a total count above MAX_DETERMINISTIC.  The yielded strategies
    share their output tables and hidden distributions, which are read-only.
    """
    n, k = shape.n, shape.k
    L = _alphabet_size(hidden_alphabet)
    total = deterministic_count(shape, L)
    if total > MAX_DETERMINISTIC:
        raise ValueError(f"{total} deterministic strategies exceeds {MAX_DETERMINISTIC}")

    # table f has row x at the point mass on a = f(x), for each f: x -> a
    functions = np.array(list(itertools.product(range(2), repeat=k)))
    table_pool = _identity(2)[functions]
    table_pool.setflags(write=False)
    responses = _identity(2**k)
    charlie_shape = (L,) * n + (2,) * k
    for tables in itertools.product(table_pool, repeat=n):
        for dists in itertools.product(_identity(L), repeat=n):
            for response in itertools.product(range(2**k), repeat=L**n):
                yield ClassicalStrategy(
                    shape=shape,
                    hidden_alphabet=L,
                    output_tables=tables,
                    hidden_dists=dists,
                    charlie_table=responses[list(response)].reshape(charlie_shape),
                )


def save_strategy(strategy, path):
    """Write a strategy as JSON with flat row-major float lists (17 digits)."""
    parts = [
        '"n": %d' % strategy.shape.n,
        '"k": %d' % strategy.shape.k,
        '"hidden_alphabet": %d' % strategy.hidden_alphabet,
        '"output_tables": [%s]' % ", ".join(_number_text(t) for t in strategy.output_tables),
        '"hidden_dists": [%s]' % ", ".join(_number_text(d) for d in strategy.hidden_dists),
        '"charlie_table": %s' % _number_text(strategy.charlie_table),
    ]
    with open(path, "w") as fh:
        fh.write("{" + ", ".join(parts) + "}\n")


def load_strategy(path):
    """Read a strategy file; any structural problem raises InvalidBehaviorError."""
    doc = _read_object(
        path, ("n", "k", "hidden_alphabet", "output_tables", "hidden_dists", "charlie_table")
    )
    shape = _read_shape(doc)
    n, k = shape.n, shape.k
    L = _int_field(doc, "hidden_alphabet")
    if L < 1:
        raise InvalidBehaviorError(f"hidden_alphabet must be >= 1, got {L}")
    # the response table first: it refuses n + k past numpy's axis limit
    charlie = _read_numbers(doc["charlie_table"], "charlie_table", ((L, n), (2, k)))
    tables = _read_lists(doc["output_tables"], "output_tables", n, ((k, 1), (2, 1)))
    dists = _read_lists(doc["hidden_dists"], "hidden_dists", n, ((L, 1),))
    return ClassicalStrategy(shape, L, tables, dists, charlie)


# --- optimizer over the continuous strategy class -------------------------
#
# Strategies are parameterized by unconstrained logits (softmax per row, and
# one logit gap per width-2 output row), the chain statistic is evaluated
# through its product decomposition
#
#     I_i = Gamma_i * prod_j hbar_j(i),
#     hbar_j(i) = (<A_i> + sigma_i <A_{i+1 mod k}>) / 2,   sigma_i = -1 at i = k-1,
#     Gamma_i = sum_lambda w_lambda <C^i>_lambda,
#
# and ascent directions are its exact gradient: a vector-Jacobian product run
# back through that decomposition and through each row's softmax or tanh.
# The slope of |I_i|^(1/n) is infinite at I_i = 0; the gradient takes it as 0
# there.  Everything is batched over restarts.
#
# Each ascent step evaluates the model once: the gradient pass on the
# candidate also yields its statistic, and a restart that rejects its
# candidate keeps the gradient and statistic of the point it stays at.
# Every hidden and response logit array the optimizer builds comes out of
# _normalize_logits, so each row has a max of exactly 0.0; _softmax relies on
# that instead of taking a row max of its own.
#
# The hidden and response logits store the softmax axis first: (L, R, n)
# and (2**k, R, L**n) for R restarts.  Each row max, softmax sum and
# softmax-VJP sum is then an axis-0 reduction, a few contiguous elementwise
# passes over R-long slabs, instead of one short inner loop of width L to
# 2**k per row, which cost more than the arithmetic.  Quantities without a
# softmax axis (the hidden weights, the response correlators and everything
# after them) stay restart-first.  Every array must also stay C-contiguous: a
# product that broadcasts a transposed view against a C-ordered array comes
# out in a memory order numpy picks by array size, and reductions over a
# strided result are slow again, so the two transposed intermediates are
# copied.
#
# An output row has width 2, so it is held as one logit gap u = z_0 - z_1,
# restart-first as (R, n, k): its mean P(0) - P(1) is tanh(u/2) and
# d mean / du = (1 - mean**2) / 2, with no softmax at all.  A step of eta on
# each of the row's two logits would move their gap by 2 eta, so the gap
# steps by 2 * eta * d stat / du (the doubling is exact), and it is clipped
# to [-60, 60], the range _normalize_logits leaves a width-2 row.
#
# Products over "every party but j" come from one prefix and one suffix pass
# over the parties, for the output factors hbar_j and the hidden weights
# alike.  A product of at most two factors is the same float in any order,
# so up to n = 3 these give bit for bit what multiplying the other parties
# one by one gives; from n = 4 the suffixes associate differently.


def _softmax(z):
    """Softmax over axis 0 of rows whose max is at most 0, such as
    normalized logits or log-probabilities.  It takes no row max, so a row
    with large positive entries would overflow."""
    e = np.exp(z)
    return e / e.sum(axis=0)


def _softmax_vjp(p, g):
    """Pull a gradient g with respect to softmax rows p (over axis 0) back to
    their logits."""
    return p * (g - (p * g).sum(axis=0))


def _output_rows(out_gap):
    """Output tables of shape gap.shape + (2,) from width-2 rows' logit gaps:
    ((1 + m) / 2, (1 - m) / 2) with m = tanh(gap / 2) = P(0) - P(1)."""
    means = np.tanh(0.5 * out_gap)
    return np.stack([(1.0 + means) / 2, (1.0 - means) / 2], axis=-1)


@functools.cache
def _charlie_signs(k):
    """Matrix S of shape (2**k, k): S[c, i] = (-1)**(bit i of outcome c),
    with bit 0 the most significant (row-major outcome flattening).

    Built here rather than taken from behavior._charlie_bit_signs, so the
    fast statistic stays an independent check of the behavior route."""
    c = np.arange(2**k)
    i = np.arange(k)
    bits = (c[:, None] >> (k - 1 - i[None, :])) & 1
    signs = 1.0 - 2.0 * bits
    signs.setflags(write=False)
    return signs


@functools.cache
def _setting_steps(k):
    """Read-only (sigma, nxt, prv) over k settings: sigma_i = -1 at i = k-1
    and 1 elsewhere, nxt[i] = i+1 mod k and prv[i] = i-1 mod k."""
    sigma = np.ones(k)
    sigma[k - 1] = -1.0
    nxt = (np.arange(k) + 1) % k
    prv = (np.arange(k) - 1) % k
    for table in (sigma, nxt, prv):
        table.setflags(write=False)
    return sigma, nxt, prv


def _decompose(out_gap, hid_logits, cha_logits, n, k, L):
    """All intermediate quantities of the fast statistic, batched over the
    restart axis: axis 1 of the hidden and response logits and of their
    softmax rows, axis 0 of the output gaps and of everything else."""
    hid_probs = _softmax(hid_logits)  # (L, R, n)
    cha_probs = _softmax(cha_logits)  # (2**k, R, L**n)
    C, R, M = cha_probs.shape
    sigma, nxt, _ = _setting_steps(k)
    means = np.tanh(0.5 * out_gap)  # (R, n, k)
    h = 0.5 * (means + sigma * means[..., nxt])  # (R, n, k)
    # h_before[:, j] multiplies the factors of parties < j; a party loop
    # beats a cumprod over this short middle axis
    h_before = np.empty_like(h)
    h_before[:, 0] = 1.0
    hprod = h[:, 0]  # (R, k)
    for j in range(1, n):
        h_before[:, j] = hprod
        hprod = hprod * h[:, j]
    c_corr = (cha_probs.reshape(C, R * M).T @ _charlie_signs(k)).reshape(R, M, k)
    hid_rows = hid_probs.transpose(1, 2, 0).copy()  # (R, n, L)
    # w_prefix[j] is the joint weight of parties < j, (R, L**j), and
    # w_prefix[n] is w; party 0's value is the most significant digit
    w_prefix = [np.ones((R, 1))]
    for j in range(n):
        w_prefix.append((w_prefix[j][:, :, None] * hid_rows[:, j, None, :]).reshape(R, -1))
    gamma = np.einsum("rm,rmi->ri", w_prefix[n], c_corr)  # (R, k)
    comps = gamma * hprod  # (R, k)
    roots = np.abs(comps) ** (1.0 / n)  # (R, k)
    stat = roots.sum(axis=-1)  # (R,)
    return {
        "hid_probs": hid_probs,
        "hid_rows": hid_rows,
        "cha_probs": cha_probs,
        "means": means,
        "h": h,
        "h_before": h_before,
        "hprod": hprod,
        "c_corr": c_corr,
        "w_prefix": w_prefix,
        "gamma": gamma,
        "comps": comps,
        "roots": roots,
        "stat": stat,
    }


def _analytic_gradient(out_gap, hid_logits, cha_logits, n, k, L):
    """Exact gradient of the chain statistic in logit space.

    Returns (g_out, g_hid, g_cha, stat) with gradients shaped like the inputs.
    """
    d = _decompose(out_gap, hid_logits, cha_logits, n, k, L)
    R = out_gap.shape[0]
    h, comps, means, hid_rows = d["h"], d["comps"], d["means"], d["hid_rows"]
    sigma, _, prv = _setting_steps(k)

    # d stat / d I_i = sign(I_i) |I_i|^(1/n - 1) / n = |I_i|^(1/n) / (n I_i)
    g_comps = np.divide(
        d["roots"],
        n * comps,
        out=np.zeros_like(comps),
        where=comps != 0,
    )  # (R, k)
    g_gamma = g_comps * d["hprod"]  # (R, k)

    # output rows: hbar_j(i) enters I_i times the other parties' factors,
    # the prefix over parties < j times the suffix over parties > j, which
    # multiplies into the prefixes in place
    excl = d["h_before"]
    h_after = h[:, n - 1]
    for j in range(n - 2, -1, -1):
        excl[:, j] *= h_after
        if j:
            h_after = h_after * h[:, j]
    g_h = (g_comps * d["gamma"])[:, None, :] * excl  # (R, n, k)
    # <A_x> enters hbar(x) with weight 1/2 and hbar(x-1) with sigma_{x-1}/2,
    # and d <A_x> / du_x = (1 - <A_x>**2) / 2
    g_out = 0.25 * (1.0 - means * means) * (g_h + (sigma * g_h)[..., prv])

    # response rows: Gamma_i = sum_m w_m (S^T p_m)_i
    g_corr = np.ascontiguousarray((g_gamma @ _charlie_signs(k).T).T)  # (2**k, R)
    g_cha_probs = g_corr[:, :, None] * d["w_prefix"][n]  # (2**k, R, L**n)

    # hidden rows: w_m is the product of one entry per party, so party j's
    # slope sums d stat / d w over the other parties' weights: the prefix
    # over parties < j and the suffix over parties > j, built backward
    g_w = (d["c_corr"] @ g_gamma[:, :, None])[..., 0]  # (R, L**n)
    g_hid_probs = np.empty((L, R, n))
    after = np.ones((R, 1))
    for j in reversed(range(n)):
        before = d["w_prefix"][j]
        grid = g_w.reshape(R, before.shape[1], L, after.shape[1])
        g_hid_probs[:, :, j] = np.einsum("rapb,ra,rb->rp", grid, before, after).T
        if j:
            after = (hid_rows[:, j, :, None] * after[:, None, :]).reshape(R, -1)

    return (
        g_out,
        _softmax_vjp(d["hid_probs"], g_hid_probs),
        _softmax_vjp(d["cha_probs"], g_cha_probs),
        d["stat"],
    )


def _normalize_logits(z):
    """Shift each row (over axis 0) to a max of exactly 0.0 and clip it
    below at -60, where exp no longer registers next to the max's 1."""
    return np.clip(z - z.max(axis=0), -60.0, 0.0)


def _ascend(out_gap, hid_logits, cha_logits, n, k, L, iterations):
    """Gradient ascent with a per-restart step size: a step that raises the
    statistic is kept and grows eta by 1.25, any other is dropped and halves
    it.  Returns the final output gaps, hidden and response logits, and each
    restart's statistic at them."""
    eta = np.full(out_gap.shape[0], 0.5)
    g_out, g_hid, g_cha, stat = _analytic_gradient(
        out_gap, hid_logits, cha_logits, n, k, L
    )
    for _ in range(iterations):
        # restarts sit on axis 0 of the output gaps (R, n, k) and on axis 1
        # of the other two logits, which (R, 1) broadcasts over
        e2 = eta[:, None]
        cand_out = np.clip(out_gap + (2.0 * eta)[:, None, None] * g_out, -60.0, 60.0)
        cand_hid = _normalize_logits(hid_logits + e2 * g_hid)
        cand_cha = _normalize_logits(cha_logits + e2 * g_cha)
        cand_g_out, cand_g_hid, cand_g_cha, cand_stat = _analytic_gradient(
            cand_out, cand_hid, cand_cha, n, k, L
        )
        accept = cand_stat > stat
        a3 = accept[:, None, None]
        a2 = accept[:, None]
        out_gap = np.where(a3, cand_out, out_gap)
        hid_logits = np.where(a2, cand_hid, hid_logits)
        cha_logits = np.where(a2, cand_cha, cha_logits)
        g_out = np.where(a3, cand_g_out, g_out)
        g_hid = np.where(a2, cand_g_hid, g_hid)
        g_cha = np.where(a2, cand_g_cha, g_cha)
        stat = np.where(accept, cand_stat, stat)
        eta = np.clip(np.where(accept, eta * 1.25, eta * 0.5), 1e-12, 1e6)
    return out_gap, hid_logits, cha_logits, stat


def _too_many_logits(restarts, n, k, L):
    """Whether restarts * (L**n * 2**k + 2nk + nL) logits exceed
    MAX_OPTIMIZER_CELLS.  A power-of-two lower bound from bit lengths screens
    huge n and k first, so no huge L**n or 2**k is ever formed."""
    low_bits = (int(restarts).bit_length() - 1) + (L.bit_length() - 1) * n + k
    if low_bits > MAX_OPTIMIZER_CELLS.bit_length() - 1:
        return True
    return restarts * (L**n * 2**k + 2 * n * k + n * L) > MAX_OPTIMIZER_CELLS


def optimize_classical(
    shape,
    hidden_alphabet=2,
    restarts=20,
    seed=0,
    iterations=500,
):
    """Seeded multi-restart ascent over the continuous classical strategy class.

    Maximizes the chain statistic.  Restart r draws its starting point from
    numpy's default generator seeded with seed + r, so results are fully
    reproducible; ties resolve to the lowest restart index.  Returns
    (report, strategy) where the report is computed through the public
    behavior-tensor route on the best strategy found.  Raises ValueError,
    before allocating, on a hidden alphabet that is not an integer >= 1, on
    restarts, iterations or seed that are not integers (booleans included),
    on no restart, negative iterations or a negative seed, or when the
    logits would exceed MAX_OPTIMIZER_CELLS floats.
    """
    n, k = shape.n, shape.k
    L = _alphabet_size(hidden_alphabet)
    restarts = _integer(restarts, "restarts")
    iterations = _integer(iterations, "iterations")
    seed = _integer(seed, "seed")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if _too_many_logits(restarts, n, k, L):
        raise ValueError(
            f"{restarts} restarts at n={n}, k={k}, hidden alphabet {L} need more "
            f"than {MAX_OPTIMIZER_CELLS} logits"
        )
    M, C = L**n, 2**k

    # restart r draws its own blocks from its own generator, so seed + r
    # fixes its starting point; then each output row's two logits become
    # their gap, and the softmax axis of the others moves to the front once
    out_logits = np.empty((restarts, n, k, 2))
    hid_logits = np.empty((restarts, n, L))
    cha_logits = np.empty((restarts, M, C))
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        out_logits[r] = rng.normal(size=(n, k, 2))
        hid_logits[r] = rng.normal(size=(n, L))
        cha_logits[r] = rng.normal(size=(M, C))
    out_gap = np.clip(out_logits[..., 0] - out_logits[..., 1], -60.0, 60.0)
    hid_logits = _normalize_logits(np.moveaxis(hid_logits, -1, 0).copy())
    cha_logits = _normalize_logits(np.moveaxis(cha_logits, -1, 0).copy())

    out_gap, hid_logits, cha_logits, stat = _ascend(
        out_gap, hid_logits, cha_logits, n, k, L, iterations
    )

    best = int(np.argmax(stat))
    # the best restart's rows, copied back to the contiguous row-last layout
    # of a strategy; the memory layout of the tables steers how the public
    # route sums the behavior's correlators
    hid_probs = _softmax(hid_logits[:, best]).T.copy()  # (n, L)
    strategy = ClassicalStrategy(
        shape=shape,
        hidden_alphabet=L,
        output_tables=tuple(_output_rows(out_gap[best])),
        hidden_dists=tuple(hid_probs),
        charlie_table=_softmax(cha_logits[:, best]).T.copy().reshape((L,) * n + (2,) * k),
    )
    report = evaluate_chain(strategy_to_behavior(strategy))
    return report, strategy
