"""Classical causal models for the joint-measurement scenario.

A classical strategy consists of, for each party j:

 - an output table P(a_j | x_j), shape (k, 2), one row per setting;
 - a hidden-source distribution P(lambda_j), shape (L,), where L is the
   hidden alphabet size shared by all parties;

plus a response table for the measuring device, P(c | lambda_1 .. lambda_n)
of shape (L,)*n + (2,)*k.  The hidden sources do not depend on the settings;
this is the constraint that makes the inequality bounds hold, and behaviors
generated here factorize as P(a|x) * P(c).  A strategy holds read-only
float64 copies of its output tables and hidden distributions.

The module provides exact conversion to behavior tensors, exhaustive
enumeration of deterministic strategies, a known family saturating the
two-setting bound, and a seeded multi-restart ascent optimizer over the full
(continuous) strategy class.
"""
import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorTensor, _assemble
from .codec import _axes, _read_file, _write_file
from .inequalities import evaluate_chain
from .scenario import ScenarioShape, _exceeds, _integer

ROW_TOL = 1e-12
# the optimizer refuses runs whose logits alone exceed this many floats, its
# workspace holding several arrays of the logits' size (128 MiB each at the
# cap), and runs whose report's behavior tensor would exceed it
MAX_OPTIMIZER_CELLS = 2**24
# enumerate_deterministic refuses shapes with more strategies than this
MAX_DETERMINISTIC = 10**8
# and builds its response tables this many floats at a time
RESPONSE_BLOCK_CELLS = 2**16
# deterministic_count refuses counts longer than this many bits
MAX_COUNT_BITS = 2**20


@dataclass(frozen=True)
class ClassicalStrategy:
    """A classical strategy (see the module docstring).  The output tables
    and hidden distributions are held as read-only float64 copies, so the
    cached _factors of a strategy cannot go stale; the response table is
    held as given when it is float64 already.  Each list field's shape is
    its STRATEGY_FIELDS row's dims(n, k, L), the shape its file holds."""

    shape: ScenarioShape
    hidden_alphabet: int
    output_tables: tuple  # n arrays of shape (k, 2)
    hidden_dists: tuple  # n arrays of shape (L,)
    charlie_table: np.ndarray  # shape (L,)*n + (2,)*k

    def __post_init__(self):
        n, k = self.shape.n, self.shape.k
        L = _integer(self.hidden_alphabet, "hidden alphabet size", 1)
        tables = tuple([_read_only(t) for t in self.output_tables])
        dists = tuple([_read_only(d) for d in self.hidden_dists])
        charlie = np.asarray(self.charlie_table, dtype=float)
        expect = {key: _axes(dims(n, k, L)) for key, _, dims in STRATEGY_FIELDS}
        # one list comparison checks the count and every shape
        if [t.shape for t in tables] != [expect["output_tables"]] * n:
            raise ValueError(f"need {n} output tables of shape {expect['output_tables']}")
        if [d.shape for d in dists] != [expect["hidden_dists"]] * n:
            raise ValueError(f"need {n} hidden distributions of shape {expect['hidden_dists']}")
        if charlie.shape != expect["charlie_table"]:
            raise ValueError(f"charlie table has shape {charlie.shape}, expected {expect['charlie_table']}")
        object.__setattr__(self, "hidden_alphabet", L)
        object.__setattr__(self, "output_tables", tables)
        object.__setattr__(self, "hidden_dists", dists)
        object.__setattr__(self, "charlie_table", charlie)

    @functools.cached_property
    def _factors(self):
        """The half of strategy_to_behavior that does not read the response
        table: the output tables' product on their behavior axes, and the
        joint hidden-source weight, the outer product of the per-party
        distributions flattened row-major."""
        n, k = self.shape.n, self.shape.k
        # output part: the parties' tables broadcast onto their own axes
        shapes = _table_shapes(n, k)
        out = self.output_tables[0].reshape(shapes[0])
        for table, dims in zip(self.output_tables[1:], shapes[1:]):
            out = out * table.reshape(dims)
        weights = self.hidden_dists[0]
        for dist in self.hidden_dists[1:]:
            weights = (weights[:, None] * dist).reshape(-1)
        return out, weights


# the strategy file after n and k: its header ints, then one row per list
# field of ClassicalStrategy in file order, (key, one list per party, dims)
STRATEGY_HEADER = ("hidden_alphabet",)
STRATEGY_FIELDS = (
    ("output_tables", True, lambda n, k, L: ((k, 1), (2, 1))),
    ("hidden_dists", True, lambda n, k, L: ((L, 1),)),
    ("charlie_table", False, lambda n, k, L: ((L, n), (2, k))),
)


def _read_only(values):
    """values as a float64 copy that cannot be written."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def validate_strategy(strategy):
    """Return a list of probability-invariant violations (empty iff valid).

    Each kind of table, the n output tables, the n hidden distributions and
    the response table, is checked in one pass: its tables stacked, then one
    minimum and one row-sum residual per table.  Problems come per party,
    output table then hidden distribution, then the response table; for
    each table a negative entry, then non-finite entries or rows off
    normalization."""
    n = strategy.shape.n
    # np.array stacks the equal-shaped tables, at a quarter of np.stack's cost
    kinds = [
        np.array(strategy.output_tables),
        np.array(strategy.hidden_dists)[:, None],
        strategy.charlie_table.reshape(1, strategy.hidden_alphabet**n, -1),
    ]
    lows = [kind.min(axis=(1, 2)).tolist() for kind in kinds]
    # a non-finite entry makes its table's residual NaN or infinite
    errs = [np.abs(kind.sum(axis=2) - 1.0).max(axis=1).tolist() for kind in kinds]
    names = ("output table {}", "hidden distribution {}", "charlie table")
    problems = []
    for kind, i in [(kind, j) for j in range(n) for kind in (0, 1)] + [(2, 0)]:
        low, err = lows[kind][i], errs[kind][i]
        if low < -ROW_TOL:
            problems.append(f"{names[kind].format(i)} has a negative entry {low:.3e}")
        if not err <= ROW_TOL:
            nonfinite = np.count_nonzero(~np.isfinite(kinds[kind][i]))
            if nonfinite:
                problems.append(f"{names[kind].format(i)} has {nonfinite} non-finite entries (NaN or infinity)")
            else:
                problems.append(f"{names[kind].format(i)} rows off normalization by {err:.3e}")
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
    out, weights = strategy._factors
    # measuring-device part: average the response table over the joint
    # hidden-source weight
    responses = strategy.charlie_table.reshape(weights.size, 2**shape.k)
    cdist = weights @ responses
    # float64 of shape.tensor_shape by construction, so not checked again
    return _assemble(BehaviorTensor, shape=shape, probabilities=out * cdist.reshape((2,) * shape.k))


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


def _count_too_long(n, k, L):
    """Whether the deterministic count, M * 2**(k * (n + M)) with M = L**n,
    has more than MAX_COUNT_BITS bits.  It has more than 2M bits, so an M
    past MAX_COUNT_BITS settles it before M is formed."""
    return _exceeds([(L, n)], MAX_COUNT_BITS) or k * (n + L**n) + (L**n).bit_length() > MAX_COUNT_BITS


def deterministic_count(shape, hidden_alphabet):
    """Number of deterministic strategies: output functions x_j -> a_j per
    party, a point-mass hidden value per party, and a response function
    lambda -> c for the measuring device.  Raises ValueError on a hidden
    alphabet that is not an integer >= 1, and on a count of more than
    MAX_COUNT_BITS bits, before forming it."""
    n, k = shape.n, shape.k
    L = _integer(hidden_alphabet, "hidden alphabet size", 1)
    if _count_too_long(n, k, L):
        raise ValueError(
            f"the deterministic strategy count at n={n}, k={k}, hidden alphabet {L} "
            f"has more than MAX_COUNT_BITS = {MAX_COUNT_BITS} bits"
        )
    return (2**k) ** n * L**n * (2**k) ** (L**n)


def enumerate_deterministic(shape, hidden_alphabet):
    """Yield every deterministic strategy of the given shape.

    Refuses upfront (ValueError) a hidden alphabet that is not an integer
    >= 1, and a total count above MAX_DETERMINISTIC.  The yielded strategies
    share their output tables and hidden distributions, which are read-only.
    Response tables are built a block at a time, at most RESPONSE_BLOCK_CELLS
    floats per block; each strategy's response table is its own row of a
    block, writable and disjoint from every other strategy's.  Each group
    of strategies sharing output tables and hidden points is validated once,
    by one ClassicalStrategy build, whose _factors is computed once; its
    strategies are then assembled from those checked fields, that _factors
    and their own response rows (behavior._assemble).
    """
    n, k = shape.n, shape.k
    L = _integer(hidden_alphabet, "hidden alphabet size", 1)
    if _count_too_long(n, k, L) or deterministic_count(shape, L) > MAX_DETERMINISTIC:
        raise ValueError(
            f"more than MAX_DETERMINISTIC = {MAX_DETERMINISTIC} deterministic strategies "
            f"at n={n}, k={k}, hidden alphabet {L}"
        )

    # table f has row x at the point mass on a = f(x), for each f: x -> a
    functions = np.array(list(itertools.product(range(2), repeat=k)))
    table_pool = np.eye(2)[functions]
    dist_pool = np.eye(L)  # row v is the point mass on hidden value v
    M, C = L**n, 2**k
    count = C**M  # response functions lambda -> c
    rows = max(1, RESPONSE_BLOCK_CELLS // (M * C))
    # response function r sends lambda m to its base-C digit m, most
    # significant first: the order of itertools.product(range(C), repeat=M)
    shifts = k * np.arange(M - 1, -1, -1)
    charlie_shape = (L,) * n + (2,) * k
    for tables in itertools.product(table_pool, repeat=n):
        for dists in itertools.product(dist_pool, repeat=n):
            # one validating build per group; its strategies differ only
            # in the response table, whose shape and dtype each block fixes
            group = ClassicalStrategy(shape, L, tables, dists, np.zeros(charlie_shape))
            fields = {**vars(group), "_factors": group._factors}
            del fields["charlie_table"]
            for start in range(0, count, rows):
                codes = (np.arange(start, min(start + rows, count))[:, None] >> shifts) & (C - 1)
                block = np.zeros((len(codes),) + charlie_shape)
                block.reshape(-1)[np.arange(codes.size) * C + codes.reshape(-1)] = 1.0
                for charlie in block:
                    yield _assemble(ClassicalStrategy, **fields, charlie_table=charlie)


def save_strategy(strategy, path):
    """Write a strategy as JSON with flat row-major float lists (17 digits)."""
    _write_file(path, STRATEGY_HEADER, STRATEGY_FIELDS, strategy)


def load_strategy(path):
    """Read a strategy file; any structural problem raises InvalidBehaviorError."""
    shape, values = _read_file(path, STRATEGY_HEADER, STRATEGY_FIELDS)
    return ClassicalStrategy(shape, **values)


# --- optimizer over the continuous strategy class -------------------------
#
# Strategies are parameterized by unconstrained logits (softmax per row, and
# one logit gap per width-2 output row), the chain statistic is evaluated
# through its product decomposition
#
#     I_i = Gamma_i * prod_j hbar_j(i),
#     hbar_j(i) = (<A_i> + sigma_i <A_{i+1 mod k}>) / 2,   sigma_i = -1 at i = k-1,
#     Gamma_i = sum_c S[c, i] pbar(c),   pbar(c) = sum_lambda w_lambda P(c | lambda),
#
# and ascent directions are its exact gradient: a vector-Jacobian product run
# back through that decomposition and through each row's softmax or tanh.
# The slope of |I_i|^(1/n) is infinite at I_i = 0; the gradient takes it as 0
# there.
#
# All R restarts live in one float64 state of shape (D, R), restart axis
# last, with D = nk + nL + 2**k * L**n.  _state_views cuts it into the output
# gaps (n, k, R), the hidden logits (L, n, R) and the response logits
# (2**k, L**n, R); a gradient has the same layout.  Every row max, softmax
# sum and product over parties then runs over an outer axis, as contiguous
# passes over R-long slabs, and a per-restart scalar such as eta or an accept
# flag broadcasts along the contiguous last axis.
#
# An output row has width 2, so it is held as one logit gap u = z_0 - z_1:
# its mean P(0) - P(1) is tanh(u/2) and d mean / du = (1 - mean**2) / 2, with
# no softmax at all.  A step of eta on each of the row's two logits would
# move their gap by 2 eta, so the gap segment of a gradient holds
# 2 * d stat / du (the doubling is exact), and one step theta + eta * G
# moves the whole state.  The step's gaps are then clipped to [-60, 60], the
# range _normalize_logits leaves a width-2 row, and its hidden and response
# rows are normalized, both in place.  Each hidden and response logit row
# the optimizer builds comes out of _normalize_logits with a max of exactly
# 0.0; _softmax relies on that instead of taking a row max of its own.
#
# Each ascent step evaluates the model once: the gradient pass on the
# candidate also yields its statistic.  The ascent runs on one workspace,
# allocated once per _ascend call.  _ascend holds the state and the
# candidate, the gradient at each, each restart's statistic and step size,
# and the accept mask; _gradient_pass holds a buffer for every intermediate
# of the forward and backward pass: softmax rows, output means and their
# prefix and suffix products, hidden weights up to and after each party,
# pbar, Gamma, components, roots and slopes.  The response segment of the
# gradient takes each response-sized product before its reduction and the
# response slope last.  A step writes only into these buffers, through
# ufunc calls with out=.  The five calls per pass that broadcast an
# (L**n, R) or (2**k, 1, R) operand across the response axis still allocate
# numpy's iterator buffer, 65,152 bytes under tracemalloc, not a temporary
# of the output's size: at the three criterion-5 shapes such a multiply
# took 5-14 us more than one of two full-size operands (numpy 2.4.6, 2
# vCPUs, best of 5).  A broadcast_to view, a 2-D reshape, an (M, C, R)
# layout of the responses and a per-row loop were each measured no better.
# The pass runs plain for loops over lists of per-party views, cut once with
# the buffers: indexing the arrays in the loops would cut each view anew on
# every call, a few microseconds per pass.  A restart keeps or drops its whole
# candidate, so acceptance is a masked copy in place: np.putmask copies
# each accepting restart's column of the candidate, its gradient and its
# statistic over the current ones (np.copyto with a where= mask broadcast
# from the (R,) flags ran three times slower at R = 100).
#
# Products over "every party but j" come from one prefix and one suffix pass
# over the parties, for the output factors hbar_j and the hidden weights
# alike.  The sums are associated for speed, not to match another order:
# Gamma sums the responses against the joint hidden weight before the signs,
# the response slope factors its softmax VJP through that weight, and each
# party's hidden slope sums over the suffix, then the prefix.  Against a
# term-by-term contraction the gradient moves by about 1e-15 and the best
# statistic of a 200-step run by about 1e-14.
#
# That association is fixed to the bit, down to ** for the root:
# reference_gradient in tests/test_classical.py computes the same pass with
# fresh arrays, and the workspace pass must equal it exactly.  perfbench's
# optimize check reads the raw statistic, which at some seeds lands on a
# rounding residue just above the bound (1.0000016 at (3, 2, 2)), so any
# reassociated sum moves which seeds fail that check.


def _softmax(z):
    """Softmax over axis 0 of rows whose max is at most 0, such as
    normalized logits or log-probabilities.  It takes no row max, so a row
    with large positive entries would overflow."""
    e = np.exp(z)
    return e / e.sum(axis=0)


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


def _state_views(theta, n, k, L):
    """The output gaps (n, k, R), hidden logits (L, n, R) and response logits
    (2**k, L**n, R) of a C-contiguous (D, R) optimizer state or gradient, as
    views."""
    R = theta.shape[1]
    nk, nkL = n * k, n * (k + L)
    return (
        theta[:nk].reshape(n, k, R),
        theta[nk:nkL].reshape(L, n, R),
        theta[nkL:].reshape(2**k, L**n, R),
    )


def _gradient_pass(theta, grad, n, k, L):
    """The model pass at a C-contiguous (D, R) state theta, with its buffers
    allocated here, once: a function of no arguments that reads theta as it
    then stands, writes the exact gradient of the chain statistic into grad,
    a C-contiguous (D, R) array of the same layout whose gap segment holds
    twice the slope in each gap, and returns the statistic, (R,), in a
    buffer of its own that the next call overwrites."""
    R = theta.shape[1]
    M, C = L**n, 2**k
    mul, add, reduce = np.multiply, np.add, np.add.reduce
    gaps, hid, cha = _state_views(theta, n, k, L)
    g_gaps, g_hid, g_cha = _state_views(grad, n, k, L)
    signs = _charlie_signs(k)
    signs_t = signs.T
    root = 1.0 / n

    hid_probs = np.empty((L, n, R))
    hid_sums = np.empty((n, R))  # softmax sums, then the hidden slopes' means
    hid_scratch = np.empty((L, n, R))
    cha_probs = np.empty((C, M, R))
    # the response softmax sums are spent before g_w is formed
    cha_sums = g_w = np.empty((M, R))
    # g_cha is written last in its pass, so until then it takes each
    # response-sized product before its reduction; the hidden slopes' products
    # over all L**n hidden values go to a buffer of their own
    cha_scratch = g_cha
    scratch = np.empty(M * R)
    means, h, h_before, g_h = (np.empty((n, k, R)) for _ in range(4))
    hprod, gamma, comps, roots, n_comps, g_comps, h_after, g_scaled = (
        np.empty((k, R)) for _ in range(8)
    )
    nonzero = np.empty((k, R), dtype=bool)
    pbar, g_corr = np.empty((C, R)), np.empty((C, R))
    g_corr_col = g_corr[:, None]
    stat = np.empty(R)

    # per-party views, cut once: hbar_j, the product of the factors of parties < j (hprod
    # after the last), P(lambda_j) as a row and as a column, and its slopes
    hs, befores = list(h), [*h_before, hprod]
    probs, g_hids = list(hid_probs.swapaxes(0, 1)), list(g_hid.swapaxes(0, 1))
    prob_cols = [p[:, None] for p in probs]
    # upto[j] is the joint hidden weight of parties <= j as a column
    # (L**(j+1), 1, R), party 0's value the most significant digit, written
    # as (L**j, L, R); w is the last.  after[j], j < n-1, is that of parties
    # > j, (L**(n-1-j), R), written as (L, L**(n-2-j), R)
    upto = [prob_cols[0]] + [np.empty((L ** (j + 1), 1, R)) for j in range(1, n)]
    w, upto_grids = upto[-1][:, 0], [u.reshape(-1, L, R) for u in upto]
    after = [np.empty((L ** (n - 1 - j), R)) for j in range(n - 2)] + [probs[-1]]
    after_grids = [a.reshape(L, -1, R) for a in after[:-1]]
    # party j's hidden slope sums g_w as (L**j, L, L**(n-1-j), R) against
    # after[j] into sums[j], (L**j, L, R), then sums[j] against the weight of
    # parties < j, each product in scratch.  sums[0] is party 0's slope and
    # sums[n-1] is g_w; between them, sums[j] is the spent weight of parties <= j
    g_w_grids = [g_w.reshape(L**j, L, -1, R) for j in range(n)]
    suffix_terms = [scratch.reshape(L**j, L, -1, R) for j in range(n)]
    prefix_terms = [scratch[: L ** (j + 1) * R].reshape(L**j, L, R) for j in range(n)]
    sums = [g_hids[0][None], *upto_grids[1 : n - 1], g_w.reshape(-1, L, R)]

    # hbar_j(i) and its slope pair setting i with i+1 mod k, the last
    # setting with the first at sign -1
    means_lo, means_hi, means_last, means_first = means[:, :-1], means[:, 1:], means[:, -1], means[:, 0]
    h_lo, h_last = h[:, :-1], h[:, -1]
    g_h_lo, g_h_hi, g_h_last, g_h_first = g_h[:, :-1], g_h[:, 1:], g_h[:, -1], g_h[:, 0]
    turns, turns_hi, turns_first = h, h[:, 1:], h[:, 0]  # h is free by then

    def evaluate():
        # softmax rows, whose maxima are 0.0 already (see _normalize_logits)
        np.exp(hid, out=hid_probs)
        reduce(hid_probs, axis=0, out=hid_sums)
        np.divide(hid_probs, hid_sums, out=hid_probs)
        np.exp(cha, out=cha_probs)
        reduce(cha_probs, axis=0, out=cha_sums)
        np.divide(cha_probs, cha_sums, out=cha_probs)
        # output means, hbar and its prefix products over parties; the joint
        # hidden weights of parties up to j and after j; pbar, Gamma, the
        # components and their roots
        mul(gaps, 0.5, out=means)
        np.tanh(means, out=means)
        add(means_lo, means_hi, out=h_lo)
        np.subtract(means_last, means_first, out=h_last)
        mul(h, 0.5, out=h)
        befores[0].fill(1.0)
        for j in range(n):
            mul(befores[j], hs[j], out=befores[j + 1])
        for j in range(1, n):
            mul(upto[j - 1], probs[j], out=upto_grids[j])
        for j in range(n - 2, 0, -1):
            mul(prob_cols[j], after[j], out=after_grids[j - 1])
        mul(cha_probs, w, out=cha_scratch)
        reduce(cha_scratch, axis=1, out=pbar)
        np.matmul(signs_t, pbar, out=gamma)
        mul(gamma, hprod, out=comps)
        np.abs(comps, out=roots)
        operator.ipow(roots, root)  # roots **= 1/n, numpy's ** paths (sqrt at n = 2)
        reduce(roots, axis=0, out=stat)

        # d stat / d I_i = sign(I_i) |I_i|^(1/n - 1) / n = |I_i|^(1/n) / (n I_i)
        mul(comps, n, out=n_comps)
        np.not_equal(comps, 0, out=nonzero)
        g_comps.fill(0.0)
        np.divide(roots, n_comps, out=g_comps, where=nonzero)

        # output rows: hbar_j(i) enters I_i times the other parties' factors, the prefix over
        # parties < j times the suffix over parties > j, which multiplies into the prefixes in
        # place.  <A_x> enters hbar(x) with weight 1/2 and hbar(x-1) with sigma_{x-1}/2, and
        # 2 d <A_x> / du_x = 1 - <A_x>**2
        suffix = hs[n - 1]
        for j in range(n - 2, -1, -1):
            mul(befores[j], suffix, out=befores[j])
            if j:
                suffix = mul(suffix, hs[j], out=h_after)
        mul(g_comps, gamma, out=g_scaled)
        mul(g_scaled, h_before, out=g_h)
        mul(means, means, out=g_gaps)
        np.subtract(1.0, g_gaps, out=g_gaps)
        mul(g_gaps, 0.5, out=g_gaps)
        add(g_h_hi, g_h_lo, out=turns_hi)
        np.subtract(g_h_first, g_h_last, out=turns_first)
        mul(g_gaps, turns, out=g_gaps)

        # response rows: d stat / d P(c | m) = w_m g_corr(c), whose softmax VJP
        # is P(c | m) w_m (g_corr(c) - g_w(m)) with g_w(m) = sum_c P(c | m) g_corr(c)
        mul(g_comps, hprod, out=g_scaled)
        np.matmul(signs, g_scaled, out=g_corr)
        mul(cha_probs, g_corr_col, out=cha_scratch)
        reduce(cha_scratch, axis=0, out=g_w)
        np.copyto(g_cha, g_corr_col)
        np.subtract(g_cha, g_w, out=g_cha)
        mul(g_cha, cha_probs, out=g_cha)
        mul(g_cha, w, out=g_cha)

        # hidden rows: w_m is the product of one entry per party, so party j's slope sums g_w
        # over the other parties' weights: the suffix over parties > j, then the prefix over
        # parties < j (party n-1 has no suffix and party 0 no prefix); then their softmax VJP
        for j in range(n - 1, -1, -1):
            if j < n - 1:
                mul(g_w_grids[j], after[j], out=suffix_terms[j])
                reduce(suffix_terms[j], axis=2, out=sums[j])
            if j:
                mul(sums[j], upto[j - 1], out=prefix_terms[j])
                reduce(prefix_terms[j], axis=0, out=g_hids[j])
        if n == 1:
            np.copyto(g_hids[0], g_w)
        mul(hid_probs, g_hid, out=hid_scratch)
        reduce(hid_scratch, axis=0, out=hid_sums)
        np.subtract(g_hid, hid_sums, out=g_hid)
        mul(g_hid, hid_probs, out=g_hid)
        return stat

    return evaluate


def _normalize_logits(z, top=None):
    """Shift each row (over axis 0) of z in place to a max of exactly 0.0 and
    clip it below at -60, where exp no longer registers next to the max's 1.
    The row maxima go to top, of shape z.shape[1:], when it is given.  No
    entry needs an upper clip: z - max z <= 0 holds exactly.  Returns z."""
    top = np.maximum.reduce(z, axis=0, out=top)
    np.subtract(z, top, out=z)
    return np.maximum(z, -60.0, out=z)


def _clip_and_normalize(gaps, hid, cha, tops=(None, None)):
    """Clip a state's output gaps to [-60, 60] and normalize its hidden and
    response rows, in place; tops, when given, takes their row maxima."""
    np.maximum(gaps, -60.0, out=gaps)
    np.minimum(gaps, 60.0, out=gaps)
    _normalize_logits(hid, tops[0])
    _normalize_logits(cha, tops[1])


def _ascend(theta, n, k, L, iterations):
    """Gradient ascent from a (D, R) state with a per-restart step size: a
    step that raises the statistic is kept and grows eta by 1.25, any other
    is dropped and halves it.  Returns the final state and each restart's
    statistic at it; theta itself is not written."""
    R = theta.shape[1]
    state = theta.copy()
    cand = theta.copy()
    cand_grad = np.empty(theta.shape)
    evaluate = _gradient_pass(cand, cand_grad, n, k, L)
    stat = evaluate().copy()
    grad = cand_grad.copy()
    views = _state_views(cand, n, k, L)
    tops = (np.empty((n, R)), np.empty((L**n, R)))
    eta = np.full(R, 0.5)
    accept = np.empty(R, dtype=bool)
    accepted = np.empty(theta.shape, dtype=bool)  # accept down each column
    for _ in range(iterations):
        np.multiply(grad, eta, out=cand)
        np.add(state, cand, out=cand)
        _clip_and_normalize(*views, tops)
        cand_stat = evaluate()
        np.greater(cand_stat, stat, out=accept)
        np.copyto(accepted, accept)
        np.putmask(state, accepted, cand)
        np.putmask(grad, accepted, cand_grad)
        np.putmask(stat, accept, cand_stat)
        # halving is exact over [1e-12, 1e6], so 2.5 times the half rounds
        # as 1.25 eta does
        eta *= 0.5
        np.multiply(eta, 2.5, out=eta, where=accept)
        np.maximum(eta, 1e-12, out=eta)
        np.minimum(eta, 1e6, out=eta)
    return state, stat


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
    on no restart, negative iterations or a negative seed, when the logits
    would exceed MAX_OPTIMIZER_CELLS floats, or when the report's behavior
    tensor, k**n * 2**(n + k) floats, would.
    """
    n, k = shape.n, shape.k
    L = _integer(hidden_alphabet, "hidden alphabet size", 1)
    restarts = _integer(restarts, "restarts")
    iterations = _integer(iterations, "iterations", 0)
    seed = _integer(seed, "seed", 0)
    if restarts < 1:
        raise ValueError("need at least one restart")
    # the response logits alone settle a huge shape before L**n is formed
    if _exceeds([(restarts, 1), (L, n), (2, k)], MAX_OPTIMIZER_CELLS) or (
        restarts * (L**n * 2**k + 2 * n * k + n * L) > MAX_OPTIMIZER_CELLS
    ):
        raise ValueError(
            f"{restarts} restarts at n={n}, k={k}, hidden alphabet {L} need more "
            f"than {MAX_OPTIMIZER_CELLS} logits"
        )
    if _exceeds([(k, n), (2, n + k)], MAX_OPTIMIZER_CELLS):
        raise ValueError(
            f"the report's behavior tensor at n={n}, k={k} holds k**n * 2**(n + k) "
            f"floats, more than {MAX_OPTIMIZER_CELLS}"
        )
    M, C = L**n, 2**k

    # restart r draws its own blocks from its own generator, so seed + r
    # fixes its starting point; each output row's two logits become their
    # gap, and every block goes straight into its restart's column of the
    # state
    theta = np.empty((n * k + n * L + C * M, restarts))
    gaps, hid, cha = _state_views(theta, n, k, L)
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        out_logits = rng.normal(size=(n, k, 2))
        gaps[:, :, r] = out_logits[..., 0] - out_logits[..., 1]
        hid[:, :, r] = rng.normal(size=(n, L)).T
        cha[:, :, r] = rng.normal(size=(M, C)).T
    _clip_and_normalize(gaps, hid, cha)

    theta, stat = _ascend(theta, n, k, L, iterations)

    best = int(np.argmax(stat))
    # the best restart's rows, copied back to the contiguous row-last layout
    # of a strategy; the memory layout of the tables steers how the public
    # route sums the behavior's correlators
    gaps, hid, cha = _state_views(theta, n, k, L)
    strategy = ClassicalStrategy(
        shape=shape,
        hidden_alphabet=L,
        output_tables=tuple(_output_rows(gaps[:, :, best])),
        hidden_dists=tuple(_softmax(hid[:, :, best]).T.copy()),
        charlie_table=_softmax(cha[:, :, best]).T.copy().reshape((L,) * n + (2,) * k),
    )
    report = evaluate_chain(strategy_to_behavior(strategy))
    return report, strategy
