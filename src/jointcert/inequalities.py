"""Causal-compatibility inequalities on behavior tensors.

Two evaluators are provided:

 - evaluate_mn: the two-setting, two-party form.  With

       M = (1/4) sum_{x,y} <A_x B_y C^0>
       N = (1/4) sum_{x,y} (-1)^(x+y) <A_x B_y C^1>

   every behavior admitting a classical joint-measurement model satisfies
   sqrt|M| + sqrt|N| <= 1.

 - evaluate_chain: the general n-party, k-setting form.  With wrapped
   settings (party setting index i+1 taken mod k, the wrapped copy entering
   with a minus sign) define, for i = 0 .. k-1,

       I_i = (1/2^n) sum_{x in {i, i+1}^n} <A^1_{x_1} .. A^n_{x_n} C^i>.

   Classical models satisfy sum_i |I_i|^(1/n) <= k-1.

Both evaluators read their correlators from behavior.correlator_table, whose
entry [x_1, .., x_n, i] is <A^1_{x_1} .. A^n_{x_n} C^i>, and each applies its
own sign pattern, so criterion 6 still compares two independent formulas.
The M, N formula has one copy, _mn_report, which evaluate_mn and the stacked
_mn_reports (the sweep's) both call per behavior.

At n = k = 2 the chain form reduces exactly to (M, N): I_0 = M and I_1 = N.

Verdicts rest on a floor, not on the statistic itself.  Each computed
component carries rounding, and near I_i = 0 the root |I_i|^(1/n) magnifies
it: an error of 1e-16 in a vanishing component becomes 4.6e-6 at n = 3, far
above any verdict tolerance.  So every report also carries

    floor = sum_i max(|I_i| - delta, 0)^(1/n),   delta = 2^(n+k-52),

and a report is violated only when floor > bound.  Why delta suffices: with
u = 2^-53, each component is a signed sum of the 2^(n+k) entries of 2^n
setting slices, divided by 2^n and evaluated in three stages of 2^n, 2^k and
2^n terms (the two correlator_table products, then the component's own sum).
The standard bound on floating-point summation puts its error below
(2^(n+1) + 2^k - 1) u S to first order in u, where S is the largest sum of
|entries| over a setting slice.  A behavior that passes validate_behavior
(slices sum to 1 within 1e-10, entries at least -1e-12) has
S <= 1 + 1e-10 + 2^(n+k+1) 1e-12, which is below 1.01 for every n + k <= 32,
that is for every behavior that fits in memory.  Assuming S <= 1.01 and
k >= 2, delta = 2^(n+k+1) u exceeds that error by more than twice the
(n(k+1) + 1) u S that the subtraction, the roots and the final sum can add.
So the floor never exceeds the exact statistic of the tensor as given, and
a violated report is a violation in exact arithmetic.  The statistic,
components and margin are reported as computed.  Each evaluator computes
its own components and statistic, and _report owns delta, the floor and
the verdict, for both alike.

A behavior with NaN or infinite entries gets no verdict: its statistic is
not finite, and both evaluators raise ValueError.
"""
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .behavior import _assemble, _correlators, correlator_table

VERDICT_TOL = 1e-9


@dataclass(frozen=True)
class InequalityReport:
    statistic: float
    bound: float
    components: tuple
    violated: bool
    margin: float
    floor: float  # verdict side of the statistic, see the module docstring


def _report(statistic, bound, components, n, k):
    """The report of Python floats statistic and bound and a tuple of Python
    float components, as both evaluators compute them, with its floor at
    delta = 2^(n+k-52) (see the module docstring)."""
    # NaN compares false against the bound and infinity exceeds it, so
    # either would pass for a verdict
    if not math.isfinite(statistic):
        raise ValueError(f"statistic is {statistic}, not finite: components {components}")
    delta = 2.0 ** (n + k - 52)
    floor = 0.0
    for c in components:
        # a component within delta of 0 would add max(excess, 0.0) ** (1/n)
        # = +0.0, which changes no bits; skipping it spares a max() call
        excess = abs(c) - delta
        if excess > 0.0:
            floor += excess ** (1.0 / n)
    return _assemble(
        InequalityReport,
        statistic=statistic,
        bound=bound,
        components=components,
        violated=floor > bound,
        margin=statistic - bound,
        floor=floor,
    )


def check_tol(tol, name="tol"):
    """tol as a float, refused with ValueError unless finite and >= 0: a NaN
    or infinite tolerance passes every floor, and a negative one flags a
    floor at the bound, so either would decide verdicts by itself."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {tol}")
    return float(tol)


def exceeds_bound(report, tol):
    """The verdict at a tolerance from check_tol: the report's floor exceeds
    its bound by more than tol."""
    return report.floor > report.bound + tol


def chain_components(behavior):
    """The k correlator averages I_0 .. I_{k-1} entering the chain statistic."""
    n, k = behavior.shape.n, behavior.shape.k
    # settings[j, i, p]: party j's setting in corner p of component i, i for
    # pick 0 and i+1 for pick 1, corners row-major over the picks; i+1 = k
    # wraps to A_k = -A_0, one negation per wrapped party
    settings = np.arange(k)[:, None] + np.indices((2,) * n).reshape(n, 1, -1)
    signs = (-1.0) ** (settings >= k).sum(axis=0)
    corners = correlator_table(behavior)[(*(settings % k), np.arange(k)[:, None])]
    return ((signs * corners).sum(axis=-1) / 2**n).tolist()


def evaluate_chain(behavior):
    """Evaluate sum_i |I_i|^(1/n) against its classical bound k-1.  Raises
    ValueError when the statistic is not finite."""
    n, k = behavior.shape.n, behavior.shape.k
    components = chain_components(behavior)
    statistic = sum(abs(c) ** (1.0 / n) for c in components)
    return _report(statistic, float(k - 1), tuple(components), n, k)


def evaluate_mn(behavior):
    """Evaluate sqrt|M| + sqrt|N| against its classical bound 1 (n = k = 2
    only).  Raises ValueError when the statistic is not finite."""
    n, k = behavior.shape.n, behavior.shape.k
    if (n, k) != (2, 2):
        raise ValueError(f"this form needs n = k = 2, got n={n}, k={k}")
    return _mn_report(correlator_table(behavior).reshape(4, 2).tolist())


def _mn_reports(probabilities):
    """evaluate_mn of each behavior array in a stack of shape
    stack + (2,) * 6, as a list in row-major stack order: one stacked
    correlator contraction, then the report of each row of it."""
    return [_mn_report(rows) for rows in _correlators(probabilities, 2, 2).reshape(-1, 4, 2).tolist()]


def _mn_report(rows):
    """The report of the 4x2 correlator rows (C^0, C^1) at (x, y) = 00, 01,
    10, 11, as Python floats; the sums run left to right from 0.0 in that
    order."""
    (c00, d00), (c01, d01), (c10, d10), (c11, d11) = rows
    m = (0.0 + c00 + c01 + c10 + c11) / 4.0
    n_comp = (0.0 + d00 - d01 - d10 + d11) / 4.0
    statistic = abs(m) ** 0.5 + abs(n_comp) ** 0.5
    return _report(statistic, 1.0, (m, n_comp), 2, 2)


def report_to_json(report):
    return json.dumps(asdict(report), sort_keys=True)
