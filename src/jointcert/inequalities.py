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

At n = k = 2 the chain form reduces exactly to (M, N): I_0 = M and I_1 = N.
Verdicts are strict: a report is violated only when statistic > bound.  A
behavior with NaN or infinite entries gets no verdict: its statistic is not
finite, and both evaluators raise ValueError.
"""
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .behavior import correlator_table


@dataclass(frozen=True)
class InequalityReport:
    statistic: float
    bound: float
    components: tuple
    violated: bool
    margin: float


def _report(statistic, bound, components):
    statistic = float(statistic)
    bound = float(bound)
    components = tuple(float(c) for c in components)
    # NaN compares false against the bound and infinity exceeds it, so
    # either would pass for a verdict
    if not math.isfinite(statistic):
        raise ValueError(f"statistic is {statistic}, not finite: components {components}")
    return InequalityReport(
        statistic=statistic,
        bound=bound,
        components=components,
        violated=statistic > bound,
        margin=statistic - bound,
    )


def chain_components(behavior):
    """The k correlator averages I_0 .. I_{k-1} entering the chain statistic."""
    n, k = behavior.shape.n, behavior.shape.k
    table = correlator_table(behavior)
    # pick 0 -> setting i, pick 1 -> setting i+1; at i = k-1 that wraps to
    # A_k = -A_0, one negation per wrapped party
    picks = np.indices((2,) * n).sum(axis=0)
    components = []
    for i in range(k):
        block = table[np.ix_(*[(i, (i + 1) % k)] * n + [(i,)])].reshape((2,) * n)
        wrap = -1.0 if i == k - 1 else 1.0
        components.append(float((wrap**picks * block).sum()) / 2**n)
    return components


def evaluate_chain(behavior):
    """Evaluate sum_i |I_i|^(1/n) against its classical bound k-1.  Raises
    ValueError when the statistic is not finite."""
    n, k = behavior.shape.n, behavior.shape.k
    components = chain_components(behavior)
    statistic = sum(abs(c) ** (1.0 / n) for c in components)
    return _report(statistic, k - 1, components)


def evaluate_mn(behavior):
    """Evaluate sqrt|M| + sqrt|N| against its classical bound 1 (n = k = 2
    only).  Raises ValueError when the statistic is not finite."""
    n, k = behavior.shape.n, behavior.shape.k
    if (n, k) != (2, 2):
        raise ValueError(f"this form needs n = k = 2, got n={n}, k={k}")
    table = correlator_table(behavior).tolist()
    m = 0.0
    n_comp = 0.0
    for x, y in itertools.product(range(2), repeat=2):
        m += table[x][y][0]
        n_comp += (-1.0) ** (x + y) * table[x][y][1]
    m /= 4.0
    n_comp /= 4.0
    statistic = abs(m) ** 0.5 + abs(n_comp) ** 0.5
    return _report(statistic, 1.0, (m, n_comp))


def report_to_json(report):
    doc = {
        "statistic": report.statistic,
        "bound": report.bound,
        "components": list(report.components),
        "violated": report.violated,
        "margin": report.margin,
    }
    return json.dumps(doc, sort_keys=True)

