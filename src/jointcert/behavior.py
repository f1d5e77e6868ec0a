"""Behavior tensors for n preparation devices feeding one joint measurement.

A scenario has n parties, each with a setting x_j in {0..k-1} and a binary
output a_j, plus a single measuring device with no input whose outcome is a
k-bit string c = (c_0 .. c_{k-1}).  A behavior is the conditional distribution
P(a_1..a_n, c_0..c_{k-1} | x_1..x_n), stored as a float64 array of shape

    (k,)*n + (2,)*n + (2,)*k

indexed [x_1, .., x_n, a_1, .., a_n, c_0, .., c_{k-1}] so each per-setting
probability slice is a contiguous row-major block.

Every full correlator <A^1_{x_1} .. A^n_{x_n} C^i> comes from one table,
correlator_table(behavior)[x_1, .., x_n, i], of shape (k,)*n + (k,).

Behavior files are read and written by the file codec, jointcert.codec.

Tolerances: entries may be negative down to -1e-12 (clamped to 0 on load),
each setting slice must sum to 1 within 1e-10, and no party may signal by
more than 1e-9 in total variation (see signalling_residuals), nor may the
parties' outputs be correlated by more than 1e-9 (see independence_residual).
"""
import functools
from dataclasses import dataclass

import numpy as np

from .codec import _file_chunks, _read_file, _write_text
from .scenario import InvalidBehaviorError, ScenarioShape, _read_only_cache

NEGATIVITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
# slices normalized only within NORMALIZATION_TOL can already differ by that
# much in total variation, so the no-signalling check leaves ten times room
SIGNALLING_TOL = 1e-9


def _assemble(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as given,
    built without __init__ or __post_init__, so nothing is converted or
    checked.  Only for fields the library has just built itself and whose
    invariants hold by construction; every public constructor and loader
    still validates.  It has three callers, each relying on one invariant:

     - classical.enumerate_deterministic: one validating ClassicalStrategy
       per (output tables, hidden points) group fixes every field but the
       response table, and its _factors, which every strategy of the group
       copies; each block of response tables, float64 of shape
       (rows,) + (L,)*n + (2,)*k, fixes that row's shape and dtype;
     - classical.strategy_to_behavior: the product of a strategy's float64
       tables has the float64 tensor_shape of its scenario by construction;
     - inequalities._report: both evaluators pass Python floats and a tuple
       of them, the report computes its floor from those Python-float
       components, and the finiteness check runs before the report is built.

    With these three, one exhaustive step at (2, 2, L=2), enumeration,
    strategy_to_behavior and evaluate_mn, takes 10-12 us; a conversion that
    computes its strategy's _factors, the first of a strategy built by the
    constructor or a loader, takes 5-7 us more (timeit best of 7, three
    runs; 2 vCPUs, Python 3.11.7, numpy 2.4.6)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj

@dataclass(frozen=True)
class BehaviorTensor:
    shape: ScenarioShape
    probabilities: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probabilities, dtype=float)
        if arr.shape != self.shape.tensor_shape:
            raise InvalidBehaviorError(
                f"probability array has shape {arr.shape}, expected {self.shape.tensor_shape}"
            )
        object.__setattr__(self, "probabilities", arr)

    @classmethod
    def uniform(cls, shape):
        arr = np.full(shape.tensor_shape, 1.0 / shape.cells_per_setting)
        return cls(shape, arr)


def validate_behavior(behavior):
    """Return a list of human-readable constraint violations (empty iff valid)."""
    problems = []
    shape = behavior.shape
    arr = behavior.probabilities
    if arr.min() < -NEGATIVITY_TOL:
        idx = tuple(int(i) for i in np.unravel_index(arr.argmin(), arr.shape))
        problems.append(
            f"negative probability {arr.min():.3e} at index {idx} (tolerance -{NEGATIVITY_TOL:g})"
        )
    # a non-finite or huge entry makes sums and residuals overflow to
    # infinity or NaN, which the checks below report, so numpy's warnings
    # about it are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        sums = arr.reshape(shape.settings_shape + (-1,)).sum(axis=-1)
        signalling, independence = signalling_residuals(behavior), independence_residual(behavior)
    # a non-finite entry makes its setting's sum NaN or infinite, and the
    # negated comparison flags NaN too
    bad = ~(np.abs(sums - 1.0) <= NORMALIZATION_TOL)
    for st in zip(*np.nonzero(bad)):
        setting = tuple(int(s) for s in st)
        nonfinite = np.count_nonzero(~np.isfinite(arr[st]))
        if nonfinite:
            problems.append(f"setting {setting} has {nonfinite} non-finite entries (NaN or infinity)")
        else:
            problems.append(
                f"setting {setting} sums to {sums[st]:.12f}, "
                f"expected 1 within {NORMALIZATION_TOL:g}"
            )
    for party, residual in enumerate(signalling):
        if residual > SIGNALLING_TOL:
            problems.append(f"party {party} signals: its setting moves the other outputs and the outcome "
                            f"by {residual:.3e} in total variation (tolerance {SIGNALLING_TOL:g})")
    if independence > SIGNALLING_TOL:
        problems.append(f"the parties' outputs are correlated: P(a_1..a_n | x) departs from the product of "
                        f"its one-party marginals by {independence:.3e} in total variation (tolerance "
                        f"{SIGNALLING_TOL:g}), which independent sources forbid")
    return problems


def signalling_residuals(behavior):
    """Per party j (counted from 0), the largest total-variation distance over
    all settings x between P(a_-j, c | x) and the same with x_j = 0.  In every
    causal model of the scenario setting x_j reaches only party j, so these
    are 0 up to rounding.  No loop over settings: per party one pair-add over
    a_j, one subtraction of the x_j = 0 slice, one abs and one reduction."""
    n, k = behavior.shape.n, behavior.shape.k
    arr = behavior.probabilities
    residuals = np.empty(n)
    for j in range(n):
        outputs = (slice(None),) * (n + j)
        # P(a_-j, c | x) with axes (x_<j, x_j, x_>j, a_-j and c)
        view = (arr[outputs + (0,)] + arr[outputs + (1,)]).reshape(k**j, k, k ** (n - 1 - j), -1)
        moved = view[:, 1:]
        moved -= view[:, :1]
        np.abs(moved, out=moved)
        residuals[j] = 0.5 * moved.sum(axis=-1).max()
    return residuals


def independence_residual(behavior):
    """The largest total-variation distance over all settings x between
    P(a_1..a_n | x) and the product of its one-party marginals P(a_j | x).
    With independent sources the outcome summed out leaves the parties
    independent, in every model of the scenario, classical or quantum, so
    this is 0 up to rounding.  No loop over settings: one sum over the
    outcome, one marginal sum per party, their product and one reduction."""
    n, k = behavior.shape.n, behavior.shape.k
    outputs = behavior.probabilities.reshape((k**n,) + (2,) * n + (-1,)).sum(axis=-1)
    product = 1.0
    for j in range(n):
        others = tuple(1 + i for i in range(n) if i != j)
        product = product * outputs.sum(axis=others, keepdims=True)
    gap = np.abs(outputs - product).reshape(k**n, -1)
    return 0.5 * gap.sum(axis=-1).max()


@_read_only_cache
def _party_signs(n):
    """(-1)**(a_1 + .. + a_n) over the 2**n party outputs, row-major."""
    return functools.reduce(np.kron, [np.array([1.0, -1.0])] * n)


@_read_only_cache
def _charlie_bit_signs(k):
    """Matrix S of shape (2**k, k): S[c, i] = (-1)**c_i over the row-major
    Charlie outcomes c = (c_0 .. c_{k-1}), c_0 the most significant bit.

    The optimizer keeps its own copy (classical._charlie_signs), so its fast
    statistic stays an independent check of this route."""
    bits = (np.arange(2**k)[:, None] >> (k - 1 - np.arange(k))) & 1
    return 1.0 - 2.0 * bits


def correlator_table(behavior):
    """Every full correlator at once: an array T of shape (k,)*n + (k,) with
    T[x_1, .., x_n, i] = <A^1_{x_1} .. A^n_{x_n} C^i>.  The contraction,
    _correlators, also takes a stack of probability arrays with leading
    axes, and gives each item the bits this gives its behavior."""
    return _correlators(behavior.probabilities, behavior.shape.n, behavior.shape.k)


def _correlators(probabilities, n, k):
    """correlator_table of probability arrays of shape stack + tensor_shape,
    shape stack + (k,)*n + (k,): the same two matmuls, looped over the stack
    item by item inside numpy."""
    stack = probabilities.shape[: -2 * n - k]
    charlie = _party_signs(n) @ probabilities.reshape(stack + (k**n, 2**n, 2**k))  # party parity summed out
    return (charlie @ _charlie_bit_signs(k)).reshape(stack + (k,) * n + (k,))


def save_behavior(behavior, path):
    """Write the behavior as JSON with a flat row-major probability list.

    Floats are written with 17 significant digits, which round-trips float64
    exactly, so save -> load -> save is byte-identical.  A NaN or infinite
    entry raises InvalidBehaviorError and leaves no file at path.
    """
    _write_text((path, _file_chunks((), BEHAVIOR_FIELDS, behavior)))


# the behavior file after n and k: (key, one list per party, dims(n, k))
BEHAVIOR_FIELDS = (("probabilities", False, lambda n, k: ((k, n), (2, n + k))),)


def load_behavior(path, strict=False):
    """Read a behavior JSON file.

    Structural problems (bad JSON, missing keys, wrong entry count) always
    raise InvalidBehaviorError.  Probability-invariant violations raise only
    when strict is set; otherwise the behavior is returned as stored, with
    entries in [-1e-12, 0) clamped to exact zeros.
    """
    shape, values = _read_file(path, (), BEHAVIOR_FIELDS)
    arr = values["probabilities"]
    arr[(arr < 0) & (arr >= -NEGATIVITY_TOL)] = 0.0
    behavior = BehaviorTensor(shape, arr)
    if strict:
        problems = validate_behavior(behavior)
        if problems:
            raise InvalidBehaviorError("; ".join(problems))
    return behavior

