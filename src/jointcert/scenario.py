"""The scenario's shape and the refusal primitives that the behavior model
and the file codec share: ScenarioShape, InvalidBehaviorError, the integer
check, the cut-short repr of refusal messages and the exact size screen.

It also owns the rule that shared arrays are read-only: _read_only freezes
every array in a value, and every table builder whose result the whole
process shares is cached by _read_only_cache, which freezes it once."""
import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_AXES = 64  # numpy's limit on array dimensions
# refusal messages show at most this many characters of a refused value
SHOWN_CHARS = 64


def _read_only(value):
    """value, with every ndarray in it, itself or inside nested tuples,
    made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def _read_only_cache(builder):
    """functools.cache of the table builder, its result made _read_only once,
    when the cache misses.  The cache is the outer wrapper, so a hit runs no
    Python frame."""
    return functools.cache(functools.wraps(builder)(lambda *args: _read_only(builder(*args))))


class InvalidBehaviorError(ValueError):
    """A behavior file or tensor violates a structural or probability invariant."""


def _shown(value):
    """repr(value) for a refusal message, cut to its first SHOWN_CHARS
    characters and its length when longer: a value read from a file can be
    a string or a list of any length.  An int of more than 4 * SHOWN_CHARS
    bits is given by its bit length, as Python prints no int of more than
    4300 digits."""
    if isinstance(value, int) and value.bit_length() > 4 * SHOWN_CHARS:
        return f"an integer of {value.bit_length()} bits"
    text = repr(value)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def _integer(value, name, minimum=None):
    """value as an int.  Refuses booleans and non-integers (numpy integers
    are accepted) with a ValueError naming the argument, never truncating,
    and values below minimum when one is given."""
    # bool is a subclass of int, but True is not a count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {_shown(value)}")
    return value


def _bit_floor(factors):
    """The sum of exp * (bit length of base - 1) over factors, pairs of ints
    with base >= 1 and exp >= 0: the product of base**exp is at least 2 to
    this power."""
    return sum(exp * (base.bit_length() - 1) for base, exp in factors)


def _exceeds(factors, limit):
    """Whether the product of base**exp over factors exceeds the int limit.
    A product that its _bit_floor puts past limit is settled before any
    power is formed; any other stays below limit**2, and is formed and
    compared exactly."""
    return _bit_floor(factors) >= limit.bit_length() or math.prod(base**exp for base, exp in factors) > limit


@dataclass(frozen=True)
class ScenarioShape:
    """Number of preparation parties n >= 1 and settings per party k >= 2."""

    n: int
    k: int

    def __post_init__(self):
        for field in ("n", "k"):
            object.__setattr__(self, field, _integer(getattr(self, field), field))
        if self.n < 1:
            raise ValueError(f"need at least one party, got n={_shown(self.n)}")
        if self.k < 2:
            raise ValueError(f"need at least two settings, got k={_shown(self.k)}")

    @property
    def tensor_shape(self):
        return (self.k,) * self.n + (2,) * self.n + (2,) * self.k

    @property
    def settings_shape(self):
        return (self.k,) * self.n

    @property
    def cells_per_setting(self):
        # joint outcomes per setting tuple: n binary outputs, k Charlie bits
        return 2 ** (self.n + self.k)
