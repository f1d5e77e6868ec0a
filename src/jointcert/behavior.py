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

This module also owns the file format: _read_file and _write_file read and
write both behavior files and strategy files, each format given by its header
ints and its field table, BEHAVIOR_FIELDS here and classical.STRATEGY_FIELDS.
_read_file streams a file in _write_file's layout a block at a time
(_read_streamed) and parses any other file as one JSON document.

Tolerances: entries may be negative down to -1e-12 (clamped to 0 on load),
each setting slice must sum to 1 within 1e-10, and no party may signal by
more than 1e-9 in total variation (see signalling_residuals).
"""
import functools
import json
import math
import os
import re
import stat
from dataclasses import dataclass

import numpy as np

NEGATIVITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
# slices normalized only within NORMALIZATION_TOL can already differ by that
# much in total variation, so the no-signalling check leaves ten times room
SIGNALLING_TOL = 1e-9
MAX_AXES = 64  # numpy's limit on array dimensions
# refusal messages show at most this many characters of a refused value
SHOWN_CHARS = 64


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
        idx = np.unravel_index(arr.argmin(), arr.shape)
        problems.append(
            f"negative probability {arr.min():.3e} at index {idx} (tolerance -{NEGATIVITY_TOL:g})"
        )
    sums = arr.reshape(shape.settings_shape + (-1,)).sum(axis=-1)
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
    for party, residual in enumerate(signalling_residuals(behavior)):
        if residual > SIGNALLING_TOL:
            problems.append(f"party {party} signals: its setting moves the other outputs and the outcome "
                            f"by {residual:.3e} in total variation (tolerance {SIGNALLING_TOL:g})")
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


@functools.cache
def _party_signs(n):
    """(-1)**(a_1 + .. + a_n) over the 2**n party outputs, row-major."""
    signs = functools.reduce(np.kron, [np.array([1.0, -1.0])] * n)
    signs.setflags(write=False)
    return signs


@functools.cache
def _charlie_bit_signs(k):
    """Matrix S of shape (2**k, k): S[c, i] = (-1)**c_i over the row-major
    Charlie outcomes c = (c_0 .. c_{k-1}), c_0 the most significant bit.

    The optimizer keeps its own copy (classical._charlie_signs), so its fast
    statistic stays an independent check of this route."""
    bits = (np.arange(2**k)[:, None] >> (k - 1 - np.arange(k))) & 1
    signs = 1.0 - 2.0 * bits
    signs.setflags(write=False)
    return signs


def correlator_table(behavior):
    """Every full correlator at once: an array T of shape (k,)*n + (k,) with
    T[x_1, .., x_n, i] = <A^1_{x_1} .. A^n_{x_n} C^i>."""
    n, k = behavior.shape.n, behavior.shape.k
    probs = behavior.probabilities.reshape(k**n, 2**n, 2**k)
    charlie = _party_signs(n) @ probs  # (k**n, 2**k): party parity summed out
    return (charlie @ _charlie_bit_signs(k)).reshape((k,) * n + (k,))


def save_behavior(behavior, path):
    """Write the behavior as JSON with a flat row-major probability list.

    Floats are written with 17 significant digits, which round-trips float64
    exactly, so save -> load -> save is byte-identical.  A NaN or infinite
    entry raises InvalidBehaviorError and leaves no file at path.
    """
    _write_file(path, (), BEHAVIOR_FIELDS, behavior)


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


# --- the file codec: one reader and one writer for both formats ------------
#
# A file is one JSON object: n, k and its format's header ints, then one key
# per (key, per_party, dims) row of the format's table, BEHAVIOR_FIELDS or
# classical.STRATEGY_FIELDS, in table order: a flat row-major float list with
# dims(n, k, *header ints) axes, or n such lists if per_party, in 17 digits.
# _write_file checks every list for non-finite entries, then opens the file
# and streams each list a block of WRITE_BLOCK entries at a time, never the
# whole file's text.  _read_file builds no array before its size is checked.
# It reads a file in _write_file's layout with _read_streamed, a block of
# READ_BLOCK characters at a time into arrays sized from the header; any
# other file, or one that departs from that layout anywhere, it parses whole
# with json.load, and that path alone gives every refusal.


# entries per written block, and the largest share of distinct entries at
# which a block is deduplicated; both measured in the docstrings below
WRITE_BLOCK = 2**16
DEDUPLICATE_SHARE = 1 / 8
# characters per read of the streamed reader, measured in _read_streamed
READ_BLOCK = 2**16
# float64's negative zero as a bit pattern: "%.17g" prints it "-0", which
# JSON reads as the integer 0, so the writer prints it "-0.0"
NEGATIVE_ZERO = np.uint64(1 << 63)


def _number_chunks(values):
    """values as a flat row-major JSON list of floats in "%.17g", 17
    significant digits, and negative zero as "-0.0", which round-trip
    float64 exactly: an iterator over the list's text, one chunk per block
    of WRITE_BLOCK entries plus the brackets and the ", " between blocks.
    The bytes do not depend on where the blocks are cut.

    JSON has no literal for NaN or infinity, so a non-finite entry anywhere
    in values raises InvalidBehaviorError here, before the caller opens a
    file; nothing is formatted until the iterator is read.

    The block size rests on whole (5, 4) saves, 524288 entries (2 vCPUs,
    Python 3.11.7, numpy 2.4.6, best of 5): at 2**14, 2**16 and 2**18
    entries per block an all-distinct behavior took 366, 372 and 334 ms and
    a three-valued one 27.8, 23.0 and 27.9 ms, with tracemalloc peaks of
    1.1, 4.6 and 18.2 MB (all-distinct) and 0.5, 2.1 and 8.0 MB
    (three-valued).  The whole-list writer this replaced peaked at 31.6
    and 15.9 MB.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    nonfinite = arr.size - np.count_nonzero(np.isfinite(arr))
    if nonfinite:
        raise InvalidBehaviorError(
            f"cannot write {nonfinite} non-finite entries (NaN or infinity): JSON has no literal for them"
        )
    return _chunks(arr.view(np.uint64))


def _chunks(bits):
    """_number_chunks' iterator, a generator of its own so that the check
    there runs at the call and not at the first read."""
    yield "["
    for start in range(0, bits.size, WRITE_BLOCK):
        if start:
            yield ", "
        yield _block_text(bits[start : start + WRITE_BLOCK])
    yield "]"


def _block_text(bits):
    """The entries of one block, given as float64 bit patterns, in "%.17g"
    joined by ", ", and negative zero as "-0.0": the same bytes as
    formatting each entry alone.

    Each distinct value is formatted once.  Distinct means a distinct bit
    pattern, so -0.0 and 0.0, which compare equal but print apart, stay
    apart.  The patterns are found by np.sort and an adjacent-difference
    mask: np.unique (numpy 2.4.6) took 0.42 s on 524288 distinct patterns
    where np.sort took 6 ms.  When at most DEDUPLICATE_SHARE of the entries
    are distinct, or the block holds NEGATIVE_ZERO, the distinct values are
    formatted by one % call and split, NEGATIVE_ZERO's text is replaced,
    every entry finds its string by np.searchsorted, and one ", ".join
    builds the text.  Otherwise the block is one % call: a template with one
    "%.17g" field per entry, applied to the entries as a tuple of Python
    floats.

    The cut-off rests on one block of 2**16 random entries (2 vCPUs, Python
    3.11.7, numpy 2.4.6, best of 7 to 9, two runs): deduplicating took 8-9
    ms against the template's 40-51 ms at 1/64 distinct, 17-19 ms against
    44-54 ms at 1/8, 22-28 ms against 48-49 ms at 1/4 and 61-75 ms against
    34-48 ms when all are distinct; the two broke even near 1/2.  The
    behaviors of the built-in families and of deterministic strategies have
    a handful of distinct entries; random continuous ones have all distinct,
    so 1/8 leaves room for timing noise without moving either kind.
    """
    ordered = np.sort(bits)
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if np.count_nonzero(first) > DEDUPLICATE_SHARE * bits.size and NEGATIVE_ZERO not in bits:
        return ("%.17g, " * (bits.size - 1) + "%.17g") % tuple(bits.view(np.float64).tolist())
    distinct = ordered[first]
    texts = "\n".join(["%.17g"] * distinct.size) % tuple(distinct.view(np.float64).tolist())
    texts = np.array(texts.split("\n"), dtype=object)
    texts[distinct == NEGATIVE_ZERO] = "-0.0"
    return ", ".join(texts[np.searchsorted(distinct, bits)].tolist())


def _write_file(path, header, fields, values):
    """Write values, with a .shape and an attribute for each key of header
    and of the table fields, as the file at path."""
    ints = [("n", values.shape.n), ("k", values.shape.k)] + [(key, getattr(values, key)) for key in header]
    parts = [["{" + ", ".join('"%s": %d' % pair for pair in ints)]]
    for key, per_party, _ in fields:
        lists = getattr(values, key) if per_party else [getattr(values, key)]
        for j, item in enumerate(lists):
            parts += [[", " if j else ', "%s": %s' % (key, "[" * per_party)], _number_chunks(item)]
        parts.append(["]" * per_party])
    parts.append(["}\n"])
    with open(path, "w") as fh:
        for part in parts:
            fh.writelines(part)


def _read_file(path, header, fields):
    """The scenario shape of the file at path and a dict of its other values:
    each header int, read by _integer(value, key, 1), and each row's array,
    or tuple of n arrays if per_party.

    A regular file in _write_file's layout is read by _read_streamed.
    Any other file, or one it declines, is parsed whole by json.load and
    checked here; whole tensors are read first, so a shape past numpy's axis
    limit is refused by the tensor's own message."""
    try:
        with open(path) as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):
                streamed = _read_streamed(fh, info.st_size, header, fields)
                if streamed is not None:
                    return streamed
                fh.seek(0)
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integer literals past Python's digit limit
        # and undecodable bytes; RecursionError, arrays nested too deep
        raise InvalidBehaviorError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidBehaviorError("top level must be a JSON object")
    for key in ("n", "k", *header, *(row[0] for row in fields)):
        if key not in doc:
            raise InvalidBehaviorError(f"missing required key {key!r}")
    try:
        shape = ScenarioShape(doc["n"], doc["k"])
    except ValueError as exc:
        raise InvalidBehaviorError(f"bad scenario shape: {exc}") from exc
    try:
        values = {key: _integer(doc[key], key, 1) for key in header}
    except ValueError as exc:
        raise InvalidBehaviorError(str(exc)) from exc
    sizes = (shape.n, shape.k, *values.values())
    for key, per_party, dims in sorted(fields, key=lambda row: row[1]):
        if not per_party:
            values[key] = _read_numbers(doc[key], key, dims(*sizes))
        elif isinstance(doc[key], list) and len(doc[key]) == shape.n:
            values[key] = tuple(_read_numbers(v, f"{key}[{j}]", dims(*sizes)) for j, v in enumerate(doc[key]))
        else:
            raise InvalidBehaviorError(f"{key} must be a list of {shape.n} lists, got {_length_text(doc[key])}")
    return shape, values


def _read_streamed(fh, size, header, fields):
    """_read_file's result for the open file fh of size bytes when its text
    is laid out as _write_file writes it, and None at the first departure,
    so that json.load decides: other whitespace or key order outside the
    number lists, a missing, extra or repeated key, a value that is not a
    plain finite number, an empty entry, a wrong count or anything but
    whitespace after the closing brace.

    The header is one anchored match of the writer's text, each int of at
    most 18 digits.  Before a row's arrays are built, its axes are checked
    against MAX_AXES and its entries, with those of the rows before it,
    against size, as each entry takes at least one byte.  Each list is then
    read by _Text.numbers into its float64 array.  Every number it takes is
    parsed by json.loads, so what this returns is, bit for bit, what
    json.load gives for the same text.

    READ_BLOCK rests on load_behavior of two (5, 4) files of 524288 entries
    (2 vCPUs, Python 3.11.7, numpy 2.4.6; median of 21 runs interleaved in
    one process): at 2**14, 2**16, 2**18 and 2**20 characters per read an
    all-distinct 11.0 MB file took 237, 222, 248 and 247 ms against the
    whole-document reader's 258 ms, and a three-valued 7.0 MB one 99, 88,
    86 and 91 ms against 95 ms.  The tracemalloc peaks were 5.2, 5.2, 6.3
    and 12.7 MB (all-distinct) and 5.2, 5.2, 6.8 and 14.7 MB (three-valued)
    against 28.3 and 24.3 MB, of which the float64 array takes 4.2 MB.
    """
    keys = ("n", "k", *header)
    template = "{" + ", ".join('"%s": %%d' % key for key in keys)
    text = _Text(fh)
    try:
        # "%d" of an int from 1 to 10**18 - 1, the longest the pattern takes
        found = text.match(
            re.escape(template).replace("%d", "([1-9][0-9]{0,17})"), len(template % ((10**18 - 1,) * len(keys)))
        )
        if not found:
            return None
        sizes = tuple(map(int, found.groups()))
        shape = ScenarioShape(*sizes[:2])
        values = dict(zip(header, sizes[2:]))
        budget = size  # entries not yet allocated that the file can hold
        for key, per_party, dims in fields:
            dims = dims(*sizes)
            lists = shape.n if per_party else 1
            if sum(repeat for _, repeat in dims) > MAX_AXES or _exceeds(dims + ((lists, 1),), budget):
                return None
            axes = sum(((side,) * repeat for side, repeat in dims), ())
            budget -= lists * math.prod(axes)
            if not text.take(', "%s": %s' % (key, "[" * per_party)):
                return None
            arrays = []
            for j in range(lists):
                arrays.append(np.empty(axes))
                if (j and not text.take(", ")) or not text.numbers(arrays[-1].reshape(-1)):
                    return None
            if not text.take("]" * per_party):
                return None
            values[key] = tuple(arrays) if per_party else arrays[0]
        if not (text.take("}") and text.blank()):
            return None
    except (ValueError, OverflowError, RecursionError):
        # a malformed piece, undecodable bytes, an integer entry past
        # float's range, nesting past the decoder's limit, or k < 2
        return None
    return shape, values


class _Text:
    """The text of a file open for reading, read READ_BLOCK characters at a
    time; head holds what is read and not yet consumed."""

    def __init__(self, fh):
        self.fh = fh
        self.head = ""

    def fill(self, width):
        """Read until head holds width characters or the file ends."""
        while len(self.head) < width:
            block = self.fh.read(READ_BLOCK)
            if not block:
                return
            self.head += block

    def take(self, literal):
        """Whether the text goes on with literal, which is consumed if so."""
        self.fill(len(literal))
        if not self.head.startswith(literal):
            return False
        self.head = self.head[len(literal) :]
        return True

    def match(self, pattern, width):
        """re.match of pattern, consumed if it matches, on the next width
        characters."""
        self.fill(width)
        found = re.match(pattern, self.head)
        if found:
            self.head = self.head[found.end() :]
        return found

    def numbers(self, out):
        """Whether the text goes on with a JSON list of exactly out.size
        plain finite numbers, which are read into out and consumed if so.
        The list is taken a piece at a time, up to the last comma read so far
        or to the "]", and each piece is parsed by json.loads, which reads
        the whitespace between entries as json.load does; so a piece holds
        at most READ_BLOCK characters more than one entry."""
        if not self.take("["):
            return False
        filled, text, self.head = 0, self.head, ""
        seen = 0  # text[:seen] holds no "]" and no comma
        while True:
            close = text.find("]", seen)
            cut = close if close >= 0 else text.rfind(",", seen)
            if cut >= 0:
                values = json.loads("[" + text[:cut] + "]")
                # an empty piece is an empty entry, as in "[1, , 2]"
                if not values or set(map(type, values)) - {int, float}:
                    return False
                end = filled + len(values)
                out[filled:end] = values  # a ValueError if out has no room for them
                if not np.isfinite(out[filled:end]).all():
                    return False
                filled = end
                if close >= 0:
                    self.head = text[close + 1 :]
                    return filled == out.size
                text = text[cut + 1 :]
            seen = len(text)
            block = self.fh.read(READ_BLOCK)
            if not block:
                return False
            text += block

    def blank(self):
        """Whether the rest of the text is JSON whitespace; all of it is read."""
        while not self.head.strip(" \t\n\r"):
            self.head = self.fh.read(READ_BLOCK)
            if not self.head:
                return True
        return False


def _length_text(values):
    return len(values) if isinstance(values, list) else type(values).__name__


def _count_text(dims):
    """prod(size**repeat) over dims in decimal while that takes at most
    SHOWN_CHARS digits, and otherwise its lower bound 2**_bit_floor(dims),
    so that a refusal stays one short line however large the count."""
    if _exceeds(dims, 10**SHOWN_CHARS - 1):
        return f"at least 2**{_bit_floor(dims)}"
    return str(math.prod(size**repeat for size, repeat in dims))


_JSON_KINDS = {list: "nested lists", dict: "objects", str: "strings", bool: "booleans", type(None): "nulls"}


def _read_numbers(values, key, dims):
    """A flat row-major list of plain numbers as a float array with `repeat`
    axes of length `size` for each (size, repeat) in dims."""
    axes = sum(repeat for _, repeat in dims)
    if axes > MAX_AXES:
        # refused before a shape tuple of that length is built
        raise InvalidBehaviorError(
            f"{key} must be a list of {_count_text(dims)} numbers, got {_length_text(values)}; "
            f"a tensor with {axes} axes exceeds numpy's {MAX_AXES}"
        )
    shape = sum(((size,) * repeat for size, repeat in dims), ())
    if not isinstance(values, list) or len(values) != math.prod(shape):
        raise InvalidBehaviorError(
            f"{key} must be a list of {_count_text(dims)} numbers, got {_length_text(values)}"
        )
    # one C-level pass; bool is its own type here, so true and false fail it
    odd = set(map(type, values)) - {int, float}
    if odd:
        kinds = ", ".join(sorted(_JSON_KINDS.get(t, t.__name__) for t in odd))
        raise InvalidBehaviorError(f"{key} must all be numbers, got {kinds}")
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError as exc:  # an integer entry past float's range
        raise InvalidBehaviorError(f"{key} must all be numbers: {exc}") from exc
    # json.load reads NaN, Infinity and -Infinity, and 1e400 as infinity
    nonfinite = arr.size - np.count_nonzero(np.isfinite(arr))
    if nonfinite:
        raise InvalidBehaviorError(
            f"{key} has {nonfinite} non-finite entries (NaN, infinity or past float64's range)"
        )
    return arr.reshape(shape)
