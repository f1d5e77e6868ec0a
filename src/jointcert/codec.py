"""The file codec: one reader and one writer for behavior and strategy files.

A file is one JSON object: n, k and its format's header ints, then one key
per (key, per_party, dims) row of the format's table, behavior.BEHAVIOR_FIELDS
or classical.STRATEGY_FIELDS, in table order: a flat row-major float list with
dims(n, k, *header ints) axes, or n such lists if per_party, in 17 significant
digits, which round-trip float64, so save -> load -> save is byte-identical.

_file_chunks checks every list for non-finite entries, then streams each list
a block of WRITE_BLOCK entries at a time, never the whole file's text, to
_write_text, the one writer of every file the package writes: a block of few
distinct values, or of few entries, formats each value once, any other goes
through the digit kernel below.  _write_text leaves every path as it was when
a write fails part way, also when it writes several files at once.

_read_file builds no array before its size is checked.  It reads a file in
_file_chunks' layout with _read_streamed, a block of READ_BLOCK characters at
a time into arrays sized from the header; any other file, or one that departs
from that layout anywhere, it parses whole with json.load, and that path alone
gives every refusal.  The streamed reader learns the spellings of a list
once, from its first piece, when that piece holds few distinct ones, by the
same DEDUPLICATE_SHARE as the writer, and parses each of them once
(_spellings); every other list, and the rest of a list from its first piece
that holds another spelling, it parses a piece at a time.  Both paths take
their entries through _read_numbers, the one entry rule (plain numbers only,
finite after conversion), and expand a row's dims with _axes.
"""
import errno
import functools
import itertools
import json
import math
import os
import re
import stat

import numpy as np

from .scenario import MAX_AXES, SHOWN_CHARS, InvalidBehaviorError, ScenarioShape, _bit_floor, _exceeds, _integer

# entries per written block, the largest share of distinct entries at which
# a block is deduplicated, the most entries of a block deduplicated whatever
# its share, and entries per slice of the digit kernel; all measured in the
# docstrings below
WRITE_BLOCK = 2**16
DEDUPLICATE_SHARE = 1 / 8
SMALL_BLOCK = 2**7
KERNEL_SLICE = 2**13
# characters per read of the streamed reader, measured in _read_streamed,
# and tokens of a list's first piece that decide whether _spellings reads it
READ_BLOCK = 2**16
READ_SAMPLE = 512
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
    Python 3.11.7, numpy 2.4.6, best of 5, two runs): at 2**14, 2**16 and
    2**18 entries per block an all-distinct behavior took 108-115, 93 and
    96-103 ms and a three-valued one 25-26, 21-23 and 20-22 ms, with
    tracemalloc peaks of 1.9, 2.9 and 11.0 MB (all-distinct) and 0.5, 1.9
    and 7.2 MB (three-valued).
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

    When at most DEDUPLICATE_SHARE of the entries are distinct, or the
    block holds at most SMALL_BLOCK entries, each distinct value is
    formatted once: the distinct values are formatted by _texts, every
    entry finds its string by np.searchsorted, and one ", ".join builds the
    text.  Otherwise the block is cut into slices of KERNEL_SLICE entries,
    each written by _slice_text, and joined by ", ".

    The cut-off rests on one block of 2**16 entries drawn from a pool of
    random values (2 vCPUs, Python 3.11.7, numpy 2.4.6, best of 7, two
    runs, the sort included): at 1/64, 1/32, 1/16, 1/8, 1/4, 1/2 and all
    distinct, deduplicating took 8-11, 9, 11, 15, 21-22, 30-33 and 39-40 ms
    against the kernel's 11 ms throughout, so the two break even near 1/16.
    The share stays 1/8 all the same, and gen's quantum and saturation
    behaviors hold 8 and 7 distinct values in 64 entries.  The kernel costs
    about 90 us per call whatever the slice, so small blocks are
    deduplicated whatever their share: all distinct, blocks of 16, 64, 128,
    256 and 512 entries took 17, 46, 84-88, 161-163 and 313 us deduplicated
    against 90, 94, 105-111, 120-123 and 156 us in the kernel (best of 7,
    two runs), breaking even between 144 and 192 entries.  Random
    continuous behaviors have all entries distinct, and the built-in
    families and deterministic strategies a handful, so neither kind is
    near the share's cut-off.
    """
    distinct = _few_distinct(bits)
    if distinct is None:
        starts = range(0, bits.size, KERNEL_SLICE)
        return ", ".join([_slice_text(bits[start : start + KERNEL_SLICE]) for start in starts])
    return ", ".join(_texts(distinct)[np.searchsorted(distinct, bits)].tolist())


def _texts(bits):
    """The "%.17g" texts of float64 bit patterns, by one % call, with "-0.0" for negative zero."""
    texts = "\n".join(["%.17g"] * bits.size) % tuple(bits.view(np.float64).tolist())
    texts = np.array(texts.split("\n"), dtype=object)
    texts[bits == NEGATIVE_ZERO] = "-0.0"
    return texts


def _few_distinct(bits):
    """The distinct bit patterns of bits in ascending order when at most
    DEDUPLICATE_SHARE of the entries are distinct or bits holds at most
    SMALL_BLOCK entries, else None.  Distinct means a distinct bit pattern,
    so -0.0 and 0.0, which compare equal but print apart, stay apart.  The
    patterns are found by np.sort and an adjacent-difference mask: np.unique
    (numpy 2.4.6) took 0.42 s on 524288 distinct patterns where np.sort
    took 6 ms."""
    ordered = np.sort(bits)
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if bits.size > SMALL_BLOCK and np.count_nonzero(first) > DEDUPLICATE_SHARE * bits.size:
        return None
    return ordered[first]


# --- the digit kernel: "%.17g" from integer arithmetic ----------------------
#
# For a float64 x != 0 with e = floor(log10 |x|), "%.17g" prints D, the
# integer |x| * 10**(16 - e) rounded half to even, as "0.000ddd" with -e - 1
# zeros after the point when -4 <= e <= -1 and as "d.ddde-XX" when e < -4,
# trailing zeros of D dropped (a D rounded up to 10**17 would print as
# 10**16 with e + 1).  _slice_text computes D exactly for every x with |x|
# in the window [2**-40, 1), which holds [1e-12, 1).  There x = m *
# 2**(E - 52), m the 53-bit significand and -40 <= E <= -1, and
# -13 <= e <= -1.  With t = 16 - e,
#
#     |x| * 10**t * 2**64 = m * K(E, t),   K(E, t) = 5**t * 2**(t + E + 12),
#
# and for every (E, t) that an x of the window takes, t + E + 12 >= 0 and
# K < 2**69: the product is an integer below 2**122 whose bits from the
# 64th up are floor(|x| * 10**t) and whose low 64 bits decide the rounding.
# It is formed on 32-bit limbs held in uint64, each partial product below
# 2**64.  np.log10's floor gives e for all x but those within a few ulps of
# a power of ten, where it can miss by one; an entry whose floor(|x| *
# 10**t) falls outside [10**16, 10**17) has e corrected by one and its
# product formed again.  No D of the window rounds up to 10**17, which takes
# an x less than 5e-18 of its size below a power of ten: the float64 nearest
# below each of 10**-12 .. 10**0 is further, 2.0e-17 at 10**-12 the
# closest, and the writer tests hold each of them.  Entries outside the
# window, zeros, subnormals and -0.0 are formatted by _texts.
#
# Each entry gets one row of KERNEL_ROW bytes, and a mask of the bytes to
# keep from a table indexed by the sign, the layout and the digit count:
#
#     0      "-"       negative entries
#     1-2    "0."      e >= -4
#     3-5    "000"     -e - 1 of them when e >= -4
#     6      the first digit of D
#     7      "."       e < -4 and more than one digit
#     8-23   the other 16 digits of D, up to its last nonzero one
#     24-27  "e-XX"    e < -4
#     28-29  ", "      every entry but the slice's last
#
# One boolean compress of the rows then gives the slice's text.
#
# KERNEL_SLICE rests on one all-distinct block of 2**16 random entries
# (2 vCPUs, Python 3.11.7, numpy 2.4.6, best of 7, three runs): at 2**11,
# 2**12, 2**13, 2**14 and 2**16 entries per slice it took 11.8-17.8,
# 11.7-16.7, 11.4-12.5, 10.9-11.8 and 16.5-17.0 ms with tracemalloc peaks
# of 2.63, 2.63, 2.80, 4.28 and 13.19 MiB.

KERNEL_ROW = 32
# bit patterns of the window's ends, 2**-40 and 1.0
KERNEL_WINDOW = (np.uint64(0x3D70_0000_0000_0000), np.uint64(0x3FF0_0000_0000_0000))
# the powers t = 16 - e of the kernel's table, for e from -1 down to -13
KERNEL_POWERS = range(17, 30)


@functools.cache
def _kernel_tables():
    """The digit kernel's tables, built at its first call:

     - scales, a (3, 40 * 13) uint64 array: the 32-bit limbs of K(E, t) at
       index (E + 40) * 13 + t - 17, zero for the pairs no x of the window
       takes;
     - digits, uint32 words holding the four ASCII digits of 0..9999;
     - ends, a (4, 10000) int8 array: 4 * i plus the number of digits of
       g, written in four, up to its last nonzero one, or 0 for g = 0;
     - exponents, uint32 words "e-XX" for t = 17..29, XX = t - 16;
     - words, the row's constant bytes "-0.000d." and ", .." as a uint64
       and a uint32 word;
     - masks, a (2 * 5 * 17, KERNEL_ROW) bool array: the bytes kept for
       sign s, layout l (-e - 1 for e >= -4, else 4) and c digits of D after
       the first, at row (5 * s + l) * 17 + c."""
    scales = np.zeros((3, 40, len(KERNEL_POWERS)), dtype=np.uint64)
    for E in range(-40, 0):
        # the t of the smallest and of the largest float64 of [2**E, 2**(E + 1))
        e_low = math.floor(math.log10(2.0**E))
        e_high = math.floor(math.log10(math.nextafter(2.0 ** (E + 1), 0)))
        for t in range(16 - e_high, 17 - e_low):
            scale = 5**t << (t + E + 12)
            scales[:, E + 40, t - KERNEL_POWERS[0]] = [(scale >> shift) & 0xFFFF_FFFF for shift in (0, 32, 64)]
    four_digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    # the position of the last nonzero digit, counted from 1, or 0
    last = np.where(four_digits.any(axis=1), 4 - np.argmax(four_digits[:, ::-1] > 0, axis=1), 0)
    ends = np.where(last > 0, last + 4 * np.arange(4)[:, None], 0).astype(np.int8)
    exponents = "".join("e-%02d" % (t - 16) for t in KERNEL_POWERS)
    masks = np.zeros((2, 5, 17, KERNEL_ROW), dtype=bool)
    for sign, layout, count in itertools.product(range(2), range(5), range(17)):
        row = masks[sign, layout, count]
        row[0] = sign
        if layout < 4:
            row[1 : 3 + layout] = True
        else:
            row[7] = count > 0
            row[24:28] = True
        row[6] = True
        row[8 : 8 + count] = True
        row[28:30] = True
    return (
        scales.reshape(3, -1),
        (four_digits + ord("0")).astype(np.uint8).view(np.uint32).reshape(-1),
        ends,
        np.frombuffer(exponents.encode(), dtype=np.uint32),
        (np.frombuffer(b"-0.000d.", dtype=np.uint64)[0], np.frombuffer(b", ..", dtype=np.uint32)[0]),
        masks.reshape(-1, KERNEL_ROW),
    )


def _scaled(scales, m0, m1, index):
    """(floor(m * K / 2**64), m * K mod 2**64) for m = m1 * 2**32 + m0,
    m1 < 2**21, and K the scale at index, K < 2**69: six products of 32-bit
    limbs, each below 2**64."""
    k0, k1, k2 = (np.take(limbs, index) for limbs in scales)
    a, b, c = m0 * k0, m0 * k1, m1 * k0
    middle = (a >> 32) + (b & 0xFFFF_FFFF) + (c & 0xFFFF_FFFF)
    high = (middle >> 32) + (b >> 32) + (c >> 32) + m0 * k2 + m1 * k1 + ((m1 * k2) << 32)
    return high, (middle << 32) | (a & 0xFFFF_FFFF)


def _slice_text(bits):
    """The entries of one slice, given as float64 bit patterns, in "%.17g"
    joined by ", ", and negative zero as "-0.0", by the digit kernel above.
    An entry outside the window is run through the kernel as 2**-40, and
    its row then holds its own "%.17g" text, or "-0.0", in bytes 0-23; no
    "%.17g" text is longer than 24 characters."""
    scales, digits, ends, exponents, words, masks = _kernel_tables()
    magnitude = bits & ~NEGATIVE_ZERO
    outside = np.flatnonzero((magnitude < KERNEL_WINDOW[0]) | (magnitude >= KERNEL_WINDOW[1]))
    magnitude[outside] = KERNEL_WINDOW[0]
    m0 = magnitude & 0xFFFF_FFFF
    m1 = (magnitude >> 32) & 0xF_FFFF | 1 << 20
    # power = t - 17 = -e - 1; K(E, t) is at row + power of the table
    power = -1 - np.floor(np.log10(magnitude.view(np.float64))).astype(np.intp)
    row = ((magnitude >> 52).astype(np.intp) - (1023 - 40)) * len(KERNEL_POWERS)
    high, low = _scaled(scales, m0, m1, row + power)
    while True:
        step = (high < 10**16).astype(np.intp) - (high >= 10**17)
        fix = np.flatnonzero(step)
        if not fix.size:
            break
        power[fix] += step[fix]
        high[fix], low[fix] = _scaled(scales, m0[fix], m1[fix], row[fix] + power[fix])
    # half to even: up when the dropped part exceeds one half, or equals it
    # and high is odd
    high += (low | (high & 1)) > 1 << 63
    upper = high // 10**8
    lower = (high - upper * 10**8).astype(np.uint32)
    lead = upper // 10**8
    middle = (upper - lead * 10**8).astype(np.uint32)
    groups = (middle // 10**4, middle % 10**4, lower // 10**4, lower % 10**4)

    rows = np.empty((bits.size, KERNEL_ROW // 4), dtype=np.uint32)
    rows.view(np.uint64)[:, 0] = words[0]
    rows[:, 7] = words[1]
    for column, group in enumerate(groups, start=2):
        # mode="clip" lets take write to the strided column unbuffered; every
        # index is in range
        np.take(digits, group, out=rows[:, column], mode="clip")
    np.take(exponents, power, out=rows[:, 6], mode="clip")
    text = rows.view(np.uint8)
    text[:, 6] = lead + ord("0")
    count = functools.reduce(np.maximum, [np.take(ends[i], group) for i, group in enumerate(groups)])
    keep = np.empty((bits.size, KERNEL_ROW), dtype=bool)
    signed_layout = (bits >> 63).astype(np.intp) * 5 + np.minimum(power, 4)
    np.take(masks, signed_layout * 17 + count, axis=0, out=keep, mode="clip")
    if outside.size:
        texts = _texts(bits[outside]).astype("S24").view(np.uint8).reshape(-1, 24)
        text[outside, :24] = texts
        keep[outside, :24] = texts != 0
        keep[outside, 24:28] = False
    keep[-1, 28:30] = False
    return str(text.reshape(-1)[keep.reshape(-1)], "ascii")


def _file_chunks(header, fields, values):
    """The file of values, with a .shape and an attribute for each key of
    header and of the table fields, as an iterator of its text's chunks for
    _write_text; a non-finite entry raises here, before any chunk is read."""
    ints = [("n", values.shape.n), ("k", values.shape.k)] + [(key, getattr(values, key)) for key in header]
    parts = [["{" + ", ".join('"%s": %d' % pair for pair in ints)]]
    for key, per_party, _ in fields:
        lists = getattr(values, key) if per_party else [getattr(values, key)]
        for j, item in enumerate(lists):
            parts += [[", " if j else ', "%s": %s' % (key, "[" * per_party)], _number_chunks(item)]
        parts.append(["]" * per_party])
    parts.append(["}\n"])
    return itertools.chain.from_iterable(parts)


def _write_text(*files):
    """Write each (path, chunks) pair of files, the strings of the iterable
    chunks unchanged, as the file at path, all or nothing: the one place the
    package opens a file for writing.

    _target refuses every path before any chunk is read.  A regular file,
    new or old, is written whole to a temporary file beside it, and the
    temporary files are moved into place by os.replace, in order, only once
    every file is whole; a write that fails part way unlinks every temporary
    file, so each such path is left as it was, with no file or the old
    file's bytes.  A temporary file is created as open creates a file, so
    its mode follows the umask, and it takes an old file's permission bits.
    Any other file, such as /dev/full or a FIFO, is written in place, and
    what reached it stays."""
    targets = [_target(path) for path, _ in files]
    moves = []  # (temporary file, target) of each regular file opened so far
    try:
        for (path, chunks), (target, mode) in zip(files, targets):
            temp = target and "%s.%s.tmp" % (target, os.urandom(8).hex())
            with open(temp or path, "x" if temp else "w", newline="") as fh:
                if temp:
                    moves.append((temp, target))
                    if mode is not None:
                        os.chmod(fh.fileno(), stat.S_IMODE(mode))
                fh.writelines(chunks)
        while moves:  # a file in place leaves moves, so a failure unlinks the rest
            os.replace(*moves[0])
            del moves[0]
    except BaseException:
        for temp, _ in moves:
            os.unlink(temp)
        raise


def _target(path):
    """(target, mode) for a write to path: the regular file _write_text
    replaces, path itself or the file a symlink at path points to, and its
    st_mode, None for a new file; (None, None) when path exists and is not a
    regular file, so it is written in place.

    Raises the OSError, with its text, that open(path, "w") raises for an
    empty path, a missing parent, a directory, or a file or new file's
    folder the user may not write, and creates or changes nothing.  A rename
    needs the folder's write permission, so a file in a folder the user may
    not write is refused too."""
    path = os.fspath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        if not path:
            raise
        mode = None
    # any other error of stat, such as a parent that is a file, is open's own
    if (mode is None and path.endswith(os.sep)) or (mode is not None and stat.S_ISDIR(mode)):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if mode is not None and not stat.S_ISREG(mode):
        return None, None
    target = os.path.realpath(path)
    folder = os.path.dirname(target)
    if not os.path.isdir(folder):
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not (os.access(folder, os.W_OK | os.X_OK) and (mode is None or os.access(target, os.W_OK))):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)
    return target, mode


def _read_file(path, header, fields):
    """The scenario shape of the file at path and a dict of its other values:
    each header int, read by _integer(value, key, 1), and each row's array,
    or tuple of n arrays if per_party.

    A regular file in _file_chunks' layout is read by _read_streamed.
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
    is laid out as _file_chunks writes it, and None at the first departure,
    so that json.load decides: other whitespace or key order outside the
    number lists, a missing, extra or repeated key, a value that is not a
    plain finite number, an empty entry, a wrong count or anything but
    whitespace after the closing brace.

    The header is one anchored match of the writer's text, each int of at
    most 18 digits.  Before a row's arrays are built, its axes are checked
    against MAX_AXES and its entries, with those of the rows before it,
    against size, as each entry takes at least one byte.  Each list is then
    read by _Text.numbers into its float64 array.  Every number it takes is
    parsed by json.loads and converted by _read_numbers, once per entry or,
    in a list of few distinct spellings, once per spelling (_spellings), so
    what this returns is, bit for bit, what json.load gives for the same
    text.

    READ_BLOCK rests on load_behavior of two (5, 4) files of 524288 entries
    (2 vCPUs, Python 3.11.7, numpy 2.4.6; median of 21 runs interleaved in
    one process, three processes): at 2**14, 2**16, 2**18 and 2**20
    characters per read an all-distinct 11.0 MB file took 191-209, 183-195,
    189-199 and 193-212 ms against the whole-document reader's 188-210 ms,
    and a three-valued 7.0 MB one, read by its spellings, 46-51, 32-33,
    31-32 and 44-45 ms against 87-94 ms.  The tracemalloc peaks were 5.2,
    5.2, 6.2 and 12.1 MB (all-distinct) and 5.2, 5.2, 6.7-7.0 and 14.4-15.4
    MB (three-valued) against 28.3 and 24.3 MB, of which the float64 array
    takes 4.2 MB.
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
            axes = _axes(dims)
            budget -= lists * math.prod(axes)
            if not text.match(re.escape(', "%s": %s' % (key, "[" * per_party))):
                return None
            arrays = []
            for j in range(lists):
                arrays.append(np.empty(axes))
                if (j and not text.match(", ")) or not text.numbers(arrays[-1].reshape(-1), key):
                    return None
            if not text.match(re.escape("]" * per_party)):
                return None
            values[key] = tuple(arrays) if per_party else arrays[0]
        if not (text.match("}") and text.blank()):
            return None
    except (ValueError, RecursionError):
        # a malformed piece, undecodable bytes, an entry _read_numbers
        # refuses, nesting past the decoder's limit, or k < 2
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

    def match(self, pattern, width=None):
        """re.match of pattern, consumed if it matches, on the next width
        characters; by default len(pattern), which covers the text of a
        literal, escaped or not."""
        self.fill(len(pattern) if width is None else width)
        found = re.match(pattern, self.head)
        if found:
            self.head = self.head[found.end() :]
        return found

    def numbers(self, out, key):
        """Whether the text goes on with a JSON list of exactly out.size
        entries that _read_numbers takes for key, which are read into out
        and consumed if so; a refusal there raises InvalidBehaviorError.
        The list is taken a piece at a time, up to the last comma read so far
        or to the "]", and each piece is parsed by json.loads, which reads
        the whitespace between entries as json.load does, and passed to
        _read_numbers as a list of its own length; so a piece holds at most
        READ_BLOCK characters more than one entry, and the entry rule is the
        whole-document reader's.  A list whose first piece gives a spelling
        table (_spellings) has its pieces read by those spellings instead
        (_spelled), up to the first piece that holds any other; that piece
        and the rest of the list are parsed as above."""
        if not self.match(r"\["):
            return False
        filled, text, self.head = 0, self.head, ""
        seen = 0  # text[:seen] holds no "]" and no comma
        spellings = None  # the list's spelling table, False once it is read whole
        while True:
            close = text.find("]", seen)
            cut = close if close >= 0 else text.rfind(",", seen)
            if cut >= 0:
                piece = text[:cut]
                if spellings is None:
                    spellings = _spellings(piece, key)
                values = _spelled(spellings, piece) if spellings else None
                if values is None:
                    spellings = False
                    values = json.loads("[" + piece + "]")
                    # an empty piece is an empty entry, as in "[1, , 2]"
                    if not values:
                        return False
                    values = _read_numbers(values, key, ((len(values), 1),))
                end = filled + len(values)
                # a ValueError if out has no room for them
                out[filled:end] = values
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


def _spellings(piece, key):
    """The spelling table of a list whose first piece is piece: its
    distinct spellings, cut at the writer's ", ", each with its key
    (_token_keys) and its value, in ascending key order; or False unless
    piece holds at least READ_SAMPLE tokens of at most DEDUPLICATE_SHARE *
    READ_SAMPLE spellings.  The table is built once and never grows: a later
    piece holding any other spelling is read whole (_Text.numbers).

    A table is built only when _read_numbers takes what json.loads reads
    from the spellings joined by ", " as one entry per spelling.  No such
    spelling holds a comma, so each is one plain number with JSON whitespace
    around it, and a piece that is ", ".join of them is read by json.loads
    as their values in order.

    READ_SAMPLE rests on pieces of the three-valued full-5-4 file of
    perfbench certify's corpus (2 vCPUs, Python 3.11.7, numpy 2.4.6,
    timeit best of 7, when the table was still learned from the first
    READ_SAMPLE tokens and grown piece by piece): a first piece of 64, 128,
    256, 512, 1024 and 4096 tokens took 99, 102, 109, 122, 146 and 278 us by
    its spellings, the table included, against 22, 39, 72, 134, 291 and 982
    us parsed whole, and a later piece 33, 37, 44, 56, 78 and 201 us.  So
    the route pays from about 512 tokens in a list's first piece, and a
    piece of READ_BLOCK characters holds 2700 or more of the writer's
    tokens.
    """
    tokens = _body(piece).split(", ")
    texts = list(set(tokens))
    if len(tokens) < READ_SAMPLE or len(texts) > DEDUPLICATE_SHARE * READ_SAMPLE or not piece.isascii():
        return False
    try:
        values = _read_numbers(json.loads("[" + ", ".join(texts) + "]"), key, ((len(texts), 1),))
    except (ValueError, RecursionError):
        return False
    keys = _token_keys(", ".join(texts))
    order = np.argsort(keys)
    return keys[order], np.array(texts, dtype=object)[order], values[order]


def _spelled(spellings, piece):
    """The values of piece's tokens by the table spellings, or None when
    piece is not ", ".join of its spellings.  Each token's spelling is
    guessed from its last characters (_token_keys), and the join of the
    guesses is checked against the piece, character for character, so what
    this gives is bit for bit what json.loads and _read_numbers give for the
    piece."""
    keys, texts, values = spellings
    if not piece.isascii():
        return None
    piece = _body(piece)
    at = np.minimum(np.searchsorted(keys, _token_keys(piece)), keys.size - 1)
    return values[at] if ", ".join(texts[at].tolist()) == piece else None


def _body(piece):
    """piece without the space of the ", " before it: each piece but a
    list's first starts with one."""
    return piece[1:] if piece.startswith(" ") else piece


# masks keeping a uint64's top i bytes, i = 0..8
KEY_MASKS = np.array([(2**64 - 1) ^ (2 ** (64 - 8 * i) - 1) for i in range(9)], dtype=np.uint64)


def _token_keys(text):
    """For each token of the ASCII text, cut at ",", its last eight
    characters, or all of it when shorter, as the top bytes of a uint64 and
    zeros below them: one unaligned uint64 view of the text's bytes, read at
    each token's end."""
    raw = (" " * 8 + text).encode("ascii")
    chars = np.frombuffer(raw, dtype=np.uint8)
    ends = np.append(np.flatnonzero(chars == ord(",")), chars.size)
    # each token but the first starts two characters after a comma
    lengths = np.diff(ends, prepend=6) - 2
    words = np.ndarray((chars.size - 7,), dtype="<u8", buffer=raw, strides=(1,))
    return words[ends - 8] & KEY_MASKS[np.clip(lengths, 0, 8)]


def _axes(dims):
    """The shape with `repeat` axes of length `size` for each (size, repeat)
    in dims, a field table row's dims(n, k, ...)."""
    return sum(((size,) * repeat for size, repeat in dims), ())


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
    axes of length `size` for each (size, repeat) in dims.  The entry rule
    of both readers: _read_file passes each whole list, _Text.numbers each
    piece of one."""
    axes = sum(repeat for _, repeat in dims)
    if axes > MAX_AXES:
        # refused before a shape tuple of that length is built
        raise InvalidBehaviorError(
            f"{key} must be a list of {_count_text(dims)} numbers, got {_length_text(values)}; "
            f"a tensor with {axes} axes exceeds numpy's {MAX_AXES}"
        )
    shape = _axes(dims)
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
