"""The two paths of the file reader, called one at a time, for tests that
compare them: codec._read_streamed, which reads a file in the writer's
exact layout a block at a time, and the whole-document json.load path that
codec._read_file takes for every file the streamed reader declines."""
import os

import numpy as np
import pytest

from jointcert import codec
from jointcert.behavior import BEHAVIOR_FIELDS, InvalidBehaviorError
from jointcert.classical import STRATEGY_FIELDS, STRATEGY_HEADER

# (header, fields) of each file format
BEHAVIOR_FORMAT = ((), BEHAVIOR_FIELDS)
STRATEGY_FORMAT = (STRATEGY_HEADER, STRATEGY_FIELDS)


def streamed_read(path, header, fields):
    """The streamed reader's result on the file at path, None if it declines."""
    with open(path) as fh:
        return codec._read_streamed(fh, os.fstat(fh.fileno()).st_size, header, fields)


def whole_document_read(path, header, fields):
    """_read_file's result with the streamed reader declining every file, or
    the InvalidBehaviorError it raises."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_read_streamed", lambda *args: None)
        try:
            return codec._read_file(path, header, fields)
        except InvalidBehaviorError as exc:
            return exc


def assert_same_read(got, want):
    """got and want, two (shape, values) reads, hold the same shape, the same
    header ints and bit-identical float64 arrays."""
    assert not isinstance(want, Exception), want
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys()
    for key, value in want[1].items():
        if isinstance(value, int):
            assert type(got[1][key]) is int and got[1][key] == value, key
            continue
        arrays = value if isinstance(value, tuple) else (value,)
        got_arrays = got[1][key] if isinstance(value, tuple) else (got[1][key],)
        assert len(got_arrays) == len(arrays), key
        for a, b in zip(got_arrays, arrays):
            assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, key
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), key


def readers_agree(path, header, fields):
    """Whether the streamed reader reads the file at path; when it does, the
    whole-document reader must read the same values from it."""
    streamed = streamed_read(path, header, fields)
    if streamed is not None:
        assert_same_read(streamed, whole_document_read(path, header, fields))
    return streamed is not None
