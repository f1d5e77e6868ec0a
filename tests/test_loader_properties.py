"""Arbitrary JSON documents fed to the file readers.

Each document either loads or raises InvalidBehaviorError, and `certify` on
it exits 0, 2 or 10: an error line on 2, a JSON report otherwise, never a
traceback.  Whenever the streamed reader reads a document, the
whole-document reader reads the same values from it, bit for bit.
"""
import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from jointcert import codec
from jointcert.behavior import (
    BehaviorTensor,
    InvalidBehaviorError,
    ScenarioShape,
    load_behavior,
    save_behavior,
    validate_behavior,
)
from jointcert.classical import (
    ClassicalStrategy,
    load_strategy,
    saturation_strategy,
    save_strategy,
    validate_strategy,
)
from jointcert.cli import EXIT_INVALID, EXIT_OK, EXIT_VIOLATED, main
from jointcert.quantum import closed_form_behavior
from read_paths import BEHAVIOR_FORMAT, STRATEGY_FORMAT, readers_agree

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 70)
    | st.sampled_from([10**9, 10**40, -(10**30), 10**400])  # 10**400 overflows float
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["n", "k", "probabilities", "hidden_alphabet", "output_tables", "hidden_dists", "charlie_table", "x"]
        ),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docs") / "doc.json"


@pytest.fixture(scope="module")
def saved_texts(doc_path):
    behaviors = [
        BehaviorTensor.uniform(ScenarioShape(1, 2)),
        BehaviorTensor.uniform(ScenarioShape(2, 3)),
        closed_form_behavior(0.8),  # violated, so certify exits 10
    ]
    texts = []
    for behavior in behaviors:
        save_behavior(behavior, doc_path)
        texts.append(doc_path.read_text())
    # strategies at one, two and three parties, so that every row of
    # STRATEGY_FIELDS is read with one and with several lists per party
    strategies = [
        ClassicalStrategy(ScenarioShape(1, 2), 2, [np.full((2, 2), 0.5)], [np.full(2, 0.5)], np.full((2, 2, 2), 0.25)),
        saturation_strategy(0.3),
        ClassicalStrategy(
            ScenarioShape(3, 2), 2, [np.eye(2)] * 3, [np.array([0.25, 0.75])] * 3, np.full((2,) * 5, 0.25)
        ),
    ]
    for strategy in strategies:
        save_strategy(strategy, doc_path)
        texts.append(doc_path.read_text())
    return texts


@pytest.fixture(scope="module")
def saved_docs(saved_texts):
    return [json.loads(text) for text in saved_texts]


@st.composite
def mutated(draw, docs):
    """A valid file's document with up to three entries replaced by arbitrary
    JSON, deleted, or joined by an extra one, at any depth."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.integers(0, 3)):
                node = node[key]
                continue
            action = draw(st.sampled_from(["replace", "delete", "append"]))
            if action == "replace":
                node[key] = draw(json_values)
            elif action == "delete":
                del node[key]
            elif isinstance(node, list):
                node.append(draw(json_values))
            else:
                node[draw(st.text(max_size=3))] = draw(json_values)
            break
    return doc


@st.composite
def near_valid_behaviors(draw):
    """{n, k, probabilities} with mostly valid sizes, the entry count off by
    at most one, and up to two entries swapped for arbitrary scalars."""
    n = draw(st.integers(1, 3) | scalars)
    k = draw(st.integers(2, 3) | scalars)
    small = all(type(v) is int and 1 <= v <= 3 for v in (n, k)) and k >= 2
    count = k**n * 2 ** (n + k) if small else draw(st.integers(0, 64))
    count = max(0, count + draw(st.sampled_from([0, 0, 0, -1, 1])))
    probabilities = [1.0 / 2 ** (n + k) if small else 0.5] * count
    for _ in range(draw(st.integers(0, 2))):
        if probabilities:
            probabilities[draw(st.integers(0, count - 1))] = draw(scalars)
    return {"n": n, "k": k, "probabilities": probabilities}


# what the text mutations insert or put in place of one character
TEXT_EDITS = [",", "]", "[", "-", ".", "e", '"a"', "NaN", "}", " ", "\n", "\t"]


@st.composite
def mutated_texts(draw, texts):
    """A saved file's text with up to three characters deleted, replaced by
    an edit from TEXT_EDITS, or joined by one, at any offset."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(["insert", "delete", "replace"]))
        edit = "" if action == "delete" else draw(st.sampled_from(TEXT_EDITS))
        text = text[:at] + edit + text[at + (action != "insert") :]
    return text


def _check_text(path, text):
    path.write_text(text)
    for name, file_format in [("behavior", BEHAVIOR_FORMAT), ("strategy", STRATEGY_FORMAT)]:
        if readers_agree(path, *file_format):
            event(f"streamed as a {name} file")
    for load, validate in [
        (load_behavior, validate_behavior),
        (lambda p: load_behavior(p, strict=True), validate_behavior),
        (load_strategy, validate_strategy),
    ]:
        try:
            loaded = load(path)
        except InvalidBehaviorError:
            continue
        assert isinstance(validate(loaded), list)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["certify", str(path)])
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_VIOLATED)
    if code == EXIT_INVALID:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        # a verdict is only ever given on finite numbers
        assert math.isfinite(json.loads(out.getvalue())["statistic"])


def _check_document(path, doc):
    # json.dumps writes the writer's separators, so a document in the
    # writer's key order reaches the streamed reader
    _check_text(path, json.dumps(doc))


@settings(max_examples=100, deadline=None)
@given(doc=json_values)
def test_arbitrary_json_loads_or_is_refused(doc_path, doc):
    _check_document(doc_path, doc)


@settings(max_examples=200, deadline=None)
@given(doc=near_valid_behaviors())
def test_near_valid_behaviors_load_or_are_refused(doc_path, doc):
    _check_document(doc_path, doc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_files_load_or_are_refused(doc_path, saved_docs, data):
    _check_document(doc_path, data.draw(mutated(saved_docs)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_file_texts_read_alike_on_both_paths(doc_path, saved_texts, data):
    # small reads cut the lists into pieces at the edits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "READ_BLOCK", data.draw(st.sampled_from([1, 7, codec.READ_BLOCK])))
        _check_text(doc_path, data.draw(mutated_texts(saved_texts)))
