"""Property tests of the input contract: the parser and the CLI on any
JSON-like input."""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from logchern import Arrangement, InputError, parse_arrangement
from logchern.cli import SCHEMA, JobConfig, render, run

_scalars = (st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=6))

json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16)

_small_int = st.integers(-3, 3)


def _rarely(draw, valid, junk):
    """Draw from ``valid``, and about one time in eight from ``junk``."""
    return draw(junk if draw(st.integers(0, 7)) == 0 else valid)


@st.composite
def arrangement_like(draw):
    """Mostly well-formed arrangement documents, a few fields perturbed."""
    l = _rarely(draw, st.integers(1, 4), st.integers(-1, 0) | json_values)
    width = l if type(l) is int and 0 <= l <= 4 else draw(st.integers(0, 4))
    row = st.lists(_small_int, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=6))
    doc = {"l": l, "hyperplanes": [_rarely(draw, st.just(r), json_values)
                                   for r in rows]}
    n = len(doc["hyperplanes"])
    if draw(st.integers(0, 2)) == 0:
        doc["constants"] = _rarely(draw, st.lists(
            _small_int | st.fractions(max_denominator=3).map(str),
            min_size=n, max_size=n), json_values)
    if draw(st.integers(0, 3)) == 0:
        doc["labels"] = _rarely(draw, st.lists(
            st.text(max_size=3), min_size=n, max_size=n), json_values)
    if draw(st.integers(0, 9)) == 0:
        doc.pop(draw(st.sampled_from(sorted(doc))))
    return doc


REPORT_KEYS = {"schema", "command", "flags", "arrangement", "result",
               "engine"}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=json_values | arrangement_like())
def test_parse_arrangement_returns_or_raises_input_error(value):
    if isinstance(value, str):
        value = json.dumps(value)  # a bare string would name a file
    try:
        arr = parse_arrangement(value)
    except InputError:
        return
    assert isinstance(arr, Arrangement)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=arrangement_like() | json_values,
       command=st.sampled_from(["lattice", "csm"]))
def test_cli_run_always_reports(doc, command):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        report, code = run(JobConfig(command, path, fmt="json"))
    finally:
        os.unlink(path)
    assert code in (0, 1, 2, 3)
    printed = json.loads(render(report, "json"))
    assert printed["schema"] == SCHEMA
    assert printed["command"] == command
    expected = REPORT_KEYS | ({"error"} if code else set())
    assert set(printed) == expected
    if code:
        assert printed["error"]["type"] in ("input", "hypothesis", "engine",
                                            "budget")
        assert printed["result"] is None
    else:
        assert printed["result"] is not None
