"""Trace parsing: any input either parses or raises a located TraceFormatError.

Body lines go through :func:`~repro.traces.formats.parse_trace_line` and
headers through :func:`~repro.traces.formats.read_trace_meta`, for all three
formats.  Records are built mostly from values their fields accept, with odd
values mixed in: numbers that overflow to infinity (``1e400`` in an integer
field), NaN, wrong types, missing keys and JSON nested far deeper than the
recursion limit.  Whatever the input, the parser returns a record (or
``None`` for a blank line) or raises :class:`TraceFormatError`, never another
exception; a body error names its line and a header error names its file.

Task counts stay small here: a count such as ``10**12`` is well formed, and
the parser would build that many task durations.
"""

from __future__ import annotations

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.traces.formats import (
    CLUSTER_CSV,
    CLUSTER_JSONL,
    CSV_COLUMNS,
    CSV_META_PREFIX,
    DAG_JSONL,
    JSONL_META_KEY,
    TRACE_FORMATS,
    parse_trace_line,
    read_trace_meta,
)
from repro.traces.schema import TraceFormatError, TraceJob

#: Raw JSON fragments that no field accepts, or only some fields do.
_ODD_JSON = st.sampled_from([
    "1e400", "-1e400", "NaN", "Infinity", "-Infinity", "-1", "0", "2.5",
    '"x"', '""', "null", "true", "[]", "{}", '{"a": 1}', "[1, [2]]",
    "[" * 100_000 + "]" * 100_000,
])


def _json(valid):
    """Mostly a valid value's JSON text, sometimes an odd fragment."""
    return st.one_of(valid.map(json.dumps), valid.map(json.dumps), _ODD_JSON)


#: Text that a UTF-8 file can hold.
_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)
_DURATIONS = st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=4)
_SMALL = st.integers(min_value=0, max_value=5)


@st.composite
def _object(draw, fields):
    """A JSON object text with ``fields`` (name -> value strategy), some
    of them left out."""
    parts = [
        f'"{name}": {draw(value)}'
        for name, value in fields.items()
        if draw(st.integers(min_value=0, max_value=9))
    ]
    return "{" + ", ".join(parts) + "}"


@st.composite
def _array(draw, items, max_size=3):
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return draw(_ODD_JSON)
    return "[" + ", ".join(draw(st.lists(items, min_size=1, max_size=max_size))) + "]"


_JOB_FIELDS = {
    "id": _json(st.integers(min_value=0, max_value=10**6)),
    "t": _json(st.floats(min_value=0.0, max_value=1e6)),
    "p": _json(_SMALL),
    "mb": _json(st.floats(min_value=1.0, max_value=1e4)),
}

_CLUSTER_STAGE = _object({
    "m": _json(_DURATIONS),
    "r": _json(_DURATIONS),
    "s": _json(st.floats(min_value=0.0, max_value=10.0)),
    "d": _json(st.booleans()),
})

_CLUSTER_RECORD = _object(dict(_JOB_FIELDS, stages=_array(_CLUSTER_STAGE)))

_DAG_STAGE = _object({
    "n": _json(st.integers(min_value=1, max_value=6)),
    "fw": _json(_DURATIONS),
    "rw": _json(_DURATIONS),
    "r": _json(_DURATIONS),
    "s": _json(st.floats(min_value=0.0, max_value=10.0)),
    "d": _json(st.booleans()),
})

_ADJACENCY = _json(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )
)

_DAG_RECORD = _object(dict(_JOB_FIELDS, adj=_ADJACENCY, stages=_array(_DAG_STAGE)))

#: A CSV cell: a valid number for its column, or an odd token.
_CSV_ODD = st.sampled_from(["1e400", "-1e400", "nan", "inf", "", "x", "-1", "0", "1.5"])


@st.composite
def _csv_row(draw):
    valid = {
        "job_id": st.integers(min_value=0, max_value=10**6),
        "arrival_time": st.floats(min_value=0.0, max_value=1e6),
        "priority": _SMALL,
        "size_mb": st.floats(min_value=1.0, max_value=1e4),
        "num_tasks": st.integers(min_value=1, max_value=6),
        "task_time": st.floats(min_value=0.1, max_value=50.0),
        "num_reduce_tasks": _SMALL,
        "reduce_time": st.floats(min_value=0.1, max_value=50.0),
        "shuffle_time": st.floats(min_value=0.0, max_value=10.0),
    }
    cells = [
        draw(st.one_of(valid[column].map(str), valid[column].map(str), _CSV_ODD))
        for column in CSV_COLUMNS
    ]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        cells = cells[: draw(st.integers(min_value=0, max_value=len(cells)))]
    return ",".join(cells)


_LINES = {
    CLUSTER_CSV: st.one_of(_csv_row(), _TEXT),
    CLUSTER_JSONL: st.one_of(_CLUSTER_RECORD, _TEXT),
    DAG_JSONL: st.one_of(_DAG_RECORD, _TEXT),
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(TRACE_FORMATS).flatmap(
        lambda fmt: st.tuples(st.just(fmt), _LINES[fmt])
    ),
    st.integers(min_value=2, max_value=10**6),
)
def test_a_body_line_parses_or_raises_an_error_naming_its_line(case, lineno):
    fmt, line = case
    try:
        job = parse_trace_line(fmt, 2, lineno, line)
    except TraceFormatError as err:
        assert str(err).startswith(f"line {lineno}: ")
    else:
        assert job is None or isinstance(job, TraceJob)


_HEADER = _object({
    "format": _json(st.sampled_from(TRACE_FORMATS + ("tsv",))),
    "version": _json(st.integers(min_value=1, max_value=3)),
    "jobs": _json(st.integers(min_value=0, max_value=100)),
    "wave": _json(st.integers(min_value=1, max_value=30)),
    "classes": _json(st.dictionaries(
        _SMALL.map(str),
        st.dictionaries(st.sampled_from(["share", "mean_size_mb"]),
                        st.floats(min_value=0.0, max_value=1.0)),
        max_size=2,
    )),
    "generator": _json(st.text(max_size=5)),
})


@st.composite
def _header_file(draw):
    """The first line(s) of a trace file: a JSONL header, a CSV metadata
    line plus the column header, a bare CSV column header, or noise."""
    header = draw(_HEADER)
    kind = draw(st.sampled_from(["jsonl", "csv", "bare-csv", "noise"]))
    columns = ",".join(CSV_COLUMNS)
    if kind == "jsonl":
        return draw(st.sampled_from([f'{{"{JSONL_META_KEY}": {header}}}', header]))
    if kind == "csv":
        return f"{CSV_META_PREFIX}{header}\n{columns}"
    if kind == "bare-csv":
        return columns
    return draw(st.one_of(_TEXT, _ODD_JSON))


@settings(max_examples=200, deadline=None)
@given(_header_file(), st.sampled_from((None,) + TRACE_FORMATS))
def test_a_header_parses_or_raises_an_error_naming_its_file(text, declared):
    handle, path = tempfile.mkstemp(suffix=".trace")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            out.write(text + "\n")
        try:
            read_trace_meta(path, declared)
        except TraceFormatError as err:
            assert str(err).startswith(f"{path}: ")
    finally:
        os.unlink(path)
