"""Report serialization: the one-pass matrix writer of ``dump_json`` against
the recursive rule it replaces, and ``_matrix_rows`` against its loop."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectkit import cli
from effectkit.cli import doc_to_matrix, dump_json, main, matrix_to_doc
from effectkit.suites import _matrix_rows

# ---------------------------------------------------------------------------
# reference: the recursive serializer, entry by entry


def _reference_format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def reference_dump_json(obj, level: int = 0) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {reference_dump_json(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [f"{inner}{reference_dump_json(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def reference_matrix_rows(M) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def _outcome(dump, obj, level):
    """The text, or the message of the ValueError raised."""
    try:
        return "ok", dump(obj, level)
    except ValueError as exc:
        return "error", str(exc)


# ---------------------------------------------------------------------------
# strategies

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, 1.0, -3.0, 2.0**53, 1e16, 1e-7,
]
finite = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def pair_matrices(draw, values=finite):
    """Square or rectangular lists of equal-length rows of [float, float]."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 5)))
    return [[[draw(values), draw(values)] for _ in range(cols)] for _ in range(rows)]


def _nested(value, wrappers: list[int]):
    """``value`` inside containers, outermost last: a dict, a lone list, a
    list after a float, or a dict beside an empty list and a None."""
    for kind in wrappers:
        value = [
            {"inputs": value},
            [value],
            [0.5, value],
            {"A": value, "B": [], "c": None},
        ][kind]
    return value


wrappers = st.lists(st.integers(0, 3), max_size=6)
levels = st.integers(0, 6)


def _spoiled(draw, matrix):
    """``matrix`` with one change that takes it off the one-pass writer."""
    i = draw(st.integers(0, len(matrix) - 1))
    j = draw(st.integers(0, len(matrix[0]) - 1))
    part = draw(st.integers(0, 1))
    kind = draw(st.sampled_from(
        ["ragged-short", "ragged-long", "empty-row", "row-tuple", "entry-tuple", "int", "bool",
         "np.float64", "triple"]
    ))
    entry = matrix[i][j]
    if kind == "ragged-short":
        del matrix[i][j]
    elif kind == "ragged-long":
        matrix[i].append(list(entry))
    elif kind == "empty-row":
        matrix[i] = []
    elif kind == "row-tuple":
        matrix[i] = tuple(matrix[i])
    elif kind == "entry-tuple":
        matrix[i][j] = tuple(entry)
    elif kind == "int":
        entry[part] = draw(st.integers(-(2**70), 2**70))
    elif kind == "bool":
        entry[part] = draw(st.booleans())
    elif kind == "np.float64":
        entry[part] = np.float64(entry[part])
    else:
        entry.append(0.25)
    return matrix


@st.composite
def fallback_matrices(draw):
    return _spoiled(draw, draw(pair_matrices()))


@st.composite
def non_finite_matrices(draw):
    """A pair matrix with one to three nan, inf or -inf entries."""
    matrix = draw(pair_matrices())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(matrix) - 1))
        j = draw(st.integers(0, len(matrix[0]) - 1))
        matrix[i][j][draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return matrix


# ---------------------------------------------------------------------------
# dump_json against the recursive rule


@settings(max_examples=150, deadline=None)
@given(matrix=pair_matrices(), wrap=wrappers, level=levels)
def test_pair_matrices_match_recursive_rule(matrix, wrap, level):
    obj = _nested(matrix, wrap)
    assert dump_json(obj, level) == reference_dump_json(obj, level)


@settings(max_examples=150, deadline=None)
@given(matrix=fallback_matrices(), wrap=wrappers, level=levels)
def test_other_shapes_match_recursive_rule(matrix, wrap, level):
    obj = _nested(matrix, wrap)
    assert _outcome(dump_json, obj, level) == _outcome(reference_dump_json, obj, level)


@settings(max_examples=100, deadline=None)
@given(matrix=non_finite_matrices(), wrap=wrappers, level=levels)
def test_non_finite_entries_raise_as_recursive_rule(matrix, wrap, level):
    obj = _nested(matrix, wrap)
    with pytest.raises(ValueError) as new:
        dump_json(obj, level)
    with pytest.raises(ValueError) as old:
        reference_dump_json(obj, level)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize(
    "obj",
    [[[]], [[], []], [[[0.5, 1.0]], []], [[(0.5, 1.0)]], ([[0.5, 1.0]],), [[[1, 2]]], [[[True, 0.5]]],
     [[[np.float64(0.1), 0.5]]], [[[0.5]]], [[0.5, 1.0]], [[[[0.5, 1.0]]]], [[[-0.0, 5e-324]]]],
)
def test_edge_shapes_match_recursive_rule(obj):
    for level in range(7):
        assert dump_json(obj, level) == reference_dump_json(obj, level)


def test_first_non_finite_in_row_major_order_names_the_error():
    matrix = [[[0.5, 0.5], [0.5, -math.inf]], [[math.nan, 0.5], [0.5, math.inf]]]
    with pytest.raises(ValueError, match=r"non-finite number -inf"):
        dump_json({"rows": matrix})
    matrix[0][1][1] = 0.5
    with pytest.raises(ValueError, match=r"non-finite number nan"):
        dump_json({"rows": matrix})


# ---------------------------------------------------------------------------
# _matrix_rows against the loop over entries


def _matrices():
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    Z[0, 0] = complex(-0.0, -0.0)
    Z[1, 2] = complex(5e-324, -1.7976931348623157e308)
    R = rng.standard_normal((4, 3))
    R[0, 1] = -0.0
    return {
        "C-ordered": Z,
        "Fortran-ordered": np.asfortranarray(Z),
        "transposed": Z.T,
        "strided": Z[::2, 1::2],
        "real": R,
        "real-transposed": R.T,
        "complex64": Z[2:].astype(np.complex64),
        "int": np.arange(6).reshape(2, 3),
    }


@pytest.mark.parametrize("kind", list(_matrices()))
def test_matrix_rows_equal_the_entry_loop(kind):
    M = _matrices()[kind]
    rows = _matrix_rows(M)
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(rows) == repr(reference_matrix_rows(M))
    assert {type(x) for row in rows for entry in row for x in entry} == {float}


def test_matrix_doc_still_plain_json():
    M = _matrices()["C-ordered"]
    doc = matrix_to_doc(M)
    text = json.dumps(doc)
    assert np.array_equal(doc_to_matrix(json.loads(text)), M)
    assert dump_json(doc) == reference_dump_json(doc)


# ---------------------------------------------------------------------------
# the one-pass writer stays in use for large reports


def _count_calls(monkeypatch):
    calls = []
    real = cli.dump_json

    def counting(obj, level=0):
        calls.append(1)
        return real(obj, level)

    monkeypatch.setattr(cli, "dump_json", counting)
    return calls


def _matrix_count(obj) -> int:
    if isinstance(obj, dict):
        return sum(_matrix_count(v) for v in obj.values())
    if isinstance(obj, list):
        if obj and isinstance(obj[0], list) and obj[0] and isinstance(obj[0][0], list):
            return 1
        return sum(_matrix_count(v) for v in obj)
    return 0


def test_large_counterexamples_take_the_one_pass_writer(monkeypatch, capsys):
    """A 64 x 64 counterexample is written by O(1) calls, not one per entry:
    the recursive rule would take 3 * 64 * 64 + 65 calls for each."""
    calls = _count_calls(monkeypatch)
    code = main(["verify", "--suite", "sequential", "--dims", "64", "--p=0.5", "--trials", "2", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    matrices = _matrix_count(report)
    assert matrices >= 2
    assert len(calls) <= 60 + 2 * matrices


def test_verify_json_file_holds_the_printed_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--dims", "64", "--p", "0.5", "--suite", "ortho", "--trials", "2",
                 "--seed", "3", "--json", str(path)])
    printed = capsys.readouterr().out
    assert code == 0
    assert path.read_bytes() == printed.encode("utf-8")
    assert '"counterexample": {\n' in printed
