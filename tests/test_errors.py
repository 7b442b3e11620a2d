"""The shared rules for JSON files: the scalar checks, the artifact envelope and the text format."""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxact import errors
from boxact.errors import (
    ConfigError,
    check_finite,
    check_int,
    check_str,
    write_artifact,
    write_json,
)

HUGE = 10**400  # a JSON integer too large for a float


class Rejects(str):
    """The message of the ConfigError a check raises."""


# value, then what check_int("n", value, 0), check_finite("x", value) and
# check_str("s", value) each return or raise
SCALARS = [
    (
        True,
        Rejects("n must be an integer, got True"),
        Rejects("x must be a finite number, got True"),
        Rejects("s must be a string, got True"),
    ),
    (
        "1",
        Rejects("n must be an integer, got '1'"),
        Rejects("x must be a finite number, got '1'"),
        "1",
    ),
    (
        math.nan,
        Rejects("n must be an integer, got nan"),
        Rejects("x must be a finite number, got nan"),
        Rejects("s must be a string, got nan"),
    ),
    (
        math.inf,
        Rejects("n must be an integer, got inf"),
        Rejects("x must be a finite number, got inf"),
        Rejects("s must be a string, got inf"),
    ),
    (
        -math.inf,
        Rejects("n must be an integer, got -inf"),
        Rejects("x must be a finite number, got -inf"),
        Rejects("s must be a string, got -inf"),
    ),
    (
        HUGE,
        HUGE,
        Rejects(f"x must be a finite number, got {HUGE}"),
        Rejects(f"s must be a string, got {HUGE}"),
    ),
    (
        -HUGE,
        Rejects(f"n must be at least 0, got {-HUGE}"),
        Rejects(f"x must be a finite number, got {-HUGE}"),
        Rejects(f"s must be a string, got {-HUGE}"),
    ),
    (
        np.float64(0.5),
        Rejects(f"n must be an integer, got {np.float64(0.5)!r}"),
        0.5,
        Rejects(f"s must be a string, got {np.float64(0.5)!r}"),
    ),
    (
        np.int64(3),
        3,
        3.0,
        Rejects(f"s must be a string, got {np.int64(3)!r}"),
    ),
]


@pytest.mark.parametrize(
    "value, as_int, as_float, as_str", SCALARS, ids=[repr(row[0])[:12] for row in SCALARS]
)
def test_scalar_checks(value, as_int, as_float, as_str):
    for check, expected, kind in (
        (lambda v: check_int("n", v, 0), as_int, int),
        (lambda v: check_finite("x", v), as_float, float),
        (lambda v: check_str("s", v), as_str, str),
    ):
        if isinstance(expected, Rejects):
            with pytest.raises(ConfigError) as exc:
                check(value)
            assert str(exc.value) == expected
        else:
            got = check(value)
            # a numpy scalar comes back as the plain Python type, which JSON can write
            assert got == expected and type(got) is kind


def test_check_int_without_minimum_takes_any_integer():
    assert check_int("n", -HUGE, None) == -HUGE
    assert check_int("n", np.int64(-3), None) == -3
    with pytest.raises(ConfigError, match="n must be an integer, got True"):
        check_int("n", True, None)


def test_write_artifact_sets_the_envelope(tmp_path):
    path = tmp_path / "out" / "a.json"
    write_artifact(path, "boxact-test", rows=[1])
    assert json.loads(path.read_text()) == {"format": "boxact-test", "version": 1, "rows": [1]}
    write_artifact(path, "boxact-test", {"stage": "x"}, rows=[1])
    assert path.read_text() == (
        '{\n  "format": "boxact-test",\n  "provenance": {\n    "stage": "x"\n  },\n'
        '  "rows": [\n    1\n  ],\n  "version": 1\n}\n'
    )


# characters that the indentation pass must tell apart inside and outside strings
_TRICKY = st.sampled_from(list('"\\[]{},: ') + ["\\\"", "é", "\u2603", "\U0001f600", "\n", "\x00"])
_TEXT = st.lists(_TRICKY | st.characters(), max_size=12).map("".join)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([HUGE, -HUGE, 2**63, -(2**63) - 1])
    | st.floats()
    | st.floats().map(np.float64)
    | _TEXT
)
DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(_TEXT, inner, max_size=5)
    | st.dictionaries(st.integers() | st.floats(allow_nan=False), inner, max_size=3),
    max_leaves=40,
)


@pytest.mark.parametrize("slice_chars", [1, 7, errors._SLICE_CHARS])
@settings(max_examples=100, deadline=None)
@given(document=DOCUMENTS)
def test_write_json_writes_the_bytes_of_json_indent_2(tmp_path_factory, slice_chars, document):
    # small slices put cuts inside strings, escapes and runs of brackets
    path = tmp_path_factory.getbasetemp() / f"doc-{slice_chars}.json"
    with mock.patch.object(errors, "_SLICE_CHARS", slice_chars):
        write_json(path, document)
    expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("slice_chars", [1, 2, 3, errors._SLICE_CHARS])
def test_write_json_on_escape_and_bracket_runs(tmp_path, slice_chars):
    document = {
        "\\" * 5 + '"': ["\\" * n + '"' + "[{" * n for n in range(6)],
        "[]": [[], {}, [[]], [{}], {"": {"": []}}, "[]{},"],
        "\\": "\\",
    }
    with mock.patch.object(errors, "_SLICE_CHARS", slice_chars):
        write_json(tmp_path / "a.json", document)
    expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "a.json").read_text(encoding="ascii") == expected


def _circular() -> list:
    loop: list = [1]
    loop.append(loop)
    return loop


@pytest.mark.parametrize(
    "document", [{"a": {1, 2}}, _circular(), {"a": 1, 2: "mixed keys"}], ids=["set", "loop", "keys"]
)
def test_write_json_leaves_no_file_for_a_document_json_cannot_encode(tmp_path, document):
    with pytest.raises((TypeError, ValueError)) as expected:
        json.dumps(document, indent=2, sort_keys=True)
    path = tmp_path / "out" / "a.json"
    with pytest.raises(type(expected.value)) as got:
        write_json(path, document)
    assert str(got.value) == str(expected.value)
    assert not path.exists()
