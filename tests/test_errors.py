"""The shared rules for JSON files: the scalar checks and the artifact envelope."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from boxact.errors import ConfigError, check_finite, check_int, check_str, write_artifact

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
