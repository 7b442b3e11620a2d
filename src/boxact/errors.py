"""Exception hierarchy shared across the package."""

from __future__ import annotations

import json
from numbers import Integral
from pathlib import Path

__all__ = [
    "BoxactError",
    "AnnotationError",
    "ConfigError",
    "ContractError",
    "check_int",
    "read_json",
]


class BoxactError(Exception):
    """Base class for all errors raised by boxact."""


class AnnotationError(BoxactError):
    """An annotation file is malformed or a track invariant is violated."""


class ConfigError(BoxactError):
    """A configuration file is inconsistent or references unknown features."""


class ContractError(BoxactError):
    """Caller passed inputs that violate an operation contract."""


def read_json(path: str | Path, error_cls: type[BoxactError]):
    """Parse a JSON file.

    Text that is not UTF-8, not JSON or nested past the parser's limit raises
    ``error_cls`` naming the file.
    """
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise error_cls(f"{path}: not valid JSON: {exc}") from None


def check_int(name: str, value, minimum: int) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an integer >= ``minimum``.

    A bool is not an integer here, although Python treats it as one.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
