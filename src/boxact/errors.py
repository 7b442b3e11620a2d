"""Exception hierarchy, and the rules that boxact's JSON readers and writers share.

Those are the version-1 artifact envelope, the JSON text format, the checks
of a scalar field read from a file: a number is a JSON int or float, never
``true``/``false`` or a string, and finite (an integer too large for a float
is not), and :func:`prefixed`, which names where an error came from.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from numbers import Integral, Real
from pathlib import Path

__all__ = [
    "BoxactError",
    "AnnotationError",
    "ConfigError",
    "ContractError",
    "all_instances",
    "check_finite",
    "check_int",
    "check_str",
    "prefixed",
    "read_artifact",
    "read_json",
    "write_artifact",
    "write_json",
]


class BoxactError(Exception):
    """Base class for all errors raised by boxact."""


class AnnotationError(BoxactError):
    """An annotation file is malformed or a track invariant is violated."""


class ConfigError(BoxactError):
    """A configuration file is inconsistent or references unknown features."""


class ContractError(BoxactError):
    """Caller passed inputs that violate an operation contract."""


@contextmanager
def prefixed(where: object):
    """Prefix ``where: `` to a :class:`BoxactError` raised in the block, keeping its type."""
    try:
        yield
    except BoxactError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def read_json(path: str | Path, error_cls: type[BoxactError]):
    """Parse a JSON file.

    Text that is not UTF-8, not JSON or nested past the parser's limit raises
    ``error_cls`` naming the file.
    """
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise error_cls(f"{path}: not valid JSON: {exc}") from None


def read_artifact(path: str | Path, fmt: str, what: str, error_cls: type[BoxactError]) -> dict:
    """Read a version-1 JSON artifact; raise ``error_cls`` naming the file otherwise.

    ``what`` names the artifact in the error for a document of another format.
    """
    doc = read_json(path, error_cls)
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise error_cls(f"{path}: not {what}")
    version = doc.get("version")
    if isinstance(version, bool) or version != 1:  # JSON true is not version 1
        raise error_cls(
            f"{path}: unsupported {fmt} version {version!r} (this boxact reads version 1)"
        )
    return doc


def write_artifact(path: str | Path, fmt: str, provenance=None, **body) -> None:
    """Write a version-1 artifact: ``format``, ``version``, ``provenance`` if given, ``body``."""
    doc = {"format": fmt, "version": 1, **body}
    if provenance is not None:
        doc["provenance"] = dict(provenance)
    write_json(path, doc)


def write_json(path: str | Path, document) -> None:
    """Write ``document`` as a JSON artifact, creating the parent directory.

    Every JSON file boxact writes, except the compact forest files, has
    this format: two-space indent, sorted keys and a final newline.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def all_instances(values, kind: type | tuple[type, ...], exclude: type | tuple = ()) -> bool:
    """Whether every value is a ``kind`` and no ``exclude``, checked once per distinct type.

    ``issubclass`` keeps the rule of ``isinstance``: a float subclass such as
    ``np.float64`` is a float, and a bool is an int that ``exclude`` can bar.
    """
    return all(issubclass(t, kind) and not issubclass(t, exclude) for t in set(map(type, values)))


def check_int(name: str, value, minimum: int | None) -> int:
    """Return ``value`` as an ``int``; raise :class:`ConfigError` unless it is an integer >= ``minimum``.

    With ``minimum=None`` any integer passes.  A bool is not an integer here,
    although Python treats it as one.  A numpy integer passes and comes back as
    a plain ``int``, which JSON can write.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_finite(name: str, value) -> float:
    """Return ``value`` as a float; raise :class:`ConfigError` unless it is a finite number.

    A bool is not a number here, and neither are JSON's ``NaN`` and ``Infinity``
    or an integer too large for a float.
    """
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def check_str(name: str, value) -> str:
    """Return ``value``; raise :class:`ConfigError` unless it is a string."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value
