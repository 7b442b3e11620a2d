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

import numpy as np

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
        return json.loads(Path(path).read_text(encoding="utf-8"))
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
    this format: two-space indent, sorted keys and a final newline, byte for
    byte what ``json.dumps`` gives with an indent of 2 and sorted keys.
    ``json`` encodes in C only when it does not indent, so the document is
    encoded compactly and :func:`_indented` adds the indentation.  A document
    that cannot be encoded raises before any file is opened.
    """
    text = json.dumps(document, sort_keys=True, separators=(",", ": "))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as file:
        for part in _indented(text):
            file.write(part)
        file.write(b"\n")


# ``[``/``{`` and ``]``/``}`` differ only in the 0x20 bit, which _indented sets
_OPENER, _CLOSER = ord("{"), ord("}")
_QUOTE, _COMMA = ord('"'), ord(",")
# characters of text that one pass of _indented takes; bounds its arrays
_SLICE_CHARS = 1 << 16


def _indented(text: str):
    """Yield the bytes of ``text``, compact ASCII JSON, indented by two spaces a level.

    A newline and the indent of the level go after a non-empty ``[``/``{`` and
    after each ``,``, and before a non-empty ``]``/``}``, where ``json.dumps``
    places them when it indents by 2.  Characters inside strings are left
    alone.  Each backslash the encoder writes starts an escape, and only the
    escapes ``\\\\`` and ``\\"`` hold a second backslash or a quote.  So
    escapes are masked: in a copy of the text with those two pairs replaced
    by two NULs, every quote opens or closes a string.  Positions are found
    in that copy, and the text's own bytes are written.  The text is taken
    in slices of about ``_SLICE_CHARS``; a slice never ends right after
    ``[`` or ``{``, so an empty container lies within one slice.  The depth
    and whether a string is open carry over.
    """
    masked = text
    if "\\" in text:
        masked = text.replace("\\\\", "\0\0").replace('\\"', "\0\0")
    depth = 0
    in_string = 0
    start = 0
    while start < len(text):
        end = min(start + _SLICE_CHARS, len(text))
        while end < len(text) and text[end - 1] in "[{":
            end += 1
        chars = np.frombuffer(text[start:end].encode("ascii"), np.uint8)
        scan = chars if masked is text else np.frombuffer(masked[start:end].encode(), np.uint8)
        start = end
        folded = scan | 0x20
        at = np.flatnonzero(
            (folded == _OPENER) | (folded == _CLOSER) | (scan == _COMMA) | (scan == _QUOTE)
        )
        kind = scan[at]
        quote = kind == _QUOTE
        inside = (np.cumsum(quote) + in_string) & 1
        if inside.size:
            in_string = int(inside[-1])
        structural = (kind != _QUOTE) & (inside == 0)
        at, kind = at[structural], kind[structural]
        folded = kind | 0x20
        step = (folded == _OPENER).astype(np.int64) - (folded == _CLOSER)
        level = np.cumsum(step) + depth
        if level.size:
            depth = int(level[-1])
        # an opener right before its closer is an empty container: no breaks
        empty = (step[:-1] == 1) & (step[1:] == -1)
        empty &= at[1:] == at[:-1] + 1
        keep = np.ones(at.size, bool)
        keep[:-1] &= ~empty
        keep[1:] &= ~empty
        # a break goes after an opener or comma, before a closer
        where = (at + (step >= 0))[keep]
        if not where.size:
            yield chars
            continue
        width = 1 + 2 * level[keep]
        # the output alternates runs of text and of breaks: text up to the
        # first break, the break, text up to the next break, ...
        runs = np.empty(2 * where.size + 1, np.int64)
        runs[0] = where[0]
        runs[2:-1:2] = where[1:] - where[:-1]
        runs[-1] = chars.size - where[-1]
        runs[1::2] = width
        is_text = np.zeros(runs.size, bool)
        is_text[0::2] = True
        out = np.full(chars.size + int(width.sum()), ord(" "), np.uint8)
        out[np.repeat(is_text, runs)] = chars
        out[where + np.cumsum(width) - width] = ord("\n")
        yield out


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
