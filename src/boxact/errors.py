"""Exception hierarchy shared across the package."""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["BoxactError", "AnnotationError", "ConfigError", "ContractError", "read_json"]


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
