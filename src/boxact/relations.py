"""Relational features between the two object boxes and the hand.

:data:`FEATURES` is the catalogue of the 15 features: each one's kind (real
or boolean), the argument role tuples it takes, in column order, and whether
it is symmetric.  The 55 keys of :func:`relation_keys`, their :data:`COLUMN`,
the booleans, :data:`SWAP` and the argument rule of :func:`feature_key` all
derive from it.  Offsets compare each annotated frame against the previous
annotated frame, whatever the gap in frame indices between the two; the first
frame of a track, and any frame where an entity was absent in the previous
frame, yield a zero offset.

:func:`relation_table` computes the features for every frame of a sequence
of tracks in one pass over their frames laid end to end: a float64 table,
one row per frame, whose columns follow :func:`relation_keys`, booleans
stored as 0.0/1.0.  Offsets reset at each track's first frame, so the table
is the per-track tables stacked.  Exchanging the two objects only permutes
columns, so the table of the object-swapped track is ``table[:, SWAP]``.
The table can be restricted to the columns a caller reads: the others stay
0.0, and the intermediates that only they need are never built.

All thresholds live in :class:`RelationConfig` so they can be overridden from
configuration files; the 0.1 overlap normaliser is a named constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, check_finite
from .tracks import ROLES, VideoTrack

__all__ = [
    "OVERLAP_NORMALISER",
    "RelationConfig",
    "Feature",
    "FEATURES",
    "BOOLEAN_FEATURES",
    "relation_keys",
    "relation_table",
    "COLUMN",
    "SWAP",
    "feature_key",
]

# Denominator constant from the normalised-overlap definition:
# overlap
# = (x overlap * y overlap) / (OVERLAP_NORMALISER * size of the smaller box).
OVERLAP_NORMALISER = 0.1


@dataclass(frozen=True)
class RelationConfig:
    """Pixel thresholds for the binary relations.

    touch_tol: max gap between nearest edges still counted as touching.
    containment_fraction: min overlap area / area(inner) for containment.
    move_threshold: min offset magnitude (px per annotated-frame step) to
        count as moving.  On a track with gaps in its frame indices the step
        spans the whole gap: a hand that moves 20 px between frames 0 and 10
        has speed 20, not 2.
    move_with_hand_tol: max offset difference for moving together, and min
        offset difference for moving relative to one another (same unit).
    """

    touch_tol: float = 5.0
    containment_fraction: float = 0.9
    move_threshold: float = 3.0
    move_with_hand_tol: float = 4.0

    def __post_init__(self) -> None:
        for f in fields(self):
            check_finite(f.name, getattr(self, f.name))
        if self.touch_tol < 0 or self.move_threshold < 0 or self.move_with_hand_tol < 0:
            raise ConfigError("relation thresholds must be non-negative")
        if not 0.0 < self.containment_fraction <= 1.0:
            raise ConfigError("containment_fraction must lie in (0, 1]")

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "RelationConfig":
        if not isinstance(data, Mapping):
            raise ConfigError(f"thresholds must be an object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown threshold fields: {sorted(unknown)}")
        return replace(cls(), **dict(data))


DEFAULT_CONFIG = RelationConfig()


# --- feature catalogue -----------------------------------------------------
#
# A key looks like "touching(object1,hand)".  A symmetric feature has one key
# per pair, its arguments in entity order (object1 < object2 < hand).


class Feature(NamedTuple):
    kind: str  # "real" or "boolean"
    args: tuple[tuple[str, ...], ...]  # the role tuples it takes, in column order
    symmetric: bool = False


_EACH = tuple((e,) for e in ROLES)
_OBJECTS = (("object1",), ("object2",))
_PAIRS = tuple(itertools.combinations(ROLES, 2))
_ORDERED = tuple(itertools.permutations(ROLES, 2))

FEATURES: Mapping[str, Feature] = MappingProxyType({
    "size": Feature("real", _EACH),
    "speed": Feature("real", _EACH),
    "present": Feature("boolean", _EACH),
    "moving": Feature("boolean", _EACH),
    "overlap": Feature("real", _PAIRS, symmetric=True),
    "offset_dist": Feature("real", _PAIRS, symmetric=True),
    "offset_angle": Feature("real", _PAIRS, symmetric=True),
    "centre_dist": Feature("real", _PAIRS, symmetric=True),
    "touching": Feature("boolean", _PAIRS, symmetric=True),
    "contained": Feature("boolean", _ORDERED),
    "centre_on_top": Feature("boolean", _ORDERED),
    "centre_underneath": Feature("boolean", _ORDERED),
    "object_move_relative": Feature("boolean", _ORDERED),
    "move_with_hand": Feature("boolean", _OBJECTS),
    "hand_move_relative": Feature("boolean", _OBJECTS),
})

BOOLEAN_FEATURES = frozenset(name for name, f in FEATURES.items() if f.kind == "boolean")


def _spelt(args: Sequence[str]) -> str:
    return f"({','.join(args)})"


def feature_key(name: str, args: Sequence[str]) -> str:
    """Canonical key of a feature reference; :class:`ConfigError` if the catalogue lacks it."""
    if not isinstance(name, str) or name not in FEATURES:
        raise ConfigError(f"unknown feature {name!r}")
    for a in args:
        if a not in ROLES:
            raise ConfigError(f"unknown entity {a!r} in feature {name!r}")
    feature = FEATURES[name]
    canonical = tuple(sorted(args, key=ROLES.index)) if feature.symmetric else tuple(args)
    if canonical not in feature.args:
        raise ConfigError(
            f"feature {name!r} takes {' or '.join(map(_spelt, feature.args))}, "
            f"got {_spelt(args)}"
        )
    return f"{name}{_spelt(canonical)}"


# (feature name, role tuple) of each column
_ENTRIES = tuple((name, args) for name, f in FEATURES.items() for args in f.args)
_KEYS = tuple(f"{name}{_spelt(args)}" for name, args in _ENTRIES)


def relation_keys() -> tuple[str, ...]:
    """All canonical feature keys, in column order."""
    return _KEYS


COLUMN: Mapping[str, int] = {key: i for i, key in enumerate(_KEYS)}

# Column j of the object-swapped track's table is column SWAP[j] of the
# annotated table.
_OTHER_OBJECT = {"object1": "object2", "object2": "object1"}
SWAP = np.array([
    COLUMN[feature_key(name, [_OTHER_OBJECT.get(a, a) for a in args])] for name, args in _ENTRIES
])

# (feature name, role indices) of each column
_INDEXED = tuple((name, tuple(map(ROLES.index, args))) for name, args in _ENTRIES)


def relation_table(
    tracks: Sequence[VideoTrack],
    config: RelationConfig = DEFAULT_CONFIG,
    columns: Sequence[int] | np.ndarray | None = None,
) -> np.ndarray:
    """Catalogued features for every frame of each track, shape (sum of T, 55).

    Each track's rows, in turn, are its own table: ``[track]`` gives its
    (T, 55) table.  Columns follow :func:`relation_keys`.  Binary relations
    involving an absent entity are false; real pair features involving an
    absent entity are 0.0.

    Only the ``columns`` given are computed, every column by default; the
    others stay 0.0.  An intermediate that several features of a pair
    share (the overlap area, the edge gap, the offset distance) is built
    once, and only when a column computed needs it, so a computed column
    has the bits it has in the full table.
    """
    x, y, w, h = np.concatenate([t.boxes for t in tracks]).T  # each (3, T)
    present = np.concatenate([t.present for t in tracks]).T
    x2, y2 = x + w, y + h
    cx, cy = x + w / 2.0, y + h / 2.0
    area = w * h
    # offsets against the previous annotated frame of the same track, zero
    # after an absence
    step = present[:, 1:] & present[:, :-1]
    step[:, np.cumsum([len(t) for t in tracks], dtype=np.intp)[:-1] - 1] = False
    ox, oy = np.zeros_like(cx), np.zeros_like(cy)
    ox[:, 1:] = np.where(step, np.diff(cx), 0.0)
    oy[:, 1:] = np.where(step, np.diff(cy), 0.0)
    speed = np.hypot(ox, oy)
    moving = present & (speed > config.move_threshold)
    hand = ROLES.index("hand")

    # shared intermediates of a pair a < b
    @cache
    def both(a: int, b: int) -> np.ndarray:
        return present[a] & present[b]

    @cache
    def inter(a: int, b: int) -> np.ndarray:
        common = np.maximum(0.0, np.minimum(x2[a], x2[b]) - np.maximum(x[a], x[b]))
        common *= np.maximum(0.0, np.minimum(y2[a], y2[b]) - np.maximum(y[a], y[b]))
        return common

    @cache
    def gap(a: int, b: int) -> np.ndarray:
        return np.hypot(
            np.maximum(np.maximum(x[a] - x2[b], x[b] - x2[a]), 0.0),
            np.maximum(np.maximum(y[a] - y2[b], y[b] - y2[a]), 0.0),
        )

    @cache
    def offset_dist(a: int, b: int) -> np.ndarray:
        return np.hypot(ox[a] - ox[b], oy[a] - oy[b])

    @cache
    def relative(a: int, b: int) -> np.ndarray:
        return both(a, b) & (offset_dist(a, b) > config.move_with_hand_tol)

    def overlap(a: int, b: int) -> np.ndarray:
        scaled = OVERLAP_NORMALISER * np.minimum(area[a], area[b])
        return np.divide(
            inter(a, b), scaled, out=np.zeros_like(scaled), where=both(a, b) & (scaled != 0.0)
        )

    def offset_angle(a: int, b: int) -> np.ndarray:
        angle = np.abs(np.arctan2(oy[a], ox[a]) - np.arctan2(oy[b], ox[b]))
        angle = np.where(angle > math.pi, 2.0 * math.pi - angle, angle)
        # the direction of a near-stationary box is meaningless
        return np.where(moving[a] & moving[b], angle, 0.0)

    def contained(i: int, j: int) -> np.ndarray:
        pair = min(i, j), max(i, j)
        share = np.divide(inter(*pair), area[i], out=np.zeros_like(area[i]), where=area[i] > 0.0)
        return both(*pair) & (share >= config.containment_fraction)

    def above_or_below(i: int, j: int) -> np.ndarray:
        return both(min(i, j), max(i, j)) & (x[j] <= cx[i]) & (cx[i] <= x2[j])

    def move_with_hand(a: int) -> np.ndarray:
        # together: within touching range and not moving relative
        together = (gap(a, hand) <= config.touch_tol) & ~relative(a, hand)
        return together & moving[a] & moving[hand]

    # each feature's column from its role indices, symmetric pairs a < b
    feature = {
        "size": lambda e: area[e],
        "speed": lambda e: speed[e],
        "present": lambda e: present[e],
        "moving": lambda e: moving[e],
        "overlap": overlap,
        "offset_dist": lambda a, b: np.where(both(a, b), offset_dist(a, b), 0.0),
        "offset_angle": offset_angle,
        "centre_dist": lambda a, b: np.where(
            both(a, b), np.hypot(cx[a] - cx[b], cy[a] - cy[b]), 0.0
        ),
        "touching": lambda a, b: both(a, b) & (gap(a, b) <= config.touch_tol),
        "contained": contained,
        "centre_on_top": lambda i, j: above_or_below(i, j) & (cy[i] < cy[j]),
        "centre_underneath": lambda i, j: above_or_below(i, j) & (cy[i] > cy[j]),
        "object_move_relative": lambda i, j: relative(min(i, j), max(i, j)) & moving[i],
        "move_with_hand": move_with_hand,
        "hand_move_relative": lambda a: relative(a, hand) & moving[hand],
    }
    table = np.zeros((present.shape[1], len(_KEYS)))
    wanted = range(len(_KEYS)) if columns is None else np.unique(columns).tolist()
    for column in wanted:
        name, args = _INDEXED[column]
        table[:, column] = feature[name](*args)
    return table
