"""Relational features between the two object boxes and the hand.

:data:`FEATURES` is the catalogue of the 15 features: each one's kind (real
or boolean), the argument role tuples it takes, in column order, and whether
it is symmetric.  The 55 keys of :func:`relation_keys`, their :data:`COLUMN`,
the booleans, :data:`SWAP` and the argument rule of :func:`feature_key` all
derive from it.  Offsets compare each annotated frame against the previous
annotated frame, whatever the gap in frame indices between the two; the first
frame of a track, and any frame where an entity was absent in the previous
frame, yield a zero offset.

:func:`relation_table` computes every feature for every frame of a sequence
of tracks in one pass over their frames laid end to end: a float64 table,
one row per frame, whose columns follow :func:`relation_keys`, booleans
stored as 0.0/1.0.  Offsets reset at each track's first frame, so the table
is the per-track tables stacked.  Exchanging the two objects only permutes
columns, so the table of the object-swapped track is ``table[:, SWAP]``.

All thresholds live in :class:`RelationConfig` so they can be overridden from
configuration files; the 0.1 overlap normaliser is a named constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
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

# Column of each (feature name, role indices) pair that relation_table writes
_COLUMN_OF = {(name, tuple(map(ROLES.index, args))): i for i, (name, args) in enumerate(_ENTRIES)}


def relation_table(
    tracks: Sequence[VideoTrack], config: RelationConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Every catalogued feature for every frame of each track, shape (sum of T, 55).

    Each track's rows, in turn, are its own table: ``[track]`` gives its
    (T, 55) table.  Columns follow :func:`relation_keys`.  Binary relations
    involving an absent entity are false; real pair features involving an
    absent entity are 0.0.
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

    table = np.zeros((present.shape[1], len(_KEYS)))

    def put(name: str, args: tuple[int, ...], value: np.ndarray) -> None:
        table[:, _COLUMN_OF[name, args]] = value

    for e in range(len(ROLES)):
        put("present", (e,), present[e])
        put("size", (e,), area[e])
        put("speed", (e,), speed[e])
        put("moving", (e,), moving[e])

    for a, b in itertools.combinations(range(len(ROLES)), 2):
        both = present[a] & present[b]
        inter = np.maximum(0.0, np.minimum(x2[a], x2[b]) - np.maximum(x[a], x[b]))
        inter *= np.maximum(0.0, np.minimum(y2[a], y2[b]) - np.maximum(y[a], y[b]))
        scaled = OVERLAP_NORMALISER * np.minimum(area[a], area[b])
        overlap = np.divide(
            inter, scaled, out=np.zeros_like(inter), where=both & (scaled != 0.0)
        )
        gap = np.hypot(
            np.maximum(np.maximum(x[a] - x2[b], x[b] - x2[a]), 0.0),
            np.maximum(np.maximum(y[a] - y2[b], y[b] - y2[a]), 0.0),
        )
        offset_dist = np.hypot(ox[a] - ox[b], oy[a] - oy[b])
        angle = np.abs(np.arctan2(oy[a], ox[a]) - np.arctan2(oy[b], ox[b]))
        angle = np.where(angle > math.pi, 2.0 * math.pi - angle, angle)
        centre_dist = np.hypot(cx[a] - cx[b], cy[a] - cy[b])
        put("overlap", (a, b), overlap)
        put("centre_dist", (a, b), np.where(both, centre_dist, 0.0))
        put("offset_dist", (a, b), np.where(both, offset_dist, 0.0))
        # the direction of a near-stationary box is meaningless
        put("offset_angle", (a, b), np.where(moving[a] & moving[b], angle, 0.0))
        put("touching", (a, b), both & (gap <= config.touch_tol))
        relative = both & (offset_dist > config.move_with_hand_tol)
        for i, j in ((a, b), (b, a)):
            share = np.divide(
                inter, area[i], out=np.zeros_like(inter), where=area[i] > 0.0
            )
            above_or_below = both & (x[j] <= cx[i]) & (cx[i] <= x2[j])
            put("contained", (i, j), both & (share >= config.containment_fraction))
            put("centre_on_top", (i, j), above_or_below & (cy[i] < cy[j]))
            put("centre_underneath", (i, j), above_or_below & (cy[i] > cy[j]))
            put("object_move_relative", (i, j), relative & moving[i])
        if b == ROLES.index("hand"):
            # together: within touching range and not moving relative
            together = (gap <= config.touch_tol) & ~relative
            put("move_with_hand", (a,), together & moving[a] & moving[b])
            put("hand_move_relative", (a,), relative & moving[b])
    return table
