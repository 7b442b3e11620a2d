"""Relational features between the two object boxes and the hand.

Real-valued features: size, speed (offset magnitude), normalised overlap,
offset distance, offset angle, centre distance.  Binary features: present,
moving, touching, contained, centre-on-top / centre-underneath, and the three
relative-movement tests (move-with-hand, hand-move-relative,
object-move-relative).  Offsets compare each annotated frame against the
previous annotated frame, whatever the gap in frame indices between the two;
the first frame of a track, and any frame where an entity was absent in the
previous frame, yield a zero offset.

:func:`relation_table` computes every feature for every frame of a track in
one pass: a ``(T, 55)`` float64 table whose columns follow
:func:`relation_keys`, booleans stored as 0.0/1.0.  Given a batch of tracks
it makes the same pass over all their frames laid end to end, and offsets
reset at each track's first frame, so the batch table is the per-track
tables stacked.  Exchanging the two objects only permutes columns, so the
table of the object-swapped track is ``table[:, SWAP]``.

All thresholds live in :class:`RelationConfig` so they can be overridden from
configuration files; the 0.1 overlap normaliser is a named constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, check_finite
from .tracks import ROLES, VideoTrack

__all__ = [
    "OVERLAP_NORMALISER",
    "RelationConfig",
    "relation_keys",
    "relation_table",
    "COLUMN",
    "SWAP",
    "feature_key",
    "feature_kind",
    "validate_feature",
]

# Denominator constant from the normalised-overlap definition:
# overlap
# = (x overlap * y overlap) / (OVERLAP_NORMALISER * size of the smaller box).
OVERLAP_NORMALISER = 0.1

_ENTITY_RANK = {e: i for i, e in enumerate(ROLES)}


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
# Canonical keys look like "touching(object1,hand)".  Symmetric pair features
# are stored once, with arguments in entity order (object1 < object2 < hand);
# lookups through feature_key() accept either order.

_UNARY_REAL = ("size", "speed")
_UNARY_BOOL = ("present", "moving")
_PAIR_REAL = ("overlap", "offset_dist", "offset_angle", "centre_dist")
_PAIR_BOOL_SYMMETRIC = ("touching",)
_PAIR_BOOL_ORDERED = (
    "contained",
    "centre_on_top",
    "centre_underneath",
    "object_move_relative",
)
_HAND_BOOL = ("move_with_hand", "hand_move_relative")

_SYMMETRIC = set(_PAIR_REAL) | set(_PAIR_BOOL_SYMMETRIC)
BOOLEAN_FEATURES = (
    set(_UNARY_BOOL)
    | set(_PAIR_BOOL_SYMMETRIC)
    | set(_PAIR_BOOL_ORDERED)
    | set(_HAND_BOOL)
)
_ARITY = {name: 1 for name in _UNARY_REAL + _UNARY_BOOL + _HAND_BOOL}
_ARITY.update({name: 2 for name in _PAIR_REAL + _PAIR_BOOL_SYMMETRIC + _PAIR_BOOL_ORDERED})


def validate_feature(name: str, args: tuple[str, ...]) -> None:
    if not isinstance(name, str) or name not in _ARITY:
        raise ConfigError(f"unknown feature {name!r}")
    if len(args) != _ARITY[name]:
        raise ConfigError(
            f"feature {name!r} takes {_ARITY[name]} argument(s), got {list(args)}"
        )
    for a in args:
        if a not in ROLES:
            raise ConfigError(f"unknown entity {a!r} in feature {name!r}")
    if name in _HAND_BOOL and args[0] == "hand":
        raise ConfigError(f"feature {name!r} expects an object argument, not 'hand'")
    if _ARITY[name] == 2 and args[0] == args[1]:
        raise ConfigError(f"feature {name!r} needs two distinct entities")


def feature_key(name: str, args: tuple[str, ...]) -> str:
    """Canonical dictionary key for a feature reference."""
    validate_feature(name, args)
    if name in _SYMMETRIC:
        args = tuple(sorted(args, key=_ENTITY_RANK.__getitem__))
    return f"{name}({','.join(args)})"


def feature_kind(name: str) -> str:
    if name not in _ARITY:
        raise ConfigError(f"unknown feature {name!r}")
    return "boolean" if name in BOOLEAN_FEATURES else "real"


def relation_keys() -> tuple[str, ...]:
    """All canonical feature keys, in deterministic order."""
    keys: list[str] = []
    for name in _UNARY_REAL + _UNARY_BOOL:
        keys.extend(feature_key(name, (e,)) for e in ROLES)
    pairs = [("object1", "object2"), ("object1", "hand"), ("object2", "hand")]
    for name in _PAIR_REAL + _PAIR_BOOL_SYMMETRIC:
        keys.extend(feature_key(name, p) for p in pairs)
    ordered = [(a, b) for a in ROLES for b in ROLES if a != b]
    for name in _PAIR_BOOL_ORDERED:
        keys.extend(feature_key(name, p) for p in ordered)
    for name in _HAND_BOOL:
        keys.extend(feature_key(name, (o,)) for o in ("object1", "object2"))
    return tuple(keys)


_KEYS = relation_keys()
COLUMN: Mapping[str, int] = {key: i for i, key in enumerate(_KEYS)}

_SWAPPED_ROLE = {"object1": "object2", "object2": "object1", "hand": "hand"}


def _swapped_key(key: str) -> str:
    name, _, rest = key.partition("(")
    return feature_key(name, tuple(_SWAPPED_ROLE[a] for a in rest[:-1].split(",")))


# Column j of the object-swapped track's table is column SWAP[j] of the
# annotated table.
SWAP = np.array([COLUMN[_swapped_key(key)] for key in _KEYS])

# Column of each (feature name, role indices) pair that relation_table writes;
# its symmetric pairs come in entity order, which is their canonical order.
_COLUMN_OF = {
    (name, tuple(ROLES.index(a) for a in rest[:-1].split(","))): i
    for i, (name, _, rest) in enumerate(key.partition("(") for key in _KEYS)
}


def relation_table(
    tracks: VideoTrack | Sequence[VideoTrack], config: RelationConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Every catalogued feature for every frame of a track, shape (T, 55).

    Given a sequence of tracks, the rows of every track in turn, shape
    (sum of T, 55): each track's rows are its own table.  Columns follow
    :func:`relation_keys`.  Binary relations involving an absent entity are
    false; real pair features involving an absent entity are 0.0.
    """
    if isinstance(tracks, VideoTrack):
        tracks = (tracks,)
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
