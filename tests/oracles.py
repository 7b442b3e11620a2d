"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: double loops,
exhaustive enumeration, counting definitions.  Tests compare the package's
optimised implementations against these.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from boxact.errors import AnnotationError, ConfigError, ContractError
from boxact.forest import (
    FOREST_FORMAT,
    FOREST_VERSION,
    TREE_COLUMNS,
    ForestModel,
    ForestParams,
    Tree,
)
from boxact.phases import PHASES, ActionModel, PhaseAssignment, PhaseScoreMatrix, Term
from boxact.relations import (
    BOOLEAN_FEATURES,
    COLUMN,
    DEFAULT_CONFIG,
    OVERLAP_NORMALISER,
    RelationConfig,
    feature_key,
)
from boxact.synthetic import (
    FRAME_HEIGHT,
    FRAME_WIDTH,
    NoiseParams,
    SyntheticScript,
    _carry_boundaries,
    _draw_layout,
    _hand_entry,
    _hand_exit,
    _pretend_boundaries,
)
from boxact.tracks import COORDINATE_LIMIT, ROLES, VideoTrack


def smooth_reference(series, sigma: float) -> np.ndarray:
    """Boundary-renormalised Gaussian smoothing as an explicit double loop."""
    x = np.asarray(series, dtype=float)
    radius = max(1, int(3.0 * sigma + 0.5))
    taps = [math.exp(-0.5 * (k / sigma) ** 2) for k in range(-radius, radius + 1)]
    out = np.empty_like(x)
    for i in range(x.size):
        num = 0.0
        den = 0.0
        for k in range(-radius, radius + 1):
            j = i + k
            if 0 <= j < x.size:
                w = taps[k + radius]
                num += w * x[j]
                den += w
        out[i] = num / den
    return out


def dp_best_ordered_total(rows: np.ndarray) -> float:
    """Optimal total of one index per row, indices strictly increasing.

    Dynamic program over rows; O(P*T).  Requires T >= P.
    """
    p, t = rows.shape
    if t < p:
        raise ValueError("need at least as many frames as rows")
    best = rows[0].astype(float).copy()
    for row in range(1, p):
        prefix = np.maximum.accumulate(best)
        nxt = np.full(t, -np.inf)
        nxt[row:] = rows[row, row:] + prefix[row - 1 : t - 1]
        best = nxt
    return float(best.max())


def exhaustive_best_ordered_total(rows: np.ndarray) -> float:
    """Same objective by brute force over all increasing index tuples."""
    p, t = rows.shape
    best = -np.inf
    for combo in itertools.combinations(range(t), p):
        total = sum(rows[i, c] for i, c in enumerate(combo))
        best = max(best, total)
    return float(best)


def average_precision_reference(scores, labels) -> float | None:
    """AP by explicit counting, ties pessimistic (negatives outrank positives).

    For each positive, its rank counts: all strictly higher scores, all tied
    negatives, and the tied positives up to and including itself.
    """
    scores = list(map(float, scores))
    labels = list(map(int, labels))
    num_pos = sum(labels)
    if num_pos == 0:
        return None
    total = 0.0
    for s in sorted({s for s, y in zip(scores, labels) if y == 1}, reverse=True):
        higher = sum(1 for t in scores if t > s)
        higher_pos = sum(1 for t, y in zip(scores, labels) if t > s and y == 1)
        tied_neg = sum(1 for t, y in zip(scores, labels) if t == s and y == 0)
        tied_pos = sum(1 for t, y in zip(scores, labels) if t == s and y == 1)
        for k in range(1, tied_pos + 1):
            rank = higher + tied_neg + k
            total += (higher_pos + k) / rank
    return total / num_pos


def fused_argmax_reference(probs_a: dict, probs_b: dict) -> str:
    """Argmax of the elementwise sum, ties to the lowest action id."""
    best = None
    best_p = -np.inf
    for action in sorted(probs_a):
        p = probs_a[action] + probs_b[action]
        if p > best_p:
            best, best_p = action, p
    return best


def symmetric_unimodal_sequence(
    rng: np.random.Generator, radius: int, min_frames: int = 15, max_frames: int = 80
) -> tuple[np.ndarray, int]:
    """Random strictly unimodal sequence, symmetric about an interior peak.

    The peak keeps at least ``radius`` frames of clearance from both ends, the
    domain where boundary-renormalised smoothing provably preserves the
    argmax (asymmetric or edge-hugging unimodal sequences do shift; see the
    smoothing tests for a concrete counterexample).
    """
    t = int(rng.integers(min_frames, max_frames + 1))
    peak = int(rng.integers(radius, t - radius))
    dmax = max(peak, t - 1 - peak)
    gaps = rng.uniform(0.01, 1.0, size=dmax + 1)
    v = np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]])
    return v[np.abs(np.arange(t) - peak)], peak


# --- tracks as per-box objects, and a parser that checks one box at a time -----


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates (top-left corner, extent)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise AnnotationError(f"box field {name!r} must be finite, got {v!r}")
            if abs(v) > COORDINATE_LIMIT:
                raise AnnotationError(
                    f"box field {name!r} must lie within +/-{COORDINATE_LIMIT:g} px, "
                    f"got {v!r}"
                )
        if self.w < 0 or self.h < 0:
            raise AnnotationError(
                f"box extent must be non-negative, got w={self.w}, h={self.h}"
            )

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def centre(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class FrameAnnotation:
    """Boxes visible in one frame; any of the three roles may be absent."""

    frame_index: int
    object1: BoundingBox | None = None
    object2: BoundingBox | None = None
    hand: BoundingBox | None = None

    def box(self, role: str) -> BoundingBox | None:
        return getattr(self, role)


@dataclass(frozen=True)
class ReferenceTrack:
    """One video as a tuple of :class:`FrameAnnotation`, sorted by index."""

    video_id: str
    frames: tuple[FrameAnnotation, ...]
    frame_width: float
    frame_height: float
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.frames:
            raise AnnotationError(f"video {self.video_id!r}: track has no frames")
        size = (self.frame_width, self.frame_height)
        if not all(math.isfinite(v) for v in size):
            raise AnnotationError(
                f"video {self.video_id!r}: frame size must be finite, got "
                f"{size[0]!r} x {size[1]!r}"
            )
        if self.frame_width <= 0 or self.frame_height <= 0:
            raise AnnotationError(
                f"video {self.video_id!r}: frame size must be positive"
            )
        indices = [f.frame_index for f in self.frames]
        for a, b in zip(indices, indices[1:]):
            if b <= a:
                raise AnnotationError(
                    f"video {self.video_id!r}: frame indices must be strictly "
                    f"increasing, got {a} then {b}"
                )


def _as_float(value: int | float) -> float:
    """``float(value)``, with an int too large for a float read as +/-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AnnotationError(message)


def _parse_box_reference(entry: object, video_id: str, idx: object) -> tuple[str, BoundingBox]:
    where = f"video {video_id!r} frame {idx!r}"
    _require(isinstance(entry, dict), f"{where}: box entry must be an object")
    role = entry.get("role")
    if role not in ROLES:
        raise AnnotationError(
            f"{where}: unknown role {role!r}, expected one of {ROLES}"
        )
    for key in ("x", "y", "w", "h"):
        _require(key in entry, f"{where}: box for {role!r} is missing {key!r}")
        _require(
            isinstance(entry[key], (int, float)) and not isinstance(entry[key], bool),
            f"{where}: box field {key!r} must be a number",
        )
    try:
        box = BoundingBox(*(_as_float(entry[key]) for key in ("x", "y", "w", "h")))
    except AnnotationError as exc:
        raise AnnotationError(f"{where}: {exc}") from None
    return role, box


def _parse_video_reference(record: object, position: int) -> ReferenceTrack:
    _require(
        isinstance(record, dict), f"record #{position}: video record must be an object"
    )
    video_id = record.get("id")
    _require(
        isinstance(video_id, str) and bool(video_id),
        f"record #{position}: missing or empty 'id'",
    )
    for key in ("width", "height"):
        _require(
            isinstance(record.get(key), (int, float))
            and not isinstance(record.get(key), bool),
            f"video {video_id!r}: missing numeric {key!r}",
        )
    label = record.get("label")
    if label is not None:
        _require(isinstance(label, str), f"video {video_id!r}: label must be a string")
    raw_frames = record.get("frames")
    _require(
        isinstance(raw_frames, list) and bool(raw_frames),
        f"video {video_id!r}: 'frames' must be a non-empty list",
    )
    frames = []
    for frame in raw_frames:
        _require(
            isinstance(frame, dict), f"video {video_id!r}: frame must be an object"
        )
        idx = frame.get("idx")
        _require(
            isinstance(idx, int) and not isinstance(idx, bool) and idx >= 0,
            f"video {video_id!r}: frame 'idx' must be a non-negative integer, "
            f"got {idx!r}",
        )
        boxes = frame.get("boxes", [])
        _require(
            isinstance(boxes, list),
            f"video {video_id!r} frame {idx!r}: 'boxes' must be a list",
        )
        by_role: dict[str, BoundingBox] = {}
        for entry in boxes:
            role, box = _parse_box_reference(entry, video_id, idx)
            _require(
                role not in by_role,
                f"video {video_id!r} frame {idx!r}: duplicate role {role!r}",
            )
            by_role[role] = box
        frames.append(FrameAnnotation(frame_index=idx, **by_role))
    frames.sort(key=lambda f: f.frame_index)
    for f1, f2 in zip(frames, frames[1:]):
        _require(
            f2.frame_index != f1.frame_index,
            f"video {video_id!r}: duplicate frame index {f1.frame_index}",
        )
    return ReferenceTrack(
        video_id=video_id,
        frames=tuple(frames),
        frame_width=_as_float(record["width"]),
        frame_height=_as_float(record["height"]),
        label=label,
    )


def parse_annotations_reference(document: object) -> list[ReferenceTrack]:
    """The annotation parser written over per-box objects.

    It checks each document in order, one box at a time, and validates box
    values as each :class:`BoundingBox` is built.  Frame sizes must be finite
    non-bool numbers, as in :func:`boxact.tracks.parse_annotations`.
    """
    _require(isinstance(document, list), "annotation document must be a list of videos")
    tracks = [_parse_video_reference(rec, i) for i, rec in enumerate(document)]
    seen: set[str] = set()
    for t in tracks:
        _require(t.video_id not in seen, f"duplicate video id {t.video_id!r}")
        seen.add(t.video_id)
    return tracks


def track_arrays(
    frames: Sequence[FrameAnnotation],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(frames, boxes, present)`` arrays of a :class:`VideoTrack`."""
    boxes = np.zeros((len(frames), len(ROLES), 4))
    present = np.zeros((len(frames), len(ROLES)), dtype=bool)
    for t, frame in enumerate(frames):
        for r, role in enumerate(ROLES):
            b = frame.box(role)
            if b is not None:
                boxes[t, r] = (b.x, b.y, b.w, b.h)
                present[t, r] = True
    return np.array([f.frame_index for f in frames], dtype=np.int64), boxes, present


def frame_at(track: VideoTrack, t: int) -> FrameAnnotation:
    """Frame ``t`` of an array track as per-box objects."""
    boxes = {
        role: BoundingBox(*track.boxes[t, r].tolist())
        for r, role in enumerate(ROLES)
        if track.present[t, r]
    }
    return FrameAnnotation(frame_index=int(track.frames[t]), **boxes)


def overlap_area(b1: BoundingBox, b2: BoundingBox) -> float:
    xo = max(0.0, min(b1.x2, b2.x2) - max(b1.x, b2.x))
    yo = max(0.0, min(b1.y2, b2.y2) - max(b1.y, b2.y))
    return xo * yo


def edge_gap(b1: BoundingBox, b2: BoundingBox) -> float:
    """Distance between nearest edges; 0.0 when the boxes overlap."""
    dx = max(b1.x - b2.x2, b2.x - b1.x2, 0.0)
    dy = max(b1.y - b2.y2, b2.y - b1.y2, 0.0)
    return math.hypot(dx, dy)


# --- per-frame relations, one scalar at a time ---------------------------------


class AngleResult(NamedTuple):
    radians: float
    stationary: bool


def size(box: BoundingBox) -> float:
    """Box area (width times height)."""
    return box.area


def overlap_normalised(b1: BoundingBox, b2: BoundingBox) -> float:
    """Overlap area divided by ``OVERLAP_NORMALISER`` times the smaller area.

    Returns 0.0 when the denominator vanishes: the smaller box has zero area
    (its overlap is zero too) or the scaled area underflows to zero.
    """
    denominator = OVERLAP_NORMALISER * min(size(b1), size(b2))
    if denominator == 0.0:
        return 0.0
    return overlap_area(b1, b2) / denominator


def centre_dist(b1: BoundingBox, b2: BoundingBox) -> float:
    (x1, y1), (x2, y2) = b1.centre, b2.centre
    return math.hypot(x1 - x2, y1 - y2)


def offset_between(current: BoundingBox, previous: BoundingBox) -> tuple[float, float]:
    (cx, cy), (px, py) = current.centre, previous.centre
    return (cx - px, cy - py)


def offset(track: VideoTrack, entity: str, frame_index: int) -> tuple[float, float]:
    """Centre displacement of ``entity`` since the previous annotated frame.

    Zero at the first frame and after an absence.  Raises
    :class:`ContractError` when the entity is absent at ``frame_index``.
    """
    frame = frame_at(track, frame_index)
    box = frame.box(entity)
    if box is None:
        raise ContractError(
            f"video {track.video_id!r}: {entity} absent at frame "
            f"{frame.frame_index}"
        )
    if frame_index == 0:
        return (0.0, 0.0)
    prev = frame_at(track, frame_index - 1).box(entity)
    if prev is None:
        return (0.0, 0.0)
    return offset_between(box, prev)


def offset_dist(o1: tuple[float, float], o2: tuple[float, float]) -> float:
    """Euclidean norm of the difference between two offset vectors."""
    return math.hypot(o1[0] - o2[0], o1[1] - o2[1])


def offset_angle(
    o1: tuple[float, float],
    o2: tuple[float, float],
    move_threshold: float = DEFAULT_CONFIG.move_threshold,
) -> AngleResult:
    """Absolute angle between two offset vectors, folded into [0, pi].

    Either offset below ``move_threshold`` yields ``AngleResult(0.0, True)``:
    the direction of a near-stationary box is meaningless.
    """
    if math.hypot(*o1) <= move_threshold or math.hypot(*o2) <= move_threshold:
        return AngleResult(0.0, True)
    diff = abs(math.atan2(o1[1], o1[0]) - math.atan2(o2[1], o2[0]))
    if diff > math.pi:
        diff = 2.0 * math.pi - diff
    return AngleResult(diff, False)


def _centre_on_top(a: BoundingBox, b: BoundingBox) -> bool:
    cx, cy = a.centre
    return b.x <= cx <= b.x2 and cy < b.centre[1]


def _centre_underneath(a: BoundingBox, b: BoundingBox) -> bool:
    cx, cy = a.centre
    return b.x <= cx <= b.x2 and cy > b.centre[1]


def frame_relations(
    track: VideoTrack,
    frame_index: int,
    config: RelationConfig = DEFAULT_CONFIG,
) -> dict[str, float]:
    """Every catalogued feature of one frame, keyed canonically.

    Booleans are 0.0/1.0.  Binary relations involving an absent entity are
    false; real pair features involving an absent entity are 0.0.
    """
    frame = frame_at(track, frame_index)
    prev = frame_at(track, frame_index - 1) if frame_index > 0 else None
    boxes = {e: frame.box(e) for e in ROLES}

    offsets: dict[str, tuple[float, float]] = {}
    for e in ROLES:
        box = boxes[e]
        prev_box = prev.box(e) if prev is not None else None
        if box is None or prev_box is None:
            offsets[e] = (0.0, 0.0)
        else:
            offsets[e] = offset_between(box, prev_box)

    values: dict[str, float] = {}

    def put(name: str, args: tuple[str, ...], value: float | bool) -> None:
        values[feature_key(name, args)] = float(value)

    speed = {e: math.hypot(*offsets[e]) for e in ROLES}
    moving = {
        e: boxes[e] is not None and speed[e] > config.move_threshold for e in ROLES
    }
    for e in ROLES:
        put("present", (e,), boxes[e] is not None)
        put("size", (e,), size(boxes[e]) if boxes[e] is not None else 0.0)
        put("speed", (e,), speed[e] if boxes[e] is not None else 0.0)
        put("moving", (e,), moving[e])

    pairs = [("object1", "object2"), ("object1", "hand"), ("object2", "hand")]
    for a, b in pairs:
        ba, bb = boxes[a], boxes[b]
        both = ba is not None and bb is not None
        put("overlap", (a, b), overlap_normalised(ba, bb) if both else 0.0)
        put("centre_dist", (a, b), centre_dist(ba, bb) if both else 0.0)
        put(
            "offset_dist",
            (a, b),
            offset_dist(offsets[a], offsets[b]) if both else 0.0,
        )
        angle = (
            offset_angle(offsets[a], offsets[b], config.move_threshold).radians
            if both
            else 0.0
        )
        put("offset_angle", (a, b), angle)
        put("touching", (a, b), both and edge_gap(ba, bb) <= config.touch_tol)

    for a in ROLES:
        for b in ROLES:
            if a == b:
                continue
            ba, bb = boxes[a], boxes[b]
            both = ba is not None and bb is not None
            contained = (
                both
                and ba.area > 0
                and overlap_area(ba, bb) / ba.area >= config.containment_fraction
            )
            put("contained", (a, b), contained)
            put("centre_on_top", (a, b), both and _centre_on_top(ba, bb))
            put("centre_underneath", (a, b), both and _centre_underneath(ba, bb))
            put(
                "object_move_relative",
                (a, b),
                both
                and moving[a]
                and offset_dist(offsets[a], offsets[b]) > config.move_with_hand_tol,
            )

    for o in ("object1", "object2"):
        bo, bh = boxes[o], boxes["hand"]
        both = bo is not None and bh is not None
        put(
            "move_with_hand",
            (o,),
            both
            and moving[o]
            and moving["hand"]
            and edge_gap(bo, bh) <= config.touch_tol
            and offset_dist(offsets[o], offsets["hand"]) <= config.move_with_hand_tol,
        )
        put(
            "hand_move_relative",
            (o,),
            both
            and moving["hand"]
            and offset_dist(offsets[o], offsets["hand"]) > config.move_with_hand_tol,
        )
    return values


def relation_table_reference(
    track: VideoTrack, config: RelationConfig = DEFAULT_CONFIG
) -> list[dict[str, float]]:
    """:func:`frame_relations` for every frame of the track."""
    return [frame_relations(track, i, config) for i in range(len(track))]


def term_value(term: Term, values: dict[str, float]) -> float:
    """One term's weighted contribution at one frame."""
    v = values[term.key]
    boolean = term.feature in BOOLEAN_FEATURES
    if term.threshold is not None:
        v = 1.0 if v > term.threshold else 0.0
        boolean = True
    if term.negate:
        v = 1.0 - v if boolean else -v
    return term.weight * v


def swap_objects(track: VideoTrack) -> VideoTrack:
    """The same track with the object1 and object2 boxes exchanged."""
    order = [1, 0, 2]
    return replace(track, boxes=track.boxes[:, order], present=track.present[:, order])


# --- per-model scoring, assignment and embedding -------------------------------
#
# The package scores, assigns and embeds every model of a track in one array
# pass.  These are the per-model functions it replaced, kept call for call:
# the one-pass code must reproduce their results bit for bit.


def _term_series_reference(term: Term, values: np.ndarray) -> np.ndarray:
    v = values
    boolean = term.feature in BOOLEAN_FEATURES
    if term.threshold is not None:
        v = (v > term.threshold).astype(float)
        boolean = True
    if term.negate:
        v = 1.0 - v if boolean else -v
    return term.weight * v


def _smooth_row_reference(x: np.ndarray, sigma: float) -> np.ndarray:
    """Each value a sum of tap x sample products in tap order, element by element.

    Samples past either end count as zero; their products are left out, as
    adding a zero leaves a sum that started at +0.0 unchanged.
    """
    radius = max(1, int(3.0 * sigma + 0.5))
    taps = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (taps / sigma) ** 2)
    kernel = (kernel / kernel.sum()).tolist()
    out = np.empty_like(x)
    for i in range(x.size):
        num = den = 0.0
        for j in range(max(0, i - radius), min(x.size, i + radius + 1)):
            num += kernel[j - i + radius] * float(x[j])
            den += kernel[j - i + radius]
        out[i] = num / den
    return out


def score_frames_reference(
    model: ActionModel, relations: np.ndarray, object_order: str, sigma: float
) -> PhaseScoreMatrix:
    """Raw rows summed term by term, each row smoothed on its own."""
    raw = np.zeros((len(PHASES), relations.shape[0]))
    for pi, phase in enumerate(PHASES):
        for t in model.phases[phase]:
            raw[pi] += _term_series_reference(t, relations[:, COLUMN[t.key]])
    smoothed = np.vstack([_smooth_row_reference(row, sigma) for row in raw])
    return PhaseScoreMatrix(model.action_id, object_order, raw, smoothed, sigma)


def _standardized_reference(matrix: PhaseScoreMatrix) -> np.ndarray:
    rows = matrix.smoothed
    mean = rows.mean(axis=1, keepdims=True)
    std = rows.std(axis=1, keepdims=True)
    safe = np.where(std < 1e-12, 1.0, std)
    z = (rows - mean) / safe
    z[(std < 1e-12).ravel()] = 0.0
    return z


def _restricted_argmax_reference(row: np.ndarray, lo: int, hi: int) -> int | None:
    lo = max(lo, 0)
    hi = min(hi, row.size)
    if lo >= hi:
        return None
    return lo + int(np.argmax(row[lo:hi]))


def _greedy_centers_reference(smoothed: np.ndarray, f_b: int) -> dict[str, int | None]:
    t = smoothed.shape[1]
    row = {p: smoothed[PHASES.index(p)] for p in PHASES}
    centers: dict[str, int | None] = {"b": f_b}
    centers["a"] = _restricted_argmax_reference(row["a"], 0, f_b)
    centers["d"] = _restricted_argmax_reference(row["d"], f_b + 1, t)
    c_hi = centers["d"] if centers["d"] is not None else t
    centers["c"] = _restricted_argmax_reference(row["c"], f_b + 1, c_hi)
    e_lo = next((centers[p] for p in ("d", "c") if centers[p] is not None), f_b)
    centers["e"] = _restricted_argmax_reference(row["e"], e_lo + 1, t)
    return centers


def _windows_reference(
    centers: dict[str, int | None], t: int, n: int
) -> dict[str, tuple[int, int] | None]:
    windows: dict[str, tuple[int, int] | None] = {p: None for p in PHASES}
    assigned = [p for p in PHASES if centers[p] is not None]
    spans = {p: [max(0, centers[p] - n), min(t - 1, centers[p] + n)] for p in assigned}
    for p1, p2 in zip(assigned, assigned[1:]):
        if spans[p1][1] >= spans[p2][0]:
            mid = (centers[p1] + centers[p2]) // 2
            spans[p1][1] = min(spans[p1][1], mid)
            spans[p2][0] = max(spans[p2][0], mid + 1)
    for p in assigned:
        windows[p] = (spans[p][0], spans[p][1])
    return windows


def _second_best_b_reference(matrix: PhaseScoreMatrix) -> int | None:
    row = matrix.row("b")
    if row.size <= 7:
        return None
    f_b = int(np.argmax(row))
    masked = row.copy()
    masked[max(0, f_b - 3) : f_b + 4] = -np.inf
    if not np.isfinite(masked).any():
        return None
    return int(np.argmax(masked))


def _assign_from_b_reference(
    matrix: PhaseScoreMatrix, f_b: int, b_choice: str, n: int
) -> PhaseAssignment:
    centers = _greedy_centers_reference(matrix.smoothed, f_b)
    z = _standardized_reference(matrix)
    total = sum(z[PHASES.index(p), centers[p]] for p in PHASES if centers[p] is not None)
    return PhaseAssignment(
        action_id=matrix.action_id,
        object_order=matrix.object_order,
        b_choice=b_choice,
        centers=centers,
        windows=_windows_reference(centers, matrix.num_frames, n),
        total_score=float(total),
    )


def assign_with_alternatives_reference(
    matrix_annotated: PhaseScoreMatrix, matrix_swapped: PhaseScoreMatrix, n: int
) -> PhaseAssignment:
    """Build each available alternative, keep the first strictly highest total."""
    candidates = []
    for b_choice in ("best", "second_best"):
        for matrix in (matrix_annotated, matrix_swapped):
            f_b = (
                int(np.argmax(matrix.row("b")))
                if b_choice == "best"
                else _second_best_b_reference(matrix)
            )
            if f_b is not None:
                candidates.append(_assign_from_b_reference(matrix, f_b, b_choice, n))
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.total_score > best.total_score:
            best = cand
    return best


def embed_video_reference(
    assignment: PhaseAssignment,
    matrix: PhaseScoreMatrix,
    model: ActionModel,
    relations: np.ndarray,
    scores_only: bool,
) -> np.ndarray:
    """Per phase: mean, median, max, min of each window series, then the flag."""
    columns = [COLUMN[key] for key in model.feature_list]
    values: list[float] = []
    for p in PHASES:
        window = assignment.windows[p]
        if window is None:
            width = 1 if scores_only else 1 + len(columns)
            values.extend([0.0] * 4 * width + [0.0])
            continue
        lo, hi = window
        scores = matrix.row(p, kind="raw")[lo : hi + 1]
        series = np.vstack([scores, relations[lo : hi + 1, columns].T])
        high, low = series.max(axis=1), series.min(axis=1)
        mean = np.clip(series.mean(axis=1), low, high)
        stats = np.column_stack([mean, np.median(series, axis=1), high, low])
        values.extend(stats[:1].ravel().tolist() if scores_only else stats.ravel().tolist())
        values.append(1.0)
    return np.asarray(values)


# --- forest split search, one candidate feature at a time ----------------------


def best_split_reference(
    values: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    candidates: np.ndarray,
) -> tuple[float, int, float] | None:
    """Lowest weighted-Gini split, scoring each candidate feature on its own.

    Features are visited in ascending order, and a later feature replaces the
    best only when its impurity is lower by more than 1e-12.
    """
    best: tuple[float, int, float] | None = None
    total = weights.sum()
    for f in sorted(int(c) for c in candidates):
        col = values[:, f]
        order = np.argsort(col, kind="stable")
        v = col[order]
        w = weights[order]
        wp = np.where(labels[order] == 1, w, 0.0)
        cw = np.cumsum(w)
        cwp = np.cumsum(wp)
        # split after position i: left = [0..i], right = (i..n)
        distinct = np.nonzero(v[1:] > v[:-1])[0]
        if distinct.size == 0:
            continue
        wl = cw[distinct]
        wpl = cwp[distinct]
        wr = total - wl
        wpr = cwp[-1] - wpl
        pl = wpl / wl
        pr = wpr / wr
        gini = wl * 2.0 * pl * (1.0 - pl) + wr * 2.0 * pr * (1.0 - pr)
        gini = gini / total
        thresholds = (v[distinct] + v[distinct + 1]) / 2.0
        i = int(np.argmin(gini))
        cand = (float(gini[i]), f, float(thresholds[i]))
        if best is None or cand[0] < best[0] - 1e-12:
            best = cand
    return best


def first_lowest_reference(gini: np.ndarray, valid: np.ndarray) -> list[int]:
    """Each row's feature under the cross-feature rule, -1 where none is valid.

    A row's valid features are visited in ascending order; the first is
    taken, and a later one replaces the best only when its impurity is lower
    by more than 1e-12, as in :func:`best_split_reference`.
    """
    chosen = []
    for row, ok in zip(gini.tolist(), valid.tolist()):
        best: tuple[float, int] | None = None
        for j, (g, is_valid) in enumerate(zip(row, ok)):
            if is_valid and (best is None or g < best[0] - 1e-12):
                best = (g, j)
        chosen.append(-1 if best is None else best[1])
    return chosen


def grow_tree_reference(
    values: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
) -> Tree:
    """One tree grown on its own, each child node a copy of its rows.

    Nodes are grown from an explicit stack, left child first, so they are
    numbered and draw their candidate features in pre-order.
    """
    m = params.resolve_features_per_split(values.shape[1])
    nodes: list[list] = []  # one [feature, threshold, left, right, fraction, weight] each
    # (values, labels, weights, depth, node whose right child this is or -1)
    stack = [(values, labels, weights, 0, -1)]
    while stack:
        x, y, w, depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent][3] = len(nodes)
        total = float(w.sum())
        positive = y == 1
        nodes.append([-1, 0.0, -1, -1, float(w[positive].sum()) / total, total])
        if (
            not 0 < np.count_nonzero(positive) < y.size
            or y.size < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            continue
        candidates = rng.choice(values.shape[1], size=m, replace=False)
        found = best_split_reference(x, y, w, candidates)
        if found is None:
            continue
        _, f, threshold = found
        mask = x[:, f] <= threshold
        if not 0 < np.count_nonzero(mask) < y.size:
            continue  # the midpoint separates nothing
        nodes[-1][:3] = [f, threshold, len(nodes)]
        stack.append((x[~mask], y[~mask], w[~mask], depth + 1, len(nodes) - 1))
        stack.append((x[mask], y[mask], w[mask], depth + 1, -1))
    return Tree(*map(tuple, zip(*nodes)))


def forest_trees_reference(
    values: np.ndarray, labels: np.ndarray, params: ForestParams
) -> tuple[Tree, ...]:
    """The trees of a forest, grown one after another with copied samples."""
    n = labels.size
    if params.class_weight == "balanced":
        n_pos = int(labels.sum())
        weights = np.where(labels == 1, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    else:
        weights = np.ones(n)
    trees = []
    for stream in np.random.SeedSequence(params.seed).spawn(params.num_trees):
        rng = np.random.default_rng(stream)
        idx = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        sample = (values[idx], labels[idx], weights[idx])
        trees.append(grow_tree_reference(*sample, params, rng))
    return tuple(trees)


# --- the forest reader, one tree and one node at a time -------------------------


def _tree_from_dict_reference(data: Mapping, num_features: int) -> Tree:
    lengths = {len(data[name]) for name in TREE_COLUMNS}
    if len(lengths) != 1 or 0 in lengths:
        raise ConfigError("tree columns must be non-empty and of equal length")
    tree = Tree(
        feature=tuple(map(int, data["feature"])),
        threshold=tuple(map(float, data["threshold"])),
        left=tuple(map(int, data["left"])),
        right=tuple(map(int, data["right"])),
        fraction=tuple(map(float, data["fraction"])),
        weight=tuple(map(float, data["weight"])),
    )
    n = len(tree.feature)
    has_parent = [False] * n
    for node, (f, left, right) in enumerate(zip(tree.feature, tree.left, tree.right)):
        if not -1 <= f < num_features:
            raise ConfigError(
                f"node feature index {f} outside embedding length {num_features}"
            )
        if f == -1 and (left, right) != (-1, -1):
            raise ConfigError(f"leaf {node} has children {left}, {right}")
        if f >= 0 and not (node < left < n and node < right < n):
            raise ConfigError(
                f"split {node} has children {left}, {right}; each must come "
                f"after it and before {n}"
            )
        if f >= 0:
            for child in (left, right):
                if has_parent[child]:
                    raise ConfigError(
                        f"node {child} is the child of more than one split"
                    )
                has_parent[child] = True
    if not all(math.isfinite(t) for t in tree.threshold):
        raise ConfigError("node threshold is not finite")
    if not all(0.0 < w < math.inf for w in tree.weight):
        raise ConfigError("node weight must be positive and finite")
    if not all(0.0 <= p <= 1.0 for p in tree.fraction):
        raise ConfigError("node fraction outside [0, 1]")
    return tree


def forest_from_dict_reference(data: Mapping) -> ForestModel:
    """The forest reader that checks one tree at a time and converts with int()/float().

    It takes any value that ``int()``/``float()``/``str()`` accept, so it
    agrees with :func:`boxact.forest.forest_from_dict` only on documents
    whose fields have the types the forest format names.
    """
    if not isinstance(data, Mapping) or data.get("format") != FOREST_FORMAT:
        raise ConfigError("not a serialized forest model")
    if data.get("version") != FOREST_VERSION:
        raise ConfigError(
            f"unsupported forest version {data.get('version')!r} (this boxact "
            f"reads version {FOREST_VERSION}); re-run `boxact train` to rebuild it"
        )
    try:
        params = ForestParams(**data["params"])
        num_features = int(data["num_features"])
        lists = {name: data[name] for name in TREE_COLUMNS}
        offsets = [int(k) for k in data["offsets"]]
        n = len(lists["feature"])
        if any(len(column) != n for column in lists.values()):
            raise ConfigError("tree columns must be non-empty and of equal length")
        if len(offsets) < 2:
            raise ConfigError("forest has no trees")
        if offsets[0] != 0 or offsets[-1] != n:
            raise ConfigError(
                f"offsets must run from 0 to the node count {n}, "
                f"got {offsets[0]} to {offsets[-1]}"
            )
        for tree, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            if lo >= hi:
                raise ConfigError(f"tree {tree} has no nodes: offsets must rise strictly")
        trees = tuple(
            _tree_from_dict_reference(
                {name: column[lo:hi] for name, column in lists.items()}, num_features
            )
            for lo, hi in zip(offsets, offsets[1:])
        )
        # object columns keep each value as int()/float() made it
        columns = tuple(
            np.array([v for tree in trees for v in getattr(tree, name)], dtype=object)
            for name in TREE_COLUMNS
        )
        return ForestModel(
            action_id=str(data["action_id"]),
            columns=columns,
            offsets=np.array(offsets),
            params=params,
            num_features=num_features,
            fingerprint=str(data.get("fingerprint", "")),
        )
    except KeyError as exc:
        raise ConfigError(f"malformed forest: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed forest: {exc}") from None


# --- prediction, one tree and one node at a time ------------------------------


def predict_proba_reference(model: ForestModel, values: Sequence[float]) -> float:
    """Mean of the leaf fractions of one vector, each tree walked node by node."""
    v = [float(x) for x in values]
    fractions = []
    for tree in model.trees:
        node = 0
        while tree.feature[node] >= 0:
            if v[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        fractions.append(tree.fraction[node])
    return float(np.mean(fractions))


# --- synthetic tracks built one frame and one role at a time -------------------


@dataclass(frozen=True)
class _Segment:
    t0: int
    t1: int
    p0: tuple[float, float]
    p1: tuple[float, float]


def _position(segments: Sequence[_Segment], t: int) -> tuple[float, float]:
    """Centre at frame ``t``: the first segment holding ``t`` eases with smoothstep."""
    if t <= segments[0].t0:
        return segments[0].p0
    for seg in segments:
        if seg.t0 <= t <= seg.t1:
            if seg.t1 == seg.t0:
                return seg.p1
            u = (t - seg.t0) / (seg.t1 - seg.t0)
            u = u * u * (3.0 - 2.0 * u)
            return (
                seg.p0[0] + u * (seg.p1[0] - seg.p0[0]),
                seg.p0[1] + u * (seg.p1[1] - seg.p0[1]),
            )
    return segments[-1].p1


def _shift(p: tuple[float, float], d: tuple[float, float]) -> tuple[float, float]:
    return (p[0] + d[0], p[1] + d[1])


def _entity_segments_reference(script: SyntheticScript, layout) -> dict[str, list[_Segment]]:
    n = script.num_frames
    target = layout.o1_target
    grip_at = lambda p: _shift(p, layout.grip)  # noqa: E731 - tiny local helper
    if script.archetype == "pretend-put-next-to":
        t1, h0, h1, r1, x0, te = _pretend_boundaries(script)
        o1_entry = _shift(_hand_entry(layout, target[1]), (-layout.grip[0], 0.0))
        o1_entry = (o1_entry[0], target[1])
        o1 = [
            _Segment(0, t1, o1_entry, o1_entry),
            _Segment(t1, h0, o1_entry, target),
            _Segment(h0, h1, target, target),
            _Segment(h1, r1, target, layout.rest),
            _Segment(r1, n - 1, layout.rest, layout.rest),
        ]
        hand = [
            _Segment(0, t1, grip_at(o1_entry), grip_at(o1_entry)),
            _Segment(t1, h0, grip_at(o1_entry), grip_at(target)),
            _Segment(h0, h1, grip_at(target), grip_at(target)),
            _Segment(h1, r1, grip_at(target), grip_at(layout.rest)),
            _Segment(r1, x0, grip_at(layout.rest), grip_at(layout.rest)),
            _Segment(x0, te, grip_at(layout.rest), _hand_exit(layout, target[1])),
            _Segment(te, n - 1, _hand_exit(layout, target[1]), _hand_exit(layout, target[1])),
        ]
    elif script.archetype == "take-out-of":
        t1, t2, t3, te = _carry_boundaries(script)
        hand_entry = _hand_entry(layout, grip_at(target)[1])
        trailing_half = max(
            layout.hand_size[0] / 2.0, -layout.grip[0] + layout.o1_size[0] / 2.0
        )
        hand_exit = (-2.0 - trailing_half, grip_at(target)[1])
        o1_exit = _shift(hand_exit, (-layout.grip[0], -layout.grip[1]))
        o1 = [
            _Segment(0, t3, target, target),
            _Segment(t3, te, target, o1_exit),
            _Segment(te, n - 1, o1_exit, o1_exit),
        ]
        hand = [
            _Segment(0, t1, hand_entry, hand_entry),
            _Segment(t1, t2, hand_entry, grip_at(target)),
            _Segment(t2, t3, grip_at(target), grip_at(target)),
            _Segment(t3, te, grip_at(target), hand_exit),
            _Segment(te, n - 1, hand_exit, hand_exit),
        ]
    else:
        t1, t2, t3, te = _carry_boundaries(script)
        o1_entry = _shift(_hand_entry(layout, target[1]), (-layout.grip[0], 0.0))
        o1_entry = (o1_entry[0], target[1])
        hand_exit = _hand_exit(layout, grip_at(target)[1])
        o1 = [
            _Segment(0, t1, o1_entry, o1_entry),
            _Segment(t1, t2, o1_entry, target),
            _Segment(t2, n - 1, target, target),
        ]
        hand = [
            _Segment(0, t1, grip_at(o1_entry), grip_at(o1_entry)),
            _Segment(t1, t2, grip_at(o1_entry), grip_at(target)),
            _Segment(t2, t3, grip_at(target), grip_at(target)),
            _Segment(t3, te, grip_at(target), hand_exit),
            _Segment(te, n - 1, hand_exit, hand_exit),
        ]
    o2 = [_Segment(0, n - 1, layout.o2_centre, layout.o2_centre)]
    return {"object1": o1, "object2": o2, "hand": hand}


def _apply_noise_reference(boxes: np.ndarray, present: np.ndarray, noise: NoiseParams) -> None:
    """Jitter, then one uniform per frame after the first for the copy-lag."""
    rng = np.random.default_rng(noise.seed)
    if noise.jitter_sigma > 0:
        jittered = boxes[present] + rng.normal(
            0.0, noise.jitter_sigma, size=(int(present.sum()), 4)
        )
        jittered[:, 2:] = np.maximum(1.0, jittered[:, 2:])
        boxes[present] = jittered
    if noise.copy_lag_prob > 0:
        lagged = False
        for t in range(1, len(boxes)):
            u = rng.random()
            same_roles = bool((present[t] == present[t - 1]).all())
            if not lagged and same_roles and u < noise.copy_lag_prob:
                boxes[t] = boxes[t - 1]
                lagged = True
            else:
                lagged = False


def generate_synthetic_reference(script: SyntheticScript) -> tuple[np.ndarray, np.ndarray]:
    """``(boxes, present)`` of a script, positions looked up per frame and role."""
    layout = _draw_layout(script.archetype, np.random.default_rng(script.layout_seed))
    segments = _entity_segments_reference(script, layout)
    sizes = {"object1": layout.o1_size, "object2": layout.o2_size, "hand": layout.hand_size}
    n = script.num_frames
    boxes = np.zeros((n, len(ROLES), 4))
    present = np.zeros((n, len(ROLES)), dtype=bool)
    for r, role in enumerate(ROLES):
        w, h = sizes[role]
        for t in range(n):
            cx, cy = _position(segments[role], t)
            x, y = cx - w / 2.0, cy - h / 2.0
            if x < FRAME_WIDTH and x + w > 0 and y < FRAME_HEIGHT and y + h > 0:
                boxes[t, r] = (x, y, w, h)
                present[t, r] = True
    _apply_noise_reference(boxes, present, script.noise)
    return boxes, present
