"""Bounding-box tracks and annotation file I/O.

An annotation file is a single JSON document whose top level is a list of
video records:

    [{"id": "v0", "width": 320, "height": 240, "label": "put-into",
      "frames": [{"idx": 0,
                  "boxes": [{"role": "object1", "x": 1.0, "y": 2.0,
                             "w": 3.0, "h": 4.0}]}]}]

``label`` is optional.  Roles are restricted to ``object1``, ``object2`` and
``hand``; a missing box means the entity is not visible in that frame.
Coordinates are pixels, y grows downward; the frame size must be finite and
positive.

A parsed video is a :class:`VideoTrack`: three read-only arrays over its
``T`` annotated frames, sorted by frame index.  ``frames`` holds the frame
indices, ``boxes`` the ``x, y, w, h`` of every role in :data:`ROLES` order
(zero where the role is absent) and ``present`` which roles are visible.
:func:`parse_annotations` reads a whole document in one pass: it checks
every record's fields, checks the JSON structure of all frames and box
entries on whole lists, builds the corpus arrays with one ``np.fromiter``,
sorts them once by video and frame index and checks the numeric track rules
once on the corpus, with the same function that :class:`VideoTrack` runs
on a track built in code.  Each parsed track is then a read-only view of
its rows and is not checked again.  Only when a check fails does the parser
walk the document video by video, in document order, to name the first
offending record, frame or box.
"""

from __future__ import annotations

import gc
import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import AnnotationError, all_instances, prefixed, read_json, write_json

__all__ = [
    "ROLES",
    "COORDINATE_LIMIT",
    "VideoTrack",
    "parse_annotations",
    "serialize_annotations",
    "load_annotation_file",
    "write_annotation_file",
]

ROLES = ("object1", "object2", "hand")
_FIELDS = ("x", "y", "w", "h")
_ROLE_INDEX = {role: i for i, role in enumerate(ROLES)}
_MAX_INDEX = np.iinfo(np.int64).max

# Largest accepted |coordinate| and extent, in pixels.  Far beyond any real
# frame, and small enough that every area, overlap ratio and distance the
# relations derive from a box stays finite.
COORDINATE_LIMIT = 1e9


@dataclass(frozen=True)
class VideoTrack:
    """One video's annotation as arrays, plus an optional activity label.

    frames: int64 ``(T,)`` annotated frame indices, strictly increasing.
    boxes: float64 ``(T, 3, 4)`` boxes ``x, y, w, h`` per role in ``ROLES``
        order, all zero where the role is absent.
    present: bool ``(T, 3)`` visibility of each role.

    The arrays are made read-only, so a track never changes once built.  A
    track follows the annotation file's rules too: a non-empty string id, a
    string or no label and non-negative frame indices, so the file that
    :func:`write_annotation_file` writes for it parses.
    """

    video_id: str
    frames: np.ndarray
    boxes: np.ndarray
    present: np.ndarray
    frame_width: float
    frame_height: float
    label: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.video_id, str) or not self.video_id:
            raise AnnotationError(f"video id must be a non-empty string, got {self.video_id!r}")
        where = f"video {self.video_id!r}"
        if self.label is not None and not isinstance(self.label, str):
            raise AnnotationError(f"{where}: label must be a string")
        frames, boxes, present = self.frames, self.boxes, self.present
        for name, array, dtype, shape in (
            ("frames", frames, np.int64, "(T,)"),
            ("boxes", boxes, np.float64, "(T, 3, 4)"),
            ("present", present, np.bool_, "(T, 3)"),
        ):
            if not isinstance(array, np.ndarray) or array.dtype != dtype:
                raise AnnotationError(
                    f"{where}: {name} must be a {np.dtype(dtype)} array of shape {shape}"
                )
        count = frames.shape[0] if frames.ndim == 1 else -1
        if boxes.shape != (count, 3, 4) or present.shape != (count, 3):
            raise AnnotationError(
                f"{where}: frames, boxes and present must have shapes (T,), "
                f"(T, 3, 4) and (T, 3), got {frames.shape}, {boxes.shape} "
                f"and {present.shape}"
            )
        if count == 0:
            raise AnnotationError(f"{where}: track has no frames")
        size = (self.frame_width, self.frame_height)
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in size)
        if not (numbers and _rules_hold(frames, boxes, present, np.array([[*map(_float, size)]]),
                                        np.array([0, count]))):
            raise _broken_rule(where, frames, boxes, present, size)
        for array in (frames, boxes, present):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.frames)


def _rules_hold(
    frames: np.ndarray, boxes: np.ndarray, present: np.ndarray, sizes: np.ndarray,
    offsets: np.ndarray,
) -> bool:
    """Whether rows of well-formed track arrays keep every numeric track rule.

    The rows are video ``v``'s in ``offsets[v]:offsets[v + 1]``, and
    ``sizes`` holds each video's frame width and height as floats: one
    track, or a whole corpus sorted by video and frame index.  Frame indices
    rise strictly from a non-negative first index within each video; box
    values are finite and within :data:`COORDINATE_LIMIT`, extents
    non-negative and an absent role's box all zero; frame sizes are finite
    and positive.
    """
    rising = frames[1:] > frames[:-1]
    rising[offsets[1:-1] - 1] = True  # a video may start below the last one's end
    return bool(
        rising.all()
        and frames[offsets[:-1]].min() >= 0
        and (np.abs(boxes) <= COORDINATE_LIMIT).all()  # NaN compares false
        and (boxes[:, :, 2:] >= 0).all()
        and not (~present & boxes.any(axis=2)).any()
        and (np.isfinite(sizes) & (sizes > 0)).all()
    )


def _broken_rule(
    where: str, frames: np.ndarray, boxes: np.ndarray, present: np.ndarray, size: tuple
) -> AnnotationError:
    """The error for the first numeric rule that one track breaks."""
    step = np.flatnonzero(frames[1:] <= frames[:-1])
    if step.size:
        t = step[0]
        return AnnotationError(
            f"{where}: frame indices must be strictly increasing, got "
            f"{frames[t]} then {frames[t + 1]}"
        )
    if frames[0] < 0:
        return AnnotationError(f"{where}: frame indices must be non-negative, got {frames[0]}")
    bad_value = ~(np.abs(boxes) <= COORDINATE_LIMIT)  # NaN compares false
    bad_extent = (boxes[:, :, 2] < 0) | (boxes[:, :, 3] < 0)
    bad_box = bad_value.any(axis=2) | bad_extent
    if bad_box.any():
        t, r = np.argwhere(bad_box)[0]
        x, y, w, h = boxes[t, r].tolist()
        at = f"{where} frame {int(frames[t])!r}"
        for name, v in zip(_FIELDS, (x, y, w, h)):
            if not math.isfinite(v):
                return AnnotationError(f"{at}: box field {name!r} must be finite, got {v!r}")
            if abs(v) > COORDINATE_LIMIT:
                return AnnotationError(
                    f"{at}: box field {name!r} must lie within "
                    f"+/-{COORDINATE_LIMIT:g} px, got {v!r}"
                )
        return AnnotationError(f"{at}: box extent must be non-negative, got w={w}, h={h}")
    absent = ~present & boxes.any(axis=2)
    if absent.any():
        t, r = np.argwhere(absent)[0]
        return AnnotationError(
            f"{where} frame {int(frames[t])!r}: absent {ROLES[r]!r} must have an "
            f"all-zero box"
        )
    if not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(_float(v))
        for v in size
    ):
        return AnnotationError(f"{where}: frame size must be finite, got {size[0]!r} x {size[1]!r}")
    return AnnotationError(f"{where}: frame size must be positive")


def _float(value: int | float) -> float:
    """``value`` as a float; an integer too large for one reads as +/-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


_INDEX = operator.itemgetter("idx")
_ROLE = operator.itemgetter("role")
_BOX_VALUES = operator.itemgetter(*_FIELDS)


def _frame_arrays(raw_frames: list) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Frame indices, boxes and presence of frames in document order.

    The frames are one video's or all of a document's.  The structure is
    checked on whole lists, one pass over the frames and one over all their
    box entries; None means some frame or box breaks a rule, and
    :func:`_first_offender` names it.  Box values are only converted here:
    :func:`_rules_hold` checks them.
    """
    if not all_instances(raw_frames, dict):
        return None
    try:
        indices = list(map(_INDEX, raw_frames))
        if not all_instances(indices, int, bool):
            return None
        frames = np.array(indices, dtype=np.int64)
    except (KeyError, OverflowError):  # a missing or a non-int64 index
        return None
    box_lists = [frame.get("boxes", []) for frame in raw_frames]
    if frames.min() < 0 or not all_instances(box_lists, list):
        return None
    entries = list(itertools.chain.from_iterable(box_lists))
    if not all_instances(entries, dict):
        return None
    try:
        roles = np.array(list(map(_ROLE_INDEX.__getitem__, map(_ROLE, entries))), dtype=np.intp)
        values = list(map(_BOX_VALUES, entries))
    except (KeyError, TypeError):  # a missing field, or a role that is not a name in ROLES
        return None
    if not all_instances(itertools.chain.from_iterable(values), (int, float), bool):
        return None
    count = len(raw_frames)
    slots = 3 * np.repeat(np.arange(count), list(map(len, box_lists))) + roles
    taken = np.bincount(slots, minlength=3 * count)
    if taken.max() > 1:  # a duplicate role
        return None
    try:
        flat = np.fromiter(
            itertools.chain.from_iterable(values), dtype=np.float64, count=4 * len(entries)
        )
    except OverflowError:
        flat = np.array([_float(v) for v in itertools.chain.from_iterable(values)])
    boxes = np.zeros((3 * count, 4))
    boxes[slots] = flat.reshape(-1, 4)
    return frames, boxes.reshape(count, 3, 4), taken.reshape(count, 3) > 0


def _first_offender(video_id: str, raw_frames: list) -> AnnotationError:
    """The error for the first frame or box, in document order, that breaks a rule."""
    for frame in raw_frames:
        if not isinstance(frame, dict):
            return AnnotationError(f"video {video_id!r}: frame must be an object")
        idx = frame.get("idx")
        if isinstance(idx, bool) or not isinstance(idx, int) or idx < 0:
            return AnnotationError(
                f"video {video_id!r}: frame 'idx' must be a non-negative integer, "
                f"got {idx!r}"
            )
        if idx > _MAX_INDEX:
            return AnnotationError(
                f"video {video_id!r}: frame 'idx' must be at most {_MAX_INDEX}, got {idx!r}"
            )
        where = f"video {video_id!r} frame {idx!r}"
        boxes = frame.get("boxes", [])
        if not isinstance(boxes, list):
            return AnnotationError(f"{where}: 'boxes' must be a list")
        seen = set()
        for entry in boxes:
            if not isinstance(entry, dict):
                return AnnotationError(f"{where}: box entry must be an object")
            role = entry.get("role")
            if role not in ROLES:
                return AnnotationError(f"{where}: unknown role {role!r}, expected one of {ROLES}")
            for key in _FIELDS:
                if key not in entry:
                    return AnnotationError(f"{where}: box for {role!r} is missing {key!r}")
                if isinstance(entry[key], bool) or not isinstance(entry[key], (int, float)):
                    return AnnotationError(f"{where}: box field {key!r} must be a number")
            if role in seen:
                return AnnotationError(f"{where}: duplicate role {role!r}")
            seen.add(role)
    # only a container type that breaks the rules of dict or list gets here
    return AnnotationError(f"video {video_id!r}: frames are not JSON objects and lists")


def _parse_video(record: object, position: int) -> VideoTrack:
    if not isinstance(record, dict):
        raise AnnotationError(f"record #{position}: video record must be an object")
    video_id = record.get("id")
    if not isinstance(video_id, str) or not video_id:
        raise AnnotationError(f"record #{position}: missing or empty 'id'")
    size = []
    for key in ("width", "height"):
        v = record.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise AnnotationError(f"video {video_id!r}: missing numeric {key!r}")
        size.append(_float(v))
    label = record.get("label")
    if label is not None and not isinstance(label, str):
        raise AnnotationError(f"video {video_id!r}: label must be a string")
    raw_frames = record.get("frames")
    if not isinstance(raw_frames, list) or not raw_frames:
        raise AnnotationError(f"video {video_id!r}: 'frames' must be a non-empty list")
    arrays = _frame_arrays(raw_frames)
    if arrays is None:
        raise _first_offender(video_id, raw_frames)
    frames, boxes, present = arrays
    order = np.argsort(frames, kind="stable")
    frames = frames[order]
    repeated = np.flatnonzero(frames[1:] == frames[:-1])
    if repeated.size:
        raise AnnotationError(
            f"video {video_id!r}: duplicate frame index {int(frames[repeated[0]])}"
        )
    return VideoTrack(
        video_id=video_id,
        frames=frames,
        boxes=boxes[order],
        present=present[order],
        frame_width=size[0],
        frame_height=size[1],
        label=label,
    )


def _check_unique(ids: Iterable[str]) -> None:
    """Raise :class:`AnnotationError` naming the first id that repeats an earlier one."""
    seen: set[str] = set()
    for video_id in ids:
        if video_id in seen:
            raise AnnotationError(f"duplicate video id {video_id!r}")
        seen.add(video_id)


def _corpus_tracks(document: list) -> list[VideoTrack] | None:
    """The tracks of a document that breaks no rule, checked in one pass; else None.

    Each track is a read-only view of its rows of the corpus arrays.
    """
    if not document:
        return []
    if not all_instances(document, dict):
        return None
    ids = [record.get("id") for record in document]
    labels = [record.get("label") for record in document]
    raw_frames = [record.get("frames") for record in document]
    sizes = [(record.get("width"), record.get("height")) for record in document]
    if not (
        all_instances(ids, str) and all(ids) and len(set(ids)) == len(ids)
        and all_instances(labels, (str, type(None)))
        and all_instances(raw_frames, list) and all(raw_frames)
        and all_instances(itertools.chain.from_iterable(sizes), (int, float), bool)
    ):
        return None
    arrays = _frame_arrays(list(itertools.chain.from_iterable(raw_frames)))
    if arrays is None:
        return None
    lengths = list(map(len, raw_frames))
    offsets = np.zeros(len(document) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    order = np.lexsort((arrays[0], np.repeat(np.arange(len(document)), lengths)))
    frames, boxes, present = (array[order] for array in arrays)
    sizes = [(_float(width), _float(height)) for width, height in sizes]
    if not _rules_hold(frames, boxes, present, np.array(sizes), offsets):
        return None
    for array in (frames, boxes, present):
        array.flags.writeable = False
    tracks = []
    for video_id, label, (width, height), start, stop in zip(
        ids, labels, sizes, offsets[:-1].tolist(), offsets[1:].tolist()
    ):
        track = object.__new__(VideoTrack)  # checked above, as part of the corpus
        track.__dict__.update(
            video_id=video_id, frames=frames[start:stop], boxes=boxes[start:stop],
            present=present[start:stop], frame_width=width, frame_height=height, label=label,
        )
        tracks.append(track)
    return tracks


def parse_annotations(document: object) -> list[VideoTrack]:
    """Parse an already-decoded annotation document (top-level list).

    The document is checked in one pass over all its videos; only when that
    fails is it parsed video by video, to raise the error for the first
    offender in document order.
    """
    if not isinstance(document, list):
        raise AnnotationError("annotation document must be a list of videos")
    tracks = _corpus_tracks(document)
    if tracks is None:
        tracks = [_parse_video(rec, i) for i, rec in enumerate(document)]
        _check_unique(t.video_id for t in tracks)
    return tracks


def serialize_annotations(tracks: Iterable[VideoTrack]) -> list[dict]:
    """Inverse of :func:`parse_annotations`; round-trips exactly."""
    out = []
    for t in tracks:
        boxes, present = t.boxes.tolist(), t.present.tolist()
        frames = [
            {
                "idx": idx,
                "boxes": [
                    {"role": role, "x": x, "y": y, "w": w, "h": h}
                    for role, (x, y, w, h), seen in zip(ROLES, boxes[i], present[i])
                    if seen
                ],
            }
            for i, idx in enumerate(t.frames.tolist())
        ]
        record: dict = {
            "id": t.video_id,
            "width": t.frame_width,
            "height": t.frame_height,
            "frames": frames,
        }
        if t.label is not None:
            record["label"] = t.label
        out.append(record)
    return out


def load_annotation_file(path: str | Path) -> list[VideoTrack]:
    """Read and parse an annotation file; errors name the file.

    The decoded document holds no reference cycles and refcounting frees it,
    so the cyclic garbage collector, which would otherwise walk its many new
    lists and dicts over and over, is paused from decoding until the document
    is released, then left as the caller had it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        document = read_json(path, AnnotationError)
        with prefixed(path):
            tracks = parse_annotations(document)
        del document
        return tracks
    finally:
        if enabled:
            gc.enable()


def write_annotation_file(path: str | Path, tracks: Sequence[VideoTrack]) -> None:
    """Write ``tracks`` as an annotation file.

    Tracks that share a video id raise :class:`AnnotationError` naming the
    id before any file is opened, since no reader would accept the file.
    """
    with prefixed(path):
        _check_unique(t.video_id for t in tracks)
    write_json(path, serialize_annotations(tracks))
