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
The parser checks the JSON structure; ``VideoTrack`` checks every numeric
invariant on whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import AnnotationError, read_json, write_json

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

    The arrays are made read-only, so a track never changes once built.
    """

    video_id: str
    frames: np.ndarray
    boxes: np.ndarray
    present: np.ndarray
    frame_width: float
    frame_height: float
    label: str | None = None

    def __post_init__(self) -> None:
        where = f"video {self.video_id!r}"
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
        step = np.flatnonzero(frames[1:] <= frames[:-1])
        if step.size:
            t = step[0]
            raise AnnotationError(
                f"{where}: frame indices must be strictly increasing, got "
                f"{frames[t]} then {frames[t + 1]}"
            )
        bad_value = ~(np.abs(boxes) <= COORDINATE_LIMIT)  # NaN compares false
        bad_extent = (boxes[:, :, 2] < 0) | (boxes[:, :, 3] < 0)
        bad_box = bad_value.any(axis=2) | bad_extent
        if bad_box.any():
            t, r = np.argwhere(bad_box)[0]
            x, y, w, h = boxes[t, r].tolist()
            at = f"{where} frame {int(frames[t])!r}"
            for name, v in zip(_FIELDS, (x, y, w, h)):
                if not math.isfinite(v):
                    raise AnnotationError(f"{at}: box field {name!r} must be finite, got {v!r}")
                if abs(v) > COORDINATE_LIMIT:
                    raise AnnotationError(
                        f"{at}: box field {name!r} must lie within "
                        f"+/-{COORDINATE_LIMIT:g} px, got {v!r}"
                    )
            raise AnnotationError(f"{at}: box extent must be non-negative, got w={w}, h={h}")
        absent = np.argwhere(~present & boxes.any(axis=2))
        if absent.size:
            t, r = absent[0]
            raise AnnotationError(
                f"{where} frame {int(frames[t])!r}: absent {ROLES[r]!r} must have an "
                f"all-zero box"
            )
        size = (self.frame_width, self.frame_height)
        if not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in size
        ):
            raise AnnotationError(
                f"{where}: frame size must be finite, got {size[0]!r} x {size[1]!r}"
            )
        if size[0] <= 0 or size[1] <= 0:
            raise AnnotationError(f"{where}: frame size must be positive")
        for array in (frames, boxes, present):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.frames)


def _float(value: int | float) -> float:
    """``value`` as a float; an integer too large for one reads as +/-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse_box(entry: object, video_id: str, idx: int) -> tuple[int, list]:
    """Role index and the four raw numbers of one box entry."""
    if not isinstance(entry, dict):
        raise AnnotationError(f"video {video_id!r} frame {idx!r}: box entry must be an object")
    role = entry.get("role")
    if role not in ROLES:
        raise AnnotationError(
            f"video {video_id!r} frame {idx!r}: unknown role {role!r}, expected one of {ROLES}"
        )
    values = []
    for key in _FIELDS:
        if key not in entry:
            raise AnnotationError(
                f"video {video_id!r} frame {idx!r}: box for {role!r} is missing {key!r}"
            )
        v = entry[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise AnnotationError(
                f"video {video_id!r} frame {idx!r}: box field {key!r} must be a number"
            )
        values.append(v)
    return _ROLE_INDEX[role], values


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
    count = len(raw_frames)
    indices = []
    values = [0.0] * (12 * count)
    present = [False] * (3 * count)
    for t, frame in enumerate(raw_frames):
        if not isinstance(frame, dict):
            raise AnnotationError(f"video {video_id!r}: frame must be an object")
        idx = frame.get("idx")
        if isinstance(idx, bool) or not isinstance(idx, int) or idx < 0:
            raise AnnotationError(
                f"video {video_id!r}: frame 'idx' must be a non-negative integer, "
                f"got {idx!r}"
            )
        if idx > _MAX_INDEX:
            raise AnnotationError(
                f"video {video_id!r}: frame 'idx' must be at most {_MAX_INDEX}, got {idx!r}"
            )
        boxes = frame.get("boxes", [])
        if not isinstance(boxes, list):
            raise AnnotationError(f"video {video_id!r} frame {idx!r}: 'boxes' must be a list")
        for entry in boxes:
            r, box = _parse_box(entry, video_id, idx)
            slot = 3 * t + r
            if present[slot]:
                raise AnnotationError(
                    f"video {video_id!r} frame {idx!r}: duplicate role {ROLES[r]!r}"
                )
            present[slot] = True
            values[4 * slot : 4 * slot + 4] = box
        indices.append(idx)
    frames = np.array(indices, dtype=np.int64)
    order = np.argsort(frames, kind="stable")
    frames = frames[order]
    repeated = np.flatnonzero(frames[1:] == frames[:-1])
    if repeated.size:
        raise AnnotationError(
            f"video {video_id!r}: duplicate frame index {int(frames[repeated[0]])}"
        )
    try:
        box_array = np.array(values, dtype=np.float64)
    except OverflowError:
        box_array = np.array([_float(v) for v in values])
    return VideoTrack(
        video_id=video_id,
        frames=frames,
        boxes=box_array.reshape(count, 3, 4)[order],
        present=np.array(present).reshape(count, 3)[order],
        frame_width=size[0],
        frame_height=size[1],
        label=label,
    )


def parse_annotations(document: object) -> list[VideoTrack]:
    """Parse an already-decoded annotation document (top-level list)."""
    if not isinstance(document, list):
        raise AnnotationError("annotation document must be a list of videos")
    tracks = [_parse_video(rec, i) for i, rec in enumerate(document)]
    seen: set[str] = set()
    for t in tracks:
        if t.video_id in seen:
            raise AnnotationError(f"duplicate video id {t.video_id!r}")
        seen.add(t.video_id)
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
    return parse_annotations(read_json(path, AnnotationError))


def write_annotation_file(path: str | Path, tracks: Sequence[VideoTrack]) -> None:
    write_json(path, serialize_annotations(tracks))
