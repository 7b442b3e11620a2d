"""Bounding-box track containers and annotation file I/O.

An annotation file is a single JSON document whose top level is a list of
video records:

    [{"id": "v0", "width": 320, "height": 240, "label": "put-into",
      "frames": [{"idx": 0,
                  "boxes": [{"role": "object1", "x": 1.0, "y": 2.0,
                             "w": 3.0, "h": 4.0}]}]}]

``label`` is optional.  Roles are restricted to ``object1``, ``object2`` and
``hand``; a missing box means the entity is not visible in that frame.
Coordinates are pixels, y grows downward.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import AnnotationError, read_json

__all__ = [
    "ROLES",
    "COORDINATE_LIMIT",
    "BoundingBox",
    "FrameAnnotation",
    "VideoTrack",
    "parse_annotations",
    "serialize_annotations",
    "load_annotation_file",
    "write_annotation_file",
]

ROLES = ("object1", "object2", "hand")

# Largest accepted |coordinate| and extent, in pixels.  Far beyond any real
# frame, and small enough that every area, overlap ratio and distance the
# relations derive from a box stays finite.
COORDINATE_LIMIT = 1e9


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
        if role not in ROLES:
            raise AnnotationError(f"unknown role {role!r}, expected one of {ROLES}")
        return getattr(self, role)

    def present(self, role: str) -> bool:
        return self.box(role) is not None


@dataclass(frozen=True)
class VideoTrack:
    """One video's annotation: ordered frames plus optional activity label."""

    video_id: str
    frames: tuple[FrameAnnotation, ...]
    frame_width: float
    frame_height: float
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.frames:
            raise AnnotationError(f"video {self.video_id!r}: track has no frames")
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

    def __len__(self) -> int:
        return len(self.frames)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AnnotationError(message)


def _parse_box(entry: object, video_id: str, idx: object) -> tuple[str, BoundingBox]:
    where = f"video {video_id!r} frame {idx!r}"
    _require(isinstance(entry, dict), f"{where}: box entry must be an object")
    assert isinstance(entry, dict)
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
        box = BoundingBox(
            float(entry["x"]), float(entry["y"]), float(entry["w"]), float(entry["h"])
        )
    except AnnotationError as exc:
        raise AnnotationError(f"{where}: {exc}") from None
    return role, box


def _parse_video(record: object, position: int) -> VideoTrack:
    _require(
        isinstance(record, dict), f"record #{position}: video record must be an object"
    )
    assert isinstance(record, dict)
    video_id = record.get("id")
    _require(
        isinstance(video_id, str) and bool(video_id),
        f"record #{position}: missing or empty 'id'",
    )
    for key in ("width", "height"):
        _require(
            isinstance(record.get(key), (int, float)),
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
    assert isinstance(raw_frames, list)
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
            role, box = _parse_box(entry, video_id, idx)
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
    return VideoTrack(
        video_id=video_id,
        frames=tuple(frames),
        frame_width=float(record["width"]),
        frame_height=float(record["height"]),
        label=label,
    )


def parse_annotations(document: object) -> list[VideoTrack]:
    """Parse an already-decoded annotation document (top-level list)."""
    _require(isinstance(document, list), "annotation document must be a list of videos")
    assert isinstance(document, list)
    tracks = [_parse_video(rec, i) for i, rec in enumerate(document)]
    seen: set[str] = set()
    for t in tracks:
        _require(t.video_id not in seen, f"duplicate video id {t.video_id!r}")
        seen.add(t.video_id)
    return tracks


def serialize_annotations(tracks: Iterable[VideoTrack]) -> list[dict]:
    """Inverse of :func:`parse_annotations`; round-trips exactly."""
    out = []
    for t in tracks:
        frames = []
        for f in t.frames:
            boxes = []
            for role in ROLES:
                b = f.box(role)
                if b is not None:
                    boxes.append(
                        {"role": role, "x": b.x, "y": b.y, "w": b.w, "h": b.h}
                    )
            frames.append({"idx": f.frame_index, "boxes": boxes})
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
    document = serialize_annotations(tracks)
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
