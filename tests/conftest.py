"""Shared builders for the test suite."""

from __future__ import annotations

from boxact.tracks import VideoTrack

from oracles import BoundingBox, FrameAnnotation, track_arrays


def box(x: float, y: float, w: float = 10.0, h: float = 10.0) -> BoundingBox:
    return BoundingBox(x=x, y=y, w=w, h=h)


def make_track(
    frames: list[FrameAnnotation],
    video_id: str = "v0",
    width: float = 320.0,
    height: float = 240.0,
    label: str | None = None,
) -> VideoTrack:
    indices, boxes, present = track_arrays(frames)
    return VideoTrack(
        video_id=video_id,
        frames=indices,
        boxes=boxes,
        present=present,
        frame_width=width,
        frame_height=height,
        label=label,
    )


def moving_track(positions: dict[str, list[tuple[float, float] | None]]) -> VideoTrack:
    """Track from per-role centre lists; None marks an absent entity."""
    num = max(len(v) for v in positions.values())
    frames = []
    for t in range(num):
        kwargs = {}
        for role, centres in positions.items():
            c = centres[t] if t < len(centres) else None
            if c is not None:
                kwargs[role] = BoundingBox(x=c[0] - 5.0, y=c[1] - 5.0, w=10.0, h=10.0)
        frames.append(FrameAnnotation(frame_index=t, **kwargs))
    return make_track(frames)
