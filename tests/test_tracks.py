from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from boxact.errors import AnnotationError
from boxact.tracks import (
    COORDINATE_LIMIT,
    ROLES,
    BoundingBox,
    FrameAnnotation,
    VideoTrack,
    parse_annotations,
    serialize_annotations,
    load_annotation_file,
    write_annotation_file,
)

DOC = [
    {
        "id": "v0",
        "width": 320,
        "height": 240,
        "label": "put-into",
        "frames": [
            {
                "idx": 0,
                "boxes": [
                    {"role": "object2", "x": 100.0, "y": 80.0, "w": 60.0, "h": 50.0}
                ],
            },
            {
                "idx": 1,
                "boxes": [
                    {"role": "object2", "x": 100.0, "y": 80.0, "w": 60.0, "h": 50.0},
                    {"role": "hand", "x": 0.0, "y": 90.0, "w": 30.0, "h": 25.0},
                ],
            },
        ],
    }
]


def test_parse_basic_document():
    tracks = parse_annotations(DOC)
    assert len(tracks) == 1
    t = tracks[0]
    assert t.video_id == "v0"
    assert t.label == "put-into"
    assert (t.frame_width, t.frame_height) == (320.0, 240.0)
    assert len(t) == 2
    assert t.frames[0].object1 is None
    assert t.frames[0].present("object2")
    assert t.frames[1].hand == BoundingBox(0.0, 90.0, 30.0, 25.0)


def test_label_is_optional():
    doc = [dict(DOC[0])]
    del doc[0]["label"]
    assert parse_annotations(doc)[0].label is None


def test_out_of_order_frames_come_back_sorted():
    doc = [dict(DOC[0], frames=list(reversed(DOC[0]["frames"])))]
    t = parse_annotations(doc)[0]
    assert [f.frame_index for f in t.frames] == [0, 1]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("id"), "missing or empty 'id'"),
        (lambda d: d.update(id=""), "missing or empty 'id'"),
        (lambda d: d.pop("width"), "missing numeric"),
        (lambda d: d.update(frames=[]), "non-empty list"),
        (lambda d: d.update(label=3), "label must be a string"),
    ],
)
def test_bad_video_records(mutate, message):
    doc = [dict(DOC[0])]
    mutate(doc[0])
    with pytest.raises(AnnotationError, match=message):
        parse_annotations(doc)


def test_duplicate_frame_index_rejected():
    frames = [DOC[0]["frames"][0], dict(DOC[0]["frames"][1], idx=0)]
    with pytest.raises(AnnotationError, match="duplicate frame index"):
        parse_annotations([dict(DOC[0], frames=frames)])


def test_duplicate_role_rejected():
    frame = {
        "idx": 0,
        "boxes": [
            {"role": "hand", "x": 0, "y": 0, "w": 1, "h": 1},
            {"role": "hand", "x": 5, "y": 5, "w": 1, "h": 1},
        ],
    }
    with pytest.raises(AnnotationError, match="duplicate role"):
        parse_annotations([dict(DOC[0], frames=[frame])])


def test_duplicate_video_id_rejected():
    with pytest.raises(AnnotationError, match="duplicate video id"):
        parse_annotations([DOC[0], dict(DOC[0])])


def test_unknown_role_rejected():
    frame = {"idx": 0, "boxes": [{"role": "foot", "x": 0, "y": 0, "w": 1, "h": 1}]}
    with pytest.raises(AnnotationError, match="unknown role 'foot'"):
        parse_annotations([dict(DOC[0], frames=[frame])])


@pytest.mark.parametrize("bad", [{"w": -1}, {"x": float("nan")}, {"h": float("inf")}])
def test_bad_box_values_rejected(bad):
    entry = {"role": "hand", "x": 0.0, "y": 0.0, "w": 1.0, "h": 1.0}
    entry.update(bad)
    with pytest.raises(AnnotationError):
        parse_annotations([dict(DOC[0], frames=[{"idx": 0, "boxes": [entry]}])])


def test_box_properties():
    b = BoundingBox(2.0, 3.0, 10.0, 20.0)
    assert b.x2 == 12.0 and b.y2 == 23.0
    assert b.centre == (7.0, 13.0)
    assert b.area == 200.0


def test_huge_box_values_rejected():
    # w = h = 1e200 once parsed, and gave an infinite size and a NaN overlap
    for bad in ({"w": 1e200, "h": 1e200}, {"x": -2 * COORDINATE_LIMIT}, {"y": 1e10}):
        entry = {"role": "hand", "x": 0.0, "y": 0.0, "w": 1.0, "h": 1.0, **bad}
        with pytest.raises(AnnotationError, match="must lie within"):
            parse_annotations([dict(DOC[0], frames=[{"idx": 0, "boxes": [entry]}])])
    edge = BoundingBox(-COORDINATE_LIMIT, COORDINATE_LIMIT, COORDINATE_LIMIT, 0.0)
    assert edge.x == -COORDINATE_LIMIT


def test_track_requires_increasing_indices():
    f = FrameAnnotation(frame_index=0)
    with pytest.raises(AnnotationError, match="strictly increasing"):
        VideoTrack("v", (f, f), 10.0, 10.0)


coords = st.floats(min_value=-500, max_value=500, allow_nan=False).map(
    lambda v: round(v, 3)
)
extents = st.floats(min_value=0, max_value=300, allow_nan=False).map(
    lambda v: round(v, 3)
)
boxes = st.builds(BoundingBox, coords, coords, extents, extents)
frame_sets = st.lists(st.integers(min_value=0, max_value=400), min_size=1, unique=True)


@st.composite
def video_tracks(draw):
    indices = sorted(draw(frame_sets))
    frames = []
    for idx in indices:
        present = draw(st.sets(st.sampled_from(ROLES)))
        frames.append(
            FrameAnnotation(
                frame_index=idx, **{role: draw(boxes) for role in present}
            )
        )
    label = draw(st.one_of(st.none(), st.sampled_from(["x", "put-into"])))
    return VideoTrack(
        video_id=draw(st.text(min_size=1, max_size=8)),
        frames=tuple(frames),
        frame_width=320.0,
        frame_height=240.0,
        label=label,
    )


@given(st.lists(video_tracks(), max_size=4))
@settings(max_examples=60, deadline=None)
def test_parse_serialize_round_trip(tracks):
    ids = [t.video_id for t in tracks]
    if len(set(ids)) != len(ids):
        tracks = [
            VideoTrack(f"v{i}", t.frames, t.frame_width, t.frame_height, t.label)
            for i, t in enumerate(tracks)
        ]
    assert parse_annotations(serialize_annotations(tracks)) == list(tracks)


def test_file_round_trip(tmp_path):
    tracks = parse_annotations(DOC)
    path = tmp_path / "ann.json"
    write_annotation_file(path, tracks)
    assert load_annotation_file(path) == tracks


def test_invalid_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(AnnotationError, match="not valid JSON"):
        load_annotation_file(path)


def test_non_list_document_rejected():
    with pytest.raises(AnnotationError, match="must be a list"):
        parse_annotations({"id": "v0"})
