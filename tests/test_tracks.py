from __future__ import annotations

import copy
import gc
import json
import tempfile
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from boxact.errors import AnnotationError
from boxact.tracks import (
    COORDINATE_LIMIT,
    ROLES,
    VideoTrack,
    parse_annotations,
    serialize_annotations,
    load_annotation_file,
    write_annotation_file,
)

from conftest import make_track
from oracles import BoundingBox, FrameAnnotation, parse_annotations_reference, track_arrays

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
    assert t.frames.dtype == np.int64 and t.frames.tolist() == [0, 1]
    assert t.present.tolist() == [[False, True, False], [False, True, True]]
    assert t.boxes.dtype == np.float64
    assert t.boxes[1, ROLES.index("hand")].tolist() == [0.0, 90.0, 30.0, 25.0]
    assert not t.boxes[0, ROLES.index("hand")].any()
    for array in (t.frames, t.boxes, t.present):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_label_is_optional():
    doc = [dict(DOC[0])]
    del doc[0]["label"]
    assert parse_annotations(doc)[0].label is None


def test_out_of_order_frames_come_back_sorted():
    doc = [dict(DOC[0], frames=list(reversed(DOC[0]["frames"])))]
    t = parse_annotations(doc)[0]
    assert t.frames.tolist() == [0, 1]
    assert t.present.tolist() == [[False, True, False], [False, True, True]]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("id"), "missing or empty 'id'"),
        (lambda d: d.update(id=""), "missing or empty 'id'"),
        (lambda d: d.pop("width"), "missing numeric"),
        (lambda d: d.update(frames=[]), "non-empty list"),
        (lambda d: d.update(label=3), "label must be a string"),
        (lambda d: d.update(width=float("nan")), "frame size must be finite"),
        (lambda d: d.update(height=float("inf")), "frame size must be finite"),
        (lambda d: d.update(width=True), "missing numeric 'width'"),
        (lambda d: d.update(height=-1), "frame size must be positive"),
        (
            lambda d: d.update(frames=[{"idx": 0, "boxes": {"role": "hand"}}]),
            "^video 'v0' frame 0: 'boxes' must be a list$",
        ),
        (
            lambda d: d.update(frames=[{"idx": 0, "boxes": [5]}]),
            "^video 'v0' frame 0: box entry must be an object$",
        ),
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


def _videos(count: int) -> list[dict]:
    """``count`` copies of DOC's video, with the ids v0, v1, ..."""
    return [dict(copy.deepcopy(DOC[0]), id=f"v{i}") for i in range(count)]


def _frame_fault_then_record_fault(document):
    document[0]["frames"][1]["idx"] = "1"
    del document[1]["width"]


def _nan_box_then_duplicate_frame(document):
    document[1]["frames"][1]["boxes"][1]["y"] = float("nan")
    document[2]["frames"][1]["idx"] = 0


def _record_fault_then_frame_fault(document):
    document[0]["label"] = 3
    document[1]["frames"][0] = 5


def _valid_then_duplicate_id(document):
    document.append(copy.deepcopy(document[0]))


@pytest.mark.parametrize(
    "count, mutate, message",
    [
        (2, _frame_fault_then_record_fault,
         "video 'v0': frame 'idx' must be a non-negative integer, got '1'"),
        (3, _nan_box_then_duplicate_frame, "video 'v1' frame 1: box field 'y' must be finite, got nan"),
        (2, _record_fault_then_frame_fault, "video 'v0': label must be a string"),
        (2, _valid_then_duplicate_id, "duplicate video id 'v0'"),
    ],
    ids=["frame-then-record", "nan-box-then-duplicate-frame", "record-then-frame",
         "valid-then-duplicate-id"],
)
def test_the_first_offender_across_videos_is_named(count, mutate, message):
    document = _videos(count)
    mutate(document)
    with pytest.raises(AnnotationError) as exc:
        parse_annotations(document)
    assert str(exc.value) == message


def test_parsed_tracks_are_read_only_and_equal_to_tracks_built_in_code():
    document = _videos(3)
    document[1]["frames"].reverse()
    tracks = parse_annotations(document)
    # views of one set of corpus arrays: a valid document is parsed in one pass
    assert tracks[0].boxes.base is not None
    assert all(t.boxes.base is tracks[0].boxes.base for t in tracks)
    for track, reference in zip(tracks, parse_annotations_reference(document)):
        built = VideoTrack(reference.video_id, *track_arrays(reference.frames), 320, 240.0,
                           "put-into")
        for name in ("video_id", "frame_width", "frame_height", "label"):
            assert getattr(track, name) == getattr(built, name)
        for name in ("frames", "boxes", "present"):
            got, want = getattr(track, name), getattr(built, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0] = got[0]


def test_a_file_with_two_tracks_of_one_id_is_not_written(tmp_path):
    track = parse_annotations(DOC)[0]
    path = tmp_path / "new" / "ann.json"
    with pytest.raises(AnnotationError) as exc:
        write_annotation_file(path, [track, parse_annotations(_videos(2))[1], track])
    assert str(exc.value) == f"{path}: duplicate video id 'v0'"
    assert not path.parent.exists()


def test_unknown_role_rejected():
    frame = {"idx": 0, "boxes": [{"role": "foot", "x": 0, "y": 0, "w": 1, "h": 1}]}
    with pytest.raises(AnnotationError, match="unknown role 'foot'"):
        parse_annotations([dict(DOC[0], frames=[frame])])


@pytest.mark.parametrize(
    "bad",
    [
        {"w": -1}, {"h": -0.5}, {"x": float("nan")}, {"h": float("inf")},
        {"y": float("-inf")}, {"x": 2e9}, {"w": -1e300}, {"y": True}, {"x": "1"},
    ],
)
def test_bad_box_values_rejected(bad):
    entry = {"role": "hand", "x": 0.0, "y": 0.0, "w": 1.0, "h": 1.0}
    entry.update(bad)
    frames = [DOC[0]["frames"][1], {"idx": 4, "boxes": [entry]}, DOC[0]["frames"][0]]
    document = [dict(DOC[0], frames=frames)]
    with pytest.raises(AnnotationError) as expected:
        parse_annotations_reference(document)
    with pytest.raises(AnnotationError) as got:
        parse_annotations(document)
    assert str(got.value) == str(expected.value)


def test_huge_box_values_rejected():
    # w = h = 1e200 once parsed, and gave an infinite size and a NaN overlap
    for bad in ({"w": 1e200, "h": 1e200}, {"x": -2 * COORDINATE_LIMIT}, {"y": 1e10}):
        entry = {"role": "hand", "x": 0.0, "y": 0.0, "w": 1.0, "h": 1.0, **bad}
        with pytest.raises(AnnotationError, match="must lie within"):
            parse_annotations([dict(DOC[0], frames=[{"idx": 0, "boxes": [entry]}])])
    edge = make_track(
        [FrameAnnotation(0, hand=BoundingBox(-COORDINATE_LIMIT, COORDINATE_LIMIT, COORDINATE_LIMIT, 0.0))]
    )
    assert edge.boxes[0, ROLES.index("hand")].tolist() == [
        -COORDINATE_LIMIT, COORDINATE_LIMIT, COORDINATE_LIMIT, 0.0
    ]


def test_integers_too_large_for_a_float_are_rejected():
    # float() of such an integer raises OverflowError, which escaped the parser
    big = 10**400
    entry = {"role": "hand", "x": big, "y": 0, "w": 1, "h": 1}
    with pytest.raises(AnnotationError, match="frame 0: box field 'x' must be finite"):
        parse_annotations([dict(DOC[0], frames=[{"idx": 0, "boxes": [entry]}])])
    with pytest.raises(AnnotationError, match="frame size must be finite"):
        parse_annotations([dict(DOC[0], width=-big)])
    with pytest.raises(AnnotationError, match="frame 'idx' must be at most"):
        parse_annotations([dict(DOC[0], frames=[{"idx": 2**63, "boxes": []}])])
    last = parse_annotations([dict(DOC[0], frames=[{"idx": 2**63 - 1, "boxes": []}])])[0]
    assert last.frames.tolist() == [2**63 - 1]


def test_subclasses_of_dict_and_float_parse_like_their_base_types():
    document = copy.deepcopy(DOC)
    frame = document[0]["frames"][1] = OrderedDict(document[0]["frames"][1])
    frame["boxes"][1] = OrderedDict(frame["boxes"][1], x=np.float64(0.0))
    assert serialize_annotations(parse_annotations(document)) == DOC


def test_a_frame_that_breaks_the_rules_of_dict_fails_with_an_annotation_error():
    class Lying(dict):
        def get(self, key, default=None):
            return 0 if key == "idx" else super().get(key, default)

    with pytest.raises(AnnotationError, match="frames are not JSON objects and lists"):
        parse_annotations([dict(DOC[0], frames=[Lying(boxes=[])])])


def _arrays(count: int = 2):
    return (
        np.arange(count, dtype=np.int64),
        np.zeros((count, 3, 4)),
        np.zeros((count, 3), dtype=bool),
    )


def test_track_requires_increasing_indices():
    frames, boxes, present = _arrays()
    with pytest.raises(AnnotationError, match="strictly increasing, got 0 then 0"):
        VideoTrack("v", np.zeros(2, dtype=np.int64), boxes, present, 10.0, 10.0)
    with pytest.raises(AnnotationError, match="strictly increasing, got 1 then 0"):
        VideoTrack("v", frames[::-1].copy(), boxes, present, 10.0, 10.0)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda a: a.update(frames=a["frames"].astype(np.int32)), "frames must be a int64 array"),
        (lambda a: a.update(frames=[0, 1]), "frames must be a int64 array"),
        (lambda a: a.update(boxes=a["boxes"].astype(np.float32)), "boxes must be a float64 array"),
        (lambda a: a.update(present=a["present"].astype(np.int64)), "present must be a bool array"),
        (lambda a: a.update(boxes=np.zeros((2, 3, 5))), r"shapes \(T,\), \(T, 3, 4\)"),
        (lambda a: a.update(present=np.zeros((3, 3), dtype=bool)), "must have shapes"),
        (lambda a: a.update(frames=np.zeros((2, 1), dtype=np.int64)), "must have shapes"),
        (lambda a: a.update(**dict(zip(("frames", "boxes", "present"), _arrays(0)))), "no frames"),
        (lambda a: a["boxes"].__setitem__((1, 2, 0), 5.0), "frame 1: absent 'hand' must have an all-zero box"),
        (lambda a: a["boxes"].__setitem__((1, 0, 1), np.nan), "frame 1: box field 'y' must be finite, got nan"),
        (lambda a: a["boxes"].__setitem__((0, 1, 3), -np.inf), "frame 0: box field 'h' must be finite, got -inf"),
        (lambda a: a["boxes"].__setitem__((0, 2, 2), -0.5), "frame 0: box extent must be non-negative, got w=-0.5, h=0.0"),
        (lambda a: a.update(frame_width=0.0), "frame size must be positive"),
        (lambda a: a.update(frame_height=float("nan")), "frame size must be finite"),
        (lambda a: a.update(frame_height="240"), "frame size must be finite"),
    ],
)
def test_track_invariants(change, message):
    frames, boxes, present = _arrays()
    present[:, :2] = True
    args = dict(frames=frames, boxes=boxes, present=present, frame_width=320.0, frame_height=240.0)
    change(args)
    with pytest.raises(AnnotationError, match=message):
        VideoTrack("v", **args)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("video_id", "", "video id must be a non-empty string, got ''"),
        ("video_id", None, "video id must be a non-empty string, got None"),
        ("label", 5, "video 'v': label must be a string"),
        ("frames", np.array([-5, -3]), "video 'v': frame indices must be non-negative, got -5"),
        ("frame_width", 10**400, "frame size must be finite"),
    ],
    ids=["empty-id", "no-id", "label-not-a-string", "negative-index", "width-past-float"],
)
def test_a_track_built_in_code_follows_the_file_rules(field, value, message):
    args = dict(zip(("frames", "boxes", "present"), _arrays()), video_id="v", frame_width=320.0,
                frame_height=240.0)
    with pytest.raises(AnnotationError, match=message):
        VideoTrack(**{**args, field: value})


# values out of the annotation file's rules, or in them where noted
FIELD_FAULTS = {
    "video_id": ["", None, 5],
    "label": [5, b"x"],
    "frame_width": [0, -1.0, np.nan, np.inf, 10**400, True, "1"],
    "frame_height": [0.0, -np.inf],
    "frames": [-1, -(2**63)],  # put in front of the other indices
    "boxes": [-1.0, -COORDINATE_LIMIT, 2 * COORDINATE_LIMIT, np.nan],  # -1 is a valid x or y
}


@st.composite
def track_fields(draw):
    """Fields of a 1-4 frame VideoTrack; about half the time one of them breaks the file's rules."""
    count = draw(st.integers(1, 4))
    indices = st.sets(st.integers(0, 2**63 - 1), min_size=count, max_size=count)
    present = draw(hnp.arrays(bool, (count, 3)))
    values = st.one_of(st.floats(0, COORDINATE_LIMIT), st.sampled_from([-0.0, 5e-324]))
    boxes = draw(hnp.arrays(np.float64, (count, 3, 4), elements=values))
    boxes[~present] = 0.0
    size = st.floats(0, 1e4, exclude_min=True) | st.integers(1, 10**4)
    fields = dict(
        video_id=draw(st.text(min_size=1, max_size=3)),
        frames=np.array(sorted(draw(indices)), np.int64),
        boxes=boxes,
        present=present,
        frame_width=draw(size),
        frame_height=draw(size),
        label=draw(st.none() | st.text(max_size=3)),
    )
    fault = draw(st.none() | st.sampled_from(sorted(FIELD_FAULTS)))
    if fault is not None:
        value = draw(st.sampled_from(FIELD_FAULTS[fault]))
        if fault == "frames":
            fields["frames"][0] = value
        elif fault == "boxes":  # in an absent role's box, any value but zero is a fault
            fields["boxes"][draw(st.integers(0, count - 1)), draw(st.integers(0, 2)),
                            draw(st.integers(0, 3))] = value
        else:
            fields[fault] = value
    return fields


@given(track_fields())
@settings(max_examples=100, deadline=None)
def test_every_track_that_builds_comes_back_from_its_file(fields):
    try:
        track = VideoTrack(**fields)
    except AnnotationError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ann.json"
        write_annotation_file(path, [track])
        (back,) = load_annotation_file(path)
    assert (back.video_id, back.label) == (track.video_id, track.label)
    assert (back.frame_width, back.frame_height) == (
        float(track.frame_width), float(track.frame_height)
    )
    for name in ("frames", "boxes", "present"):
        assert np.array_equal(getattr(back, name), getattr(track, name))


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
    return make_track(frames, video_id=draw(st.text(min_size=1, max_size=8)), label=label)


@given(st.lists(video_tracks(), max_size=4))
@settings(max_examples=60, deadline=None)
def test_parse_serialize_round_trip(tracks):
    ids = [t.video_id for t in tracks]
    if len(set(ids)) != len(ids):
        tracks = [
            VideoTrack(
                f"v{i}", t.frames, t.boxes, t.present, t.frame_width, t.frame_height, t.label
            )
            for i, t in enumerate(tracks)
        ]
    document = serialize_annotations(tracks)
    parsed = parse_annotations(document)
    assert serialize_annotations(parsed) == document
    for got, want in zip(parsed, tracks):
        for name in ("frames", "boxes", "present"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_file_round_trip(tmp_path):
    tracks = parse_annotations(DOC)
    path = tmp_path / "ann.json"
    write_annotation_file(path, tracks)
    assert serialize_annotations(load_annotation_file(path)) == serialize_annotations(tracks)
    assert serialize_annotations(tracks) == DOC


def test_invalid_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(AnnotationError, match="not valid JSON"):
        load_annotation_file(path)


@pytest.mark.parametrize("content", [json.dumps(DOC), "{nope", "[5]"],
                         ids=["valid", "invalid-json", "content-error"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_loading_leaves_the_collector_as_it_was(tmp_path, monkeypatch, content, enabled):
    path = tmp_path / "ann.json"
    path.write_text(content)
    during = []
    parse = parse_annotations

    def watched(document):
        during.append(gc.isenabled())
        return parse(document)

    monkeypatch.setattr("boxact.tracks.parse_annotations", watched)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            load_annotation_file(path)
        except AnnotationError:
            assert content != json.dumps(DOC)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == ([] if content == "{nope" else [False])


def test_non_list_document_rejected():
    with pytest.raises(AnnotationError, match="must be a list"):
        parse_annotations({"id": "v0"})


# --- the parser against the per-box reference parser -----------------------------

# np.float64 is a float subclass: the parser checks types with issubclass
numbers = st.one_of(
    st.integers(-300, 300), st.floats(-300, 300), st.floats(-300, 300).map(np.float64)
)
sizes = st.one_of(st.integers(0, 100), st.floats(0, 100), st.floats(0, 100).map(np.float64))
# values a mutation puts in place of a valid one
BAD_VALUES = [None, True, False, "1", [], {}, -1, 1.5, 7, "", "foot", *ROLES]
BAD_NUMBERS = [
    float("nan"), float("inf"), float("-inf"), True, -1, -0.5, -1e300, 2 * COORDINATE_LIMIT,
    -COORDINATE_LIMIT, -0.0, 10**400,  # an int too large for a float
]
VIDEO_KEYS = ("id", "width", "height", "label", "frames")
FRAME_KEYS = ("idx", "boxes")
BOX_KEYS = ("role", "x", "y", "w", "h")
MUTATIONS = [
    "box-value", "box-value", "box-value", "frame-size", "video", "frame", "box",
    "not-an-object", "duplicate-role", "duplicate-index", "duplicate-video", "no-frames",
    "shuffle", "not-a-list",
]


@st.composite
def annotation_documents(draw):
    """A valid document: 1-3 videos of 1-5 frames, frames in any order."""
    videos = []
    for v in range(draw(st.integers(1, 3))):
        frames = []
        for idx in draw(st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True)):
            roles = draw(st.lists(st.sampled_from(ROLES), unique=True))
            frame = {"idx": idx}
            if roles or draw(st.booleans()):  # "boxes" may be left out when empty
                frame["boxes"] = [
                    {"role": r, "x": draw(numbers), "y": draw(numbers),
                     "w": draw(sizes), "h": draw(sizes)}
                    for r in roles
                ]
            frames.append(frame)
        record = {"id": f"v{v}", "width": draw(st.sampled_from([320, 320.0, 0.5])),
                  "height": 240, "frames": frames}
        if draw(st.booleans()):
            record["label"] = "put-into"
        videos.append(record)
    return videos


def _mutate(draw, document: list):
    """``document`` with one thing changed; lists and dicts change in place."""
    video = draw(st.sampled_from(document))
    frame = draw(st.sampled_from(video["frames"]))
    entries = frame.get("boxes", [])
    all_entries = [e for f in video["frames"] for e in f.get("boxes", [])]
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "box-value" and all_entries:
        entry = draw(st.sampled_from(all_entries))
        entry[draw(st.sampled_from("xywh"))] = draw(st.sampled_from(BAD_NUMBERS))
    elif kind == "frame-size":
        video[draw(st.sampled_from(["width", "height"]))] = draw(
            st.sampled_from(BAD_NUMBERS + ["320", None])
        )
    elif kind in ("video", "frame", "box"):
        target, keys = {
            "video": (video, VIDEO_KEYS),
            "frame": (frame, FRAME_KEYS),
            "box": (draw(st.sampled_from(entries)) if entries else frame, BOX_KEYS),
        }[kind]
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(st.sampled_from(BAD_VALUES))
    elif kind == "not-an-object":
        holder = draw(st.sampled_from([document, video["frames"]] + ([entries] if entries else [])))
        holder[draw(st.integers(0, len(holder) - 1))] = draw(st.sampled_from([1, "x", None, []]))
    elif kind == "duplicate-role" and entries:
        entries.append(dict(draw(st.sampled_from(entries))))
    elif kind == "duplicate-index":
        frame["idx"] = draw(st.sampled_from(video["frames"])).get("idx", 0)
    elif kind == "duplicate-video":
        document.append(copy.deepcopy(video))
    elif kind == "no-frames":
        video["frames"] = []
    elif kind == "shuffle":
        video["frames"] = draw(st.permutations(video["frames"]))
    elif kind == "not-a-list":
        return {"videos": document}
    return document


def _mutable(document) -> bool:
    """Whether ``document`` still has the shape that :func:`_mutate` walks."""
    return isinstance(document, list) and all(
        isinstance(v, dict)
        and isinstance(v.get("frames"), list)
        and v["frames"]
        and all(
            isinstance(f, dict)
            and isinstance(f.get("boxes", []), list)
            and all(isinstance(b, dict) for b in f.get("boxes", []))
            for f in v["frames"]
        )
        for v in document
    )


@st.composite
def mutated_documents(draw):
    """A document and how many mutations it went through (0-3)."""
    document = draw(annotation_documents())
    wanted, mutations = draw(st.sampled_from([1, 1, 1, 2, 3, 0])), 0
    while mutations < wanted and _mutable(document):
        document = _mutate(draw, document)
        mutations += 1
    return document, mutations


def _outcome(parse, document):
    try:
        return parse(copy.deepcopy(document)), None
    except Exception as exc:  # noqa: BLE001 - the error class is compared
        return None, exc


@given(mutated_documents())
@settings(max_examples=400, deadline=None)
def test_parser_agrees_with_the_reference_parser(case):
    document, mutations = case
    expected, expected_error = _outcome(parse_annotations_reference, document)
    got, error = _outcome(parse_annotations, document)
    assert (error is None) == (expected_error is None), (error, expected_error)
    if error is not None:
        assert type(error) is type(expected_error) is AnnotationError
        if mutations <= 1:  # a single fault: the same first offender
            assert str(error) == str(expected_error)
        return
    assert len(got) == len(expected)
    for track, reference in zip(got, expected):
        frames, boxes, present = track_arrays(reference.frames)
        assert np.array_equal(track.frames, frames)
        assert np.array_equal(track.boxes, boxes, equal_nan=False)
        assert np.array_equal(track.present, present)
        assert (track.video_id, track.label, track.frame_width, track.frame_height) == (
            reference.video_id, reference.label, reference.frame_width, reference.frame_height
        )
