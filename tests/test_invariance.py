"""What the relations do not read must not change what boxact writes.

Every relation column reads differences of box coordinates, box sizes and
motion between annotated frames.  So translating a video's boxes, shifting
its frame indices or changing its frame size must leave every output byte
as it was, and so must reordering a file's videos, since each video is
scored alone.  A video's records must not depend on its name or on the other
videos of its file either, ids aside.  A vertical flip exchanges what is on
top with what is underneath and nothing else, and exchanging the two objects
permutes the table by ``SWAP``, so each winner keeps its centres and flips
its object order, unless the two orders tie exactly.  Both are checked on
:func:`assign_track` and again on the bytes the CLI writes.

The tracks are dyadic: every box value is a multiple of 1/64 far below
2**46, so every sum and difference the relations take is exact and each
invariance holds bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from boxact.cli import main
from boxact.phases import (
    ARCHETYPES,
    B_CHOICES,
    OBJECT_ORDERS,
    PHASES,
    ActionModel,
    _alternatives,
    builtin_models,
    save_action_model,
    score_frames,
)
from boxact.pipeline import assign_track
from boxact.relations import COLUMN, SWAP, relation_keys, relation_table
from boxact.tracks import ROLES, VideoTrack, write_annotation_file

from test_parity import THRESHOLD_SETS

STEP = 64  # box values are multiples of 1 / STEP
TRAIN_FLAGS = ["--val-fraction", "0.5", "--num-trees", "4"]


def _dyadic_walk(video_id: str, t: int, seed: int, label: str | None = None) -> VideoTrack:
    """A random walk of three dyadic boxes; roles drop out and stand still at times.

    Frame indices rise by one or two, so some steps span a gap.
    """
    rng = np.random.default_rng(seed)
    present = rng.random((t, len(ROLES))) < rng.choice([0.7, 1.0])
    still = rng.random((t, len(ROLES), 1)) < 0.5
    moves = rng.integers(-6 * STEP, 6 * STEP, (t, len(ROLES), 2)) * ~still
    xy = rng.integers(20 * STEP, 200 * STEP, (1, len(ROLES), 2)) + np.cumsum(moves, axis=0)
    wh = np.broadcast_to(rng.integers(5 * STEP, 60 * STEP, (1, len(ROLES), 2)), xy.shape)
    boxes = np.where(present[:, :, None], np.concatenate([xy, wh], axis=2) / STEP, 0.0)
    frames = np.cumsum(rng.integers(1, 3, t)) - 1
    return VideoTrack(video_id, frames, boxes, present, 320.0, 240.0, label)


seeds = st.integers(min_value=0, max_value=2**32 - 1)
lengths = st.one_of(st.integers(min_value=1, max_value=14), st.just(30))
dyadic_tracks = st.builds(_dyadic_walk, st.just("v"), lengths, seeds)
offsets = st.integers(min_value=-2000 * STEP, max_value=2000 * STEP).map(lambda v: v / STEP)


@st.composite
def corpora(draw, prefix: str = "v") -> list[VideoTrack]:
    """Two videos of each archetype, so that a split leaves each action both classes."""
    return [
        _dyadic_walk(f"{prefix}{i}", draw(lengths), draw(seeds), ARCHETYPES[i % len(ARCHETYPES)])
        for i in range(2 * len(ARCHETYPES))
    ]


def _outputs(
    tracks: list[VideoTrack], train: bool = True, models: dict[str, ActionModel] | None = None
) -> dict[str, bytes]:
    """The files that assign, embed and, with ``train``, train and predict --subset val write.

    Each command reads ``models`` from model files, or the builtin models when None.
    """
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        inputs, root = Path(tmp, "in"), Path(tmp, "out")
        inputs.mkdir()
        root.mkdir()
        annotations = inputs / "annotations.json"
        write_annotation_file(annotations, tracks)
        source = "builtin"
        if models is not None:
            source = inputs / "models"
            source.mkdir()
            for action, model in models.items():
                save_action_model(model, source / f"{action}.json")
        forests = root / "forests"
        commands = [
            ["assign", "--out", root / "assign.json"],
            ["embed", "--out", root / "embed.json"],
        ]
        if train:
            commands += [
                ["train", "--out-dir", forests, *TRAIN_FLAGS],
                ["predict", "--forest-dir", forests, "--split", forests / "split.json",
                 "--subset", "val", "--out", root / "predictions.json"],
            ]
        for command, *flags in commands:
            corpus = ["--annotations", str(annotations), "--models", str(source)]
            assert main([command, *corpus, *map(str, flags)]) == 0
        return {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*.json"))
        }


def _records(outputs: dict[str, bytes], video_id: str) -> dict[str, list[str]]:
    """The assign and embed records of one video, without its id, as JSON text."""
    return {
        name: [
            json.dumps({key: value for key, value in record.items() if key != "video_id"})
            for record in json.loads(outputs[name])["records"]
            if record["video_id"] == video_id
        ]
        for name in ("assign.json", "embed.json")
    }


def _translated(track: VideoTrack, dx: float, dy: float) -> VideoTrack:
    moved = track.boxes + np.array([dx, dy, 0.0, 0.0])
    return replace(track, boxes=np.where(track.present[:, :, None], moved, 0.0))


def _shifted(track: VideoTrack, by: int) -> VideoTrack:
    return replace(track, frames=track.frames - track.frames[0] + by)


def _resized(track: VideoTrack, width: float, height: float) -> VideoTrack:
    return replace(track, frame_width=width, frame_height=height)


# one video changed, or the file's videos reordered; each draws its arguments
CHANGES = {
    "translate": st.tuples(offsets, offsets).map(lambda d: lambda t: _translated(t, *d)),
    "shift": st.integers(min_value=0, max_value=10**6).map(lambda k: lambda t: _shifted(t, k)),
    "resize": st.tuples(*[st.integers(1, 4096 * STEP).map(lambda v: v / STEP)] * 2).map(
        lambda size: lambda t: _resized(t, *size)
    ),
}


@pytest.mark.parametrize("change", [*CHANGES, "reorder"])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_what_the_relations_do_not_read_changes_no_output_byte(change, data):
    corpus = data.draw(corpora())
    if change == "reorder":
        changed = data.draw(st.permutations(corpus))
    else:
        i = data.draw(st.integers(min_value=0, max_value=len(corpus) - 1))
        changed = [*corpus[:i], data.draw(CHANGES[change])(corpus[i]), *corpus[i + 1 :]]
    assert _outputs(changed) == _outputs(corpus)


@given(corpora(), corpora("w"), st.data())
@settings(max_examples=15, deadline=None)
def test_a_videos_records_depend_on_neither_its_name_nor_the_other_videos(corpus, others, data):
    i = data.draw(st.integers(min_value=0, max_value=len(corpus) - 1))
    want = _outputs(corpus, train=False)
    renamed = [*corpus[:i], replace(corpus[i], video_id="renamed"), *corpus[i + 1 :]]
    got = _outputs(renamed, train=False)
    assert _records(got, "renamed") == _records(want, corpus[i].video_id)
    # the other videos go before, between and after the corpus's
    a, b = sorted(data.draw(st.lists(st.integers(0, len(others)), min_size=2, max_size=2)))
    mixed = [*others[:a], *corpus[:i], *others[a:b], *corpus[i:], *others[b:]]
    got = _outputs(mixed, train=False)
    for track in corpus:
        assert _records(got, track.video_id) == _records(want, track.video_id)


# the columns of centre_on_top(a,b) and centre_underneath(a,b) exchanged
UPSIDE_DOWN = np.array([
    COLUMN[key.replace("centre_on_top", "centre_underneath")] if "centre_on_top" in key
    else COLUMN[key.replace("centre_underneath", "centre_on_top")] if "centre_underneath" in key
    else column
    for column, key in enumerate(relation_keys())
])


def _flipped(track: VideoTrack) -> VideoTrack:
    """The track upside down: each box's y becomes ``frame_height - y - h``."""
    flipped_y = track.frame_height - track.boxes[:, :, 1] - track.boxes[:, :, 3]
    boxes = track.boxes.copy()
    boxes[:, :, 1] = np.where(track.present, flipped_y, 0.0)
    return replace(track, boxes=boxes)


def _models_without_centres() -> dict[str, ActionModel]:
    """The builtin models that read neither ``centre_*`` column."""
    models = {
        action: model
        for action, model in builtin_models().items()
        if not any(key.startswith("centre_") for key in model.feature_list)
    }
    assert len(models) == 4
    return models


# a leftward step (direction +pi, on both sides of the flip) against a step
# whose direction the flip negates
LEFTWARD = _dyadic_walk("v", 30, 1016)


@given(dyadic_tracks, st.sampled_from(THRESHOLD_SETS))
@example(LEFTWARD, THRESHOLD_SETS[0])
@settings(max_examples=100, deadline=None)
def test_a_vertical_flip_exchanges_only_what_is_on_top_with_what_is_underneath(track, config):
    flipped = _flipped(track)
    table = relation_table([track], config)
    assert relation_table([flipped], config).tobytes() == table[:, UPSIDE_DOWN].tobytes()
    # so a model that reads neither column ranks and embeds as before
    models = _models_without_centres()
    got, want = assign_track(flipped, models), assign_track(track, models)
    for action in models:
        assert got[action][1] == want[action][1]
        assert got[action][0].values.tobytes() == want[action][0].values.tobytes()


@given(dyadic_tracks)
@example(LEFTWARD)
@settings(max_examples=50, deadline=None)
def test_a_vertical_flip_changes_no_byte_that_assign_or_embed_writes_for_those_models(track):
    # the models go in as files, and the boxes through the annotation file
    models = _models_without_centres()
    got = _outputs([_flipped(track)], train=False, models=models)
    assert got == _outputs([track], train=False, models=models)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _roles(track: VideoTrack, *roles: str) -> VideoTrack:
    """The track whose boxes in ``ROLES`` order are those of ``roles``."""
    order = [ROLES.index(role) for role in roles]
    return replace(track, boxes=track.boxes[:, order], present=track.present[:, order])


def _exchanged(track: VideoTrack) -> VideoTrack:
    return _roles(track, "object2", "object1", "hand")


def _twin(track: VideoTrack) -> VideoTrack:
    """Both objects on object1's box, so that the two object orders tie exactly."""
    return _roles(track, "object1", "object1", "hand")


def _orders_at(track: VideoTrack, model: ActionModel, b_choice: str) -> tuple[bool, dict]:
    """Whether the track's two object orders tie exactly under ``model`` at
    ``b_choice``, and the centres of its swapped order there."""
    table = relation_table([track])
    smoothed = [
        score_frames(track, model, read, order).smoothed
        for order, read in zip(OBJECT_ORDERS, (table, table[:, SWAP]))
    ]
    centres, totals = _alternatives(np.stack(smoothed))  # (order, b choice, ...)
    b = B_CHOICES.index(b_choice)
    placed = {p: int(c) if c >= 0 else None for p, c in zip(PHASES, centres[1, b])}
    return bool(totals[0, b] == totals[1, b]), placed


@given(dyadic_tracks, st.booleans())
@settings(max_examples=100, deadline=None)
def test_exchanging_the_objects_flips_each_winners_object_order(track, twin):
    if twin:
        track = _twin(track)
    exchanged = _exchanged(track)
    table = relation_table([track])
    assert relation_table([exchanged]).tobytes() == table[:, SWAP].tobytes()
    models = builtin_models()
    got, want = assign_track(exchanged, models), assign_track(track, models)
    for action, model in models.items():
        (embedding, winner), (exchanged_embedding, exchanged_winner) = want[action], got[action]
        tie, placed = _orders_at(track, model, winner.b_choice)
        assert exchanged_winner.b_choice == winner.b_choice
        assert _bits(exchanged_winner.total_score) == _bits(winner.total_score)
        if tie:
            # the first of the tied orders wins, and the exchanged track's first
            # order reads the original track's swapped one
            event("the two object orders tie")
            assert winner.object_order == exchanged_winner.object_order == OBJECT_ORDERS[0]
            assert exchanged_winner.centers == placed
        else:
            assert {winner.object_order, exchanged_winner.object_order} == set(OBJECT_ORDERS)
            assert exchanged_winner.centers == winner.centers
            assert exchanged_winner.windows == winner.windows
            assert exchanged_embedding.values.tobytes() == embedding.values.tobytes()


def _by_action(outputs: dict[str, bytes], name: str) -> dict[str, dict]:
    """The records of a one-video file ``name``, by action."""
    return {record["action_id"]: record for record in json.loads(outputs[name])["records"]}


@given(dyadic_tracks, st.booleans())
@settings(max_examples=50, deadline=None)
def test_exchanging_the_objects_flips_each_written_winners_object_order(track, twin):
    if twin:
        track = _twin(track)
    want = _outputs([track], train=False)
    got = _outputs([_exchanged(track)], train=False)
    for action, model in builtin_models().items():
        winner, exchanged = (_by_action(out, "assign.json")[action] for out in (want, got))
        tie, placed = _orders_at(track, model, winner["b_choice"])
        # the JSON text tells -0.0 from 0.0
        for key in ("b_choice", "total_score"):
            assert json.dumps(exchanged[key]) == json.dumps(winner[key])
        if tie:
            event("the two object orders tie")
            assert winner["object_order"] == exchanged["object_order"] == OBJECT_ORDERS[0]
            assert exchanged["centers"] == placed
        else:
            assert {winner["object_order"], exchanged["object_order"]} == set(OBJECT_ORDERS)
            unordered = [json.dumps({**r, "object_order": None}) for r in (winner, exchanged)]
            assert unordered[0] == unordered[1]
            embeds = [json.dumps(_by_action(out, "embed.json")[action]) for out in (want, got)]
            assert embeds[0] == embeds[1]


def test_objects_on_one_box_tie_and_keep_the_annotated_order():
    twin = _twin(_dyadic_walk("v", 30, 7))
    assert np.array_equal(_exchanged(twin).boxes, twin.boxes)
    for _, winner in assign_track(twin, builtin_models()).values():
        assert winner.object_order == OBJECT_ORDERS[0]
