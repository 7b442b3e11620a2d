from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxact.embedding import (
    STAT_NAMES,
    VideoEmbedding,
    dump_embeddings,
    embed_video,
    embed_windows,
    embedding_layout,
)
from boxact.errors import ContractError
from boxact.phases import (
    PHASES,
    ActionModel,
    Term,
    builtin_model,
    score_frames,
)
from boxact.pipeline import assign_track
from boxact.relations import SWAP, relation_table
from boxact.synthetic import SyntheticScript, generate_synthetic

from conftest import moving_track


def _model() -> ActionModel:
    present = lambda e, **kw: Term("present", (e,), **kw)
    return ActionModel(
        action_id="tiny",
        phases={
            "a": (present("object2"),),
            "b": (present("hand", weight=2.0),),
            "c": (present("hand"), present("object1")),
            "d": (present("hand", negate=True),),
            "e": (present("object1"),),
        },
    )


def _embed(track, model, scores_only=False):
    """Embedding and assignment of one track under one model."""
    per_action = assign_track(track, {model.action_id: model}, scores_only=scores_only)
    return per_action[model.action_id]


def _table(track, order):
    """The track's relation table in one object order."""
    table = relation_table([track])
    return table if order == "as_annotated" else table[:, SWAP]


def _clean_video():
    script = SyntheticScript(
        archetype="put-into",
        num_frames=60,
        true_phase_centers={"a": 0, "b": 15, "c": 29, "d": 44, "e": 59},
        video_id="v-embed",
        layout_seed=3,
    )
    return generate_synthetic(script)[0]


# --- statistics blocks ----------------------------------------------------------


def _window_model() -> ActionModel:
    """A model whose feature list is present(hand), present(object1)."""
    terms = (Term("present", ("hand",)), Term("present", ("object1",)))
    return ActionModel(action_id="two", phases={p: terms for p in PHASES})


def _stats(source, windows, scores_only=False):
    """Embedding of one model whose phase scores all read row 0 of ``source``."""
    spans = np.array([[windows.get(p, (-1, -1)) for p in PHASES]])
    return embed_windows(
        ["v"], [_window_model()], spans, np.asarray(source, dtype=float),
        np.zeros((1, len(PHASES)), dtype=int), np.array([[1, 2]]), scores_only,
    )[0]


def test_window_stats_frozen_values():
    source = [[9.0, 2.0, 3.0, 4.0, 5.0], [9.0, 0.0, 1.0, 1.0, 1.0], [9.0, 1.0, 1.0, 7.0, -3.0]]
    emb = _stats(source, {"b": (1, 4)})
    block = 4 * 3 + 1
    b = PHASES.index("b")
    assert emb.values[b * block : (b + 1) * block].tolist() == [
        3.5, 3.5, 5.0, 2.0,  # score: mean, median, max, min
        0.75, 1.0, 1.0, 0.0,  # present(hand)
        1.5, 1.0, 7.0, -3.0,  # present(object1)
        1.0,  # assigned
    ]
    assert emb.assigned_flags() == {p: p == "b" for p in PHASES}


def test_unplaced_window_is_a_zero_block():
    emb = _stats(np.ones((3, 4)), {})
    assert emb.values.tolist() == [0.0] * (5 * (4 * 3 + 1))
    assert not any(emb.assigned_flags().values())


@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@example([51.54009046733276] * 5)  # the plain mean of these rounds one ulp high
@settings(max_examples=100, deadline=None)
def test_stat_ordering(scores):
    emb = _stats([scores], {"a": (0, len(scores) - 1)}, scores_only=True)
    mean, med, mx, mn = emb.values[:4]
    assert mn <= med <= mx
    assert mn <= mean <= mx


# --- layout -----------------------------------------------------------------------


def test_layout_names_and_order():
    layout = embedding_layout(_model())
    # per phase: 4 score stats, 4 stats per referenced feature, 1 flag
    assert len(layout) == 5 * (1 + 3) * 4 + 5
    assert layout[0] == "a:score:mean"
    assert layout[3] == "a:score:min"
    assert layout[4] == "a:present(hand):mean"
    assert layout[16] == "a:assigned"
    assert layout[17] == "b:score:mean"
    assert layout[-1] == "e:assigned"


def test_scores_only_layout():
    layout = embedding_layout(_model(), scores_only=True)
    assert len(layout) == 25
    assert all(":score:" in name or name.endswith(":assigned") for name in layout)


def test_builtin_model_layout_length():
    model = builtin_model("put-into")
    f = len(model.feature_list)
    assert len(embedding_layout(model)) == 5 * (1 + f) * 4 + 5


# --- embedding a track --------------------------------------------------------------


def test_embed_track_matches_manual_stats():
    track = _clean_video()
    model = _model()
    emb, assignment = _embed(track, model)
    assert emb.action_id == "tiny" and emb.video_id == "v-embed"
    assert emb.values.shape == (len(embedding_layout(model)),)
    order = assignment.object_order
    matrix = score_frames(track, model, _table(track, order), order)
    idx = {name: i for i, name in enumerate(emb.layout)}
    for p in [p for p in PHASES if assignment.centers[p] is not None]:
        lo, hi = assignment.windows[p]
        window = matrix.row(p, kind="raw")[lo : hi + 1]
        assert emb.values[idx[f"{p}:score:mean"]] == pytest.approx(window.mean())
        assert emb.values[idx[f"{p}:score:max"]] == pytest.approx(window.max())
        assert emb.values[idx[f"{p}:score:min"]] == pytest.approx(window.min())
        assert emb.values[idx[f"{p}:score:med"]] == pytest.approx(np.median(window))
        assert emb.values[idx[f"{p}:assigned"]] == 1.0


def test_scores_only_is_a_subvector_of_full():
    track = _clean_video()
    model = _model()
    full, _ = _embed(track, model)
    slim, _ = _embed(track, model, scores_only=True)
    for name, value in zip(slim.layout, slim.values):
        assert value == full.values[full.layout.index(name)]


def test_unassigned_phases_embed_as_zero_blocks():
    # three frames cannot host five phases
    track = moving_track({"object2": [(50, 50)] * 3, "hand": [None, (20, 20), None]})
    emb, assignment = _embed(track, _model())
    flags = emb.assigned_flags()
    assert assignment.degenerate
    unassigned = [p for p in PHASES if assignment.centers[p] is None]
    assert unassigned
    idx = {name: i for i, name in enumerate(emb.layout)}
    for p in unassigned:
        assert not flags[p]
        assert emb.values[idx[f"{p}:score:mean"]] == 0.0
        assert emb.values[idx[f"{p}:present(hand):max"]] == 0.0


def test_embed_video_validates_consistency():
    track = _clean_video()
    model = _model()
    emb, assignment = _embed(track, model)
    order = assignment.object_order
    table = _table(track, order)
    matrix = score_frames(track, model, table, order)
    other = builtin_model("put-into")
    with pytest.raises(ContractError, match="action mismatch"):
        embed_video(track, assignment, matrix, other, table)
    # the matrix of the order that did not win, whichever that is
    other_order = "swapped" if order == "as_annotated" else "as_annotated"
    other_table = _table(track, other_order)
    other = score_frames(track, model, other_table, other_order)
    with pytest.raises(ContractError) as exc:
        embed_video(track, assignment, other, model, other_table)
    assert str(exc.value) == (
        f"object order mismatch: assignment {order!r} vs matrix {other_order!r}"
    )
    with pytest.raises(ContractError, match="relation frames"):
        embed_video(track, assignment, matrix, model, table[:-1])


def test_embedding_shape_validation():
    with pytest.raises(ContractError, match=r"shape \(3,\) for a layout of 2"):
        VideoEmbedding("a", "v", np.zeros(3), ("x", "y"))
    with pytest.raises(ContractError, match=r"shape \(\) for a layout of 1"):
        VideoEmbedding("a", "v", np.array(1.0), ("x",))


# --- serialization -------------------------------------------------------------------


def test_dump_load_round_trip(tmp_path):
    # no command reads an embedding file back, so the JSON itself is the reader
    track = _clean_video()
    emb, _ = _embed(track, _model())
    path = tmp_path / "emb.json"
    dump_embeddings([emb], path, provenance={"stage": "test"})
    doc = json.loads(path.read_text())
    assert (doc["format"], doc["version"], doc["provenance"]) == (
        "boxact-embeddings", 1, {"stage": "test"}
    )
    (record,) = doc["records"]
    assert (record["action_id"], record["video_id"]) == (emb.action_id, emb.video_id)
    assert tuple(record["layout"]) == emb.layout
    assert np.array(record["values"]).tobytes() == emb.values.tobytes()
    flags = emb.assigned_flags()
    assert record["assigned_flags"] == [int(flags[p]) for p in PHASES]
