"""``embed_all`` runs its array pass over batches of tracks laid end to end.

Batching must not show in any output: every track's embeddings and
assignments are those of ``assign_track`` on the track alone, bit for bit,
whatever the batch holds around it.  The corpora mix one-frame tracks,
tracks shorter than the smoothing kernel and long ones, in any order, and
the frame budget is drawn small enough that tracks split across batches or
exceed a batch on their own.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from boxact import pipeline
from boxact.relations import COLUMN, relation_table
from boxact.tracks import ROLES, VideoTrack

from conftest import moving_track
from test_parity import THRESHOLD_SETS, model_sets

# 1 frame, shorter than the 13-tap kernel of sigma 2, and the lengths of the
# synthetic workloads
LENGTHS = st.one_of(st.just(1), st.integers(min_value=2, max_value=12), st.sampled_from([60, 300]))


def _walk(video_id: str, t: int, seed: int, visible: float) -> VideoTrack:
    """A random walk of three boxes; roles drop out and stand still at times."""
    rng = np.random.default_rng(seed)
    present = rng.random((t, len(ROLES))) < visible
    moves = rng.normal(0.0, 6.0, (t, len(ROLES), 2)) * (rng.random((t, len(ROLES), 1)) < 0.5)
    xy = rng.uniform(20.0, 200.0, (1, len(ROLES), 2)) + np.cumsum(moves, axis=0)
    wh = np.broadcast_to(rng.uniform(5.0, 60.0, (1, len(ROLES), 2)), xy.shape)
    boxes = np.where(present[:, :, None], np.concatenate([xy, wh], axis=2), 0.0)
    return VideoTrack(video_id, np.arange(t, dtype=np.int64), boxes, present, 320.0, 240.0)


@st.composite
def corpora(draw) -> list[VideoTrack]:
    lengths = draw(st.lists(LENGTHS, min_size=1, max_size=7))
    return [
        _walk(
            f"v{i}",
            t,
            draw(st.integers(min_value=0, max_value=2**32 - 1)),
            draw(st.sampled_from([0.6, 0.9, 1.0])),
        )
        for i, t in enumerate(lengths)
    ]


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@given(
    corpora(),
    model_sets,
    st.one_of(st.just(pipeline._BATCH_FRAMES), st.integers(min_value=1, max_value=700)),
    st.sampled_from([0.5, 2.0, 4.5]),
    st.integers(min_value=0, max_value=5),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_embed_all_matches_assign_track_on_each_track(
    corpus, models, budget, sigma, n, scores_only
):
    config = pipeline.PipelineConfig(
        n=n, sigma=sigma, embedding_mode="scores_only" if scores_only else "full"
    )
    with mock.patch.object(pipeline, "_BATCH_FRAMES", budget):
        result = pipeline.embed_all(corpus, models, config)
    assert list(result) == [t.video_id for t in corpus]
    for track in corpus:
        alone = pipeline.assign_track(track, models, n, sigma, scores_only)
        assert list(result[track.video_id]) == list(alone) == sorted(models)
        for action, (want_embedding, want) in alone.items():
            embedding, got = result[track.video_id][action]
            assert (embedding.video_id, embedding.action_id) == (track.video_id, action)
            assert embedding.layout == want_embedding.layout
            assert embedding.values.tobytes() == want_embedding.values.tobytes()
            assert (got.object_order, got.b_choice) == (want.object_order, want.b_choice)
            assert got.centers == want.centers and got.windows == want.windows
            assert _bits(got.total_score) == _bits(want.total_score)


def test_a_corpus_over_the_frame_budget_runs_in_several_batches():
    corpus = [_walk(f"v{i}", 300, i, 0.9) for i in range(pipeline._BATCH_FRAMES // 300 + 1)]
    corpus.append(_walk("short", 1, 99, 1.0))
    batches = list(pipeline._batches(corpus))
    assert len(batches) == 2
    assert all(sum(map(len, b)) <= pipeline._BATCH_FRAMES for b in batches)
    assert [t for b in batches for t in b] == corpus
    models = pipeline.load_models("builtin")
    result = pipeline.embed_all(corpus, models, pipeline.PipelineConfig())
    for track in corpus:
        for action, (embedding, assignment) in pipeline.assign_track(track, models).items():
            assert result[track.video_id][action][0].values.tobytes() == embedding.values.tobytes()
            assert result[track.video_id][action][1] == assignment


def test_a_track_longer_than_the_budget_is_a_batch_of_its_own():
    with mock.patch.object(pipeline, "_BATCH_FRAMES", 100):
        corpus = [_walk("a", 60, 1, 1.0), _walk("b", 300, 2, 1.0), _walk("c", 60, 3, 1.0)]
        assert [[t.video_id for t in b] for b in pipeline._batches(corpus)] == [
            ["a"], ["b"], ["c"]
        ]


@given(corpora(), st.sampled_from(THRESHOLD_SETS))
@settings(max_examples=60, deadline=None)
def test_a_batch_table_is_the_per_track_tables_stacked(corpus, config):
    stacked = np.concatenate([relation_table([track], config) for track in corpus])
    assert relation_table(corpus, config).tobytes() == stacked.tobytes()


def test_offsets_reset_at_each_track_boundary():
    # the second track's hand starts 100 px from where the first one's ended;
    # across the boundary that is no movement, exactly as at frame 0
    first = moving_track({"hand": [(10.0, 10.0), (20.0, 10.0)]})
    second = moving_track({"hand": [(120.0, 10.0), (120.0, 10.0)]})
    table = relation_table([first, second])
    assert table[:, COLUMN["speed(hand)"]].tolist() == [0.0, 10.0, 0.0, 0.0]
    assert table[:, COLUMN["moving(hand)"]].tolist() == [0.0, 1.0, 0.0, 0.0]
