"""The one-pass scoring, assignment and embedding against per-model references.

``assign_track`` scores every model of a threshold set in one array pass,
ranks all their alternatives at once and writes every window's statistics
into preallocated vectors.  Random model sets must give the bits of the
per-model functions in ``oracles``: equal assignments (``total_score`` bit
for bit) and byte-identical embeddings.  The package's own per-model
functions are one-model calls of the same kernels and are held to the same
standard.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from boxact.embedding import embed_video
from boxact.phases import (
    OBJECT_ORDERS,
    PHASES,
    ActionModel,
    Term,
    assign_with_alternatives,
    score_frames,
)
from boxact.pipeline import assign_track
from boxact.relations import DEFAULT_CONFIG, SWAP, RelationConfig, relation_keys, relation_table
from boxact.tracks import ROLES, VideoTrack

from oracles import (
    assign_with_alternatives_reference,
    embed_video_reference,
    score_frames_reference,
)

KEYS = relation_keys()
THRESHOLD_SETS = (DEFAULT_CONFIG, RelationConfig(touch_tol=6.0, move_threshold=0.5))


def _term(key: str, weight: float, negate: bool, threshold: float | None) -> Term:
    name, _, rest = key.partition("(")
    return Term(name, tuple(rest.rstrip(")").split(",")), weight, negate, threshold)


terms = st.builds(
    _term,
    st.sampled_from(KEYS),
    st.one_of(
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    ),
    st.booleans(),
    st.one_of(st.none(), st.floats(min_value=-1, max_value=60), st.sampled_from([0.0, 0.5])),
)


@st.composite
def models(draw, action_id: str) -> ActionModel:
    return ActionModel(
        action_id=action_id,
        phases={p: tuple(draw(st.lists(terms, min_size=1, max_size=4))) for p in PHASES},
        thresholds=draw(st.sampled_from(THRESHOLD_SETS)),
        extra_features=tuple(draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True))),
    )


model_sets = st.integers(min_value=1, max_value=4).flatmap(
    lambda count: st.tuples(*(models(f"m{i}") for i in range(count)))
).map(lambda ms: {m.action_id: m for m in ms})


@st.composite
def tracks(draw) -> VideoTrack:
    """A random walk of three boxes; roles drop out and stand still at times."""
    t = draw(st.one_of(st.integers(min_value=1, max_value=12), st.just(60)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    present = rng.random((t, len(ROLES))) < draw(st.sampled_from([0.6, 0.9, 1.0]))
    moves = rng.normal(0.0, 6.0, (t, len(ROLES), 2)) * (rng.random((t, len(ROLES), 1)) < 0.5)
    xy = rng.uniform(20.0, 200.0, (1, len(ROLES), 2)) + np.cumsum(moves, axis=0)
    wh = np.broadcast_to(rng.uniform(5.0, 60.0, (1, len(ROLES), 2)), xy.shape)
    boxes = np.where(present[:, :, None], np.concatenate([xy, wh], axis=2), 0.0)
    return VideoTrack("v", np.arange(t, dtype=np.int64), boxes, present, 320.0, 240.0)


def _same_assignment(got, want) -> bool:
    return got == want and np.float64(got.total_score).tobytes() == np.float64(
        want.total_score
    ).tobytes()


@given(
    model_sets,
    tracks(),
    st.floats(min_value=0.05, max_value=6.0),
    st.integers(min_value=0, max_value=6),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_one_pass_matches_the_per_model_references(models, track, sigma, n, scores_only):
    result = assign_track(track, models, n, sigma, scores_only)
    assert list(result) == sorted(models)
    for action, model in models.items():
        table = relation_table([track], model.thresholds)
        tables = (table, table[:, SWAP])
        references = [
            score_frames_reference(model, rel, order, sigma)
            for order, rel in zip(OBJECT_ORDERS, tables)
        ]
        assignment = assign_with_alternatives_reference(*references, n=n)
        chosen = OBJECT_ORDERS.index(assignment.object_order)
        values = embed_video_reference(
            assignment, references[chosen], model, tables[chosen], scores_only
        )
        embedding, got = result[action]
        assert _same_assignment(got, assignment)
        assert embedding.values.tobytes() == values.tobytes()

        matrices = [
            score_frames(track, model, rel, order, sigma)
            for order, rel in zip(OBJECT_ORDERS, tables)
        ]
        for matrix, reference in zip(matrices, references):
            assert matrix.raw.tobytes() == reference.raw.tobytes()
            assert matrix.smoothed.tobytes() == reference.smoothed.tobytes()
        assert _same_assignment(assign_with_alternatives(*matrices, n=n), assignment)
        single = embed_video(
            track, assignment, matrices[chosen], model, tables[chosen], scores_only
        )
        assert single.values.tobytes() == values.tobytes()
