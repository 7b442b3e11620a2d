from __future__ import annotations

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxact import pipeline
from boxact.errors import ConfigError, ContractError
from boxact.phases import ARCHETYPES, ActionModel, builtin_model
from boxact.pipeline import assign_track
from boxact.relations import (
    BOOLEAN_FEATURES,
    COLUMN,
    DEFAULT_CONFIG,
    FEATURES,
    SWAP,
    RelationConfig,
    feature_key,
    relation_keys,
    relation_table,
)
from boxact.tracks import COORDINATE_LIMIT, ROLES, parse_annotations

from conftest import box, make_track, moving_track
from oracles import (
    BoundingBox,
    FrameAnnotation,
    centre_dist,
    edge_gap,
    offset,
    offset_angle,
    offset_dist,
    overlap_area,
    overlap_normalised,
    relation_table_reference,
    size,
    swap_objects,
)
from test_parity import model_sets


def _at(track, index: int, config: RelationConfig = DEFAULT_CONFIG) -> dict[str, float]:
    """One frame of the relation table, keyed canonically."""
    return dict(zip(relation_keys(), relation_table([track], config)[index].tolist()))


# --- geometry, against hand-computed values ---------------------------------


def test_overlap_normalised_full_containment():
    # inner 2x2 box fully inside: 4 / (0.1 * 4) = 10
    assert overlap_normalised(box(0, 0, 2, 2), box(0, 0, 10, 10)) == 10.0


def test_overlap_normalised_partial():
    # 5x5 overlap of two 10x10 boxes: 25 / (0.1 * 100) = 2.5
    assert overlap_normalised(box(0, 0, 10, 10), box(5, 5, 10, 10)) == 2.5


def test_overlap_normalised_zero_area_box():
    assert overlap_normalised(box(0, 0, 0, 0), box(0, 0, 10, 10)) == 0.0


def test_overlap_normalised_subnormal_area_box():
    # 0.1 * 5e-324 underflows to 0.0; must not divide by it
    assert overlap_normalised(box(0, 0, 1, 5e-324), box(0, 0, 1, 1)) == 0.0


def test_overlap_area_disjoint():
    assert overlap_area(box(0, 0, 10, 10), box(20, 0, 10, 10)) == 0.0


def test_edge_gap_diagonal():
    # nearest corners 3 apart in x, 4 in y
    assert edge_gap(box(0, 0, 10, 10), box(13, 14, 10, 10)) == 5.0


def test_edge_gap_zero_when_overlapping():
    assert edge_gap(box(0, 0, 10, 10), box(5, 5, 10, 10)) == 0.0


def test_centre_dist():
    assert centre_dist(box(0, 0, 10, 10), box(3, 4, 10, 10)) == 5.0
    assert centre_dist(box(-5, -5, 10, 10), box(1, 3, 10, 10)) == 10.0


def test_offset_dist():
    assert offset_dist((3.0, 4.0), (0.0, 0.0)) == 5.0
    assert offset_dist((3.0, 4.0), (3.0, 2.0)) == 2.0


def test_offset_angle_opposite_directions():
    assert offset_angle((5.0, 0.0), (-5.0, 0.0)) == (math.pi, False)


def test_offset_angle_perpendicular_folds():
    assert offset_angle((5.0, 0.0), (0.0, 5.0)).radians == pytest.approx(math.pi / 2)
    assert offset_angle((5.0, 0.0), (0.0, -5.0)).radians == pytest.approx(math.pi / 2)


def test_offset_angle_stationary_below_threshold():
    # default move threshold is 3 px/frame, inclusive
    assert offset_angle((3.0, 0.0), (5.0, 0.0)) == (0.0, True)
    assert offset_angle((5.0, 0.0), (0.0, 0.0)) == (0.0, True)


def test_size():
    assert size(box(0, 0, 6, 7)) == 42.0


# --- per-track offsets -------------------------------------------------------


def test_offset_between_frames():
    track = moving_track({"hand": [(10, 10), (13, 14)]})
    assert offset(track, "hand", 0) == (0.0, 0.0)
    assert offset(track, "hand", 1) == (3.0, 4.0)
    speed = relation_table([track])[:, COLUMN["speed(hand)"]]
    assert speed.tolist() == [0.0, 5.0]


def test_offset_zero_after_absence():
    track = moving_track({"hand": [(10, 10), None, (20, 20)]})
    assert offset(track, "hand", 2) == (0.0, 0.0)
    assert _at(track, 2)["speed(hand)"] == 0.0
    assert _at(track, 2)["moving(hand)"] == 0.0


def test_offset_raises_when_absent():
    track = moving_track({"hand": [(10, 10), None, (20, 20)]})
    with pytest.raises(ContractError, match="hand absent at frame 1"):
        offset(track, "hand", 1)
    assert _at(track, 1)["present(hand)"] == 0.0
    assert _at(track, 1)["speed(hand)"] == 0.0


def test_sparse_indices_measure_offsets_per_annotated_step():
    # frames 0 and 10 are consecutive annotations: the 20 px jump is one step
    frames = [
        FrameAnnotation(frame_index=0, hand=box(5, 5)),
        FrameAnnotation(frame_index=10, hand=box(25, 5)),
    ]
    rel = _at(make_track(frames), 1)
    assert rel["speed(hand)"] == 20.0
    assert rel["moving(hand)"] == 1.0


# --- thresholds --------------------------------------------------------------


def test_touching_tolerance_is_inclusive():
    track_5 = moving_track({"object1": [(5, 5)], "object2": [(20, 5)]})
    track_6 = moving_track({"object1": [(5, 5)], "object2": [(21, 5)]})
    assert _at(track_5, 0)["touching(object1,object2)"] == 1.0
    assert _at(track_6, 0)["touching(object1,object2)"] == 0.0


def test_containment_fraction_boundary():
    inner = BoundingBox(0, 0, 10, 10)

    def rel_with(outer):
        return _at(make_track([FrameAnnotation(0, object1=inner, object2=outer)]), 0)

    assert rel_with(BoundingBox(0, 0, 9, 10))["contained(object1,object2)"] == 1.0
    assert rel_with(BoundingBox(0, 0, 8.9, 10))["contained(object1,object2)"] == 0.0


def test_moving_threshold_is_strict():
    at_3 = moving_track({"hand": [(0, 0), (3, 0)]})
    above = moving_track({"hand": [(0, 0), (4, 0)]})
    assert _at(at_3, 1)["moving(hand)"] == 0.0
    assert _at(above, 1)["moving(hand)"] == 1.0


def test_move_with_hand():
    track = moving_track(
        {"object1": [(10, 10), (16, 10)], "hand": [(12, 10), (18, 10)]}
    )
    rel = _at(track, 1)
    assert rel["move_with_hand(object1)"] == 1.0
    assert rel["hand_move_relative(object1)"] == 0.0
    assert rel["object_move_relative(object1,hand)"] == 0.0


def test_hand_move_relative():
    track = moving_track({"object1": [(10, 10), (10, 10)], "hand": [(30, 10), (38, 10)]})
    rel = _at(track, 1)
    assert rel["hand_move_relative(object1)"] == 1.0
    assert rel["move_with_hand(object1)"] == 0.0
    assert rel["object_move_relative(object1,hand)"] == 0.0
    assert rel["object_move_relative(hand,object1)"] == 1.0


def test_centre_on_top_and_underneath():
    track = moving_track({"object1": [(15, 2)], "object2": [(15, 20)]})
    rel = _at(track, 0)
    assert rel["centre_on_top(object1,object2)"] == 1.0
    assert rel["centre_underneath(object1,object2)"] == 0.0
    assert rel["centre_on_top(object2,object1)"] == 0.0
    assert rel["centre_underneath(object2,object1)"] == 1.0


def test_centre_on_top_requires_x_alignment():
    track = moving_track({"object1": [(100, 2)], "object2": [(15, 20)]})
    rel = _at(track, 0)
    assert rel["centre_on_top(object1,object2)"] == 0.0
    assert rel["centre_underneath(object2,object1)"] == 0.0


def test_absent_entity_features_are_zero():
    track = moving_track({"object2": [(50, 50)]})
    rel = _at(track, 0)
    assert rel["present(hand)"] == 0.0
    assert rel["size(hand)"] == 0.0
    assert rel["overlap(object1,object2)"] == 0.0
    assert rel["touching(object2,hand)"] == 0.0
    assert rel["contained(object1,object2)"] == 0.0


# --- configuration -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        RelationConfig(touch_tol=-1)
    with pytest.raises(ConfigError):
        RelationConfig(containment_fraction=0.0)
    for value in (float("nan"), float("inf"), "5", True, None):
        with pytest.raises(ConfigError, match="must be a finite number"):
            RelationConfig(move_threshold=value)
    with pytest.raises(ConfigError):
        RelationConfig.from_dict({"touch_tol": 2, "bogus": 1})
    assert RelationConfig.from_dict({"touch_tol": 2.0}).touch_tol == 2.0


def test_custom_threshold_changes_result():
    track = moving_track({"object1": [(5, 5)], "object2": [(21, 5)]})
    loose = RelationConfig(touch_tol=8.0)
    assert _at(track, 0, loose)["touching(object1,object2)"] == 1.0


# --- the feature catalogue ---------------------------------------------------


def test_feature_key_canonicalises_symmetric_arguments():
    assert feature_key("touching", ("hand", "object1")) == "touching(object1,hand)"
    assert feature_key("overlap", ("object2", "object1")) == "overlap(object1,object2)"
    # ordered features keep their argument order
    assert feature_key("contained", ("object2", "object1")) == "contained(object2,object1)"


@pytest.mark.parametrize(
    "name, args",
    [
        ("wobble", ("hand",)),
        ("touching", ("hand",)),
        ("present", ("object1", "object2")),
        ("touching", ("object1", "object1")),
        ("move_with_hand", ("hand",)),
        ("present", ("foot",)),
    ],
)
def test_feature_key_rejects(name, args):
    with pytest.raises(ConfigError):
        feature_key(name, args)


ROLE_TUPLES = [(a,) for a in ROLES] + [(a, b) for a in ROLES for b in ROLES]


@pytest.mark.parametrize("name", sorted(FEATURES))
def test_feature_key_accepts_exactly_the_catalogued_role_tuples(name):
    feature = FEATURES[name]
    keys = set()
    for args in ROLE_TUPLES:
        listed = args in feature.args or (feature.symmetric and args[::-1] in feature.args)
        if listed:
            key = feature_key(name, args)
            canonical = args if args in feature.args else args[::-1]
            assert key == f"{name}({','.join(canonical)})" and key in COLUMN
            keys.add(key)
        else:
            allowed = " or ".join(f"({','.join(t)})" for t in feature.args)
            with pytest.raises(ConfigError, match=re.escape(f"takes {allowed}, got")):
                feature_key(name, args)
    # a symmetric pair gives one key in either order
    assert keys == {k for k in relation_keys() if k.startswith(f"{name}(")}
    assert len(keys) == len(feature.args)


def test_catalogue_derivations_match_the_hand_written_catalogue():
    # the keys, the object swap and the booleans, as the per-group tuples gave them
    assert relation_keys() == (
        "size(object1)", "size(object2)", "size(hand)",
        "speed(object1)", "speed(object2)", "speed(hand)",
        "present(object1)", "present(object2)", "present(hand)",
        "moving(object1)", "moving(object2)", "moving(hand)",
        "overlap(object1,object2)", "overlap(object1,hand)", "overlap(object2,hand)",
        "offset_dist(object1,object2)", "offset_dist(object1,hand)", "offset_dist(object2,hand)",
        "offset_angle(object1,object2)", "offset_angle(object1,hand)",
        "offset_angle(object2,hand)",
        "centre_dist(object1,object2)", "centre_dist(object1,hand)", "centre_dist(object2,hand)",
        "touching(object1,object2)", "touching(object1,hand)", "touching(object2,hand)",
        "contained(object1,object2)", "contained(object1,hand)", "contained(object2,object1)",
        "contained(object2,hand)", "contained(hand,object1)", "contained(hand,object2)",
        "centre_on_top(object1,object2)", "centre_on_top(object1,hand)",
        "centre_on_top(object2,object1)", "centre_on_top(object2,hand)",
        "centre_on_top(hand,object1)", "centre_on_top(hand,object2)",
        "centre_underneath(object1,object2)", "centre_underneath(object1,hand)",
        "centre_underneath(object2,object1)", "centre_underneath(object2,hand)",
        "centre_underneath(hand,object1)", "centre_underneath(hand,object2)",
        "object_move_relative(object1,object2)", "object_move_relative(object1,hand)",
        "object_move_relative(object2,object1)", "object_move_relative(object2,hand)",
        "object_move_relative(hand,object1)", "object_move_relative(hand,object2)",
        "move_with_hand(object1)", "move_with_hand(object2)",
        "hand_move_relative(object1)", "hand_move_relative(object2)",
    )
    assert SWAP.tolist() == [
        1, 0, 2, 4, 3, 5, 7, 6, 8, 10, 9, 11, 12, 14, 13, 15, 17, 16, 18, 20, 19, 21, 23, 22,
        24, 26, 25, 29, 30, 27, 28, 32, 31, 35, 36, 33, 34, 38, 37, 41, 42, 39, 40, 44, 43,
        47, 48, 45, 46, 50, 49, 52, 51, 54, 53,
    ]
    assert sorted(BOOLEAN_FEATURES) == [
        "centre_on_top", "centre_underneath", "contained", "hand_move_relative",
        "move_with_hand", "moving", "object_move_relative", "present", "touching",
    ]


def test_relation_keys_catalogue():
    keys = relation_keys()
    assert len(keys) == len(set(keys)) == 55
    assert "speed(hand)" in keys
    assert "offset_angle(object1,hand)" in keys


def test_frame_relations_covers_the_catalogue():
    track = moving_track({"object1": [(10, 10)], "object2": [(50, 50)], "hand": [(90, 90)]})
    table = relation_table([track])
    assert table.shape == (1, len(relation_keys()))
    assert list(COLUMN) == list(relation_keys())


# --- properties --------------------------------------------------------------


coords = st.floats(min_value=-200, max_value=400, allow_nan=False)
extents = st.floats(min_value=0, max_value=200, allow_nan=False)
boxes = st.builds(BoundingBox, coords, coords, extents, extents)


@given(boxes, boxes)
@settings(max_examples=100, deadline=None)
def test_pair_geometry_is_symmetric(b1, b2):
    assert overlap_normalised(b1, b2) == overlap_normalised(b2, b1)
    assert edge_gap(b1, b2) == edge_gap(b2, b1)
    assert centre_dist(b1, b2) == centre_dist(b2, b1)


@given(boxes, boxes)
@settings(max_examples=100, deadline=None)
def test_overlap_bounds(b1, b2):
    area = overlap_area(b1, b2)
    assert 0.0 <= area <= min(b1.area, b2.area) + 1e-9
    if area > 0:
        assert edge_gap(b1, b2) == 0.0


vectors = st.tuples(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)


@given(vectors, vectors)
@settings(max_examples=100, deadline=None)
def test_offset_angle_range_and_symmetry(o1, o2):
    a = offset_angle(o1, o2)
    assert 0.0 <= a.radians <= math.pi + 1e-12
    assert offset_angle(o2, o1) == a


@given(st.integers(min_value=0, max_value=3))
@settings(max_examples=4, deadline=None)
def test_boolean_values_are_indicator_floats(seed):
    rng = np.random.default_rng(seed)
    centres = {
        e: [tuple(rng.uniform(0, 300, size=2)) for _ in range(4)] for e in ROLES
    }
    table = relation_table([moving_track(centres)])
    for key, column in COLUMN.items():
        if FEATURES[key.split("(", 1)[0]].kind == "boolean":
            assert set(table[:, column].tolist()) <= {0.0, 1.0}


# --- the table against the per-frame oracle ------------------------------------

# Integer grid values make shared edges, exact touch_tol gaps and zero-area
# boxes common; free floats cover everything in between.
grid = st.integers(min_value=-20, max_value=60).map(float)
table_coords = st.one_of(grid, st.floats(min_value=-200, max_value=400))
table_extents = st.one_of(
    st.integers(min_value=0, max_value=20).map(float),
    st.floats(min_value=0, max_value=200),
)
table_boxes = st.builds(BoundingBox, table_coords, table_coords, table_extents, table_extents)
configs = st.sampled_from(
    [
        DEFAULT_CONFIG,
        RelationConfig(touch_tol=0.0, containment_fraction=1.0, move_threshold=0.0),
        RelationConfig(touch_tol=2.0, move_threshold=1.5, move_with_hand_tol=0.5),
    ]
)


@st.composite
def relation_tracks(draw):
    """1-8 frames with sparse indices; some entities absent throughout."""
    indices = sorted(draw(st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=8)))
    roles = draw(st.sets(st.sampled_from(ROLES)))
    frames = []
    for idx in indices:
        boxes = {r: draw(st.one_of(st.none(), table_boxes)) for r in sorted(roles)}
        frames.append(FrameAnnotation(frame_index=idx, **boxes))
    return make_track(frames)


def _two_frame(o1, o2, hand, idx=(0, 1)):
    return make_track(
        [FrameAnnotation(i, object1=a, object2=b, hand=c) for i, a, b, c in zip(idx, o1, o2, hand)]
    )


REAL_COLUMNS = np.array([FEATURES[k.split("(", 1)[0]].kind == "real" for k in relation_keys()])


@given(relation_tracks(), configs)
@example(make_track([FrameAnnotation(0, object1=box(0, 0), hand=box(15, 0))]), DEFAULT_CONFIG)
@example(
    # the hand is absent throughout; object2 comes and goes; object1 has no area
    _two_frame((box(0, 0, 0, 0), box(1, 1, 0, 4)), (box(12, 0), None), (None, None), idx=(3, 17)),
    DEFAULT_CONFIG,
)
@example(
    # edges exactly touch_tol apart, moving together across a sparse gap
    _two_frame((box(0, 0), box(6, 0)), (box(30, 0), None), (box(15, 0), box(21, 0)), idx=(0, 9)),
    DEFAULT_CONFIG,
)
@settings(max_examples=300, deadline=None)
def test_table_matches_the_per_frame_oracle(track, config):
    table = relation_table([track], config)
    expected = np.array(
        [[row[k] for k in relation_keys()] for row in relation_table_reference(track, config)]
    )
    assert table.shape == expected.shape == (len(track.frames), 55)
    assert np.array_equal(table[:, ~REAL_COLUMNS], expected[:, ~REAL_COLUMNS])
    np.testing.assert_allclose(table[:, REAL_COLUMNS], expected[:, REAL_COLUMNS], rtol=1e-12, atol=0)


@given(relation_tracks(), configs)
@settings(max_examples=200, deadline=None)
def test_swapping_the_objects_permutes_the_columns(track, config):
    swapped = relation_table([swap_objects(track)], config)
    assert np.array_equal(swapped, relation_table([track], config)[:, SWAP])


@given(
    st.lists(relation_tracks(), min_size=1, max_size=3),
    configs,
    st.lists(st.integers(min_value=0, max_value=len(relation_keys()) - 1), max_size=60),
)
@example(
    # move_with_hand alone: its gap and relative movement are built for it
    [_two_frame((box(0, 0),) * 2, (box(30, 0),) * 2, (box(15, 0), box(21, 0)))],
    DEFAULT_CONFIG,
    [COLUMN["move_with_hand(object1)"]],
)
@settings(max_examples=300, deadline=None)
def test_a_restricted_table_holds_the_full_tables_columns(tracks, config, columns):
    # columns in any order, repeats allowed; the others stay +0.0
    full = relation_table(tracks, config)
    restricted = relation_table(tracks, config, columns)
    chosen = np.isin(np.arange(full.shape[1]), columns)
    assert restricted.shape == full.shape
    assert restricted[:, chosen].tobytes() == full[:, chosen].tobytes()
    assert restricted[:, ~chosen].tobytes() == np.zeros_like(full[:, ~chosen]).tobytes()


@given(model_sets)
@example({a: builtin_model(a) for a in ARCHETYPES})
@settings(max_examples=100, deadline=None)
def test_the_pass_computes_every_column_its_models_read(models):
    computed = []

    def table(tracks, config, columns):
        computed.append((config, set(columns.tolist())))
        return relation_table(tracks, config, columns)

    track = moving_track({"object1": [(10, 10), (12, 10)], "hand": [(40, 10), (30, 10)]})
    with mock.patch.object(pipeline, "relation_sequence", table):
        assign_track(track, models)
    columns = dict(computed)
    assert len(columns) == len(computed) == len({m.thresholds for m in models.values()})
    for model in models.values():
        read = model.feature_columns
        terms = model.term_arrays
        for order in (read, SWAP[read], terms.column, terms.swapped.column):
            assert set(order.tolist()) <= columns[model.thresholds]
    if set(models) == set(ARCHETYPES):
        assert len(columns[DEFAULT_CONFIG]) == 14


def test_swap_is_an_involution():
    assert np.array_equal(SWAP[SWAP], np.arange(len(SWAP)))
    keys = relation_keys()
    assert keys[SWAP[COLUMN["present(object1)"]]] == "present(object2)"
    assert keys[SWAP[COLUMN["contained(object1,object2)"]]] == "contained(object2,object1)"
    assert keys[SWAP[COLUMN["touching(object1,object2)"]]] == "touching(object1,object2)"
    assert keys[SWAP[COLUMN["move_with_hand(object2)"]]] == "move_with_hand(object1)"
    assert keys[SWAP[COLUMN["speed(hand)"]]] == "speed(hand)"


# --- every accepted track stays finite ------------------------------------------

limit_coords = st.floats(min_value=-COORDINATE_LIMIT, max_value=COORDINATE_LIMIT)
limit_extents = st.floats(min_value=0.0, max_value=COORDINATE_LIMIT)


@st.composite
def box_documents(draw):
    frames = []
    for idx in sorted(draw(st.sets(st.integers(0, 50), min_size=1, max_size=12))):
        roles = draw(st.sets(st.sampled_from(ROLES)))
        boxes = [
            dict(
                role=r,
                x=draw(limit_coords),
                y=draw(limit_coords),
                w=draw(limit_extents),
                h=draw(limit_extents),
            )
            for r in sorted(roles)
        ]
        frames.append({"idx": idx, "boxes": boxes})
    return [{"id": "v", "width": 320, "height": 240, "frames": frames}]


ALL_RELATIONS = ActionModel(
    action_id="all-relations",
    phases=builtin_model("put-into").phases,
    extra_features=relation_keys(),
)


@given(box_documents())
@example(
    [{"id": "v", "width": 320, "height": 240, "frames": [
        {"idx": 0, "boxes": [
            {"role": r, "x": -COORDINATE_LIMIT, "y": COORDINATE_LIMIT,
             "w": COORDINATE_LIMIT, "h": COORDINATE_LIMIT} for r in ROLES]},
        {"idx": 1, "boxes": [
            {"role": "object1", "x": COORDINATE_LIMIT, "y": 0.0, "w": 5e-324, "h": 1e-300},
            {"role": "hand", "x": COORDINATE_LIMIT, "y": -COORDINATE_LIMIT, "w": 0.0,
             "h": COORDINATE_LIMIT}]},
    ]}]
)
@settings(max_examples=100, deadline=None)
def test_accepted_tracks_give_finite_tables_and_embeddings(document):
    track = parse_annotations(document)[0]
    assert np.isfinite(relation_table([track])).all()
    embedding, _ = assign_track(track, {"all-relations": ALL_RELATIONS})["all-relations"]
    assert np.isfinite(embedding.values).all()
