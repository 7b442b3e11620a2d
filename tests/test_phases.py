"""Scoring, smoothing, and greedy phase assignment.

The smoothing tests pin down the renormalised-boundary behaviour with frozen
numbers; the assignment tests use hand-built score matrices whose optima are
known by construction.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from boxact.errors import ConfigError, ContractError
from boxact.phases import (
    ARCHETYPES,
    MAX_TERM_WEIGHT,
    PHASES,
    ActionModel,
    PhaseScoreMatrix,
    Term,
    TermArrays,
    _windows,
    assign_phases,
    assign_with_alternatives,
    builtin_model,
    builtin_models,
    gaussian_kernel,
    load_action_model,
    save_action_model,
    score_frames,
    score_rows,
    second_best_b,
    smooth,
    standardized_rows,
)
from boxact.phases import model_from_dict, model_to_dict
from boxact.pipeline import assign_track
from boxact.synthetic import SyntheticScript, generate_synthetic

from boxact.relations import SWAP, relation_table
from boxact.tracks import COORDINATE_LIMIT, ROLES, VideoTrack

from conftest import moving_track
from oracles import (
    _windows_reference,
    assign_with_alternatives_reference,
    relation_table_reference,
    smooth_reference,
    term_value,
)

# --- smoothing ----------------------------------------------------------------

# sigma=1 kernel: exp(-k^2/2) for k in -3..3, normalised
SIGMA1_KERNEL = [
    0.004433048175243745,
    0.054005582622414484,
    0.2420362293761143,
    0.3990502796524549,
    0.2420362293761143,
    0.054005582622414484,
    0.004433048175243745,
]


def test_kernel_taps_sigma_1():
    k = gaussian_kernel(1.0)
    assert k.tolist() == pytest.approx(SIGMA1_KERNEL)


def test_kernel_radius():
    assert gaussian_kernel(2.0).size == 13  # radius int(3*2 + 0.5) = 6
    assert gaussian_kernel(0.1).size == 3  # radius floor of 1
    assert gaussian_kernel(1.0).sum() == pytest.approx(1.0)


def test_kernel_rejects_non_positive_sigma():
    # NaN and infinity are rejected too: the radius int(3 * sigma + 0.5) raised
    for sigma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ContractError, match="finite and positive"):
            gaussian_kernel(sigma)


def test_kernel_rejects_sigma_above_1000():
    # a huge finite sigma made np.arange raise "Maximum allowed size exceeded"
    for sigma in (1000.5, 1e7, 1e300):
        with pytest.raises(ContractError, match="at most 1000"):
            gaussian_kernel(sigma)
    assert gaussian_kernel(1000.0).size == 6001


@pytest.mark.parametrize("sigma", [1e-154, 1e-300, 5e-324])
def test_kernel_of_a_tiny_sigma_is_exact_and_quiet(sigma):
    # (x / sigma) ** 2 overflowed with a RuntimeWarning below about 1e-154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = gaussian_kernel(sigma)
        smoothed = smooth([1.0, 5.0, 2.0], sigma)
    assert k.tolist() == [0.0, 1.0, 0.0]
    assert smoothed.tolist() == [1.0, 5.0, 2.0]


def test_interior_impulse_response_is_the_kernel():
    x = np.zeros(15)
    x[7] = 1.0
    assert smooth(x, 1.0)[4:11].tolist() == pytest.approx(SIGMA1_KERNEL)


def test_boundary_renormalisation_frozen_values():
    x = np.zeros(10)
    x[0] = 1.0
    s = smooth(x, 1.0)
    # at index 0 only taps 0..3 are in range: 0.39905 / (sum of 4 taps)
    assert s[0] == pytest.approx(0.5704588111752281)
    assert s[1] == pytest.approx(0.25705836846424474)


def test_smooth_rejects_bad_input():
    with pytest.raises(ContractError):
        smooth(np.zeros((2, 3)), 1.0)
    assert smooth(np.empty(0), 1.0).size == 0


@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([0.7, 1.0, 2.0, 3.0]),
)
@settings(max_examples=60, deadline=None)
def test_constant_series_is_a_fixed_point(value, length, sigma):
    out = smooth(np.full(length, value), sigma)
    assert np.allclose(out, value)


@given(
    st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=50),
    st.sampled_from([1.0, 2.0, 3.0]),
)
@settings(max_examples=80, deadline=None)
def test_smooth_matches_reference(series, sigma):
    assert np.allclose(smooth(series, sigma), smooth_reference(series, sigma))


def test_asymmetric_peak_can_shift():
    # strictly unimodal but far from symmetric: the argmax moves from 10 to 5.
    # This is why the synthetic generator keeps its bumps symmetric.
    i = np.arange(20)
    tent = np.where(i <= 10, 10 - 0.05 * (10 - i), 10 - 5.0 * (i - 10))
    assert int(np.argmax(tent)) == 10
    assert int(np.argmax(smooth(tent, 2.0))) == 5


# --- terms and models -----------------------------------------------------------


def _term_series(term, table):
    """The term's contribution at every frame: its raw score row alone."""
    raw, _ = score_rows(TermArrays.of([(term,)]), table)
    return raw[0]


def _term_at(term, track, index):
    """The term's contribution at one frame, read from the relation table."""
    return _term_series(term, relation_table([track]))[index]


def test_term_weight_and_negate_on_booleans():
    track = moving_track({"hand": [(10, 10)], "object2": [(50, 50)]})
    assert _term_at(Term("present", ("hand",), weight=2.0), track, 0) == 2.0
    assert _term_at(Term("present", ("object1",), weight=2.0, negate=True), track, 0) == 2.0
    assert _term_at(Term("present", ("hand",), negate=True), track, 0) == 0.0


def test_term_negate_on_real_features_flips_sign():
    track = moving_track({"hand": [(0, 0), (10, 0)]})
    assert _term_at(Term("speed", ("hand",)), track, 1) == 10.0
    assert _term_at(Term("speed", ("hand",), negate=True), track, 1) == -10.0


def test_term_threshold_builds_an_indicator():
    track = moving_track({"hand": [(0, 0), (10, 0)]})
    assert _term_at(Term("speed", ("hand",), threshold=5.0), track, 1) == 1.0
    assert _term_at(Term("speed", ("hand",), threshold=15.0), track, 1) == 0.0
    # negate applies to the indicator, not the raw value
    assert _term_at(Term("speed", ("hand",), threshold=15.0, negate=True), track, 1) == 1.0


def test_term_series_agrees_with_value():
    rng = np.random.default_rng(3)
    centres = {
        "object1": [tuple(rng.uniform(0, 300, 2)) for _ in range(8)],
        "hand": [tuple(rng.uniform(0, 300, 2)) for _ in range(8)],
    }
    track = moving_track(centres)
    table = relation_table([track])
    rels = relation_table_reference(track)
    terms = [
        Term("speed", ("hand",), weight=0.3),
        Term("touching", ("object1", "hand"), weight=4.0),
        Term("centre_dist", ("object1", "hand"), negate=True),
        Term("size", ("object1",), threshold=50.0, negate=True, weight=2.0),
    ]
    for term in terms:
        assert np.allclose(
            _term_series(term, table), [term_value(term, r) for r in rels]
        )


def _tiny_model() -> ActionModel:
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


def test_model_requires_all_phases():
    phases = {p: (Term("present", ("hand",)),) for p in "abcd"}
    with pytest.raises(ConfigError, match=r"phases \['e'\]"):
        ActionModel(action_id="m", phases=phases)


def test_model_rejects_unknown_phase():
    phases = {p: (Term("present", ("hand",)),) for p in PHASES}
    phases["f"] = phases["a"]
    with pytest.raises(ConfigError, match="unknown phases"):
        ActionModel(action_id="m", phases=phases)


def test_feature_list_is_sorted_and_deduplicated():
    model = _tiny_model()
    assert model.feature_list == (
        "present(hand)",
        "present(object1)",
        "present(object2)",
    )


def test_feature_list_includes_extra_features():
    model = ActionModel(
        action_id="m",
        phases=_tiny_model().phases,
        extra_features=("speed(hand)",),
    )
    assert "speed(hand)" in model.feature_list


def test_model_dict_round_trip():
    model = _tiny_model()
    assert model_from_dict(model_to_dict(model)) == model


def test_model_file_round_trip(tmp_path):
    model = _tiny_model()
    path = tmp_path / "m.json"
    save_action_model(model, path)
    assert load_action_model(path) == model


def test_builtin_models_cover_all_archetypes():
    models = builtin_models()
    assert set(models) == set(ARCHETYPES)
    for name, model in models.items():
        assert model.action_id == name
        assert model_from_dict(model_to_dict(model)) == model


def test_builtin_model_unknown_archetype():
    with pytest.raises(ConfigError, match="unknown archetype"):
        builtin_model("juggle")


def test_model_from_dict_rejects_unknown_top_level_fields():
    # a misspelt "thresholds" used to load silently with the default thresholds
    data = model_to_dict(_tiny_model())
    data["treshholds"] = {"touch_tol": 50.0}
    with pytest.raises(ConfigError, match=r"model 'tiny': unknown fields \['treshholds'\]"):
        model_from_dict(data)


def test_model_from_dict_rejects_unknown_term_fields():
    data = model_to_dict(_tiny_model())
    data["phases"]["a"][0]["oops"] = 1
    with pytest.raises(ConfigError, match="unknown term fields"):
        model_from_dict(data)


def test_the_largest_accepted_weight_keeps_every_row_finite():
    # boxes at the coordinate limit; the area alternates between 0 and 1e18
    t = 30
    boxes = np.zeros((t, len(ROLES), 4))
    boxes[:, :, 0] = np.where(np.arange(t) % 3 == 0, COORDINATE_LIMIT, -COORDINATE_LIMIT)[:, None]
    boxes[:, :, 1] = -COORDINATE_LIMIT
    boxes[:, :, 2] = np.where(np.arange(t) % 2 == 0, COORDINATE_LIMIT, 0.0)[:, None]
    boxes[:, :, 3] = COORDINATE_LIMIT
    track = VideoTrack("v", np.arange(t), boxes, np.ones((t, len(ROLES)), dtype=bool), 1.0, 1.0)
    data = model_to_dict(_tiny_model())
    for p, sign in zip(PHASES, (1, -1, 1, -1, 1)):
        data["phases"][p] = [
            {"feature": name, "args": args, "weight": sign * MAX_TERM_WEIGHT}
            for name, args in [("size", ["object1"]), ("size", ["hand"]), ("speed", ["hand"]),
                               ("centre_dist", ["object1", "hand"])] * 3
        ]
    model = model_from_dict(data)
    table = relation_table([track])
    assert np.abs(table).max() <= COORDINATE_LIMIT**2
    terms = model.term_arrays
    raw, smoothed = score_rows(terms, table)
    assert np.isfinite(raw).all() and np.isfinite(smoothed).all()
    assert np.isfinite(standardized_rows(_matrix(smoothed[terms.rows]))).all()
    embedding, assignment = assign_track(track, {"tiny": model})["tiny"]
    assert np.isfinite(embedding.values).all() and np.isfinite(assignment.total_score)
    data["phases"]["a"][0]["weight"] = -np.nextafter(MAX_TERM_WEIGHT, np.inf)
    with pytest.raises(ConfigError, match="weight must be at most 1e[+]100 in magnitude"):
        model_from_dict(data)


def _size_model(weight: float) -> ActionModel:
    term = Term("size", ("object1",), weight=weight)
    return ActionModel("put-into", {p: (term,) for p in PHASES})


@pytest.mark.parametrize("weight", [MAX_TERM_WEIGHT, -MAX_TERM_WEIGHT])
def test_a_term_built_in_code_takes_weights_up_to_the_bound(weight):
    centres = {"a": 0, "b": 15, "c": 29, "d": 44, "e": 59}
    track, _ = generate_synthetic(SyntheticScript("put-into", 60, centres))
    embedding, assignment = assign_track(track, {"put-into": _size_model(weight)})["put-into"]
    assert np.isfinite(embedding.values).all() and np.isfinite(assignment.total_score)


@pytest.mark.parametrize("weight", [1e306, -np.nextafter(MAX_TERM_WEIGHT, np.inf), np.nan])
def test_a_term_built_in_code_rejects_weights_past_the_bound(weight):
    # 1e306 on every phase would give assign_track a NaN total score
    with pytest.raises(ConfigError, match="term 'size': weight must be at most 1e[+]100"):
        _size_model(weight)


# A term or model built in code obeys the rules of a model file.  Each of these
# was taken before: "no" scored like True, a NaN threshold compared false on
# every frame, and the rest failed later with a TypeError, KeyError or
# AttributeError.
@pytest.mark.parametrize(
    "changes, message",
    [
        ({"negate": "no"}, "term 'size': negate must be true or false, got 'no'"),
        ({"threshold": float("nan")}, "term 'size': threshold must be a finite number, got nan"),
        ({"threshold": "1"}, "term 'size': threshold must be a finite number, got '1'"),
        ({"weight": "x"}, "term 'size': weight must be a number, got 'x'"),
        ({"args": "object1"}, "term 'size': args must be a list, got 'object1'"),
    ],
    ids=["negate-text", "threshold-nan", "threshold-text", "weight-text", "args-text"],
)
def test_a_term_built_in_code_checks_its_fields(changes, message):
    with pytest.raises(ConfigError) as info:
        Term(**{"feature": "size", "args": ("object1",), **changes})
    assert str(info.value) == message


def test_a_model_built_in_code_rejects_an_unknown_extra_feature():
    with pytest.raises(ConfigError, match=r"model 'm': 'features' must be .*'wobble\(hand\)'"):
        ActionModel("m", _tiny_model().phases, extra_features=("wobble(hand)",))


@pytest.mark.parametrize("entry", [5, "present(hand)", {"feature": "present", "args": ["hand"]}])
def test_a_model_built_in_code_rejects_a_phase_entry_that_is_not_a_term(entry):
    phases = {**_tiny_model().phases, "c": (Term("present", ("hand",)), entry)}
    with pytest.raises(ConfigError, match="model 'm': phase 'c' must be a list of terms"):
        ActionModel("m", phases)


def test_a_term_built_in_code_holds_its_fields_as_a_model_file_does():
    term = Term("touching", ["hand", "object1"], weight=2, threshold=1)
    model = ActionModel("m", {p: (term,) for p in PHASES})
    assert model_from_dict(model_to_dict(model)) == model
    assert (term.args, term.weight, term.threshold) == (("hand", "object1"), 2.0, 1.0)
    assert type(term.weight) is type(term.threshold) is float


# --- scoring --------------------------------------------------------------------


def test_score_frames_raw_rows():
    track = moving_track(
        {"hand": [None, (50, 50), (50, 50), None], "object2": [(99, 99)] * 4}
    )
    matrix = score_frames(track, _tiny_model(), relation_table([track]), sigma=1.0)
    hand = [0.0, 1.0, 1.0, 0.0]
    assert matrix.raw[PHASES.index("a")].tolist() == [1.0] * 4
    assert matrix.raw[PHASES.index("b")].tolist() == [2 * v for v in hand]
    assert matrix.raw[PHASES.index("d")].tolist() == [1 - v for v in hand]
    assert np.allclose(matrix.smoothed[1], smooth(np.array(hand) * 2, 1.0))
    assert matrix.num_frames == 4
    assert matrix.row("b", kind="raw").tolist() == [0.0, 2.0, 2.0, 0.0]


def test_score_frames_object_order():
    track = moving_track({"object2": [(50, 50)]})
    model = _tiny_model()
    ann = score_frames(track, model, relation_table([track]), "as_annotated")
    swap = score_frames(track, model, relation_table([track])[:, SWAP], "swapped")
    e_row = PHASES.index("e")  # e scores present(object1)
    assert ann.raw[e_row, 0] == 0.0
    assert swap.raw[e_row, 0] == 1.0  # the swapped object1 is the old object2
    assert ann.object_order == "as_annotated"
    assert swap.object_order == "swapped"
    with pytest.raises(ContractError, match="2 relation frames for 1 track frames"):
        score_frames(track, model, np.zeros((2, 55)))


def test_standardized_rows():
    matrix = PhaseScoreMatrix(
        action_id="m",
        object_order="as_annotated",
        raw=np.zeros((5, 4)),
        smoothed=np.array(
            [[1.0, 2.0, 3.0, 4.0]] * 4 + [[7.0, 7.0, 7.0, 7.0]]
        ),
        sigma=2.0,
    )
    z = standardized_rows(matrix)
    assert np.allclose(z[:4].mean(axis=1), 0.0)
    assert np.allclose(z[:4].std(axis=1), 1.0)
    assert np.all(z[4] == 0.0)  # constant row stays zero, not NaN



def test_a_strided_score_matrix_ranks_like_its_contiguous_copy():
    # numpy reduces a strided row in another order than a contiguous one
    rng = np.random.default_rng(1)
    for t in (20, 61, 199):
        view = rng.normal(size=(t, len(PHASES))).T
        copy = np.ascontiguousarray(view)
        strided, contiguous = _matrix(view), _matrix(copy)
        assert standardized_rows(strided).tobytes() == standardized_rows(contiguous).tobytes()
        got, want = assign_phases(strided), assign_phases(contiguous)
        assert repr(got) == repr(want)

# --- assignment -----------------------------------------------------------------


def _matrix(rows: np.ndarray, order: str = "as_annotated") -> PhaseScoreMatrix:
    return PhaseScoreMatrix(
        action_id="m", object_order=order, raw=rows, smoothed=rows, sigma=2.0
    )


def _peaked(t: int, peaks: dict[str, int], height: float = 5.0) -> np.ndarray:
    rows = np.zeros((5, t))
    for p, at in peaks.items():
        rows[PHASES.index(p), at] = height
    return rows


def test_greedy_assignment_hits_designed_peaks():
    rows = _peaked(20, {"a": 3, "b": 10, "c": 12, "d": 15, "e": 19})
    res = assign_phases(_matrix(rows))
    assert res.centers == {"a": 3, "b": 10, "c": 12, "d": 15, "e": 19}
    assert not res.degenerate
    # adjacent windows clip at centre midpoints; earlier phase keeps the frame
    assert res.windows == {
        "a": (0, 6),
        "b": (7, 11),
        "c": (12, 13),
        "d": (14, 17),
        "e": (18, 19),
    }
    z = standardized_rows(_matrix(rows))
    expected = sum(z[PHASES.index(p), res.centers[p]] for p in PHASES)
    assert res.total_score == pytest.approx(expected)


def test_each_centre_lies_inside_its_window():
    rows = _peaked(20, {"a": 3, "b": 10, "c": 12, "d": 15, "e": 19})
    res = assign_phases(_matrix(rows))
    for p in PHASES:
        lo, hi = res.windows[p]
        assert lo <= res.centers[p] <= hi


def test_b_at_frame_zero_leaves_a_unassigned():
    rows = _peaked(12, {"b": 0, "c": 4, "d": 7, "e": 10})
    res = assign_phases(_matrix(rows))
    assert res.centers["b"] == 0
    assert res.centers["a"] is None
    assert res.degenerate
    assert res.windows["a"] is None
    assert tuple(p for p in PHASES if res.centers[p] is not None) == ("b", "c", "d", "e")


def test_b_at_last_frame_leaves_later_phases_unassigned():
    rows = _peaked(12, {"a": 2, "b": 11})
    res = assign_phases(_matrix(rows))
    assert res.centers == {"a": 2, "b": 11, "c": None, "d": None, "e": None}


def test_single_frame_track_is_degenerate():
    res = assign_phases(_matrix(np.ones((5, 1))))
    assert res.centers["b"] == 0
    assert tuple(p for p in PHASES if res.centers[p] is not None) == ("b",)


def test_assign_rejects_negative_window():
    with pytest.raises(ContractError):
        assign_phases(_matrix(np.ones((5, 4))), n=-1)


def test_restricted_ties_resolve_to_the_lowest_index():
    rows = np.zeros((5, 9))
    rows[PHASES.index("b"), 4] = 5.0  # every other row is flat
    res = assign_phases(_matrix(rows))
    # flat rows tie everywhere; argmax picks the first frame of each range,
    # which leaves no room between b and d for c
    assert res.centers == {"a": 0, "b": 4, "c": None, "d": 5, "e": 6}


def test_second_best_b_masks_the_best_peak():
    rows = np.zeros((5, 20))
    rows[1, 5] = 9.0
    rows[1, 15] = 7.0
    rows[1, 7] = 8.0  # inside the +/-3 mask of frame 5
    assert second_best_b(_matrix(rows)) == 15


def test_second_best_b_short_tracks():
    assert second_best_b(_matrix(np.ones((5, 7)))) is None
    # 8 frames: mask 0..6 leaves exactly frame 7
    rows = np.zeros((5, 8))
    rows[1, 3] = 5.0
    assert second_best_b(_matrix(rows)) == 7


def test_alternative_ties_prefer_best_b_as_annotated():
    rows = _peaked(20, {"a": 3, "b": 10, "c": 12, "d": 15, "e": 19})
    res = assign_with_alternatives(_matrix(rows), _matrix(rows, "swapped"))
    assert (res.b_choice, res.object_order) == ("best", "as_annotated")


def test_swapped_order_wins_on_score():
    rows = _peaked(20, {"a": 3, "b": 10, "c": 12, "d": 15, "e": 19}, height=2.0)
    sharper = _peaked(20, {"a": 3, "b": 10, "c": 12, "d": 15, "e": 19}, height=50.0)
    noise = np.linspace(0.0, 1.0, 20)
    res = assign_with_alternatives(
        _matrix(rows + noise), _matrix(sharper + noise, "swapped")
    )
    assert res.object_order == "swapped"


def test_second_best_b_wins_when_the_best_strands_the_tail():
    rows = np.zeros((5, 24))
    rows[0, 2] = 5.0  # a
    rows[1, 23] = 10.0  # best b at the last frame assigns nothing after it
    rows[1, 8] = 9.5  # runner-up leaves room for c, d, e
    rows[2, 11] = 5.0
    rows[3, 15] = 5.0
    rows[4, 21] = 5.0
    res = assign_with_alternatives(_matrix(rows), _matrix(np.zeros((5, 24)), "swapped"))
    assert res.b_choice == "second_best"
    assert res.centers["b"] == 8
    assert not res.degenerate


score_matrices = st.integers(min_value=2, max_value=30).flatmap(
    lambda t: st.lists(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=t,
            max_size=t,
        ),
        min_size=5,
        max_size=5,
    )
)


@given(score_matrices, st.integers(min_value=0, max_value=4))
@settings(max_examples=80, deadline=None)
def test_assignment_invariants(rows, n):
    res = assign_phases(_matrix(np.array(rows)), n=n)
    t = len(rows[0])
    assigned = [p for p in PHASES if res.centers[p] is not None]
    centres = [res.centers[p] for p in assigned]
    assert centres == sorted(centres)
    assert len(set(centres)) == len(centres)
    previous_end = -1
    for p in assigned:
        lo, hi = res.windows[p]
        assert 0 <= lo <= res.centers[p] <= hi <= t - 1
        assert lo > previous_end
        previous_end = hi
    for p in PHASES:
        if res.centers[p] is None:
            assert res.windows[p] is None


def test_windows_match_the_reference_on_every_placement():
    # every subset of placed phases at increasing centres, on tracks of 1-12
    # frames, and a width past any track
    for t in range(1, 13):
        rows = []
        for k in range(len(PHASES) + 1):
            for phases in itertools.combinations(range(len(PHASES)), k):
                for centres in itertools.combinations(range(t), k):
                    row = [-1] * len(PHASES)
                    for p, c in zip(phases, centres):
                        row[p] = c
                    rows.append(row)
        for n in (0, 1, 2, 3, 4, 10**30):
            got = _windows(np.array(rows), t, n)
            for row, windows in zip(rows, got.tolist()):
                centers = {p: c if c >= 0 else None for p, c in zip(PHASES, row)}
                want = _windows_reference(centers, t, n)
                assert [tuple(w) if w[0] >= 0 else None for w in windows] == [
                    want[p] for p in PHASES
                ], (t, n, row)


# few distinct values, so that totals tie; an infinite row z-scores to NaN
tie_rows = st.integers(min_value=1, max_value=12).flatmap(
    lambda t: hnp.arrays(
        np.float64,
        (2, len(PHASES), t),
        elements=st.sampled_from([0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan]),
    )
)


@given(tie_rows, st.integers(min_value=0, max_value=3))
@settings(max_examples=300, deadline=None)
def test_the_first_strictly_highest_total_wins(rows, n):
    # a later candidate wins only on a strictly greater total: a NaN total
    # never wins, and one that comes first is never replaced
    matrices = (_matrix(rows[0]), _matrix(rows[1], "swapped"))
    with np.errstate(invalid="ignore"):
        got = assign_with_alternatives(*matrices, n=n)
        want = assign_with_alternatives_reference(*matrices, n=n)
    assert (got.object_order, got.b_choice) == (want.object_order, want.b_choice)
    assert (got.centers, got.windows) == (want.centers, want.windows)
    assert repr(got.total_score) == repr(want.total_score)


# --- end to end on one clean synthetic video -------------------------------------


def test_best_assignment_recovers_scripted_centres():
    script = SyntheticScript(
        archetype="put-into",
        num_frames=60,
        true_phase_centers={"a": 0, "b": 15, "c": 29, "d": 44, "e": 59},
        video_id="clean-0",
        layout_seed=5,
    )
    track, truth = generate_synthetic(script)
    _, res = assign_track(track, {"put-into": builtin_model("put-into")})["put-into"]
    assert not res.degenerate
    for p in PHASES:
        assert abs(res.centers[p] - truth[p]) <= 2, (p, res.centers[p], truth[p])
