from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxact.errors import AnnotationError, ContractError
from boxact.evaluation import (
    EvalReport,
    PredictionSet,
    VideoPrediction,
    average_precision,
    confusion_csv,
    evaluate,
    fuse,
    load_predictions,
    report_table,
    report_to_dict,
    save_predictions,
)

from oracles import average_precision_reference, fused_argmax_reference


def _vp(video_id, true_label, **probs):
    return VideoPrediction(video_id=video_id, true_label=true_label, probabilities=probs)


# --- average precision ---------------------------------------------------------


def test_ap_hand_computed():
    # hits at ranks 1 and 3: (1/1 + 2/3) / 2
    assert average_precision([3, 2, 1], [1, 0, 1]) == pytest.approx(0.8333333333333333)


def test_ap_perfect_and_worst_ranking():
    assert average_precision([0.9, 0.8, 0.1, 0.0], [1, 1, 0, 0]) == 1.0
    assert average_precision([4, 3, 2, 1], [0, 0, 0, 1]) == 0.25


def test_ap_ties_rank_negatives_first():
    assert average_precision([5, 5], [1, 0]) == 0.5
    assert average_precision([5, 5], [0, 1]) == 0.5


def test_ap_without_positives_is_undefined():
    with pytest.warns(UserWarning, match="without positives"):
        assert average_precision([1, 2, 3], [0, 0, 0]) is None


def test_ap_shape_validation():
    with pytest.raises(ContractError):
        average_precision([1, 2], [1])


ap_cases = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.booleans()),
    min_size=1,
    max_size=30,
).filter(lambda case: any(label for _, label in case))


@given(ap_cases)
@settings(max_examples=150, deadline=None)
def test_ap_matches_counting_oracle(case):
    scores = [float(s) for s, _ in case]
    labels = [int(l) for _, l in case]
    assert average_precision(scores, labels) == pytest.approx(
        average_precision_reference(scores, labels), abs=1e-12
    )


@given(ap_cases)
@settings(max_examples=80, deadline=None)
def test_ap_is_invariant_under_monotone_transforms(case):
    scores = [float(s) for s, _ in case]
    labels = [int(l) for _, l in case]
    base = average_precision(scores, labels)
    assert average_precision([2.0 * s + 1.0 for s in scores], labels) == base
    assert average_precision([np.exp(s / 5.0) for s in scores], labels) == pytest.approx(base)


# --- prediction sets --------------------------------------------------------------


def test_prediction_set_validation():
    with pytest.raises(ContractError, match="empty"):
        PredictionSet(videos=())
    with pytest.raises(ContractError, match="scores actions"):
        PredictionSet(videos=(_vp("v1", "x", x=1.0), _vp("v2", "x", y=1.0)))
    with pytest.raises(ContractError, match="duplicate video ids"):
        PredictionSet(videos=(_vp("v1", "x", x=1.0), _vp("v1", "x", x=0.5)))
    with pytest.raises(ContractError, match="non-finite"):
        _vp("v1", "x", x=float("nan"))


def test_duplicate_ids_are_each_named_once_in_order():
    ids = ["v3", "v1", "v0", "v3", "v2", "v1", "v3", "v4", "v2"]
    videos = tuple(_vp(i, "x", x=0.5) for i in ids)
    with pytest.raises(ContractError) as exc:
        PredictionSet(videos=videos)
    assert str(exc.value) == "duplicate video ids in prediction set: ['v1', 'v2', 'v3']"


def _small_set() -> PredictionSet:
    return PredictionSet(
        videos=(
            _vp("v1", "x", x=0.9, y=0.1),
            _vp("v2", "y", x=0.8, y=0.2),
            _vp("v3", "y", x=0.3, y=0.6),
            _vp("v4", "x", x=0.2, y=0.55),
        )
    )


def test_evaluate_hand_computed():
    report = evaluate(_small_set())
    assert report.actions == ("x", "y")
    assert report.per_action_ap["x"] == pytest.approx(0.75)
    assert report.per_action_ap["y"] == pytest.approx(0.8333333333333333)
    assert report.weighted_map == pytest.approx((2 * 0.75 + 2 * 0.8333333333333333) / 4)
    assert report.macro_map == pytest.approx((0.75 + 0.8333333333333333) / 2)
    assert report.support == {"x": 2, "y": 2}
    assert report.accuracy == 0.5  # v2 and v4 are misclassified
    assert report.confusion.tolist() == [[1, 1], [1, 1]]


def test_evaluate_rejects_unscored_true_labels():
    preds = PredictionSet(videos=(_vp("v1", "z", x=0.9, y=0.1),))
    with pytest.raises(ContractError, match="no probability column"):
        evaluate(preds)


def test_evaluate_with_an_absent_class():
    preds = PredictionSet(
        videos=(
            _vp("v1", "x", x=0.9, y=0.1, z=0.0),
            _vp("v2", "y", x=0.1, y=0.9, z=0.0),
        )
    )
    with pytest.warns(UserWarning, match="without positives"):
        report = evaluate(preds)
    assert report.per_action_ap["z"] is None
    assert report.weighted_map == 1.0  # undefined AP stays out of the mean
    assert report.macro_map == 1.0


def test_confusion_argmax_ties_go_to_the_lowest_action_id():
    preds = PredictionSet(videos=(_vp("v1", "b", a=0.5, b=0.5),))
    with pytest.warns(UserWarning):  # action a has no positives
        report = evaluate(preds)
    assert report.confusion.tolist() == [[0, 0], [1, 0]]
    assert report.accuracy == 0.0


# --- fusion -------------------------------------------------------------------------


def test_fuse_sums_probabilities():
    a = _small_set()
    zeros = PredictionSet(
        videos=tuple(
            _vp(v.video_id, v.true_label, x=0.0, y=0.0) for v in a.videos
        )
    )
    fused = fuse(a, zeros)
    for v, f in zip(a.videos, fused.videos):
        assert f.probabilities == v.probabilities
    doubled = fuse(a, a)
    assert doubled.videos[0].probabilities == {"x": 1.8, "y": 0.2}


def test_fuse_is_commutative():
    a = _small_set()
    b = PredictionSet(
        videos=tuple(
            _vp(v.video_id, v.true_label, x=0.1 * i, y=0.05 * i)
            for i, v in enumerate(a.videos)
        )
    )
    ab, ba = fuse(a, b), fuse(b, a)
    for va, vb in zip(sorted(ab.videos, key=lambda v: v.video_id),
                      sorted(ba.videos, key=lambda v: v.video_id)):
        assert va.probabilities == pytest.approx(vb.probabilities)


def test_fuse_validates_compatibility():
    a = _small_set()
    missing = PredictionSet(videos=a.videos[:3])
    with pytest.raises(ContractError, match="different videos"):
        fuse(a, missing)
    other_actions = PredictionSet(
        videos=tuple(_vp(v.video_id, v.true_label, x=0.0, z=0.0) for v in a.videos)
    )
    with pytest.raises(ContractError, match="different actions"):
        fuse(a, other_actions)
    relabeled = PredictionSet(
        videos=tuple(_vp(v.video_id, "y", x=0.0, y=0.0) for v in a.videos)
    )
    with pytest.raises(ContractError, match="labeled"):
        fuse(a, relabeled)


prob_maps = st.fixed_dictionaries(
    {
        "p": st.floats(min_value=0, max_value=1, allow_nan=False),
        "q": st.floats(min_value=0, max_value=1, allow_nan=False),
        "r": st.floats(min_value=0, max_value=1, allow_nan=False),
    }
)


@given(prob_maps, prob_maps)
@settings(max_examples=100, deadline=None)
def test_fused_argmax_matches_the_oracle(pa, pb):
    import warnings

    a = PredictionSet(videos=(VideoPrediction("v", "p", pa),))
    b = PredictionSet(videos=(VideoPrediction("v", "p", pb),))
    fused = fuse(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q and r have no positives here
        report = evaluate(fused)
    predicted = report.actions[int(np.argmax(report.confusion[0]))]
    assert predicted == fused_argmax_reference(pa, pb)


# --- report output --------------------------------------------------------------------


def test_report_table_layout():
    lines = report_table(evaluate(_small_set())).splitlines()
    assert lines[0].split() == ["action", "support", "AP"]
    assert lines[1].split() == ["x", "2", "0.7500"]
    assert lines[2].split() == ["y", "2", "0.8333"]
    assert lines[3].split() == ["weighted", "mAP", "0.7917"]
    assert lines[4].split() == ["macro", "mAP", "0.7917"]
    assert lines[5].split() == ["accuracy", "0.5000"]
    assert len(lines) == 6


def test_confusion_csv_frozen():
    csv = confusion_csv(evaluate(_small_set()))
    assert csv == "true\\predicted,x,y\nx,1,1\ny,1,1\n"


def test_confusion_csv_reads_back_action_ids_that_need_quoting():
    actions = ["a,b", 'say "c"', "line\nbreak", "d"]
    videos = []
    for i, truth in enumerate(actions):
        for j, guess in enumerate(actions[: i + 1]):
            probabilities = {a: 0.9 if a == guess else 0.1 for a in actions}
            videos.append(_vp(f"v{i}{j}", truth, **probabilities))
    report = evaluate(PredictionSet(videos=tuple(videos)))
    rows = list(csv.reader(io.StringIO(confusion_csv(report), newline="")))
    assert rows[0] == ["true\\predicted", *report.actions]
    assert [row[0] for row in rows[1:]] == list(report.actions)
    assert [[int(c) for c in row[1:]] for row in rows[1:]] == report.confusion.tolist()
    assert sorted(report.actions) == sorted(actions)
    assert report.confusion.sum() == len(videos)


def test_report_to_dict_keys():
    d = report_to_dict(evaluate(_small_set()))
    assert set(d) == {
        "actions",
        "per_action_ap",
        "weighted_map",
        "macro_map",
        "support",
        "accuracy",
        "confusion",
    }
    assert d["confusion"] == [[1, 1], [1, 1]]


def test_save_load_round_trip(tmp_path):
    preds = _small_set()
    path = tmp_path / "preds.json"
    save_predictions(preds, path, provenance={"stage": "test"})
    assert load_predictions(path) == preds


GOOD_RECORD = {"video_id": "v", "true_label": "x", "probabilities": {"x": 0.5}}


@pytest.mark.parametrize(
    "records, message",
    [
        ({"a": 1}, "'records' must be a list"),
        (7, "'records' must be a list"),
        ("abc", "'records' must be a list"),
        ([5], "prediction record #0 must be an object"),
        ([None], "prediction record #0 must be an object"),
        ([GOOD_RECORD, [GOOD_RECORD]], "prediction record #1 must be an object"),
    ],
    ids=["object", "number", "string", "number-record", "null-record", "list-record"],
)
def test_load_names_what_is_wrong_with_the_records(tmp_path, records, message):
    # these raised Python's own TypeError text, "string indices must be integers"
    path = tmp_path / "preds.json"
    doc = {"format": "boxact-predictions", "version": 1, "records": records}
    path.write_text(json.dumps(doc))
    with pytest.raises(AnnotationError) as exc:
        load_predictions(path)
    assert str(exc.value) == f"{path}: {message}"


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text('{"format": "boxact-embeddings"}')
    with pytest.raises(AnnotationError, match="not a predictions file"):
        load_predictions(path)
