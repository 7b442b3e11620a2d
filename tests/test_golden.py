"""Golden lock on the whole pipeline's results for a fixed synthetic set.

Ten 60-frame videos with ``crowd-artifacts`` noise go through ``embed_all``
under the five builtin models plus one model that embeds every catalogued
relation under its own thresholds; small forests are trained on them and
score every video.  The checked-in fixture holds the assignments, the
embeddings and the probabilities.  Ints and strings must match exactly,
floats to ``rtol=1e-12``.

Rewrite the fixture only for an intended change of results:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from boxact.forest import ForestParams
from boxact.phases import ARCHETYPES, ActionModel, builtin_model, builtin_models
from boxact.pipeline import PipelineConfig, embed_all, predict_set, train_forests
from boxact.relations import RelationConfig, relation_keys
from boxact.synthetic import NOISE_PRESETS, generate_dataset

FIXTURE = Path(__file__).with_name("golden") / "pipeline.json"
RTOL = 1e-12


def _all_relations_model() -> ActionModel:
    return ActionModel(
        action_id="all-relations",
        phases=builtin_model("put-into").phases,
        thresholds=RelationConfig(touch_tol=2.0, move_threshold=1.5),
        extra_features=relation_keys(),
    )


def compute() -> dict:
    tracks, _ = generate_dataset(
        ARCHETYPES, 2, num_frames=60, noise=NOISE_PRESETS["crowd-artifacts"], seed=5
    )
    classifiers = builtin_models()
    models = dict(classifiers, **{"all-relations": _all_relations_model()})
    config = PipelineConfig(forest=ForestParams(num_trees=8, seed=3))
    results = embed_all(tracks, models, config)
    labels = {t.video_id: t.label for t in tracks}
    forests, skipped, _ = train_forests(results, labels, classifiers, config)
    assert not skipped
    preds = predict_set(results, labels, forests, classifiers, config)
    videos = {}
    for video_id, per_action in sorted(results.items()):
        videos[video_id] = {
            action: {
                "centers": dict(a.centers),
                "windows": {p: list(w) if w else None for p, w in a.windows.items()},
                "object_order": a.object_order,
                "b_choice": a.b_choice,
                "total_score": a.total_score,
                "embedding": [float(v) for v in e.values],
            }
            for action, (e, a) in sorted(per_action.items())
        }
    probabilities = {
        v.video_id: {a: float(p) for a, p in sorted(v.probabilities.items())}
        for v in preds.videos
    }
    return {"videos": videos, "probabilities": probabilities}


def _compare(expected, got, where: str) -> None:
    if isinstance(expected, dict):
        assert sorted(got) == sorted(expected), where
        for key in expected:
            _compare(expected[key], got[key], f"{where}.{key}")
    elif isinstance(expected, list) and expected and isinstance(expected[0], float):
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0.0, err_msg=where)
    elif isinstance(expected, float):
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0.0, err_msg=where)
    else:
        assert got == expected, where


def test_pipeline_matches_golden_fixture():
    expected = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(compute()))
    _compare(expected, got, "golden")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute(), sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
