"""End-to-end coverage of the command-line pipeline on small corpora."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import boxact
from boxact.cli import COMMANDS, build_parser, main
from boxact.evaluation import load_predictions
from boxact.forest import load_forest
from boxact.phases import ARCHETYPES, MAX_SIGMA, builtin_model, model_to_dict, save_action_model
from boxact.relations import FEATURES, relation_keys
from boxact.synthetic import random_script, script_to_dict
from boxact.tracks import COORDINATE_LIMIT, ROLES, load_annotation_file

GEN = [
    "generate",
    "--archetypes",
    "put-into,take-out-of",
    "--count",
    "4",
    "--seed",
    "1",
]


def _model_paths(root: Path) -> Path:
    """A model directory holding only the two generated archetypes."""
    from boxact.phases import builtin_models, save_action_model

    model_dir = root / "models"
    if not model_dir.exists():
        model_dir.mkdir()
        models = builtin_models()
        for action in ("put-into", "take-out-of"):
            save_action_model(models[action], model_dir / f"{action}.json")
    return model_dir


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """One generated corpus with a trained forest directory."""
    root = tmp_path_factory.mktemp("cli")
    ann = root / "ann.json"
    truth = root / "truth.json"
    assert main(GEN + ["--out", str(ann), "--truth", str(truth)]) == 0
    assert (
        main(
            [
                "train",
                "--annotations",
                str(ann),
                "--models",
                str(_model_paths(root)),
                "--out-dir",
                str(root / "forests"),
                "--num-trees",
                "4",
                "--seed",
                "1",
            ]
        )
        == 0
    )
    return root


def test_generate_is_deterministic(tmp_path):
    for d in ("one", "two"):
        (tmp_path / d).mkdir()
        code = main(
            GEN
            + [
                "--out",
                str(tmp_path / d / "ann.json"),
                "--truth",
                str(tmp_path / d / "truth.json"),
            ]
        )
        assert code == 0
    assert (tmp_path / "one/ann.json").read_bytes() == (
        tmp_path / "two/ann.json"
    ).read_bytes()
    assert (tmp_path / "one/truth.json").read_bytes() == (
        tmp_path / "two/truth.json"
    ).read_bytes()


def test_generate_writes_labels_and_truth(workdir):
    tracks = load_annotation_file(workdir / "ann.json")
    assert len(tracks) == 8
    assert {t.label for t in tracks} == {"put-into", "take-out-of"}
    truth = json.loads((workdir / "truth.json").read_text())
    assert truth["format"] == "boxact-ground-truth"
    assert set(truth["videos"]) == {t.video_id for t in tracks}
    assert "provenance" in truth


def test_generate_count_zero_is_a_valid_empty_file(tmp_path):
    out = tmp_path / "empty.json"
    assert main(["generate", "--out", str(out), "--count", "0"]) == 0
    assert load_annotation_file(out) == []


def test_train_on_an_empty_annotation_file_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    assert main(["generate", "--out", str(empty), "--count", "0"]) == 0
    capsys.readouterr()
    assert main(["train", "--annotations", str(empty), "--out-dir", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == "error: no videos to train on\n"


def test_generate_creates_missing_output_directories(tmp_path):
    out, truth = tmp_path / "new" / "ann.json", tmp_path / "other" / "truth.json"
    assert main(["generate", "--out", str(out), "--truth", str(truth), "--count", "1"]) == 0
    assert len(load_annotation_file(out)) == len(ARCHETYPES)
    assert set(json.loads(truth.read_text())["videos"]) == {
        t.video_id for t in load_annotation_file(out)
    }


def test_generate_rejects_unknown_archetype(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--out", str(tmp_path / "x.json"), "--archetypes", "juggle"])
    assert exc.value.code == 2


def test_generate_rejects_preset_and_explicit_noise(tmp_path):
    argv = [
        "generate",
        "--out",
        str(tmp_path / "x.json"),
        "--noise",
        "moderate",
        "--jitter",
        "1.0",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_generate_rejects_unknown_preset(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--out", str(tmp_path / "x.json"), "--noise", "extreme"])
    assert exc.value.code == 2


def test_generate_from_scripts(tmp_path):
    scripts = [
        {
            "archetype": "put-into",
            "num_frames": 60,
            "true_phase_centers": {"a": 0, "b": 15, "c": 29, "d": 44, "e": 59},
            "video_id": "scripted-0",
            "layout_seed": 9,
        }
    ]
    scripts_path = tmp_path / "scripts.json"
    scripts_path.write_text(json.dumps(scripts))
    out = tmp_path / "ann.json"
    code = main(
        ["generate", "--out", str(out), "--from-scripts", str(scripts_path)]
    )
    assert code == 0
    tracks = load_annotation_file(out)
    assert [t.video_id for t in tracks] == ["scripted-0"]


def test_assign_writes_one_record_per_video_and_model(workdir, tmp_path):
    out = tmp_path / "assign.json"
    code = main(
        [
            "assign",
            "--annotations",
            str(workdir / "ann.json"),
            "--models",
            "builtin",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "boxact-assignments"
    assert len(doc["records"]) == 8 * 5
    rec = doc["records"][0]
    assert set(rec) == {
        "video_id",
        "action_id",
        "object_order",
        "b_choice",
        "centers",
        "windows",
        "total_score",
        "degenerate",
    }


def test_files_are_read_and_written_in_utf8_under_an_ascii_locale(workdir, tmp_path):
    # without UTF-8 mode, Python reads and writes files in the locale's encoding;
    # PYTHONIOENCODING keeps the console streams, which print the table, out of it
    videos = json.loads((workdir / "ann.json").read_text())
    ann = [dict(video, id=f"vidéo-{i}") for i, video in enumerate(videos)]
    (tmp_path / "ann.json").write_text(json.dumps(ann, ensure_ascii=False), encoding="utf-8")
    preds = _predictions_doc(
        video_id="vidéo-0", true_label="plaçer", probabilities={"plaçer": 0.5}
    )
    (tmp_path / "preds.json").write_text(json.dumps(preds, ensure_ascii=False), encoding="utf-8")
    argvs = [
        ["assign", "--annotations", "ann.json", "--out", "assignments.json"],
        ["eval", "--predictions", "preds.json", "--out-dir", "report"],
    ]
    script = "import json, sys; from boxact.cli import main; "
    script += "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"
    src = str(Path(boxact.__file__).parents[1])
    env = {
        **os.environ,
        "LC_ALL": "POSIX",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
        "PYTHONIOENCODING": "utf-8",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    records = json.loads((tmp_path / "assignments.json").read_text(encoding="utf-8"))["records"]
    assert {r["video_id"] for r in records} == {video["id"] for video in ann}
    report = tmp_path / "report"
    assert "plaçer" in (report / "report.txt").read_text(encoding="utf-8")
    confusion = (report / "confusion.csv").read_text(encoding="utf-8")
    assert confusion == "true\\predicted,plaçer\nplaçer,1\n"


def test_eval_escapes_what_an_ascii_console_cannot_print(tmp_path):
    # without UTF-8 mode and PYTHONIOENCODING, stdout takes the locale's ASCII
    preds = _predictions_doc(true_label="plaçer", probabilities={"plaçer": 0.5})
    (tmp_path / "preds.json").write_text(json.dumps(preds, ensure_ascii=False), encoding="utf-8")
    src = str(Path(boxact.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(
        LC_ALL="POSIX",
        PYTHONCOERCECLOCALE="0",
        PYTHONUTF8="0",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    run = subprocess.run(
        [sys.executable, "-m", "boxact.cli", "eval", "--predictions", "preds.json",
         "--out-dir", "report"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert (run.returncode, run.stderr) == (0, b""), run.stderr
    assert b"pla\\xe7er" in run.stdout
    assert "plaçer" in (tmp_path / "report" / "report.txt").read_text(encoding="utf-8")


def test_assign_handles_empty_annotation_files(tmp_path):
    ann = tmp_path / "empty.json"
    ann.write_text("[]\n")
    out = tmp_path / "assign.json"
    assert main(["assign", "--annotations", str(ann), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["records"] == []


def test_assign_flags_short_tracks_as_degenerate(tmp_path):
    ann = tmp_path / "short.json"
    frames = [
        {
            "idx": i,
            "boxes": [{"role": "object2", "x": 100, "y": 80, "w": 40, "h": 30}],
        }
        for i in range(3)
    ]
    ann.write_text(
        json.dumps([{"id": "tiny", "width": 320, "height": 240, "frames": frames}])
    )
    out = tmp_path / "assign.json"
    assert main(["assign", "--annotations", str(ann), "--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    assert records and all(r["degenerate"] for r in records)


def test_embed_writes_records(workdir, tmp_path):
    out = tmp_path / "emb.json"
    code = main(
        ["embed", "--annotations", str(workdir / "ann.json"), "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "boxact-embeddings"
    assert len(doc["records"]) == 8 * 5


def test_train_outputs(workdir):
    forest_dir = workdir / "forests"
    files = sorted(p.name for p in forest_dir.glob("forest_*.json"))
    # only the two generated archetypes have positives; the other builtins
    # never appear as labels, so train was invoked with just these models
    assert files == ["forest_put-into.json", "forest_take-out-of.json"]
    split = json.loads((forest_dir / "split.json").read_text())
    assert split["format"] == "boxact-split"
    assert len(split["train"]) == 6 and len(split["val"]) == 2
    log = json.loads((forest_dir / "train_log.json").read_text())
    assert log["trained"] == ["put-into", "take-out-of"]
    assert log["counts"]["put-into"]["positive"] == 3
    forest = load_forest(forest_dir / "forest_put-into.json")
    assert forest.params.num_trees == 4


def test_train_is_deterministic(workdir, tmp_path):
    code = main(
        [
            "train",
            "--annotations",
            str(workdir / "ann.json"),
            "--models",
            str(_model_paths(workdir)),
            "--out-dir",
            str(tmp_path / "again"),
            "--num-trees",
            "4",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    for name in ("forest_put-into.json", "forest_take-out-of.json", "split.json"):
        assert (tmp_path / "again" / name).read_bytes() == (
            workdir / "forests" / name
        ).read_bytes()


def test_train_exit_code_flags_skipped_actions(tmp_path):
    ann = tmp_path / "one-class.json"
    assert (
        main(
            [
                "generate",
                "--out",
                str(ann),
                "--archetypes",
                "put-into",
                "--count",
                "4",
            ]
        )
        == 0
    )
    with pytest.warns(UserWarning, match="single-class"):
        code = main(
            [
                "train",
                "--annotations",
                str(ann),
                "--out-dir",
                str(tmp_path / "forests"),
                "--num-trees",
                "4",
            ]
        )
    assert code == 1


def test_train_requires_labels(tmp_path):
    ann = tmp_path / "unlabeled.json"
    frames = [
        {"idx": 0, "boxes": [{"role": "object2", "x": 1, "y": 1, "w": 5, "h": 5}]}
    ]
    ann.write_text(
        json.dumps([{"id": "v0", "width": 320, "height": 240, "frames": frames}])
    )
    code = main(
        ["train", "--annotations", str(ann), "--out-dir", str(tmp_path / "f")]
    )
    assert code == 1


def test_predict_and_eval_chain(workdir, tmp_path, capsys):
    preds_path = tmp_path / "preds.json"
    code = main(
        [
            "predict",
            "--annotations",
            str(workdir / "ann.json"),
            "--models",
            str(_model_paths(workdir)),
            "--forest-dir",
            str(workdir / "forests"),
            "--split",
            str(workdir / "forests" / "split.json"),
            "--subset",
            "val",
            "--out",
            str(preds_path),
        ]
    )
    assert code == 0
    preds = load_predictions(preds_path)
    assert len(preds) == 2
    assert preds.actions == ("put-into", "take-out-of")

    report_dir = tmp_path / "report"
    capsys.readouterr()
    code = main(
        ["eval", "--predictions", str(preds_path), "--out-dir", str(report_dir)]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "weighted mAP" in table and "accuracy" in table
    assert (report_dir / "report.json").exists()
    assert (report_dir / "report.txt").exists()
    assert (report_dir / "confusion.csv").read_text().startswith("true\\predicted,")

    fused_path = tmp_path / "fused.json"
    code = main(
        [
            "fuse",
            "--predictions",
            str(preds_path),
            "--external",
            str(preds_path),
            "--out",
            str(fused_path),
        ]
    )
    assert code == 0
    fused = load_predictions(fused_path)
    by_id = {v.video_id: v for v in preds.videos}
    for v in fused.videos:
        for action, p in v.probabilities.items():
            assert p == pytest.approx(2 * by_id[v.video_id].probabilities[action])


def test_predict_rejects_mismatched_embedding_mode(workdir, tmp_path):
    code = main(
        [
            "predict",
            "--annotations",
            str(workdir / "ann.json"),
            "--models",
            str(_model_paths(workdir)),
            "--forest-dir",
            str(workdir / "forests"),
            "--mode",
            "scores_only",
            "--out",
            str(tmp_path / "preds.json"),
        ]
    )
    assert code == 1


def test_predict_rejects_two_forest_files_for_one_action(workdir, tmp_path, capsys):
    forest_dir = tmp_path / "forests"
    shutil.copytree(workdir / "forests", forest_dir)
    kept = forest_dir / "forest_put-into.json"
    old = forest_dir / "forest_put-into-old.json"
    shutil.copy(kept, old)
    capsys.readouterr()
    code = main(
        [
            "predict",
            "--annotations",
            str(workdir / "ann.json"),
            "--models",
            str(_model_paths(workdir)),
            "--forest-dir",
            str(forest_dir),
            "--out",
            str(tmp_path / "preds.json"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: duplicate forest 'put-into'")
    assert str(kept) in err and str(old) in err
    assert not (tmp_path / "preds.json").exists()


def test_missing_input_file_exits_cleanly(tmp_path):
    assert main(["eval", "--predictions", str(tmp_path / "nope.json")]) == 1


def test_directory_as_input_file_exits_cleanly(tmp_path, capsys):
    assert main(["eval", "--predictions", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# one split on feature 0 at 0.5 over two leaves, as flat pre-order columns
STUMP = {
    "feature": [0, -1, -1],
    "threshold": [0.5, 0.0, 0.0],
    "left": [1, -1, -1],
    "right": [2, -1, -1],
    "fraction": [0.5, 0.0, 1.0],
    "weight": [2.0, 1.0, 1.0],
}


def _forest_doc(**changes) -> dict:
    """A forest file of one stump, with fields replaced."""
    doc = {
        "format": "boxact-forest",
        "version": 3,
        "action_id": "put-into",
        "num_features": 2,
        "fingerprint": "",
        "params": {"num_trees": 1},
        "offsets": [0, 3],
        **STUMP,
    }
    doc.update(changes)
    return doc


def _forest_without(field: str) -> dict:
    return {k: v for k, v in _forest_doc().items() if k != field}


def _old_forest_doc(version: int, trees: list) -> dict:
    """A forest file of an earlier version, which held a list of trees."""
    header = {k: v for k, v in _forest_doc().items() if k != "offsets" and k not in STUMP}
    return {**header, "version": version, "trees": trees}


def _model_doc(**changes) -> dict:
    """The builtin put-into model with top-level fields replaced."""
    return {**model_to_dict(builtin_model("put-into")), **changes}


def _model_with_term(**changes) -> dict:
    """The builtin put-into model with fields of its first phase-b term replaced."""
    doc = _model_doc()
    doc["phases"]["b"][0].update(changes)
    return doc


def _predictions_doc(**changes) -> dict:
    """A predictions file of one video, with fields of its record replaced."""
    record = {"video_id": "v", "true_label": "x", "probabilities": {"x": 0.5}, **changes}
    return {"format": "boxact-predictions", "version": 1, "records": [record]}


def _scripts_doc(**changes) -> list:
    """A scripts file of one put-into script, with fields replaced."""
    return [{**script_to_dict(random_script("put-into", 0)), **changes}]


HUGE = 10**400  # a JSON integer too large for a float

# (command reading the file, file content, part of the expected message)
MALFORMED_INPUTS = {
    "split-not-json": ("predict-split", "{not json", "not valid JSON"),
    "split-without-val": (
        "predict-split",
        {"format": "boxact-split", "version": 1, "train": []},
        "val",
    ),
    "split-ids-not-a-list": (
        "predict-split",
        {"format": "boxact-split", "version": 1, "train": [], "val": 5},
        "val",
    ),
    "split-version-7": (
        "predict-split",
        {"format": "boxact-split", "version": 7, "train": [], "val": []},
        "unsupported boxact-split version 7",
    ),
    "split-without-version": (
        "predict-split",
        {"format": "boxact-split", "train": [], "val": []},
        "unsupported boxact-split version None",
    ),
    "forest-not-an-object": ("predict-forest", [], "not a serialized forest"),
    "forest-unknown-param": (
        "predict-forest",
        _forest_doc(params={"depth": 3}),
        "depth",
    ),
    "forest-node-without-threshold": (
        "predict-forest",
        _forest_without("threshold"),
        "missing field 'threshold'",
    ),
    "forest-child-at-its-parent": (
        "predict-forest",
        _forest_doc(right=[0, -1, -1]),
        "split 0 has children 1, 0",
    ),
    "forest-child-before-its-parent": (
        "predict-forest",
        _forest_doc(feature=[0, 1, -1], left=[1, 0, -1], right=[2, 2, -1]),
        "split 1 has children 0, 2",
    ),
    "forest-child-past-the-end": (
        "predict-forest",
        _forest_doc(right=[3, -1, -1]),
        "split 0 has children 1, 3",
    ),
    "forest-leaf-with-children": (
        "predict-forest",
        _forest_doc(left=[1, 2, -1]),
        "leaf 1 has children 2, -1",
    ),
    "forest-columns-of-unequal-length": (
        "predict-forest",
        _forest_doc(weight=[2.0, 1.0]),
        "equal length",
    ),
    "forest-feature-out-of-range": (
        "predict-forest",
        _forest_doc(feature=[2, -1, -1]),
        "feature index 2 outside embedding length 2",
    ),
    "forest-negative-feature": (
        "predict-forest",
        _forest_doc(feature=[-2, -1, -1]),
        "feature index -2",
    ),
    "forest-threshold-not-finite": (
        "predict-forest",
        _forest_doc(threshold=[float("nan"), 0.0, 0.0]),
        "threshold is not finite",
    ),
    "forest-weight-not-finite": (
        "predict-forest",
        _forest_doc(weight=[-float("inf"), 1.0, 1.0]),
        "weight must be positive and finite",
    ),
    "forest-weight-not-positive": (
        "predict-forest",
        _forest_doc(weight=[2.0, 0.0, 1.0]),
        "weight must be positive and finite",
    ),
    "forest-node-with-two-parents": (
        "predict-forest",
        _forest_doc(
            offsets=[0, 4],
            feature=[0, 1, -1, -1],
            threshold=[0.5, 0.5, 0.0, 0.0],
            left=[1, 2, -1, -1],
            right=[2, 3, -1, -1],
            fraction=[0.5, 0.5, 0.0, 1.0],
            weight=[2.0, 2.0, 1.0, 1.0],
        ),
        "node 2 is the child of more than one split",
    ),
    "forest-without-trees": (
        "predict-forest",
        _forest_doc(offsets=[0], **{name: [] for name in STUMP}),
        "no trees",
    ),
    "forest-offsets-missing": (
        "predict-forest",
        _forest_without("offsets"),
        "missing field 'offsets'",
    ),
    "forest-offsets-only-zero": ("predict-forest", _forest_doc(offsets=[0]), "no trees"),
    "forest-offsets-not-from-zero": (
        "predict-forest",
        _forest_doc(offsets=[1, 3]),
        "offsets must run from 0 to the node count 3, got 1 to 3",
    ),
    "forest-offsets-repeated": (
        "predict-forest",
        _forest_doc(offsets=[0, 3, 3]),
        "tree 1 has no nodes: offsets must rise strictly",
    ),
    "forest-offsets-short-of-the-columns": (
        "predict-forest",
        _forest_doc(offsets=[0, 2]),
        "offsets must run from 0 to the node count 3, got 0 to 2",
    ),
    "forest-offsets-past-the-columns": (
        "predict-forest",
        _forest_doc(offsets=[0, 3, 6]),
        "offsets must run from 0 to the node count 3, got 0 to 6",
    ),
    "forest-offsets-bool": (
        "predict-forest",
        _forest_doc(offsets=[False, 3]),
        "node offsets must be an integer, got False",
    ),
    "forest-offsets-float": (
        "predict-forest",
        _forest_doc(offsets=[0, 3.0]),
        "node offsets must be an integer, got 3.0",
    ),
    # child 4 is a node of the forest, but not of the first tree, which ends at 3
    "forest-child-in-the-next-tree": (
        "predict-forest",
        _forest_doc(
            offsets=[0, 3, 6],
            **{name: column * 2 for name, column in STUMP.items() if name != "right"},
            right=[4, -1, -1, 2, -1, -1],
        ),
        "split 0 has children 1, 4; each must come after it and before 3",
    ),
    # int() and float() took these, and a fractional feature silently became 0
    "forest-feature-text": (
        "predict-forest",
        _forest_doc(feature=["0", -1, -1]),
        "node feature must be an integer, got '0'",
    ),
    "forest-feature-bool": (
        "predict-forest",
        _forest_doc(feature=[True, -1, -1]),
        "node feature must be an integer, got True",
    ),
    "forest-feature-fractional": (
        "predict-forest",
        _forest_doc(feature=[0.7, -1, -1]),
        "node feature must be an integer, got 0.7",
    ),
    "forest-child-float": (
        "predict-forest",
        _forest_doc(left=[1.0, -1, -1]),
        "node left must be an integer, got 1.0",
    ),
    "forest-child-null": (
        "predict-forest",
        _forest_doc(right=[2, None, -1]),
        "node right must be an integer, got None",
    ),
    "forest-threshold-bool": (
        "predict-forest",
        _forest_doc(threshold=[False, 0.0, 0.0]),
        "node threshold must be a number, got False",
    ),
    "forest-weight-text": (
        "predict-forest",
        _forest_doc(weight=["2", 1.0, 1.0]),
        "node weight must be a number, got '2'",
    ),
    "forest-fraction-column-text": (
        "predict-forest",
        _forest_doc(fraction="000"),
        "tree column 'fraction' must be a list, got str",
    ),
    "forest-offsets-not-a-list": (
        "predict-forest",
        _forest_doc(offsets={"0": 3}),
        "offsets must be a list, got dict",
    ),
    "forest-num-features-fractional": (
        "predict-forest",
        _forest_doc(num_features=40.9),
        "num_features must be an integer, got 40.9",
    ),
    "forest-num-features-bool": (
        "predict-forest",
        _forest_doc(num_features=True),
        "num_features must be an integer, got True",
    ),
    "forest-action-id-number": (
        "predict-forest",
        _forest_doc(action_id=5),
        "action_id must be a string, got 5",
    ),
    "forest-fingerprint-null": (
        "predict-forest",
        _forest_doc(fingerprint=None),
        "fingerprint must be a string, got None",
    ),
    "forest-version-1": (
        "predict-forest",
        _old_forest_doc(1, [{"fraction": 0.5, "weight": 1.0}]),
        "re-run `boxact train`",
    ),
    "forest-version-2": (
        "predict-forest",
        _old_forest_doc(2, [STUMP]),
        "unsupported forest version 2 (this boxact reads version 3); re-run `boxact train`",
    ),
    "predictions-without-true-label": (
        "eval",
        {
            "format": "boxact-predictions",
            "version": 1,
            "records": [{"video_id": "v", "probabilities": {"put-into": 0.5}}],
        },
        "true_label",
    ),
    "prediction-with-text-probability": (
        "eval",
        {
            "format": "boxact-predictions",
            "version": 1,
            "records": [
                {"video_id": "v", "true_label": "x", "probabilities": {"x": "high"}}
            ],
        },
        "high",
    ),
    "predictions-version-7": (
        "eval",
        {"format": "boxact-predictions", "version": 7, "records": []},
        "unsupported boxact-predictions version 7",
    ),
    "predictions-version-true": (
        "eval",
        {"format": "boxact-predictions", "version": True, "records": []},
        "unsupported boxact-predictions version True",
    ),
    # these ids and labels ended in a TypeError traceback or passed as they were,
    # and float() took the text and the bool and overflowed on the integer
    "predictions-video-id-list": (
        "eval",
        _predictions_doc(video_id=["v"]),
        "video_id must be a string, got ['v']",
    ),
    "predictions-video-id-number": (
        "eval",
        _predictions_doc(video_id=7),
        "video_id must be a string, got 7",
    ),
    "predictions-true-label-list": (
        "eval",
        _predictions_doc(true_label=["x"]),
        "true_label must be a string, got ['x']",
    ),
    "predictions-probability-text-number": (
        "eval",
        _predictions_doc(probabilities={"x": "0.5"}),
        "probability for 'x' must be a finite number, got '0.5'",
    ),
    "external-probability-bool": (
        "fuse-external",
        _predictions_doc(probabilities={"x": True}),
        "probability for 'x' must be a finite number, got True",
    ),
    "predictions-probability-huge-integer": (
        "eval",
        _predictions_doc(probabilities={"x": HUGE}),
        "probability for 'x' must be a finite number, got 1000",
    ),
    "model-not-an-object": ("assign-models", [], "must be an object"),
    "model-misspelt-field": (
        "assign-models",
        _model_doc(treshholds={"touch_tol": 50.0}),
        "model 'put-into': unknown fields ['treshholds']",
    ),
    "model-weight-nan": (
        "assign-models",
        _model_with_term(weight=float("nan")),
        "weight must be a finite number, got nan",
    ),
    "model-weight-too-large": (
        "assign-models",
        _model_with_term(weight=1e306),
        "weight must be at most 1e+100 in magnitude, got 1e+306",
    ),
    "model-weight-infinity": (
        "assign-models",
        _model_with_term(weight=float("inf")),
        "weight must be a finite number, got inf",
    ),
    "model-weight-text": (
        "assign-models",
        _model_with_term(weight="x"),
        "weight must be a finite number, got 'x'",
    ),
    "model-weight-bool": (
        "assign-models",
        _model_with_term(weight=True),
        "weight must be a finite number, got True",
    ),
    # math.isfinite raised OverflowError on an integer too large for a float
    "model-weight-huge-integer": (
        "assign-models",
        _model_with_term(weight=HUGE),
        "weight must be a finite number, got 1000",
    ),
    "model-touch-tol-huge-integer": (
        "assign-models",
        _model_doc(thresholds={"touch_tol": HUGE}),
        "touch_tol must be a finite number, got 1000",
    ),
    "model-term-threshold-nan": (
        "assign-models",
        _model_with_term(threshold=float("nan")),
        "threshold must be a finite number, got nan",
    ),
    "model-term-threshold-bool": (
        "assign-models",
        _model_with_term(threshold=False),
        "threshold must be a finite number, got False",
    ),
    "model-negate-text": (
        "assign-models",
        _model_with_term(negate="no"),
        "negate must be true or false, got 'no'",
    ),
    "model-terms-not-a-list": (
        "assign-models",
        _model_doc(phases={**_model_doc()["phases"], "b": 5}),
        "phase 'b' must be a list of terms",
    ),
    "model-term-not-an-object": (
        "assign-models",
        _model_doc(phases={**_model_doc()["phases"], "b": [5]}),
        "a term must be an object, got 5",
    ),
    "model-args-not-a-list": (
        "assign-models",
        _model_with_term(args=5),
        "args must be a list, got 5",
    ),
    "model-args-not-strings": (
        "assign-models",
        _model_with_term(args=[1]),
        "unknown entity 1",
    ),
    "model-feature-not-a-string": (
        "assign-models",
        _model_with_term(feature=["present"]),
        "unknown feature ['present']",
    ),
    "model-thresholds-not-an-object": (
        "assign-models",
        _model_doc(thresholds=5),
        "thresholds must be an object, got 5",
    ),
    "model-touch-tol-text": (
        "assign-models",
        _model_doc(thresholds={"touch_tol": "x"}),
        "touch_tol must be a finite number, got 'x'",
    ),
    "model-touch-tol-nan": (
        "assign-models",
        _model_doc(thresholds={"touch_tol": float("nan")}),
        "touch_tol must be a finite number, got nan",
    ),
    "model-extra-feature-not-a-string": (
        "assign-models",
        _model_doc(features=[5]),
        "canonical feature keys",
    ),
    "model-extra-feature-not-canonical": (
        "assign-models",
        _model_doc(features=["touching(hand,object1)"]),
        "canonical feature keys",
    ),
    "model-extra-feature-unclosed": (
        "assign-models",
        _model_doc(features=["present(object1"]),
        "canonical feature keys",
    ),
    "scripts-not-json": ("generate", "[{", "not valid JSON"),
    "script-with-bad-frame-count": (
        "generate",
        [{"archetype": "put-into", "num_frames": "sixty", "true_phase_centers": {}}],
        "sixty",
    ),
    "script-with-negative-noise-seed": (
        "generate",
        [{**script_to_dict(random_script("put-into", 0)), "noise": {"seed": -1}}],
        "noise seed must be at least 0",
    ),
    "script-with-nan-jitter": (
        "generate",
        [
            {
                **script_to_dict(random_script("put-into", 0)),
                "noise": {"jitter_sigma": float("nan")},
            }
        ],
        "jitter_sigma must be a finite number, got nan",
    ),
    "script-with-negative-layout-seed": (
        "generate",
        [{**script_to_dict(random_script("put-into", 0)), "layout_seed": -1}],
        "layout_seed must be at least 0",
    ),
    # float() overflowed on the integer, int() took the text and the bool, and
    # an unknown noise field was dropped without a word
    "script-with-huge-integer-jitter": (
        "generate",
        _scripts_doc(noise={"jitter_sigma": HUGE}),
        "jitter_sigma must be a finite number, got 1000",
    ),
    "script-with-text-frame-count": (
        "generate",
        _scripts_doc(num_frames="60"),
        "num_frames must be an integer, got '60'",
    ),
    "script-with-bool-centre": (
        "generate",
        _scripts_doc(
            true_phase_centers={
                **script_to_dict(random_script("put-into", 0))["true_phase_centers"],
                "a": True,
            }
        ),
        "phase centre a must be an integer, got True",
    ),
    # a centre of no phase would pass unchecked into the --truth file
    "script-with-nan-extra-centre": (
        "generate",
        _scripts_doc(
            true_phase_centers={
                **script_to_dict(random_script("put-into", 0))["true_phase_centers"],
                "z": float("nan"),
            }
        ),
        "true_phase_centers has unknown phases ['z']",
    ),
    "script-with-unknown-noise-field": (
        "generate",
        _scripts_doc(noise={"jitter": 1.0}),
        "script noise has unknown fields ['jitter']",
    ),
    # exited 2 with the usage text, naming no file
    "scripts-not-a-list": ("generate", {}, "a scripts file must hold a list of script records"),
    # errors in an annotation file's content named the record but not the file
    "annotations-record-not-an-object": (
        "assign",
        [5],
        "record #0: video record must be an object",
    ),
    # the annotation file held both videos, which every reader then rejected,
    # and the --truth file silently kept one of them
    "scripts-with-a-duplicate-video-id": (
        "generate",
        _scripts_doc() * 2,
        "duplicate video id 'put-into-0'",
    ),
    # the annotation file was written, and every reader of it then failed
    "scripts-with-an-empty-video-id": (
        "generate",
        _scripts_doc(video_id=""),
        "video id must be a non-empty string, got ''",
    ),
    # these were raised after the files were read, and named no file
    "predictions-with-an-unscored-label": (
        "eval",
        _predictions_doc(true_label="y"),
        "true labels ['y'] have no probability column",
    ),
    "external-of-other-videos": (
        "fuse-external",
        _predictions_doc(video_id="w"),
        "prediction sets cover different videos: only in first ['v'], only in second ['w']",
    ),
    "external-of-other-actions": (
        "fuse-external",
        _predictions_doc(true_label="y", probabilities={"y": 0.5}),
        "prediction sets score different actions: ['x'] vs ['y']",
    ),
    "external-with-another-label": (
        "fuse-external",
        _predictions_doc(true_label="y"),
        "video 'v' labeled 'x' in one set and 'y' in the other",
    ),
}
# every JSON reader rejects text that is not UTF-8 or nests past the parser's limit
for _reader, _command in {
    "annotations": "assign",
    "predictions": "eval",
    "forest": "predict-forest",
    "split": "predict-split",
    "scripts": "generate",
}.items():
    MALFORMED_INPUTS[f"{_reader}-not-utf8"] = (_command, b"\xff\xfe\x00bad", "not valid JSON")
    MALFORMED_INPUTS[f"{_reader}-nested-200k-deep"] = (
        _command,
        "[" * 200_000,
        "not valid JSON",
    )


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_files_exit_1(workdir, tmp_path, capsys, case):
    command, content, message = MALFORMED_INPUTS[case]
    # the name matches the forest-directory glob, so one file serves every case
    bad = tmp_path / "forest_put-into.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
    ours = tmp_path / "ours.json"
    ours.write_text(json.dumps(_predictions_doc()))
    predict = [
        "predict",
        "--annotations",
        str(workdir / "ann.json"),
        "--models",
        str(_model_paths(workdir)),
        "--out",
        str(tmp_path / "preds.json"),
    ]
    argv = {
        "predict-split": predict
        + ["--forest-dir", str(workdir / "forests"), "--split", str(bad)],
        "predict-forest": predict + ["--forest-dir", str(tmp_path)],
        "eval": ["eval", "--predictions", str(bad)],
        "fuse-external": [
            "fuse",
            "--predictions",
            str(ours),
            "--external",
            str(bad),
            "--out",
            str(tmp_path / "fused.json"),
        ],
        "generate": ["generate", "--out", str(tmp_path / "ann.json"), "--from-scripts", str(bad)],
        "assign": ["assign", "--annotations", str(bad), "--out", str(tmp_path / "out.json")],
        "assign-models": [
            "assign",
            "--annotations",
            str(workdir / "ann.json"),
            "--models",
            str(bad),
            "--out",
            str(tmp_path / "out.json"),
        ],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and message in err


@pytest.mark.parametrize("command", ["generate", "train", "sweep"])
def test_negative_seed_exits_1(workdir, tmp_path, capsys, command):
    corpus = ["--annotations", str(workdir / "ann.json"), "--models", str(_model_paths(workdir))]
    argv = {
        "generate": ["generate", "--out", str(tmp_path / "ann.json")],
        "train": ["train", *corpus, "--out-dir", str(tmp_path / "forests")],
        "sweep": ["sweep", *corpus, "--num-trees", "2"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["assign", "--sigma", "nan"],
        ["assign", "--sigma", "inf"],
        ["sweep", "--num-trees", "2", "--sigmas", "nan"],
        ["assign", "--sigma", "1e300"],
        ["sweep", "--num-trees", "2", "--sigmas", "1e300"],
    ],
    ids=["assign-nan", "assign-inf", "sweep-nan", "assign-1e300", "sweep-1e300"],
)
def test_non_finite_sigma_exits_1(workdir, tmp_path, capsys, argv):
    # the kernel radius int(3 * sigma + 0.5) raised ValueError or OverflowError,
    # and a huge finite sigma "Maximum allowed size exceeded" from np.arange
    command, *flags = argv
    out = ["--out", str(tmp_path / "out.json")] if command == "assign" else []
    capsys.readouterr()
    assert main([command, "--annotations", str(workdir / "ann.json"), *out, *flags]) == 1
    assert capsys.readouterr().err.startswith("error: sigma must be finite and positive")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--jitter", "nan"], "jitter_sigma must be a finite number, got nan"),
        (["--jitter", "inf"], "jitter_sigma must be a finite number, got inf"),
        (["--lag", "nan"], "copy_lag_prob must be a finite number, got nan"),
    ],
    ids=["jitter-nan", "jitter-inf", "lag-nan"],
)
def test_non_finite_noise_exits_1(tmp_path, capsys, flags, message):
    # a NaN jitter compared false with 0 and gave a noise-free file with exit 0
    out = tmp_path / "ann.json"
    capsys.readouterr()
    assert main(["generate", "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--sigmas", "1,x"], ["--ns", "2.5"]], ids=["sigma-text", "n-fraction"]
)
def test_sweep_rejects_malformed_lists_as_usage_errors(workdir, capsys, flags):
    # float() / int() on the list items used to end in a ValueError traceback
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--annotations", str(workdir / "ann.json"), *flags])
    assert exc.value.code == 2
    assert "--sigmas takes numbers and --ns integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, value",
    [(["--sigmas", "2,2.0", "--ns", "3,3"], "--sigmas lists 2"), (["--ns", "3,5,3"], "--ns lists 3")],
    ids=["sigma", "n"],
)
def test_sweep_rejects_a_repeated_grid_value_before_reading_a_file(tmp_path, capsys, flags, value):
    # the one cell was trained once per repeat and written as identical rows
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--annotations", str(tmp_path / "missing.json"), *flags])
    assert exc.value.code == 2
    assert f"boxact sweep: error: {value} more than once" in capsys.readouterr().err


def test_generate_negative_count_exits_1(tmp_path, capsys):
    out = tmp_path / "ann.json"
    capsys.readouterr()
    assert main(["generate", "--out", str(out), "--count", "-1"]) == 1
    assert capsys.readouterr().err == "error: per_archetype must be at least 0, got -1\n"
    assert not out.exists()


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["dance"])
    assert exc.value.code == 2


def _parsed(parse, argv: list[str]) -> tuple[str, str, object]:
    """What ``parse(argv)`` prints to stdout and stderr, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return out.getvalue(), err.getvalue(), exc.value.code


@pytest.mark.parametrize(
    "argv",
    [[command, flag] for command in COMMANDS for flag in ("--help", "--bogus")]
    + [["bogus"], [], ["--help"], ["--bogus", "train"], ["bogus", "train"]]
    + [
        ["eval", "--predictions", "p.json", "--bogus"],
        ["fuse", "--predictions", "p.json", "--external", "e.json", "--out", "o.json", "x"],
        ["train", "--annotations", "a.json", "--out-dir", "f", "--bogus=1"],
    ],
    ids=" ".join,
)
def test_main_prints_what_a_parser_of_every_command_prints(argv):
    assert _parsed(main, argv) == _parsed(build_parser().parse_args, argv)


def test_an_unknown_argument_is_named_by_the_boxact_parser():
    out, err, code = _parsed(main, ["eval", "--predictions", "p.json", "--bogus"])
    assert (out, code) == ("", 2)
    assert err.splitlines()[-1] == "boxact: error: unrecognized arguments: --bogus"


def test_one_parser_serves_every_call_and_keeps_no_flag(tiny_corpus, tmp_path):
    # the parser outlives a call, so a flag one call parsed must not become
    # the next call's default
    assert build_parser() is build_parser()
    seeds = []
    for flags in (["--seed", "3"], []):
        out = tmp_path / "assignments.json"
        assert main(["assign", "--annotations", str(tiny_corpus), "--out", str(out), *flags]) == 0
        seeds.append(json.loads(out.read_text(encoding="utf-8"))["provenance"]["seed"])
    assert seeds == [3, 0]


def test_sweep_writes_a_grid(workdir, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "--annotations",
            str(workdir / "ann.json"),
            "--models",
            str(_model_paths(workdir)),
            "--sigmas",
            "2",
            "--ns",
            "3",
            "--num-trees",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "boxact-sweep"
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert set(row) >= {"sigma", "n", "accuracy", "weighted_map"}
    assert "accuracy" in capsys.readouterr().out


@pytest.fixture(scope="module")
def no_val_split(tmp_path_factory) -> Path:
    """Two videos per class: --val-fraction 0.25 rounds to no validation video."""
    root = tmp_path_factory.mktemp("no-val")
    ann = root / "ann.json"
    assert main(["generate", "--out", str(ann), "--count", "2"]) == 0
    train = ["train", "--annotations", str(ann), "--out-dir", str(root / "forests")]
    assert main(train + ["--num-trees", "2"]) == 0
    assert json.loads((root / "forests" / "split.json").read_text())["val"] == []
    return root


def test_predict_on_an_empty_subset_names_the_split(no_val_split, tmp_path, capsys):
    # predict used to embed nothing and fail with "prediction set is empty"
    split = no_val_split / "forests" / "split.json"
    capsys.readouterr()
    code = main([
        "predict", "--annotations", str(no_val_split / "ann.json"),
        "--forest-dir", str(no_val_split / "forests"), "--split", str(split),
        "--subset", "val", "--out", str(tmp_path / "preds.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {split}: the 'val' subset lists no videos; "
    )
    assert not (tmp_path / "preds.json").exists()


def test_sweep_without_validation_videos_fails_before_embedding(
    no_val_split, capsys, monkeypatch
):
    # sweep used to embed and train the first cell, then fail in evaluate
    import boxact.cli

    def embed_all(*args, **kwargs):
        raise AssertionError("sweep embedded before checking its split")

    monkeypatch.setattr(boxact.cli, "embed_all", embed_all)
    capsys.readouterr()
    code = main(["sweep", "--annotations", str(no_val_split / "ann.json"), "--num-trees", "2"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: --val-fraction 0.25 rounds to no validation video in any class "
        "of 10 videos; raise it or add videos\n"
    )


# --- every accepted document runs through train, predict and eval -------------------

limit_boxes = st.builds(
    lambda x, y, w, h: {"x": x, "y": y, "w": w, "h": h},
    st.sampled_from([-COORDINATE_LIMIT, 0.0, 37.5, COORDINATE_LIMIT]),
    st.sampled_from([-COORDINATE_LIMIT, 0.0, 12.0, COORDINATE_LIMIT]),
    st.sampled_from([0.0, 5e-324, 20.0, COORDINATE_LIMIT]),
    st.sampled_from([0.0, 15.0, COORDINATE_LIMIT]),
)
plain_boxes = st.fixed_dictionaries(
    {k: st.floats(0, 300) for k in "xy"} | {k: st.floats(0, 60) for k in "wh"}
)


@st.composite
def corpus_documents(draw):
    """2-8 videos of 1-8 frames at sparse indices, some roles absent throughout.

    Labels cycle through one class or all five; a quarter of the documents
    leave the first video unlabelled.
    """
    classes = draw(st.sampled_from([ARCHETYPES[:1], ARCHETYPES, ARCHETYPES]))
    unlabelled = draw(st.sampled_from([None, None, None, "v0"]))
    videos = []
    for v in range(draw(st.integers(2, 8))):
        roles = draw(st.lists(st.sampled_from(ROLES), unique=True))
        frames = []
        for idx in sorted(draw(st.sets(st.integers(0, 10_000), min_size=1, max_size=8))):
            boxes = [
                {"role": r, **draw(st.one_of(plain_boxes, limit_boxes))}
                for r in roles
                if draw(st.booleans())
            ]
            frames.append({"idx": idx, "boxes": boxes})
        record = {"id": f"v{v}", "width": 320, "height": 240, "frames": frames}
        if record["id"] != unlabelled:
            record["label"] = classes[v % len(classes)]
        videos.append(record)
    return videos


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # single-class actions also warn
            code = main(argv)
    return code, err.getvalue()


@given(corpus_documents())
@settings(max_examples=25, deadline=None)
def test_accepted_documents_run_through_train_predict_and_eval(document):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ann, forests, preds = root / "ann.json", root / "forests", root / "preds.json"
        ann.write_text(json.dumps(document))
        for argv in (
            ["train", "--annotations", str(ann), "--out-dir", str(forests), "--num-trees", "5"],
            ["predict", "--annotations", str(ann), "--forest-dir", str(forests),
             "--split", str(forests / "split.json"), "--subset", "all", "--out", str(preds)],
            ["eval", "--predictions", str(preds)],
        ):
            code, err = _run(argv)
            assert code == 0 or (
                code == 1
                and (err.startswith("error: ") or err.startswith("warning: skipped single-class"))
            ), (argv[0], code, err)


# --- every prediction file runs through eval and fuse, or fails with error: ---------

json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.integers(-(10**20), 10**20) | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=6,
)
# ids and labels of the other records, and values that float() and int() took
pointed_values = st.sampled_from(["v0", "a", True, "0.5", HUGE, -HUGE])
field_values = st.one_of(pointed_values, pointed_values, json_values)


@st.composite
def prediction_documents(draw):
    """1-4 well-formed records over actions a and b, then up to two fields set to any JSON value.

    A field is a record's id, label, probabilities or probability of a.
    """
    records = [
        {
            "video_id": f"v{i}",
            "true_label": draw(st.sampled_from("ab")),
            "probabilities": {a: draw(st.floats(0, 1)) for a in "ab"},
        }
        for i in range(draw(st.integers(1, 4)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        record = draw(st.sampled_from(records))
        field = draw(st.sampled_from(["video_id", "true_label", "probabilities", "a", "a"]))
        value = draw(field_values)
        if field != "a":
            record[field] = value
        elif isinstance(record["probabilities"], dict):
            record["probabilities"]["a"] = value
    return {"format": "boxact-predictions", "version": 1, "records": records}


@given(prediction_documents())
@settings(max_examples=100, deadline=None)
def test_prediction_files_run_through_eval_and_fuse(document):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        preds, fused, report = root / "preds.json", root / "fused.json", root / "report"
        preds.write_text(json.dumps(document))
        eval_ = ["eval", "--predictions", str(preds), "--out-dir", str(report)]
        fuse = ["fuse", "--predictions", str(preds), "--external", str(preds), "--out", str(fused)]
        for argv, written in ((eval_, report / "report.json"), (fuse, fused)):
            code, err = _run(argv)
            assert (code, err) == (0, "") or (code == 1 and err.startswith("error: ")), (argv, err)
            if code == 0:
                json.loads(written.read_text(), parse_constant=lambda c: pytest.fail(c))


# --- every model directory runs through assign and train, or fails with error: -------

# weights up to the bound, and values past it or not finite or not numbers at all
good_weights = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e100, -1e100]), st.floats(-1e3, 1e3)
)
good_thresholds = st.one_of(st.sampled_from([0.0, 5e-324, 1e300, -1e300]), st.floats(-1e3, 1e3))
bad_numbers = st.sampled_from(
    [1.0000000000000002e100, 1e306, float("nan"), float("inf"), -float("inf"), HUGE, True, "1"]
)


@st.composite
def catalogue_terms(draw):
    """A term of a catalogued feature, with arguments the catalogue lists for it."""
    name = draw(st.sampled_from(sorted(FEATURES)))
    args = list(draw(st.sampled_from(FEATURES[name].args)))
    if FEATURES[name].symmetric and draw(st.booleans()):
        args.reverse()
    term = {"feature": name, "args": args, "weight": draw(good_weights)}
    if draw(st.booleans()):
        term["negate"] = draw(st.booleans())
    if draw(st.booleans()):
        term["threshold"] = draw(good_thresholds)
    return term


# one field of a term set to a value that a model file may not hold, or may
term_faults = st.one_of(
    st.tuples(st.just("feature"), st.sampled_from(["wobble", "Present", 5])),
    st.tuples(st.just("args"), st.lists(st.sampled_from(ROLES + ("foot",)), max_size=3)),
    st.tuples(st.sampled_from(["weight", "threshold"]), bad_numbers),
    st.tuples(st.just("negate"), st.sampled_from(["no", 0, None])),
)


@st.composite
def model_documents(draw):
    """A put-into model of 1-3 terms a phase, up to two of them with a fault.

    Half the documents hold custom thresholds, and half a features list.
    """
    doc = {
        "action_id": "put-into",
        "phases": {p: draw(st.lists(catalogue_terms(), min_size=1, max_size=3)) for p in "abcde"},
    }
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        term = draw(st.sampled_from(doc["phases"][draw(st.sampled_from("abcde"))]))
        field, value = draw(term_faults)
        term[field] = value
    if draw(st.booleans()):
        fields = ["touch_tol", "containment_fraction", "move_threshold", "move_with_hand_tol"]
        values = st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0, 2.5, 1e300]), bad_numbers)
        doc["thresholds"] = draw(st.dictionaries(st.sampled_from(fields), values))
    if draw(st.booleans()):
        keys = st.sampled_from(relation_keys() + ("touching(hand,object1)", "present(foot)"))
        doc["features"] = draw(st.lists(keys, max_size=3))
    return doc


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory) -> Path:
    """Four labelled videos of 60 frames."""
    ann = tmp_path_factory.mktemp("tiny") / "ann.json"
    assert main(["generate", "--archetypes", "put-into,take-out-of", "--count", "2",
                 "--out", str(ann)]) == 0
    return ann


@given(model_documents())
@settings(max_examples=60, deadline=None)
def test_model_directories_run_through_assign_and_train(tiny_corpus, document):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        models = root / "models"
        models.mkdir()
        (models / "put-into.json").write_text(json.dumps(document))
        save_action_model(builtin_model("take-out-of"), models / "take-out-of.json")
        corpus = ["--annotations", str(tiny_corpus), "--models", str(models)]
        for argv in (
            ["assign", *corpus, "--out", str(root / "assignments.json")],
            ["train", *corpus, "--out-dir", str(root / "forests"), "--num-trees", "5"],
        ):
            code, err = _run(argv)
            assert (code, err) == (0, "") or (code == 1 and err.startswith("error: ")), (argv, err)
        for path in [*root.glob("*.json"), *root.glob("forests/*.json")]:
            json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path}: {c}"))


# --- every pipeline flag runs through assign, embed, train and sweep, or fails with error: --


@pytest.fixture(scope="module")
def tiny_models(tiny_corpus) -> Path:
    """Models of the two actions in the tiny corpus, so that no action trains on one class."""
    return _model_paths(tiny_corpus.parent)


@given(
    sigma=st.one_of(
        st.floats(0, MAX_SIGMA),
        st.sampled_from([5e-324, MAX_SIGMA, math.nextafter(MAX_SIGMA, math.inf), 2 * MAX_SIGMA,
                         -1.0, math.nan]),
    ),
    n=st.integers(0, 70),  # the tracks are 60 frames long
)
@settings(max_examples=30, deadline=None)
def test_pipeline_flags_run_through_assign_embed_train_and_sweep(tiny_corpus, tiny_models,
                                                                  sigma, n):
    corpus = ["--annotations", str(tiny_corpus), "--models", str(tiny_models)]
    flags = [f"--sigma={sigma!r}", f"--n={n}"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for argv in (
            ["assign", *corpus, *flags, "--out", str(root / "assignments.json")],
            ["embed", *corpus, *flags, "--out", str(root / "embeddings.json")],
            ["train", *corpus, *flags, "--out-dir", str(root / "forests"), "--num-trees", "5"],
            ["sweep", *corpus, f"--sigmas={sigma!r}", f"--ns={n}", "--val-fraction", "0.5",
             "--num-trees", "5", "--out", str(root / "sweep.json")],
        ):
            code, err = _run(argv)
            assert (code, err) == (0, "") or (code == 1 and err.startswith("error: ")), (argv, err)
        for path in [*root.glob("*.json"), *root.glob("forests/*.json")]:
            json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path}: {c}"))


# --- every split file runs through predict, or fails with error: ----------------------------


@pytest.fixture(scope="module")
def tiny_forests(tiny_corpus, tiny_models) -> Path:
    forests = tiny_corpus.parent / "forests"
    assert main(["train", "--annotations", str(tiny_corpus), "--models", str(tiny_models),
                 "--out-dir", str(forests), "--num-trees", "5", "--val-fraction", "0.5"]) == 0
    return forests


TINY_IDS = [f"syn-{a}-{i:04d}" for a in ("put-into", "take-out-of") for i in range(2)]
split_ids = st.lists(st.sampled_from(TINY_IDS), max_size=4)
# a list of ids, an unknown id, ids that are not strings, or no list at all
split_values = st.one_of(
    split_ids, split_ids, split_ids.map(lambda ids: [*ids, "syn-unknown"]), json_values
)


@st.composite
def split_documents(draw):
    """A split file; half the time of another format or version, or without a subset."""
    doc = {
        "format": "boxact-split",
        "version": 1,
        "train": draw(split_values),
        "val": draw(split_values),
    }
    fault = draw(st.none() | st.sampled_from(["format", "version", "train", "val"]))
    if fault in ("train", "val"):
        del doc[fault]
    elif fault is not None:
        doc[fault] = draw(st.sampled_from(["boxact-predictions", 2, True, "1", None]))
    return doc


@given(split_documents(), st.sampled_from(["train", "val", "all"]))
@settings(max_examples=40, deadline=None)
def test_split_files_run_through_predict(tiny_corpus, tiny_models, tiny_forests, document,
                                         subset):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        split, preds = root / "split.json", root / "preds.json"
        split.write_text(json.dumps(document))
        code, err = _run(["predict", "--annotations", str(tiny_corpus), "--models",
                          str(tiny_models), "--forest-dir", str(tiny_forests), "--split",
                          str(split), "--subset", subset, "--out", str(preds)])
        assert (code, err) == (0, "") or (code == 1 and err.startswith("error: ")), err
        if code == 0:
            json.loads(preds.read_text(), parse_constant=lambda c: pytest.fail(c))
