"""The benchmark's three workloads: inputs from a seed, one timed operation, its outputs.

Every workload is a closed loop of batch jobs run serially in one process
(``workers=1``): the next operation starts when the previous one returns.
The load generator (``boxact.synthetic``) runs only in :meth:`setup`; the
program sees nothing but the annotation file it writes.

``operation()`` is the timed part.  ``outputs()`` turns what it returned into
plain JSON-able sections (assignments, embeddings, probabilities, labels,
argmax, report) that the runner compares across operations and with the
stored reference.  Entries are keyed by video, ``"<video>|<action>"``, or
the report's split.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from boxact import cli, evaluation, pipeline, tracks
from boxact.phases import ARCHETYPES, PHASES
from boxact.synthetic import NOISE_PRESETS, generate_dataset


@dataclass
class Pass:
    """What one timed operation did: its size, stage times and quality."""

    videos: int
    frames: int
    stages: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    raw: object = None


class OperationFailed(Exception):
    """The operation finished but reported failure (a CLI exit code != 0)."""


def _argmax(probabilities: dict[str, float]) -> str:
    # the evaluation's rule: highest probability, exact ties to the lowest id
    return max(sorted(probabilities), key=lambda a: probabilities[a])


def _assignment_record(a) -> list:
    return [
        a.object_order,
        a.b_choice,
        [a.centers[p] for p in PHASES],
        [list(a.windows[p]) if a.windows[p] is not None else None for p in PHASES],
    ]


def _embedding_outputs(embeds, embedding_videos=None) -> dict:
    """Assignments of every (video, action); embeddings of the chosen videos."""
    out = {"assignments": {}, "embeddings": {}}
    for video in sorted(embeds):
        for action, (embedding, assignment) in sorted(embeds[video].items()):
            key = f"{video}|{action}"
            out["assignments"][key] = _assignment_record(assignment)
            if embedding_videos is None or video in embedding_videos:
                out["embeddings"][key] = [float(v) for v in embedding.values]
    return out


def _prediction_outputs(records) -> dict:
    """``records``: (video, true label, {action: probability}) triples."""
    out = {"probabilities": {}, "labels": {}, "argmax": {}}
    for video, label, probs in records:
        out["probabilities"][video] = {a: float(p) for a, p in sorted(probs.items())}
        out["labels"][video] = label
        out["argmax"][video] = _argmax(probs)
    return out


def _report_outputs(key: str, report: dict) -> dict:
    """``report``: the dict form the CLI writes (``evaluation.report_to_dict``)."""
    fields = ("accuracy", "weighted_map", "macro_map", "per_action_ap", "support", "confusion")
    return {"report": {key: {f: report[f] for f in fields}}}


class Workload:
    name = ""
    per_archetype = 0
    frames = 0
    noise = ""
    min_operations = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.annotations = workdir / "annotations.json"

    @property
    def sizes(self) -> dict:
        return {
            "videos": self.per_archetype * len(ARCHETYPES),
            "frames_per_video": self.frames,
            "noise": self.noise,
            "models": "builtin",
        }

    def setup(self) -> dict:
        """Generate the inputs; returns outputs that every set-up must repeat exactly."""
        tracks_, _truth = generate_dataset(
            ARCHETYPES,
            self.per_archetype,
            num_frames=self.frames,
            noise=NOISE_PRESETS[self.noise],
            seed=self.seed,
        )
        tracks.write_annotation_file(self.annotations, tracks_)
        document = json.loads(self.annotations.read_text())
        digest = hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()
        return {"input": {"annotations": digest}}

    def output_key(self, index: int) -> int:
        """Passes with equal keys run the same operation and must agree exactly."""
        return 0

    def operation(self, index: int) -> Pass:
        raise NotImplementedError

    def outputs(self, done: Pass) -> dict:
        raise NotImplementedError

    def summary(self) -> dict[str, float]:
        """Quality figures known once the passes are done."""
        return {}


class EmbedLong(Workload):
    """Parse, then embed long tracks: per-frame work dominates, the forest is idle."""

    name = "embed-long"
    per_archetype = 1
    frames = 300
    noise = "crowd-artifacts"

    def operation(self, index: int) -> Pass:
        tracks_ = tracks.load_annotation_file(self.annotations)
        models = pipeline.load_models("builtin")
        embeds = pipeline.embed_all(tracks_, models, pipeline.PipelineConfig())
        return Pass(videos=len(tracks_), frames=sum(len(t.frames) for t in tracks_), raw=embeds)

    def outputs(self, done: Pass) -> dict:
        return _embedding_outputs(done.raw)


class Classify(Workload):
    """The CLI flow train, predict --subset val, eval on minimum-length tracks."""

    name = "classify"
    per_archetype = 6
    frames = 60
    noise = "moderate"

    def _cli(self, *argv: str) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        if rc != 0:
            raise OperationFailed(f"boxact {argv[0]} exited {rc}: {err.getvalue().strip()}")

    def operation(self, index: int) -> Pass:
        run_dir = self.workdir / "pass"
        forests, preds, report = run_dir / "forests", run_dir / "predictions.json", run_dir / "report"
        ann = str(self.annotations)
        start = time.perf_counter()
        self._cli("train", "--annotations", ann, "--out-dir", str(forests))
        trained = time.perf_counter()
        self._cli(
            "predict", "--annotations", ann, "--forest-dir", str(forests),
            "--split", str(forests / "split.json"), "--subset", "val", "--out", str(preds),
        )
        self._cli("eval", "--predictions", str(preds), "--out-dir", str(report))
        end = time.perf_counter()
        split = json.loads((forests / "split.json").read_text())
        videos = len(split["train"]) + len(split["val"])
        return Pass(
            videos=videos,
            frames=videos * self.frames,
            stages={"train_s": trained - start, "predict_s": end - trained},
            raw=run_dir,
        )

    def outputs(self, done: Pass) -> dict:
        run_dir = done.raw
        preds = json.loads((run_dir / "predictions.json").read_text())["records"]
        report = json.loads((run_dir / "report" / "report.json").read_text())["report"]
        shutil.rmtree(run_dir)
        done.quality = {"accuracy": report["accuracy"], "weighted_map": report["weighted_map"]}
        out = _prediction_outputs((r["video_id"], r["true_label"], r["probabilities"]) for r in preds)
        out.update(_report_outputs("validation", report))
        return out


class CrossVal(Workload):
    """One fold of a k-fold fit, predict and evaluate per operation on set-up embeddings."""

    name = "crossval"
    per_archetype = 8
    frames = 60
    noise = "crowd-artifacts"
    folds = 5
    min_operations = folds

    @property
    def sizes(self) -> dict:
        return {**super().sizes, "folds": self.folds}

    def setup(self) -> dict:
        fingerprint = super().setup()
        tracks_ = tracks.load_annotation_file(self.annotations)
        self.models = pipeline.load_models("builtin")
        self.config = pipeline.PipelineConfig()
        self.labels = {t.video_id: t.label for t in tracks_}
        self.embeds = pipeline.embed_all(tracks_, self.models, self.config)
        # fold f holds every folds-th video of each class, in id order
        by_label: dict[str, list[str]] = {}
        for video in sorted(self.labels):
            by_label.setdefault(self.labels[video], []).append(video)
        self.fold_ids = [
            sorted(v for ids in by_label.values() for v in ids[f :: self.folds])
            for f in range(self.folds)
        ]
        self._pooled: dict[int, list] = {}
        self._quality: dict[str, float] = {}
        # embeddings of the first video of each class stand for the rest in the
        # reference; every assignment and probability is compared
        firsts = {ids[0] for ids in by_label.values()}
        fingerprint.update(_embedding_outputs(self.embeds, firsts))
        return fingerprint

    def output_key(self, index: int) -> int:
        return index % self.folds

    def operation(self, index: int) -> Pass:
        fold = index % self.folds
        val = self.fold_ids[fold]
        held_out = set(val)
        train = [v for v in sorted(self.labels) if v not in held_out]
        start = time.perf_counter()
        forests, skipped, _ = pipeline.train_forests(
            self.embeds, self.labels, self.models, self.config, train
        )
        if skipped:
            raise OperationFailed(f"fold {fold}: single-class actions {skipped}")
        trained = time.perf_counter()
        preds = pipeline.predict_set(
            self.embeds, self.labels, forests, self.models, self.config, val
        )
        report = evaluation.evaluate(preds)
        end = time.perf_counter()
        return Pass(
            videos=len(train) + len(val),
            frames=(len(train) + len(val)) * self.frames,
            stages={"train_s": trained - start, "predict_s": end - trained},
            raw=(fold, preds, report),
        )

    def outputs(self, done: Pass) -> dict:
        fold, preds, report = done.raw
        self._pooled.setdefault(fold, list(preds.videos))
        if len(self._pooled) == self.folds and not self._quality:
            pooled = evaluation.PredictionSet(
                videos=tuple(v for f in sorted(self._pooled) for v in self._pooled[f])
            )
            full = evaluation.evaluate(pooled)
            self._quality = {"accuracy": full.accuracy, "weighted_map": full.weighted_map}
        out = _prediction_outputs(
            (v.video_id, v.true_label, v.probabilities) for v in preds.videos
        )
        out.update(_report_outputs(f"fold{fold}", evaluation.report_to_dict(report)))
        return out

    def summary(self) -> dict[str, float]:
        return dict(self._quality)


WORKLOADS = {w.name: w for w in (EmbedLong, Classify, CrossVal)}
