"""Ranking metrics, confusion matrices, and probability-level late fusion.

Average precision uses a pessimistic tie rule: when scores tie, negatives are
ranked ahead of positives, so reported numbers never benefit from tie luck.
Mean AP is support-weighted; the unweighted macro mean is reported alongside.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import AnnotationError, ContractError, check_finite, check_str, prefixed
from .errors import read_artifact, write_artifact

__all__ = [
    "VideoPrediction",
    "PredictionSet",
    "EvalReport",
    "average_precision",
    "evaluate",
    "fuse",
    "report_to_dict",
    "report_table",
    "confusion_csv",
    "save_predictions",
    "load_predictions",
]

PREDICTIONS_FORMAT = "boxact-predictions"


@dataclass(frozen=True)
class VideoPrediction:
    """A video's true label and probabilities, checked by the rules of :mod:`boxact.errors`.

    ``probabilities`` is kept as a dict of floats.
    """

    video_id: str
    true_label: str
    probabilities: Mapping[str, float]

    def __post_init__(self) -> None:
        check_str("video_id", self.video_id)
        with prefixed(f"video {self.video_id!r}"):
            check_str("true_label", self.true_label)
            if not isinstance(self.probabilities, Mapping):
                raise ContractError(f"probabilities must be an object, got {self.probabilities!r}")
            probabilities = {a: _probability(a, p) for a, p in self.probabilities.items()}
        object.__setattr__(self, "probabilities", probabilities)


def _probability(action: str, p) -> float:
    """``p`` as a float, by :func:`~boxact.errors.check_finite`'s rule; names ``action`` on failure."""
    if isinstance(p, float):
        if math.isfinite(p):
            return float(p)
        raise ContractError(f"non-finite probability for {action!r}")
    return check_finite(f"probability for {action!r}", p)


@dataclass(frozen=True)
class PredictionSet:
    """Per-video probability maps sharing one action universe."""

    videos: tuple[VideoPrediction, ...]

    def __post_init__(self) -> None:
        if not self.videos:
            raise ContractError("prediction set is empty")
        universe = set(self.videos[0].probabilities)
        for v in self.videos[1:]:
            if set(v.probabilities) != universe:
                raise ContractError(
                    f"video {v.video_id!r} scores actions "
                    f"{sorted(v.probabilities)} but {self.videos[0].video_id!r} "
                    f"scores {sorted(universe)}"
                )
        counts = Counter(v.video_id for v in self.videos)
        if len(counts) != len(self.videos):
            dupes = sorted(i for i, n in counts.items() if n > 1)
            raise ContractError(f"duplicate video ids in prediction set: {dupes}")

    @property
    def actions(self) -> tuple[str, ...]:
        return tuple(sorted(self.videos[0].probabilities))

    def __len__(self) -> int:
        return len(self.videos)


def average_precision(
    scores: Sequence[float], labels: Sequence[int]
) -> float | None:
    """AP of a ranked list; ties rank negatives first (pessimistic).

    Returns None (with a warning) when there are no positives, so callers can
    exclude the class from aggregate means.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(int)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ContractError("average_precision expects matching 1-d inputs")
    num_pos = int(labels.sum())
    if num_pos == 0:
        warnings.warn("average precision undefined without positives", stacklevel=2)
        return None
    # rank by descending score; at equal scores negatives come first
    positive = labels[np.lexsort((labels, -scores))] == 1
    precision = np.cumsum(positive) / np.arange(1, scores.size + 1)
    # the precisions at the positive ranks, added one at a time in rank order
    total = np.cumsum(np.where(positive, precision, 0.0))[-1]
    return float(total) / num_pos


@dataclass(frozen=True)
class EvalReport:
    actions: tuple[str, ...]
    per_action_ap: Mapping[str, float | None]
    weighted_map: float
    macro_map: float
    support: Mapping[str, int]
    confusion: np.ndarray  # rows: true action, cols: predicted action
    accuracy: float


def evaluate(preds: PredictionSet) -> EvalReport:
    """One-vs-rest AP per action, support-weighted and macro mAP, confusion.

    Everything is read off one (videos x actions) score matrix; the predicted
    action is the first best column, so a tie goes to the lowest action id.
    """
    actions = preds.actions
    unknown = sorted({v.true_label for v in preds.videos} - set(actions))
    if unknown:
        raise ContractError(
            f"true labels {unknown} have no probability column; "
            f"scored actions are {list(actions)}"
        )
    index = {a: i for i, a in enumerate(actions)}
    scores = np.array([[v.probabilities[a] for a in actions] for v in preds.videos])
    truth = np.array([index[v.true_label] for v in preds.videos])
    support = dict(zip(actions, np.bincount(truth, minlength=len(actions)).tolist()))
    per_action_ap: dict[str, float | None] = {
        a: average_precision(scores[:, j], truth == j) for j, a in enumerate(actions)
    }
    defined = [a for a in actions if per_action_ap[a] is not None]
    weight_sum = sum(support[a] for a in defined)
    weighted = sum(support[a] * per_action_ap[a] for a in defined) / weight_sum
    macro = sum(per_action_ap[a] for a in defined) / len(defined)
    predicted = scores.argmax(axis=1)
    confusion = np.zeros((len(actions), len(actions)), dtype=int)
    np.add.at(confusion, (truth, predicted), 1)
    return EvalReport(
        actions=actions,
        per_action_ap=per_action_ap,
        weighted_map=float(weighted),
        macro_map=float(macro),
        support=support,
        confusion=confusion,
        accuracy=int(np.count_nonzero(predicted == truth)) / len(preds),
    )


def fuse(a: PredictionSet, b: PredictionSet) -> PredictionSet:
    """Element-wise sum of two probability maps over the same videos."""
    ids_a = {v.video_id for v in a.videos}
    ids_b = {v.video_id for v in b.videos}
    if ids_a != ids_b:
        only_a = sorted(ids_a - ids_b)
        only_b = sorted(ids_b - ids_a)
        raise ContractError(
            f"prediction sets cover different videos: "
            f"only in first {only_a}, only in second {only_b}"
        )
    if a.actions != b.actions:
        raise ContractError(
            f"prediction sets score different actions: "
            f"{list(a.actions)} vs {list(b.actions)}"
        )
    by_id = {v.video_id: v for v in b.videos}
    fused = []
    for v in a.videos:
        other = by_id[v.video_id]
        if other.true_label != v.true_label:
            raise ContractError(
                f"video {v.video_id!r} labeled {v.true_label!r} in one set "
                f"and {other.true_label!r} in the other"
            )
        fused.append(
            VideoPrediction(
                video_id=v.video_id,
                true_label=v.true_label,
                probabilities={
                    act: v.probabilities[act] + other.probabilities[act]
                    for act in v.probabilities
                },
            )
        )
    return PredictionSet(videos=tuple(fused))


# --- report output -------------------------------------------------------------


def report_to_dict(report: EvalReport) -> dict:
    return {
        "actions": list(report.actions),
        "per_action_ap": {
            a: report.per_action_ap[a] for a in report.actions
        },
        "weighted_map": report.weighted_map,
        "macro_map": report.macro_map,
        "support": dict(report.support),
        "accuracy": report.accuracy,
        "confusion": report.confusion.tolist(),
    }


def report_table(report: EvalReport) -> str:
    """Human-readable per-action AP table plus both mAP variants."""
    width = max(len(a) for a in report.actions)
    lines = [f"{'action':<{width}}  {'support':>7}  {'AP':>7}"]
    for a in report.actions:
        ap = report.per_action_ap[a]
        ap_text = f"{ap:7.4f}" if ap is not None else "    n/a"
        lines.append(f"{a:<{width}}  {report.support[a]:>7d}  {ap_text}")
    lines.append(f"{'weighted mAP':<{width}}  {'':>7}  {report.weighted_map:7.4f}")
    lines.append(f"{'macro mAP':<{width}}  {'':>7}  {report.macro_map:7.4f}")
    lines.append(f"{'accuracy':<{width}}  {'':>7}  {report.accuracy:7.4f}")
    return "\n".join(lines)


def confusion_csv(report: EvalReport) -> str:
    """Confusion grid as CSV: rows true actions, columns predicted.

    An action id holding a comma, a quote or a line break is quoted, so
    every row keeps one cell per column.
    """
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["true\\predicted", *report.actions])
    for action, row in zip(report.actions, report.confusion):
        writer.writerow([action, *(int(c) for c in row)])
    return text.getvalue()


def save_predictions(
    preds: PredictionSet,
    path: str | Path,
    provenance: Mapping[str, object] | None = None,
) -> None:
    records = [
        {"video_id": v.video_id, "true_label": v.true_label, "probabilities": v.probabilities}
        for v in preds.videos
    ]
    write_artifact(path, PREDICTIONS_FORMAT, provenance, records=records)


def load_predictions(path: str | Path) -> PredictionSet:
    doc = read_artifact(path, PREDICTIONS_FORMAT, "a predictions file", AnnotationError)
    with prefixed(path):
        try:
            return PredictionSet(
                videos=tuple(
                    VideoPrediction(rec["video_id"], rec["true_label"], rec["probabilities"])
                    for rec in doc.get("records", [])
                )
            )
        except KeyError as exc:
            raise AnnotationError(f"prediction record missing {exc}") from None
        except TypeError as exc:
            raise AnnotationError(f"malformed prediction record: {exc}") from None
