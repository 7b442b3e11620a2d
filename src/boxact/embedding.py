"""Fixed-length per-video embeddings built from phase-assigned windows.

Each of the five phases contributes four statistics (mean, median, max, min)
of its raw score over the assigned window, the same four statistics for every
relational feature the action model mentions, and a presence flag.  Phases
the assignment could not place contribute zeros with the flag down, so the
layout never changes shape for a given model.

A ``scores_only`` switch drops the per-feature blocks and keeps just the
score statistics and flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import AnnotationError, ContractError, read_json
from .phases import PHASES, ActionModel, PhaseAssignment, PhaseScoreMatrix
from .relations import COLUMN
from .tracks import VideoTrack

__all__ = [
    "STAT_NAMES",
    "PhaseFeature",
    "VideoEmbedding",
    "phase_feature",
    "embedding_layout",
    "embed_video",
    "dump_embeddings",
    "load_embeddings",
]

STAT_NAMES = ("mean", "med", "max", "min")


@dataclass(frozen=True)
class PhaseFeature:
    """One phase's statistics block: score stats, per-feature stats, flag.

    ``feature_stats`` has one row per feature of the model's feature list and
    one column per entry of ``STAT_NAMES``.
    """

    phase: str
    score_stats: tuple[float, float, float, float]
    feature_stats: np.ndarray
    assigned: bool

    def flat(self, scores_only: bool) -> list[float]:
        out = list(self.score_stats)
        if not scores_only:
            out.extend(self.feature_stats.ravel().tolist())
        out.append(1.0 if self.assigned else 0.0)
        return out


@dataclass(frozen=True)
class VideoEmbedding:
    """Flat feature vector plus its named layout, one per video per action."""

    action_id: str
    video_id: str
    values: np.ndarray
    layout: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.layout),):
            raise ContractError(
                f"embedding for {self.video_id!r}: got values of shape "
                f"{self.values.shape} for a layout of {len(self.layout)} names"
            )

    @property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.layout)}

    def assigned_flags(self) -> dict[str, bool]:
        idx = self.index
        return {p: bool(self.values[idx[f"{p}:assigned"]]) for p in PHASES}


def phase_feature(
    phase: str,
    scores: np.ndarray | Sequence[float],
    window: np.ndarray,
) -> PhaseFeature:
    """Statistics of one phase's scores and features over its window.

    ``window`` holds one row per window frame and one column per feature.
    An empty window is the unassigned path: all statistics zero, flag down.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        return PhaseFeature(
            phase=phase,
            score_stats=(0.0, 0.0, 0.0, 0.0),
            feature_stats=np.zeros((window.shape[1], len(STAT_NAMES))),
            assigned=False,
        )
    if scores.size != window.shape[0]:
        raise ContractError(
            f"phase {phase!r}: {scores.size} scores but "
            f"{window.shape[0]} frames of relations"
        )
    # one contiguous row per series, so each reduction runs as on a 1-D array
    series = np.vstack([scores, window.T])
    high, low = series.max(axis=1), series.min(axis=1)
    # rounding can push the mean of equal values one ulp past them
    mean = np.clip(series.mean(axis=1), low, high)
    stats = np.column_stack([mean, np.median(series, axis=1), high, low])
    return PhaseFeature(
        phase=phase,
        score_stats=tuple(stats[0].tolist()),
        feature_stats=stats[1:],
        assigned=True,
    )


def embedding_layout(model: ActionModel, scores_only: bool = False) -> tuple[str, ...]:
    """Dimension names, a pure function of the action model."""
    names: list[str] = []
    for p in PHASES:
        for stat in STAT_NAMES:
            names.append(f"{p}:score:{stat}")
        if not scores_only:
            for key in model.feature_list:
                for stat in STAT_NAMES:
                    names.append(f"{p}:{key}:{stat}")
        names.append(f"{p}:assigned")
    return tuple(names)


def embed_video(
    track: VideoTrack,
    assignment: PhaseAssignment,
    matrix: PhaseScoreMatrix,
    model: ActionModel,
    relations: np.ndarray,
    scores_only: bool = False,
) -> VideoEmbedding:
    """Build the embedding from an existing assignment and score matrix.

    Raw (unsmoothed, unstandardised) score rows feed the statistics;
    ``relations`` is the track's relation table in the assignment's object
    order.
    """
    if assignment.action_id != model.action_id or matrix.action_id != model.action_id:
        raise ContractError(
            f"action mismatch: assignment {assignment.action_id!r}, "
            f"matrix {matrix.action_id!r}, model {model.action_id!r}"
        )
    if assignment.object_order != matrix.object_order:
        raise ContractError(
            f"object order mismatch: assignment {assignment.object_order!r} "
            f"vs matrix {matrix.object_order!r}"
        )
    if relations.shape[0] != matrix.num_frames:
        raise ContractError(
            f"{track.video_id!r}: {relations.shape[0]} relation frames vs "
            f"{matrix.num_frames} score frames"
        )
    columns = [COLUMN[key] for key in model.feature_list]
    values: list[float] = []
    for p in PHASES:
        window = assignment.windows[p]
        if window is None:
            block = phase_feature(p, np.empty(0), np.empty((0, len(columns))))
        else:
            lo, hi = window
            scores = matrix.row(p, kind="raw")[lo : hi + 1]
            block = phase_feature(p, scores, relations[lo : hi + 1, columns])
        values.extend(block.flat(scores_only))
    return VideoEmbedding(
        action_id=model.action_id,
        video_id=track.video_id,
        values=np.asarray(values),
        layout=embedding_layout(model, scores_only),
    )


def dump_embeddings(
    embeddings: Sequence[VideoEmbedding],
    path: str | Path,
    provenance: Mapping[str, object] | None = None,
) -> None:
    records = []
    for e in embeddings:
        records.append(
            {
                "video_id": e.video_id,
                "action_id": e.action_id,
                "values": [float(v) for v in e.values],
                "assigned_flags": [
                    1 if e.assigned_flags()[p] else 0 for p in PHASES
                ],
                "layout": list(e.layout),
            }
        )
    doc = {"format": "boxact-embeddings", "version": 1, "records": records}
    if provenance is not None:
        doc["provenance"] = dict(provenance)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_embeddings(path: str | Path) -> list[VideoEmbedding]:
    doc = read_json(path, AnnotationError)
    if not isinstance(doc, dict) or doc.get("format") != "boxact-embeddings":
        raise AnnotationError(f"{path}: not an embedding dump")
    try:
        return [_embedding_from_record(rec) for rec in doc.get("records", [])]
    except KeyError as exc:
        raise AnnotationError(f"{path}: record without field {exc}") from None
    except (TypeError, ValueError, ContractError) as exc:
        raise AnnotationError(f"{path}: malformed record: {exc}") from None


def _embedding_from_record(rec: Mapping) -> VideoEmbedding:
    values = np.asarray(rec["values"], dtype=float)
    ids = (rec["action_id"], rec["video_id"])
    layout = rec["layout"]
    if values.ndim != 1:
        raise ValueError("values must be a flat list of numbers")
    if not isinstance(layout, list) or not all(
        isinstance(name, str) for name in (*ids, *layout)
    ):
        raise ValueError("ids and layout must be strings")
    return VideoEmbedding(*ids, values, tuple(layout))
