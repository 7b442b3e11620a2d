"""Fixed-length per-video embeddings built from phase-assigned windows.

Each of the five phases contributes four statistics (mean, median, max, min)
of its raw score over the assigned window, the same four statistics for every
relational feature the action model mentions, and a presence flag.  Phases
the assignment could not place contribute zeros with the flag down, so the
layout never changes shape for a given model.

A ``scores_only`` switch drops the per-feature blocks and keeps just the
score statistics and flags.

``embed_windows`` embeds a batch of tracks under many models in one pass:
it reduces every chosen window of every (track, model) pair together, one
block per window length, and writes the statistics straight into one
preallocated buffer.  ``embed_video`` is its one-track, one-model call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import AnnotationError, ContractError, read_artifact, write_json
from .phases import PHASES, ActionModel, PhaseAssignment, PhaseScoreMatrix
from .tracks import VideoTrack

__all__ = [
    "STAT_NAMES",
    "VideoEmbedding",
    "embedding_layout",
    "embed_windows",
    "embed_video",
    "dump_embeddings",
    "load_embeddings",
]

STAT_NAMES = ("mean", "med", "max", "min")


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


@lru_cache(maxsize=64)
def _layout(feature_list: tuple[str, ...], scores_only: bool) -> tuple[str, ...]:
    names: list[str] = []
    for p in PHASES:
        for stat in STAT_NAMES:
            names.append(f"{p}:score:{stat}")
        if not scores_only:
            for key in feature_list:
                for stat in STAT_NAMES:
                    names.append(f"{p}:{key}:{stat}")
        names.append(f"{p}:assigned")
    return tuple(names)


def embedding_layout(model: ActionModel, scores_only: bool = False) -> tuple[str, ...]:
    """Dimension names, a pure function of the action model."""
    return _layout(model.feature_list, scores_only)


def _write_stats(
    out: np.ndarray,
    source: np.ndarray,
    row: np.ndarray,
    lo: np.ndarray,
    length: np.ndarray,
    dest: np.ndarray,
) -> None:
    """Write mean, median, max and min of ``source[row, lo:lo+length]`` at ``out[dest:dest+4]``.

    One entry of the index arrays per statistics row.  Rows of equal window
    length are reduced together, each along its own contiguous last axis,
    which gives the bits of reducing it alone.
    """
    for size in np.unique(length):
        pick = np.flatnonzero(length == size)
        block = source[row[pick, None], lo[pick, None] + np.arange(size)]
        high, low = block.max(axis=1), block.min(axis=1)
        # rounding can push the mean of equal values one ulp past them
        mean = np.clip(block.mean(axis=1), low, high)
        stats = np.stack([mean, np.median(block, axis=1), high, low], axis=1)
        out[dest[pick, None] + np.arange(len(STAT_NAMES))] = stats


def embed_windows(
    video_ids: Sequence[str],
    models: Sequence[ActionModel],
    assignments: Sequence[PhaseAssignment],
    source: np.ndarray,
    score_rows: Sequence[np.ndarray],
    feature_rows: Sequence[np.ndarray],
    scores_only: bool = False,
    columns: Sequence[int] | None = None,
) -> list[VideoEmbedding]:
    """Embeddings of (track, model) pairs in one pass, one per entry.

    ``source`` holds one row per frame series, shape (S, T); several tracks
    may lie end to end along its columns.  Entry ``i`` embeds track
    ``video_ids[i]``, whose frame 0 is column ``columns[i]`` (0 by default),
    under ``models[i]``: ``score_rows[i]`` names the rows of its five raw
    phase scores and ``feature_rows[i]`` those of its ``feature_list``, both
    in the object order of ``assignments[i]``.
    """
    layouts = [embedding_layout(m, scores_only) for m in models]
    offsets = np.cumsum([0] + [len(layout) for layout in layouts])
    values = np.zeros(offsets[-1])
    parts: list[tuple[np.ndarray, ...]] = []
    flags = []
    if columns is None:
        columns = [0] * len(models)
    for start, assignment, phase_rows, features, column in zip(
        offsets, assignments, score_rows, feature_rows, columns
    ):
        if scores_only:
            features = features[:0]
        block = len(STAT_NAMES) * (1 + features.size) + 1
        placed = [i for i, p in enumerate(PHASES) if assignment.windows[p] is not None]
        if not placed:
            continue
        lo, hi = np.array([assignment.windows[PHASES[i]] for i in placed]).T
        at = start + block * np.array(placed)
        flags.append(at + block - 1)
        # statistics rows of one phase: its score, then its features
        rows = np.empty((len(placed), 1 + features.size), dtype=np.intp)
        rows[:, 0] = np.asarray(phase_rows)[placed]
        rows[:, 1:] = features
        per_phase = rows.shape[1]
        parts.append((
            rows.ravel(),
            np.repeat(column + lo, per_phase),
            np.repeat(hi - lo + 1, per_phase),
            (at[:, None] + len(STAT_NAMES) * np.arange(per_phase)).ravel(),
        ))
    if parts:
        _write_stats(values, source, *(np.concatenate(column) for column in zip(*parts)))
        values[np.concatenate(flags)] = 1.0
    return [
        VideoEmbedding(
            action_id=model.action_id,
            video_id=video_id,
            values=values[start:end],
            layout=layout,
        )
        for video_id, model, layout, start, end in zip(
            video_ids, models, layouts, offsets, offsets[1:]
        )
    ]


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
    source = np.vstack([matrix.raw, relations.T])
    phases = len(PHASES)
    return embed_windows(
        [track.video_id],
        [model],
        [assignment],
        source,
        [np.arange(phases)],
        [phases + model.feature_columns],
        scores_only,
    )[0]


def dump_embeddings(
    embeddings: Sequence[VideoEmbedding],
    path: str | Path,
    provenance: Mapping[str, object] | None = None,
) -> None:
    records = []
    for e in embeddings:
        flags = e.assigned_flags()
        records.append(
            {
                "video_id": e.video_id,
                "action_id": e.action_id,
                "values": [float(v) for v in e.values],
                "assigned_flags": [1 if flags[p] else 0 for p in PHASES],
                "layout": list(e.layout),
            }
        )
    doc = {"format": "boxact-embeddings", "version": 1, "records": records}
    if provenance is not None:
        doc["provenance"] = dict(provenance)
    write_json(path, doc)


def load_embeddings(path: str | Path) -> list[VideoEmbedding]:
    doc = read_artifact(path, "boxact-embeddings", "an embedding dump", AnnotationError)
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
