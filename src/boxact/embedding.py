"""Fixed-length per-video embeddings built from phase-assigned windows.

Each of the five phases contributes four statistics (mean, median, max, min)
of its raw score over the assigned window, the same four statistics for every
relational feature the action model mentions, and a presence flag.  Phases
the assignment could not place contribute zeros with the flag down, so the
layout never changes shape for a given model.

A ``scores_only`` switch drops the per-feature blocks and keeps just the
score statistics and flags.

``embed_windows`` embeds a batch of tracks under many models in one pass:
it takes every (track, model) pair's windows as one (N, 5, 2) array, as
the assignment stage ranks them, reduces every window together, one block
per window length, and writes the statistics and flags straight into one
preallocated buffer.  ``embed_video`` is its one-track, one-model call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError, write_artifact
from .phases import PHASES, ActionModel, PhaseAssignment, PhaseScoreMatrix
from .tracks import VideoTrack

__all__ = [
    "STAT_NAMES",
    "VideoEmbedding",
    "embedding_layout",
    "embed_windows",
    "embed_video",
    "dump_embeddings",
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

    def assigned_flags(self) -> dict[str, bool]:
        return {p: bool(self.values[self.layout.index(f"{p}:assigned")]) for p in PHASES}


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
    windows: np.ndarray,
    source: np.ndarray,
    score_rows: np.ndarray,
    feature_rows: np.ndarray,
    scores_only: bool = False,
    columns: np.ndarray | None = None,
) -> list[VideoEmbedding]:
    """Embeddings of N (track, model) pairs in one pass, one per entry.

    ``source`` holds one row per frame series, shape (S, T); several tracks
    may lie end to end along its columns.  Entry ``i`` embeds track
    ``video_ids[i]``, whose frame 0 is column ``columns[i]`` (0 by default),
    under ``models[i]``.  ``windows[i]`` holds its five phase windows, shape
    (5, 2), ``(-1, -1)`` for an unplaced phase; ``score_rows[i]`` names the
    rows of its five raw phase scores and ``feature_rows[i]`` those of its
    ``feature_list``, padded with -1 to the longest list.
    """
    layouts = [embedding_layout(m, scores_only) for m in models]
    offsets = np.cumsum([0] + [len(layout) for layout in layouts])
    values = np.zeros(offsets[-1])
    if scores_only:
        feature_rows = feature_rows[:, :0]
    lo, hi = windows.transpose(2, 0, 1)
    placed = lo >= 0
    block = np.diff(offsets)[:, None] // len(PHASES)
    at = offsets[:-1, None] + block * np.arange(len(PHASES))  # each phase's block
    values[(at + block - 1)[placed]] = 1.0
    # statistics rows of one phase: its score, then its features
    rows = np.empty(placed.shape + (1 + feature_rows.shape[1],), dtype=np.intp)
    rows[:, :, 0] = score_rows
    rows[:, :, 1:] = feature_rows[:, None]
    used = placed[:, :, None] & (rows >= 0)
    entry, phase, _ = np.nonzero(used)
    start = lo[entry, phase] + (0 if columns is None else columns[entry])
    dest = at[:, :, None] + len(STAT_NAMES) * np.arange(rows.shape[2])
    _write_stats(values, source, rows[used], start, (hi - lo + 1)[entry, phase], dest[used])
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
    windows = [assignment.windows[p] or (-1, -1) for p in PHASES]
    phases = len(PHASES)
    return embed_windows(
        [track.video_id],
        [model],
        np.array([windows]),
        np.vstack([matrix.raw, relations.T]),
        np.arange(phases)[None],
        (phases + model.feature_columns)[None],
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
    write_artifact(path, "boxact-embeddings", provenance, records=records)
