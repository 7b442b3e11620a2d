"""End-to-end orchestration: embed, split, train, predict, evaluate.

Everything here is a deterministic function of (inputs, config, seed).
Output files carry a provenance block with the config fingerprint and seed
instead of timestamps, so re-running a stage with unchanged inputs yields
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .embedding import VideoEmbedding, embed_windows, embedding_layout
from .errors import ConfigError, ContractError, check_int, prefixed
from .evaluation import PredictionSet, VideoPrediction
from .forest import ForestModel, ForestParams, grow_forests, layout_fingerprint, predict_proba
from .phases import (
    DEFAULT_SIGMA,
    DEFAULT_WINDOW_HALF_WIDTH,
    MAX_SIGMA,
    OBJECT_ORDERS,
    PHASES,
    ActionModel,
    PhaseAssignment,
    TermArrays,
    assign_batch,
    builtin_models,
    load_action_model,
    phase_assignments,
    score_rows,
)
from .relations import SWAP, RelationConfig
from .tracks import VideoTrack

# Not called here, or called under this name only: the benchmark's trace
# probes patch these names in this module, and need them until the pipeline
# records its own spans.
from .embedding import embed_video  # noqa: F401
from .forest import train_forest  # noqa: F401
from .phases import assign_with_alternatives, score_frames  # noqa: F401
from .relations import relation_table as relation_sequence

__all__ = [
    "PipelineConfig",
    "EMBEDDING_MODES",
    "load_models",
    "make_provenance",
    "assign_track",
    "embed_all",
    "stratified_split",
    "train_forests",
    "predict_set",
]

EMBEDDING_MODES = ("full", "scores_only")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared by the pipeline stages."""

    n: int = DEFAULT_WINDOW_HALF_WIDTH
    sigma: float = DEFAULT_SIGMA
    embedding_mode: str = "full"
    forest: ForestParams = field(default_factory=ForestParams)
    val_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("window half-width n", self.n, 0))
        if not (np.isfinite(self.sigma) and 0 < self.sigma <= MAX_SIGMA):
            raise ConfigError(
                f"sigma must be finite and positive, at most {MAX_SIGMA:g}, got {self.sigma}"
            )
        if self.embedding_mode not in EMBEDDING_MODES:
            raise ConfigError(
                f"embedding_mode must be one of {EMBEDDING_MODES}, "
                f"got {self.embedding_mode!r}"
            )
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie strictly between 0 and 1")
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))

    @property
    def scores_only(self) -> bool:
        return self.embedding_mode == "scores_only"


def make_provenance(config: PipelineConfig, stage: str) -> dict:
    """Deterministic provenance block: fingerprint and seed, no timestamps."""
    canonical = json.dumps(asdict(config), sort_keys=True)
    fingerprint = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    return {
        "tool": "boxact",
        "version": _pkg_version,
        "stage": stage,
        "config_fingerprint": fingerprint,
        "seed": config.seed,
    }


def load_models(source: str) -> dict[str, ActionModel]:
    """Resolve a model source: 'builtin', a directory, or file paths."""
    if source == "builtin":
        return builtin_models()
    paths: list[Path] = []
    candidates = [Path(p) for p in source.split(",") if p]
    for p in candidates:
        if p.is_dir():
            found = sorted(p.glob("*.json"))
            if not found:
                raise ConfigError(f"model directory {p} contains no .json files")
            paths.extend(found)
        elif p.is_file():
            paths.append(p)
        else:
            raise ConfigError(f"action model path {p} does not exist")
    models: dict[str, ActionModel] = {}
    for path in paths:
        model = load_action_model(path)
        if model.action_id in models:
            raise ConfigError(
                f"duplicate action model {model.action_id!r} (from {path})"
            )
        models[model.action_id] = model
    if not models:
        raise ConfigError("no action models resolved")
    return models


# --- assignment and embedding ---------------------------------------------------


# Frames in one batch of embed_all's array pass.  A batch pays a fixed cost
# per call and per track, and its transient arrays grow by about 2.4 KiB per
# frame under the builtin models.  Past about 1,500 frames the cost per frame
# hardly falls further while the memory keeps growing, so batches stop there;
# a longer track forms a batch of its own.
_BATCH_FRAMES = 1500


def _batches(tracks: Sequence[VideoTrack]) -> Iterator[list[VideoTrack]]:
    """Runs of consecutive tracks of at most ``_BATCH_FRAMES`` frames in all."""
    batch: list[VideoTrack] = []
    frames = 0
    for track in tracks:
        if batch and frames + len(track) > _BATCH_FRAMES:
            yield batch
            batch, frames = [], 0
        batch.append(track)
        frames += len(track)
    if batch:
        yield batch


def _assign_tracks(
    tracks: Sequence[VideoTrack],
    models: Mapping[str, ActionModel],
    n: int,
    sigma: float,
    scores_only: bool,
) -> list[dict[str, tuple[VideoEmbedding, PhaseAssignment]]]:
    """Score, assign and embed a batch of tracks under every action model.

    Models that share a threshold set share one relation table over all the
    batch's frames, laid end to end, and one array pass over both object
    orders: score every phase row of every model, rank every (track, model)
    pair's four alternatives, then write every chosen window's statistics.
    All reference models use the same thresholds; models with custom
    thresholds get a pass of their own.  The swapped object order is a
    column permutation of the table.  A pass computes only the relation
    columns its models read, and each distinct term and score row once.
    """
    by_thresholds: dict[RelationConfig, list[str]] = {}
    for action in sorted(models):
        by_thresholds.setdefault(models[action].thresholds, []).append(action)
    bounds = np.cumsum([0] + [len(track) for track in tracks])
    out: list[dict[str, tuple[VideoEmbedding, PhaseAssignment]]] = [{} for _ in tracks]
    for thresholds, actions in by_thresholds.items():
        set_models = [models[action] for action in actions]
        m = len(set_models)
        # built before the table: after it, these small arrays raised the
        # classify benchmark's peak RSS by 0.6 MiB
        terms = TermArrays.of(
            [model.phases[p] for model in set_models for _ in OBJECT_ORDERS for p in PHASES],
            [order == "swapped" for _ in set_models for order in OBJECT_ORDERS for _ in PHASES],
        )
        # every feature a model reads, in both object orders; its terms' are among them
        read = np.concatenate([model.feature_columns for model in set_models])
        columns = np.unique(np.concatenate([read, SWAP[read]]))
        table = relation_sequence(tracks, thresholds, columns)
        raw, smoothed = score_rows(terms, table, sigma, bounds)
        choice, centres, windows, totals = assign_batch(smoothed, terms.rows, bounds, n)
        # every distinct score row, then the relations read, in column order
        source = np.vstack([raw, table.T[columns]])
        del raw, smoothed, table  # the batch's largest arrays; source holds what is left
        # score rows run over (model, object order, phase)
        score_index = terms.rows.reshape(m, len(OBJECT_ORDERS), -1)
        width = max(model.feature_columns.size for model in set_models)
        feature_index = np.full((m, len(OBJECT_ORDERS), width), -1)
        for i, own in enumerate(model.feature_columns for model in set_models):
            feature_index[i, :, : own.size] = np.searchsorted(columns, [own, SWAP[own]])
        feature_index[feature_index >= 0] += terms.slots.shape[0]
        # entry j is track j // m under model j % m
        model_of = np.tile(np.arange(m), len(tracks))
        order = choice % len(OBJECT_ORDERS)
        embeddings = embed_windows(
            [track.video_id for track in tracks for _ in set_models],
            set_models * len(tracks),
            windows,
            source,
            score_index[model_of, order],
            feature_index[model_of, order],
            scores_only,
            np.repeat(bounds[:-1], m),
        )
        assignments = phase_assignments(
            actions * len(tracks), OBJECT_ORDERS, choice, centres, windows, totals
        )
        for k, per_track in enumerate(out):
            pairs = zip(embeddings[k * m : (k + 1) * m], assignments[k * m : (k + 1) * m])
            per_track.update(zip(actions, pairs))
    return [{action: per_track[action] for action in sorted(models)} for per_track in out]


def assign_track(
    track: VideoTrack,
    models: Mapping[str, ActionModel],
    n: int = DEFAULT_WINDOW_HALF_WIDTH,
    sigma: float = DEFAULT_SIGMA,
    scores_only: bool = False,
) -> dict[str, tuple[VideoEmbedding, PhaseAssignment]]:
    """Score, assign and embed one track under every action model.

    The one-track call of the batch pass that :func:`embed_all` runs.
    """
    return _assign_tracks([track], models, n, sigma, scores_only)[0]


def embed_all(
    tracks: Sequence[VideoTrack],
    models: Mapping[str, ActionModel],
    config: PipelineConfig,
) -> dict[str, dict[str, tuple[VideoEmbedding, PhaseAssignment]]]:
    """Per-video, per-action embeddings and assignments.

    Tracks go through the array pass in batches of consecutive tracks; the
    results are those of :func:`assign_track` on each track alone.
    """
    ids = [t.video_id for t in tracks]
    if len(set(ids)) != len(ids):
        raise ContractError("duplicate video ids in track list")
    results: dict[str, dict[str, tuple[VideoEmbedding, PhaseAssignment]]] = {}
    for batch in _batches(tracks):
        with prefixed(f"video {batch[0].video_id!r}"):
            per_track = _assign_tracks(
                batch, models, config.n, config.sigma, config.scores_only
            )
        results.update(zip((t.video_id for t in batch), per_track))
    return results


# --- splitting and training -----------------------------------------------------


def stratified_split(
    labels: Mapping[str, str], val_fraction: float, seed: int
) -> tuple[list[str], list[str]]:
    """Per-class shuffle and split; every class keeps at least one train video.

    Classes with a single video go entirely to the train side.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError("val_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    by_label: dict[str, list[str]] = {}
    for video_id in sorted(labels):
        by_label.setdefault(labels[video_id], []).append(video_id)
    train: list[str] = []
    val: list[str] = []
    for label in sorted(by_label):
        ids = by_label[label]
        order = rng.permutation(len(ids))
        k = int(round(val_fraction * len(ids)))
        k = min(k, len(ids) - 1)  # never strip a class of training videos
        val.extend(ids[i] for i in order[:k])
        train.extend(ids[i] for i in order[k:])
    return sorted(train), sorted(val)


def _check_embedded(
    embeddings: Mapping[str, Mapping[str, tuple[VideoEmbedding, PhaseAssignment]]],
    ids: Sequence[str],
    actions: Sequence[str],
) -> None:
    """:class:`ContractError` unless every video of ``ids`` has every action's embedding."""
    missing = [v for v in ids if v not in embeddings]
    if missing:
        raise ContractError(f"no embeddings for videos {missing}")
    for v in ids:
        lacking = [a for a in actions if a not in embeddings[v]]
        if lacking:
            raise ContractError(f"video {v!r} has no embedding for actions {lacking}")


def train_forests(
    embeddings: Mapping[str, Mapping[str, tuple[VideoEmbedding, PhaseAssignment]]],
    labels: Mapping[str, str],
    models: Mapping[str, ActionModel],
    config: PipelineConfig,
    video_ids: Sequence[str] | None = None,
) -> tuple[dict[str, ForestModel], list[str], dict[str, dict[str, int]]]:
    """One-vs-rest forest per action, all grown together; single-class actions
    are skipped with a warning.

    Returns (forests, skipped actions, per-action sample counts).
    """
    ids = sorted(embeddings) if video_ids is None else list(video_ids)
    if not ids:
        raise ContractError("no videos to train on")
    _check_embedded(embeddings, ids, sorted(models))
    unlabelled = [v for v in ids if v not in labels]
    if unlabelled:
        raise ContractError(f"no labels for videos {unlabelled}")
    samples: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    fingerprints: dict[str, str] = {}
    skipped: list[str] = []
    counts: dict[str, dict[str, int]] = {}
    for action in sorted(models):
        values = np.array([embeddings[v][action][0].values for v in ids])
        binary = np.array([1 if labels[v] == action else 0 for v in ids])
        counts[action] = {
            "positive": int(binary.sum()),
            "negative": int((1 - binary).sum()),
        }
        if binary.min() == binary.max():
            warnings.warn(
                f"action {action!r}: training data is single-class "
                f"({counts[action]}), skipping its detector",
                stacklevel=2,
            )
            skipped.append(action)
            continue
        samples[action] = (values, binary)
        fingerprints[action] = layout_fingerprint(
            embedding_layout(models[action], config.scores_only)
        )
    forests = grow_forests(samples, config.forest, fingerprints)
    return forests, skipped, counts


def predict_set(
    embeddings: Mapping[str, Mapping[str, tuple[VideoEmbedding, PhaseAssignment]]],
    labels: Mapping[str, str],
    forests: Mapping[str, ForestModel],
    models: Mapping[str, ActionModel],
    config: PipelineConfig,
    video_ids: Sequence[str] | None = None,
) -> PredictionSet:
    """Score every video with every action's forest on its own embedding."""
    if not forests:
        raise ContractError("no forests supplied")
    for action, forest in forests.items():
        if action not in models:
            raise ContractError(f"forest {action!r} has no matching action model")
        expected = layout_fingerprint(embedding_layout(models[action], config.scores_only))
        if forest.fingerprint and forest.fingerprint != expected:
            raise ContractError(
                f"forest {action!r} was trained on embedding layout "
                f"{forest.fingerprint} but the current model/mode produces "
                f"{expected}; retrain or fix --models/--mode"
            )
    ids = sorted(embeddings) if video_ids is None else list(video_ids)
    if not ids:
        return PredictionSet(videos=())  # which raises its own "empty" error
    _check_embedded(embeddings, ids, list(forests))
    # one call per forest, on the embeddings of all videos stacked as rows
    columns = {
        action: predict_proba(
            forest, np.array([embeddings[v][action][0].values for v in ids])
        ).tolist()
        for action, forest in forests.items()
    }
    return PredictionSet(
        videos=tuple(
            VideoPrediction(
                video_id=video_id,
                true_label=labels.get(video_id, ""),
                probabilities={action: column[i] for action, column in columns.items()},
            )
            for i, video_id in enumerate(ids)
        )
    )
