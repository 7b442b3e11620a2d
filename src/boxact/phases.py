"""Declarative action models and five-phase temporal assignment.

An activity is modelled as five ordered phases:

    a  objects present, manipulation not yet started
    b  hand enters the scene, possibly carrying an object
    c  the critical manipulation happens
    d  hand leaves the scene
    e  the effect of the manipulation is apparent

Each phase is scored per frame as a weighted sum of relational features
(booleans cast to 0/1, real features optionally negated or thresholded),
the rows are Gaussian-smoothed, and centres are placed greedily in the order
b, a, d, c, e.  Two refinements from the scoring stage: a second-best phase-b
candidate (found after masking the best one and three frames on each side),
and re-evaluation with the two annotated objects swapped.  The best of the
four resulting alternatives wins by total score; because score scales differ
between phases, totals are compared on per-phase standardised (z-scored)
rows while raw rows are kept for the embedding stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError, read_json
from .relations import (
    COLUMN,
    DEFAULT_CONFIG,
    BOOLEAN_FEATURES,
    RelationConfig,
    feature_key,
    relation_table,
)
from .tracks import VideoTrack

__all__ = [
    "PHASES",
    "GREEDY_ORDER",
    "ARCHETYPES",
    "Term",
    "ActionModel",
    "PhaseScoreMatrix",
    "PhaseAssignment",
    "load_action_model",
    "save_action_model",
    "builtin_model",
    "builtin_models",
    "gaussian_kernel",
    "smooth",
    "relation_sequence",
    "score_frames",
    "standardized_rows",
    "second_best_b",
    "assign_phases",
    "assign_with_alternatives",
]

PHASES = ("a", "b", "c", "d", "e")
GREEDY_ORDER = ("b", "a", "d", "c", "e")
ARCHETYPES = (
    "put-into",
    "take-out-of",
    "put-next-to",
    "pretend-put-next-to",
    "put-behind",
)

DEFAULT_SIGMA = 2.0
DEFAULT_WINDOW_HALF_WIDTH = 3
SECOND_B_EXCLUSION = 3  # frames masked on each side of the best phase-b centre


@dataclass(frozen=True)
class Term:
    """One weighted feature reference inside a phase model.

    ``threshold`` turns a real feature into an indicator (value > threshold);
    ``negate`` complements booleans/indicators (1 - v) and flips the sign of
    raw real features.
    """

    feature: str
    args: tuple[str, ...]
    weight: float = 1.0
    negate: bool = False
    threshold: float | None = None

    @cached_property
    def key(self) -> str:
        return feature_key(self.feature, self.args)

    def series(self, values: np.ndarray) -> np.ndarray:
        """The term's weighted contribution at every frame of a feature column."""
        v = values
        boolean = self.feature in BOOLEAN_FEATURES
        if self.threshold is not None:
            v = (v > self.threshold).astype(float)
            boolean = True
        if self.negate:
            v = 1.0 - v if boolean else -v
        return self.weight * v


@dataclass(frozen=True)
class ActionModel:
    """Five phase score definitions plus the feature list they reference."""

    action_id: str
    phases: Mapping[str, tuple[Term, ...]]
    thresholds: RelationConfig = DEFAULT_CONFIG
    extra_features: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.action_id:
            raise ConfigError("action model needs a non-empty action_id")
        missing = [p for p in PHASES if p not in self.phases or not self.phases[p]]
        if missing:
            raise ConfigError(
                f"model {self.action_id!r}: phases {missing} have no terms"
            )
        unknown = set(self.phases) - set(PHASES)
        if unknown:
            raise ConfigError(
                f"model {self.action_id!r}: unknown phases {sorted(unknown)}"
            )

    @cached_property
    def feature_list(self) -> tuple[str, ...]:
        """Canonical keys of every feature this model references, sorted."""
        keys = {t.key for terms in self.phases.values() for t in terms}
        keys.update(self.extra_features)
        return tuple(sorted(keys))


def _term_from_dict(entry: Mapping, action_id: str) -> Term:
    unknown = set(entry) - {"feature", "args", "weight", "negate", "threshold"}
    if unknown:
        raise ConfigError(
            f"model {action_id!r}: unknown term fields {sorted(unknown)}"
        )
    try:
        term = Term(
            feature=entry["feature"],
            args=tuple(entry["args"]),
            weight=float(entry.get("weight", 1.0)),
            negate=bool(entry.get("negate", False)),
            threshold=(
                float(entry["threshold"]) if entry.get("threshold") is not None else None
            ),
        )
    except KeyError as exc:
        raise ConfigError(f"model {action_id!r}: term missing {exc}") from None
    term.key  # validates feature name, arity and entities
    return term


def model_from_dict(data: Mapping) -> ActionModel:
    action_id = data.get("action_id")
    if not isinstance(action_id, str) or not action_id:
        raise ConfigError("action model config needs a string 'action_id'")
    raw_phases = data.get("phases")
    if not isinstance(raw_phases, Mapping):
        raise ConfigError(f"model {action_id!r}: 'phases' must be a mapping")
    phases = {
        p: tuple(_term_from_dict(t, action_id) for t in terms)
        for p, terms in raw_phases.items()
    }
    thresholds = (
        RelationConfig.from_dict(data["thresholds"])
        if "thresholds" in data
        else DEFAULT_CONFIG
    )
    extra = tuple(data.get("features", ()))
    model = ActionModel(
        action_id=action_id,
        phases=phases,
        thresholds=thresholds,
        extra_features=extra,
    )
    for key in extra:
        name, _, rest = key.partition("(")
        feature_key(name, tuple(rest.rstrip(")").split(",")))
    return model


def model_to_dict(model: ActionModel) -> dict:
    phases = {}
    for p in PHASES:
        phases[p] = []
        for t in model.phases[p]:
            entry: dict = {"feature": t.feature, "args": list(t.args), "weight": t.weight}
            if t.negate:
                entry["negate"] = True
            if t.threshold is not None:
                entry["threshold"] = t.threshold
            phases[p].append(entry)
    data: dict = {"action_id": model.action_id, "phases": phases}
    if model.thresholds != DEFAULT_CONFIG:
        data["thresholds"] = {
            "touch_tol": model.thresholds.touch_tol,
            "containment_fraction": model.thresholds.containment_fraction,
            "move_threshold": model.thresholds.move_threshold,
            "move_with_hand_tol": model.thresholds.move_with_hand_tol,
        }
    if model.extra_features:
        data["features"] = list(model.extra_features)
    return data


def load_action_model(path: str | Path) -> ActionModel:
    return model_from_dict(read_json(path, ConfigError))


def save_action_model(model: ActionModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def builtin_model(archetype: str) -> ActionModel:
    """Load one of the reference models shipped with the package."""
    if archetype not in ARCHETYPES:
        raise ConfigError(
            f"unknown archetype {archetype!r}, expected one of {ARCHETYPES}"
        )
    name = archetype.replace("-", "_") + ".json"
    text = resources.files("boxact").joinpath("reference_models", name).read_text()
    return model_from_dict(json.loads(text))


def builtin_models() -> dict[str, ActionModel]:
    return {a: builtin_model(a) for a in ARCHETYPES}


# --- smoothing ---------------------------------------------------------------


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalised Gaussian taps truncated at +/- 3 sigma."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ContractError(f"sigma must be finite and positive, got {sigma}")
    radius = max(1, int(3.0 * sigma + 0.5))
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def smooth(series: Sequence[float] | np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth a series, renormalising the kernel at the boundaries.

    Renormalisation makes the output an average of in-range samples only, so
    a constant series comes back unchanged, boundaries included.
    """
    kernel = gaussian_kernel(sigma)
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ContractError("smooth expects a one-dimensional series")
    if x.size == 0:
        return x.copy()
    # mode="same" would return the kernel's length for series shorter than
    # the kernel; slicing the full convolution keeps the output aligned with
    # the input at every length
    radius = kernel.size // 2
    num = np.convolve(x, kernel, mode="full")[radius : radius + x.size]
    den = np.convolve(np.ones_like(x), kernel, mode="full")[radius : radius + x.size]
    return num / den


# --- scoring -----------------------------------------------------------------


@dataclass(frozen=True)
class PhaseScoreMatrix:
    """Per-phase per-frame scores for one track under one action model."""

    action_id: str
    object_order: str  # "as_annotated" | "swapped"
    raw: np.ndarray  # shape (5, T), row order PHASES
    smoothed: np.ndarray  # same shape
    sigma: float

    @property
    def num_frames(self) -> int:
        return self.raw.shape[1]

    def row(self, phase: str, kind: str = "smoothed") -> np.ndarray:
        data = self.smoothed if kind == "smoothed" else self.raw
        return data[PHASES.index(phase)]


OBJECT_ORDERS = ("as_annotated", "swapped")


def relation_sequence(
    track: VideoTrack, config: RelationConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """The track's relation table as annotated; ``[:, SWAP]`` gives the swapped order."""
    return relation_table(track, config)


def score_frames(
    track: VideoTrack,
    model: ActionModel,
    relations: np.ndarray,
    object_order: str = "as_annotated",
    sigma: float = DEFAULT_SIGMA,
) -> PhaseScoreMatrix:
    """Evaluate all five phase scores for every frame, then smooth each row.

    ``relations`` is the track's relation table in ``object_order``.
    """
    if relations.shape[0] != len(track):
        raise ContractError(
            f"{track.video_id!r}: {relations.shape[0]} relation frames for "
            f"{len(track)} track frames"
        )
    raw = np.zeros((len(PHASES), relations.shape[0]))
    for pi, phase in enumerate(PHASES):
        for t in model.phases[phase]:
            raw[pi] += t.series(relations[:, COLUMN[t.key]])
    smoothed = np.vstack([smooth(row, sigma) for row in raw])
    return PhaseScoreMatrix(
        action_id=model.action_id,
        object_order=object_order,
        raw=raw,
        smoothed=smoothed,
        sigma=sigma,
    )


def standardized_rows(matrix: PhaseScoreMatrix) -> np.ndarray:
    """Z-score each smoothed row over the video; constant rows become zeros.

    Phase scores live on different scales, so any comparison that crosses
    phases (the alternative-selection total) uses these rows instead of the
    raw ones.
    """
    rows = matrix.smoothed
    mean = rows.mean(axis=1, keepdims=True)
    std = rows.std(axis=1, keepdims=True)
    safe = np.where(std < 1e-12, 1.0, std)
    z = (rows - mean) / safe
    z[(std < 1e-12).ravel()] = 0.0
    return z


# --- assignment ---------------------------------------------------------------


@dataclass(frozen=True)
class PhaseAssignment:
    """Phase centres and windows chosen for one track under one model."""

    action_id: str
    object_order: str
    b_choice: str  # "best" | "second_best"
    centers: Mapping[str, int | None]
    windows: Mapping[str, tuple[int, int] | None]
    total_score: float
    n: int = DEFAULT_WINDOW_HALF_WIDTH

    @property
    def fully_assigned(self) -> bool:
        return all(self.centers[p] is not None for p in PHASES)

    @property
    def degenerate(self) -> bool:
        return not self.fully_assigned

    def assigned_phases(self) -> tuple[str, ...]:
        return tuple(p for p in PHASES if self.centers[p] is not None)


def _restricted_argmax(row: np.ndarray, lo: int, hi: int) -> int | None:
    """Index of the maximum of row[lo:hi]; ties go to the lowest index."""
    lo = max(lo, 0)
    hi = min(hi, row.size)
    if lo >= hi:
        return None
    return lo + int(np.argmax(row[lo:hi]))


def _greedy_centers(smoothed: np.ndarray, f_b: int) -> dict[str, int | None]:
    t = smoothed.shape[1]
    row = {p: smoothed[PHASES.index(p)] for p in PHASES}
    centers: dict[str, int | None] = {"b": f_b}
    centers["a"] = _restricted_argmax(row["a"], 0, f_b)
    centers["d"] = _restricted_argmax(row["d"], f_b + 1, t)
    c_hi = centers["d"] if centers["d"] is not None else t
    centers["c"] = _restricted_argmax(row["c"], f_b + 1, c_hi)
    # e follows its nearest already-placed predecessor when d is unassigned
    e_lo = next(
        (centers[p] for p in ("d", "c") if centers[p] is not None), f_b
    )
    centers["e"] = _restricted_argmax(row["e"], e_lo + 1, t)
    return centers


def _windows(
    centers: Mapping[str, int | None], t: int, n: int
) -> dict[str, tuple[int, int] | None]:
    """Centre +/- n windows, clipped at frame bounds and between neighbours.

    Overlapping adjacent windows stop at the midpoint of their centres: the
    earlier phase keeps the midpoint frame, the later one starts just after.
    """
    windows: dict[str, tuple[int, int] | None] = {p: None for p in PHASES}
    assigned = [p for p in PHASES if centers[p] is not None]
    spans = {
        p: [max(0, centers[p] - n), min(t - 1, centers[p] + n)] for p in assigned
    }
    for p1, p2 in zip(assigned, assigned[1:]):
        if spans[p1][1] >= spans[p2][0]:
            mid = (centers[p1] + centers[p2]) // 2
            spans[p1][1] = min(spans[p1][1], mid)
            spans[p2][0] = max(spans[p2][0], mid + 1)
    for p in assigned:
        windows[p] = (spans[p][0], spans[p][1])
    return windows


def second_best_b(matrix: PhaseScoreMatrix) -> int | None:
    """Runner-up phase-b centre after masking the best one +/- 3 frames.

    Returns None when the mask leaves nothing (tracks of up to 7 frames
    around a central best-b cannot produce a second candidate).
    """
    row = matrix.row("b")
    t = row.size
    if t <= 2 * SECOND_B_EXCLUSION + 1:
        return None
    f_b = int(np.argmax(row))
    masked = row.copy()
    masked[max(0, f_b - SECOND_B_EXCLUSION) : f_b + SECOND_B_EXCLUSION + 1] = -np.inf
    if not np.isfinite(masked).any():
        return None
    return int(np.argmax(masked))


def _assign_from_b(
    matrix: PhaseScoreMatrix, f_b: int, b_choice: str, n: int
) -> PhaseAssignment:
    centers = _greedy_centers(matrix.smoothed, f_b)
    z = standardized_rows(matrix)
    total = sum(
        z[PHASES.index(p), centers[p]] for p in PHASES if centers[p] is not None
    )
    return PhaseAssignment(
        action_id=matrix.action_id,
        object_order=matrix.object_order,
        b_choice=b_choice,
        centers=centers,
        windows=_windows(centers, matrix.num_frames, n),
        total_score=float(total),
        n=n,
    )


def assign_phases(
    matrix: PhaseScoreMatrix, n: int = DEFAULT_WINDOW_HALF_WIDTH
) -> PhaseAssignment:
    """Greedy centre placement (order b, a, d, c, e) from the best phase-b.

    Phases whose restricted range is empty stay unassigned; short tracks
    therefore come back flagged degenerate rather than failing.
    """
    if matrix.num_frames == 0:
        raise ContractError("cannot assign phases on an empty track")
    if n < 0:
        raise ContractError(f"window half-width must be non-negative, got {n}")
    f_b = int(np.argmax(matrix.row("b")))
    return _assign_from_b(matrix, f_b, "best", n)


def assign_with_alternatives(
    matrix_annotated: PhaseScoreMatrix,
    matrix_swapped: PhaseScoreMatrix,
    n: int = DEFAULT_WINDOW_HALF_WIDTH,
) -> PhaseAssignment:
    """Pick the best of four alternatives: {best-b, second-b} x object order.

    Ties resolve in the order best/as-annotated, best/swapped,
    second/as-annotated, second/swapped.
    """
    candidates: list[PhaseAssignment] = []
    for b_choice in ("best", "second_best"):
        for matrix in (matrix_annotated, matrix_swapped):
            if b_choice == "best":
                candidates.append(assign_phases(matrix, n))
            else:
                f_b = second_best_b(matrix)
                if f_b is not None:
                    candidates.append(_assign_from_b(matrix, f_b, "second_best", n))
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.total_score > best.total_score:
            best = cand
    return best
