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

The work is done by array kernels over many score rows at once:
``score_rows`` scores the rows of any set of compiled ``TermArrays`` over
the relation table of one track or of a batch of tracks laid end to end
(the pipeline passes every model of a threshold set in both object orders).
``TermArrays`` merges equal terms and equal rows, so ``score_rows`` builds
each distinct term's series once and scores and smooths each distinct row
once; its ``rows`` map picks the distinct row of each row asked for.
``assign_batch`` takes the distinct rows and that map and ranks the four
alternatives of every (track, model) pair, tracks of one length together.
It returns each winner as arrays: its choice, centres (N, 5), windows
(N, 5, 2), with (-1, -1) for an unplaced phase, and total (N,), which the
embedding stage reads as they are; ``phase_assignments`` turns them into
:class:`PhaseAssignment` objects.  Each row keeps the bits of a row computed
alone: terms are added in term order, every track is smoothed tap by tap
over its own zero padding, and reductions run along the contiguous last axis.
``score_frames``, ``assign_phases``, ``second_best_b`` and
``assign_with_alternatives`` are one-model calls of the same kernels.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, replace
from functools import cache, cached_property
from importlib import resources
from numbers import Real
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError, check_finite, prefixed, read_json, write_json
from .relations import (
    COLUMN,
    DEFAULT_CONFIG,
    BOOLEAN_FEATURES,
    SWAP,
    RelationConfig,
    feature_key,
    relation_keys,
)
from .tracks import VideoTrack

__all__ = [
    "PHASES",
    "ARCHETYPES",
    "Term",
    "TermArrays",
    "ActionModel",
    "PhaseScoreMatrix",
    "PhaseAssignment",
    "load_action_model",
    "save_action_model",
    "builtin_model",
    "builtin_models",
    "gaussian_kernel",
    "smooth",
    "score_rows",
    "score_frames",
    "standardized_rows",
    "second_best_b",
    "assign_batch",
    "phase_assignments",
    "assign_phases",
    "assign_with_alternatives",
]

PHASES = ("a", "b", "c", "d", "e")
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

# Largest accepted |weight| of a term.  No relation value
# exceeds COORDINATE_LIMIT ** 2 = 1e18 in magnitude (a box area; distances
# and speeds stay under 1e10, the rest are flags, angles and overlap ratios),
# so a term adds at most 1e118 per frame and a phase row of fewer than 1e20
# terms stays under 1e138.  Smoothing averages a row, and z-scoring sums its
# squared deviations, each under 4e276, over the frames: every raw, smoothed
# and z-scored row stays finite on any track shorter than 1e31 frames.
MAX_TERM_WEIGHT = 1e100


@dataclass(frozen=True)
class Term:
    """One weighted feature reference inside a phase model.

    ``threshold`` turns a real feature into an indicator (value > threshold);
    ``negate`` complements booleans/indicators (1 - v) and flips the sign of
    raw real features.  A term built in code obeys the rules of a model
    file: the catalogue lists the feature with its arguments, ``|weight|`` is
    at most ``MAX_TERM_WEIGHT``, and the threshold is finite or None.
    """

    feature: str
    args: tuple[str, ...]
    weight: float = 1.0
    negate: bool = False
    threshold: float | None = None
    key: str = field(init=False, repr=False, compare=False)  # canonical feature key

    def __post_init__(self) -> None:
        where = f"term {self.feature!r}"
        if not isinstance(self.args, (list, tuple)):
            raise ConfigError(f"{where}: args must be a list, got {self.args!r}")
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "key", feature_key(self.feature, self.args))
        if isinstance(self.weight, bool) or not isinstance(self.weight, Real):
            raise ConfigError(f"{where}: weight must be a number, got {self.weight!r}")
        if not abs(self.weight) <= MAX_TERM_WEIGHT:
            raise ConfigError(
                f"{where}: weight must be at most {MAX_TERM_WEIGHT:g} "
                f"in magnitude, got {self.weight!r}"
            )
        object.__setattr__(self, "weight", float(self.weight))
        if not isinstance(self.negate, bool):
            raise ConfigError(f"{where}: negate must be true or false, got {self.negate!r}")
        if self.threshold is not None:
            object.__setattr__(self, "threshold", check_finite(f"{where}: threshold", self.threshold))


@dataclass(frozen=True)
class ActionModel:
    """Five phase score definitions plus the feature list they reference."""

    action_id: str
    phases: Mapping[str, tuple[Term, ...]]
    thresholds: RelationConfig = DEFAULT_CONFIG
    extra_features: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.action_id, str) or not self.action_id:
            raise ConfigError("action model needs a non-empty action_id")
        where = f"model {self.action_id!r}"
        if not isinstance(self.phases, Mapping):
            raise ConfigError(f"{where}: 'phases' must be a mapping")
        for p, terms in self.phases.items():
            if not isinstance(terms, (list, tuple)) or not all(isinstance(t, Term) for t in terms):
                raise ConfigError(f"{where}: phase {p!r} must be a list of terms, got {terms!r}")
        # read-only, so that one model can be shared, as builtin_model's are
        phases = MappingProxyType({p: tuple(terms) for p, terms in self.phases.items()})
        object.__setattr__(self, "phases", phases)
        missing = [p for p in PHASES if not phases.get(p)]
        if missing:
            raise ConfigError(f"{where}: phases {missing} have no terms")
        unknown = set(phases) - set(PHASES)
        if unknown:
            raise ConfigError(f"{where}: unknown phases {sorted(unknown)}")
        if not isinstance(self.thresholds, RelationConfig):
            raise ConfigError(f"{where}: thresholds must be a RelationConfig")
        extra = self.extra_features
        if not (isinstance(extra, (list, tuple)) and all(k in relation_keys() for k in extra)):
            raise ConfigError(
                f"{where}: 'features' must be a list of canonical feature keys "
                f"such as 'touching(object1,hand)', got {extra!r}"
            )
        object.__setattr__(self, "extra_features", tuple(extra))

    @cached_property
    def feature_list(self) -> tuple[str, ...]:
        """Canonical keys of every feature this model references, sorted."""
        keys = {t.key for terms in self.phases.values() for t in terms}
        keys.update(self.extra_features)
        return tuple(sorted(keys))

    @cached_property
    def feature_columns(self) -> np.ndarray:
        """Relation-table column of each entry of ``feature_list``."""
        return np.array([COLUMN[key] for key in self.feature_list], dtype=np.intp)

    @cached_property
    def term_arrays(self) -> TermArrays:
        """The phases' terms compiled once, one score row per phase."""
        return TermArrays.of([self.phases[p] for p in PHASES])


def _term_from_dict(entry) -> Term:
    if not isinstance(entry, Mapping):
        raise ConfigError(f"a term must be an object, got {entry!r}")
    unknown = set(entry) - {"feature", "args", "weight", "negate", "threshold"}
    if unknown:
        raise ConfigError(f"unknown term fields {sorted(unknown)}")
    try:
        feature, args = entry["feature"], entry["args"]
    except KeyError as exc:
        raise ConfigError(f"term missing {exc}") from None
    # a weight read from a file is a finite JSON number before Term bounds it
    weight = check_finite(f"term {feature!r}: weight", entry.get("weight", 1.0))
    return Term(feature, args, weight, entry.get("negate", False), entry.get("threshold"))


def model_from_dict(data) -> ActionModel:
    if not isinstance(data, Mapping):
        raise ConfigError("action model config must be an object")
    action_id = data.get("action_id")
    if not isinstance(action_id, str) or not action_id:
        raise ConfigError("action model config needs a string 'action_id'")
    with prefixed(f"model {action_id!r}"):
        unknown = set(data) - {"action_id", "phases", "thresholds", "features"}
        if unknown:
            raise ConfigError(f"unknown fields {sorted(unknown)}")
        phases = data.get("phases")
        if isinstance(phases, Mapping):  # ActionModel rejects any other shape
            phases = {
                p: [_term_from_dict(t) for t in terms] if isinstance(terms, list) else terms
                for p, terms in phases.items()
            }
        thresholds = RelationConfig.from_dict(data.get("thresholds", {}))
    return ActionModel(action_id, phases, thresholds, data.get("features", []))


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
        data["thresholds"] = asdict(model.thresholds)
    if model.extra_features:
        data["features"] = list(model.extra_features)
    return data


def load_action_model(path: str | Path) -> ActionModel:
    data = read_json(path, ConfigError)
    with prefixed(path):
        return model_from_dict(data)


def save_action_model(model: ActionModel, path: str | Path) -> None:
    write_json(path, model_to_dict(model))


@cache
def builtin_model(archetype: str) -> ActionModel:
    """One of the reference models shipped with the package, read once per process.

    Every call returns the same model, so its terms are compiled once too.
    """
    if archetype not in ARCHETYPES:
        raise ConfigError(
            f"unknown archetype {archetype!r}, expected one of {ARCHETYPES}"
        )
    name = archetype.replace("-", "_") + ".json"
    text = resources.files("boxact").joinpath("reference_models", name).read_text(encoding="utf-8")
    return model_from_dict(json.loads(text))


def builtin_models() -> dict[str, ActionModel]:
    return {a: builtin_model(a) for a in ARCHETYPES}


# --- compiled terms -------------------------------------------------------------


_TERM_FIELDS = ("column", "weight", "thresholded", "threshold", "complement", "flip")


def _distinct(keys: list) -> tuple[list[int], np.ndarray]:
    """Where each distinct key first occurs, in order, and which of them each key is."""
    number: dict = {}
    first: list[int] = []
    for i, key in enumerate(keys):
        if key not in number:
            number[key] = len(first)
            first.append(i)
    return first, np.array([number[key] for key in keys], dtype=np.intp)


@dataclass(frozen=True, eq=False)
class TermArrays:
    """Distinct terms of one or more models as parallel arrays, plus the rows they score.

    ``slots[d]`` lists the terms added into distinct row ``d``, in the
    phase's term order; ``-1`` pads a shorter row and adds zeros.  Row ``r``
    of the rows asked for is distinct row ``rows[r]``.  Two terms are one
    when all six term arrays agree, floats bit for bit, and two rows are one
    when they add the same terms in the same order, so a row has the bits
    it has when it is scored alone.
    """

    column: np.ndarray  # relation-table column of each term
    weight: np.ndarray
    thresholded: np.ndarray
    threshold: np.ndarray  # 0.0 where a term has none
    complement: np.ndarray  # negated boolean or indicator: 1 - v
    flip: np.ndarray  # negated real feature: -v
    slots: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, rows: Sequence[Sequence[Term]]) -> TermArrays:
        terms = [t for row in rows for t in row]
        slots = np.full((len(rows), max(map(len, rows), default=0)), -1, dtype=np.intp)
        start = 0
        for r, row in enumerate(rows):
            slots[r, : len(row)] = np.arange(start, start + len(row))
            start += len(row)
        thresholded = np.array([t.threshold is not None for t in terms], dtype=bool)
        boolean = thresholded | np.array(
            [t.feature in BOOLEAN_FEATURES for t in terms], dtype=bool
        )
        negate = np.array([t.negate for t in terms], dtype=bool)
        threshold = [0.0 if t.threshold is None else t.threshold for t in terms]
        return cls._merged(
            {
                "column": np.array([COLUMN[t.key] for t in terms], dtype=np.intp),
                "weight": np.array([t.weight for t in terms], dtype=float),
                "thresholded": thresholded,
                "threshold": np.array(threshold, dtype=float),
                "complement": negate & boolean,
                "flip": negate & ~boolean,
            },
            slots,
        )

    @classmethod
    def _merged(cls, arrays: Mapping[str, np.ndarray], slots: np.ndarray) -> TermArrays:
        """Terms ``arrays`` added into rows ``slots``, equal terms and equal rows merged."""
        bits = [
            arrays[name].view(np.int64) if arrays[name].dtype == float else arrays[name]
            for name in _TERM_FIELDS
        ]
        kept, term = _distinct(list(zip(*(b.tolist() for b in bits))))
        slots = np.where(slots >= 0, term[slots], -1)
        kept_rows, rows = _distinct([tuple(row) for row in slots.tolist()])
        return cls(
            **{name: arrays[name][kept] for name in _TERM_FIELDS},
            slots=slots[kept_rows],
            rows=rows,
        )

    @cached_property
    def swapped(self) -> TermArrays:
        """The same terms read from the table with the two objects swapped."""
        return replace(self, column=SWAP[self.column])

    @classmethod
    def concat(cls, parts: Sequence[TermArrays]) -> TermArrays:
        """All parts' terms; the rows asked for are the parts' rows, stacked in order."""
        depth = max(p.slots.shape[1] for p in parts)
        slots = np.full((sum(p.rows.size for p in parts), depth), -1, dtype=np.intp)
        row = term = 0
        for p in parts:
            asked = np.where(p.slots >= 0, p.slots + term, -1)[p.rows]
            slots[row : row + asked.shape[0], : asked.shape[1]] = asked
            row += asked.shape[0]
            term += p.column.size
        arrays = {name: np.concatenate([getattr(p, name) for p in parts]) for name in _TERM_FIELDS}
        return cls._merged(arrays, slots)


def _term_series(terms: TermArrays, values: np.ndarray) -> None:
    """Turn feature columns into weighted term contributions, in place.

    Row ``i`` of ``values`` holds the feature column of term ``i`` and
    becomes that term's contribution per frame.  Every step is element-wise,
    so each entry has the bits of a one-term computation.
    """
    np.greater(values, terms.threshold[:, None], out=values, where=terms.thresholded[:, None])
    np.subtract(1.0, values, out=values, where=terms.complement[:, None])
    np.negative(values, out=values, where=terms.flip[:, None])
    np.multiply(terms.weight[:, None], values, out=values)


# --- smoothing ---------------------------------------------------------------

MAX_SIGMA = 1000.0  # 6,001 taps, longer than any clip


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalised Gaussian taps truncated at +/- 3 sigma."""
    if not (np.isfinite(sigma) and 0 < sigma <= MAX_SIGMA):
        raise ContractError(
            f"sigma must be finite and positive, at most {MAX_SIGMA:g}, got {sigma}"
        )
    radius = max(1, int(3.0 * sigma + 0.5))
    x = np.arange(-radius, radius + 1, dtype=float)
    # below sigma ~1e-154 the outer taps' exponent overflows to -inf, and
    # exp(-inf) is the exact 0.0 they round to anyway
    with np.errstate(over="ignore"):
        k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


# Most samples smoothed per pass over the taps: every array of one pass
# stays in a core's cache, which beats whole-array passes by 15-20%.
_SMOOTH_CHUNK = 1 << 14


def _smooth_rows(
    rows: np.ndarray, sigma: float, bounds: Sequence[int] | None = None
) -> np.ndarray:
    """Smooth each row of a 2-D array, renormalising at the boundaries.

    ``bounds`` splits the columns into series, ``rows[:, bounds[k]:bounds[k+1]]``
    (one series by default), and each is smoothed on its own.  A smoothed
    value is a sum of tap x sample products, added in tap order to +0.0 over
    its series zero-padded at both ends, divided by the same sum over ones.
    The order is fixed here, not by a BLAS kernel chosen for the CPU, so the
    sums do not depend on the BLAS kernel.  The taps do depend on the
    machine: numpy's AVX-512 ``np.exp`` rounds some of them differently from
    its other SIMD targets, and so the smoothed bits differ there.

    Every series of every row, and a row of ones, is laid out on one line
    with gaps of zeros between them, and the line is summed one tap at a
    time.  A tap that reaches past the longest series only adds zeros, which
    leave such a sum unchanged, so those taps are skipped.
    """
    kernel = gaussian_kernel(sigma)
    count, width = rows.shape
    if width == 0:
        return rows.copy()
    series = list(itertools.pairwise((0, width) if bounds is None else bounds))
    radius = kernel.size // 2
    reach = min(radius, max(end - start for start, end in series) - 1)
    taps = kernel[radius - reach : radius + reach + 1].tolist()
    # row by row: reach zeros, then each series followed by reach zeros
    line = np.zeros((count + 1, width + (len(series) + 1) * reach))
    places = [start + (k + 1) * reach for k, (start, _) in enumerate(series)]
    for at, (start, end) in zip(places, series):
        line[:count, at : at + end - start] = rows[:, start:end]
        line[count, at : at + end - start] = 1.0
    flat = line.ravel()
    span = flat.size - 2 * reach
    sums = np.zeros(flat.size)  # centred on each sample of the line
    product = np.empty(min(span, _SMOOTH_CHUNK))
    for lo in range(0, span, _SMOOTH_CHUNK):
        hi = min(lo + _SMOOTH_CHUNK, span)
        total, term = sums[reach + lo : reach + hi], product[: hi - lo]
        for offset, tap in enumerate(taps):
            np.multiply(flat[lo + offset : hi + offset], tap, out=term)
            total += term
    sums = sums.reshape(line.shape)
    out = np.empty_like(rows)
    for at, (start, end) in zip(places, series):
        t = end - start
        np.divide(sums[:count, at : at + t], sums[count, at : at + t], out=out[:, start:end])
    return out


def smooth(series: Sequence[float] | np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth a series, renormalising the kernel at the boundaries.

    Renormalisation makes the output an average of in-range samples only, so
    a constant series comes back constant to rounding, boundaries included:
    not bit for bit, as a sample of 3.0 may read back as 3.0000000000000004
    or 2.9999999999999996.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ContractError("smooth expects a one-dimensional series")
    return _smooth_rows(x[None], sigma)[0]


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


def score_rows(
    terms: TermArrays,
    table: np.ndarray,
    sigma: float = DEFAULT_SIGMA,
    bounds: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw and smoothed score rows, one per distinct row of ``terms``, shape (D, T).

    Row ``r`` of the rows asked for is row ``terms.rows[r]`` of each.
    ``table`` may hold several tracks' rows, ``table[bounds[k]:bounds[k+1]]``
    for track ``k``; each track's rows are smoothed on their own.  Each
    distinct term's contribution is built once.  A row adds its terms slot
    by slot in term order, starting from +0.0, so it has the bits of adding
    them one at a time; a padding slot adds +0.0, which leaves a sum that
    started at +0.0 unchanged.
    """
    count = terms.column.size
    series = np.zeros((count + 1, table.shape[0]))  # the last row, read by slot -1, stays zero
    series[:count] = table[:, terms.column].T
    _term_series(terms, series[:count])
    raw = np.zeros((terms.slots.shape[0], table.shape[0]))
    for slot in terms.slots.T:
        raw += series[slot]
    return raw, _smooth_rows(raw, sigma, bounds)


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
    terms = model.term_arrays
    raw, smoothed = score_rows(terms, relations, sigma)
    return PhaseScoreMatrix(
        action_id=model.action_id,
        object_order=object_order,
        raw=raw[terms.rows],
        smoothed=smoothed[terms.rows],
        sigma=sigma,
    )


def _standardize(rows: np.ndarray) -> np.ndarray:
    """Z-score along the last axis; rows with no spread become zeros."""
    # a row's mean and deviation have its own bits only when it is contiguous
    rows = np.ascontiguousarray(rows)
    mean = rows.mean(axis=-1, keepdims=True)
    std = rows.std(axis=-1, keepdims=True)
    flat = std < 1e-12
    return np.where(flat, 0.0, (rows - mean) / np.where(flat, 1.0, std))


def standardized_rows(matrix: PhaseScoreMatrix) -> np.ndarray:
    """Z-score each smoothed row over the video; constant rows become zeros.

    Phase scores live on different scales, so any comparison that crosses
    phases (the alternative-selection total) uses these rows instead of the
    raw ones.
    """
    return _standardize(matrix.smoothed)


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

    @property
    def degenerate(self) -> bool:
        """True when some phase is unplaced."""
        return any(self.centers[p] is None for p in PHASES)


B_CHOICES = ("best", "second_best")


def _restricted_argmax(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the index of the maximum of ``row[lo:hi]``; -1 for an empty range.

    An argmax over the row with -inf outside the range: ties go to the
    lowest index, and a range of nothing but -inf gives its first frame.
    """
    t = rows.shape[1]
    lo, hi = np.maximum(lo, 0), np.minimum(hi, t)
    frames = np.arange(t)
    inside = (frames >= lo[:, None]) & (frames < hi[:, None])
    masked = np.where(inside, rows, -np.inf)
    best = masked.argmax(axis=1)
    best = np.where(masked[np.arange(best.size), best] == -np.inf, lo, best)
    return np.where(lo < hi, best, -1)


def _greedy_centers(smoothed: np.ndarray, f_b: np.ndarray) -> np.ndarray:
    """Centres placed in the order b, a, d, c, e; shape (N, 5), -1 if unplaced."""
    t = smoothed.shape[2]
    a_row, _, c_row, d_row, e_row = smoothed.transpose(1, 0, 2)
    start, end = np.zeros_like(f_b), np.full_like(f_b, t)
    a = _restricted_argmax(a_row, start, f_b)
    d = _restricted_argmax(d_row, f_b + 1, end)
    c = _restricted_argmax(c_row, f_b + 1, np.where(d >= 0, d, t))
    # e follows its nearest already-placed predecessor when d is unassigned
    e_lo = np.where(d >= 0, d, np.where(c >= 0, c, f_b))
    e = _restricted_argmax(e_row, e_lo + 1, end)
    return np.stack([a, f_b, c, d, e], axis=1)


def _b_candidates(b_rows: np.ndarray) -> np.ndarray:
    """Best and runner-up phase-b centre per row, shape (N, 2).

    The runner-up is the best after masking the best +/- 3 frames.  It is
    -1 on every track of at most 7 frames, wherever its best lies, and -1
    where no finite score is left outside the mask.
    """
    best = b_rows.argmax(axis=1)
    second = np.full_like(best, -1)
    if b_rows.shape[1] > 2 * SECOND_B_EXCLUSION + 1:
        near = np.abs(np.arange(b_rows.shape[1]) - best[:, None]) <= SECOND_B_EXCLUSION
        masked = np.where(near, -np.inf, b_rows)
        second = np.where(np.isfinite(masked).any(axis=1), masked.argmax(axis=1), -1)
    return np.stack([best, second], axis=1)


def _alternatives(smoothed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centres (N, 2, 5) and totals (N, 2) from the best and second-best b.

    ``smoothed`` holds N score matrices, shape (N, 5, T).  A total adds the
    z-scored rows at the centres, phases a..e in order, 0.0 for an unplaced
    phase; it is -inf where there is no second-best b.
    """
    n = smoothed.shape[0]
    b = _b_candidates(smoothed[:, PHASES.index("b")])
    # the first n rows start from the best b, the next n from the second best
    matrix = np.tile(np.arange(n), 2)
    centres = _greedy_centers(smoothed[matrix], np.concatenate([b[:, 0], np.maximum(b[:, 1], 0)]))
    z = _standardize(smoothed)
    at = z[matrix[:, None], np.arange(len(PHASES)), np.maximum(centres, 0)]
    totals = np.zeros(2 * n)
    for p in range(len(PHASES)):
        totals += np.where(centres[:, p] >= 0, at[:, p], 0.0)
    totals[n:][b[:, 1] < 0] = -np.inf
    return centres.reshape(2, n, len(PHASES)).swapaxes(0, 1), totals.reshape(2, n).T


def _windows(centres: np.ndarray, t: int, n: int) -> np.ndarray:
    """Centre +/- n windows, shape (N, 5, 2); (-1, -1) for an unplaced phase.

    Windows are clipped at the frame bounds and between neighbours: where
    the windows of two consecutive placed phases overlap, they stop at the
    midpoint of their centres, the earlier phase keeping the midpoint frame
    and the later one starting just after.
    """
    placed = centres >= 0
    n = min(n, t)  # a wider window is clipped to the same frames
    lo = np.maximum(centres - n, 0)
    hi = np.minimum(centres + n, t - 1)
    # pair each placed phase after the first with the last placed phase before it
    earlier = np.maximum.accumulate(np.where(placed, np.arange(len(PHASES)), -1), axis=1)[:, :-1]
    before = np.maximum(earlier, 0)
    overlap = placed[:, 1:] & (earlier >= 0) & (np.take_along_axis(hi, before, 1) >= lo[:, 1:])
    mid = (np.take_along_axis(centres, before, 1) + centres[:, 1:]) // 2
    windows = np.stack([lo, hi], axis=2)
    windows[:, 1:, 0] = np.where(overlap, np.maximum(lo[:, 1:], mid + 1), lo[:, 1:])
    entry, later = np.nonzero(overlap)  # a placed phase is the earlier one of one pair at most
    first = before[entry, later]
    windows[entry, first, 1] = np.minimum(hi[entry, first], mid[entry, later])
    windows[~placed] = -1
    return windows


def _check_assignable(num_frames: int, n: int) -> None:
    if num_frames == 0:
        raise ContractError("cannot assign phases on an empty track")
    if n < 0:
        raise ContractError(f"window half-width must be non-negative, got {n}")


def phase_assignments(
    action_ids: Sequence[str],
    object_orders: Sequence[str],
    choice: np.ndarray,
    centres: np.ndarray,
    windows: np.ndarray,
    totals: np.ndarray,
) -> list[PhaseAssignment]:
    """One :class:`PhaseAssignment` per row of :func:`assign_batch`'s arrays."""
    o = len(object_orders)
    return [
        PhaseAssignment(
            action_id=action_id,
            object_order=object_orders[k % o],
            b_choice=B_CHOICES[k // o],
            centers={p: c if c >= 0 else None for p, c in zip(PHASES, placed)},
            windows={p: (lo, hi) if lo >= 0 else None for p, (lo, hi) in zip(PHASES, spans)},
            total_score=total,
        )
        for action_id, k, placed, spans, total in zip(
            action_ids, choice.tolist(), centres.tolist(), windows.tolist(), totals.tolist()
        )
    ]


def assign_batch(
    smoothed: np.ndarray,
    rows: np.ndarray,
    bounds: Sequence[int],
    n: int = DEFAULT_WINDOW_HALF_WIDTH,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The winning alternative of every (track, model) pair of a batch.

    ``smoothed`` holds the rows as :func:`score_rows` returns them, with
    track ``k`` in columns ``bounds[k]:bounds[k+1]``, and ``rows`` (its
    ``terms.rows``) picks the row of each (model, object order, phase).
    Tracks of one length rank together.  A pair's candidates are ranked
    best-b before second-best-b, and by object order within each; the first
    strictly highest total wins, so ties keep the earlier candidate.  Entry
    ``k * M + i`` is track ``k`` under model ``i``: the winner's choice
    (object order + O x b choice, ``B_CHOICES`` order), centres (N, 5),
    windows (N, 5, 2) and total (N,).
    """
    bounds = np.asarray(bounds)
    lengths = np.diff(bounds)
    o, phases = len(OBJECT_ORDERS), len(PHASES)
    m = rows.size // (o * phases)
    entries = lengths.size * m
    won = (
        np.empty(entries, dtype=np.intp),
        np.empty((entries, phases), dtype=np.intp),
        np.empty((entries, phases, 2), dtype=np.intp),
        np.empty(entries),
    )
    for t in np.unique(lengths).tolist():
        _check_assignable(t, n)
        group = np.flatnonzero(lengths == t)
        count = group.size * m
        frames = bounds[group, None, None] + np.arange(t)
        block = smoothed[rows[:, None], frames]  # (track, row, frame)
        centres, totals = _alternatives(block.reshape(count * o, phases, t))
        # (pair, order, b choice) -> (pair, b choice, order)
        centres = centres.reshape(count, o, 2, phases).swapaxes(1, 2).reshape(count, 2 * o, -1)
        totals = totals.reshape(count, o, 2).swapaxes(1, 2).reshape(count, 2 * o)
        # argmax keeps the first of equal totals; no total is greater than a NaN,
        # so a NaN never wins, unless it comes first and nothing can replace it
        choice = np.where(np.isnan(totals), -np.inf, totals).argmax(axis=1)
        choice[np.isnan(totals[:, 0])] = 0
        pair = np.arange(count)
        centres = centres[pair, choice]
        ranked = (choice, centres, _windows(centres, t, n), totals[pair, choice])
        entry = (group[:, None] * m + np.arange(m)).ravel()
        for column, part in zip(won, ranked):
            column[entry] = part
    return won


def second_best_b(matrix: PhaseScoreMatrix) -> int | None:
    """Runner-up phase-b centre after masking the best one +/- 3 frames.

    Returns None on every track of at most 7 frames, wherever its best
    b lies, and where no finite score is left outside the mask.
    """
    second = int(_b_candidates(matrix.row("b")[None])[0, 1])
    return None if second < 0 else second


def assign_phases(
    matrix: PhaseScoreMatrix, n: int = DEFAULT_WINDOW_HALF_WIDTH
) -> PhaseAssignment:
    """Greedy centre placement (order b, a, d, c, e) from the best phase-b.

    Phases whose restricted range is empty stay unassigned; short tracks
    therefore come back flagged degenerate rather than failing.
    """
    _check_assignable(matrix.num_frames, n)
    centres, totals = _alternatives(np.asarray(matrix.smoothed, dtype=float)[None])
    best = centres[:, 0]
    return phase_assignments(
        [matrix.action_id], [matrix.object_order], np.zeros(1, dtype=np.intp),
        best, _windows(best, matrix.num_frames, n), totals[:, 0],
    )[0]


def assign_with_alternatives(
    matrix_annotated: PhaseScoreMatrix,
    matrix_swapped: PhaseScoreMatrix,
    n: int = DEFAULT_WINDOW_HALF_WIDTH,
) -> PhaseAssignment:
    """Pick the best of four alternatives: {best-b, second-b} x object order.

    Ties resolve in the order best/as-annotated, best/swapped,
    second/as-annotated, second/swapped.
    """
    matrices = (matrix_annotated, matrix_swapped)
    if matrix_annotated.smoothed.shape != matrix_swapped.smoothed.shape:
        raise ContractError(
            f"score matrices of shapes {matrix_annotated.smoothed.shape} and "
            f"{matrix_swapped.smoothed.shape} do not belong to one track"
        )
    smoothed = np.vstack([np.asarray(m.smoothed, dtype=float) for m in matrices])
    return phase_assignments(
        [matrix_annotated.action_id],
        [m.object_order for m in matrices],
        *assign_batch(smoothed, np.arange(smoothed.shape[0]), [0, smoothed.shape[1]], n),
    )[0]
