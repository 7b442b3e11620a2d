"""From-scratch binary random forest over video embeddings.

One forest per action detects that action's presence; multi-class decisions
take the forest with the highest probability.  Trees are grown by greedy
binary splitting on weighted Gini impurity, with candidate thresholds at
midpoints between consecutive distinct feature values.  A node scores all of
its candidate features in one sorted pass over an ``(n, m)`` block.  Ties
between equally good splits break toward the lowest feature index, then the
lowest threshold, which makes training independent of sample order.  Each
tree is stored as flat pre-order node columns (:class:`Tree`), so growing,
predicting and (de)serializing never recurse.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError, read_json

__all__ = [
    "ForestParams",
    "Tree",
    "ForestModel",
    "layout_fingerprint",
    "train_tree",
    "train_forest",
    "predict_proba",
    "forest_to_dict",
    "forest_from_dict",
    "save_forest",
    "load_forest",
]

FOREST_FORMAT = "boxact-forest"
FOREST_VERSION = 2


@dataclass(frozen=True)
class ForestParams:
    num_trees: int = 200
    max_depth: int | None = None
    min_samples_split: int = 2
    features_per_split: int | str = "sqrt"
    bootstrap: bool = True
    seed: int = 0
    class_weight: str | None = None  # None or "balanced"

    def __post_init__(self) -> None:
        if self.num_trees < 1:
            raise ConfigError("num_trees must be at least 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be at least 1 when set")
        if self.min_samples_split < 2:
            raise ConfigError("min_samples_split must be at least 2")
        if isinstance(self.features_per_split, str):
            if self.features_per_split != "sqrt":
                raise ConfigError(
                    "features_per_split must be a positive integer or 'sqrt'"
                )
        elif self.features_per_split < 1:
            raise ConfigError("features_per_split must be a positive integer or 'sqrt'")
        if self.class_weight not in (None, "balanced"):
            raise ConfigError("class_weight must be None or 'balanced'")

    def resolve_features_per_split(self, num_features: int) -> int:
        if self.features_per_split == "sqrt":
            return max(1, int(math.sqrt(num_features)))
        return min(int(self.features_per_split), num_features)


@dataclass(frozen=True)
class Tree:
    """One tree as parallel node columns in pre-order; node 0 is the root.

    A split sends ``v[feature] <= threshold`` to ``left`` and the rest to
    ``right``.  A leaf has ``feature == -1`` and both children ``-1``.
    ``fraction`` and ``weight`` are the positive share and the total sample
    weight that reached each node; a leaf's fraction is its prediction.
    """

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    fraction: tuple[float, ...]
    weight: tuple[float, ...]


TREE_COLUMNS = tuple(f.name for f in fields(Tree))


def _best_split(
    values: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    candidates: np.ndarray,
) -> tuple[float, int, float] | None:
    """Lowest weighted-Gini split over candidate features.

    All candidate columns are sorted and scored together as one ``(n, m)``
    block.  Returns (impurity, feature, threshold) or None when every
    candidate feature is constant on this node.
    """
    features = np.sort(candidates)
    block = values[:, features]
    order = np.argsort(block, axis=0, kind="stable")
    columns = np.arange(features.size)
    v = block[order, columns]
    cw = np.cumsum(weights[order], axis=0)
    cwp = np.cumsum(np.where(labels == 1, weights, 0.0)[order], axis=0)
    # split after row i: left = [0..i], right = (i..n); valid where v rises
    distinct = v[1:] > v[:-1]
    has_split = distinct.any(axis=0)
    if not has_split.any():
        return None
    total = weights.sum()
    wl = cw[:-1]
    wpl = cwp[:-1]
    wr = total - wl
    wpr = cwp[-1] - wpl
    # masked positions are divided too, and any 0/0 among them is discarded
    with np.errstate(divide="ignore", invalid="ignore"):
        pl = wpl / wl
        pr = wpr / wr
    gini = wl * 2.0 * pl * (1.0 - pl) + wr * 2.0 * pr * (1.0 - pr)
    gini = gini / total
    gini[~distinct] = np.inf
    # exact ties within one feature resolve to the lowest threshold, which
    # argmin's first-hit rule gives on sorted values
    rows = np.argmin(gini, axis=0)
    best_gini = gini[rows, columns]
    # in ascending feature order, a feature replaces the best only when lower
    # by more than 1e-12; an argmin over features would not keep that rule
    best: tuple[float, int] | None = None  # (impurity, column)
    for j in np.flatnonzero(has_split).tolist():
        g = float(best_gini[j])
        if best is None or g < best[0] - 1e-12:
            best = (g, j)
    g, j = best
    low, high = v[rows[j] : rows[j] + 2, j].tolist()
    return g, int(features[j]), (low + high) / 2.0


def _training_input(
    values: np.ndarray, labels: np.ndarray, caller: str
) -> tuple[np.ndarray, np.ndarray]:
    """Check a training matrix and its 0/1 labels; return them as float/int."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    if values.ndim != 2 or labels.shape != (values.shape[0],):
        raise ContractError(f"{caller} expects values (n, d) and labels (n,)")
    if values.shape[1] == 0:
        raise ContractError(f"{caller} needs at least one feature")
    if not np.isin(labels, (0, 1)).all():
        raise ContractError(f"{caller} expects labels 0 or 1")
    if not np.isfinite(values).all():
        raise ContractError(f"{caller} expects finite values")
    return values, labels.astype(int)


def train_tree(
    values: np.ndarray,
    labels: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
) -> Tree:
    """Grow one tree on the given sample (no bootstrap at this level).

    ``weights`` defaults to one per sample; given, each must be positive and
    their sum finite.
    """
    values, labels = _training_input(values, labels, "train_tree")
    if labels.size == 0:
        raise ContractError("train_tree needs at least one sample")
    if weights is None:
        weights = np.ones(labels.size)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != labels.shape:
        raise ContractError("train_tree expects weights (n,)")
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not (np.isfinite(total) and (weights > 0).all()):
        raise ContractError("train_tree expects weights > 0 with a finite sum")
    return _grow(values, labels, weights, params, rng)


def _grow(
    values: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
) -> Tree:
    """Grow one tree from checked inputs.

    Nodes are grown from an explicit stack, left child first, so they are
    numbered and draw their candidate features in pre-order.
    """
    m = params.resolve_features_per_split(values.shape[1])
    nodes: list[list] = []  # one [feature, threshold, left, right, fraction, weight] each
    # (values, labels, weights, depth, node whose right child this is or -1)
    stack = [(values, labels, weights, 0, -1)]
    while stack:
        x, y, w, depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent][3] = len(nodes)
        total = float(w.sum())
        positive = y == 1
        nodes.append([-1, 0.0, -1, -1, float(w[positive].sum()) / total, total])
        if (
            not 0 < np.count_nonzero(positive) < y.size
            or y.size < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            continue
        candidates = rng.choice(values.shape[1], size=m, replace=False)
        found = _best_split(x, y, w, candidates)
        if found is None:
            continue
        _, f, threshold = found
        mask = x[:, f] <= threshold
        if not 0 < np.count_nonzero(mask) < y.size:
            # the midpoint rounded onto the largest value or overflowed to
            # +-inf; a split that separates nothing would repeat forever
            continue
        nodes[-1][:3] = [f, threshold, len(nodes)]
        stack.append((x[~mask], y[~mask], w[~mask], depth + 1, len(nodes) - 1))
        stack.append((x[mask], y[mask], w[mask], depth + 1, -1))
    return Tree(*map(tuple, zip(*nodes)))


@dataclass(frozen=True)
class ForestModel:
    action_id: str
    trees: tuple[Tree, ...]
    params: ForestParams
    num_features: int
    fingerprint: str = ""


def layout_fingerprint(layout: Sequence[str]) -> str:
    digest = hashlib.sha256("\n".join(layout).encode())
    return digest.hexdigest()[:16]


def train_forest(
    values: np.ndarray,
    labels: np.ndarray,
    params: ForestParams = ForestParams(),
    action_id: str = "",
    fingerprint: str = "",
) -> ForestModel:
    """Train ``num_trees`` trees on deterministic per-tree random sub-streams."""
    values, labels = _training_input(values, labels, "train_forest")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ContractError(
            f"forest {action_id or '(unnamed)'}: training data has "
            f"{n_pos} positive and {n_neg} negative samples; a binary "
            "detector needs both classes"
        )
    n = labels.size
    if params.class_weight == "balanced":
        per_class = {0: n / (2.0 * n_neg), 1: n / (2.0 * n_pos)}
        weights = np.array([per_class[int(y)] for y in labels])
    else:
        weights = np.ones(n)
    streams = np.random.SeedSequence(params.seed).spawn(params.num_trees)
    trees = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        if params.bootstrap:
            idx = rng.integers(0, n, size=n)
            sample = (values[idx], labels[idx], weights[idx])
        else:
            sample = (values, labels, weights)
        trees.append(_grow(sample[0], sample[1], sample[2], params, rng))
    return ForestModel(
        action_id=action_id,
        trees=tuple(trees),
        params=params,
        num_features=values.shape[1],
        fingerprint=fingerprint,
    )


def _leaf_fraction(tree: Tree, v: list[float]) -> float:
    node = 0
    while tree.feature[node] >= 0:
        if v[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.fraction[node]


def predict_proba(model: ForestModel, values: np.ndarray) -> float:
    """Mean of the trees' leaf fractions for one embedding vector."""
    v = np.asarray(values, dtype=float)
    if v.shape != (model.num_features,):
        raise ContractError(
            f"forest {model.action_id!r} expects {model.num_features} features, "
            f"got shape {v.shape}"
        )
    if not np.isfinite(v).all():
        raise ContractError(f"forest {model.action_id!r} expects finite values")
    x = v.tolist()
    return float(np.mean([_leaf_fraction(t, x) for t in model.trees]))


# --- serialization -------------------------------------------------------------


def _tree_from_dict(data: Mapping, num_features: int) -> Tree:
    lengths = {len(data[name]) for name in TREE_COLUMNS}
    if len(lengths) != 1 or 0 in lengths:
        raise ConfigError("tree columns must be non-empty and of equal length")
    tree = Tree(
        feature=tuple(map(int, data["feature"])),
        threshold=tuple(map(float, data["threshold"])),
        left=tuple(map(int, data["left"])),
        right=tuple(map(int, data["right"])),
        fraction=tuple(map(float, data["fraction"])),
        weight=tuple(map(float, data["weight"])),
    )
    n = len(tree.feature)
    for node, (f, left, right) in enumerate(zip(tree.feature, tree.left, tree.right)):
        if not -1 <= f < num_features:
            raise ConfigError(
                f"node feature index {f} outside embedding length {num_features}"
            )
        if f == -1 and (left, right) != (-1, -1):
            raise ConfigError(f"leaf {node} has children {left}, {right}")
        if f >= 0 and not (node < left < n and node < right < n):
            raise ConfigError(
                f"split {node} has children {left}, {right}; each must come "
                f"after it and before {n}"
            )
    if not all(0.0 <= p <= 1.0 for p in tree.fraction):
        raise ConfigError("node fraction outside [0, 1]")
    return tree


def forest_to_dict(model: ForestModel) -> dict:
    return {
        "format": FOREST_FORMAT,
        "version": FOREST_VERSION,
        "action_id": model.action_id,
        "num_features": model.num_features,
        "fingerprint": model.fingerprint,
        "params": asdict(model.params),
        "trees": [
            {name: list(getattr(tree, name)) for name in TREE_COLUMNS}
            for tree in model.trees
        ],
    }


def forest_from_dict(data: Mapping) -> ForestModel:
    if not isinstance(data, Mapping) or data.get("format") != FOREST_FORMAT:
        raise ConfigError("not a serialized forest model")
    if data.get("version") != FOREST_VERSION:
        raise ConfigError(
            f"unsupported forest version {data.get('version')!r} (this boxact "
            f"reads version {FOREST_VERSION}); re-run `boxact train` to rebuild it"
        )
    try:
        params = ForestParams(**data["params"])
        num_features = int(data["num_features"])
        trees = tuple(_tree_from_dict(t, num_features) for t in data["trees"])
        if not trees:
            raise ConfigError("forest has no trees")
        return ForestModel(
            action_id=str(data["action_id"]),
            trees=trees,
            params=params,
            num_features=num_features,
            fingerprint=str(data.get("fingerprint", "")),
        )
    except KeyError as exc:
        raise ConfigError(f"malformed forest: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed forest: {exc}") from None


def save_forest(model: ForestModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(forest_to_dict(model), sort_keys=True) + "\n")


def load_forest(path: str | Path) -> ForestModel:
    data = read_json(path, ConfigError)
    try:
        return forest_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
