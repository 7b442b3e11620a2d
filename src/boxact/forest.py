"""From-scratch binary random forest over video embeddings.

One forest per action detects that action's presence; multi-class decisions
take the forest with the highest probability.  Trees are grown by greedy
binary splitting on weighted Gini impurity, with candidate thresholds at
midpoints between consecutive distinct feature values.  Each candidate
feature's exact ties go to its lowest threshold.  Across features, a node
visits its candidates in ascending index order and a later feature replaces
the best only when its impurity is lower by more than 1e-12.  So training
does not depend on sample order.

The trees of several forests grow in lockstep (:func:`grow_forests`;
:func:`train_forest` and :func:`train_tree` grow one).  Tree k of every
forest draws what a generator of its own on seed stream k would: its
bootstrap with numpy's ``integers`` and its candidates with ``choice``.
Those draws depend on the seed and on the row, feature and candidate
counts, never on the data, so numpy makes each of them once, on a copy of
the stream's generator, and they are kept in one table per (seed, number
of trees) (:class:`_Draws`): every forest and every later call under that
seed reads them, and a set of candidates is made only the first time some
tree asks for it.
:func:`grow_forests` keeps the table of the last (seed, number of trees) it
saw, so repeated training in one process (cross-validation folds, ``sweep``
cells) makes only the draws no earlier call made, and a one-shot ``boxact
train`` makes each draw once, as it would without the table.  A tree grows left
child first, so its nodes come in pre-order.  The forests'
training rows are stacked into one search table, and a node is a run of
indices into it, kept in one shared pool, never a copy of the rows.  Trees
that draw fewer candidate features than others pad their draws with a
constant column, which never splits.  Each step holds the next node of
every live tree in flat arrays and does its bookkeeping for all of them in a
fixed number of array operations; it searches their candidate features in
batches of bounded size.  A lane is one (node, candidate) pair.  Lanes whose
candidate is constant on the node's forest's training rows are dropped
before any gather; each other lane gathers its ranks once, padded to the
batch's largest node, and one sort per lane gives both its order and
whether it varies on the node.  The lanes that vary are summed and scored
together, and each node's feature is picked by one argmin, with the 1e-12
rule scanned only where two candidates lie that close.
Pending right children wait in per-tree array stacks.  A node is finished
in the step that makes it: its weight and positive weight are summed there,
once, with the step's nodes of equal length as the rows of one matrix, which
keeps numpy's pairwise order and so every bit of summing each node alone.
A forest is one set of flat pre-order node columns (:class:`ForestModel`):
the columns of all its trees laid end to end, from growth to file to
prediction.  A file holds the columns and the trees' offsets as they are,
and the reader runs each check once over a whole column.  Prediction moves
every (row, tree) pair one level down per pass, so growing, predicting and
(de)serializing never recurse."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import threading
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ContractError, all_instances, check_int, check_str, prefixed
from .errors import read_json

__all__ = [
    "ForestParams",
    "Tree",
    "ForestModel",
    "layout_fingerprint",
    "train_tree",
    "train_forest",
    "grow_forests",
    "predict_proba",
    "forest_to_dict",
    "forest_from_dict",
    "save_forest",
    "load_forest",
]

FOREST_FORMAT = "boxact-forest"
FOREST_VERSION = 3


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
        def store(name: str, minimum: int) -> None:
            # a plain int, so that a numpy integer writes to JSON
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))

        store("num_trees", 1)
        if self.max_depth is not None:
            store("max_depth", 1)
        store("min_samples_split", 2)
        if not isinstance(self.features_per_split, str):
            store("features_per_split", 1)
        elif self.features_per_split != "sqrt":
            raise ConfigError("features_per_split must be a positive integer or 'sqrt'")
        store("seed", 0)
        if self.class_weight not in (None, "balanced"):
            raise ConfigError("class_weight must be None or 'balanced'")

    def resolve_features_per_split(self, num_features: int) -> int:
        if self.features_per_split == "sqrt":
            return max(1, int(math.sqrt(num_features)))
        return min(int(self.features_per_split), num_features)


@dataclass(frozen=True)
class Tree:
    """A read-only view of one tree's node columns in pre-order; node 0 is the root.

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


class _SearchTable(NamedTuple):
    """Checked training rows, prepared once per growth pass for :func:`_best_splits`.

    ``ranks`` holds, per column, each row's rank among the column's distinct
    values: equal exactly where the values are equal (``-0.0 == 0.0``), so
    ordering a node's rows by (rank, position) is their stable sort.  The
    arrays other than ``values`` and ``block`` have one more row, used to pad
    a node's rows: it ranks above every real row, as a row of ``+inf``
    would, and weighs nothing.  The rows fall into blocks, one per forest,
    and every node's rows lie in one block.  ``varies[b, f]`` says whether
    column ``f`` takes more than one rank on block ``b``'s rows; a column
    constant on a block is constant on each of its nodes, so the search
    drops those candidates before it gathers any rank.
    """

    values: np.ndarray  # (n, d)
    ranks: np.ndarray  # (n + 1, d)
    weights: np.ndarray  # (n + 1,)
    positive_weights: np.ndarray  # (n + 1,): the weight of a positive row, else 0
    block: np.ndarray  # (n,): each row's block
    varies: np.ndarray  # (blocks, d)


def _search_table(
    values: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    block_rows: Sequence[int] | None = None,
) -> _SearchTable:
    """The search table of ``values``, whose rows are blocks of ``block_rows``
    rows each, in order: one block of all rows when None."""
    n, d = values.shape
    order = np.argsort(values, axis=0, kind="stable")
    ordered = np.take_along_axis(values, order, axis=0)
    dense = np.zeros((n, d), dtype=np.int64)
    np.cumsum(ordered[1:] > ordered[:-1], axis=0, out=dense[1:])
    ranks = np.full((n + 1, d), n, dtype=np.int64)
    np.put_along_axis(ranks[:n], order, dense, axis=0)
    sizes = np.array([n] if block_rows is None else block_rows, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(sizes.size), sizes)
    varies = np.maximum.reduceat(ranks[:n], starts) > np.minimum.reduceat(ranks[:n], starts)
    weights = np.append(weights, 0.0)
    positive_weights = np.where(np.append(labels == 1, False), weights, 0.0)
    return _SearchTable(values, ranks, weights, positive_weights, block, varies)


# Most (node, candidate feature, row) entries in one batch of the split
# search.  A batch holds a few arrays of that many 8-byte entries at once,
# about 3 MiB in all, however many rows, trees and forests a pass grows.
# Larger batches grew the crossval benchmark's five forests no faster.
_SEARCH_ENTRIES = 1 << 16


def _first_lowest(gini: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Each row's column of ``gini`` chosen by the cross-feature rule, -1 where
    no column is ``valid``; invalid entries hold ``+inf``.

    The rule visits a row's valid columns in ascending order and takes the
    first; a later one replaces the best only when lower by more than
    1e-12.  Where the lowest lies in [-1, 1] (Gini impurities lie in
    [0, 0.5]) and every entry within 2e-12 of it equals it, the rule picks
    the first lowest, which ``argmin`` gives: the best it ends on is within
    1e-12 of the lowest, rounding of ``best - 1e-12`` included, so it is the
    lowest, taken where first met.  Only the other rows are scanned.
    """
    column = gini.argmin(axis=1)
    lowest = gini[np.arange(column.size), column]
    close = gini <= (lowest + 2e-12)[:, None]
    close &= gini > lowest[:, None]
    odd = ~(np.abs(lowest) <= 1.0)  # no valid column, or an inf or NaN
    column[odd] = -1
    rows = np.flatnonzero(close.any(axis=1) | odd)
    rows = rows[valid[rows].any(axis=1)]
    if rows.size:
        found = np.full(rows.size, -1)
        best = np.zeros(rows.size)
        for j in range(gini.shape[1]):
            g = gini[rows, j]
            better = valid[rows, j] & ((found < 0) | (g < best - 1e-12))
            found[better] = j
            best[better] = g[better]
        column[rows] = found
    return column


def _best_splits(
    table: _SearchTable,
    rows: np.ndarray,
    sizes: np.ndarray,
    totals: np.ndarray,
    candidates: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest weighted-Gini split of each node, all searched in one batch.

    Node i owns the next ``sizes[i]`` row indices into ``table`` of ``rows``,
    weighs ``totals[i]`` and searches the candidate features
    ``candidates[i]``; every node draws the same number of candidates, and
    all of a node's rows lie in one block of the table.  A lane is one
    (node, candidate feature) pair.  Lanes whose feature is constant on the
    node's block are dropped before any rank is gathered.  Each other lane
    gathers its node's ranks once, padded to the largest node's row count
    with the table's padding row, which sorts last and weighs nothing, and
    one sort keys them by (rank, position).  That sort gives both the
    lane's order and whether it varies on the node: its first rank lies
    below the rank at the node's last real row.  Lanes that do not vary
    have no split and are dropped; the rest are summed and scored together,
    with split positions at or after a node's last real row masked.  Each
    feature's exact ties go to its lowest threshold, and each node's feature
    is picked by :func:`_first_lowest`'s rule.  So each node gets the result
    it would get searched alone.  Returns the arrays (impurity, feature,
    threshold) over the nodes; the feature is -1, and the other two are
    meaningless, where every candidate feature is constant on that node.
    """
    count, width = sizes.size, int(sizes.max())
    features = np.sort(candidates, axis=1)
    n, d = table.values.shape
    # a feature constant on a node's block is constant on the node
    first_row = rows[np.cumsum(sizes) - sizes]
    node, lane = np.nonzero(table.varies[table.block[first_row][:, None], features])
    index = np.full((count, width), n)
    index[np.arange(width) < sizes[:, None]] = rows
    # each lane keys its rows by (rank, position); the keys are distinct, so
    # sorting them gives the stable order of the values
    keys = (index * d)[node]
    keys += features[node, lane][:, None]
    keys = table.ranks.take(keys)
    shift = width.bit_length()
    keys <<= shift
    keys |= np.arange(width)
    keys.sort(axis=1)
    # a lane varies on its node where its first rank is below the rank at the
    # node's last real row; the padding rows sort after the real ones
    last = keys[np.arange(node.size), sizes[node] - 1]
    varies = (keys[:, 0] >> shift) < (last >> shift)
    node, lane = node[varies], lane[varies]
    # from here on a lane is a column, so that every pass below, the sums
    # down each lane included, runs over the rows of all lanes at once
    keys = keys[varies].T.copy()
    # split after row i: left = [0..i], right = (i..size); none where the rank
    # stays, nor after the last real row, where it rises to the padding's
    ranks = keys >> shift
    same = ranks[1:] == ranks[:-1]
    del ranks
    padded = np.flatnonzero(sizes[node] < width)
    same[sizes[node[padded]] - 1, padded] = True
    keys &= (1 << shift) - 1
    keys += node * width
    ordered = index.take(keys)  # each lane's row indices in sorted order
    del keys
    cw = table.weights.take(ordered)
    np.cumsum(cw, axis=0, out=cw)
    cwp = table.positive_weights.take(ordered)
    np.cumsum(cwp, axis=0, out=cwp)
    total = totals[node]
    wl = cw[:-1]
    wpl = cwp[:-1]
    wpr = cwp[sizes[node] - 1, np.arange(node.size)] - wpl
    # temporaries are reused in place, rounding in the order of the one-node
    # formula wl*2*pl*(1-pl) + wr*2*pr*(1-pr); masked positions are divided
    # too, and any 0/0 among them is discarded
    with np.errstate(divide="ignore", invalid="ignore"):
        pl = wpl / wl
        del cwp, wpl
        gini = wl * 2.0
        gini *= pl
        np.subtract(1.0, pl, out=pl)
        gini *= pl
        del pl
        wr = np.subtract(total, wl, out=wl)
        pr = np.divide(wpr, wr, out=wpr)
        wr *= 2.0
        wr *= pr
        np.subtract(1.0, pr, out=pr)
        wr *= pr
        gini += wr
        del cw, wl, wr, wpr, pr
        gini /= total
    np.putmask(gini, same, np.inf)
    # exact ties within one feature resolve to the lowest threshold, which
    # argmin's first-hit rule gives on sorted values
    best_row = np.argmin(gini, axis=0)
    lane_gini = np.full(features.shape, np.inf)
    lane_gini[node, lane] = gini[best_row, np.arange(node.size)]
    lanes = np.full(features.shape, -1)  # each searched lane's index
    lanes[node, lane] = np.arange(node.size)
    column = _first_lowest(lane_gini, lanes >= 0)
    split = np.flatnonzero(column >= 0)
    j = column[split]
    at = lanes[split, j]
    r = best_row[at]
    f = features[split, j]
    low = table.values[ordered[r, at], f]
    high = table.values[ordered[r + 1, at], f]
    with np.errstate(over="ignore"):
        thresholds = (low + high) / 2.0
    best = np.zeros(count)
    best[split] = lane_gini[split, j]
    feature = np.full(count, -1)
    feature[split] = f
    threshold = np.zeros(count)
    threshold[split] = thresholds
    return best, feature, threshold


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
    their sum finite.  The tree's candidate draws are ``rng.choice`` calls,
    made in a table of its own from a copy of ``rng``, and ``rng`` ends
    where those calls would leave it.
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
    draws = _Draws(type(rng.bit_generator), [rng.bit_generator.state])
    grown = _grow_trees([(values, labels, weights)], params, draws, bootstrap=False)
    # the tree's one line ends where numpy's own choice calls would leave rng
    rng.bit_generator.state = draws.generators[0][0].bit_generator.state
    return Tree(*(tuple(column.tolist()) for column in grown[0][0]))


def _runs(flat: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``flat[start:start + size]`` of each run, laid end to end."""
    ends = np.cumsum(sizes)
    index = np.repeat(starts - ends + sizes, sizes)
    index += np.arange(index.size)
    return flat[index]


def _run_sums(
    values: np.ndarray, flat: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """``values[flat[start:start + size]].sum()`` of each run, bit for bit.

    numpy sums each row of a C-contiguous matrix along its last axis in the
    pairwise order it uses for that row alone, so the runs of one length are
    summed together as the rows of one matrix.  Padding runs to one length,
    or ``np.add.reduceat``, would regroup the sums and change their bits.
    """
    order = np.argsort(sizes, kind="stable")
    by_size = sizes[order]
    gathered = values[_runs(flat, starts[order], by_size)]
    lengths, counts = np.unique(by_size, return_counts=True)
    ordered = np.empty(sizes.size)
    row = at = 0
    for size, count in zip(lengths.tolist(), counts.tolist()):
        block = gathered[at : at + size * count].reshape(count, size)
        np.add.reduce(block, axis=1, out=ordered[row : row + count])
        row += count
        at += size * count
    sums = np.empty_like(ordered)
    sums[order] = ordered
    return sums


# Sets a line holds per stream at first; a full line doubles its room.
_FIRST_SETS = 8


class _Unseeded(np.random.bit_generator.ISeedSequence):
    """The seed of a bit generator whose state is set next: it hashes nothing."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype=dtype)


_UNSEEDED = _Unseeded()


def _generator(kind: type, state: dict) -> np.random.Generator:
    """A copy, by state, of a generator on a ``kind`` bit generator: about 5 us,
    where seeding with ``kind(0)`` first would take 15 and a deep copy 60."""
    bit_generator = kind(_UNSEEDED)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


class _Draws:
    """numpy's bootstraps and candidate sets of every tree on a seed's streams,
    each made once and kept in a table.

    A tree on stream k draws in a fixed order: its bootstrap
    ``integers(0, n, size=n)`` first, if it has one, then one
    ``choice(d, m, replace=False)`` per node it searches, in pre-order.  So
    its i-th set depends only on where its sets start (after the bootstrap
    of ``n`` rows, or at the stream's start), ``d``, ``m`` and ``i``, never
    on the training data.  The table keeps each stream's bootstrap per row
    count and, per line (start, ``d``, ``m``), the sets made so far and a
    generator in the state where the next set starts, and makes a set only
    the first time a tree asks for it: trees of any number of forests and
    calls that share a stream, a start, ``d`` and ``m`` read the same sets.
    Every draw is numpy's own, made on a copy of the stream's generator, so
    the streams' states (``states``, on ``kind`` bit generators) are never
    moved.  A lock guards the table while it grows.
    """

    def __init__(self, kind: type, states: Sequence[dict]) -> None:
        self.kind = kind
        self.streams = len(states)
        # each stream's state per start: 0 for its own, else a bootstrap's row
        # count; a state takes less room than a generator
        self.starts: dict[int, list[dict]] = {0: list(states)}
        self.bootstraps: dict[int, np.ndarray] = {}  # per row count, (streams, n)
        # per line: its (d, m), its sets as (streams, capacity, m), its
        # generators and per stream the number of sets made
        self.line_ids: dict[tuple[int, int, int], int] = {}
        self.shapes: list[tuple[int, int]] = []
        self.sets: list[np.ndarray] = []
        self.generators: list[list[np.random.Generator]] = []
        self.count = np.empty((0, self.streams), dtype=np.intp)
        self.lock = threading.RLock()

    def bootstrap(self, n: int) -> np.ndarray:
        """Every stream's ``integers(0, n, size=n)`` from its start, as a
        ``(streams, n)`` array of the smallest type that holds them."""
        with self.lock:
            if n not in self.bootstraps:
                rngs = [_generator(self.kind, state) for state in self.starts[0]]
                rows = np.stack([rng.integers(0, n, size=n) for rng in rngs])
                self.bootstraps[n] = rows.astype(np.min_scalar_type(n - 1))
                self.starts[n] = [rng.bit_generator.state for rng in rngs]
            return self.bootstraps[n]

    def line(self, rows: int, d: int, m: int) -> int:
        """The id of the line of sets ``choice(d, m)`` drawn after a bootstrap of
        ``rows`` rows, or from each stream's start when ``rows`` is 0."""
        with self.lock:
            key = (rows, d, m)
            if key not in self.line_ids:
                if rows:
                    self.bootstrap(rows)  # which keeps where each stream's rows end
                self.line_ids[key] = len(self.sets)
                self.shapes.append((d, m))
                # stored in the smallest type that holds every feature index
                self.sets.append(
                    np.empty((self.streams, _FIRST_SETS, m), dtype=np.min_scalar_type(d))
                )
                self.generators.append(
                    [_generator(self.kind, state) for state in self.starts[rows]]
                )
                self.count = np.vstack([self.count, np.zeros(self.streams, np.intp)])
            return self.line_ids[key]

    def candidates(
        self, line: np.ndarray, stream: np.ndarray, index: np.ndarray, width: int, pad: int
    ) -> np.ndarray:
        """Set ``index[i]`` of line ``line[i]`` on stream ``stream[i]`` for each i,
        padded with ``pad`` to ``width`` columns."""
        with self.lock:
            new = index == self.count[line, stream]
            if new.any():
                # a tree asks for set i of its line only after sets 0 to i - 1,
                # so a set not made yet is the next of its line and stream
                key = np.flatnonzero(np.bincount(line[new] * self.streams + stream[new]))
                self._extend(*np.divmod(key, self.streams))
            chosen = np.full((line.size, width), pad, dtype=np.intp)
            ids = np.flatnonzero(np.bincount(line))
            for at in ids.tolist():
                rows = np.flatnonzero(line == at) if ids.size > 1 else slice(None)
                sets = self.sets[at]
                chosen[rows, : sets.shape[2]] = sets[stream[rows], index[rows]]
            return chosen

    def _extend(self, ids: np.ndarray, streams: np.ndarray) -> None:
        """Make the next set of line ``ids[i]`` on stream ``streams[i]`` for each
        i; no pair repeats."""
        index = self.count[ids, streams]
        self.count[ids, streams] += 1
        for at in np.flatnonzero(np.bincount(ids)).tolist():
            rows = ids == at
            d, m = self.shapes[at]
            generators = self.generators[at]
            sets = self.sets[at]
            if index[rows].max() == sets.shape[1]:
                sets = self.sets[at] = np.concatenate([sets, np.empty_like(sets)], axis=1)
            sets[streams[rows], index[rows]] = [
                generators[k].choice(d, m, replace=False) for k in streams[rows].tolist()
            ]


@functools.lru_cache(maxsize=1)
def _table(seed: int, num_trees: int) -> _Draws:
    """The draws of ``num_trees`` streams of ``SeedSequence(seed)``: the table of
    the last (seed, num_trees) asked for is kept, and any other replaces it."""
    streams = np.random.SeedSequence(seed).spawn(num_trees)
    return _Draws(np.random.PCG64, [np.random.PCG64(stream).state for stream in streams])


def _grow_trees(
    blocks: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    params: ForestParams,
    draws: _Draws,
    bootstrap: bool,
) -> list[tuple[tuple[np.ndarray, ...], np.ndarray]]:
    """Grow the trees of several forests from checked inputs, all in lockstep.

    ``blocks`` holds each forest's (values, labels, weights) and ``draws``
    the table of the seed streams' draws.  Every block grows one tree per
    stream: tree k draws what a generator of its own in the state of stream
    k's generator would.  It reads its bootstrap and then, one per node it
    searches, the sets of its line of the table; it carries only the number
    of sets it has read, and the table makes a set the first time any tree
    asks for it.  The blocks' rows
    are stacked into one search table, and each tree keeps its block's row
    count, candidate count and line of sets.  A tree that draws
    fewer candidates than the most of any tree pads its draw with a constant
    sentinel column, which never has a split, so the search passes over it.

    A tree with ``bootstrap`` first draws its rows with replacement; trees
    on one stream with the same row count draw the same rows.  Each
    step makes the next node of every tree that has one, so node k of a tree
    is made at step k.  A node is a run of row indices in one shared pool.
    A tree whose node splits goes on with its left child and pushes its
    right child on the tree's stack; any other tree pops its last pending
    right child.  Each step sums every node's weight and positive weight in
    one grouped pass over the rows it has gathered, searches the splits of
    its nodes in batches of bounded size, and records each node's columns:
    no node is summed twice, and nothing reads the pool after the last step.
    Returns each block's node columns and tree offsets, as a
    :class:`ForestModel` holds them.
    """
    block_rows = [labels.size for _, labels, _ in blocks]
    block_features = [values.shape[1] for values, _, _ in blocks]
    offsets = np.cumsum([0] + block_rows[:-1]).tolist()
    sentinel = max(block_features)
    values = np.zeros((sum(block_rows), sentinel + 1))
    for (block, _, _), at, n, d in zip(blocks, offsets, block_rows, block_features):
        values[at : at + n, :d] = block
    labels = np.concatenate([labels for _, labels, _ in blocks])
    weights = np.concatenate([weights for _, _, weights in blocks])
    positive = labels == 1
    table = _search_table(values, labels, weights, block_rows)
    # each tree's block: rows, features, candidates and the growth
    # bounds; a node at depth k holds at least k + 1 rows, so the bounds act as given
    per_block = [
        (
            n,
            d,
            params.resolve_features_per_split(d),
            n if params.max_depth is None else min(params.max_depth, n),
            min(params.min_samples_split, n + 1),
        )
        for n, d in zip(block_rows, block_features)
    ]
    streams = draws.streams
    block = np.repeat(np.arange(len(blocks)), streams)
    n_rows, _, m, max_depth, min_split = (
        np.array(column, dtype=np.intp)[block] for column in zip(*per_block)
    )
    width = int(m.max())
    count = block.size
    # each tree's line of candidate sets and stream, and the sets it has used
    lines = [draws.line(n if bootstrap else 0, d, k) for n, d, k, _, _ in per_block]
    line = np.array(lines, dtype=np.intp)[block]
    stream = np.tile(np.arange(streams), len(blocks))
    used = np.zeros(count, dtype=np.intp)
    if bootstrap:
        # a bootstrap is n draws on [0, n - 1]: the same for every block of n rows
        pool = np.concatenate(
            [draws.bootstrap(n).ravel().astype(np.intp) + at for at, n in zip(offsets, block_rows)]
        )
    else:
        pool = np.concatenate(
            [np.tile(np.arange(at, at + n), streams) for at, n in zip(offsets, block_rows)]
        )
    end = pool.size
    live = np.arange(count)
    state = np.zeros((count, 3), dtype=np.intp)  # (start, size, depth) per live tree
    state[:, 0] = np.cumsum(n_rows) - n_rows
    state[:, 1] = n_rows
    # per tree: its pending right children, (start, size, depth, parent node id)
    stack = np.empty((count, 8, 4), dtype=np.intp)
    height = np.zeros(count, dtype=np.intp)
    made = []  # per step: each node's tree, feature, threshold and sums, by id
    rights = []  # per step: (parent node ids, their right children's index)
    first = 0  # the id of the step's first node
    while live.size:
        starts, sizes, depth = state.T
        # at the first step, the roots' runs lie end to end: they are the pool
        rows = pool if first == 0 else _runs(pool, starts, sizes)
        node = np.repeat(np.arange(live.size), sizes)
        is_positive = positive[rows]
        npos = np.bincount(node[is_positive], minlength=live.size)
        # row 0 of the sums: each node's weight; row 1: its positive weight.
        # Each sums its rows in pool order, so with the bits of summing it alone
        runs = np.concatenate((sizes, npos))
        flat = np.concatenate((rows, rows[is_positive]))
        sums = _run_sums(weights, flat, np.cumsum(runs) - runs, runs).reshape(2, -1)
        node_feature = np.full(live.size, -1)
        node_threshold = np.zeros(live.size)
        # the sums are kept as summed: a fraction array made per step raised
        # the classify benchmark's peak RSS by 0.3 MiB
        made.append((live, node_feature, node_threshold, sums))
        searched = (0 < npos) & (npos < sizes)
        searched &= (sizes >= min_split[live]) & (depth < max_depth[live])
        search = np.flatnonzero(searched)
        following = np.empty_like(state)  # each tree's next (start, size, depth)
        goes_on = np.zeros(live.size, dtype=bool)
        if search.size:
            t = live[search]
            candidates = draws.candidates(line[t], stream[t], used[t], width, sentinel)
            used[t] += 1
            rows = rows[searched[node]]
            node = np.repeat(np.arange(search.size), sizes[search])
            totals = sums[0, search]
            # nodes are searched in batches of at most _SEARCH_ENTRIES, or one node
            per_batch = max(1, _SEARCH_ENTRIES // (width * int(sizes[search].max())))
            ends = np.concatenate(([0], np.cumsum(sizes[search])))
            feature = np.empty(search.size, dtype=np.intp)
            threshold = np.empty(search.size)
            for lo in range(0, search.size, per_batch):
                hi = min(lo + per_batch, search.size)
                _, feature[lo:hi], threshold[lo:hi] = _best_splits(
                    table, rows[ends[lo] : ends[hi]], sizes[search[lo:hi]],
                    totals[lo:hi], candidates[lo:hi],
                )
            goes_left = values[rows, feature[node]] <= threshold[node]
            n_left = np.bincount(node[goes_left], minlength=search.size)
            # a midpoint that rounded onto the largest value or overflowed to
            # +-inf separates nothing, and splitting on it would repeat forever
            found = (feature >= 0) & (0 < n_left) & (n_left < sizes[search])
            split = search[found]
            node_feature[split] = feature[found]
            node_threshold[split] = threshold[found]
            n_left = n_left[found]
            n_right = sizes[split] - n_left
            # the children's rows go straight into the pool: left, then right
            middle = end + int(n_left.sum())
            after = middle + int(n_right.sum())
            if after > pool.size:
                larger = np.empty(end + max(end, after - end), dtype=pool.dtype)
                larger[:end] = pool[:end]
                pool = larger
            kept = found[node]
            goes_right = kept & ~goes_left
            goes_left &= kept
            np.compress(goes_left, rows, out=pool[end:middle])
            np.compress(goes_right, rows, out=pool[middle:after])
            left_starts = end + np.cumsum(n_left) - n_left
            right_starts = middle + np.cumsum(n_right) - n_right
            end = after
            following[split] = np.column_stack((left_starts, n_left, depth[split] + 1))
            goes_on[split] = True
            t = live[split]
            if height[t].max(initial=0) == stack.shape[1]:
                stack = np.concatenate([stack, np.empty_like(stack)], axis=1)
            right = (right_starts, n_right, depth[split] + 1, first + split)
            stack[t, height[t]] = np.column_stack(right)
            height[t] += 1
        pops = np.flatnonzero(~goes_on)
        pops = pops[height[live[pops]] > 0]
        t = live[pops]
        height[t] -= 1
        popped = stack[t, height[t]]
        rights.append((popped[:, 3], len(made)))
        following[pops] = popped[:, :3]
        goes_on[pops] = True
        first += live.size
        live, state = live[goes_on], following[goes_on]
    trees, feature, threshold, sums = (np.concatenate(c, axis=-1) for c in zip(*made))
    weight, fraction = sums[0], sums[1] / sums[0]
    # node k of a tree was made at step k: a split's left child is made next
    index = np.repeat(np.arange(len(made)), [t.size for t, *_ in made])
    left = np.where(feature >= 0, index + 1, -1)
    right = np.full(first, -1)
    for ids, step in rights:
        right[ids] = step
    order = np.argsort(trees, kind="stable")
    columns = [c[order] for c in (feature, threshold, left, right, fraction, weight)]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(trees, minlength=count))))
    grown = []
    for lo in range(0, count, streams):  # a block's trees lie end to end
        bounds = offsets[lo : lo + streams + 1]
        grown.append((tuple(c[bounds[0] : bounds[-1]] for c in columns), bounds - bounds[0]))
    return grown


@dataclass(frozen=True, eq=False)
class ForestModel:
    """One action's forest: the node columns of all its trees, laid end to end.

    ``columns`` holds one read-only array per name of ``TREE_COLUMNS``.  Tree
    k owns nodes ``offsets[k]:offsets[k + 1]``, and its child indices count
    from its own first node, as in the file.  ``==`` is identity: compare
    :attr:`trees` or :func:`forest_to_dict` instead.
    """

    action_id: str
    columns: tuple[np.ndarray, ...]
    offsets: np.ndarray  # (num_trees + 1,)
    params: ForestParams
    num_features: int
    fingerprint: str = ""

    def __post_init__(self) -> None:
        for array in (*self.columns, self.offsets):
            array.flags.writeable = False

    @property
    def trees(self) -> tuple[Tree, ...]:
        """A per-tree view of the columns, built on each call."""
        lists = [column.tolist() for column in self.columns]
        bounds = itertools.pairwise(self.offsets.tolist())
        return tuple(Tree(*(tuple(values[lo:hi]) for values in lists)) for lo, hi in bounds)


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
    """Train ``num_trees`` trees on deterministic per-tree random sub-streams.

    The one-forest call of :func:`grow_forests`.
    """
    samples = {action_id: (values, labels)}
    return grow_forests(samples, params, {action_id: fingerprint})[action_id]


def grow_forests(
    samples: Mapping[str, tuple[np.ndarray, np.ndarray]],
    params: ForestParams = ForestParams(),
    fingerprints: Mapping[str, str] | None = None,
) -> dict[str, ForestModel]:
    """One forest per action of ``samples``, all grown in one lockstep pass.

    Each forest equals :func:`train_forest` on its (values, labels) alone:
    every forest's tree k draws what a generator of its own on stream k of
    ``SeedSequence(params.seed)`` would.  The draws come from the table of
    ``(params.seed, params.num_trees)``, which this call reuses if the last
    call had that key and otherwise replaces; threads may share it.
    """
    blocks = []
    for action_id, (values, labels) in samples.items():
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
            weights = np.where(labels == 1, n / (2.0 * n_pos), n / (2.0 * n_neg))
        else:
            weights = np.ones(n)
        blocks.append((values, labels, weights))
    if not blocks:
        return {}
    draws = _table(params.seed, params.num_trees)
    grown = _grow_trees(blocks, params, draws, params.bootstrap)
    fingerprints = fingerprints or {}
    return {
        action_id: ForestModel(
            action_id=action_id,
            columns=columns,
            offsets=offsets,
            params=params,
            num_features=values.shape[1],
            fingerprint=fingerprints.get(action_id, ""),
        )
        for action_id, (columns, offsets), (values, _, _) in zip(samples, grown, blocks)
    }


def predict_proba(model: ForestModel, values: np.ndarray) -> float | np.ndarray:
    """Mean of the trees' leaf fractions: a float for a vector ``(d,)``, an
    array for the ``n`` rows of a matrix ``(n, d)``.

    All (row, tree) pairs descend in lockstep, one gather per level.  Each
    row's leaf fractions are averaged along one contiguous row, in the
    pairwise order, and so with the bits, of ``np.mean`` over that row alone.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != model.num_features:
        raise ContractError(
            f"forest {model.action_id!r} expects {model.num_features} features, "
            f"got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ContractError(f"forest {model.action_id!r} expects finite values")
    rows = np.atleast_2d(x)
    feature, threshold, left, right, fraction, _ = model.columns
    roots = model.offsets[:-1]
    root = np.tile(roots, rows.shape[0])  # row by row, the first node of each tree
    row = np.repeat(np.arange(rows.shape[0]), roots.size)
    node = root.copy()
    live = np.flatnonzero(feature[node] >= 0)
    while live.size:
        at = node[live]
        goes_left = rows[row[live], feature[at]] <= threshold[at]
        node[live] = root[live] + np.where(goes_left, left[at], right[at])
        live = live[feature[node[live]] >= 0]
    means = fraction[node].reshape(rows.shape[0], roots.size).mean(axis=1)
    return float(means[0]) if x.ndim == 1 else means


# --- serialization -------------------------------------------------------------


_INT_COLUMNS = ("feature", "left", "right", "offsets")


def _listed(name: str, values) -> list:
    """``values``, a node column or the offsets; raise :class:`ConfigError` unless a list."""
    if not isinstance(values, list):
        what = "offsets" if name == "offsets" else f"tree column {name!r}"
        raise ConfigError(f"{what} must be a list, got {type(values).__name__}")
    return values


def _column(name: str, values: list) -> np.ndarray:
    """One node column of the whole forest, or its offsets, with its values' type checked.

    An int too large for a float raises OverflowError, as ``float()`` does.
    """
    kind, what = (int, "an integer") if name in _INT_COLUMNS else ((int, float), "a number")
    if not all_instances(values, kind, bool):
        bad = next(v for v in values if isinstance(v, bool) or not isinstance(v, kind))
        raise ConfigError(f"node {name} must be {what}, got {bad!r}")
    if name not in _INT_COLUMNS:
        return np.array(values, dtype=np.float64)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # kept exact: the range checks compare Python ints
        return np.array(values, dtype=object)


def _tree_fault(columns: Sequence[list], num_features: int) -> str | None:
    """The message for the first rule one tree's columns break, in node order."""
    feature, threshold, left, right, fraction, weight = columns
    n = len(feature)
    has_parent = [False] * n
    for node, (f, lo, hi) in enumerate(zip(feature, left, right)):
        if not -1 <= f < num_features:
            return f"node feature index {f} outside embedding length {num_features}"
        if f == -1 and (lo, hi) != (-1, -1):
            return f"leaf {node} has children {lo}, {hi}"
        if f >= 0 and not (node < lo < n and node < hi < n):
            return f"split {node} has children {lo}, {hi}; each must come after it and before {n}"
        if f >= 0:
            for child in (lo, hi):
                if has_parent[child]:
                    return f"node {child} is the child of more than one split"
                has_parent[child] = True
    if not all(math.isfinite(t) for t in threshold):
        return "node threshold is not finite"
    if not all(0.0 < w < math.inf for w in weight):
        return "node weight must be positive and finite"
    if not all(0.0 <= p <= 1.0 for p in fraction):
        return "node fraction outside [0, 1]"
    return None


def _read_columns(data: Mapping, num_features: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The node columns and tree offsets of a forest document, checked.

    Each rule runs once over a whole column, with child indices held to
    their own tree's node range.  When one fails, the first tree that
    breaks a rule is walked node by node to name its first fault.
    """
    lists = [_listed(name, data[name]) for name in TREE_COLUMNS]
    n = len(lists[0])
    if any(len(values) != n for values in lists):
        raise ConfigError("tree columns must be non-empty and of equal length")
    columns = [_column(name, values) for name, values in zip(TREE_COLUMNS, lists)]
    # offsets that run from 0 to n and rise strictly fit in int64
    offsets = _column("offsets", _listed("offsets", data["offsets"]))
    if offsets.size < 2:
        raise ConfigError("forest has no trees")
    if offsets[0] != 0 or offsets[-1] != n:
        raise ConfigError(
            f"offsets must run from 0 to the node count {n}, got {offsets[0]} to {offsets[-1]}"
        )
    sizes = np.diff(offsets)
    if (sizes <= 0).any():
        raise ConfigError(f"tree {np.argmax(sizes <= 0)} has no nodes: offsets must rise strictly")
    feature, threshold, left, right, fraction, weight = columns
    first = np.repeat(offsets[:-1], sizes)  # each node's tree's first node
    size = np.repeat(sizes, sizes)
    local = np.arange(n) - first
    split = feature >= 0
    bad = (feature < -1) | (feature >= num_features)
    bad |= ~split & ((left != -1) | (right != -1))
    linked = (local < left) & (left < size) & (local < right) & (right < size)
    bad |= split & ~linked
    parents = split & linked
    children = np.concatenate([left[parents], right[parents]]).astype(np.intp)
    children += np.concatenate([first[parents]] * 2)
    bad |= np.bincount(children, minlength=n) > 1
    bad |= ~np.isfinite(threshold)
    bad |= ~((weight > 0.0) & (weight < np.inf))
    bad |= ~((fraction >= 0.0) & (fraction <= 1.0))
    if bad.any():
        tree = int(np.searchsorted(offsets, np.argmax(bad), side="right")) - 1
        lo, hi = offsets[tree : tree + 2].tolist()
        raise ConfigError(_tree_fault([values[lo:hi] for values in lists], num_features))
    return tuple(columns), offsets


def forest_to_dict(model: ForestModel) -> dict:
    return {
        "format": FOREST_FORMAT,
        "version": FOREST_VERSION,
        "action_id": model.action_id,
        "num_features": model.num_features,
        "fingerprint": model.fingerprint,
        "params": asdict(model.params),
        "offsets": model.offsets.tolist(),
        **{name: column.tolist() for name, column in zip(TREE_COLUMNS, model.columns)},
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
        num_features = check_int("num_features", data["num_features"], None)
        columns, offsets = _read_columns(data, num_features)
        return ForestModel(
            action_id=check_str("action_id", data["action_id"]),
            columns=columns,
            offsets=offsets,
            params=params,
            num_features=num_features,
            fingerprint=check_str("fingerprint", data.get("fingerprint", "")),
        )
    except KeyError as exc:
        raise ConfigError(f"malformed forest: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed forest: {exc}") from None


def save_forest(model: ForestModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(forest_to_dict(model), sort_keys=True) + "\n", encoding="utf-8"
    )


def load_forest(path: str | Path) -> ForestModel:
    data = read_json(path, ConfigError)
    with prefixed(path):
        return forest_from_dict(data)
