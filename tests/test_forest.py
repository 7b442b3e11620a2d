from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import json
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from boxact import forest
from boxact.errors import ConfigError, ContractError
from boxact.forest import (
    FOREST_FORMAT,
    FOREST_VERSION,
    TREE_COLUMNS,
    ForestParams,
    _best_splits,
    _first_lowest,
    _run_sums,
    _search_table,
    forest_from_dict,
    forest_to_dict,
    grow_forests,
    layout_fingerprint,
    load_forest,
    predict_proba,
    save_forest,
    train_forest,
    train_tree,
)

from oracles import (
    best_split_reference,
    first_lowest_reference,
    forest_from_dict_reference,
    forest_trees_reference,
    grow_tree_reference,
    predict_proba_reference,
)

SEPARABLE = (np.array([[1.0], [2.0], [8.0], [9.0]]), np.array([0, 0, 1, 1]))
ONE_TREE = ForestParams(num_trees=1, features_per_split=1, bootstrap=False, seed=0)


def _same_forest(a, b) -> bool:
    """Every field and node value alike: the trees' repr tells -0.0 from 0.0,
    and the JSON of the whole model tells 1 from 1.0."""
    same_json = json.dumps(forest_to_dict(a)) == json.dumps(forest_to_dict(b))
    return same_json and repr(a.trees) == repr(b.trees)


def test_params_validation():
    for bad in (
        dict(num_trees=0),
        dict(min_samples_split=1),
        dict(max_depth=0),
        dict(features_per_split=0),
        dict(features_per_split="cube"),
        dict(class_weight="equal"),
        dict(num_trees=2.5),
        dict(num_trees=True),
        dict(max_depth=2.5),
        dict(min_samples_split=2.5),
        dict(features_per_split=True),
        dict(features_per_split=2.0),
        dict(seed=-1),
        dict(seed=0.5),
    ):
        with pytest.raises(ConfigError):
            ForestParams(**bad)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_numpy_integer_params_act_as_python_ints(tmp_path, kind):
    rng = np.random.default_rng(5)
    values = rng.choice([0.0, 1.0, 2.5], size=(30, 6))
    labels = (rng.uniform(size=30) < 0.4).astype(int)
    fields = dict(num_trees=3, max_depth=4, min_samples_split=3, features_per_split=2, seed=5)
    plain = ForestParams(**fields)
    params = ForestParams(**{name: kind(value) for name, value in fields.items()})
    assert params == plain and all(type(getattr(params, name)) is int for name in fields)
    want = train_forest(values, labels, plain, "a")
    got = train_forest(values, labels, params, "a")
    assert got.params == want.params and repr(got.trees) == repr(want.trees)
    save_forest(want, tmp_path / "want.json")
    save_forest(got, tmp_path / "got.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert _same_forest(load_forest(tmp_path / "got.json"), want)


def test_resolve_features_per_split():
    assert ForestParams(features_per_split="sqrt").resolve_features_per_split(9) == 3
    assert ForestParams(features_per_split="sqrt").resolve_features_per_split(2) == 1
    assert ForestParams(features_per_split=10).resolve_features_per_split(4) == 4


def test_separable_split_lands_between_the_classes():
    model = train_forest(*SEPARABLE, ONE_TREE)
    tree = model.trees[0]
    assert tree.feature == (0, -1, -1)
    assert tree.threshold[0] == 5.0  # midpoint of 2 and 8
    assert (tree.left, tree.right) == ((1, -1, -1), (2, -1, -1))
    assert tree.fraction == (0.5, 0.0, 1.0)
    assert tree.weight == (4.0, 2.0, 2.0)
    # the left branch is inclusive of the threshold itself
    assert predict_proba(model, np.array([5.0])) == 0.0
    assert predict_proba(model, np.array([5.0 + 1e-9])) == 1.0


def test_tied_gini_prefers_lowest_feature_index():
    values = np.hstack([SEPARABLE[0], SEPARABLE[0]])
    params = ForestParams(num_trees=1, features_per_split=2, bootstrap=False, seed=0)
    model = train_forest(values, SEPARABLE[1], params)
    assert model.trees[0].feature[0] == 0


def test_min_samples_split_stops_growth():
    params = ForestParams(
        num_trees=1, min_samples_split=5, features_per_split=1, bootstrap=False
    )
    model = train_forest(*SEPARABLE, params)
    assert model.trees[0].feature == (-1,)
    assert model.trees[0].fraction == (0.5,)
    assert predict_proba(model, np.array([100.0])) == 0.5


def test_max_depth_one_gives_a_stump():
    rng = np.random.default_rng(0)
    values = rng.uniform(size=(40, 3))
    labels = (values[:, 0] + values[:, 1] > 1.0).astype(int)
    params = ForestParams(num_trees=3, max_depth=1, bootstrap=False, features_per_split=3)
    model = train_forest(values, labels, params)
    for tree in model.trees:
        assert tree.feature[0] >= 0 and tree.feature[1:] == (-1, -1)


def test_single_class_training_is_rejected():
    with pytest.raises(ContractError, match="needs both classes"):
        train_forest(np.zeros((4, 2)), np.ones(4, dtype=int))


def test_shape_validation():
    with pytest.raises(ContractError):
        train_forest(np.zeros((4, 2)), np.zeros((3,), dtype=int))
    model = train_forest(*SEPARABLE, ONE_TREE)
    with pytest.raises(ContractError, match="expects 1 features"):
        predict_proba(model, np.zeros(2))
    with pytest.raises(ContractError, match="finite"):
        predict_proba(model, np.array([np.nan]))
    values, labels = SEPARABLE
    for bad_values, bad_labels, message in (
        (values, np.array([0, 0, 2, 1]), "labels 0 or 1"),
        (values, np.array([0, 0, -1, 1]), "labels 0 or 1"),
        (np.array([[1.0], [np.nan], [8.0], [9.0]]), labels, "finite"),
        (np.array([[1.0], [2.0], [np.inf], [9.0]]), labels, "finite"),
        (np.zeros((4, 0)), labels, "at least one feature"),
    ):
        for params in (ONE_TREE, replace(ONE_TREE, class_weight="balanced")):
            with pytest.raises(ContractError, match=message):
                train_forest(bad_values, bad_labels, params)


@pytest.mark.parametrize(
    "weights",
    [np.zeros(4), -np.ones(4), np.array([1.0, 1.0, np.inf, 1.0]),
     np.array([1.0, np.nan, 1.0, 1.0]), np.array([1e308, 1e308, 1.0, 1.0]),
     np.ones(3), np.ones((4, 1))],
)
def test_train_tree_rejects_bad_weights(weights):
    with pytest.raises(ContractError, match="weights"):
        train_tree(*SEPARABLE, ForestParams(), np.random.default_rng(0), weights)


def test_random_labels_predict_near_the_base_rate():
    rng = np.random.default_rng(7)
    values = rng.uniform(size=(200, 5))
    labels = (rng.uniform(size=200) < 0.3).astype(int)
    model = train_forest(values, labels, ForestParams(num_trees=25, seed=1))
    mean_proba = np.mean([predict_proba(model, v) for v in values])
    assert abs(mean_proba - labels.mean()) < 0.1


def test_balanced_class_weight_recentres_the_root():
    values = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = np.array([1, 0, 0, 0])
    stump = dict(num_trees=1, min_samples_split=10, features_per_split=1, bootstrap=False)
    plain = train_forest(values, labels, ForestParams(**stump))
    balanced = train_forest(values, labels, ForestParams(**stump, class_weight="balanced"))
    assert plain.trees[0].fraction == (0.25,)
    assert balanced.trees[0].fraction[0] == pytest.approx(0.5)


def test_training_is_deterministic_in_the_seed():
    rng = np.random.default_rng(3)
    values = rng.uniform(size=(60, 4))
    labels = (values[:, 0] > 0.5).astype(int)
    a = train_forest(values, labels, ForestParams(num_trees=8, seed=5))
    b = train_forest(values, labels, ForestParams(num_trees=8, seed=5))
    c = train_forest(values, labels, ForestParams(num_trees=8, seed=6))
    probe = rng.uniform(size=(50, 4))
    assert all(predict_proba(a, v) == predict_proba(b, v) for v in probe)
    assert any(predict_proba(a, v) != predict_proba(c, v) for v in probe)


def test_row_order_does_not_matter_without_bootstrap():
    rng = np.random.default_rng(11)
    values = rng.uniform(size=(50, 4))
    labels = (values[:, 1] > 0.6).astype(int)
    params = ForestParams(num_trees=4, bootstrap=False, features_per_split=4, seed=2)
    model = train_forest(values, labels, params)
    perm = rng.permutation(50)
    shuffled = train_forest(values[perm], labels[perm], params)
    probe = rng.uniform(size=(40, 4))
    assert all(predict_proba(model, v) == predict_proba(shuffled, v) for v in probe)


# --- split search -------------------------------------------------------------------

# few distinct values, so rows tie and columns repeat; -0.0 ties with 0.0
FEW_VALUES = [-2.0, -0.0, 0.0, 0.1, 0.2, 0.3, 1.0, 7.5]
SPLIT_VALUES = st.one_of(
    st.sampled_from(FEW_VALUES),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@st.composite
def split_batches(draw):
    """One training matrix and a batch of nodes on it, of 2 to 40 rows each.

    Many columns may be constant, and a node's rows may come from only 1 to
    3 distinct training rows, so that most batches hold lanes (node,
    candidate feature) that are constant on their node next to lanes that
    vary.
    """
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=30))
    # hypothesis's arrays mostly repeat one fill value; a seeded draw of few
    # values varies on nearly every column
    seeded = st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).choice(FEW_VALUES, size=(n, d))
    )
    values = draw(seeded | hnp.arrays(np.float64, (n, d), elements=SPLIT_VALUES))
    column = st.integers(0, d - 1)
    many = st.lists(column, min_size=d // 2, max_size=d - 1)
    for col in draw(st.lists(column, max_size=3) | many):
        values[:, col] = values[0, col]  # constant column
    for src, dst in draw(st.lists(st.tuples(column, column), max_size=3)):
        values[:, dst] = values[:, src]  # duplicated column: a cross-feature tie
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    n_pos = int(labels.sum())
    if draw(st.booleans()) and 0 < n_pos < n:  # as class_weight="balanced" sets them
        weights = np.where(labels == 1, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    else:
        weights = np.ones(n)
    m = draw(st.integers(min_value=1, max_value=d))
    # rows repeat as in a bootstrap sample; sizes differ, so most nodes are padded
    row = st.integers(0, n - 1)
    node_rows = st.lists(row, min_size=2, max_size=40)
    # a node on 1 to 3 distinct rows, on which most or all features are constant
    few_rows = st.lists(row, min_size=1, max_size=3, unique=True).flatmap(
        lambda few: st.lists(st.sampled_from(few), min_size=2, max_size=40)
    )
    batch = draw(st.lists(node_rows, min_size=2, max_size=6))
    batch = draw(st.permutations(batch + draw(st.lists(few_rows, max_size=3))))
    nodes = []
    for rows in batch:
        candidates = draw(st.permutations(range(d)))[:m]
        nodes.append((np.array(rows), float(weights[rows].sum()), np.array(candidates)))
    return values, labels, weights, nodes


def _searched_in_one_batch(values, labels, weights, nodes) -> list:
    """Each node's (impurity, feature, threshold) from one :func:`_best_splits`
    call, or None where it has no split."""
    rows, totals, candidates = zip(*nodes)
    # numpy warns of every floating-point error but underflow, which a
    # midpoint of subnormal values may meet
    with np.errstate(all="raise", under="ignore"):
        impurity, feature, threshold = _best_splits(
            _search_table(values, labels, weights),
            np.concatenate(rows),
            np.array([r.size for r in rows]),
            np.array(totals),
            np.array(candidates),
        )
    return [
        (float(impurity[i]), int(feature[i]), float(threshold[i])) if feature[i] >= 0 else None
        for i in range(len(nodes))
    ]


# a midpoint of -0.0 and the smallest subnormal underflows to 0.0
SUBNORMAL_MIDPOINT = (
    np.array([[-0.0], [5e-324]]),
    np.array([0, 0]),
    np.ones(2),
    [(np.array([0, 0]), 2.0, np.array([0])), (np.array([0, 1]), 2.0, np.array([0]))],
)


@given(split_batches())
@example(SUBNORMAL_MIDPOINT)
@settings(max_examples=300, deadline=None)
def test_best_split_matches_the_per_feature_loop(batch):
    values, labels, weights, nodes = batch
    got = _searched_in_one_batch(values, labels, weights, nodes)
    for i, (rows, _, candidates) in enumerate(nodes):
        sample = (values[rows], labels[rows], weights[rows])
        want = best_split_reference(*sample, candidates)
        assert repr(got[i]) == repr(want)  # repr also tells -0.0 from 0.0


# column 0 is constant, and column 2 is constant on rows 0 to 2 (-0.0 ties with 0.0)
CONSTANT_LANES = (
    np.array([[0.0, 1.0, -0.0], [0.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 4.0, 5.0]]),
    np.array([0, 1, 1, 0]),
    np.ones(4),
)


def _node(rows, candidates) -> tuple:
    rows = np.array(rows)
    return rows, float(CONSTANT_LANES[2][rows].sum()), np.array(candidates)


def test_batch_in_which_no_lane_varies_has_no_split():
    # both nodes hold both classes, but none of their candidates varies on them
    nodes = [_node([0, 1], [0, 2]), _node([2, 2, 0], [2, 0])]
    assert _searched_in_one_batch(*CONSTANT_LANES, nodes) == [None, None]


def test_batch_of_a_node_with_no_varying_lane_and_one_that_splits():
    nodes = [_node([0, 1], [0, 2]), _node([0, 1, 3, 3], [2, 1])]
    got = _searched_in_one_batch(*CONSTANT_LANES, nodes)
    rows, _, candidates = nodes[1]
    want = best_split_reference(*(column[rows] for column in CONSTANT_LANES), candidates)
    assert got[0] is None and want is not None
    assert repr(got[1]) == repr(want)


# offsets from a matrix's base impurity: below, at and above the rule's 1e-12 margin
GAPS = [0.0, 3e-13, -3e-13, 9e-13, -9e-13, 1e-12, -1e-12, 1.5e-12, -1.5e-12, 2e-12, -2e-12, 3e-12]


@st.composite
def gini_matrices(draw):
    """Impurities of lanes (node, feature) that lie within a few 1e-12 of one
    another.  Invalid lanes hold +inf; a valid one may hold inf or NaN, as
    weights near overflow give, or a value outside [0, 0.5]."""
    count = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    base = draw(st.floats(0.0, 0.5))
    near = st.sampled_from(GAPS).map(lambda gap: base + gap)
    cell = near | st.floats(0.0, 0.5) | st.sampled_from([np.inf, np.nan, 7.0, -3.0])
    gini = np.array(draw(st.lists(cell, min_size=count * m, max_size=count * m)))
    gini = gini.reshape(count, m)
    valid = draw(hnp.arrays(bool, (count, m)))
    gini[~valid] = np.inf
    return gini, valid


@given(gini_matrices())
# argmin takes column 1, but it is lower by less than 1e-12, so column 0 stays
@example((np.array([[0.25, 0.25 - 5e-13]]), np.array([[True, True]])))
@settings(max_examples=300, deadline=None)
def test_feature_pick_equals_the_sequential_scan(matrix):
    gini, valid = matrix
    assert _first_lowest(gini, valid).tolist() == first_lowest_reference(gini, valid)


def test_forests_whose_constant_columns_differ_grow_as_alone():
    """Forests grown in one pass, each constant on other columns, equal each
    forest grown alone and the one-tree-at-a-time reference."""
    rng = np.random.default_rng(9)
    choices = [-1.0, -0.0, 0.0, 0.5, 2.0, 3.5]
    a, b, c = (rng.choice(choices, size=(36, d)) for d in (8, 8, 7))
    for block in (a, b, c):
        block[:, 2] = 0.5  # constant on all three
    a[:, 3] = 1.0  # constant on A, varies on B, which it predicts
    b[:, 5] = -1.0  # constant on B, varies on A, which it predicts
    c[:, 6] = rng.choice([-0.0, 0.0], size=36)  # -0.0 ties with 0.0: constant on C
    labels = {
        "a": ((a[:, 5] > 0.7) ^ (rng.uniform(size=36) < 0.1)).astype(int),
        "b": ((b[:, 3] > 0.7) ^ (rng.uniform(size=36) < 0.1)).astype(int),
        "c": (rng.uniform(size=36) < 0.4).astype(int),
    }
    samples = {key: (values, labels[key]) for key, values in zip("abc", (a, b, c))}
    for bootstrap, class_weight in itertools.product([True, False], [None, "balanced"]):
        params = ForestParams(num_trees=6, seed=2, bootstrap=bootstrap, class_weight=class_weight)
        grown = grow_forests(samples, params)
        for key, (values, y) in samples.items():
            # repr also tells -0.0 from 0.0
            got = repr(grown[key].trees)
            assert got == repr(train_forest(values, y, params).trees)
            assert got == repr(forest_trees_reference(values, y, params))


@pytest.mark.parametrize("class_weight", [None, "balanced"])
@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize(
    "shape",
    [{}, dict(max_depth=3, min_samples_split=5), dict(features_per_split=5)],
)
def test_lockstep_forest_equals_trees_grown_one_by_one(class_weight, bootstrap, shape):
    rng = np.random.default_rng(4)
    values = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0, 3.5], size=(40, 12))
    values[:, 7] = values[:, 2]  # duplicated column
    values[:, 9] = 1.0  # constant column
    labels = (rng.uniform(size=40) < 0.35).astype(int)
    params = ForestParams(
        num_trees=15, seed=3, bootstrap=bootstrap, class_weight=class_weight, **shape
    )
    model = train_forest(values, labels, params)
    # repr also tells -0.0 from 0.0
    assert repr(model.trees) == repr(forest_trees_reference(values, labels, params))


@pytest.mark.parametrize("lanes", [1, 200])
def test_split_search_in_small_batches_grows_the_same_forest(monkeypatch, lanes):
    # 1 searches every node alone; 200 splits the roots one per batch and
    # groups the smaller nodes of later steps
    rng = np.random.default_rng(7)
    values = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0, 3.5], size=(60, 10))
    labels = (rng.uniform(size=60) < 0.4).astype(int)
    params = ForestParams(num_trees=12, seed=1, class_weight="balanced")
    want = train_forest(values, labels, params)
    assert max(len(t.feature) for t in want.trees) > 3  # several steps
    monkeypatch.setattr(forest, "_SEARCH_ENTRIES", lanes)
    assert repr(train_forest(values, labels, params).trees) == repr(want.trees)


# (case, params, sha256 of the forests' column and offset bytes, sha256 of their probabilities)
FOREST_DIGESTS = [
    ("default", ForestParams(),
     "c2b5ebb686795971e18a7c2b66238a8631ef06b0753a1721a14206c4a682be64",
     "a7a075ca52b1d00d2365811ca0880a4d24a373ea298e64ab512dac9a5afea932"),
    ("balanced-unbootstrapped-depth4",
     ForestParams(num_trees=50, max_depth=4, features_per_split=3, bootstrap=False,
                  class_weight="balanced", seed=11),
     "6d5dc9a395f09e3179cfefc1a8a75ba60bfc92ff509b7d3a16ea11548621cca5",
     "309394fbccf66b156c9f00f74f6db1a7b66212284e4d60015d474678d86f08e9"),
]


@pytest.mark.parametrize(
    "case, params, forests_digest, proba_digest", FOREST_DIGESTS, ids=[c[0] for c in FOREST_DIGESTS]
)
def test_forest_digest_is_pinned(case, params, forests_digest, proba_digest):
    """Every bit of grown forests and their probabilities, on fixed inputs.

    The inputs go through no relation or phase code, so these bytes depend
    on nothing but the forest, and not on the forest file's format.  CI runs
    this file again under other numpy SIMD targets.  Update a digest only for
    an intended change of results.
    """
    rng = np.random.default_rng(5)
    normal = rng.normal(size=(45, 16))
    normal[:, 3] = 0.25  # constant column
    discrete = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0, 3.5], size=(45, 16))
    discrete[:, 10] = 1.0
    samples = {
        "normal": (normal, (normal[:, 0] + rng.normal(size=45) > 0.3).astype(int)),
        "discrete": (discrete, (rng.uniform(size=45) < 0.3).astype(int)),
    }
    grown = grow_forests(samples, params)
    columns = b"".join(
        array.tobytes() for model in grown.values() for array in (*model.columns, model.offsets)
    )
    probe = rng.normal(size=(20, 16))
    proba = b"".join(
        predict_proba(grown[action], np.vstack([values, probe])).tobytes()
        for action, (values, _) in samples.items()
    )
    assert (hashlib.sha256(columns).hexdigest(), hashlib.sha256(proba).hexdigest()) == (
        forests_digest,
        proba_digest,
    )


def _draw_training_set(draw, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, d) values with constant and duplicated columns; labels of both classes."""
    values = draw(hnp.arrays(np.float64, (n, d), elements=SPLIT_VALUES))
    column = st.integers(0, d - 1)
    for col in draw(st.lists(column, max_size=2)):
        values[:, col] = values[0, col]
    for src, dst in draw(st.lists(st.tuples(column, column), max_size=2)):
        values[:, dst] = values[:, src]
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    labels[draw(st.integers(1, n - 1))] = 1 - labels[0]  # both classes
    return values, labels


def _draw_params(draw, max_features: int) -> ForestParams:
    integer = lambda lo, hi: st.integers(lo, hi) | st.integers(lo, hi).map(np.int64)
    return ForestParams(
        num_trees=draw(integer(1, 20)),
        max_depth=draw(st.none() | integer(1, 8) | st.just(BIG)),
        min_samples_split=draw(integer(2, 30) | st.just(BIG)),
        features_per_split=draw(st.just("sqrt") | integer(1, max_features + 2) | st.just(BIG)),
        bootstrap=draw(st.booleans()),
        seed=draw(integer(0, 2**32)),
        class_weight=draw(st.sampled_from([None, "balanced"])),
    )


@st.composite
def growth_cases(draw):
    """A training set, forest parameters and arbitrary positive row weights."""
    n = draw(st.integers(min_value=2, max_value=160))  # 128 rows fill one pairwise block
    d = draw(st.integers(min_value=1, max_value=8))
    values, labels = _draw_training_set(draw, n, d)
    params = _draw_params(draw, d)
    weight = st.sampled_from([0.1, 1.0, 1.0 / 3.0, 7.0]) | st.floats(1e-3, 1e3)
    weights = draw(hnp.arrays(np.float64, n, elements=weight))
    return values, labels, params, weights


@st.composite
def joint_growth_cases(draw):
    """1 to 5 training sets of their own sizes, and one set of forest parameters.

    The feature counts give 1 to 5 candidates per split under "sqrt", so
    forests grown together mostly draw unequal numbers of them.
    """
    shapes = st.tuples(st.integers(2, 60), st.sampled_from([1, 2, 4, 5, 9, 16, 20, 30]))
    samples = {
        f"action{i}": _draw_training_set(draw, *draw(shapes))
        for i in range(draw(st.integers(1, 5)))
    }
    params = _draw_params(draw, max(v.shape[1] for v, _ in samples.values()))
    return samples, params


@given(growth_cases())
@settings(max_examples=60, deadline=None)
def test_grower_equals_trees_grown_one_by_one(case):
    values, labels, params, weights = case
    model = train_forest(values, labels, params)
    # repr also tells -0.0 from 0.0
    assert repr(model.trees) == repr(forest_trees_reference(values, labels, params))
    tree = train_tree(values, labels, params, np.random.default_rng(params.seed), weights)
    want = grow_tree_reference(values, labels, weights, params, np.random.default_rng(params.seed))
    assert repr(tree) == repr(want)


def _unequal_candidates_case():
    """Four forests drawing 2, 3, 4 and 5 candidates per split, all of which split."""
    rng = np.random.default_rng(1)
    samples = {
        f"action{d}": (
            rng.choice([-1.0, 0.0, 0.5, 2.0], size=(40, d)),
            (rng.uniform(size=40) < 0.4).astype(int),
        )
        for d in (4, 9, 16, 25)
    }
    return samples, ForestParams(num_trees=5, seed=0)


@given(joint_growth_cases())
@example(_unequal_candidates_case())
@settings(max_examples=60, deadline=None)
def test_forests_grown_together_equal_forests_grown_one_by_one(case):
    samples, params = case
    grown = grow_forests(samples, params)
    assert list(grown) == list(samples)
    for action, (values, labels) in samples.items():
        assert grown[action].num_features == values.shape[1]
        # repr also tells -0.0 from 0.0
        assert repr(grown[action].trees) == repr(forest_trees_reference(values, labels, params))


@pytest.mark.parametrize(
    "features, num_trees, max_depth, mib",
    [(205, 200, 1, 160), (14, 50, 6, 30)],
    ids=["stumps", "depth6"],
)
def test_search_memory_stays_bounded_as_forests_are_added(features, num_trees, max_depth, mib):
    # the search of a step's root nodes is batched, so growing five forests
    # together adds only the rows and their indices; one batch over all 1,000
    # stumps' roots would hold several (1000, 14, 1500) arrays, hundreds of
    # MiB more.  A split partitions its node's rows in place, so deeper trees
    # hold one fixed pool of row indices, one run per tree, which never grows
    rng = np.random.default_rng(0)
    samples = {
        str(k): (rng.normal(size=(1500, features)), (rng.uniform(size=1500) < 0.3).astype(int))
        for k in range(5)
    }
    params = ForestParams(num_trees=num_trees, max_depth=max_depth)
    tracemalloc.start()
    try:
        grown = grow_forests(samples, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(model.trees) == num_trees for model in grown.values())
    assert peak < mib * 2**20


def _grown_on_an_empty_table(samples, params):
    """``grow_forests`` on a new table, which is then kept."""
    forest._table.cache_clear()
    return grow_forests(samples, params)


@st.composite
def table_call_sequences(draw):
    """Training calls that often share a seed, a tree count, row and feature counts.

    A call under the (seed, num_trees) of the call before reads the sets that
    call made, and forests of one call share the lines of equal (n, d, m).
    """
    keys = st.sampled_from([(0, 4), (0, 7), (9, 4)])
    calls = []
    for _ in range(draw(st.integers(2, 4))):
        seed, num_trees = draw(keys)
        samples = {
            f"action{i}": _draw_training_set(
                draw, draw(st.sampled_from([5, 12, 30])), draw(st.sampled_from([1, 4, 9, 16]))
            )
            for i in range(draw(st.integers(1, 3)))
        }
        params = ForestParams(
            num_trees=num_trees,
            seed=seed,
            bootstrap=draw(st.booleans()),
            class_weight=draw(st.sampled_from([None, "balanced"])),
            features_per_split=draw(st.sampled_from(["sqrt", 2, 5])),
        )
        calls.append((samples, params))
    return calls


def _tail_shuffle_calls():
    """Two calls on one line that numpy samples by its tail shuffle: d = 10001 >
    10000 and m = 201 > d // 50.  In the second, forest b reads the sets that
    forest a made in the first and makes more."""
    rng = np.random.default_rng(2)
    a = (rng.choice([0.0, 1.0, 2.0], size=(6, 10_001)), np.array([0, 1, 0, 1, 1, 0]))
    b = (rng.normal(size=(12, 10_001)), np.resize([0, 1, 1, 0], 12))
    params = ForestParams(num_trees=2, seed=0, features_per_split=201, bootstrap=False)
    return [({"a": a}, params), ({"a": a, "b": b}, params)]


@given(table_call_sequences())
@example(_tail_shuffle_calls())
@settings(max_examples=40, deadline=None)
def test_forests_read_from_a_kept_table_equal_forests_grown_on_an_empty_one(calls):
    for samples, params in calls:
        grown = grow_forests(samples, params)
        cold = _grown_on_an_empty_table(samples, params)
        for action, (values, labels) in samples.items():
            assert _same_forest(grown[action], cold[action])
            # repr also tells -0.0 from 0.0
            assert repr(grown[action].trees) == repr(forest_trees_reference(values, labels, params))


def _table_samples(seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(seed)
    return {
        f"action{d}": (
            rng.choice([-1.0, 0.0, 0.5, 2.0, 3.5], size=(30, d)),
            np.resize([0, 1, 1], 30),
        )
        for d in (9, 16, 16)
    }


def test_a_repeated_call_makes_no_new_draw(monkeypatch):
    forest._table.cache_clear()
    samples, params = _table_samples(3), ForestParams(num_trees=20, seed=4)
    want = grow_forests(samples, params)

    def draw_again(*args, **kwargs):
        raise AssertionError("the table made a draw it holds")

    monkeypatch.setattr(np.random, "SeedSequence", draw_again)
    monkeypatch.setattr(forest, "_generator", draw_again)
    monkeypatch.setattr(forest._Draws, "_extend", draw_again)
    got = grow_forests(samples, params)
    assert all(_same_forest(got[action], want[action]) for action in samples)


def test_threads_growing_under_one_seed_at_once_give_the_serial_result():
    cases = [_table_samples(seed) for seed in range(3)]
    params = ForestParams(num_trees=25, seed=6)
    want = [_grown_on_an_empty_table(samples, params) for samples in cases]
    forest._table.cache_clear()
    got: dict[int, dict] = {}

    def grow(i: int) -> None:
        got[i] = grow_forests(cases[i % len(cases)], params)

    # more threads than cores, switching often, all on one new table
    threads = [threading.Thread(target=grow, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(got) == list(range(len(threads)))
    for i, grown in got.items():
        expected = want[i % len(cases)]
        assert all(_same_forest(grown[action], expected[action]) for action in expected)


@pytest.mark.parametrize("seed, num_trees", [(2, 3), (1, 4)])
def test_a_call_under_another_seed_or_tree_count_drops_the_table(seed, num_trees):
    samples = _table_samples(0)
    grow_forests(samples, ForestParams(num_trees=3, seed=1))
    old = weakref.ref(forest._table(1, 3))
    grow_forests(samples, ForestParams(num_trees=num_trees, seed=seed))
    gc.collect()
    assert old() is None
    hits = forest._table.cache_info().hits
    forest._table(seed, num_trees)
    assert forest._table.cache_info().hits == hits + 1


@pytest.mark.parametrize("n", [1, 256, 257, 65_537])
def test_a_kept_bootstrap_and_the_sets_after_it_are_numpys_own(n):
    # row counts at the edges of the smallest types that the rows are kept in
    streams = np.random.SeedSequence(5).spawn(3)
    draws = forest._Draws(np.random.PCG64, [np.random.PCG64(s).state for s in streams])
    got = draws.bootstrap(n)
    line = np.full(3, draws.line(n, 20, 4))
    chosen = [draws.candidates(line, np.arange(3), np.full(3, i), 5, -1) for i in range(2)]
    for k, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        assert got[k].tolist() == rng.integers(0, n, size=n).tolist()
        for sets in chosen:
            assert sets[k].tolist() == rng.choice(20, 4, replace=False).tolist() + [-1]


def _generator(seed: int, words: int) -> np.random.Generator:
    """A generator on ``seed`` that has read ``words`` 32-bit words."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**32, size=words, dtype=np.uint32)
    return rng


@pytest.mark.parametrize("half_word", [False, True])
def test_train_tree_leaves_the_generator_where_numpy_leaves_it(half_word):
    # one word read first leaves PCG64 holding the other half of a 64-bit draw
    rng = np.random.default_rng(12)
    values = rng.choice([-1.0, 0.0, 0.5, 2.0, 3.5], size=(50, 30))
    labels = (rng.uniform(size=50) < 0.4).astype(int)
    params = ForestParams(num_trees=1, seed=0)
    grown, reference = _generator(3, int(half_word)), _generator(3, int(half_word))
    assert grown.bit_generator.state["has_uint32"] == int(half_word)
    tree = train_tree(values, labels, params, grown)
    want = grow_tree_reference(values, labels, np.ones(50), params, reference)
    assert repr(tree) == repr(want)
    assert len(tree.feature) > 5
    assert grown.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize(
    "kind", [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM]
)
def test_train_tree_on_other_bit_generators_draws_as_numpy_does(kind):
    # the table copies the caller's generator by its state, whatever its kind
    rng = np.random.default_rng(5)
    values = rng.choice([-1.0, 0.0, 0.5, 2.0, 3.5], size=(50, 30))
    labels = (rng.uniform(size=50) < 0.4).astype(int)
    params = ForestParams(num_trees=1, seed=0)
    grown, reference = np.random.Generator(kind(8)), np.random.Generator(kind(8))
    for generator in (grown, reference):
        generator.integers(0, 2**32, dtype=np.uint32)
    tree = train_tree(values, labels, params, grown)
    want = grow_tree_reference(values, labels, np.ones(50), params, reference)
    assert repr(tree) == repr(want)
    assert len(tree.feature) > 5
    # MT19937's state holds an array, so the next draws are compared instead
    after = [rng.integers(0, 2**32, size=8).tolist() for rng in (grown, reference)]
    assert after[0] == after[1]


@pytest.mark.parametrize("seed", range(4))
def test_grouped_run_sums_keep_numpys_pairwise_order(seed):
    # the grower sums the runs of one length as the rows of one matrix; this
    # holds only while numpy sums each row in the order it sums a 1-D array
    rng = np.random.default_rng(seed)
    n = 500
    labels = rng.uniform(size=n) < 0.3
    balanced = np.where(labels, n / (2.0 * labels.sum()), n / (2.0 * (n - labels.sum())))
    arbitrary = rng.uniform(1e-3, 1e3, size=n) * 10.0 ** rng.integers(-6, 6, size=n)
    sizes = rng.integers(1, 301, size=400)
    sizes[:200] = rng.choice(sizes[:5], size=200)  # many runs of one length
    flat = rng.integers(0, n, size=1000)
    starts = rng.integers(0, flat.size - sizes + 1)
    for weights in (balanced, arbitrary):
        got = _run_sums(weights, flat, starts, sizes)
        want = [weights[flat[a : a + k]].sum() for a, k in zip(starts, sizes)]
        assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize(
    "column",
    [[1.0 + 2**-52, 1.0 + 2**-51],  # the midpoint rounds onto the larger value
     [1e308, 1.7e308], [-1e308, -1.7e308]],  # the midpoint overflows
)
def test_split_whose_midpoint_separates_nothing_leaves_a_leaf(column):
    params = ForestParams(num_trees=1, bootstrap=False)
    model = train_forest(np.array(column)[:, None], np.array([0, 1]), params)
    assert model.trees[0].feature == (-1,) and model.trees[0].fraction == (0.5,)


# --- serialization --------------------------------------------------------------------


def test_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(9)
    values = rng.uniform(size=(80, 6))
    labels = (values[:, 2] > 0.4).astype(int)
    model = train_forest(
        values,
        labels,
        ForestParams(num_trees=10, max_depth=4, seed=3),
        action_id="put-into",
        fingerprint=layout_fingerprint(("x", "y")),
    )
    path = tmp_path / "forest.json"
    save_forest(model, path)
    loaded = load_forest(path)
    assert loaded.action_id == model.action_id
    assert loaded.params == model.params
    assert loaded.fingerprint == model.fingerprint
    probe = rng.uniform(size=(100, 6))
    for v in probe:
        assert predict_proba(loaded, v) == predict_proba(model, v)


def test_deep_tree_trains_and_round_trips_without_recursion(tmp_path):
    # alternating labels on one feature need one split per sample: depth 1499
    values = np.arange(1500.0)[:, None]
    labels = np.arange(1500) % 2
    params = ForestParams(num_trees=1, bootstrap=False)
    assert params.max_depth is None
    model = train_forest(values, labels, params)
    tree = model.trees[0]
    depth = [0] * len(tree.feature)
    for node, f in enumerate(tree.feature):
        if f >= 0:
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    assert max(depth) == 1499 and len(depth) == 2 * 1500 - 1
    path = tmp_path / "deep.json"
    save_forest(model, path)
    loaded = load_forest(path)
    assert _same_forest(loaded, model)
    got = predict_proba(loaded, values)  # 1,499 lockstep passes
    want = np.array([predict_proba_reference(loaded, v) for v in values])
    assert got.tobytes() == predict_proba(model, values).tobytes() == want.tobytes()
    assert got.tobytes() == labels.astype(float).tobytes()
    # a vector descends alone, one pass per level: 30 rows keep this test quick
    assert [predict_proba(loaded, v) for v in values[::50]] == got[::50].tolist()


def test_dict_round_trip_is_exact():
    values = np.random.default_rng(3).normal(size=(40, 4))
    labels = (values[:, 0] > 0).astype(int)
    model = train_forest(values, labels, ForestParams(num_trees=6), action_id="a")
    read = forest_from_dict(forest_to_dict(model))
    assert forest_to_dict(read) == forest_to_dict(model)
    for got, want in zip((*read.columns, read.offsets), (*model.columns, model.offsets)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_layout_fingerprint_is_sensitive():
    fp = layout_fingerprint(("a", "b"))
    assert len(fp) == 16 and int(fp, 16) >= 0
    assert fp != layout_fingerprint(("a", "c"))
    assert fp != layout_fingerprint(("a,b",))  # join must not be ambiguous


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_probabilities_stay_in_range(seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(size=(30, 3))
    labels = np.zeros(30, dtype=int)
    labels[: rng.integers(1, 30)] = 1
    model = train_forest(values, labels, ForestParams(num_trees=5, seed=seed))
    for v in rng.uniform(size=(10, 3)):
        assert 0.0 <= predict_proba(model, v) <= 1.0


BIG = 10**30  # past int64
TOO_BIG = 10**400  # past float64

STUMP = {
    "feature": [0, -1, -1],
    "threshold": [0.5, 0.0, 0.0],
    "left": [1, -1, -1],
    "right": [2, -1, -1],
    "fraction": [0.5, 0.0, 1.0],
    "weight": [2.0, 1.0, 1.0],
}


def _columns(trees: list[dict]) -> dict:
    """The offsets and node columns of trees given one column dict each."""
    offsets = [0, *itertools.accumulate(len(tree["feature"]) for tree in trees)]
    return {"offsets": offsets} | {
        name: [value for tree in trees for value in tree[name]] for name in TREE_COLUMNS
    }


def _forest_doc(*trees: dict, num_features: int = 2) -> dict:
    return {
        "format": FOREST_FORMAT,
        "version": FOREST_VERSION,
        "action_id": "a",
        "num_features": num_features,
        "params": {"num_trees": 1},
        **_columns(list(trees)),
    }


def test_reader_names_the_first_fault_in_tree_and_node_order():
    leaf_with_child = {**STUMP, "left": [1, 2, -1]}
    late_child = {**STUMP, "right": [3, -1, -1], "weight": [0.0, 1.0, 1.0]}
    bad_weight = {**STUMP, "weight": [2.0, 1.0, -1.0]}
    for trees, message in [
        (
            (STUMP, late_child, leaf_with_child),
            "split 0 has children 1, 3; each must come after it and before 3",
        ),
        ((STUMP, leaf_with_child, late_child), "leaf 1 has children 2, -1"),
        ((bad_weight, leaf_with_child), "node weight must be positive and finite"),
    ]:
        with pytest.raises(ConfigError) as got:
            forest_from_dict(_forest_doc(*trees))
        assert str(got.value) == message
        with pytest.raises(ConfigError) as expected:
            forest_from_dict_reference(_forest_doc(*trees))
        assert str(expected.value) == message


def test_reader_compares_column_lengths_before_it_converts_values():
    # the extra value is too large for a float; the length is the first fault
    document = _forest_doc(STUMP)
    document["fraction"].append(10**400)
    for read in (forest_from_dict, forest_from_dict_reference):
        with pytest.raises(ConfigError) as got:
            read(document)
        assert str(got.value) == "tree columns must be non-empty and of equal length"


def test_reader_holds_children_to_their_own_tree():
    # node 4 is in the forest, but tree 0 holds nodes 0-2 only
    document = _forest_doc({**STUMP, "right": [4, -1, -1]}, STUMP)
    message = "split 0 has children 1, 4; each must come after it and before 3"
    for read in (forest_from_dict, forest_from_dict_reference):
        with pytest.raises(ConfigError) as got:
            read(document)
        assert str(got.value) == message


@pytest.mark.parametrize(
    "offsets, message",
    [
        ([0], "forest has no trees"),
        ([], "forest has no trees"),
        ([3], "forest has no trees"),
        ([1, 3, 6], "offsets must run from 0 to the node count 6, got 1 to 6"),
        ([0, 3, 5], "offsets must run from 0 to the node count 6, got 0 to 5"),
        ([0, 3, 7], "offsets must run from 0 to the node count 6, got 0 to 7"),
        ([0, 3, 3, 6], "tree 1 has no nodes: offsets must rise strictly"),
        ([0, 4, 2, 6], "tree 1 has no nodes: offsets must rise strictly"),
        ([0, BIG, 6], "tree 1 has no nodes: offsets must rise strictly"),
        ([0, 3, BIG], f"offsets must run from 0 to the node count 6, got 0 to {BIG}"),
    ],
)
def test_reader_checks_the_offsets(offsets, message):
    document = {**_forest_doc(STUMP, STUMP), "offsets": offsets}
    for read in (forest_from_dict, forest_from_dict_reference):
        with pytest.raises(ConfigError) as got:
            read(document)
        assert str(got.value) == message


def test_reader_keeps_integers_past_int64_exact():
    big = 10**30
    with pytest.raises(ConfigError, match=f"node feature index {big} outside embedding length 2"):
        forest_from_dict(_forest_doc(STUMP, {**STUMP, "feature": [big, -1, -1]}))
    with pytest.raises(ConfigError, match=f"split 0 has children 1, {big}"):
        forest_from_dict(_forest_doc({**STUMP, "right": [big, -1, -1]}))
    wide = forest_from_dict(_forest_doc({**STUMP, "feature": [big, -1, -1]}, num_features=2 * big))
    assert wide.trees[0].feature == (big, -1, -1) and wide.num_features == 2 * big
    for values in (np.zeros(2), np.zeros((3, 2))):
        with pytest.raises(ContractError, match=f"expects {2 * big} features"):
            predict_proba(wide, values)
    with pytest.raises(ConfigError, match="malformed forest: int too large to convert to float"):
        forest_from_dict(_forest_doc({**STUMP, "threshold": [10**400, 0.0, 0.0]}))


# --- the reader against the one-tree-at-a-time reference reader -------------------


@st.composite
def tree_dicts(draw, num_features: int) -> dict:
    """One valid tree of up to depth 3 as pre-order columns, grown from a stack."""
    nodes: list[list] = []  # [feature, threshold, left, right, fraction, weight] each
    stack = [(0, -1)]  # (depth, node whose right child this is or -1)
    while stack:
        depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent][3] = len(nodes)
        fraction = draw(st.sampled_from([0, 1, 0.0, 0.25, 1.0]) | st.floats(0, 1))
        weight = draw(st.sampled_from([1, 2.0, 1e-300]) | st.floats(1e-3, 1e3))
        if depth < 3 and draw(st.integers(0, 3)):  # a split, three times in four
            threshold = draw(st.sampled_from([0, -0.0, 1e308]) | st.floats(-10, 10))
            feature = draw(st.integers(0, num_features - 1))
            nodes.append([feature, threshold, len(nodes) + 1, None, fraction, weight])
            stack.append((depth + 1, len(nodes) - 1))
            stack.append((depth + 1, -1))
        else:
            nodes.append([-1, draw(st.sampled_from([0.0, 0])), -1, -1, fraction, weight])
    return dict(zip(TREE_COLUMNS, map(list, zip(*nodes))))


@st.composite
def forest_documents(draw) -> dict:
    num_features = draw(st.integers(1, 5))
    document = {
        "format": FOREST_FORMAT,
        "version": FOREST_VERSION,
        "action_id": "put-into",
        "num_features": num_features,
        "params": {"num_trees": 3, "seed": 2},
        **_columns(draw(st.lists(tree_dicts(num_features), min_size=1, max_size=4))),
    }
    if draw(st.booleans()):
        document["fingerprint"] = "0123abcd"
    return document


# values of the column's own type: the reader's type rules differ from the
# reference's on purpose, so no mutation changes a type
NODE_VALUES = {
    "feature": [-2, -1, 0, 1, 4, 5, BIG, -BIG],
    "left": [-2, -1, 0, 1, 2, 3, 6, BIG, -BIG],
    "threshold": [float("nan"), float("inf"), float("-inf"), TOO_BIG, -0.0, 1e308, 3],
    "fraction": [-0.1, 0, 1, 1.5, float("nan"), -0.0, TOO_BIG],
    "weight": [0, -1.0, 0.0, float("inf"), float("nan"), 1e-300, TOO_BIG, 3],
    "offsets": [-1, 0, 1, 2, 3, 6, BIG],
}
NODE_VALUES["right"] = NODE_VALUES["left"]
FOREST_MUTATIONS = [
    *["node-value"] * 8, "relink", "relink", "next-root", "next-root", "drop-node-value",
    "add-node-value", "offset-value", "offset-value", "drop-offset", "add-offset",
    "empty-tree", "drop-column", "drop-field", "num-features",
    "no-trees", "drop-tree", "copy-tree", "header",
]


def _tree_bounds(document: dict) -> list[tuple[int, int]]:
    """Each tree's (first node, end) if the offsets and columns are well formed, else []."""
    offsets = document.get("offsets")
    lengths = {len(document.get(name, ())) for name in TREE_COLUMNS}
    if not (offsets and offsets[0] == 0 and lengths == {offsets[-1]}):
        return []
    bounds = list(itertools.pairwise(offsets))
    return bounds if all(lo < hi for lo, hi in bounds) else []


def _mutate_forest(draw, document: dict) -> dict:
    """``document`` with one thing changed; lists and dicts change in place."""
    bounds = _tree_bounds(document)
    lo, hi = draw(st.sampled_from(bounds)) if bounds else (0, 0)
    columns = [name for name in TREE_COLUMNS if name in document]
    offsets = document.get("offsets", [])
    kind = draw(st.sampled_from(FOREST_MUTATIONS))
    if kind in ("node-value", "drop-node-value", "add-node-value") and columns:
        name = draw(st.sampled_from(columns))
        column = document[name]
        if kind == "add-node-value":
            column.append(draw(st.sampled_from(NODE_VALUES[name])))
        elif column:
            node = draw(st.integers(0, len(column) - 1))
            if kind == "drop-node-value":
                del column[node]
            else:
                # a tree-local index, its successor, one past its tree's
                # end, and the forest's last node, which lies in another
                # tree when this one is not the last
                local = node - lo if lo <= node < hi else node
                own = [local, local + 1, hi - lo, len(column) - 1 - lo]
                column[node] = draw(st.sampled_from(NODE_VALUES[name] + own))
    elif kind == "relink" and bounds:
        # a split's child becomes another node's child in its tree: two
        # parents, or a child before its parent
        feature, left, right = (document[name][lo:hi] for name in ("feature", "left", "right"))
        splits = [node for node, f in enumerate(feature) if f >= 0]
        children = [c for c in left + right if c >= 0]
        if splits and children:
            column = document[draw(st.sampled_from(["left", "right"]))]
            column[lo + draw(st.sampled_from(splits))] = draw(st.sampled_from(children))
    elif kind == "next-root" and len(bounds) > 1:
        # a split's child becomes the next tree's root: a node of the forest
        # that has no parent, but lies past the end of the split's own tree
        lo, hi = draw(st.sampled_from(bounds[:-1]))
        splits = [node for node in range(lo, hi) if document["feature"][node] >= 0]
        if splits:
            column = document[draw(st.sampled_from(["left", "right"]))]
            column[draw(st.sampled_from(splits))] = hi - lo
    elif kind == "offset-value" and offsets:
        at = draw(st.integers(0, len(offsets) - 1))
        offsets[at] = draw(st.sampled_from(NODE_VALUES["offsets"] + [offsets[at - 1]]))
    elif kind == "drop-offset" and offsets:
        del offsets[draw(st.integers(0, len(offsets) - 1))]
    elif kind == "add-offset" and "offsets" in document:
        at = draw(st.integers(0, len(offsets)))
        offsets.insert(at, draw(st.sampled_from(NODE_VALUES["offsets"])))
    elif kind == "empty-tree" and bounds:
        # the tree's nodes go, and its offset stays: a repeated offset
        for name in columns:
            del document[name][lo:hi]
        after = bounds.index((lo, hi)) + 1
        offsets[after:] = [k - (hi - lo) for k in offsets[after:]]
    elif kind == "drop-column" and columns:
        del document[draw(st.sampled_from(columns))]
    elif kind == "drop-field":
        document.pop(draw(st.sampled_from(sorted(document))))
    elif kind == "num-features":
        document["num_features"] = draw(st.sampled_from([-1, 0, 1, 2, 6, BIG, -BIG]))
    elif kind == "no-trees":
        document |= {"offsets": [0]} | {name: [] for name in columns}
    elif kind in ("drop-tree", "copy-tree") and bounds:
        trees = [{name: document[name][a:b] for name in TREE_COLUMNS} for a, b in bounds]
        tree = trees[bounds.index((lo, hi))]
        if kind == "drop-tree":
            trees.remove(tree)
        else:
            trees.append(copy.deepcopy(tree))
        document |= _columns(trees)
    elif kind == "header":
        key, value = draw(st.sampled_from([
            ("version", 2), ("version", 4), ("format", "boxact-split"),
            ("params", {"num_trees": 0}), ("params", {"depth": 3}),
        ]))
        document[key] = value
    return document


@st.composite
def mutated_forest_documents(draw):
    """A forest document and how many mutations it went through (0-3)."""
    document = draw(forest_documents())
    mutations = draw(st.sampled_from([1, 1, 1, 2, 3, 0]))
    for _ in range(mutations):
        document = _mutate_forest(draw, document)
    return document, mutations


def _outcome(read, document):
    try:
        return read(copy.deepcopy(document)), None
    except Exception as exc:  # noqa: BLE001 - the error class is compared
        return None, exc


@given(mutated_forest_documents())
@settings(max_examples=400, deadline=None)
def test_forest_reader_agrees_with_the_reference_reader(case):
    document, mutations = case
    expected, expected_error = _outcome(forest_from_dict_reference, document)
    got, error = _outcome(forest_from_dict, document)
    assert (error is None) == (expected_error is None), (error, expected_error)
    if error is not None:
        assert type(error) is type(expected_error) is ConfigError
        if mutations <= 1:  # a single fault: the same first offender
            assert str(error) == str(expected_error)
        return
    # the same values of the same types: 1 and 1.0 compare equal but print apart
    assert _same_forest(got, expected)


# --- prediction against the per-tree walk ------------------------------------------


@st.composite
def prediction_cases(draw):
    """A forest read from a document, and rows that often lie exactly on its thresholds."""
    model = forest_from_dict(draw(forest_documents()))
    _, threshold, *_ = model.columns
    on_threshold = st.sampled_from(sorted(set(threshold.tolist())))
    element = on_threshold | st.sampled_from([-0.0, 0.0, -1e308, 1e308]) | st.floats(-20, 20)
    n = draw(st.integers(1, 8))
    return model, draw(hnp.arrays(np.float64, (n, model.num_features), elements=element))


@given(prediction_cases())
@settings(max_examples=150, deadline=None)
def test_matrix_prediction_equals_the_per_tree_walk(case):
    model, rows = case
    want = np.array([predict_proba_reference(model, row) for row in rows])
    assert predict_proba(model, rows).tobytes() == want.tobytes()
    assert np.float64(predict_proba(model, rows[0])).tobytes() == want[0].tobytes()
    assert predict_proba(model, rows[:0]).shape == (0,)


def test_prediction_over_many_trees_keeps_the_bits_of_np_mean():
    # past 8 trees numpy sums a row pairwise, not in order; shallow balanced
    # trees have impure leaves, whose fractions round when summed
    rng = np.random.default_rng(2)
    values = rng.normal(size=(40, 30))
    labels = (values[:, 0] + rng.normal(size=40) > 0.5).astype(int)
    params = ForestParams(num_trees=300, max_depth=2, class_weight="balanced", seed=4)
    model = train_forest(values, labels, params)
    rows = np.vstack([values[:8], rng.normal(size=(24, 30))])
    want = np.array([predict_proba_reference(model, row) for row in rows])
    assert predict_proba(model, rows).tobytes() == want.tobytes()
