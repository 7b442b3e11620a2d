from __future__ import annotations

import numpy as np
import pytest

from boxact import forest
from boxact.errors import ConfigError, ContractError
from boxact.forest import ForestParams
from boxact.phases import (
    ARCHETYPES,
    OBJECT_ORDERS,
    ActionModel,
    Term,
    builtin_model,
    builtin_models,
    model_from_dict,
    model_to_dict,
    save_action_model,
)
from boxact.pipeline import (
    PipelineConfig,
    assign_track,
    embed_all,
    load_models,
    make_provenance,
    predict_set,
    stratified_split,
    train_forests,
)
from boxact.relations import SWAP, relation_keys, relation_table
from boxact.synthetic import generate_dataset

from oracles import (
    assign_with_alternatives_reference,
    embed_video_reference,
    predict_proba_reference,
    score_frames_reference,
)

FAST_FOREST = ForestParams(num_trees=4, seed=0)


def test_config_validation():
    for bad in (
        dict(n=-1),
        dict(n=2.5),
        dict(n=True),
        dict(sigma=0.0),
        dict(sigma=float("nan")),
        dict(sigma=float("inf")),
        dict(sigma=1e300),
        dict(sigma=1000.5),
        dict(embedding_mode="compact"),
        dict(val_fraction=0.0),
        dict(val_fraction=1.0),
        dict(seed=-1),
    ):
        with pytest.raises(ConfigError):
            PipelineConfig(**bad)
    assert PipelineConfig(embedding_mode="scores_only").scores_only
    assert PipelineConfig(sigma=1000.0).sigma == 1000.0
    assert not PipelineConfig().scores_only


def test_provenance_fingerprint_is_pinned():
    # a fingerprint change would mark every written output as stale
    fp = lambda c: make_provenance(c, "train")["config_fingerprint"]
    assert fp(PipelineConfig()) == "5d1b7e3e205b7071"
    assert fp(PipelineConfig(sigma=3.0, embedding_mode="scores_only")) == "746566f19b817a55"


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_numpy_integer_fields_fingerprint_as_python_ints(kind):
    plain = PipelineConfig(n=3, seed=7, forest=ForestParams(num_trees=8, max_depth=5, seed=2))
    forest = ForestParams(num_trees=kind(8), max_depth=kind(5), seed=kind(2))
    config = PipelineConfig(n=kind(3), seed=kind(7), forest=forest)
    assert type(config.n) is int and type(config.seed) is int
    assert make_provenance(config, "train") == make_provenance(plain, "train")


def test_provenance_shape():
    p = make_provenance(PipelineConfig(seed=7), "embed")
    assert set(p) == {"tool", "version", "stage", "config_fingerprint", "seed"}
    assert p["stage"] == "embed" and p["seed"] == 7
    assert len(p["config_fingerprint"]) == 16
    # no timestamps or host details: two calls are identical
    assert p == make_provenance(PipelineConfig(seed=7), "embed")


def test_load_models_builtin_and_files(tmp_path):
    models = load_models("builtin")
    assert set(models) == set(ARCHETYPES)
    save_action_model(models["put-into"], tmp_path / "a.json")
    save_action_model(models["put-behind"], tmp_path / "b.json")
    from_dir = load_models(str(tmp_path))
    assert set(from_dir) == {"put-into", "put-behind"}
    one = load_models(str(tmp_path / "a.json"))
    assert set(one) == {"put-into"}


def test_builtin_models_are_read_once_and_read_only():
    first, second = load_models("builtin"), load_models("builtin")
    assert first is not second  # each caller gets its own dict
    assert all(first[a] is second[a] for a in ARCHETYPES)
    model = first["put-into"]
    with pytest.raises(TypeError):
        model.phases["a"] = ()
    with pytest.raises(TypeError):
        del model.phases["b"]
    assert model_from_dict(model_to_dict(model)) == model
    assert model_to_dict(model) == model_to_dict(builtin_model("put-into"))


def test_load_models_errors(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_models(str(tmp_path / "missing.json"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigError, match="no .json files"):
        load_models(str(empty))
    models = load_models("builtin")
    save_action_model(models["put-into"], tmp_path / "a.json")
    save_action_model(models["put-into"], tmp_path / "b.json")
    with pytest.raises(ConfigError, match="duplicate action model"):
        load_models(f"{tmp_path / 'a.json'},{tmp_path / 'b.json'}")


def test_stratified_split_properties():
    labels = {f"v{i}": ("x" if i < 8 else "y") for i in range(12)}
    train, val = stratified_split(labels, val_fraction=0.25, seed=0)
    assert sorted(train + val) == sorted(labels)
    assert not set(train) & set(val)
    assert train == sorted(train) and val == sorted(val)
    # 8 x-videos -> 2 in val; 4 y-videos -> 1 in val
    val_labels = [labels[v] for v in val]
    assert val_labels.count("x") == 2 and val_labels.count("y") == 1
    assert stratified_split(labels, 0.25, seed=0) == (train, val)
    assert stratified_split(labels, 0.25, seed=1) != (train, val)


def test_stratified_split_never_empties_a_class():
    labels = {"v0": "x", "v1": "x", "v2": "y"}
    train, val = stratified_split(labels, val_fraction=0.9, seed=3)
    assert "y" in {labels[v] for v in train}
    assert "x" in {labels[v] for v in train}
    with pytest.raises(ConfigError):
        stratified_split(labels, 0.0, 0)


def _tiny_corpus(per_archetype=3, archetypes=("put-into", "take-out-of")):
    tracks, _ = generate_dataset(list(archetypes), per_archetype, seed=2)
    labels = {t.video_id: t.label for t in tracks}
    models = {a: builtin_models()[a] for a in archetypes}
    return tracks, labels, models


def test_assign_track_covers_every_model():
    tracks, _, models = _tiny_corpus(per_archetype=1)
    out = assign_track(tracks[0], models)
    assert set(out) == set(models)
    for action, (embedding, assignment) in out.items():
        assert embedding.action_id == action == assignment.action_id
        assert embedding.video_id == tracks[0].video_id
        assert np.all(np.isfinite(embedding.values))


def _same(got, want) -> bool:
    """Equal assignments, ``total_score`` bit for bit."""
    return got == want and np.float64(got.total_score).tobytes() == np.float64(
        want.total_score
    ).tobytes()


def _repeating_model() -> ActionModel:
    """A term twice in one phase and in several phases, and put-into's phase e."""
    touch = Term("touching", ("object1", "hand"), weight=1.5)
    slow = Term("speed", ("hand",), weight=-0.25, threshold=3.0)
    phases = {"a": (touch, touch), "b": (touch, slow, touch), "c": (slow,), "d": (touch, touch)}
    return ActionModel("repeats", {**phases, "e": builtin_model("put-into").phases["e"]})


@pytest.mark.parametrize("mode", ["full", "scores_only"])
def test_adding_models_changes_no_other_models_output(mode):
    # the added models share the builtin models' pass: one reads all 55
    # columns, the other shares terms and rows with itself and with put-into
    tracks, _ = generate_dataset(list(ARCHETYPES), 2, seed=5)
    builtin = builtin_models()
    added = {
        "all-features": ActionModel(
            "all-features", builtin["take-out-of"].phases, extra_features=relation_keys()
        ),
        "repeats": _repeating_model(),
    }
    config = PipelineConfig(embedding_mode=mode)
    alone = embed_all(tracks, builtin, config)
    together = embed_all(tracks, {**builtin, **added}, config)
    for track in tracks:
        for action in builtin:
            (embedding, assignment), (want, want_assignment) = (
                together[track.video_id][action], alone[track.video_id][action]
            )
            assert embedding.values.tobytes() == want.values.tobytes()
            assert _same(assignment, want_assignment)
        for action, model in added.items():
            embedding, assignment = together[track.video_id][action]
            single, single_assignment = assign_track(
                track, {action: model}, config.n, config.sigma, config.scores_only
            )[action]
            assert embedding.values.tobytes() == single.values.tobytes()
            assert _same(assignment, single_assignment)
            # term by term, one model and one object order at a time
            table = relation_table([track], model.thresholds)
            tables = (table, table[:, SWAP])
            matrices = [
                score_frames_reference(model, rel, order, config.sigma)
                for order, rel in zip(OBJECT_ORDERS, tables)
            ]
            want = assign_with_alternatives_reference(*matrices, n=config.n)
            chosen = OBJECT_ORDERS.index(want.object_order)
            values = embed_video_reference(
                want, matrices[chosen], model, tables[chosen], config.scores_only
            )
            assert _same(assignment, want)
            assert embedding.values.tobytes() == values.tobytes()


def test_embed_all_rejects_duplicate_ids():
    tracks, _, models = _tiny_corpus(per_archetype=1)
    config = PipelineConfig(forest=FAST_FOREST)
    with pytest.raises(ContractError, match="duplicate video ids"):
        embed_all([tracks[0], tracks[0]], models, config)


def test_an_error_in_embed_all_names_a_video():
    # a batch's error names the batch's first video, the one the error would
    # have reached first when every track ran alone
    tracks, _, models = _tiny_corpus(per_archetype=1)
    config = PipelineConfig()
    object.__setattr__(config, "sigma", float("nan"))  # past the config's own check
    with pytest.raises(ContractError) as exc:
        embed_all(tracks, models, config)
    assert str(exc.value).startswith(f"video {tracks[0].video_id!r}: sigma must be finite")


def test_train_and_predict_round():
    tracks, labels, models = _tiny_corpus()
    config = PipelineConfig(forest=FAST_FOREST)
    embeddings = embed_all(tracks, models, config)
    forests, skipped, counts = train_forests(embeddings, labels, models, config)
    assert not skipped
    assert set(forests) == set(models)
    for action in models:
        assert counts[action] == {"positive": 3, "negative": 3}
    preds = predict_set(embeddings, labels, forests, models, config)
    assert len(preds) == len(tracks)
    assert preds.actions == tuple(sorted(models))
    for v in preds.videos:
        for p in v.probabilities.values():
            assert 0.0 <= p <= 1.0


def test_no_per_tree_objects_from_growth_through_files_to_prediction(monkeypatch):
    # a forest stays one set of node columns: growth, the file round trip and
    # prediction build no per-tree view
    tracks, labels, models = _tiny_corpus()
    config = PipelineConfig(forest=FAST_FOREST)
    embeddings = embed_all(tracks, models, config)

    def no_tree(*args, **kwargs):
        raise AssertionError("a per-tree object was built")

    monkeypatch.setattr(forest, "Tree", no_tree)
    grown, _, _ = train_forests(embeddings, labels, models, config)
    forests = {a: forest.forest_from_dict(forest.forest_to_dict(f)) for a, f in grown.items()}
    preds = predict_set(embeddings, labels, forests, models, config)
    monkeypatch.undo()
    for video in preds.videos:
        for action, p in video.probabilities.items():
            values = embeddings[video.video_id][action][0].values
            want = predict_proba_reference(grown[action], values)
            assert np.float64(p).tobytes() == np.float64(want).tobytes()


def test_train_forests_skips_single_class_actions():
    tracks, labels, models = _tiny_corpus(per_archetype=2, archetypes=("put-into",))
    models["take-out-of"] = builtin_models()["take-out-of"]
    config = PipelineConfig(forest=FAST_FOREST)
    embeddings = embed_all(tracks, models, config)
    with pytest.warns(UserWarning, match="single-class"):
        forests, skipped, counts = train_forests(embeddings, labels, models, config)
    assert skipped == ["put-into", "take-out-of"]
    assert not forests
    assert counts["take-out-of"] == {"positive": 0, "negative": 2}


def test_predict_rejects_a_stale_embedding_layout():
    tracks, labels, models = _tiny_corpus()
    full = PipelineConfig(forest=FAST_FOREST, embedding_mode="full")
    slim = PipelineConfig(forest=FAST_FOREST, embedding_mode="scores_only")
    full_embeddings = embed_all(tracks, models, full)
    forests, _, _ = train_forests(full_embeddings, labels, models, full)
    slim_embeddings = embed_all(tracks, models, slim)
    with pytest.raises(ContractError, match="retrain"):
        predict_set(slim_embeddings, labels, forests, models, slim)


def test_train_forests_requires_embeddings_for_requested_videos():
    tracks, labels, models = _tiny_corpus(per_archetype=1)
    config = PipelineConfig(forest=FAST_FOREST)
    embeddings = embed_all(tracks, models, config)
    with pytest.raises(ContractError, match="no embeddings for videos"):
        train_forests(embeddings, labels, models, config, video_ids=["ghost"])


def test_train_and_predict_name_what_they_lack():
    tracks, labels, models = _tiny_corpus(per_archetype=1)
    config = PipelineConfig(forest=FAST_FOREST)
    embeddings = embed_all(tracks, models, config)
    forests, _, _ = train_forests(embeddings, labels, models, config)
    first = tracks[0].video_id
    with pytest.raises(ContractError, match=r"no embeddings for videos \['nope'\]"):
        predict_set(embeddings, labels, forests, models, config, video_ids=["nope"])
    with pytest.raises(ContractError, match=r"no labels for videos \['%s'\]" % first):
        train_forests(embeddings, {v: a for v, a in labels.items() if v != first}, models, config)
    partial = dict(embeddings)
    partial[first] = {a: pair for a, pair in embeddings[first].items() if a != "put-into"}
    lacks = r"video '%s' has no embedding for actions \['put-into'\]" % first
    with pytest.raises(ContractError, match=lacks):
        train_forests(partial, labels, models, config)
    with pytest.raises(ContractError, match=lacks):
        predict_set(partial, labels, forests, models, config)
