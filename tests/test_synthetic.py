from __future__ import annotations

import numpy as np
import pytest

from boxact.errors import ConfigError, ContractError
from boxact.phases import ARCHETYPES, PHASES
from boxact.synthetic import (
    FRAME_HEIGHT,
    FRAME_WIDTH,
    NOISE_PRESETS,
    NoiseParams,
    SyntheticScript,
    generate_dataset,
    generate_synthetic,
    random_script,
    script_from_dict,
    script_to_dict,
    verify_archetype_geometry,
)

CENTERS = {"a": 0, "b": 15, "c": 29, "d": 44, "e": 59}


def _script(**overrides) -> SyntheticScript:
    kwargs = dict(
        archetype="put-into",
        num_frames=60,
        true_phase_centers=CENTERS,
        video_id="s0",
        layout_seed=1,
    )
    kwargs.update(overrides)
    return SyntheticScript(**kwargs)


# --- parameter validation ------------------------------------------------------


def test_noise_validation():
    with pytest.raises(ContractError):
        NoiseParams(jitter_sigma=-1.0)
    with pytest.raises(ContractError):
        NoiseParams(copy_lag_prob=1.0)
    with pytest.raises(ContractError):
        NoiseParams(copy_lag_prob=-0.1)
    with pytest.raises(ConfigError, match="noise seed"):
        NoiseParams(seed=-1)
    assert NOISE_PRESETS["zero"] == NoiseParams()


def test_script_validation():
    with pytest.raises(ContractError, match="unknown archetype"):
        _script(archetype="juggle")
    with pytest.raises(ContractError, match="missing phases"):
        _script(true_phase_centers={"a": 0, "b": 1})
    with pytest.raises(ContractError, match="strictly increasing"):
        _script(true_phase_centers=dict(CENTERS, c=15))
    with pytest.raises(ContractError, match="within"):
        _script(true_phase_centers=dict(CENTERS, e=60))
    with pytest.raises(ConfigError, match="layout_seed"):
        _script(layout_seed=-1)


def test_generate_dataset_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be at least 0"):
        generate_dataset(["put-into"], 1, seed=-1)


def test_script_dict_round_trip():
    script = _script(noise=NoiseParams(jitter_sigma=1.5, copy_lag_prob=0.2, seed=9))
    assert script_from_dict(script_to_dict(script)) == script


def test_script_from_dict_rejects_unknown_fields():
    data = script_to_dict(_script())
    data["fps"] = 30
    with pytest.raises(ContractError, match="unknown fields"):
        script_from_dict(data)


# --- deterministic generation ----------------------------------------------------


def test_generation_is_pure():
    t1, g1 = generate_synthetic(_script())
    t2, g2 = generate_synthetic(_script())
    assert t1 == t2 and g1 == g2


def test_track_shape():
    track, truth = generate_synthetic(_script())
    assert len(track) == 60
    assert track.label == "put-into"
    assert (track.frame_width, track.frame_height) == (FRAME_WIDTH, FRAME_HEIGHT)
    assert truth == CENTERS
    assert [f.frame_index for f in track.frames] == list(range(60))


def test_object2_stays_on_stage():
    for archetype in ARCHETYPES:
        script = random_script(archetype, seed=11)
        track, _ = generate_synthetic(script)
        assert all(f.object2 is not None for f in track.frames), archetype


def test_hand_presence_is_one_contiguous_run():
    for archetype in ARCHETYPES:
        track, _ = generate_synthetic(random_script(archetype, seed=4))
        present = [f.hand is not None for f in track.frames]
        runs = sum(
            1 for i, p in enumerate(present) if p and (i == 0 or not present[i - 1])
        )
        assert runs == 1, archetype
        assert not present[0] and not present[-1], archetype


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_archetype_geometry_postconditions(archetype):
    for seed in (0, 13, 77):
        script = random_script(archetype, seed=seed)
        track, _ = generate_synthetic(script)
        verify_archetype_geometry(track, script)


# --- random scripts ---------------------------------------------------------------


def test_random_script_bounds():
    for archetype in ARCHETYPES:
        for n in (58, 60, 72):
            script = random_script(archetype, seed=2, num_frames=n)
            centers = script.true_phase_centers
            assert centers["a"] == 0 and centers["e"] == n - 1
            assert [centers[p] for p in PHASES] == sorted(centers[p] for p in PHASES)


def test_random_script_rejects_short_videos():
    with pytest.raises(ContractError, match="num_frames >= 58"):
        random_script("put-into", seed=0, num_frames=40)


def test_generate_dataset():
    tracks, truth = generate_dataset(
        ["put-into", "put-behind"], per_archetype=3, seed=5, id_prefix="t"
    )
    assert len(tracks) == 6
    assert sorted(truth) == sorted(t.video_id for t in tracks)
    assert {t.label for t in tracks} == {"put-into", "put-behind"}
    assert all(t.video_id.startswith("t-") for t in tracks)
    assert all(set(g) == set(PHASES) for g in truth.values())
    again, _ = generate_dataset(
        ["put-into", "put-behind"], per_archetype=3, seed=5, id_prefix="t"
    )
    assert tracks == again


def test_generate_dataset_distinct_noise_per_video():
    noise = NoiseParams(jitter_sigma=2.0)
    tracks, _ = generate_dataset(["put-into"], per_archetype=2, noise=noise, seed=3)
    f0 = tracks[0].frames[30].object2
    f1 = tracks[1].frames[30].object2
    assert f0 != f1  # same scripted stage, different jitter stream


# --- the copy-lag artifact --------------------------------------------------------


def _lag_frames(track) -> list[int]:
    out = []
    for prev, cur in zip(track.frames, track.frames[1:]):
        same = all(prev.box(r) == cur.box(r) for r in ("object1", "object2", "hand"))
        if same:
            out.append(cur.frame_index)
    return out


def test_copy_lag_produces_exact_repeats_under_jitter():
    noisy = _script(noise=NoiseParams(jitter_sigma=1.0, copy_lag_prob=0.5, seed=21))
    track, _ = generate_synthetic(noisy)
    lags = _lag_frames(track)
    assert len(lags) >= 5
    # a lagged frame snaps back: no two consecutive copies
    assert all(b - a >= 2 for a, b in zip(lags, lags[1:]))


def test_without_lag_jitter_never_repeats_exactly():
    clean = _script(noise=NoiseParams(jitter_sigma=1.0, copy_lag_prob=0.0, seed=21))
    track, _ = generate_synthetic(clean)
    assert _lag_frames(track) == []


def test_lagged_frame_offset_is_exactly_zero_then_snaps():
    script = _script(noise=NoiseParams(jitter_sigma=2.0, copy_lag_prob=0.4, seed=8))
    track, _ = generate_synthetic(script)
    lags = _lag_frames(track)
    assert lags
    t = lags[0]
    met = track.frames[t].object2.centre
    prev = track.frames[t - 1].object2.centre
    nxt = track.frames[t + 1].object2.centre
    assert met == prev
    # the snap-back step is visibly larger than a plain jitter step
    assert np.hypot(nxt[0] - met[0], nxt[1] - met[1]) > 0.0
