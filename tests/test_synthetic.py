from __future__ import annotations

import hashlib
import json
from dataclasses import replace

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
)
from boxact.relations import COLUMN, DEFAULT_CONFIG, RelationConfig, relation_table
from boxact.tracks import ROLES, VideoTrack, serialize_annotations

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
    # NaN compares false with every bound, so it used to pass as "no jitter"
    for field_name in ("jitter_sigma", "copy_lag_prob"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match=f"{field_name} must be a finite number"):
                NoiseParams(**{field_name: value})
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
    assert serialize_annotations([t1]) == serialize_annotations([t2]) and g1 == g2


def test_track_shape():
    track, truth = generate_synthetic(_script())
    assert len(track) == 60
    assert track.label == "put-into"
    assert (track.frame_width, track.frame_height) == (FRAME_WIDTH, FRAME_HEIGHT)
    assert truth == CENTERS
    assert track.frames.tolist() == list(range(60))


def test_object2_stays_on_stage():
    for archetype in ARCHETYPES:
        script = random_script(archetype, seed=11)
        track, _ = generate_synthetic(script)
        assert track.present[:, ROLES.index("object2")].all(), archetype


def test_hand_presence_is_one_contiguous_run():
    for archetype in ARCHETYPES:
        track, _ = generate_synthetic(random_script(archetype, seed=4))
        present = track.present[:, ROLES.index("hand")].tolist()
        runs = sum(
            1 for i, p in enumerate(present) if p and (i == 0 or not present[i - 1])
        )
        assert runs == 1, archetype
        assert not present[0] and not present[-1], archetype


def verify_archetype_geometry(
    track: VideoTrack,
    script: SyntheticScript,
    config: RelationConfig = DEFAULT_CONFIG,
) -> None:
    """Assert the geometric postconditions of an archetype on a clean track.

    Meant for zero-noise tracks; raises :class:`ContractError` on violation.
    """

    def fail(msg: str) -> None:
        raise ContractError(f"{script.archetype} ({track.video_id}): {msg}")

    table = relation_table([track], config)
    o1 = table[:, COLUMN["present(object1)"]] > 0
    o2 = table[:, COLUMN["present(object2)"]] > 0
    hand = table[:, COLUMN["present(hand)"]] > 0
    contained = table[:, COLUMN["contained(object1,object2)"]] > 0
    overlap = table[:, COLUMN["overlap(object1,object2)"]]
    touching = table[:, COLUMN["touching(object1,object2)"]] > 0
    last = track.boxes[-1]
    centre = last[:, :2] + last[:, 2:] / 2.0  # per role, in the final frame
    c = script.true_phase_centers["c"]

    if hand[0]:
        fail("hand visible in the first frame")
    if hand[-1]:
        fail("hand visible in the last frame")
    if not (o2[0] and o2[-1]):
        fail("object2 must be visible throughout")

    a = script.archetype
    if a == "put-into":
        if o1[0]:
            fail("object1 visible before being carried in")
        for name, t in (("c", c), ("final", -1)):
            if not (o1[t] and o2[t]):
                fail(f"object1/object2 missing at {name} frame")
            if not contained[t]:
                fail(f"object1 not contained in object2 at {name} frame")
        if centre[0, 1] <= centre[1, 1]:
            fail("object1 centre should sit below object2 centre at the end")
    elif a == "take-out-of":
        if not o1[0]:
            fail("object1 must start inside object2")
        if not contained[0]:
            fail("object1 not contained in object2 at the start")
        if o1[-1]:
            fail("object1 should have been carried out of the frame")
    elif a == "put-next-to":
        if o1[0]:
            fail("object1 visible before being carried in")
        if not o1[-1]:
            fail("object1 missing in the final frame")
        if overlap[-1] > 0:
            fail("object1 must not overlap object2")
        if not touching[-1]:
            fail("object1 must end adjacent to object2")
    elif a == "pretend-put-next-to":
        if not o1[-1]:
            fail("object1 missing in the final frame")
        overlapping = np.flatnonzero(overlap > 0)
        if overlapping.size:
            fail(f"object1 overlaps object2 at frame {track.frames[overlapping[0]]}")
        if centre[0, 0] >= last[1, 0] - 3 * config.touch_tol:
            fail("object1 must end back on its entry side, clear of object2")
    elif a == "put-behind":
        if not o1[-1]:
            fail("object1 missing in the final frame")
        if overlap[-1] <= 0:
            fail("object1 must end overlapping object2")
        if contained[-1]:
            fail("object1 should only partially overlap object2")
        if centre[0, 1] >= centre[1, 1]:
            fail("object1 centre must end above object2 centre")


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_archetype_geometry_postconditions(archetype):
    for seed in (0, 13, 77):
        script = random_script(archetype, seed=seed)
        track, _ = generate_synthetic(script)
        verify_archetype_geometry(track, script)


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_archetype_geometry_rejects_the_other_archetypes(archetype):
    script = random_script(archetype, seed=0)
    track, _ = generate_synthetic(script)
    for other in ARCHETYPES:
        if other != archetype:
            with pytest.raises(ContractError, match=f"^{other} "):
                verify_archetype_geometry(track, replace(script, archetype=other))


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
    assert serialize_annotations(tracks) == serialize_annotations(again)


# sha256 of the sorted-key JSON of each generated set.  The first three are
# the benchmark's set-ups, and equal the ``input.annotations`` digests in
# bench/reference/*.json.
GENERATED_DIGESTS = [
    ("embed-long", 1, 300, "crowd-artifacts", 0,
     "415dffc88f6ec59b474d849cb18602b5439d8e96217cf27c06676d9ad0cfb9c1"),
    ("classify", 6, 60, "moderate", 0,
     "d88d709279238514e9d4fe00520df934e23e9d631ba9d0263bf5389237e26d4e"),
    ("crossval", 8, 60, "crowd-artifacts", 0,
     "3e2290949e92ece3abb3b5681ed6ac302732c2903705fcaa3b7eb022dc0943b3"),
    ("zero", 2, 60, "zero", 3,
     "f8938bdb2baabd1ca9aaca0c60ecf01adc2cbdf8a9a0c5d00dcc942a0b31e9df"),
    ("moderate", 2, 72, "moderate", 11,
     "695804dc2841a6e8f4eed76a7fe1f896c599135f6f7238a4f69ea3fedd679253"),
]


@pytest.mark.parametrize(
    "per_archetype, frames, noise, seed, digest",
    [case[1:] for case in GENERATED_DIGESTS],
    ids=[case[0] for case in GENERATED_DIGESTS],
)
def test_generated_annotations_are_pinned(per_archetype, frames, noise, seed, digest):
    tracks, _ = generate_dataset(
        ARCHETYPES, per_archetype, num_frames=frames, noise=NOISE_PRESETS[noise], seed=seed
    )
    text = json.dumps(serialize_annotations(tracks), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generate_dataset_distinct_noise_per_video():
    noise = NoiseParams(jitter_sigma=2.0)
    tracks, _ = generate_dataset(["put-into"], per_archetype=2, noise=noise, seed=3)
    object2 = ROLES.index("object2")
    f0 = tracks[0].boxes[30, object2]
    f1 = tracks[1].boxes[30, object2]
    assert not np.array_equal(f0, f1)  # same scripted stage, different jitter stream


# --- the copy-lag artifact --------------------------------------------------------


def _lag_frames(track) -> list[int]:
    same_boxes = (track.boxes[1:] == track.boxes[:-1]).all(axis=(1, 2))
    same_roles = (track.present[1:] == track.present[:-1]).all(axis=1)
    return track.frames[1:][same_boxes & same_roles].tolist()


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
    x, y, w, h = track.boxes[:, ROLES.index("object2")].T
    cx, cy = x + w / 2.0, y + h / 2.0
    met, prev, nxt = ((cx[i], cy[i]) for i in (t, t - 1, t + 1))
    assert met == prev
    # the snap-back step is visibly larger than a plain jitter step
    assert np.hypot(nxt[0] - met[0], nxt[1] - met[1]) > 0.0
