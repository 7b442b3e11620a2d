"""Synthetic bounding-box videos for five manipulation archetypes.

Each archetype is realised as keyframe paths over a fixed stage: object2
sits still, object1 and the hand enter from the left, manipulate, and leave.
A path is a list of ``(frame, centre)`` keyframes from frame 0 to the last
frame.  Motion between keyframes eases with smoothstep, so the speed profile
is a symmetric bell whose peak falls on the segment midpoint, and every path
is evaluated for all frames at once.  Keyframe frames are derived from the
scripted phase centres (b = approach midpoint, c = manipulation-dwell
midpoint, d = exit midpoint, a = 0, e = last frame).  The hand clears the
frame edge eight frames before the end so the result-evident plateau stays
short.

Noise models annotation artifacts: per-frame Gaussian jitter of box
coordinates, and a copy-lag artifact where a whole frame's annotation is
copied unchanged from the previous frame and snaps back on the next one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError, check_finite, check_int, check_str
from .phases import ARCHETYPES, PHASES
from .tracks import ROLES, VideoTrack

__all__ = [
    "FRAME_WIDTH",
    "FRAME_HEIGHT",
    "NOISE_PRESETS",
    "NoiseParams",
    "SyntheticScript",
    "script_from_dict",
    "script_to_dict",
    "random_script",
    "generate_synthetic",
    "generate_dataset",
]

FRAME_WIDTH = 320.0
FRAME_HEIGHT = 240.0

EXIT_CLEAR_MARGIN = 8  # frames between the hand clearing the frame and the end


@dataclass(frozen=True)
class NoiseParams:
    """Annotation-noise model.

    jitter_sigma: stddev of per-frame Gaussian noise on x, y, w, h (pixels).
    copy_lag_prob: probability per frame that the whole annotation is copied
        unchanged from the previous frame, then snaps back on the next frame.
    """

    jitter_sigma: float = 0.0
    copy_lag_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("jitter_sigma", "copy_lag_prob"):
            object.__setattr__(self, name, check_finite(name, getattr(self, name)))
        if self.jitter_sigma < 0:
            raise ContractError("jitter_sigma must be non-negative")
        if not 0.0 <= self.copy_lag_prob < 1.0:
            raise ContractError("copy_lag_prob must lie in [0, 1)")
        object.__setattr__(self, "seed", check_int("noise seed", self.seed, 0))


NOISE_PRESETS: dict[str, NoiseParams] = {
    "zero": NoiseParams(),
    "moderate": NoiseParams(jitter_sigma=2.0, copy_lag_prob=0.15),
    "crowd-artifacts": NoiseParams(jitter_sigma=1.0, copy_lag_prob=0.5),
}


@dataclass(frozen=True)
class SyntheticScript:
    """Everything needed to deterministically realise one synthetic video."""

    archetype: str
    num_frames: int
    true_phase_centers: Mapping[str, int]
    noise: NoiseParams = field(default_factory=NoiseParams)
    video_id: str = "synthetic-0"
    layout_seed: int = 0

    def __post_init__(self) -> None:
        if self.archetype not in ARCHETYPES:
            raise ContractError(
                f"unknown archetype {self.archetype!r}, expected one of {ARCHETYPES}"
            )
        object.__setattr__(self, "num_frames", check_int("num_frames", self.num_frames, 1))
        check_str("video_id", self.video_id)
        object.__setattr__(self, "layout_seed", check_int("layout_seed", self.layout_seed, 0))
        if not isinstance(self.true_phase_centers, Mapping):
            raise ContractError(
                f"true_phase_centers must be an object, got {self.true_phase_centers!r}"
            )
        missing = [p for p in PHASES if p not in self.true_phase_centers]
        if missing:
            raise ContractError(f"true_phase_centers is missing phases {missing}")
        unknown = [p for p in self.true_phase_centers if p not in PHASES]
        if unknown:
            raise ContractError(f"true_phase_centers has unknown phases {unknown}")
        centers = [check_int(f"phase centre {p}", self.true_phase_centers[p], 0) for p in PHASES]
        object.__setattr__(self, "true_phase_centers", dict(zip(PHASES, centers)))
        if centers[-1] >= self.num_frames:
            raise ContractError("phase centres must lie within [0, num_frames)")
        for p1, p2, c1, c2 in zip(PHASES, PHASES[1:], centers, centers[1:]):
            if c2 <= c1:
                raise ContractError(
                    f"phase centres must be strictly increasing, got "
                    f"{p1}={c1}, {p2}={c2}"
                )


def _fields(cls: type, data, what: str) -> dict:
    """``data`` as keyword arguments of ``cls``; raise unless it is an object of its fields."""
    if not isinstance(data, Mapping):
        raise ContractError(f"{what} must be an object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ContractError(f"{what} has unknown fields {sorted(unknown)}")
    return dict(data)


def script_from_dict(data: Mapping) -> SyntheticScript:
    """Decode a script record; its fields are checked as :class:`SyntheticScript` checks them."""
    record = _fields(SyntheticScript, data, "script record")
    record["noise"] = NoiseParams(**_fields(NoiseParams, record.get("noise", {}), "script noise"))
    missing = {"archetype", "num_frames", "true_phase_centers"} - set(record)
    if missing:
        raise ContractError(f"script record missing {sorted(missing)}")
    return SyntheticScript(**record)


def script_to_dict(script: SyntheticScript) -> dict:
    return asdict(script)


# --- keyframe paths ---------------------------------------------------------------

Point = tuple[float, float]
Keyframes = list[tuple[int, Point]]  # (frame, centre), from frame 0 to the last


def _path(keyframes: Keyframes, n: int) -> np.ndarray:
    """Centres of frames ``0..n-1`` along a path, shape ``(n, 2)``.

    A frame takes the first segment that ends at or after it, so a frame on
    a keyframe sits at the end of the segment before it.
    """
    frames = np.array([f for f, _ in keyframes])
    points = np.array([p for _, p in keyframes])
    t = np.arange(n)
    k = np.maximum(np.searchsorted(frames, t), 1)
    s = (t - frames[k - 1]) / (frames[k] - frames[k - 1])
    u = (s * s * (3.0 - 2.0 * s))[:, None]  # smoothstep
    return points[k - 1] + u * (points[k] - points[k - 1])


# --- stage layout ------------------------------------------------------------


@dataclass(frozen=True)
class _Layout:
    o2_centre: Point
    o2_size: Point
    o1_size: Point
    hand_size: Point
    grip: Point  # hand centre relative to object1 centre while carrying
    o1_target: Point  # object1 centre at/after the manipulation
    rest: Point  # pretend only: object1 centre after being put back


def _draw_layout(archetype: str, rng: np.random.Generator) -> _Layout:
    o2_size = (float(rng.uniform(60, 80)), float(rng.uniform(52, 68)))
    o2_centre = (float(rng.uniform(205, 240)), float(rng.uniform(130, 160)))
    o1_size = (float(rng.uniform(20, 26)), float(rng.uniform(16, 22)))
    hand_size = (float(rng.uniform(28, 34)), float(rng.uniform(22, 28)))
    grip = (float(rng.uniform(-8, -4)), float(rng.uniform(-12, -8)))
    o2_left = o2_centre[0] - o2_size[0] / 2.0
    o2_top = o2_centre[1] - o2_size[1] / 2.0
    if archetype in ("put-into", "take-out-of"):
        target = (
            o2_centre[0] + float(rng.uniform(-8, 8)),
            o2_centre[1] + float(rng.uniform(2, 8)),
        )
    elif archetype in ("put-next-to", "pretend-put-next-to"):
        gap = float(rng.uniform(2, 4))
        target = (
            o2_left - gap - o1_size[0] / 2.0,
            o2_centre[1] + float(rng.uniform(-6, 6)),
        )
    else:  # put-behind: partial overlap with the top edge, centre above
        overlap_px = float(rng.uniform(4, 8))
        target = (
            o2_centre[0] + float(rng.uniform(-8, 8)),
            o2_top + overlap_px - o1_size[1] / 2.0,
        )
    rest = (float(rng.uniform(95, 110)), target[1])
    return _Layout(
        o2_centre=o2_centre,
        o2_size=o2_size,
        o1_size=o1_size,
        hand_size=hand_size,
        grip=grip,
        o1_target=target,
        rest=rest,
    )


def _hand_entry(layout: _Layout, y: float) -> Point:
    # deep enough that a carried object1 (offset by -grip) is also off-frame
    return (-(layout.hand_size[0] / 2.0) - 10.0, y)


def _hand_exit(layout: _Layout, y: float) -> Point:
    # right edge settles at -2: the box clears the frame on the exit's last step
    return (-(layout.hand_size[0] / 2.0) - 2.0, y)


# --- keyframes from phase centres ---------------------------------------------


def _carry_boundaries(script: SyntheticScript) -> tuple[int, int, int, int]:
    """(t1, t2, t3, te) for put-into / take-out-of / put-next-to / put-behind."""
    n = script.num_frames
    b = script.true_phase_centers["b"]
    c = script.true_phase_centers["c"]
    d = script.true_phase_centers["d"]
    te = n - EXIT_CLEAR_MARGIN
    t3 = 2 * d - te
    t2 = 2 * c - t3
    t1 = 2 * b - t2
    if not (1 <= t1 <= t2 - 6 and t2 <= t3 - 4 and t3 <= te - 5 and te <= n - 2):
        raise ContractError(
            f"{script.archetype}: phase centres {dict(script.true_phase_centers)} "
            f"imply invalid segments (t1={t1}, t2={t2}, t3={t3}, te={te})"
        )
    return t1, t2, t3, te


def _pretend_boundaries(script: SyntheticScript) -> tuple[int, int, int, int, int, int]:
    """(t1, h0, h1, r1, x0, te): approach, hover, retreat, put-down, exit."""
    n = script.num_frames
    b = script.true_phase_centers["b"]
    c = script.true_phase_centers["c"]
    d = script.true_phase_centers["d"]
    te = n - EXIT_CLEAR_MARGIN
    h0, h1 = c - 6, c + 6
    t1 = 2 * b - h0
    x0 = 2 * d - te
    r1 = x0 - 4
    if not (1 <= t1 <= h0 - 6 and h1 <= r1 - 4 and x0 <= te - 5 and te <= n - 2):
        raise ContractError(
            f"pretend-put-next-to: phase centres "
            f"{dict(script.true_phase_centers)} imply invalid segments "
            f"(t1={t1}, hover=[{h0},{h1}], r1={r1}, x0={x0}, te={te})"
        )
    return t1, h0, h1, r1, x0, te


def _entity_paths(script: SyntheticScript, layout: _Layout) -> dict[str, Keyframes]:
    n = script.num_frames
    target = layout.o1_target
    grip_at = lambda p: (p[0] + layout.grip[0], p[1] + layout.grip[1])  # noqa: E731
    o1_entry = (_hand_entry(layout, target[1])[0] - layout.grip[0], target[1])
    if script.archetype == "pretend-put-next-to":
        t1, h0, h1, r1, x0, te = _pretend_boundaries(script)
        o1 = [(0, o1_entry), (t1, o1_entry), (h0, target), (h1, target),
              (r1, layout.rest), (n - 1, layout.rest)]
        hand_exit = _hand_exit(layout, target[1])
        hand = [(f, grip_at(p)) for f, p in o1[:-1]] + [
            (x0, grip_at(layout.rest)), (te, hand_exit), (n - 1, hand_exit)]
    elif script.archetype == "take-out-of":
        t1, t2, t3, te = _carry_boundaries(script)
        hand_entry = _hand_entry(layout, grip_at(target)[1])
        # the wider of hand / carried object1 settles with right edge at -2,
        # so the pair clears the frame on the exit's last step
        trailing_half = max(
            layout.hand_size[0] / 2.0, -layout.grip[0] + layout.o1_size[0] / 2.0
        )
        hand_exit = (-2.0 - trailing_half, grip_at(target)[1])
        o1_exit = (hand_exit[0] - layout.grip[0], hand_exit[1] - layout.grip[1])
        o1 = [(0, target), (t3, target), (te, o1_exit), (n - 1, o1_exit)]
        hand = [(0, hand_entry), (t1, hand_entry), (t2, grip_at(target)),
                (t3, grip_at(target)), (te, hand_exit), (n - 1, hand_exit)]
    else:  # put-into / put-next-to / put-behind share the carry-in shape
        t1, t2, t3, te = _carry_boundaries(script)
        o1 = [(0, o1_entry), (t1, o1_entry), (t2, target), (n - 1, target)]
        hand_exit = _hand_exit(layout, grip_at(target)[1])
        hand = [(f, grip_at(p)) for f, p in o1[:-1]] + [
            (t3, grip_at(target)), (te, hand_exit), (n - 1, hand_exit)]
    o2 = [(0, layout.o2_centre), (n - 1, layout.o2_centre)]
    return {"object1": o1, "object2": o2, "hand": hand}


# --- generation ----------------------------------------------------------------


def _apply_noise(boxes: np.ndarray, present: np.ndarray, noise: NoiseParams) -> None:
    """Jitter and copy-lag ``boxes`` in place; absent boxes stay zero."""
    rng = np.random.default_rng(noise.seed)
    if noise.jitter_sigma > 0:
        # one draw of four per visible box, in frame then role order
        jittered = boxes[present] + rng.normal(
            0.0, noise.jitter_sigma, size=(int(present.sum()), 4)
        )
        jittered[:, 2:] = np.maximum(1.0, jittered[:, 2:])
        boxes[present] = jittered
    if noise.copy_lag_prob > 0:
        # one uniform per frame after the first; a frame whose roles match the
        # previous frame's lags on a low draw, unless the previous frame lagged
        candidate = (rng.random(len(boxes) - 1) < noise.copy_lag_prob) & (
            present[1:] == present[:-1]
        ).all(axis=1)
        lagged = [False]
        for c in candidate.tolist():
            lagged.append(c and not lagged[-1])
        t = np.flatnonzero(lagged)
        boxes[t] = boxes[t - 1]  # no copy reads a lagged frame


def generate_synthetic(script: SyntheticScript) -> tuple[VideoTrack, dict[str, int]]:
    """Realise a script as a track plus its ground-truth phase centres.

    Pure: the same script always yields the same track.
    """
    layout = _draw_layout(script.archetype, np.random.default_rng(script.layout_seed))
    paths = _entity_paths(script, layout)
    sizes = {"object1": layout.o1_size, "object2": layout.o2_size, "hand": layout.hand_size}
    n = script.num_frames
    size = np.array([sizes[role] for role in ROLES])
    corner = np.stack([_path(paths[role], n) for role in ROLES], axis=1) - size / 2.0
    present = ((corner < (FRAME_WIDTH, FRAME_HEIGHT)) & (corner + size > 0)).all(axis=2)
    boxes = np.concatenate([corner, np.broadcast_to(size, corner.shape)], axis=2)
    boxes[~present] = 0.0
    _apply_noise(boxes, present, script.noise)
    track = VideoTrack(
        video_id=script.video_id,
        frames=np.arange(n, dtype=np.int64),
        boxes=boxes,
        present=present,
        frame_width=FRAME_WIDTH,
        frame_height=FRAME_HEIGHT,
        label=script.archetype,
    )
    return track, dict(script.true_phase_centers)


def random_script(
    archetype: str,
    seed: int,
    num_frames: int = 60,
    noise: NoiseParams | None = None,
    video_id: str | None = None,
) -> SyntheticScript:
    """Draw a valid script with randomised layout and phase centres.

    Centres are chosen so the derived motion segments keep the speed-bell
    peaks well separated and the manipulation dwell 13 frames long.
    """
    if archetype not in ARCHETYPES:
        raise ContractError(
            f"unknown archetype {archetype!r}, expected one of {ARCHETYPES}"
        )
    if num_frames < 58:
        raise ContractError("random_script needs num_frames >= 58")
    rng = np.random.default_rng(seed)
    n = num_frames
    te = n - EXIT_CLEAR_MARGIN
    if archetype == "pretend-put-next-to":
        combos = []
        for t1 in (6, 7, 8):
            for la in (10,):
                for lr in range(10, 13):
                    if (t1 + lr + n) % 2 == 0 and t1 + la + lr <= n - 32:
                        combos.append((t1, la, lr))
        t1, la, lr = combos[int(rng.integers(len(combos)))]
        h0 = t1 + la
        c = h0 + 6
        x0 = h0 + 16 + lr
        centers = {
            "a": 0,
            "b": t1 + la // 2,
            "c": c,
            "d": (x0 + te) // 2,
            "e": n - 1,
        }
    else:
        combos = []
        for t2 in range(te - 30, te - 25):
            for la in (10, 12, 14):
                if t2 % 2 == n % 2 and t2 - la >= 8:
                    combos.append((t2, la))
        t2, la = combos[int(rng.integers(len(combos)))]
        t1 = t2 - la
        t3 = t2 + 14
        centers = {
            "a": 0,
            "b": t1 + la // 2,
            "c": t2 + 7,
            "d": (t3 + te) // 2,
            "e": n - 1,
        }
    return SyntheticScript(
        archetype=archetype,
        num_frames=num_frames,
        true_phase_centers=centers,
        noise=noise if noise is not None else NoiseParams(),
        video_id=video_id if video_id is not None else f"{archetype}-{seed}",
        layout_seed=int(rng.integers(2**31)),
    )


def generate_dataset(
    archetypes: Sequence[str],
    per_archetype: int,
    num_frames: int = 60,
    noise: NoiseParams | None = None,
    seed: int = 0,
    id_prefix: str = "syn",
) -> tuple[list[VideoTrack], dict[str, dict[str, int]]]:
    """Generate ``per_archetype`` videos per archetype; returns ground truth too.

    Each video gets its own layout and noise stream, derived deterministically
    from ``seed``.
    """
    per_archetype = check_int("per_archetype", per_archetype, 0)
    seed = check_int("seed", seed, 0)
    tracks: list[VideoTrack] = []
    ground_truth: dict[str, dict[str, int]] = {}
    base = noise if noise is not None else NoiseParams()
    counter = 0
    for archetype in archetypes:
        for i in range(per_archetype):
            script = random_script(
                archetype,
                seed=seed * 7_919 + counter,
                num_frames=num_frames,
                noise=replace(base, seed=seed * 1_000_003 + counter),
                video_id=f"{id_prefix}-{archetype}-{i:04d}",
            )
            track, truth = generate_synthetic(script)
            tracks.append(track)
            ground_truth[track.video_id] = truth
            counter += 1
    return tracks, ground_truth
