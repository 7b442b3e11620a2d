"""The keyframe generator against the per-frame, per-role reference.

``generate_synthetic`` evaluates each entity's keyframe path for all frames
at once and copy-lags every lagged frame in one assignment.  Valid scripts of
every archetype and noise setting must give the reference's bytes.  Scripts
come from ``random_script`` and from phase centres built straight from the
segment boundaries that ``_carry_boundaries``/``_pretend_boundaries`` accept,
as a ``generate --from-scripts`` file may hold them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from boxact.phases import ARCHETYPES
from boxact.synthetic import (
    EXIT_CLEAR_MARGIN,
    NOISE_PRESETS,
    NoiseParams,
    SyntheticScript,
    generate_synthetic,
    random_script,
)

from oracles import generate_synthetic_reference

noises = st.one_of(
    st.sampled_from(list(NOISE_PRESETS.values())),
    st.builds(
        NoiseParams,
        jitter_sigma=st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
        copy_lag_prob=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
        seed=st.integers(0, 2**32),
    ),
)


@st.composite
def boundary_scripts(draw, archetype: str, noise: NoiseParams) -> SyntheticScript:
    """Centres whose derived boundaries sit anywhere the generator accepts.

    Every boundary shares the parity of ``te``, so the centres, which are
    midpoints of boundaries, are integers.  ``a`` and ``e`` only bound the
    others.
    """
    n = draw(st.integers(50, 300))
    te = n - EXIT_CLEAR_MARGIN
    if archetype == "pretend-put-next-to":
        x0 = te - 2 * draw(st.integers(3, (te - 33) // 2))
        c = draw(st.integers(19, x0 - 14))
        h0 = c - 6
        t1 = h0 - 2 * draw(st.integers(3, (h0 - 1) // 2))
        b, d = (t1 + h0) // 2, (x0 + te) // 2
    else:
        t3 = te - 2 * draw(st.integers(3, (te - 21) // 2))
        t2 = t3 - 2 * draw(st.integers(2, (t3 - 13) // 2))
        t1 = t2 - 2 * draw(st.integers(3, (t2 - 1) // 2))
        b, c, d = (t1 + t2) // 2, (t2 + t3) // 2, (t3 + te) // 2
    centres = {"a": draw(st.integers(0, b - 1)), "b": b, "c": c, "d": d,
               "e": draw(st.integers(d + 1, n - 1))}
    return SyntheticScript(
        archetype=archetype,
        num_frames=n,
        true_phase_centers=centres,
        noise=noise,
        layout_seed=draw(st.integers(0, 2**31)),
    )


@st.composite
def scripts(draw) -> SyntheticScript:
    archetype = draw(st.sampled_from(ARCHETYPES))
    noise = draw(noises)
    if draw(st.booleans()):
        n = draw(st.sampled_from([58, 59, 60, 61, 89, 120, 300]))
        return random_script(archetype, draw(st.integers(0, 10_000)), n, noise)
    return draw(boundary_scripts(archetype, noise))


@given(scripts())
@settings(max_examples=300, deadline=None)
def test_generate_synthetic_matches_the_per_frame_reference(script):
    track, truth = generate_synthetic(script)
    boxes, present = generate_synthetic_reference(script)
    assert track.boxes.tobytes() == boxes.tobytes()
    assert np.array_equal(track.present, present)
    assert truth == dict(script.true_phase_centers)
