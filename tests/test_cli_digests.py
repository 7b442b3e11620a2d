"""Pin the exact bytes that ``boxact assign`` and ``boxact embed`` write.

The golden fixture checks floats only to ``rtol=1e-12``; these digests pin
every bit of the assignment and embedding files.  The input is a generated
set of ten 60-frame videos plus prefixes of three of them (1, 5 and 9
frames), which end degenerate or without a second-best phase-b.  The models
are the five builtin ones and the golden fixture's ``all-relations`` model,
which has its own thresholds and every relation as an extra feature.

Smoothing adds its products in a fixed order in plain numpy, so the bytes do
not depend on the BLAS kernel that the CPU selects; CI runs this file again
under other ``OPENBLAS_CORETYPE`` values.

Update a digest only for an intended change of results.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from boxact.cli import main
from boxact.phases import builtin_models, save_action_model

from test_golden import _all_relations_model

PREFIXES = (1, 5, 9)

# (case, extra flags, sha256 of the assign file, sha256 of the embed file)
DIGESTS = [
    ("full", [],
     "3abbe8dd13aa46328132f12577e1b493e60f39095212076c79ddad2679e2515e",
     "a25a1ad5570d96404ef0de68b3eea81a67e786d73979ba4f6425807412cf1a93"),
    ("scores_only", ["--mode", "scores_only"],
     "6470b340ca8f4f9291c283a2c82afd2a82b98acfaaf55659e817b8e0e1638a82",
     "94be4003e02d0597c348018131c64b98e0ccc7d2e783f6204066eff52ef14e0c"),
    ("sigma0.7-n1", ["--sigma", "0.7", "--n", "1"],
     "e27e73270caef883b056a41e3544ad5f2db04c7d7d7e6993a393ca686bba9940",
     "6ed5cc1394140cf24dc162033f78611fa1ed3867f5920d1ff9154fdb1873f708"),
    ("sigma5-n6-scores_only", ["--sigma", "5", "--n", "6", "--mode", "scores_only"],
     "4a9461032ecbdaf9e84887d73ff1ced111c15f27c4afc16202a4f339af7d043c",
     "5029ffb1262a3df49f7e601cd3a45c9d8d8552a45c62afe2578b029f0304f49c"),
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> tuple[Path, Path]:
    """(annotation file, model directory)."""
    root = tmp_path_factory.mktemp("digests")
    ann = root / "ann.json"
    gen = ["generate", "--count", "2", "--noise", "crowd-artifacts", "--seed", "2"]
    assert main(gen + ["--out", str(ann)]) == 0
    videos = json.loads(ann.read_text())
    for length, video in zip(PREFIXES, videos):
        videos.append(
            dict(video, id=f"{video['id']}-first{length}", frames=video["frames"][:length])
        )
    ann.write_text(json.dumps(videos))
    model_dir = root / "models"
    model_dir.mkdir()
    models = dict(builtin_models(), **{"all-relations": _all_relations_model()})
    for action, model in models.items():
        save_action_model(model, model_dir / f"{action}.json")
    return ann, model_dir


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "flags, assign_digest, embed_digest",
    [case[1:] for case in DIGESTS],
    ids=[case[0] for case in DIGESTS],
)
def test_assign_and_embed_files_are_pinned(corpus, tmp_path, flags, assign_digest, embed_digest):
    ann, model_dir = corpus
    digests = []
    for command in ("assign", "embed"):
        out = tmp_path / f"{command}.json"
        args = [command, "--annotations", str(ann), "--models", str(model_dir)]
        assert main(args + ["--out", str(out)] + flags) == 0
        digests.append(_digest(out))
    assert digests == [assign_digest, embed_digest]
