"""Pin the exact bytes that ``boxact assign`` and ``boxact embed`` write.

The golden fixture checks floats only to ``rtol=1e-12``; these digests pin
every bit of the assignment and embedding files.  The input is a generated
set of ten 60-frame videos plus prefixes of three of them (1, 5 and 9
frames), which end degenerate or without a second-best phase-b.  The models
are the five builtin ones and the golden fixture's ``all-relations`` model,
which has its own thresholds and every relation as an extra feature.

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
     "494e0cf168710b78490d5c43ebb813b7802ae2b2a048f0995179874d0354b822",
     "77e5dba85060dbb476a0058f7a78fb8f659031085cb1f6c5da70fd1138c3d8f1"),
    ("scores_only", ["--mode", "scores_only"],
     "60fef4f6f1ba19161c51679e247ee4b091e7cf66465f6a7c6bb2deb8ca0f79a1",
     "b1b6429aab76be81167b5918ee04948563a0a736d7a2a438763c7fc78f5c76a7"),
    ("sigma0.7-n1", ["--sigma", "0.7", "--n", "1"],
     "d0215020f66f83e4ee4a74486ee387bfee7b948e40ad00099d386e193c499c59",
     "eff6b5c4ec436373f3d6c13df0ae2c852edc2d1866f6243fc6e1749f787878b9"),
    ("sigma5-n6-scores_only", ["--sigma", "5", "--n", "6", "--mode", "scores_only"],
     "e96b94afc3c69286c7c8829b4c33bd5d453b8254211c8cc7d705ee0125dfccce",
     "cd4b30a2f32abfeb2734a11304b2c1e08c3416682c011858661e2fc721866278"),
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
