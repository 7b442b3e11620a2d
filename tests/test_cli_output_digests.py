"""Pin the exact bytes of the files the CLI writes besides ``assign``/``embed``.

``test_cli_digests`` pins the assignment and embedding files.  These digests
pin the rest of the flow on one generated corpus of fifteen 60-frame
videos: ``generate`` with its ground-truth file, ``train`` (every forest
file, the split and the training log), ``predict`` on the validation subset,
``fuse``, ``eval --out-dir`` and ``sweep --out``.  ``train`` runs twice:
once with every forest flag left at its default, and once with every forest
flag set.

Update a digest only for an intended change of results.  Digests changed
on purpose so far:

- the ten ``forests/forest_*.json`` digests, when forest files went from
  version 2 (one object per tree) to version 3 (the model's node columns
  and tree offsets).  The forests did not change: every other file here
  kept its digest, and ``test_forest_digest_is_pinned`` pins the grown
  columns themselves.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from boxact.cli import main

GENERATE = ["generate", "--count", "3", "--noise", "moderate", "--seed", "4"]

GENERATE_DIGESTS = {
    "ann.json":
        "a6a057ca602bcef2a2f7f5113cb5d42975b746dd07b75728a55a5fdddf3484a6",
    "truth.json":
        "a0ccb530ddb7c0aa273330f280bc14aafe9816f5325f06edafedec33770b9536",
}

# (case, train flags, sha256 of every file written from train to eval)
TRAIN_CASES = [
    (
        "default-flags",
        [],
        {
            "forests/forest_pretend-put-next-to.json":
                "32e7875587115da7d310a8b3cef269e934a031a3870b848a149c0d18bc238a7e",
            "forests/forest_put-behind.json":
                "470899cf6024bf43224c480f6c46b7fcfbf3ba807794e9951928a5c1c51f535c",
            "forests/forest_put-into.json":
                "65e783deb6f13aa12015b5ff3e3e975fb8ee1e72f3158ddecb420a0365fd2fb8",
            "forests/forest_put-next-to.json":
                "e74bb97f20c8f2596320971a91fafd18be8a0454808dbaf04ac4633f9e323f1e",
            "forests/forest_take-out-of.json":
                "7e9a68aea838cb1a3322c5cbd40a585ca91c00a7b28f8a80bb41637d0da35541",
            "forests/split.json":
                "a423668f4d00997cfb1d1e965330465313a92019055cf6be369d9a0bacef38c2",
            "forests/train_log.json":
                "048bbaf3522b1b9a329cbd565021a604490bf50ea82b6231759f7e262d4699b8",
            "fused.json":
                "8718520a1482a8056b1e5e382ab81ab22fd51b4d496f1fac02e2ff7cef11f86f",
            "preds.json":
                "34cb56a34e47449ae4c96444a48aad11766a7df16ea51db7e442fa0960368044",
            "report/confusion.csv":
                "34c00949d061637aa32f61c9fe86b057483fe6e16c84a150b995c6292c16b611",
            "report/report.json":
                "023bc3595562f5e1521951cbb72c0dc48f1ccbba71c0bec5aeb16a2698542a56",
            "report/report.txt":
                "4cddd80de2f405c3ad3b6507c7150f9223b634189f0ad3814650146a9d12f5f6",
        },
    ),
    (
        "every-forest-flag",
        [
            "--no-bootstrap",
            "--class-weight",
            "balanced",
            "--max-depth",
            "4",
            "--min-samples-split",
            "3",
            "--features-per-split",
            "5",
        ],
        {
            "forests/forest_pretend-put-next-to.json":
                "f98c472f386bb564a4fc288ae11506149bd8cf84d06c847508f40f083931e881",
            "forests/forest_put-behind.json":
                "9ea0879ca4673b56a63e7bf36a7ed9920b544cc5f7785d4f4d39fe491b68958e",
            "forests/forest_put-into.json":
                "f429813719ba6d3fa54b0121766dbe7b4ac3ba1395adb39c8d7f89b48f1c77c5",
            "forests/forest_put-next-to.json":
                "b1afd4fa04b03b590960eac323d8674e2a180eb55deb9ee7cb2f56b184a45ee4",
            "forests/forest_take-out-of.json":
                "1d8ed567fb50e51709c5e60f368896a21637d014b55417b49c805875a76a5e88",
            "forests/split.json":
                "4dd61873af5fb98843245d48db56346f93b5807ec6c2d404bde8bf26cf6444f2",
            "forests/train_log.json":
                "389ba70385f0ab3351c71c1414e896c53a4e731f85039de7e6910a8752773a9a",
            "fused.json":
                "53082c9f2f74db8758a32599bfaeef66b3d0dc9911065fbe86336b6d484f68bc",
            "preds.json":
                "5d56c59f95b9e1a5cd6d82e61c43b6aec64c9ac6ad166af1225d31579112e4fe",
            "report/confusion.csv":
                "34c00949d061637aa32f61c9fe86b057483fe6e16c84a150b995c6292c16b611",
            "report/report.json":
                "023bc3595562f5e1521951cbb72c0dc48f1ccbba71c0bec5aeb16a2698542a56",
            "report/report.txt":
                "4cddd80de2f405c3ad3b6507c7150f9223b634189f0ad3814650146a9d12f5f6",
        },
    ),
]

SWEEP_DIGEST = "21c8898ed9b94820220a13e266c27ae91669c3231e48f63d23d3bd4de0d1eaf9"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    """Directory holding the generated ``ann.json`` and ``truth.json``."""
    root = tmp_path_factory.mktemp("outputs")
    argv = GENERATE + ["--out", str(root / "ann.json"), "--truth", str(root / "truth.json")]
    assert main(argv) == 0
    return root


def _digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_generate_files_are_pinned(corpus):
    assert _digests(corpus) == GENERATE_DIGESTS


@pytest.mark.parametrize(
    "flags, digests",
    [case[1:] for case in TRAIN_CASES],
    ids=[case[0] for case in TRAIN_CASES],
)
def test_train_predict_fuse_eval_files_are_pinned(corpus, tmp_path, flags, digests):
    ann = str(corpus / "ann.json")
    forests, preds = tmp_path / "forests", tmp_path / "preds.json"
    assert main(["train", "--annotations", ann, "--out-dir", str(forests)] + flags) == 0
    predict = ["predict", "--annotations", ann, "--forest-dir", str(forests)]
    assert main(predict + ["--split", str(forests / "split.json"), "--out", str(preds)]) == 0
    fuse = ["fuse", "--predictions", str(preds), "--external", str(preds)]
    assert main(fuse + ["--out", str(tmp_path / "fused.json")]) == 0
    assert main(["eval", "--predictions", str(preds), "--out-dir", str(tmp_path / "report")]) == 0
    assert _digests(tmp_path) == digests


def test_sweep_file_is_pinned(corpus, tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--annotations", str(corpus / "ann.json"), "--sigmas", "1,2", "--ns", "2,3"]
    assert main(argv + ["--out", str(out)]) == 0
    assert _digests(tmp_path) == {"sweep.json": SWEEP_DIGEST}
