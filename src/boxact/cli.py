"""Command-line pipeline: generate, assign, embed, train, predict, eval, fuse, sweep.

Pipeline and forest flags have no defaults of their own: a flag left out
keeps the default of the :class:`PipelineConfig` or :class:`ForestParams`
field it sets (``sweep --num-trees`` alone defaults to 50).  Every command
creates missing output directories.

Exit codes: 0 success, 1 validation/data errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

from .embedding import dump_embeddings
from .errors import BoxactError, ConfigError, prefixed, read_artifact, read_json, write_artifact
from .evaluation import (
    confusion_csv,
    evaluate,
    fuse,
    load_predictions,
    report_table,
    report_to_dict,
    save_predictions,
)
from .forest import ForestParams, load_forest, save_forest
from .phases import ARCHETYPES
from .pipeline import (
    EMBEDDING_MODES,
    PipelineConfig,
    embed_all,
    load_models,
    make_provenance,
    predict_set,
    stratified_split,
    train_forests,
)
from .synthetic import (
    NOISE_PRESETS,
    NoiseParams,
    generate_dataset,
    generate_synthetic,
    script_from_dict,
)
from .tracks import load_annotation_file, write_annotation_file

FOREST_FILE_PREFIX = "forest_"


def _features_per_split(raw: str) -> str | int:
    if raw == "sqrt":
        return raw
    try:
        return int(raw)
    except ValueError:
        raise BoxactError(
            f"--features-per-split must be 'sqrt' or an integer, got {raw!r}"
        ) from None


def _config_from_args(args: argparse.Namespace, **overrides) -> PipelineConfig:
    """The config set by the flags given; a field without a flag keeps its default.

    Flag destinations are field names; ``--seed`` sets both seeds.
    """
    given = {**vars(args), **overrides}
    if "features_per_split" in given:
        given["features_per_split"] = _features_per_split(given["features_per_split"])

    def fields_given(cls) -> dict:
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    return PipelineConfig(
        forest=ForestParams(**fields_given(ForestParams)), **fields_given(PipelineConfig)
    )


def _labels_of(tracks) -> dict[str, str]:
    return {t.video_id: t.label for t in tracks if t.label is not None}


def _noise_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> NoiseParams:
    given = {k: v for k, v in vars(args).items() if k in ("jitter_sigma", "copy_lag_prob")}
    if args.noise is None:
        return NoiseParams(**given)
    if given:
        parser.error("--noise preset and --jitter/--lag are mutually exclusive")
    if args.noise not in NOISE_PRESETS:
        parser.error(
            f"unknown noise preset {args.noise!r}; "
            f"choose from {sorted(NOISE_PRESETS)}"
        )
    return NOISE_PRESETS[args.noise]


# --- subcommands ----------------------------------------------------------------


def cmd_generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.from_scripts:
        raw = read_json(args.from_scripts, ConfigError)
        with prefixed(args.from_scripts):
            if not isinstance(raw, list):
                raise ConfigError("a scripts file must hold a list of script records")
            scripts = [script_from_dict(rec) for rec in raw]
            twice = [v for v, n in Counter(s.video_id for s in scripts).items() if n > 1]
            if twice:
                raise ConfigError(f"duplicate video id {twice[0]!r}")
            pairs = [generate_synthetic(s) for s in scripts]
        tracks = [t for t, _ in pairs]
        truth = {t.video_id: g for (t, g) in pairs}
    else:
        if args.archetypes == "all":
            archetypes = list(ARCHETYPES)
        else:
            archetypes = [a for a in args.archetypes.split(",") if a]
            unknown = [a for a in archetypes if a not in ARCHETYPES]
            if unknown:
                parser.error(
                    f"unknown archetypes {unknown}; valid: {list(ARCHETYPES)}"
                )
        noise = _noise_from_args(args, parser)
        tracks, truth = generate_dataset(
            archetypes,
            per_archetype=args.count,
            num_frames=args.frames,
            noise=noise,
            seed=_config_from_args(args).seed,
            id_prefix=args.id_prefix,
        )
    write_annotation_file(args.out, tracks)
    if args.truth:
        write_artifact(
            args.truth,
            "boxact-ground-truth",
            make_provenance(_config_from_args(args), "generate"),
            videos=truth,
        )
    print(f"wrote {len(tracks)} videos to {args.out}")
    return 0


def cmd_assign(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    tracks = load_annotation_file(args.annotations)
    models = load_models(args.models)
    config = _config_from_args(args)
    embeds = embed_all(tracks, models, config)
    records = []
    for video_id in sorted(embeds):
        for action in sorted(embeds[video_id]):
            _, assignment = embeds[video_id][action]
            records.append(
                {"video_id": video_id, **vars(assignment), "degenerate": assignment.degenerate}
            )
    provenance = make_provenance(config, "assign")
    write_artifact(args.out, "boxact-assignments", provenance, records=records)
    degenerate = sum(1 for r in records if r["degenerate"])
    print(f"wrote {len(records)} assignments to {args.out} ({degenerate} degenerate)")
    return 0


def cmd_embed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    tracks = load_annotation_file(args.annotations)
    models = load_models(args.models)
    config = _config_from_args(args)
    embeds = embed_all(tracks, models, config)
    flat = [
        embeds[video_id][action][0]
        for video_id in sorted(embeds)
        for action in sorted(embeds[video_id])
    ]
    dump_embeddings(flat, args.out, provenance=make_provenance(config, "embed"))
    print(f"wrote {len(flat)} embeddings to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    tracks = load_annotation_file(args.annotations)
    labels = _labels_of(tracks)
    unlabeled = [t.video_id for t in tracks if t.video_id not in labels]
    if unlabeled:
        raise BoxactError(
            f"cannot train: videos without labels: {unlabeled[:5]}"
            + ("..." if len(unlabeled) > 5 else "")
        )
    models = load_models(args.models)
    config = _config_from_args(args)
    train_ids, val_ids = stratified_split(labels, config.val_fraction, config.seed)
    train_set = set(train_ids)
    embeds = embed_all([t for t in tracks if t.video_id in train_set], models, config)
    forests, skipped, counts = train_forests(embeds, labels, models, config, train_ids)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for action, forest in sorted(forests.items()):
        save_forest(forest, out_dir / f"{FOREST_FILE_PREFIX}{action}.json")
    provenance = make_provenance(config, "train")
    write_artifact(out_dir / "split.json", "boxact-split", provenance, train=train_ids, val=val_ids)
    write_artifact(
        out_dir / "train_log.json",
        "boxact-train-log",
        provenance,
        counts=counts,
        skipped=skipped,
        trained=sorted(forests),
    )
    print(
        f"trained {len(forests)} forests on {len(train_ids)} videos "
        f"into {out_dir} ({len(skipped)} skipped)"
    )
    for action in skipped:
        print(f"warning: skipped single-class action {action!r}", file=sys.stderr)
    return 1 if skipped else 0


def _load_forest_dir(path: str) -> dict:
    forest_dir = Path(path)
    files = sorted(forest_dir.glob(f"{FOREST_FILE_PREFIX}*.json"))
    if not files:
        raise BoxactError(f"no {FOREST_FILE_PREFIX}*.json files in {forest_dir}")
    forests, sources = {}, {}
    for f in files:
        forest = load_forest(f)
        if forest.action_id in sources:
            raise ConfigError(
                f"duplicate forest {forest.action_id!r} in {sources[forest.action_id]} and {f}"
            )
        forests[forest.action_id], sources[forest.action_id] = forest, f
    return forests


def _subset_ids(args: argparse.Namespace) -> list[str] | None:
    if not args.split:
        return None
    doc = read_artifact(args.split, "boxact-split", "a split file", ConfigError)
    ids: list[str] = []
    for subset in ("train", "val") if args.subset == "all" else (args.subset,):
        part = doc.get(subset)
        if not isinstance(part, list) or not all(isinstance(v, str) for v in part):
            raise ConfigError(f"{args.split}: {subset!r} must be a list of video ids")
        ids.extend(sorted(part))
    if not ids:
        raise ConfigError(
            f"{args.split}: the {args.subset!r} subset lists no videos; train "
            f"splits off validation videos only where --val-fraction times a "
            f"class's size rounds to at least one"
        )
    return ids


def cmd_predict(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    tracks = load_annotation_file(args.annotations)
    labels = _labels_of(tracks)
    models = load_models(args.models)
    forests = _load_forest_dir(args.forest_dir)
    config = _config_from_args(args)
    subset = _subset_ids(args)
    if subset is not None:
        known = {t.video_id for t in tracks}
        missing = [v for v in subset if v not in known]
        if missing:
            raise BoxactError(f"split references unknown videos {missing[:5]}")
        wanted = set(subset)
        tracks = [t for t in tracks if t.video_id in wanted]
    embeds = embed_all(tracks, models, config)
    preds = predict_set(embeds, labels, forests, models, config, sorted(embeds))
    save_predictions(preds, args.out, provenance=make_provenance(config, "predict"))
    print(f"wrote predictions for {len(preds)} videos to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    preds = load_predictions(args.predictions)
    with prefixed(args.predictions):
        report = evaluate(preds)
    print(report_table(report))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        write_artifact(out_dir / "report.json", "boxact-report", report=report_to_dict(report))
        (out_dir / "report.txt").write_text(report_table(report) + "\n", encoding="utf-8")
        (out_dir / "confusion.csv").write_text(confusion_csv(report), encoding="utf-8")
        print(f"report written to {out_dir}")
    return 0


def cmd_fuse(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ours = load_predictions(args.predictions)
    external = load_predictions(args.external)
    with prefixed(f"{args.predictions} and {args.external}"):
        fused = fuse(ours, external)
    save_predictions(fused, args.out)
    print(f"wrote fused predictions for {len(fused)} videos to {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        sigmas = [float(s) for s in args.sigmas.split(",") if s]
        ns = [int(n) for n in args.ns.split(",") if n]
    except ValueError as exc:
        parser.error(f"--sigmas takes numbers and --ns integers: {exc}")
    if not sigmas or not ns:
        parser.error("--sigmas and --ns must be non-empty comma lists")
    for flag, values in (("--sigmas", sigmas), ("--ns", ns)):
        twice = [v for v, count in Counter(values).items() if count > 1]
        if twice:
            parser.error(f"{flag} lists {twice[0]:g} more than once")
    tracks = load_annotation_file(args.annotations)
    labels = _labels_of(tracks)
    if len(labels) != len(tracks):
        raise BoxactError("sweep needs labels on every video")
    models = load_models(args.models)
    # the split depends on neither sigma nor n
    config = _config_from_args(args)
    train_ids, val_ids = stratified_split(labels, config.val_fraction, config.seed)
    if not val_ids:
        raise ConfigError(
            f"--val-fraction {config.val_fraction:g} rounds to no validation video "
            f"in any class of {len(labels)} videos; raise it or add videos"
        )
    rows = []
    for sigma in sigmas:
        for n in ns:
            config = _config_from_args(args, n=n, sigma=sigma)
            embeds = embed_all(tracks, models, config)
            forests, skipped, _ = train_forests(embeds, labels, models, config, train_ids)
            preds = predict_set(embeds, labels, forests, models, config, val_ids)
            report = evaluate(preds)
            rows.append(
                {
                    "sigma": sigma,
                    "n": n,
                    "accuracy": report.accuracy,
                    "weighted_map": report.weighted_map,
                    "macro_map": report.macro_map,
                    "skipped": skipped,
                }
            )
            print(
                f"sigma={sigma:g} n={n}: accuracy={report.accuracy:.4f} "
                f"weighted mAP={report.weighted_map:.4f}"
            )
    if args.out:
        write_artifact(args.out, "boxact-sweep", rows=rows)
        print(f"sweep grid written to {args.out}")
    return 0


# --- parser wiring ----------------------------------------------------------------
#
# Every subcommand parser leaves out a flag that was not given and has no
# default of its own, so _config_from_args passes only the fields given.


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--annotations", required=True)
    p.add_argument("--models", default="builtin")


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="phase window half-width")
    p.add_argument("--sigma", type=float, help="Gaussian smoothing width")
    _add_mode_and_seed_flags(p)


def _add_mode_and_seed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", dest="embedding_mode", choices=EMBEDDING_MODES,
                   help="embedding layout")
    p.add_argument("--seed", type=int)


def _add_forest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--num-trees", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--min-samples-split", type=int)
    p.add_argument("--features-per-split", help="'sqrt' or an integer")
    p.add_argument("--no-bootstrap", dest="bootstrap", action="store_false")
    p.add_argument("--class-weight", choices=["balanced"])


def _generate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="ground-truth phase centres file")
    p.add_argument("--archetypes", default="all")
    p.add_argument("--count", type=int, default=10, help="videos per archetype")
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--noise", default=None,
                   help=f"preset: {', '.join(sorted(NOISE_PRESETS))}")
    p.add_argument("--jitter", dest="jitter_sigma", metavar="JITTER", type=float)
    p.add_argument("--lag", dest="copy_lag_prob", metavar="LAG", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--id-prefix", default="syn")
    p.add_argument("--from-scripts", default=None,
                   help="JSON list of script records to realise instead")


def _assign_flags(p: argparse.ArgumentParser) -> None:
    _add_corpus_flags(p)
    p.add_argument("--out", required=True)
    _add_pipeline_flags(p)


def _train_flags(p: argparse.ArgumentParser) -> None:
    _add_corpus_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--val-fraction", type=float)
    _add_pipeline_flags(p)
    _add_forest_flags(p)


def _predict_flags(p: argparse.ArgumentParser) -> None:
    _add_corpus_flags(p)
    p.add_argument("--forest-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default=None, help="split file from train")
    p.add_argument("--subset", choices=["train", "val", "all"], default="val")
    _add_pipeline_flags(p)


def _eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--predictions", required=True)
    p.add_argument("--out-dir", default=None)


def _fuse_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--predictions", required=True)
    p.add_argument("--external", required=True)
    p.add_argument("--out", required=True)


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    _add_corpus_flags(p)
    p.add_argument("--sigmas", default="1,2,3")
    p.add_argument("--ns", default="2,3,5")
    p.add_argument("--val-fraction", type=float)
    p.add_argument("--num-trees", type=int, default=50)
    _add_mode_and_seed_flags(p)
    p.add_argument("--out", default=None)


# name: (handler, help, the function that defines its arguments)
COMMANDS = {
    "generate": (cmd_generate, "write a synthetic annotation file", _generate_flags),
    "assign": (cmd_assign, "phase assignments per video and action", _assign_flags),
    "embed": (cmd_embed, "dump per-video per-action embeddings", _assign_flags),
    "train": (cmd_train, "train one forest per action", _train_flags),
    "predict": (cmd_predict, "probabilities for every video", _predict_flags),
    "eval": (cmd_eval, "AP table, mAP, confusion matrix", _eval_flags),
    "fuse": (cmd_fuse, "sum probabilities with an external file", _fuse_flags),
    "sweep": (cmd_sweep, "grid over sigma and n", _sweep_flags),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``boxact`` parser, with every command and its arguments.

    It is built once per process: parsing leaves it unchanged, so every
    :func:`main` call parses with the same parser.
    """
    parser = argparse.ArgumentParser(
        prog="boxact",
        description="Interpretable activity recognition from bounding-box tracks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, add_flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        # a handler's usage errors name its command: "boxact sweep: error: ..."
        command.set_defaults(func=functools.partial(func, parser=command))
        add_flags(command)
    return parser


def main(argv: list[str] | None = None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):
        # what the console's encoding cannot hold is printed backslash-escaped
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BoxactError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
