"""Command-line pipeline: generate, assign, embed, train, predict, eval, fuse, sweep.

Exit codes: 0 success, 1 validation/data errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .embedding import dump_embeddings
from .errors import BoxactError, ConfigError, read_json
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
from .phases import ARCHETYPES, DEFAULT_SIGMA, DEFAULT_WINDOW_HALF_WIDTH, PHASES
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


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _features_per_split(raw: str | int) -> str | int:
    if isinstance(raw, str) and raw != "sqrt":
        try:
            return int(raw)
        except ValueError:
            raise BoxactError(
                f"--features-per-split must be 'sqrt' or an integer, got {raw!r}"
            ) from None
    return raw


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    forest = ForestParams(
        num_trees=getattr(args, "num_trees", 200),
        max_depth=getattr(args, "max_depth", None),
        min_samples_split=getattr(args, "min_samples_split", 2),
        features_per_split=_features_per_split(
            getattr(args, "features_per_split", "sqrt")
        ),
        bootstrap=not getattr(args, "no_bootstrap", False),
        seed=getattr(args, "seed", 0),
        class_weight=getattr(args, "class_weight", None),
    )
    return PipelineConfig(
        n=getattr(args, "n", DEFAULT_WINDOW_HALF_WIDTH),
        sigma=getattr(args, "sigma", DEFAULT_SIGMA),
        embedding_mode=getattr(args, "mode", "full"),
        forest=forest,
        val_fraction=getattr(args, "val_fraction", 0.25),
        seed=getattr(args, "seed", 0),
    )


def _labels_of(tracks) -> dict[str, str]:
    return {t.video_id: t.label for t in tracks if t.label is not None}


def _noise_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> NoiseParams:
    if args.noise is not None:
        if args.jitter is not None or args.lag is not None:
            parser.error("--noise preset and --jitter/--lag are mutually exclusive")
        if args.noise not in NOISE_PRESETS:
            parser.error(
                f"unknown noise preset {args.noise!r}; "
                f"choose from {sorted(NOISE_PRESETS)}"
            )
        return NOISE_PRESETS[args.noise]
    return NoiseParams(
        jitter_sigma=args.jitter if args.jitter is not None else 0.0,
        copy_lag_prob=args.lag if args.lag is not None else 0.0,
    )


# --- subcommands ----------------------------------------------------------------


def cmd_generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.from_scripts:
        raw = read_json(args.from_scripts, ConfigError)
        if not isinstance(raw, list):
            parser.error("--from-scripts file must hold a list of script records")
        try:
            scripts = [script_from_dict(rec) for rec in raw]
        except BoxactError as exc:
            raise type(exc)(f"{args.from_scripts}: {exc}") from None
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
            seed=args.seed,
            id_prefix=args.id_prefix,
        )
    write_annotation_file(args.out, tracks)
    if args.truth:
        config = _config_from_args(args)
        _write_json(
            Path(args.truth),
            {
                "format": "boxact-ground-truth",
                "version": 1,
                "provenance": make_provenance(config, "generate"),
                "videos": {vid: centers for vid, centers in sorted(truth.items())},
            },
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
                {
                    "video_id": video_id,
                    "action_id": action,
                    "object_order": assignment.object_order,
                    "b_choice": assignment.b_choice,
                    "centers": {p: assignment.centers[p] for p in PHASES},
                    "windows": {
                        p: list(assignment.windows[p])
                        if assignment.windows[p] is not None
                        else None
                        for p in PHASES
                    },
                    "total_score": assignment.total_score,
                    "degenerate": assignment.degenerate,
                }
            )
    _write_json(
        Path(args.out),
        {
            "format": "boxact-assignments",
            "version": 1,
            "provenance": make_provenance(config, "assign"),
            "records": records,
        },
    )
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
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
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
    embeds = embed_all([t for t in tracks if t.video_id in set(train_ids)], models, config)
    forests, skipped, counts = train_forests(embeds, labels, models, config, train_ids)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for action, forest in sorted(forests.items()):
        save_forest(forest, out_dir / f"{FOREST_FILE_PREFIX}{action}.json")
    provenance = make_provenance(config, "train")
    _write_json(
        out_dir / "split.json",
        {
            "format": "boxact-split",
            "version": 1,
            "provenance": provenance,
            "train": train_ids,
            "val": val_ids,
        },
    )
    _write_json(
        out_dir / "train_log.json",
        {
            "format": "boxact-train-log",
            "version": 1,
            "provenance": provenance,
            "counts": counts,
            "skipped": skipped,
            "trained": sorted(forests),
        },
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
    forests = {}
    for f in files:
        forest = load_forest(f)
        forests[forest.action_id] = forest
    return forests


def _subset_ids(args: argparse.Namespace) -> list[str] | None:
    if not getattr(args, "split", None):
        return None
    doc = read_json(args.split, ConfigError)
    if not isinstance(doc, dict) or doc.get("format") != "boxact-split":
        raise ConfigError(f"{args.split}: not a split file")
    ids: list[str] = []
    for subset in ("train", "val") if args.subset == "all" else (args.subset,):
        part = doc.get(subset)
        if not isinstance(part, list) or not all(isinstance(v, str) for v in part):
            raise ConfigError(f"{args.split}: {subset!r} must be a list of video ids")
        ids.extend(sorted(part))
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
        tracks = [t for t in tracks if t.video_id in set(subset)]
    embeds = embed_all(tracks, models, config)
    preds = predict_set(embeds, labels, forests, models, config, sorted(embeds))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_predictions(preds, args.out, provenance=make_provenance(config, "predict"))
    print(f"wrote predictions for {len(preds)} videos to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    preds = load_predictions(args.predictions)
    report = evaluate(preds)
    print(report_table(report))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(
            out_dir / "report.json",
            {
                "format": "boxact-report",
                "version": 1,
                "report": report_to_dict(report),
            },
        )
        (out_dir / "report.txt").write_text(report_table(report) + "\n")
        (out_dir / "confusion.csv").write_text(confusion_csv(report))
        print(f"report written to {out_dir}")
    return 0


def cmd_fuse(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ours = load_predictions(args.predictions)
    external = load_predictions(args.external)
    fused = fuse(ours, external)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_predictions(fused, args.out)
    print(f"wrote fused predictions for {len(fused)} videos to {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    tracks = load_annotation_file(args.annotations)
    labels = _labels_of(tracks)
    if len(labels) != len(tracks):
        raise BoxactError("sweep needs labels on every video")
    models = load_models(args.models)
    sigmas = [float(s) for s in args.sigmas.split(",") if s]
    ns = [int(n) for n in args.ns.split(",") if n]
    if not sigmas or not ns:
        parser.error("--sigmas and --ns must be non-empty comma lists")
    rows = []
    for sigma in sigmas:
        for n in ns:
            config = PipelineConfig(
                n=n,
                sigma=sigma,
                embedding_mode=args.mode,
                forest=ForestParams(num_trees=args.num_trees, seed=args.seed),
                val_fraction=args.val_fraction,
                seed=args.seed,
            )
            train_ids, val_ids = stratified_split(labels, config.val_fraction, config.seed)
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
        _write_json(
            Path(args.out),
            {"format": "boxact-sweep", "version": 1, "rows": rows},
        )
        print(f"sweep grid written to {args.out}")
    return 0


# --- parser wiring ----------------------------------------------------------------


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=DEFAULT_WINDOW_HALF_WIDTH,
                   help="phase window half-width")
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA,
                   help="Gaussian smoothing width")
    p.add_argument("--mode", choices=EMBEDDING_MODES, default="full",
                   help="embedding layout")
    p.add_argument("--seed", type=int, default=0)


def _add_forest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--num-trees", type=int, default=200)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--min-samples-split", type=int, default=2)
    p.add_argument("--features-per-split", default="sqrt",
                   help="'sqrt' or an integer")
    p.add_argument("--no-bootstrap", action="store_true")
    p.add_argument("--class-weight", choices=["balanced"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxact",
        description="Interpretable activity recognition from bounding-box tracks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic annotation file")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="ground-truth phase centres file")
    p.add_argument("--archetypes", default="all")
    p.add_argument("--count", type=int, default=10, help="videos per archetype")
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--noise", default=None,
                   help=f"preset: {', '.join(sorted(NOISE_PRESETS))}")
    p.add_argument("--jitter", type=float, default=None)
    p.add_argument("--lag", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--id-prefix", default="syn")
    p.add_argument("--from-scripts", default=None,
                   help="JSON list of script records to realise instead")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("assign", help="phase assignments per video and action")
    p.add_argument("--annotations", required=True)
    p.add_argument("--models", default="builtin")
    p.add_argument("--out", required=True)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("embed", help="dump per-video per-action embeddings")
    p.add_argument("--annotations", required=True)
    p.add_argument("--models", default="builtin")
    p.add_argument("--out", required=True)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train one forest per action")
    p.add_argument("--annotations", required=True)
    p.add_argument("--models", default="builtin")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--val-fraction", type=float, default=0.25)
    _add_pipeline_flags(p)
    _add_forest_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="probabilities for every video")
    p.add_argument("--annotations", required=True)
    p.add_argument("--models", default="builtin")
    p.add_argument("--forest-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default=None, help="split file from train")
    p.add_argument("--subset", choices=["train", "val", "all"], default="val")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="AP table, mAP, confusion matrix")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuse", help="sum probabilities with an external file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--external", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("sweep", help="grid over sigma and n")
    p.add_argument("--annotations", required=True)
    p.add_argument("--models", default="builtin")
    p.add_argument("--sigmas", default="1,2,3")
    p.add_argument("--ns", default="2,3,5")
    p.add_argument("--val-fraction", type=float, default=0.25)
    p.add_argument("--num-trees", type=int, default=50)
    p.add_argument("--mode", choices=EMBEDDING_MODES, default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (BoxactError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
