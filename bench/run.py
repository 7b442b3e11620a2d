"""boxact benchmark: three serial closed-loop workloads, end to end or traced.

Run from the repository root; the package need not be installed, because
``src`` is put on the import path:

    python3 bench/run.py --workload embed-long --seed 0 --seconds 30 --trace 0

Set-up (input generation, plus the embeddings for ``crossval``) runs at
least ``SETUP_MIN`` times and its median is ``setup_s``.  One untimed warm-up
operation follows, then operations repeat until ``--seconds`` have passed.
Timings are medians over operations, each scaled by a machine-speed
calibration taken right after it (see ``calibrate.py``).  With
``--trace 1`` every other operation runs with spans (see ``spans.py``); the
result then holds the per-layer metrics, averaged over the traced
operations, and ``trace.overhead_ratio``, the traced over the untraced
median operation time.

Every operation's outputs must equal exactly those of the first operation
with the same key.  At the default seed they, and the set-up's, must also
match ``bench/reference/<workload>.json``: strings and ints exactly, floats
to ``rtol=1e-12``.  A mismatch, a ``BoxactError`` or a failing CLI command
counts as a failed operation.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (provenance,
samples, stage times, quality, per-layer detail) is written to
``bench/out/<workload>-seed<seed>-trace<t>.json`` and, when traced, the spans
to ``bench/out/<workload>-seed<seed>-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, kernel_seconds
from spans import Tracer, pass_layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / "work"
REFERENCE_DIR = BENCH_DIR / "reference"

DEFAULT_SEED = 0
# set up at least SETUP_MIN times, and more while the set-ups took under
# SETUP_BUDGET_S in total, so that a short set-up's median is steady too
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_BUDGET_S = 2.0
RTOL = 1e-12
ATOL = 1e-12  # floor for values that are zero in the reference

# name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "videos_per_s": "videos/s",
    "frames_per_s": "frames/s",
    "peak_rss_mb": "MiB",
}
# reported and recorded, but only where the workload has the stage
WORKLOAD_FIGURES = {
    "train_s": "s",
    "predict_s": "s",
    "accuracy": "1",
    "weighted_map": "1",
}
# name -> (unit, end-to-end metric it should move)
PER_LAYER = {
    "tracks.parse_s": ("s", "frames_per_s"),
    "tracks.frames": ("count", "frames_per_s"),
    "relations.busy_s": ("s", "frames_per_s, videos_per_s"),
    "relations.frames_computed": ("count", "frames_per_s, videos_per_s"),
    "relations.frames_used_ratio": ("1", "frames_per_s, videos_per_s"),
    "phases.score_s": ("s", "videos_per_s"),
    "phases.score_calls": ("count", "videos_per_s"),
    "phases.assign_s": ("s", "videos_per_s"),
    "phases.assign.alternatives": ("count", "videos_per_s"),
    "phases.assign.degenerate": ("count", "videos_per_s"),
    "phases.assign.won_swapped": ("count", "videos_per_s"),
    "phases.assign.won_second_best": ("count", "videos_per_s"),
    "embedding.busy_s": ("s", "videos_per_s"),
    "embedding.window_frames": ("count", "videos_per_s"),
    "pipeline.self_s": ("s", "videos_per_s"),
    "forest.train_s": ("s", "train_s"),
    "forest.trees": ("count", "train_s"),
    "forest.nodes": ("count", "train_s"),
    "forest.max_depth": ("count", "train_s"),
    "forest.predict_s": ("s", "predict_s"),
    "forest.predict_calls": ("count", "predict_s"),
    "forest.io_s": ("s", "train_s, predict_s"),
    "forest.io_bytes": ("bytes", "train_s, predict_s"),
    "evaluation.busy_s": ("s", "predict_s"),
    "cli.self_s": ("s", "train_s, predict_s"),
    "bench.self_s": ("s", "-"),
    "trace.wall_s": ("s", "-"),
    "trace.overhead_ratio": ("1", "-"),
}


def _mismatch(expected, got, rtol: float, path: str) -> str | None:
    """First difference between two JSON-like values, or None."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return f"{path}: keys differ"
        for key in expected:
            found = _mismatch(expected[key], got[key], rtol, f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return f"{path}: lengths differ"
        for i, (e, g) in enumerate(zip(expected, got)):
            found = _mismatch(e, g, rtol, f"{path}[{i}]")
            if found:
                return found
        return None
    if rtol and isinstance(expected, float) and isinstance(got, float):
        if abs(got - expected) <= ATOL + rtol * abs(expected):
            return None
    elif type(expected) is type(got) and expected == got:
        return None
    return f"{path}: expected {expected!r}, got {got!r}"


class Checker:
    """Compares outputs with the first ones of the same key and with the reference."""

    def __init__(self, reference: dict | None, record: bool) -> None:
        self.reference = reference
        self.record = {} if record else None
        self.first: dict = {}
        self.covered: dict[str, set] = {}

    def check(self, key, outputs: dict) -> str | None:
        first = self.first.setdefault(key, outputs)
        found = _mismatch(first, outputs, 0.0, f"repeat {key}")
        if found:
            return found
        for section, entries in outputs.items():
            if self.record is not None:
                for k, v in entries.items():
                    self.record.setdefault(section, {}).setdefault(k, v)
            if self.reference is None:
                continue
            expected = self.reference.get(section, {})
            for k, v in entries.items():
                if k not in expected:
                    return f"reference/{section}/{k}: not in the reference"
                found = _mismatch(expected[k], v, RTOL, f"reference/{section}/{k}")
                if found:
                    return found
                self.covered.setdefault(section, set()).add(k)
        return None

    def uncovered(self) -> str | None:
        if self.reference is None:
            return None
        for section, entries in self.reference.items():
            missing = set(entries) - self.covered.get(section, set())
            if missing:
                return f"reference/{section}: {len(missing)} entries never produced"
        return None


def write_reference(path: Path, reference: dict) -> None:
    """One entry per line, so a changed output shows as a short diff."""
    lines = ["{"]
    sections = sorted(reference)
    for s, section in enumerate(sections):
        lines.append(f"{json.dumps(section)}: {{")
        keys = sorted(reference[section])
        for k, key in enumerate(keys):
            comma = "," if k < len(keys) - 1 else ""
            value = json.dumps(reference[section][key], sort_keys=True, separators=(",", ":"))
            lines.append(f"  {json.dumps(key)}: {value}{comma}")
        lines.append("}," if s < len(sections) - 1 else "}")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "boxact").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def _measure(args, workload, checker, tracer) -> tuple[list[float], list[float], list[dict], list[str], int]:
    """Set up, then run operations; returns raw and scaled set-up times, samples, failures, attempts."""
    from boxact.errors import BoxactError
    from workloads import OperationFailed

    failures: list[str] = []
    setup_raw, setup_s = [], []
    while len(setup_raw) < SETUP_MIN or (sum(setup_raw) < SETUP_BUDGET_S and len(setup_raw) < SETUP_MAX):
        start = time.perf_counter()
        fingerprint = workload.setup()
        setup_raw.append(time.perf_counter() - start)
        setup_s.append(setup_raw[-1] * REFERENCE_S / kernel_seconds())
        problem = checker.check("setup", fingerprint)
        if problem:
            failures.append(f"set-up: {problem}")

    min_operations = max(workload.min_operations, 4 if args.trace else 1)
    samples: list[dict] = []
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        done = None
        start = time.perf_counter()
        try:
            if traced:
                done = tracer.run_pass(index, lambda: workload.operation(index))
            else:
                done = workload.operation(index)
            wall = time.perf_counter() - start
            scale = REFERENCE_S / kernel_seconds()
            if traced:
                tracer.count()
            problem = checker.check(workload.output_key(index), workload.outputs(done))
        except (BoxactError, OperationFailed) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"operation {index}: {problem}")
        if index == 0:  # the warm-up operation is checked but not timed
            measure_start = time.perf_counter()
        elif done is not None:
            samples.append(
                {"index": index, "ok": not problem, "traced": traced,
                 "raw_wall_s": wall, "scale": scale,
                 "wall_s": wall * scale, "videos": done.videos, "frames": done.frames,
                 **{k: v * scale for k, v in done.stages.items()}, **done.quality}
            )
        index += 1
        if index > min_operations and time.perf_counter() - measure_start >= args.seconds:
            break
    return setup_raw, setup_s, samples, failures, len(setup_raw) + index


def _per_layer(tracer, timed: list[dict], plain: list[dict]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics averaged over the traced operations, layer self-times, problems."""
    traced_ok = {s["index"] for s in timed if s["traced"]}
    layers = [pass_layers(p) for p in tracer.passes() if p[0][1].pass_index in traced_ok]
    per_layer = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            traced_wall = statistics.median(s["wall_s"] for s in timed if s["traced"])
            per_layer[name] = traced_wall / statistics.median(s["wall_s"] for s in plain)
        else:
            per_layer[name] = statistics.fmean(m[name] for m in layers)
    layer_self: dict[str, float] = {}
    for m in layers:
        for layer, seconds in m["layers_self_s"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + seconds / len(layers)
    problems = []
    gap = per_layer["trace.wall_s"] - sum(layer_self.values())
    if abs(gap) > 1e-6 * per_layer["trace.wall_s"]:
        problems.append(f"trace: layer self-times miss the traced wall time by {gap:.6f} s")
    return per_layer, layer_self, problems


def run(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS  # imports boxact, so only once src is on the path

    reference_path = REFERENCE_DIR / f"{args.workload}.json"
    if args.write_reference and args.seed != DEFAULT_SEED:
        print(f"error: the reference is for seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        reference = json.loads(reference_path.read_text())
    checker = Checker(reference, record=args.write_reference)
    tracer = Tracer()
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup_raw, setup_s, samples, failures, attempted = _measure(args, workload, checker, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for p in [checker.uncovered()] if p]

    if args.write_reference:
        if failures or problems:
            print("\n".join(failures + problems), file=sys.stderr)
            return 1
        REFERENCE_DIR.mkdir(exist_ok=True)
        write_reference(reference_path, checker.record)
        print(f"wrote {reference_path.relative_to(ROOT)}")
        return 0

    timed = [s for s in samples if s["ok"]] or samples
    if not timed:
        print("\n".join(failures + problems), file=sys.stderr)
        print("error: no operation completed", file=sys.stderr)
        return 1
    plain = [s for s in timed if not s["traced"]] or timed
    figures = {
        "setup_s": statistics.median(setup_s),
        "videos_per_s": statistics.median(s["videos"] / s["wall_s"] for s in plain),
        "frames_per_s": statistics.median(s["frames"] / s["wall_s"] for s in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    figures.update({n: statistics.median(s[n] for s in plain) for n in ("train_s", "predict_s") if n in plain[0]})
    quality = {**timed[0], **workload.summary()}
    figures.update({n: quality[n] for n in ("accuracy", "weighted_map") if n in quality})
    units = {**END_TO_END, **WORKLOAD_FIGURES}

    machine = provenance()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
        "provenance": machine,
        "reference_checked": reference is not None,
        "figures": {n: {"value": v, "unit": units[n]} for n, v in figures.items()},
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "wall_s": _quartiles([s["wall_s"] for s in plain]),
        "raw_wall_s": _quartiles([s["raw_wall_s"] for s in plain]),
        "samples": samples,
    }
    if args.trace:
        per_layer, layer_self, trace_problems = _per_layer(tracer, timed, plain)
        problems += trace_problems
        metrics = {n: {"value": v, "unit": PER_LAYER[n][0]} for n, v in per_layer.items()}
        record["per_layer"] = {
            n: {"value": v, "unit": PER_LAYER[n][0], "moves": PER_LAYER[n][1]}
            for n, v in per_layer.items()
        }
        record["layers_self_s"] = layer_self
        record["trace_missing"] = sorted(tracer.missing)
        if tracer.missing:
            print(f"warning: not traced, names absent: {sorted(tracer.missing)}", file=sys.stderr)
    else:
        metrics = {n: {"value": figures[n], "unit": u} for n, u in END_TO_END.items()}
    correct = not failures and not problems
    failed = len(failures)
    record.update(
        correct=correct, attempted=attempted, failed=failed,
        failed_ratio=failed / attempted, failures=failures + problems,
    )
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")

    for problem in failures + problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"boxact benchmark: {args.workload}, seed {args.seed}, {len(samples)} timed operations "
        f"after 1 warm-up, trace {'on' if args.trace else 'off'}, "
        f"reference {'checked' if reference is not None else 'not stored for this seed'}"
    )
    print(
        f"  machine: nproc {machine['nproc']}, python {machine['python']}, numpy {machine['numpy']}, "
        f"commit {machine['git_commit'] or 'unknown'}, sizes {json.dumps(workload.sizes)}"
    )
    shown = {n: (m["value"], m["unit"]) for n, m in metrics.items()}
    if not args.trace:
        shown.update({n: (v, units[n]) for n, v in figures.items()})
    for name, (value, unit) in shown.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<32} {failed:>8} / {attempted} operations")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("embed-long", "classify", "crossval"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help=f"store this run's outputs as the seed-{DEFAULT_SEED} reference "
        "(only when an output change is intended)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "boxact" / "__init__.py").is_file():
        print(f"error: no boxact package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
