"""In-memory spans around the calls into each boxact layer.

Nothing inside ``src/`` records anything.  For a traced pass the benchmark
replaces the public names that its own code, ``boxact.cli``,
``boxact.pipeline`` and ``boxact.phases`` look up at call time with timing
wrappers, and puts the originals back when the pass ends.  A span has a
name, a layer, start and end (``perf_counter_ns``), its parent span, the pass
it belongs to and the video/action it concerns.  Counters are derived after
the pass, outside every span, from the call's arguments and the objects it
returned (tracks, ``PhaseAssignment``, tree nodes, file sizes).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

NS = 1e-9


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _frames(tracks) -> int:
    return sum(len(t.frames) for t in tracks)


def _tree_shape(tree) -> tuple[int, int]:
    """(nodes, depth) of one tree, walked without recursion."""
    nodes = depth = 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if hasattr(node, "left"):
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return nodes, depth


def _forest_counts(args, kwargs, forest) -> dict:
    shapes = [_tree_shape(t) for t in forest.trees]
    return {
        "trees": len(shapes),
        "nodes": sum(n for n, _ in shapes),
        "max_depth": max(d for _, d in shapes),
    }


def _assignment_counts(args, kwargs, assignment) -> dict:
    return {
        "degenerate": int(assignment.degenerate),
        "won_swapped": int(assignment.object_order == "swapped"),
        "won_second_best": int(assignment.b_choice == "second_best"),
    }


def _window_frames(args, kwargs, result) -> dict:
    windows = _arg(args, kwargs, 1, "assignment").windows.values()
    return {"window_frames": sum(hi - lo + 1 for lo, hi in filter(None, windows))}


def _video(position: int, name: str) -> Callable:
    return lambda args, kwargs: (getattr(_arg(args, kwargs, position, name), "video_id", None), None)


def _action(position: int, name: str) -> Callable:
    return lambda args, kwargs: (None, getattr(_arg(args, kwargs, position, name), "action_id", None))


def _video_action(model_position: int) -> Callable:
    def ids(args, kwargs):
        track = _arg(args, kwargs, 0, "track")
        model = _arg(args, kwargs, model_position, "model")
        return getattr(track, "video_id", None), getattr(model, "action_id", None)

    return ids


@dataclass(frozen=True)
class Probe:
    """One wrapped function: its layer, the namespaces that call it, its ids and counters."""

    layer: str
    function: str
    modules: tuple[str, ...]
    ids: Callable | None = None
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.function}"


PROBES = (
    Probe("cli", "main", ("boxact.cli",),
          count=lambda a, k, rc: {"exit": rc}),
    Probe("tracks", "load_annotation_file", ("boxact.tracks", "boxact.cli"),
          count=lambda a, k, tracks: {"videos": len(tracks), "frames": _frames(tracks)}),
    Probe("pipeline", "embed_all", ("boxact.pipeline", "boxact.cli"),
          count=lambda a, k, r: {"frames": _frames(_arg(a, k, 0, "tracks"))}),
    Probe("pipeline", "assign_track", ("boxact.pipeline",), ids=_video(0, "track")),
    Probe("pipeline", "train_forests", ("boxact.pipeline", "boxact.cli")),
    Probe("pipeline", "predict_set", ("boxact.pipeline", "boxact.cli")),
    Probe("relations", "relation_sequence", ("boxact.pipeline",), ids=_video(0, "track"),
          count=lambda a, k, rels: {"frames": len(rels)}),
    Probe("phases", "score_frames", ("boxact.pipeline",), ids=_video_action(1)),
    Probe("phases", "assign_with_alternatives", ("boxact.pipeline",),
          ids=_action(0, "matrix_annotated"), count=_assignment_counts),
    Probe("phases", "assign_phases", ("boxact.phases",), ids=_action(0, "matrix"),
          count=lambda a, k, r: {"alternatives": 1}),
    Probe("phases", "second_best_b", ("boxact.phases",), ids=_action(0, "matrix"),
          count=lambda a, k, f_b: {"alternatives": int(f_b is not None)}),
    Probe("embedding", "embed_video", ("boxact.pipeline",), ids=_video_action(3),
          count=_window_frames),
    Probe("forest", "train_forest", ("boxact.pipeline",),
          ids=lambda a, k: (None, k.get("action_id")), count=_forest_counts),
    Probe("forest", "predict_proba", ("boxact.pipeline",), ids=_action(0, "model")),
    Probe("forest", "save_forest", ("boxact.cli",), ids=_action(0, "model"),
          count=lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    Probe("forest", "load_forest", ("boxact.cli",),
          count=lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    Probe("evaluation", "evaluate", ("boxact.evaluation", "boxact.cli"),
          count=lambda a, k, r: {"videos": len(_arg(a, k, 0, "preds"))}),
)

ROOT = Probe("bench", "pass", ())


@dataclass
class Span:
    probe: Probe
    pass_index: int
    parent: int | None
    video: str | None
    action: str | None
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)
    call: tuple | None = None  # (args, kwargs, result) until counted

    def to_dict(self, index: int, origin_ns: int) -> dict:
        return {
            "id": index,
            "parent": self.parent,
            "pass": self.pass_index,
            "name": self.probe.name,
            "layer": self.probe.layer,
            "start_ns": self.start_ns - origin_ns,
            "end_ns": self.end_ns - origin_ns,
            "video": self.video,
            "action": self.action,
            "counts": self.counts,
        }


class Tracer:
    """Spans of traced passes, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._open: list[int] = []
        self._uncounted = 0
        self._origin_ns = time.perf_counter_ns()

    def _start(self, probe: Probe, pass_index: int, args: tuple, kwargs: dict) -> Span:
        parent = self._open[-1] if self._open else None
        video, action = probe.ids(args, kwargs) if probe.ids else (None, None)
        if parent is not None:
            video = video or self.spans[parent].video
            action = action or self.spans[parent].action
        span = Span(probe, pass_index, parent, video, action, 0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, probe: Probe, fn: Callable, pass_index: int) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._start(probe, pass_index, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            span.call = (args, kwargs, result)
            return result

        return traced

    def run_pass(self, pass_index: int, operation: Callable):
        """Run ``operation()`` under a root span with every probe installed.

        Call :meth:`count` afterwards, outside the timed region.
        """
        patched = []
        for probe in PROBES:
            for module_name in probe.modules:
                module = importlib.import_module(module_name)
                fn = getattr(module, probe.function, None)
                if fn is None:
                    self.missing.add(f"{module_name}.{probe.function}")
                    continue
                patched.append((module, probe.function, fn))
                setattr(module, probe.function, self._wrap(probe, fn, pass_index))
        self._uncounted = len(self.spans)
        root = self._start(ROOT, pass_index, (), {})
        try:
            return operation()
        finally:
            self._end(root)
            for module, name, fn in patched:
                setattr(module, name, fn)

    def count(self) -> None:
        """Derive the counters of the last pass and drop its call references."""
        for span in self.spans[self._uncounted :]:
            if span.call is not None and span.probe.count is not None:
                span.counts = span.probe.count(*span.call)
            span.call = None
        self._uncounted = len(self.spans)

    def passes(self) -> list[list[tuple[int, Span]]]:
        by_pass: dict[int, list[tuple[int, Span]]] = {}
        for index, span in enumerate(self.spans):
            by_pass.setdefault(span.pass_index, []).append((index, span))
        return [by_pass[p] for p in sorted(by_pass)]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(index, self._origin_ns)) + "\n")


def pass_layers(spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    duration = {i: s.end_ns - s.start_ns for i, s in spans}
    children = dict.fromkeys(duration, 0)
    for i, s in spans:
        if s.parent is not None:
            children[s.parent] += duration[i]
    self_ns: dict[str, int] = {}
    by_name: dict[str, list[tuple[int, Span]]] = {}
    for i, s in spans:
        self_ns[s.probe.layer] = self_ns.get(s.probe.layer, 0) + duration[i] - children[i]
        by_name.setdefault(s.probe.name, []).append((i, s))

    def busy(*names: str) -> float:
        return NS * sum(duration[i] for n in names for i, _ in by_name.get(n, ()))

    def total(counter: str, *names: str) -> int:
        return sum(s.counts.get(counter, 0) for n in names for _, s in by_name.get(n, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    frames_computed = total("frames", "relations.relation_sequence")
    frames_used = total("frames", "pipeline.embed_all")
    forests = [s.counts for _, s in by_name.get("forest.train_forest", ())]
    m = {
        "tracks.parse_s": busy("tracks.load_annotation_file"),
        "tracks.frames": total("frames", "tracks.load_annotation_file"),
        "relations.busy_s": busy("relations.relation_sequence"),
        "relations.frames_computed": frames_computed,
        "relations.frames_used_ratio": frames_used / frames_computed if frames_computed else 0.0,
        "phases.score_s": busy("phases.score_frames"),
        "phases.score_calls": calls("phases.score_frames"),
        "phases.assign_s": busy("phases.assign_with_alternatives"),
        "phases.assign.alternatives": total("alternatives", "phases.assign_phases", "phases.second_best_b"),
        "phases.assign.degenerate": total("degenerate", "phases.assign_with_alternatives"),
        "phases.assign.won_swapped": total("won_swapped", "phases.assign_with_alternatives"),
        "phases.assign.won_second_best": total("won_second_best", "phases.assign_with_alternatives"),
        "embedding.busy_s": busy("embedding.embed_video"),
        "embedding.window_frames": total("window_frames", "embedding.embed_video"),
        "pipeline.self_s": NS * self_ns.get("pipeline", 0),
        "forest.train_s": busy("forest.train_forest"),
        "forest.trees": total("trees", "forest.train_forest"),
        "forest.nodes": total("nodes", "forest.train_forest"),
        "forest.max_depth": max((c.get("max_depth", 0) for c in forests), default=0),
        "forest.predict_s": busy("forest.predict_proba"),
        "forest.predict_calls": calls("forest.predict_proba"),
        "forest.io_s": busy("forest.save_forest", "forest.load_forest"),
        "forest.io_bytes": total("bytes", "forest.save_forest", "forest.load_forest"),
        "evaluation.busy_s": busy("evaluation.evaluate"),
        "cli.self_s": NS * self_ns.get("cli", 0),
        "bench.self_s": NS * self_ns.get("bench", 0),
        "trace.wall_s": busy("bench.pass"),
    }
    m["layers_self_s"] = {layer: NS * ns for layer, ns in sorted(self_ns.items())}
    return m
