"""The benchmark's trace probes name functions that exist in boxact.

``bench/spans.py`` replaces public boxact names with timing wrappers during a
traced run; a renamed or deleted name would otherwise only show up as a
non-empty ``trace_missing`` in that run's output.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_bench_probe_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.PROBES
    missing = [
        f"{module}.{probe.function}"
        for probe in spans.PROBES
        for module in probe.modules
        if not callable(getattr(importlib.import_module(module), probe.function, None))
    ]
    assert missing == []
