"""The benchmark's tracing hooks still find every function its layer metrics need.

``bench/hooks.py`` wraps program functions by module and name.  A hook
whose target is renamed or deleted is skipped, and every per-layer metric
that needs its span silently drops out of a traced benchmark run.  This
test installs the hooks in-process and fails on such a drop instead.
"""

import importlib.util
import sys
from pathlib import Path

HOOKS_PATH = Path(__file__).resolve().parent.parent / "bench" / "hooks.py"


def load_hooks(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_hooks", HOOKS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_has_its_spans_installed(monkeypatch):
    hooks = load_hooks(monkeypatch)
    tracer = hooks.Tracer()
    tracer.install()
    try:
        needed = {span for _, needs, _ in hooks.LAYER_METRICS.values() for span in needs}
        assert needed - tracer.installed == set()
    finally:
        tracer.uninstall()
