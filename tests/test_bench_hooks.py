"""The benchmark's tracing hooks still find every function its layer metrics need.

``bench/hooks.py`` wraps program functions by module and name.  A hook
whose target is renamed or deleted is skipped, and every per-layer metric
that needs its span silently drops out of a traced benchmark run.  This
test installs the hooks in-process and fails on such a drop instead.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

from jumphmc.cli import main

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


def test_sample_is_one_chain_span_and_one_complete_csv_write(monkeypatch, tmp_path, use_cpus,
                                                             forks):
    """A traced ``sample`` sees the chain through ``tuner.run_chain``'s module
    globals and the CSV through ``cli.write_chain_csv``, whose file is complete
    (its byte count read) when the call returns, with its blocks forked mid-chain."""
    use_cpus(2)
    hooks = load_hooks(monkeypatch)
    tracer = hooks.Tracer()
    tracer.install()
    written = 0
    try:
        for sampler, chain_span in (("mjhmc", "jump.sample_chain"), ("hmc", "hmc.hmc_chain")):
            cfg = tmp_path / f"{sampler}_config.json"
            cfg.write_text(json.dumps({"sampler": sampler, "model": {"name": "rough_well"},
                                       "epsilon": 0.5, "steps": 5, "beta": 0.3,
                                       "n_samples": 1500, "seed": 3}))
            out = tmp_path / sampler
            code, _ = tracer.run_command(lambda: main(["sample", str(cfg), "--out", str(out)]))
            assert code == 0
            spans = [name for command, name, *_ in tracer.spans if command == tracer._command_id]
            assert spans.count(chain_span) == 1
            assert spans.count("jump.sample_chain") + spans.count("hmc.hmc_chain") == 1
            assert spans.count("chainio.write_chain_csv") == 1
            written += sum(os.path.getsize(f"{out}{suffix}") for suffix in (".csv", ".json"))
    finally:
        tracer.uninstall()
    assert "chainio.write_chain_csv" not in tracer.broken
    # the CSV's and the metadata JSON's bytes, read once each write returned
    assert tracer.counters["chainio.bytes"] == written
    assert len(forks) == 4  # each 1500-row chain is two blocks: a child per block and half


def test_experiments_are_one_span_each_through_the_cli_globals(monkeypatch, tmp_path):
    """``cli`` calls ``random_search`` and ``random_ladder_experiment`` through
    its module globals, where the hooks wrap them, inside the config checks."""
    hooks = load_hooks(monkeypatch)
    tracer = hooks.Tracer()
    tracer.install()
    runs = [
        ("tune", {"sampler": "hmc", "model": {"name": "gaussian", "precision_diag": [1.0]},
                  "budget": 2, "eval": {"n_samples": 300, "n_lags": 20}},
         "tuner.random_search"),
        ("spectral-gap", {"sizes": [5, 9], "draws_per_size": 2}, "ladder.experiment"),
    ]
    try:
        for command, config, span in runs:
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(config))
            out = str(tmp_path / command)
            code, _ = tracer.run_command(lambda: main([command, str(cfg), "--out", out]))
            assert code == 0
            spans = [(name, parent) for command_id, name, parent, *_ in tracer.spans
                     if command_id == tracer._command_id]
            assert spans.count((span, "cli")) == 1
            assert [name for name, _ in spans].count(span) == 1
    finally:
        tracer.uninstall()
