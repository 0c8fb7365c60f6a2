"""Outside-in tracing of jumphmc's layers.

Each hook replaces a function at the place where another module looks it
up (``jumphmc.jump.leapfrog_with_grad``, ``jumphmc.cli.write_chain_csv``,
``RoughWell.gradient`` on its class, ...) with a wrapper that times the
call, and restores it afterwards.  No program file is edited.

A span's self time is its duration minus the durations of the spans it
called, so the self times of every span in one command add up to the
command's traced wall time.  Hot spans (energy, leapfrog, step) are only
aggregated per (name, parent); the coarse ones are also kept one by one.
A hook whose target no longer exists is skipped and reported, and the
metrics that need it are left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _leapfrog_start(tracer, args, kwargs, result, seconds):
    grad0 = kwargs["grad0"] if "grad0" in kwargs else (args[3] if len(args) > 3 else None)
    tracer.counters["leapfrog.cached_start"] += grad0 is not None


def _hmc_acceptance(tracer, args, kwargs, chain, seconds):
    tracer.counters["hmc.accepted"] += int(np.count_nonzero(chain.accepted))
    tracer.counters["hmc.steps"] += len(chain)


def _trial_status(tracer, args, kwargs, trial, seconds):
    tracer.counters["tuner.trials"] += 1
    tracer.counters["tuner.failed"] += trial.status == "failed"


def _bytes_written(tracer, args, kwargs, result, seconds):
    tracer.counters["chainio.bytes"] += os.path.getsize(args[0])


def _gap_size(tracer, args, kwargs, result, seconds):
    k = np.shape(args[0])[0] // 2
    tracer.counters[f"gap.calls.k{k}"] += 1
    tracer.counters[f"gap.seconds.k{k}"] += seconds


@dataclass(frozen=True)
class Hook:
    module: str
    target: str  # attribute path inside the module, e.g. "RoughWell.gradient"
    span: str
    keep: bool = True  # store every span, not only the per-(name, parent) totals
    observe: Optional[Callable] = None


HOT = {"keep": False}
HOOKS = [
    # energy: the classes' methods, which CountingEnergy forwards to
    Hook("jumphmc.energy", "RoughWell.gradient", "energy.gradient", **HOT),
    Hook("jumphmc.energy", "RoughWell.energy", "energy.energy", **HOT),
    Hook("jumphmc.energy", "DiagonalGaussian.gradient", "energy.gradient", **HOT),
    Hook("jumphmc.energy", "DiagonalGaussian.energy", "energy.energy", **HOT),
    # phase: the integrator as jump, hmc and phase itself bind it
    Hook("jumphmc.jump", "leapfrog_with_grad", "phase.leapfrog", observe=_leapfrog_start, **HOT),
    Hook("jumphmc.hmc", "leapfrog_with_grad", "phase.leapfrog", observe=_leapfrog_start, **HOT),
    Hook("jumphmc.phase", "leapfrog_with_grad", "phase.leapfrog", observe=_leapfrog_start, **HOT),
    Hook("jumphmc.jump", "leapfrog_inverse_with_grad", "phase.leapfrog_inverse", **HOT),
    # jump and hmc: the samplers as the cli and the tuner bind them
    Hook("jumphmc.jump", "step", "jump.step", **HOT),
    Hook("jumphmc.cli", "sample_chain", "jump.sample_chain"),
    Hook("jumphmc.tuner", "sample_chain", "jump.sample_chain"),
    Hook("jumphmc.tuner", "systematic_resample_indices", "jump.resample"),
    Hook("jumphmc.cli", "hmc_chain", "hmc.hmc_chain", observe=_hmc_acceptance),
    Hook("jumphmc.tuner", "hmc_chain", "hmc.hmc_chain", observe=_hmc_acceptance),
    # diagnostics and tuner
    Hook("jumphmc.tuner", "autocorrelation", "diagnostics.autocorrelation"),
    Hook("jumphmc.tuner", "fit_decay", "diagnostics.fit_decay"),
    Hook("jumphmc.cli", "random_search", "tuner.random_search"),
    Hook("jumphmc.tuner", "evaluate_trial", "tuner.evaluate_trial", observe=_trial_status),
    # ladder
    Hook("jumphmc.cli", "random_ladder_experiment", "ladder.experiment"),
    Hook("jumphmc.ladder", "_draw_ladder", "ladder.build"),
    Hook("jumphmc.ladder", "build_mjhmc_rate_matrix", "ladder.build"),
    Hook("jumphmc.ladder", "embedded_chain", "ladder.build"),
    Hook("jumphmc.ladder", "build_hmc_ladder_chain", "ladder.build"),
    Hook("jumphmc.ladder", "spectral_gap", "ladder.spectral_gap", observe=_gap_size),
    # chainio: the writers as the cli binds them
    Hook("jumphmc.cli", "write_chain_csv", "chainio.write_chain_csv", observe=_bytes_written),
    Hook("jumphmc.cli", "write_chain_metadata", "chainio.write_other", observe=_bytes_written),
    Hook("jumphmc.cli", "write_trials_csv", "chainio.write_other", observe=_bytes_written),
    Hook("jumphmc.cli", "write_gap_csv", "chainio.write_other", observe=_bytes_written),
]


class Tracer:
    """Installs the hooks and collects spans; one instance per traced run."""

    def __init__(self):
        self._stack = [["bench", 0.0]]  # frames: [span name, seconds in child spans]
        self.totals = {}  # (name, parent) -> [calls, seconds, self seconds]
        self.spans = []  # kept spans: (command id, name, parent, start, end)
        self.counters = defaultdict(float)
        self.command_walls = []  # (seconds, sum of self seconds inside)
        self.installed = set()  # span names with at least one hook in place
        self.broken = set()  # span names whose observer no longer fits its target
        self.missing = []
        self._undo = []
        self._command_id = 0

    def install(self) -> None:
        for hook in HOOKS:
            try:
                owner = importlib.import_module(hook.module)
                *path, attr = hook.target.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self._report_missing(f"{hook.module}.{hook.target}")
                continue
            setattr(owner, attr, self._wrap(original, hook))
            self._undo.append((owner, attr, original))
            self.installed.add(hook.span)

    def _report_missing(self, target: str) -> None:
        if target not in self.missing:
            self.missing.append(target)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, hook: Hook):
        stack, totals, spans, clock = self._stack, self.totals, self.spans, time.perf_counter
        name, keep, observe = hook.span, hook.keep, hook.observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                parent[1] += seconds
                rec = totals.get((name, parent[0]))
                if rec is None:
                    rec = totals[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += seconds
                rec[2] += seconds - frame[1]
                if keep:
                    spans.append((self._command_id, name, parent[0], start, end))
            if observe is not None and name not in self.broken:
                try:
                    observe(self, args, kwargs, result, seconds)
                except (AttributeError, TypeError, IndexError, OSError):
                    # The target changed shape: drop its metrics, keep running.
                    self.broken.add(name)
                    self._report_missing(f"{hook.module}.{hook.target} (observer)")
            return result

        return traced

    def run_command(self, fn: Callable[[], int]) -> tuple[int, float]:
        """Run one command as the root span "cli"; returns (exit code, seconds)."""
        self._command_id += 1
        before = self.self_seconds_total()
        rc = self._wrap(fn, Hook("", "", "cli"))()
        rec = self.spans[-1]
        wall = rec[4] - rec[3]
        self.command_walls.append((wall, self.self_seconds_total() - before))
        return rc, wall

    def self_seconds_total(self) -> float:
        return sum(rec[2] for rec in self.totals.values())

    # -- aggregates by span name ------------------------------------------

    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.totals.items() if n == name)

    def seconds(self, name: str) -> float:
        return sum(rec[1] for (n, _), rec in self.totals.items() if n == name)

    def self_seconds(self, *names: str) -> float:
        return sum(rec[2] for (n, _), rec in self.totals.items() if n in names)

    def durations(self, name: str) -> np.ndarray:
        return np.array([end - start for _, n, _, start, end in self.spans if n == name])

    def layer_self_seconds(self) -> dict:
        """Self seconds per layer, the layer being the span name's first part."""
        layers = defaultdict(float)
        for (name, _), rec in self.totals.items():
            layers[name.split(".")[0]] += rec[2]
        return dict(sorted(layers.items()))

    def dump(self) -> dict:
        return {
            "totals": [
                {"name": n, "parent": p, "calls": c, "seconds": s, "self_seconds": own}
                for (n, p), (c, s, own) in sorted(self.totals.items())
            ],
            "spans": [
                {"command": c, "name": n, "parent": p, "start": s, "end": e}
                for c, n, p, s, e in self.spans
            ],
            "missing_hooks": self.missing,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, spans the metric needs, value(tracer, passes)).
# Additive values are per traced pass; a ratio whose base is zero (the layer
# did not run on this workload) reads 0.
LAYER_METRICS = {
    "energy.gradient.calls": ("count", ("energy.gradient",),
                              lambda t, n: t.calls("energy.gradient") / n),
    "energy.energy.calls": ("count", ("energy.energy",),
                            lambda t, n: t.calls("energy.energy") / n),
    "energy.gradient.self_s": ("s", ("energy.gradient",),
                               lambda t, n: t.self_seconds("energy.gradient") / n),
    "energy.gradient.us_per_call": ("us", ("energy.gradient",),
                                    lambda t, n: 1e6 * _ratio(t.seconds("energy.gradient"),
                                                              t.calls("energy.gradient"))),
    "energy.grad_evals_per_s": ("1/s", ("energy.gradient", "jump.sample_chain", "hmc.hmc_chain"),
                                lambda t, n: _ratio(t.calls("energy.gradient"),
                                                    t.seconds("jump.sample_chain") + t.seconds("hmc.hmc_chain"))),
    "phase.leapfrog.calls": ("count", ("phase.leapfrog",),
                             lambda t, n: t.calls("phase.leapfrog") / n),
    "phase.leapfrog.self_s": ("s", ("phase.leapfrog",),
                              lambda t, n: t.self_seconds("phase.leapfrog", "phase.leapfrog_inverse") / n),
    "phase.leapfrog.cached_start_frac": ("ratio", ("phase.leapfrog",),
                                         lambda t, n: _ratio(t.counters["leapfrog.cached_start"],
                                                             t.calls("phase.leapfrog"))),
    "jump.step.calls": ("count", ("jump.step",), lambda t, n: t.calls("jump.step") / n),
    "jump.step.self_s": ("s", ("jump.step",), lambda t, n: t.self_seconds("jump.step") / n),
    "jump.sample_chain.self_s": ("s", ("jump.sample_chain",),
                                 lambda t, n: t.self_seconds("jump.sample_chain") / n),
    "hmc.hmc_chain.self_s": ("s", ("hmc.hmc_chain",),
                             lambda t, n: t.self_seconds("hmc.hmc_chain") / n),
    "hmc.acceptance_rate": ("ratio", ("hmc.hmc_chain",),
                            lambda t, n: _ratio(t.counters["hmc.accepted"], t.counters["hmc.steps"])),
    "diagnostics.autocorrelation.calls": ("count", ("diagnostics.autocorrelation",),
                                          lambda t, n: t.calls("diagnostics.autocorrelation") / n),
    "diagnostics.autocorrelation.self_s": ("s", ("diagnostics.autocorrelation",),
                                           lambda t, n: t.self_seconds("diagnostics.autocorrelation") / n),
    "diagnostics.fit_decay.calls": ("count", ("diagnostics.fit_decay",),
                                    lambda t, n: t.calls("diagnostics.fit_decay") / n),
    "diagnostics.fit_decay.s_per_call": ("s", ("diagnostics.fit_decay",),
                                         lambda t, n: _ratio(t.seconds("diagnostics.fit_decay"),
                                                             t.calls("diagnostics.fit_decay"))),
    "tuner.evaluate_trial.s_p50": ("s", ("tuner.evaluate_trial",),
                                   lambda t, n: _quantile(t.durations("tuner.evaluate_trial"), 0.5)),
    "tuner.evaluate_trial.s_max": ("s", ("tuner.evaluate_trial",),
                                   lambda t, n: _quantile(t.durations("tuner.evaluate_trial"), 1.0)),
    "tuner.failed_fraction": ("ratio", ("tuner.evaluate_trial",),
                              lambda t, n: _ratio(t.counters["tuner.failed"], t.counters["tuner.trials"])),
    "tuner.self_s": ("s", ("tuner.evaluate_trial", "tuner.random_search"),
                     lambda t, n: t.self_seconds("tuner.evaluate_trial", "tuner.random_search") / n),
    **{
        f"ladder.spectral_gap.ms_per_call.k{k}": (
            "ms", ("ladder.spectral_gap",),
            lambda t, n, k=k: 1e3 * _ratio(t.counters[f"gap.seconds.k{k}"], t.counters[f"gap.calls.k{k}"]),
        )
        for k in (33, 129, 201)
    },
    "ladder.build.self_s": ("s", ("ladder.build",), lambda t, n: t.self_seconds("ladder.build") / n),
    "chainio.write_chain_csv.self_s": ("s", ("chainio.write_chain_csv",),
                                       lambda t, n: t.self_seconds("chainio.write_chain_csv") / n),
    "chainio.bytes_written": ("bytes", ("chainio.write_chain_csv", "chainio.write_other"),
                              lambda t, n: t.counters["chainio.bytes"] / n),
    "chainio.mb_per_s": ("MB/s", ("chainio.write_chain_csv", "chainio.write_other"),
                         lambda t, n: 1e-6 * _ratio(t.counters["chainio.bytes"],
                                                    t.seconds("chainio.write_chain_csv")
                                                    + t.seconds("chainio.write_other"))),
    "chainio.write_other.self_s": ("s", ("chainio.write_other",),
                                   lambda t, n: t.self_seconds("chainio.write_other") / n),
    "cli.self_s": ("s", (), lambda t, n: t.self_seconds("cli") / n),
}


def _quantile(values: np.ndarray, q: float) -> float:
    return float(np.quantile(values, q)) if values.size else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Every LAYER_METRICS entry whose hooks are all installed."""
    out = {}
    for name, (unit, needs, value) in LAYER_METRICS.items():
        if all(span in tracer.installed - tracer.broken for span in needs):
            out[name] = {"value": float(value(tracer, passes)), "unit": unit}
    return out
