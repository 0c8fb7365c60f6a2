"""Benchmark of the jumphmc command-line paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports ``jumphmc`` from
the checkout's ``src`` and nowhere else.  One process is one closed-loop
client: it calls ``jumphmc.cli.main([...])`` in-process on generated JSON
configs, one command after another, and repeats the workload's pass of
commands for about S seconds.  Every output is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (see hooks.py) and prints the per-layer ones.
The last line of stdout is the result object; the line before it holds
the detail: the metrics named per workload, check failures, the
layer table and the environment.
"""

from __future__ import annotations

import os

# One BLAS thread (nproc is 2 on the reference machine): with 2 threads one
# k=129 ladder draw ranged over 66-99 ms, with 1 thread over 86-91 ms.  This
# has to run before numpy is first imported.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hooks import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_gaps, check_sample, check_tune  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# The reference machine is a shared VM whose speed drifts by up to 1.5x
# for minutes at a time, with process CPU time drifting alike.  Timings are
# therefore scaled by the median time of a fixed kernel run between the
# passes: a rate becomes "per second on the reference machine at its usual
# speed", at which the kernel takes REFERENCE_CALIBRATION_S.  The kernel
# mixes what the workloads do: numpy calls on tiny vectors from a Python
# loop, float formatting, numpy on mid-size arrays and a dense eigensolve.
# The workloads follow the drift less than the kernel does: over 40 runs,
# log(rate) against log(kernel time) had slopes of -0.6 to -0.81 per
# workload, so the kernel's speed-up is applied to the power 0.7.
REFERENCE_CALIBRATION_S = 0.052
DRIFT_ELASTICITY = 0.7
_CAL_MATRIX = np.random.default_rng(0).random((150, 150))
_CAL_LAGS = np.linspace(0.0, 1000.0, 120)
_CAL_RATES = np.geomspace(1e-5, 1e-1, 60)


def calibration_seconds() -> float:
    start = time.perf_counter()
    x, v = np.zeros(2), np.full(2, 0.3)
    for _ in range(2000):
        v -= 0.5 * (x * 1e-4 - 0.785 * np.sin(0.785 * x))
        x += v
    ",".join(repr(float(u)) for u in np.linspace(0.0, 1.0, 8000))
    for _ in range(200):
        np.sum((np.exp(-np.multiply.outer(_CAL_RATES, _CAL_LAGS)) * np.cos(0.01 * _CAL_LAGS) - 0.5) ** 2, axis=1)
    np.linalg.eigvals(_CAL_MATRIX)
    return time.perf_counter() - start


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny only checks the plumbing (selftest.py)")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: do the set-up only, then exit; the parent times it")
    return p.parse_args(argv)


def import_program():
    """Import jumphmc from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "jumphmc" / "__init__.py").is_file():
        raise BenchError(f"no jumphmc sources under {src}")
    sys.path.insert(0, str(src))
    import jumphmc.cli

    if Path(jumphmc.__file__).resolve().parent != src / "jumphmc":
        raise BenchError(f"imported jumphmc from {jumphmc.__file__}, not from {src}")
    return jumphmc.cli


class Bench:
    """One run: a workload at one seed, its work directory and its tallies."""

    def __init__(self, cli, workload, seed: int, scale: str):
        self.cli, self.workload, self.seed, self.scale = cli, workload, seed, scale
        self.workdir = ROOT / ".bench_work" / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failed checks: each makes the result incorrect
        self.notes = []  # anything else worth reading in the detail line
        self.digests = {}  # input -> digest of the outputs it produced first
        self.chains = {}  # label -> ChainFile of each sample command's first pass
        self.trials = Counter()  # tuning trial statuses

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_command(self, cmd, tracer=None) -> tuple[int, float]:
        """Run one command in-process; returns (exit code, wall seconds)."""
        cfg_path = self.workdir / f"{cmd.label}.config.json"
        cfg_path.write_text(json.dumps(cmd.config_with_out(self.workdir)))
        argv = [cmd.cli, str(cfg_path)]
        captured = io.StringIO()

        def call():
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                return self.cli.main(argv)

        try:
            if tracer is not None:
                return tracer.run_command(call)
            start = time.perf_counter()
            rc = call()
            return rc, time.perf_counter() - start
        except Exception:  # a crash is a failed operation, not the end of the run
            self.problems.append(f"{cmd.label}: crashed\n{traceback.format_exc()}")
            return -1, float("nan")

    def setup(self) -> None:
        """Generate the configs and run a shrunk copy of every command."""
        for cmd in self.workload.commands(self.seed, 0, self.scale):
            rc, _ = self.run_command(cmd.warmup())
            if rc != 0:
                raise BenchError(f"warm-up of {cmd.label} exited {rc}: {self.problems}")

    def run_pass(self, pass_index: int, tracer=None) -> list[tuple]:
        """Run the workload's commands once and check them; returns (command, seconds) pairs."""
        timed = []
        for cmd in self.workload.commands(self.seed, pass_index, self.scale):
            rc, seconds = self.run_command(cmd, tracer)
            self.attempted += 1
            problems = [f"exit code {rc}"] if rc != 0 else self._check(cmd)
            if problems:
                self.failed += 1
                self.problems += [f"pass {pass_index} {cmd.label}: {p}" for p in problems]
            timed.append((cmd, seconds))
        return timed

    def _check(self, cmd) -> list[str]:
        files = cmd.outputs(self.workdir)
        digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
        key = json.dumps([cmd.label, cmd.cli, cmd.config], sort_keys=True)
        if key in self.digests:
            # Same input again: the traced twin of an untraced pass.
            return [] if self.digests[key] == digest else ["outputs differ from an earlier run of the same input"]
        self.digests[key] = digest
        try:
            if cmd.cli == "sample":
                problems, chain = check_sample(cmd, files)
                self.chains.setdefault(cmd.label, chain)
            elif cmd.cli == "tune":
                problems, status = check_tune(cmd, files)
                self.trials += status
            else:
                problems = check_gaps(cmd, files)
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems = [f"unreadable output: {err!r}"]
        return problems

    def error_rate(self) -> float:
        """Failed over attempted operations; a tuning trial is an operation too."""
        failed_trials = self.trials["failed"]
        return (self.failed + failed_trials) / (self.attempted + sum(self.trials.values()))

    def chain_metrics(self) -> dict:
        """Counts read from the mjhmc chain files, and decay rates per gradient evaluation."""
        from jumphmc import DecayFitError, autocorrelation, fit_decay, systematic_resample_indices

        out = {}
        mj, hmc = self.chains.get("mjhmc"), self.chains.get("hmc")
        if mj is not None:
            out["mjhmc.grad_evals_per_sample"] = (mj.grad_evals_per_sample, "count")
            flips, after_flip = mj.flip_stats()
            out["jump.flip_fraction"] = (flips, "ratio")
            out["jump.grad_share_after_flip"] = (after_flip, "ratio")
        if mj is not None and hmc is not None:
            # As in `jumphmc autocorr`: resample by holding time, share one lag grid.
            idx = systematic_resample_indices(mj.holding_times, len(mj.holding_times),
                                              np.random.default_rng(self.seed))
            series = {"jump": (mj.positions[idx], mj.gradient_evals[idx]),
                      "hmc": (hmc.positions, hmc.gradient_evals)}
            max_lag = 0.1 * min(float(ev[-1] - ev[0]) for _, ev in series.values())
            for name, (x, ev) in series.items():
                try:
                    fit = fit_decay(autocorrelation(x, ev, max_lag_evals=max_lag))
                except DecayFitError as err:  # reported, not gated: leave the metric out
                    self.notes.append(f"{name} decay fit failed: {err}")
                    continue
                out[f"{name}.decay_rate_per_grad"] = (fit.r_real, "1/grad")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}


def closed_loop(seconds: float, one_pass) -> list[float]:
    """Call one_pass(i) for i = 0, 1, ... while another pass still fits in `seconds`.

    Returns the calibration time before the first pass and after each pass.
    """
    start = time.perf_counter()
    calibration = [calibration_seconds()]
    while True:
        one_pass(len(calibration) - 1)
        calibration.append(calibration_seconds())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (len(calibration) - 1) > seconds:
            return calibration


def pass_rates(timed_passes, labels=None) -> list[float]:
    """Work units per second of command wall time, one value per pass."""
    rates = []
    for timed in timed_passes:
        chosen = [(cmd.units, s) for cmd, s in timed if labels is None or cmd.label in labels]
        rates.append(sum(u for u, _ in chosen) / sum(s for _, s in chosen))
    return rates


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that start, import jumphmc and run the
    warm-ups, and the calibration times around them."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale, "--setup-probe"]
    walls = []
    calibration = [calibration_seconds()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        calibration.append(calibration_seconds())
    return walls, calibration


def environment(load_before) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*cmd):
        try:
            proc = subprocess.run(["git", *cmd], cwd=ROOT, env=git_env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
    }


def measure(args, bench) -> tuple[dict, dict]:
    """Timed passes with tracing off: the end-to-end metrics."""
    timed_passes = []
    calibration = closed_loop(args.seconds, lambda i: timed_passes.append(bench.run_pass(i)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_walls, setup_calibration = args.setup
    # The machine's speed-up over its usual speed, as the workloads feel it.
    speed = (REFERENCE_CALIBRATION_S / statistics.median(calibration)) ** DRIFT_ELASTICITY
    setup_speed = (REFERENCE_CALIBRATION_S / statistics.median(setup_calibration)) ** DRIFT_ELASTICITY
    metrics = {
        "setup_s": {"value": statistics.median(setup_walls) * setup_speed, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "work_per_s": {"value": statistics.median(pass_rates(timed_passes)) / speed, "unit": "1/s"},
    }
    named = {name: {"value": statistics.median(pass_rates(timed_passes, labels)) / speed, "unit": "1/s"}
             for name, labels in bench.workload.named_rates.items()}
    named.update(bench.chain_metrics())
    named["error_rate"] = {"value": bench.error_rate(), "unit": "ratio"}
    detail = {
        "passes": len(timed_passes),
        "unscaled": {"setup_walls_s": setup_walls, "work_per_s_by_pass": pass_rates(timed_passes)},
        "calibration_s": {"setup": setup_calibration, "passes": calibration},
        "named_metrics": named,
    }
    return metrics, detail


def measure_traced(args, bench) -> tuple[dict, dict]:
    """Untraced and traced runs of the same inputs, in turn: the per-layer metrics."""
    tracer = Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}

    def pair(i):
        walls["untraced"] += sum(s for _, s in bench.run_pass(i))
        tracer.install()
        try:
            walls["traced"] += sum(s for _, s in bench.run_pass(i, tracer))
        finally:
            tracer.uninstall()

    passes = len(closed_loop(args.seconds, pair)) - 1
    for wall, self_sum in tracer.command_walls:
        if abs(wall - self_sum) > 1e-6 * wall:
            bench.problems.append(f"layer self times add to {self_sum} s, command took {wall} s")
    metrics = layer_metrics(tracer, passes)
    chain = bench.chain_metrics()
    metrics.update({name: chain.get(name, {"value": 0.0, "unit": unit})
                    for name, unit in (("mjhmc.grad_evals_per_sample", "count"),
                                       ("jump.flip_fraction", "ratio"),
                                       ("jump.grad_share_after_flip", "ratio"),
                                       ("jump.decay_rate_per_grad", "1/grad"),
                                       ("hmc.decay_rate_per_grad", "1/grad"))})
    metrics["trace.overhead_frac"] = {"value": walls["traced"] / walls["untraced"] - 1, "unit": "ratio"}
    dump = ROOT / ".bench_work" / f"trace-{args.workload}-s{args.seed}.json"
    dump.write_text(json.dumps(tracer.dump()))
    detail = {
        "passes": passes,
        "layer_self_s_per_pass": {k: v / passes for k, v in tracer.layer_self_seconds().items()},
        "missing_hooks": tracer.missing,
        "spans_file": str(dump.relative_to(ROOT)),
        "metrics_left_out": sorted(set(LAYER_METRICS) - set(metrics)),
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_program()
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        if not args.setup_probe and args.trace == 0:
            args.setup = setup_seconds(args)
        bench = Bench(cli, WORKLOADS[args.workload], args.seed, args.scale)
        try:
            bench.setup()
            if args.setup_probe:
                return 0
            load_before = list(os.getloadavg())
            metrics, detail = (measure_traced if args.trace else measure)(args, bench)
        finally:
            bench.close()
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, scale=args.scale,
                  checks=bench.problems, notes=bench.notes, environment=environment(load_before))
    print(json.dumps(detail))
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
