"""The benchmark's workloads: generated configs, work units and output checks.

A workload is a list of ``jumphmc`` commands run one after another (one
pass).  Every config is generated here from the workload seed, so the
program only ever sees JSON files.  Each command knows the files it
writes, how many units of user-visible work it does, and how to check
those files.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Sizes per scale.  "full" is what the benchmark measures; "tiny" only proves
# the plumbing (see selftest.py) and is far too short for stable numbers.
SCALES = {
    "full": {"chain_samples": 3000, "tune_budget": 3, "tune_eval_samples": 400, "gap_draws": 8},
    "tiny": {"chain_samples": 200, "tune_budget": 2, "tune_eval_samples": 200, "gap_draws": 2},
}

# The paper's rough-well settings: the jump sampler at its published
# hyperparameters and the tuned discrete-time control.
ROUGH_WELL_MJHMC = {"epsilon": 3.0, "steps": 25, "beta": 0.012314}
ROUGH_WELL_HMC = {"epsilon": 0.591686, "steps": 25, "beta": 0.429956}
# 50 precisions log-spaced over [1, 100]; epsilon * sqrt(p_max) = 1 keeps
# the leapfrog inside its stability limit of 2.
GAUSSIAN_PRECISIONS = np.logspace(0.0, 2.0, 50).tolist()
GAUSSIAN_MJHMC = {"epsilon": 0.1, "steps": 20, "beta": 0.1}
LADDER_SIZES = [33, 129, 201]

# Holding-time-weighted variance x precision must be near 1 per dimension.
# Over 112 seeds at 3000 samples the worst per-dimension |log ratio| of a
# chain was 0.84 (median 0.41), and the ratio's mean over dimensions ranged
# over [0.924, 1.039].  The bands below are about 1.5x those extremes, and
# widen as 1/sqrt(n) for shorter chains.
GAUSSIAN_LOG_RATIO_TOL = 1.3
GAUSSIAN_MEAN_RATIO_TOL = 0.12
GAUSSIAN_TOL_SAMPLES = 3000


def _seeds(*entropy: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(list(entropy)).generate_state(n)]


@dataclass(frozen=True)
class Command:
    """One ``jumphmc`` invocation: its config, outputs and work units."""

    label: str  # unique within a pass: names the outputs and the metric
    cli: str  # the jumphmc subcommand
    config: dict  # without "out"
    units: int  # samples, trials or ladder draws

    def outputs(self, workdir: Path) -> list[Path]:
        prefix = workdir / self.label
        if self.cli == "sample":
            return [prefix.with_suffix(".csv"), prefix.with_suffix(".json")]
        if self.cli == "tune":
            return [Path(f"{prefix}_trials.csv"), Path(f"{prefix}_best.json")]
        return [prefix.with_suffix(".csv")]

    def config_with_out(self, workdir: Path) -> dict:
        out = self.outputs(workdir)[0] if self.cli == "spectral-gap" else workdir / self.label
        return {**self.config, "out": str(out)}

    def warmup(self) -> "Command":
        """The same command shrunk to a few milliseconds of work."""
        cfg = dict(self.config)
        if self.cli == "sample":
            cfg["n_samples"] = 20
        elif self.cli == "tune":
            # A pinned, well-mixing point so the one trial cannot fail.
            cfg.update(budget=1, eval={"n_samples": 200},
                       space={"epsilon": [0.5, 0.5], "beta": [0.1, 0.1], "steps": [5, 5]})
        else:
            cfg.update(sizes=[5, 9], draws_per_size=1)
        return Command(f"warmup-{self.label}", self.cli, cfg, 1)


def _rough_well_sample(key: tuple, size: dict) -> list[Command]:
    s_mj, s_hmc = _seeds(*key, n=2)
    n = size["chain_samples"]
    well = {"name": "rough_well"}
    return [
        Command("mjhmc", "sample", {"sampler": "mjhmc", "model": well, **ROUGH_WELL_MJHMC,
                                    "n_samples": n, "seed": s_mj}, n),
        Command("hmc", "sample", {"sampler": "hmc", "model": well, **ROUGH_WELL_HMC,
                                  "n_samples": n, "seed": s_hmc}, n),
    ]


def _gaussian_wide_sample(key: tuple, size: dict) -> list[Command]:
    (s_mj,) = _seeds(*key, n=1)
    n = size["chain_samples"]
    model = {"name": "gaussian", "precision_diag": GAUSSIAN_PRECISIONS}
    return [Command("mjhmc", "sample", {"sampler": "mjhmc", "model": model, **GAUSSIAN_MJHMC,
                                        "n_samples": n, "seed": s_mj}, n)]


def _rough_well_tune(key: tuple, size: dict) -> list[Command]:
    s_mj, s_hmc = _seeds(*key, n=2)
    budget = size["tune_budget"]
    base = {"model": {"name": "rough_well"}, "budget": budget,
            "eval": {"n_samples": size["tune_eval_samples"]}}
    return [
        Command("mjhmc", "tune", {"sampler": "mjhmc", **base, "seed": s_mj}, budget),
        Command("hmc", "tune", {"sampler": "hmc", **base, "seed": s_hmc}, budget),
    ]


def _ladder_gaps(key: tuple, size: dict) -> list[Command]:
    (s_gap,) = _seeds(*key, n=1)
    draws = size["gap_draws"]
    return [Command("gaps", "spectral-gap", {"sizes": LADDER_SIZES, "draws_per_size": draws,
                                              "seed": s_gap}, len(LADDER_SIZES) * draws)]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[tuple, dict], list[Command]]
    # metric name -> labels of the commands whose work and wall time it pools
    named_rates: dict

    def commands(self, seed: int, pass_index: int, scale: str) -> list[Command]:
        """The commands of one pass.  Every pass gets fresh seeds: one chain's
        transition mix, or one tuning run's random settings, is far from
        typical, and fresh draws each pass average that out."""
        return self.build((seed, pass_index), SCALES[scale])


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rough-well-sample", _rough_well_sample,
                 {"mjhmc.samples_per_s": ["mjhmc"], "hmc.samples_per_s": ["hmc"]}),
        Workload("gaussian-wide-sample", _gaussian_wide_sample, {"mjhmc.samples_per_s": ["mjhmc"]}),
        Workload("rough-well-tune", _rough_well_tune, {"trials_per_s": ["mjhmc", "hmc"]}),
        Workload("ladder-gaps", _ladder_gaps, {"ladders_per_s": ["gaps"]}),
    )
}


# ---------------------------------------------------------------------------
# output checks


@dataclass
class ChainFile:
    """The columns of a chain CSV that the checks and layer metrics use."""

    positions: np.ndarray
    holding_times: np.ndarray
    transitions: np.ndarray
    gradient_evals: np.ndarray

    @property
    def grad_evals_per_sample(self) -> float:
        return float(self.gradient_evals[-1]) / len(self.gradient_evals)

    def flip_stats(self) -> tuple[float, float]:
        """(share of F transitions, share of gradient evals spent right after F).

        Row i's gradient count includes the neighbor refresh that followed
        its transition, so the increment from row i-1 is charged to row i.
        """
        flips = self.transitions == "F"
        spent = np.diff(self.gradient_evals)
        return float(np.mean(flips)), float(spent[flips[1:]].sum() / spent.sum())


def read_chain_csv(path: Path) -> ChainFile:
    # Parsed into float arrays: the 50-D chain as lists of strings would
    # dominate the process's peak_rss_mb.
    with path.open() as fh:
        skip = 1
        for line in fh:
            if not line.startswith("#"):
                columns = line.rstrip("\n").split(",")
                break
            skip += 1
    t_col = columns.index("transition")
    numeric = [i for i in range(len(columns)) if i != t_col]
    data = np.loadtxt(path, delimiter=",", skiprows=skip, usecols=numeric, ndmin=2)
    transitions = np.loadtxt(path, delimiter=",", skiprows=skip, usecols=[t_col], dtype="U1", ndmin=1)
    names = [columns[i] for i in numeric]
    xs = [j for j, c in enumerate(names) if c.startswith("x")]
    if names[0] != "step" or not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError("step column is not 0..n-1")
    return ChainFile(
        positions=data[:, xs],
        holding_times=data[:, names.index("holding_time")],
        transitions=transitions,
        gradient_evals=data[:, names.index("gradient_evals")].astype(np.int64),
    )


def check_sample(cmd: Command, files: list[Path]) -> tuple[list[str], ChainFile]:
    csv_path, json_path = files
    chain = read_chain_csv(csv_path)
    meta = json.loads(json_path.read_text())
    counts = meta["counts"]
    n = cmd.config["n_samples"]
    problems = []
    if len(chain.gradient_evals) != n:
        problems.append(f"{len(chain.gradient_evals)} CSV rows for {n} samples")
    if np.any(np.diff(chain.gradient_evals) < 0):
        problems.append("gradient_evals decreases")
    h = chain.holding_times
    if not (np.all(np.isfinite(h)) and np.all(h > 0)):
        problems.append("holding times not positive and finite")
    if counts["n_samples"] != len(h) or counts["gradient_evals"] != int(chain.gradient_evals[-1]):
        problems.append("metadata counts differ from the CSV")
    if cmd.config["sampler"] == "mjhmc":
        if counts["transitions"] != dict(Counter(chain.transitions.tolist())):
            problems.append("metadata transition counts differ from the CSV")
        if not math.isclose(counts["total_system_time"], float(h.sum()), rel_tol=1e-9):
            problems.append("metadata total_system_time differs from the CSV")
    elif not 0 <= counts["acceptance_rate"] <= 1:
        problems.append("acceptance rate outside [0, 1]")
    if cmd.config["model"]["name"] == "gaussian":
        problems += _check_gaussian_variance(chain, np.asarray(cmd.config["model"]["precision_diag"]))
    return problems, chain


def _check_gaussian_variance(chain: ChainFile, precision: np.ndarray) -> list[str]:
    w = chain.holding_times
    x = chain.positions
    mean = w @ x / w.sum()
    ratio = (w @ (x - mean) ** 2) / w.sum() * precision
    widen = math.sqrt(GAUSSIAN_TOL_SAMPLES / len(w))
    problems = []
    worst = float(np.max(np.abs(np.log(ratio))))
    if worst > GAUSSIAN_LOG_RATIO_TOL * widen:
        problems.append(f"weighted variance x precision off by log ratio {worst:.3f}")
    if abs(ratio.mean() - 1) > GAUSSIAN_MEAN_RATIO_TOL * widen:
        problems.append(f"mean variance x precision {ratio.mean():.3f}, expected 1")
    return problems


def _csv_rows(path: Path) -> list[dict]:
    """Rows of a small package CSV, keyed by column."""
    from jumphmc.chainio import read_csv_rows  # run.py imports jumphmc from the checkout

    columns, rows = read_csv_rows(path)
    return [dict(zip(columns, row)) for row in rows]


def check_tune(cmd: Command, files: list[Path]) -> tuple[list[str], Counter]:
    trials_path, best_path = files
    rows = _csv_rows(trials_path)
    best = json.loads(best_path.read_text())
    status = Counter(row["status"] for row in rows)
    objectives = [float(row["objective"]) for row in rows if row["status"] == "ok"]
    budget = cmd.config["budget"]
    problems = []
    if len(rows) != budget or best["n_trials"] != budget:
        problems.append(f"{len(rows)} trial rows for budget {budget}")
    if set(status) - {"ok", "failed"} or best["n_failed"] != status["failed"]:
        problems.append(f"trial status counts {dict(status)} disagree with the best JSON")
    objective = best["best"]["objective"]
    if not (math.isfinite(objective) and objective <= 0 and objective == min(objectives, default=None)):
        problems.append(f"best objective {objective} is not the finite, <= 0 minimum of the trials")
    return problems, status


def check_gaps(cmd: Command, files: list[Path]) -> list[str]:
    rows = _csv_rows(files[0])
    gaps = {(int(r["k"]), r["sampler"]): float(r["mean_gap"]) for r in rows}
    problems = []
    for k in cmd.config["sizes"]:
        mj, hmc = gaps.get((k, "mjhmc")), gaps.get((k, "hmc"))
        if mj is None or hmc is None:
            problems.append(f"k={k}: a sampler is missing")
        elif not (0 <= hmc <= 1 and 0 <= mj <= 1 and mj > hmc):
            problems.append(f"k={k}: gaps mjhmc={mj} hmc={hmc} not in [0, 1] with mjhmc > hmc")
    if len(rows) != 2 * len(cmd.config["sizes"]):
        problems.append(f"{len(rows)} rows for {len(cmd.config['sizes'])} sizes")
    if any(int(r["draws"]) != cmd.config["draws_per_size"] for r in rows):
        problems.append("draw count column disagrees with the config")
    return problems
