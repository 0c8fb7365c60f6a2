"""The CSV writers emit byte for byte what the former csv.writer-based writer did."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from jumphmc import (
    AutocorrSeries,
    GapExperimentResult,
    RoughWell,
    SamplerConfig,
    autocorrelation,
    run_chain,
)
from jumphmc.chainio import (
    _header_lines,
    write_autocorr_csv,
    write_best_json,
    write_chain_csv,
    write_gap_csv,
    write_trials_csv,
)
from jumphmc.jump import Chain
from jumphmc.tuner import TrialRecord

CONFIG = {"model": "rough_well", "epsilon": 3.0}


# Reference: the csv.writer-based writers, kept verbatim.
def reference_write_csv(path, kind, columns, rows, config=None, seed=None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        for line in _header_lines(kind, config, seed):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)


def _format_float(x):
    return repr(float(x))


def reference_write_chain_csv(path, chain, config=None, seed=None):
    dim = chain.positions.shape[1]
    columns = (
        ["step"]
        + [f"x{d}" for d in range(dim)]
        + [f"v{d}" for d in range(dim)]
        + ["holding_time", "transition", "gradient_evals"]
    )
    is_jump = chain.sampler == "mjhmc"

    def rows():
        for i in range(len(chain)):
            yield (
                [i]
                + [_format_float(v) for v in chain.positions[i]]
                + [_format_float(v) for v in chain.momenta[i]]
                + [
                    _format_float(chain.holding_times[i]) if is_jump else 1,
                    str(chain.transitions[i]) if is_jump else "",
                    int(chain.gradient_evals[i]),
                ]
            )

    reference_write_csv(path, "chain", columns, rows(), config=config, seed=seed)


def reference_write_gap_csv(path, result, config=None, seed=None):
    rows = (
        [k, sampler, _format_float(mean), _format_float(err), draws]
        for k, sampler, mean, err, draws in result.rows()
    )
    reference_write_csv(
        path, "spectral-gap", ["k", "sampler", "mean_gap", "std_error", "draws"], rows,
        config=config, seed=seed,
    )


def reference_write_autocorr_csv(path, series, config=None, seed=None):
    rows = (
        [_format_float(lag), _format_float(val)]
        for lag, val in zip(series.lags, series.values)
    )
    reference_write_csv(
        path, "autocorrelation", ["lag_gradient_evals", "autocorrelation"], rows,
        config=config, seed=seed,
    )


def reference_write_trials_csv(path, trials, config=None, seed=None):
    rows = (
        [
            t.config.sampler,
            _format_float(t.config.epsilon),
            _format_float(t.config.beta),
            t.config.steps,
            t.config.seed,
            t.status,
            "" if t.objective is None else _format_float(t.objective),
        ]
        for t in trials
    )
    reference_write_csv(
        path, "tuning-trials",
        ["sampler", "epsilon", "beta", "steps", "seed", "status", "objective"],
        rows, config=config, seed=seed,
    )


def assert_same_bytes(tmp_path, writer, reference, obj, config=CONFIG, seed=5):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    writer(new, obj, config=config, seed=seed)
    reference(old, obj, config=config, seed=seed)
    assert new.read_bytes() == old.read_bytes()


@pytest.fixture(scope="module")
def init():
    return np.array([0.3, -1.2]), np.array([0.7, 0.1])


def test_jump_chain(tmp_path, init):
    chain = run_chain(
        SamplerConfig("mjhmc", epsilon=3.0, steps=25, beta=0.012314, n_samples=300, seed=4),
        RoughWell(), *init,
    )
    assert set(chain.transitions) == {"L", "F", "R"}
    assert_same_bytes(tmp_path, write_chain_csv, reference_write_chain_csv, chain)


def test_control_chain(tmp_path, init):
    chain = run_chain(
        SamplerConfig("hmc", epsilon=0.59, steps=25, beta=0.43, n_samples=300, seed=4),
        RoughWell(), *init,
    )
    assert_same_bytes(tmp_path, write_chain_csv, reference_write_chain_csv, chain)


def test_wide_chain_without_header_extras(tmp_path):
    rng = np.random.default_rng(0)
    n, dim = 50, 7
    chain = Chain(
        sampler="mjhmc",
        positions=rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300, (n, dim)),
        momenta=rng.standard_normal((n, dim)),
        holding_times=np.exp(rng.standard_normal(n) * 50),
        transitions=rng.choice(np.array(["L", "F", "R"]), n),
        gradient_evals=np.cumsum(rng.integers(0, 50, n)),
    )
    assert_same_bytes(
        tmp_path, write_chain_csv, reference_write_chain_csv, chain, config=None, seed=None,
    )


def test_gap_result(tmp_path):
    result = GapExperimentResult(
        sizes=np.array([5, 33, 201]),
        draws_per_size=8,
        mjhmc_mean=np.array([0.5, 0.125, 1e-3 / 3]),
        mjhmc_stderr=np.array([0.01, 0.02, 0.0]),
        hmc_mean=np.array([0.25, 0.1, 2.0 / 3e5]),
        hmc_stderr=np.array([0.001, np.nan, 1e-17]),
    )
    assert_same_bytes(tmp_path, write_gap_csv, reference_write_gap_csv, result)


def test_autocorr_series(tmp_path):
    rng = np.random.default_rng(1)
    x = np.cumsum(rng.standard_normal(500))
    series = autocorrelation(x, 3 * np.arange(500), n_lags=40)
    assert_same_bytes(tmp_path, write_autocorr_csv, reference_write_autocorr_csv, series)
    series = AutocorrSeries(np.array([0.0, 0.1, 1e-7]).cumsum(), np.array([1.0, -0.0, 1e-300]))
    assert_same_bytes(tmp_path, write_autocorr_csv, reference_write_autocorr_csv, series)


def test_trials_with_failed_trial(tmp_path):
    trials = [
        TrialRecord(SamplerConfig("hmc", 0.59, 25, 0.43, 400, seed=2**63 - 1),
                    status="ok", objective=-0.0123),
        TrialRecord(SamplerConfig("hmc", 4.8, 2, 0.005, 400, seed=0), status="failed"),
        TrialRecord(SamplerConfig("mjhmc", 3.0, 50, 0.012314, 400, seed=17),
                    status="ok", objective=-0.0),
    ]
    assert_same_bytes(tmp_path, write_trials_csv, reference_write_trials_csv, trials)
    assert_same_bytes(tmp_path, write_trials_csv, reference_write_trials_csv, trials[1:2])


def test_best_json_reads_the_trial_config(tmp_path):
    best = TrialRecord(SamplerConfig("mjhmc", 3.0, 50, 0.012314, 400, seed=17), "ok", -0.5)
    failed = TrialRecord(SamplerConfig("mjhmc", 4.8, 2, 0.005, 400, seed=0), "failed")
    write_best_json(tmp_path / "b.json", best, [best, failed], CONFIG, 5)
    out = json.loads((tmp_path / "b.json").read_text())
    assert list(out) == ["config_hash", "seed", "best", "n_trials", "n_failed"]
    assert list(out["best"].items()) == [
        ("epsilon", 3.0), ("beta", 0.012314), ("steps", 50), ("objective", -0.5),
        ("sampler", "mjhmc"),
    ]
    assert (out["n_trials"], out["n_failed"]) == (2, 1)
