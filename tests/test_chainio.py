"""The CSV writers emit byte for byte what the former csv.writer-based writer did."""

import csv
import errno
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from jumphmc import (
    AutocorrSeries,
    DiagonalGaussian,
    GapExperimentResult,
    RoughWell,
    SamplerConfig,
    autocorrelation,
    run_chain,
)
from jumphmc import chainio, cli, jump
from jumphmc.chainio import (
    FORK_FIELDS,
    _header_lines,
    write_autocorr_csv,
    write_best_json,
    write_chain_csv,
    write_gap_csv,
    write_trials_csv,
)
from jumphmc.errors import IntegrationError
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


def block_count(rows, dim):
    """The writer's rule: round(sqrt(fields / FORK_FIELDS)) blocks, at most 256."""
    return min(256, round((rows * (2 * dim + 4) / chainio.FORK_FIELDS) ** 0.5))


# The most rows of a 50-D chain that make one block (under 1.5)
WIDE_BLOCK_ROWS = math.ceil(2.25 * FORK_FIELDS / (1 + 2 * 50 + 3)) - 1


def wide_chain(n):
    return run_chain(
        SamplerConfig("mjhmc", epsilon=0.1, steps=20, beta=0.1, n_samples=n, seed=8),
        DiagonalGaussian(np.logspace(0.0, 2.0, 50)), np.zeros(50), np.ones(50),
    )


@pytest.fixture(scope="module")
def block_chains(init):
    """Chains of 2.1 blocks (229 rows of 50-D and 3000 rows of 2-D), of one
    block, of one block and a row, and of one row."""
    control = run_chain(
        SamplerConfig("hmc", epsilon=0.59, steps=25, beta=0.43, n_samples=3000, seed=4),
        RoughWell(), *init,
    )
    chains = {
        "wide": wide_chain(229),
        "one_block": wide_chain(WIDE_BLOCK_ROWS),
        "one_block_and_a_row": wide_chain(WIDE_BLOCK_ROWS + 1),
        "control_2d": control,
        "one_row": wide_chain(1),
    }
    assert [block_count(len(c), c.positions.shape[1]) for c in chains.values()] == [2, 1, 2, 2, 0]
    return chains


@pytest.fixture
def temporary_files(monkeypatch, tmp_path):
    """The temporary files the writer opens, in a directory of their own."""
    made, make = [], tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    return made


def assert_blocks_closed(temporary_files, forked):
    """One block per child and one for the tail formatted here, or none without a fork."""
    assert len(temporary_files) == (forked + 1 if forked else 0)
    assert all(f.closed for f in temporary_files)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name", ["wide", "one_block", "one_block_and_a_row", "control_2d",
                                  "one_row"])
def test_block_writer_bytes_do_not_depend_on_workers(tmp_path, block_chains, use_cpus, forks,
                                                      temporary_files, cpus, name):
    chain = block_chains[name]
    use_cpus(cpus)
    assert_same_bytes(tmp_path, write_chain_csv, reference_write_chain_csv, chain)
    blocks = block_count(len(chain), chain.positions.shape[1])
    # A child per block, the last one's first half included; a chain of one
    # block (under 1.5), or on one CPU, forks nothing and is written straight to its file.
    forked = blocks if blocks > 1 and cpus > 1 else 0
    assert len(forks) == forked
    assert_blocks_closed(temporary_files, forked)


def test_long_chain_gets_longer_blocks(tmp_path, block_chains, use_cpus, forks,
                                       temporary_files, monkeypatch):
    # one row per block would fork 3000 children; 256 blocks is the most
    monkeypatch.setattr(chainio, "FORK_FIELDS", 0.1)
    use_cpus(2)
    chain = block_chains["control_2d"]
    assert_same_bytes(tmp_path, write_chain_csv, reference_write_chain_csv, chain)
    assert len(forks) == 256
    assert_blocks_closed(temporary_files, 256)


def disk_full(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


DISK_FULL = r"^\[Errno 28\] No space left on device$"


def test_worker_os_error_reaches_the_caller(tmp_path, block_chains, use_cpus, forks,
                                            temporary_files, in_workers, monkeypatch):
    use_cpus(2)
    monkeypatch.setattr(chainio, "_chain_rows", in_workers(disk_full, chainio._chain_rows))
    path = tmp_path / "out" / "c.csv"
    with pytest.raises(OSError, match=DISK_FULL) as excinfo:
        write_chain_csv(path, block_chains["wide"])
    assert excinfo.value.errno == errno.ENOSPC
    assert len(forks) == 2
    assert_blocks_closed(temporary_files, 2)
    assert os.listdir(tmp_path / "tmp") == []  # no temporary file is left
    assert not path.parent.exists()  # and no partial output


# `sample` formats its CSV while the chain is sampled (ChainBlocks).
WIDE_MODEL = {"name": "gaussian", "precision_diag": np.logspace(0.0, 2.0, 50).tolist()}
ROUGH_MJHMC = {"sampler": "mjhmc", "model": {"name": "rough_well"}, "epsilon": 3.0,
               "steps": 25, "beta": 0.012314, "n_samples": 3000, "seed": 5}
STREAMED = {
    "rough_mjhmc": ROUGH_MJHMC,
    "rough_hmc": {"sampler": "hmc", "model": {"name": "rough_well"}, "epsilon": 0.591686,
                  "steps": 25, "beta": 0.429956, "n_samples": 3000, "seed": 6},
    "wide_mjhmc": {"sampler": "mjhmc", "model": WIDE_MODEL, "epsilon": 0.1, "steps": 20,
                   "beta": 0.1, "n_samples": 1000, "seed": 7},
    "wide_hmc": {"sampler": "hmc", "model": WIDE_MODEL, "epsilon": 0.1, "steps": 20,
                 "beta": 0.5, "n_samples": 1000, "seed": 8},
    # 3-D chains of one block (700 rows) and of 2 blocks (1500 rows)
    "gaussian_3d_mjhmc": {"sampler": "mjhmc", "model": {"name": "gaussian",
                          "precision_diag": [1.0, 4.0, 9.0]}, "epsilon": 0.3, "steps": 10,
                          "beta": 0.2, "n_samples": 700, "seed": 9},
    "gaussian_3d_hmc": {"sampler": "hmc", "model": {"name": "gaussian",
                        "precision_diag": [1.0, 4.0, 9.0]}, "epsilon": 0.3, "steps": 10,
                        "beta": 0.4, "n_samples": 1500, "seed": 10},
    "warm_up": dict(ROUGH_MJHMC, n_samples=20),
    "one_block_and_a_row": {"sampler": "mjhmc", "model": WIDE_MODEL, "epsilon": 0.1,
                            "steps": 20, "beta": 0.1, "n_samples": WIDE_BLOCK_ROWS + 1,
                            "seed": 11},
    "partial_mid_block": ROUGH_MJHMC,  # its blocks end at rows 1500 and 2250
    "partial_on_a_boundary": ROUGH_MJHMC,
}
# The row whose production raises IntegrationError in the partial chains
FAILING_ROW = {"partial_mid_block": 1900, "partial_on_a_boundary": 1500}


STEP = jump.step


def fail_at_row(monkeypatch, row, error):
    """Make producing jump-chain row ``row`` raise ``error`` (row i ends with step i + 1)."""
    steps = []

    def failing(*args):
        steps.append(1)
        if len(steps) == row + 1:
            raise error
        return STEP(*args)

    monkeypatch.setattr(jump, "step", failing)


def run_sample(tmp_path, cfg, label):
    """``sample`` on ``cfg``: its exit code, and the chain and keyword arguments that
    ``write_chain_csv`` got (None where it was not called)."""
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    written = []

    def spy(path, chain, **kwargs):
        written.append((chain, kwargs))
        return write_chain_csv(path, chain, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "write_chain_csv", spy)
        code = cli.main(["sample", str(tmp_path / "c.json"), "--out", str(tmp_path / label)])
    return (code, *written[0]) if written else (code, None, None)


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_sample_writes_the_serial_reference_bytes(tmp_path, use_cpus, forks, temporary_files,
                                                  monkeypatch, name):
    outputs = []
    for cpus in (1, 2, 3):
        use_cpus(cpus)
        forks.clear()
        temporary_files.clear()
        if name in FAILING_ROW:
            fail_at_row(monkeypatch, FAILING_ROW[name], IntegrationError("injected failure"))
        code, chain, kwargs = run_sample(tmp_path, STREAMED[name], f"s{cpus}")
        assert code == (2 if name.startswith("partial") else 0)
        ref, out = tmp_path / f"ref{cpus}", tmp_path / f"s{cpus}"
        reference_write_chain_csv(f"{ref}.csv", chain, kwargs["config"], kwargs["seed"])
        chainio.write_chain_metadata(f"{ref}.json", chain, kwargs["config"], kwargs["seed"])
        outputs.append([Path(f"{out}{x}").read_bytes() for x in (".csv", ".json")])
        assert outputs[-1] == [Path(f"{ref}{x}").read_bytes() for x in (".csv", ".json")]
        # a child per stop the chain reached, each forked while it was sampled
        stops = kwargs["blocks"].stops
        blocks = block_count(STREAMED[name]["n_samples"], chain.positions.shape[1])
        assert len(stops) == (blocks if blocks > 1 and cpus > 1 else 0)
        forked = sum(stop <= len(chain) for stop in stops)
        assert len(forks) == forked
        assert_blocks_closed(temporary_files, forked)
        if name in FAILING_ROW:
            assert len(chain) == FAILING_ROW[name]
            assert (len(chain) in stops) == (name == "partial_on_a_boundary" and cpus > 1)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_a_start_that_fails_writes_no_file(tmp_path, use_cpus, forks, temporary_files,
                                           monkeypatch):
    use_cpus(2)
    fail_at_row(monkeypatch, 0, IntegrationError("injected failure"))
    code, chain, _ = run_sample(tmp_path, ROUGH_MJHMC, "boom")
    assert code == 2 and chain is None
    assert not (tmp_path / "boom.csv").exists() and not (tmp_path / "boom.json").exists()
    assert forks == [] and temporary_files == []


def test_sample_disk_full_in_a_formatter(tmp_path, use_cpus, forks, temporary_files,
                                         in_workers, monkeypatch, assert_no_child_process):
    use_cpus(2)
    monkeypatch.setattr(chainio, "_chain_rows", in_workers(disk_full, chainio._chain_rows))
    with pytest.raises(OSError, match=DISK_FULL) as excinfo:
        run_sample(tmp_path, ROUGH_MJHMC, "full")
    assert excinfo.value.errno == errno.ENOSPC
    assert len(forks) == 2
    assert_blocks_closed(temporary_files, 2)
    assert not (tmp_path / "full.csv").exists()
    assert_no_child_process()


def test_no_child_or_block_outlives_an_interrupt_mid_chain(
        tmp_path, use_cpus, forks, temporary_files, monkeypatch, assert_no_child_process):
    use_cpus(2)
    fail_at_row(monkeypatch, 2500, KeyboardInterrupt())  # past the blocks ending at 1500 and 2250
    with pytest.raises(KeyboardInterrupt):
        run_sample(tmp_path, ROUGH_MJHMC, "stopped")
    assert len(forks) == 2
    assert all(f.closed for f in temporary_files) and len(temporary_files) == 2
    assert not (tmp_path / "stopped.csv").exists()
    assert_no_child_process()


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
