import json
import os
from pathlib import Path

import numpy as np
import pytest

from jumphmc import ladder, tuner
from jumphmc.chainio import read_csv_rows
from jumphmc.cli import _run_check_suite, main
from jumphmc.errors import DegenerateChainError, DegenerateLadderError


def write_config(path, obj):
    Path(path).write_text(json.dumps(obj))
    return str(path)


def assert_config_kept(tmp_path, capsys, argv):
    """The command exits 1 over an output path that is its config, and writes nothing."""
    cfg = Path(argv[1])
    before = cfg.read_bytes()
    assert main(argv) == 1
    assert "would overwrite the config file" in capsys.readouterr().err
    assert cfg.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


GAUSSIAN_SAMPLE = {
    "sampler": "mjhmc",
    "model": {"name": "gaussian", "precision_diag": [1.0, 1.0]},
    "epsilon": 0.8,
    "steps": 5,
    "beta": 0.2,
    "n_samples": 100,
    "seed": 3,
}


class TestSample:
    def test_minimal_gaussian_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", GAUSSIAN_SAMPLE)
        out = tmp_path / "run"
        assert main(["sample", cfg, "--out", str(out)]) == 0
        columns, rows = read_csv_rows(f"{out}.csv")
        assert len(rows) == 100
        assert columns == [
            "step", "x0", "x1", "v0", "v1", "holding_time", "transition", "gradient_evals",
        ]
        meta = json.loads(Path(f"{out}.json").read_text())
        assert meta["counts"]["n_samples"] == 100
        assert meta["seed"] == 3
        assert "gradient_count_convention" in meta

    def test_repeated_seed_identical_files(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", GAUSSIAN_SAMPLE)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sample", cfg, "--out", str(a)]) == 0
        assert main(["sample", cfg, "--out", str(b)]) == 0
        assert Path(f"{a}.csv").read_bytes() == Path(f"{b}.csv").read_bytes()
        assert Path(f"{a}.json").read_bytes() == Path(f"{b}.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", GAUSSIAN_SAMPLE)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sample", cfg, "--out", str(a)]) == 0
        assert main(["sample", cfg, "--out", str(b), "--seed", "99"]) == 0
        assert Path(f"{a}.csv").read_bytes() != Path(f"{b}.csv").read_bytes()

    def test_rough_well_at_reported_hyperparameters(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "sampler": "mjhmc",
                "model": {"name": "rough_well"},
                "epsilon": 3.0,
                "steps": 25,
                "beta": 0.012314,
                "n_samples": 2000,
                "seed": 0,
            },
        )
        out = tmp_path / "rough"
        assert main(["sample", cfg, "--out", str(out)]) == 0
        _, rows = read_csv_rows(f"{out}.csv")
        assert len(rows) == 2000

    def test_hmc_sampler_chain_format(self, tmp_path):
        cfg = dict(GAUSSIAN_SAMPLE, sampler="hmc", beta=0.5)
        out = tmp_path / "hmc"
        assert main(["sample", write_config(tmp_path / "c.json", cfg), "--out", str(out)]) == 0
        _, rows = read_csv_rows(f"{out}.csv")
        # control chains have unit holding time and no transition kind
        assert rows[0][5] == "1"
        assert rows[0][6] == ""
        meta = json.loads(Path(f"{out}.json").read_text())
        assert 0.0 < meta["counts"]["acceptance_rate"] <= 1.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", dict(GAUSSIAN_SAMPLE, bogus=1))
        assert main(["sample", cfg]) == 1

    def test_missing_required_key_rejected(self, tmp_path):
        broken = {k: v for k, v in GAUSSIAN_SAMPLE.items() if k != "epsilon"}
        cfg = write_config(tmp_path / "c.json", broken)
        assert main(["sample", cfg]) == 1

    def test_missing_file_rejected(self, tmp_path):
        assert main(["sample", str(tmp_path / "nope.json")]) == 1

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["sample", str(path)]) == 1

    def test_integration_failure_exits_2_with_partial_output(self, tmp_path, capsys):
        # the chain start itself overflows: nothing is written, and the
        # message says so
        cfg = write_config(
            tmp_path / "c.json",
            {
                "sampler": "mjhmc",
                "model": {"name": "gaussian", "precision_diag": [1.0]},
                "epsilon": 90.0,
                "steps": 40,
                "beta": 0.3,
                "n_samples": 5000,
                "seed": 1,
            },
        )
        out = tmp_path / "boom"
        assert main(["sample", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1
        assert "no samples were written" in err and "partial output" not in err
        assert not Path(f"{out}.csv").exists() and not Path(f"{out}.json").exists()

        # epsilon * sqrt(precision) = 3 is past the stability limit of 2, and
        # after 44 rows a 184-step trajectory from a redrawn momentum
        # overflows: the rows before it are written
        cfg = write_config(
            tmp_path / "c.json",
            {
                "sampler": "mjhmc",
                "model": {"name": "gaussian", "precision_diag": [1.0]},
                "epsilon": 3.0,
                "steps": 184,
                "beta": 0.3,
                "n_samples": 5000,
                "seed": 40,
            },
        )
        assert main(["sample", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1
        assert f"partial output in {out}.csv" in err
        _, rows = read_csv_rows(f"{out}.csv")
        assert 0 < len(rows) < 5000
        meta = json.loads(Path(f"{out}.json").read_text())
        assert meta["counts"]["n_samples"] == len(rows)

    @pytest.mark.parametrize("sampler", ["mjhmc", "hmc"])
    def test_infinite_start_exits_2(self, tmp_path, sampler, capsys):
        # the start is finite but its energy overflows to inf, a numerical
        # error (an infinite number in the config is a config error instead)
        cfg = dict(GAUSSIAN_SAMPLE, sampler=sampler, beta=0.5, model={"name": "rough_well"},
                   init_position=[1e200, 0.0])
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sample", path, "--out", str(tmp_path / "inf")]) == 2
        assert "no samples were written" in capsys.readouterr().err

    def test_control_beta_above_one_rejected(self, tmp_path, capsys):
        cfg = dict(GAUSSIAN_SAMPLE, sampler="hmc", beta=1.5)
        out = tmp_path / "hmc"
        assert main(["sample", write_config(tmp_path / "c.json", cfg), "--out", str(out)]) == 1
        assert "config error: sample config: beta must lie in (0, 1]" in capsys.readouterr().err
        assert not Path(f"{out}.csv").exists()

    def test_wrong_length_init_position_rejected(self, tmp_path, capsys):
        cfg = dict(GAUSSIAN_SAMPLE, model={"name": "rough_well"}, init_position=[0, 0, 0])
        assert main(["sample", write_config(tmp_path / "c.json", cfg)]) == 1
        assert "init_position" in capsys.readouterr().err

    def test_out_over_config_rejected(self, tmp_path, monkeypatch, capsys):
        # the relative prefix "cfg" resolves to the config's own directory
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", GAUSSIAN_SAMPLE)
        assert_config_kept(tmp_path, capsys, ["sample", cfg, "--out", "cfg"])


class TestSpectralGap:
    def test_small_experiment(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", {"sizes": [5, 65], "draws_per_size": 30, "seed": 2}
        )
        out = tmp_path / "gaps.csv"
        assert main(["spectral-gap", cfg, "--out", str(out)]) == 0
        columns, rows = read_csv_rows(out)
        assert columns == ["k", "sampler", "mean_gap", "std_error", "draws"]
        gaps = {(r[0], r[1]): float(r[2]) for r in rows}
        assert gaps[("65", "mjhmc")] > gaps[("65", "hmc")]

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"sizes": [5], "draws_per_size": 5, "seed": 0})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["spectral-gap", cfg, "--out", str(a)]) == 0
        assert main(["spectral-gap", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_even_sizes_complete(self, tmp_path):
        # even rings give bipartite chains whose gaps are exactly zero; the
        # experiment must still run them without complaint
        cfg = write_config(tmp_path / "c.json", {"sizes": [4, 64], "draws_per_size": 10})
        out = tmp_path / "even.csv"
        assert main(["spectral-gap", cfg, "--out", str(out)]) == 0
        _, rows = read_csv_rows(out)
        assert all(abs(float(r[2])) < 1e-10 for r in rows)

    def test_invalid_sizes_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"sizes": [2]})
        assert main(["spectral-gap", cfg]) == 1

    def test_empty_sizes_rejected(self, tmp_path, capsys):
        # no size would write a CSV of only its header
        cfg = write_config(tmp_path / "c.json", {"sizes": []})
        assert main(["spectral-gap", cfg, "--out", str(tmp_path / "gaps.csv")]) == 1
        err = capsys.readouterr().err
        assert err == "config error: spectral-gap config: need at least one ladder size\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_sizes_must_be_a_list(self, tmp_path, capsys):
        # iterating the number used to leak "'int' object is not iterable"
        cfg = write_config(tmp_path / "c.json", {"sizes": 5})
        assert main(["spectral-gap", cfg, "--out", str(tmp_path / "gaps.csv")]) == 1
        assert capsys.readouterr().err == \
            "config error: spectral-gap config.sizes: must be a list of integers\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_out_over_config_rejected(self, tmp_path, capsys):
        # here the config names itself as the output in its own "out" key
        path = tmp_path / "gaps.json"
        cfg = write_config(path, {"sizes": [5], "draws_per_size": 2, "out": str(path)})
        assert_config_kept(tmp_path, capsys, ["spectral-gap", cfg])


class TestAutocorr:
    def test_near_iid_control_is_flat(self, tmp_path):
        # a half-period trajectory on the unit Gaussian swaps position and
        # momentum, so with full momentum redraw the control chain is i.i.d.
        cfg = write_config(
            tmp_path / "c.json",
            {
                "model": {"name": "gaussian", "precision_diag": [1.0]},
                "mjhmc": {"epsilon": 0.157, "steps": 10, "beta": 0.5},
                "hmc": {"epsilon": 0.157, "steps": 10, "beta": 1.0},
                "n_samples": 20000,
                "n_lags": 40,
                "seed": 4,
            },
        )
        out = tmp_path / "ac"
        assert main(["autocorr", cfg, "--out", str(out)]) == 0
        _, rows = read_csv_rows(f"{out}_hmc.csv")
        values = np.array([float(r[1]) for r in rows])
        assert values[0] == 1.0
        assert np.all(np.abs(values[2:]) < 0.1)

    def test_emits_both_series_and_fits(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "model": {"name": "rough_well"},
                "mjhmc": {"epsilon": 3.0, "steps": 25, "beta": 0.012314},
                "hmc": {"epsilon": 0.591686, "steps": 25, "beta": 0.429956},
                "n_samples": 2000,
                "n_lags": 60,
                "seed": 5,
            },
        )
        out = tmp_path / "cmp"
        assert main(["autocorr", cfg, "--out", str(out)]) == 0
        mj_cols, mj_rows = read_csv_rows(f"{out}_mjhmc.csv")
        h_cols, h_rows = read_csv_rows(f"{out}_hmc.csv")
        assert mj_cols == h_cols == ["lag_gradient_evals", "autocorrelation"]
        # aligned series: identical lag grids
        assert [r[0] for r in mj_rows] == [r[0] for r in h_rows]
        fits = json.loads(Path(f"{out}_fits.json").read_text())
        assert set(fits["fits"]) == {"mjhmc", "hmc"}

    def test_frozen_control_exits_2(self, tmp_path, capsys):
        # the control rejects every proposal, so its autocorrelation is
        # undefined: a numerical error, not a traceback
        cfg = write_config(
            tmp_path / "c.json",
            {
                "model": {"name": "rough_well"},
                "mjhmc": {"epsilon": 0.5, "steps": 4, "beta": 0.3},
                "hmc": {"epsilon": 4.847, "steps": 34, "beta": 0.712},
                "n_samples": 400,
                "seed": 3,
            },
        )
        assert main(["autocorr", cfg, "--out", str(tmp_path / "ac")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1

    def test_overflowing_chain_exits_2(self, tmp_path, capsys):
        # the jump chain's start overflows: main reports it on one line, as it
        # does the command's other numerical failures, and nothing is written
        cfg = write_config(
            tmp_path / "c.json",
            {
                "model": {"name": "gaussian", "precision_diag": [1.0]},
                "mjhmc": {"epsilon": 90.0, "steps": 40, "beta": 0.3},
                "hmc": {"epsilon": 0.5, "steps": 4, "beta": 0.3},
                "n_samples": 400,
                "seed": 1,
            },
        )
        assert main(["autocorr", cfg, "--out", str(tmp_path / "ac")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_lag_window_inside_one_step_exits_2(self, tmp_path, capsys):
        # every lag maps to the first sample, so the series is all 1s; it
        # used to be fit and scored as never decaying, with exit 0
        cfg = write_config(
            tmp_path / "c.json",
            {
                "model": {"name": "gaussian", "precision_diag": [1.0, 4.0]},
                "mjhmc": {"epsilon": 0.5, "steps": 5, "beta": 0.3},
                "hmc": {"epsilon": 0.5, "steps": 5, "beta": 0.3},
                "n_samples": 400,
                "n_lags": 40,
                "max_lag_evals": 1e-9,
                "seed": 3,
            },
        )
        assert main(["autocorr", cfg, "--out", str(tmp_path / "ac")]) == 2
        err = capsys.readouterr().err
        assert err == "numerical error: every lag maps to the first sample: " \
                      "max_lag_evals is too short\n"

    def test_lag_window_past_the_chain_exits_2(self, tmp_path, capsys):
        # every lag after the first lies past the chain's span and maps to its
        # last sample; the error used to call this window too short
        cfg = write_config(tmp_path / "c.json", dict(AUTOCORR_GAUSSIAN, max_lag_evals=1e308))
        assert main(["autocorr", cfg, "--out", str(tmp_path / "ac")]) == 2
        assert capsys.readouterr().err == (
            "numerical error: the lags reach fewer than 4 samples: max_lag_evals is too long, "
            "and every lag past the chain's span maps to its last sample\n")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_control_beta_above_one_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "model": {"name": "gaussian", "precision_diag": [1.0]},
                "mjhmc": {"epsilon": 0.5, "steps": 4, "beta": 0.3},
                "hmc": {"epsilon": 0.5, "steps": 4, "beta": 1.5},
                "n_samples": 100,
            },
        )
        assert main(["autocorr", cfg, "--out", str(tmp_path / "ac")]) == 1
        assert "autocorr config.hmc: beta must lie in (0, 1]" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "model": {"name": "gaussian", "precision_diag": [1.0, 2.0]},
                "mjhmc": {"epsilon": 0.5, "steps": 4, "beta": 0.3},
                "hmc": {"epsilon": 0.5, "steps": 4, "beta": 0.4},
                "n_samples": 1500,
                "n_lags": 30,
                "seed": 6,
            },
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["autocorr", cfg, "--out", str(a)]) == 0
        assert main(["autocorr", cfg, "--out", str(b)]) == 0
        assert Path(f"{a}_mjhmc.csv").read_bytes() == Path(f"{b}_mjhmc.csv").read_bytes()
        assert Path(f"{a}_hmc.csv").read_bytes() == Path(f"{b}_hmc.csv").read_bytes()

    def test_out_over_config_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "ac_fits.json",
            {
                "model": {"name": "gaussian", "precision_diag": [1.0]},
                "mjhmc": {"epsilon": 0.5, "steps": 4, "beta": 0.3},
                "hmc": {"epsilon": 0.5, "steps": 4, "beta": 0.4},
                "n_samples": 100,
            },
        )
        assert_config_kept(tmp_path, capsys, ["autocorr", cfg, "--out", str(tmp_path / "ac")])


    @pytest.mark.parametrize(
        "key, value, message",
        [("n_lags", 2, "autocorr config: n_lags must be at least 4"),
         ("n_samples", 5, "autocorr config: n_samples must be at least 10"),
         ("n_samples", 0, "autocorr config: n_samples must be at least 10")],
    )
    def test_too_short_to_fit_rejected_before_sampling(self, tmp_path, capsys, key, value, message):
        config = {
            "model": {"name": "gaussian", "precision_diag": [1.0]},
            "mjhmc": {"epsilon": 0.5, "steps": 4, "beta": 0.3},
            "hmc": {"epsilon": 0.5, "steps": 4, "beta": 0.5},
            "n_samples": 100,
        }
        cfg = write_config(tmp_path / "c.json", {**config, key: value})
        assert main(["autocorr", cfg, "--out", str(tmp_path / "ac")]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


class TestTune:
    @pytest.mark.parametrize(
        "space",
        [{"epsilon": [1.0]}, {"beta": [0.1, 0.2, 0.3]}, {"steps": [3, 4, 5]}, {"steps": []},
         {"epsilon": 1.0}],
        ids=["epsilon-one", "beta-three", "steps-three", "steps-empty", "epsilon-scalar"],
    )
    def test_range_must_be_a_pair(self, tmp_path, capsys, space):
        cfg = write_config(tmp_path / "c.json", dict(TUNE_GAUSSIAN, space=space))
        assert main(["tune", cfg, "--out", str(tmp_path / "t")]) == 1
        err = capsys.readouterr().err
        (key,) = space
        assert err.startswith(f"config error: tune config.space.{key}: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_budget_one(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "sampler": "mjhmc",
                "model": {"name": "gaussian", "precision_diag": [1.0]},
                "budget": 1,
                "eval": {"n_samples": 500, "n_lags": 30},
                "seed": 7,
            },
        )
        out = tmp_path / "t"
        assert main(["tune", cfg, "--out", str(out)]) == 0
        _, rows = read_csv_rows(f"{out}_trials.csv")
        assert len(rows) == 1
        best = json.loads(Path(f"{out}_best.json").read_text())["best"]
        assert best["objective"] == float(rows[0][6])

    def test_collapsed_space(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "sampler": "hmc",
                "model": {"name": "gaussian", "precision_diag": [1.0]},
                "budget": 2,
                "space": {"epsilon": [0.4, 0.4], "beta": [0.3, 0.3], "steps": [5, 5]},
                "eval": {"n_samples": 500, "n_lags": 30},
                "seed": 8,
            },
        )
        out = tmp_path / "t"
        assert main(["tune", cfg, "--out", str(out)]) == 0
        best = json.loads(Path(f"{out}_best.json").read_text())["best"]
        assert best["epsilon"] == pytest.approx(0.4)
        assert best["beta"] == pytest.approx(0.3)
        assert best["steps"] == 5

    def test_frozen_control_trials_score_zero(self, tmp_path):
        # all three drawn step sizes (2.20, 3.61, 4.85) freeze the control on
        # the rough well; frozen trials score 0.0 instead of failing the run
        cfg = write_config(
            tmp_path / "c.json",
            {
                "sampler": "hmc",
                "model": {"name": "rough_well"},
                "budget": 3,
                "eval": {"n_samples": 400},
                "seed": 932021496,
            },
        )
        out = tmp_path / "t"
        assert main(["tune", cfg, "--out", str(out)]) == 0
        _, rows = read_csv_rows(f"{out}_trials.csv")
        assert [(r[5], r[6]) for r in rows] == [("ok", "0.0")] * 3
        best = json.loads(Path(f"{out}_best.json").read_text())
        assert best["best"]["objective"] == 0.0
        assert best["n_failed"] == 0

    def test_all_trials_failed_exits_2(self, tmp_path, capsys):
        # far beyond the stability limit every trial fails (as in
        # test_tuner.test_failed_trials_are_recorded_not_fatal)
        space = {"epsilon": [80.0, 100.0], "beta": [0.1, 0.2], "steps": [30, 50]}
        cfg = write_config(tmp_path / "c.json", dict(TUNE_GAUSSIAN, budget=3, space=space))
        assert main(["tune", cfg, "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err == "numerical error: all tuning trials failed\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_a_dead_worker_is_not_a_numerical_error(self, tmp_path, capsys, monkeypatch,
                                                    use_cpus, in_workers):
        # a worker that ends without sending its results is no fault of the
        # numbers: its RuntimeError propagates, as from sample and spectral-gap
        use_cpus(2)
        monkeypatch.setattr(tuner, "evaluate_trial",
                            in_workers(lambda *args: os._exit(1), tuner.evaluate_trial))
        cfg = write_config(tmp_path / "c.json", dict(TUNE_GAUSSIAN, budget=4))
        with pytest.raises(RuntimeError, match="^a worker process ended without sending") as caught:
            main(["tune", cfg, "--out", str(tmp_path / "t")])
        assert type(caught.value) is RuntimeError
        assert "numerical error:" not in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_hash_covers_validated_values(self, tmp_path):
        # 400 and 400.0 validate to the same eval config, so both runs are
        # the same experiment: same trials, same config_hash
        outputs = []
        for n_samples in (400, 400.0):
            cfg = write_config(tmp_path / "c.json",
                               dict(TUNE_GAUSSIAN, eval={"n_samples": n_samples}, seed=1))
            out = tmp_path / f"t{n_samples}"
            assert main(["tune", cfg, "--out", str(out)]) == 0
            outputs.append([Path(f"{out}{s}").read_bytes() for s in ("_trials.csv", "_best.json")])
        assert outputs[0] == outputs[1]

    def test_out_over_config_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "t_best.json",
            {
                "sampler": "mjhmc",
                "model": {"name": "gaussian", "precision_diag": [1.0]},
                "budget": 1,
                "eval": {"n_samples": 500, "n_lags": 30},
            },
        )
        assert_config_kept(tmp_path, capsys, ["tune", cfg, "--out", str(tmp_path / "t")])


    @pytest.mark.parametrize(
        "evaluation, message",
        [({"n_samples": 5}, "tune config.eval: n_samples must be at least 10"),
         ({"n_lags": 3}, "tune config.eval: n_lags must be at least 4"),
         ({"n_samples": 0}, "tune config.eval: n_samples must be at least 10")],
    )
    def test_too_short_to_fit_rejected_before_sampling(self, tmp_path, capsys, evaluation, message):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "sampler": "mjhmc",
                "model": {"name": "gaussian", "precision_diag": [1.0]},
                "budget": 1,
                "eval": evaluation,
            },
        )
        assert main(["tune", cfg, "--out", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


class TestCheck:
    QUICK = {"balance_ladders": 15, "similarity_ladders": 8, "race_vectors": 4}

    def test_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", self.QUICK)
        assert main(["check", cfg]) == 0
        report = capsys.readouterr().out
        for name in (
            "balance_condition",
            "embedded_fixed_point",
            "similarity_spectra",
            "leapfrog_reversibility",
            "exponential_race",
        ):
            assert name in report
            assert "worst=" in report

    def test_fault_injection_fails_with_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", dict(self.QUICK, fault_injection=True))
        assert main(["check", cfg]) == 3
        *rows, summary = capsys.readouterr().out.splitlines()
        assert {row.split()[0]: row.split()[1] for row in rows} == dict(
            balance_condition="FAIL", embedded_fixed_point="FAIL", similarity_spectra="PASS",
            leapfrog_reversibility="PASS", exponential_race="FAIL")
        assert summary == "check suite: FAILURES detected"

    @pytest.mark.parametrize("seed", [24, 31, 37, 58, 99])
    def test_race_row_fault_fails_when_the_draws_have_two_clocks(self, tmp_path, capsys, seed):
        # at these seeds every drawn vector had two clocks, where the fault's
        # shares are the true ones; the last vector now races three
        cfg = write_config(tmp_path / "c.json", dict(self.QUICK, fault_injection=True, seed=seed))
        assert main(["check", cfg]) == 3
        rows = capsys.readouterr().out.splitlines()[:-1]
        assert {row.split()[0]: row.split()[1] for row in rows}["exponential_race"] == "FAIL"

    def test_race_row_of_seed_1_passes(self, tmp_path, capsys):
        # The race row draws from its own stream, so this is the row of the
        # config {"seed": 1}: its worst of about 50 z-scores is 3.05, which
        # failed a tolerance of 3.0 meant for one z-score.
        cfg = write_config(tmp_path / "c.json",
                           {"seed": 1, "balance_ladders": 1, "similarity_ladders": 1})
        assert main(["check", cfg]) == 0
        assert "exponential_race        PASS  worst=3.054e+00" in capsys.readouterr().out

    def test_rows_have_one_type(self):
        rows = _run_check_suite(0, **self.QUICK)
        assert [tuple(map(type, row)) for row in rows] == [(str, bool, float, float)] * 5

    def test_runs_without_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["check"]) == 0

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_out_is_config_error(self, tmp_path, capsys, via):
        # check writes no file, so an output path could only be ignored
        out = str(tmp_path / "report.csv")
        config = dict(self.QUICK, out=out) if via == "config" else self.QUICK
        argv = ["--out", out] if via == "flag" else []
        assert main(["check", write_config(tmp_path / "c.json", config), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: check config.out: check writes no file\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate", "x.json"])
    assert excinfo.value.code == 1


TUNE_GAUSSIAN = {
    "sampler": "mjhmc",
    "model": {"name": "gaussian", "precision_diag": [1.0]},
    "budget": 1,
    "eval": {"n_samples": 500, "n_lags": 30},
}


@pytest.mark.parametrize(
    "command, config, context",
    [
        ("sample", dict(GAUSSIAN_SAMPLE, seed=float("inf")), "sample config.seed"),
        ("sample", dict(GAUSSIAN_SAMPLE, steps=float("inf")), "sample config.steps"),
        ("sample", dict(GAUSSIAN_SAMPLE, init_position=[float("nan"), 0.0]),
         "sample config.init_position"),
        ("sample", dict(GAUSSIAN_SAMPLE, model={"name": "gaussian",
                                                "precision_diag": [float("inf"), 1.0]}),
         "model.precision_diag"),
        ("tune", dict(TUNE_GAUSSIAN, space={"epsilon": [0.1, float("inf")]}),
         "tune config.space.epsilon"),
    ],
    ids=["seed", "steps", "init_position", "precision_diag", "tune-epsilon"],
)
def test_non_finite_number_is_config_error(tmp_path, capsys, command, config, context):
    # json writes and reads Infinity and NaN, which no field accepts
    cfg = write_config(tmp_path / "c.json", config)
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {context}: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize(
    "model",
    [
        {"name": "gaussian", "precision_diag": [-1, 1]},
        {"name": "gaussian", "precision_diag": [0, 1]},
        {"name": "rough_well", "sigma1": 1e-200},
        {"name": "rough_well", "sigma1": 1e200},
    ],
    ids=["precision-negative", "precision-zero", "sigma1-tiny", "sigma1-huge"],
)
def test_out_of_range_model_is_config_error(tmp_path, capsys, model):
    # the target checks its own numbers; these used to end in a ValueError,
    # ZeroDivisionError or OverflowError traceback
    cfg = write_config(tmp_path / "c.json", dict(GAUSSIAN_SAMPLE, model=model))
    assert main(["sample", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: model: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize(
    "config, context",
    [
        (dict(GAUSSIAN_SAMPLE, epsilon="0.5"), "sample config.epsilon"),
        (dict(GAUSSIAN_SAMPLE, beta=True), "sample config.beta"),
        (dict(GAUSSIAN_SAMPLE, model={"name": "gaussian", "precision_diag": ["4", 1.0]}),
         "model.precision_diag"),
        (dict(GAUSSIAN_SAMPLE, model={"name": "gaussian", "precision_diag": [4.0, True]}),
         "model.precision_diag"),
    ],
    ids=["epsilon-string", "beta-bool", "precision_diag-string", "precision_diag-bool"],
)
def test_string_or_bool_number_is_config_error(tmp_path, capsys, config, context):
    # float() would take "0.5" and True; a JSON number field takes neither
    cfg = write_config(tmp_path / "c.json", config)
    assert main(["sample", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {context}: must be a number\n"
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


AUTOCORR_GAUSSIAN = {
    "model": {"name": "gaussian", "precision_diag": [1.0]},
    "mjhmc": {"epsilon": 0.5, "steps": 4, "beta": 0.3},
    "hmc": {"epsilon": 0.5, "steps": 4, "beta": 0.4},
    "n_samples": 100,
}


@pytest.mark.parametrize("via", ["config", "flag"])
@pytest.mark.parametrize(
    "command, config",
    [
        ("sample", GAUSSIAN_SAMPLE),
        ("autocorr", AUTOCORR_GAUSSIAN),
        ("tune", TUNE_GAUSSIAN),
        ("spectral-gap", {"sizes": [5], "draws_per_size": 2}),
        ("check", TestCheck.QUICK),
    ],
    ids=["sample", "autocorr", "tune", "spectral-gap", "check"],
)
def test_negative_seed_is_config_error(tmp_path, capsys, command, config, via):
    # numpy's SeedSequence refuses a negative seed with a traceback
    argv = ["--seed", "-1"] if via == "flag" else []
    cfg = write_config(tmp_path / "c.json", dict(config, seed=-1) if via == "config" else config)
    assert main([command, cfg, "--out", str(tmp_path / "out"), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {command} config.seed: must be at least 0\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("tune", dict(TUNE_GAUSSIAN, space=5), "tune config.space: must be an object"),
        ("tune", dict(TUNE_GAUSSIAN, eval=[1, 2]), "tune config.eval: must be an object"),
        ("autocorr", dict(AUTOCORR_GAUSSIAN, hmc=[0.5, 4, 0.4]),
         "autocorr config.hmc: must be an object"),
        ("autocorr", dict(AUTOCORR_GAUSSIAN, mjhmc={"epsilon": -0.5, "steps": 4, "beta": 0.3}),
         "autocorr config.mjhmc: epsilon must be positive and finite"),
        ("autocorr", dict(AUTOCORR_GAUSSIAN, hmc={"epsilon": 0.5, "steps": 4}),
         "autocorr config.hmc: missing required key 'beta'"),
        ("autocorr", dict(AUTOCORR_GAUSSIAN, hmc={"epsilon": 0.5, "steps": 4, "beta": 0.4, "x": 1}),
         "autocorr config.hmc: unknown keys ['x']"),
    ],
    ids=["tune-space-number", "tune-eval-list", "autocorr-hmc-list", "autocorr-mjhmc-epsilon",
         "autocorr-hmc-missing", "autocorr-hmc-unknown"],
)
def test_nested_object_checked_under_its_path(tmp_path, capsys, command, config, message):
    cfg = write_config(tmp_path / "c.json", config)
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize(
    "command, integral_floats, ints",
    [
        ("sample", dict(GAUSSIAN_SAMPLE, n_samples=1e3, steps=3.0),
         dict(GAUSSIAN_SAMPLE, n_samples=1000, steps=3)),
        ("autocorr", dict(AUTOCORR_GAUSSIAN, n_samples=1e3, n_lags=30.0,
                          hmc={"epsilon": 0.5, "steps": 3.0, "beta": 0.4}),
         dict(AUTOCORR_GAUSSIAN, n_samples=1000, n_lags=30,
              hmc={"epsilon": 0.5, "steps": 3, "beta": 0.4})),
        ("tune", dict(TUNE_GAUSSIAN, budget=2.0, space={"steps": [3.0, 5.0]},
                      eval={"n_samples": 5e2, "n_lags": 30.0}),
         dict(TUNE_GAUSSIAN, budget=2, space={"steps": [3, 5]},
              eval={"n_samples": 500, "n_lags": 30})),
        ("spectral-gap", {"sizes": [5.0], "draws_per_size": 2.0},
         {"sizes": [5], "draws_per_size": 2}),
    ],
    ids=["sample", "autocorr", "tune", "spectral-gap"],
)
def test_integral_float_is_the_same_config(tmp_path, capsys, command, integral_floats, ints):
    # 1e3 and 1000 are one JSON number: the same run, the same config_hash
    outputs = []
    for name, config in (("floats", integral_floats), ("ints", ints)):
        run_dir = tmp_path / name
        run_dir.mkdir()
        cfg = write_config(tmp_path / f"{name}.json", config)
        assert main([command, cfg, "--out", str(run_dir / "out")]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(run_dir.iterdir())})
    assert outputs[0] == outputs[1] and outputs[0]
    assert b"config_hash" in b"".join(outputs[0].values())


@pytest.mark.parametrize(
    "command, config, owner, name, error",
    [
        ("spectral-gap", {"sizes": [5], "draws_per_size": 2}, ladder, "ladder_spectral_gap",
         DegenerateLadderError("a rung has no outgoing transitions")),
        ("tune", TUNE_GAUSSIAN, tuner, "evaluate_trial",
         DegenerateChainError("chain has a zero-variance dimension")),
    ],
    ids=["spectral-gap", "tune"],
)
def test_numerical_error_of_the_work_exits_2(tmp_path, capsys, monkeypatch, command, config,
                                             owner, name, error):
    # the experiment's own checks report a ValueError as a config error; these
    # ValueErrors of the work it runs are numerical
    def fail(*args):
        raise error

    monkeypatch.setattr(owner, name, fail)
    cfg = write_config(tmp_path / "c.json", config)
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"numerical error: {error}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
