import numpy as np
import pytest

from jumphmc import (
    DiagonalGaussian,
    RoughWell,
    SamplerConfig,
    SearchSpace,
    TuningEvalConfig,
    evaluate_trial,
    random_search,
    run_chain,
)

from jumphmc import tuner

GAUSS_1D = DiagonalGaussian.isotropic(1)
FAST_EVAL = TuningEvalConfig(n_samples=600, n_lags=40)


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(epsilon_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        SearchSpace(beta_range=(0.1, 1.5))
    with pytest.raises(ValueError):
        SearchSpace(steps_range=(5, 2))


@pytest.mark.parametrize("epsilon_range", [(0.1, np.inf), (np.inf, np.inf), (0.1, np.nan)])
def test_space_epsilon_range_must_be_finite(epsilon_range):
    # (0.1, inf) used to be accepted, and draw died in numpy with an OverflowError
    with pytest.raises(ValueError, match=r"^epsilon_range must satisfy 0 < lo <= hi < inf$"):
        SearchSpace(epsilon_range=epsilon_range)


@pytest.mark.parametrize("steps_range", [(2.5, 10), (2, 10.5), (True, 3), (2, True), ("2", 10)])
def test_space_steps_range_must_be_integers(steps_range):
    # (2.5, 10) and (True, 3) used to be accepted, and draw sampled from them
    with pytest.raises(ValueError, match=r"^steps_range\[[01]\] must be an integer"):
        SearchSpace(steps_range=steps_range)
    SearchSpace(steps_range=(np.int64(2), np.int64(10)))


def test_space_draw_respects_bounds():
    space = SearchSpace(epsilon_range=(0.1, 2.0), beta_range=(0.01, 0.5), steps_range=(3, 7))
    rng = np.random.default_rng(0)
    for _ in range(200):
        eps, beta, steps = space.draw(rng)
        assert 0.1 <= eps <= 2.0
        assert 0.01 <= beta <= 0.5
        assert 3 <= steps <= 7


def test_eval_config_rejects_what_cannot_be_fit():
    with pytest.raises(ValueError, match="n_samples must be at least 10"):
        TuningEvalConfig(n_samples=9)
    with pytest.raises(ValueError, match="n_lags must be at least 4"):
        TuningEvalConfig(n_lags=3)
    TuningEvalConfig(n_samples=10, n_lags=4)
    # these used to pass here and fail every trial inside autocorrelation
    for max_lag_evals in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^max_lag_evals must be positive and finite$"):
            TuningEvalConfig(max_lag_evals=max_lag_evals)
    TuningEvalConfig(max_lag_evals=50.0)


@pytest.mark.parametrize("value", [True, False])
def test_eval_config_max_lag_evals_must_not_be_a_bool(value):
    # True used to pass as a one-evaluation window (0 < True < inf)
    with pytest.raises(ValueError, match="^max_lag_evals must be a number, not a bool$"):
        TuningEvalConfig(max_lag_evals=value)


@pytest.mark.parametrize("max_lag_evals", [1e-9, 1.0, 2.6, 5.0])
def test_lag_window_inside_one_step_fails_the_trial(max_lag_evals):
    # the lags reach only the first sample, or it and the second (2.6 and 5.0,
    # one 5-step trajectory): these used to score "ok" with -0.0
    trial = evaluate_trial(
        SamplerConfig("hmc", 0.5, 5, 0.3, 400, 1), DiagonalGaussian.isotropic(2),
        TuningEvalConfig(n_samples=400, n_lags=40, max_lag_evals=max_lag_evals), 3,
    )
    assert (trial.status, trial.objective) == ("failed", None)


@pytest.mark.parametrize("value", [600.5, 600.0, True, "600"])
def test_eval_config_n_samples_must_be_an_integer(value):
    # 600.5 used to be refused only when the first trial's SamplerConfig was built
    with pytest.raises(ValueError, match="^n_samples must be an integer"):
        TuningEvalConfig(n_samples=value)


@pytest.mark.parametrize("value", [40.5, 40.0, True, "40"])
def test_eval_config_n_lags_must_be_an_integer(value):
    # 40.5 used to pass here and raise TypeError inside the first trial
    with pytest.raises(ValueError, match="^n_lags must be an integer"):
        TuningEvalConfig(n_lags=value)
    TuningEvalConfig(n_samples=np.int64(600), n_lags=np.int64(40))


@pytest.mark.parametrize("budget", [2.5, 1.0, True, "1", 0])
def test_budget_must_be_a_positive_integer(budget):
    # 2.5 used to raise TypeError from range, and True ran one trial
    with pytest.raises(ValueError, match="^budget must be"):
        random_search(SearchSpace(), budget, "mjhmc", GAUSS_1D, FAST_EVAL, seed=0)


def test_budget_one_returns_the_single_trial():
    best, trials = random_search(SearchSpace(), 1, "mjhmc", GAUSS_1D, FAST_EVAL, seed=0)
    assert len(trials) == 1
    assert best == trials[0]


def test_collapsed_space_pins_parameters():
    space = SearchSpace(epsilon_range=(0.5, 0.5), beta_range=(0.2, 0.2), steps_range=(4, 4))
    best, trials = random_search(space, 3, "hmc", GAUSS_1D, FAST_EVAL, seed=1)
    for t in trials:
        assert t.config.epsilon == pytest.approx(0.5)
        assert t.config.beta == pytest.approx(0.2)
        assert t.config.steps == 4


def test_deterministic_under_seed():
    a = random_search(SearchSpace(), 4, "mjhmc", GAUSS_1D, FAST_EVAL, seed=7)
    b = random_search(SearchSpace(), 4, "mjhmc", GAUSS_1D, FAST_EVAL, seed=7)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_trials_run_longest_first_and_return_in_draw_order(monkeypatch):
    # map_ordered gets the trials by descending steps; the trials come back
    # as a draw-order loop of evaluate_trial would return them
    handed = []

    def serial_map(fn, tasks):
        handed.extend(task[0] for task in tasks)
        return [fn(task) for task in tasks]

    monkeypatch.setattr(tuner, "map_ordered", serial_map)
    _, trials = random_search(SearchSpace(), 8, "mjhmc", GAUSS_1D, FAST_EVAL, seed=5)
    assert [c.steps for c in handed] == sorted((c.steps for c in handed), reverse=True)
    master = np.random.default_rng(5)
    for trial in trials:
        eps, beta, steps = SearchSpace().draw(master)
        chain_seed, aux_seed = int(master.integers(2**63)), int(master.integers(2**63))
        config = SamplerConfig("mjhmc", eps, steps, beta, FAST_EVAL.n_samples, chain_seed)
        assert trial == evaluate_trial(config, GAUSS_1D, FAST_EVAL, aux_seed)
    assert len(handed) == len(trials) == 8


def test_best_minimizes_over_ok_trials():
    best, trials = random_search(SearchSpace(), 8, "mjhmc", GAUSS_1D, FAST_EVAL, seed=3)
    ok = [t for t in trials if t.status == "ok"]
    assert ok
    assert best.objective == min(t.objective for t in ok)
    for t in trials:
        if t.status == "failed":
            assert t.objective is None


def test_failed_trials_are_recorded_not_fatal():
    # far beyond the stability limit every trial fails: at seed 0 the first
    # two are jump chains of R rows only (their trajectories leave every L and
    # F rate at exactly 0, so the positions never vary) and the third raises
    # IntegrationError
    space = SearchSpace(epsilon_range=(80.0, 100.0), beta_range=(0.1, 0.2), steps_range=(30, 50))
    with pytest.raises(RuntimeError):
        random_search(space, 3, "mjhmc", GAUSS_1D, FAST_EVAL, seed=0)


def test_frozen_control_scores_zero_decay():
    # far past the rough well's stability limit the control rejects every
    # proposal, so its positions never vary: no decay, but no failure either
    ef, eval_cfg = RoughWell(), TuningEvalConfig(n_samples=400)
    v0 = np.random.default_rng(0).standard_normal(2)
    config = SamplerConfig("hmc", 4.847, 34, 0.712, 400, 0)
    assert run_chain(config, ef, np.zeros(2), v0).acceptance_rate == 0.0
    trial = evaluate_trial(config, ef, eval_cfg, aux_seed=0)
    assert trial.status == "ok"
    assert trial.objective == 0.0


@pytest.mark.parametrize("seed, index", [(1222383955, 2), (3669447255, 0)])
def test_frozen_jump_resample_scores_zero_decay(seed, index):
    # past the rough well's stability limit a jump chain that moved can still
    # put every holding-time resampled draw on one state: no decay, no failure
    _, trials = random_search(
        SearchSpace(), 3, "mjhmc", RoughWell(), TuningEvalConfig(n_samples=400), seed=seed
    )
    assert trials[index].config.epsilon > 4.4
    assert trials[index].status == "ok"
    assert trials[index].objective == 0.0


def test_unknown_sampler_rejected():
    with pytest.raises(ValueError):
        random_search(SearchSpace(), 1, "nuts", GAUSS_1D, FAST_EVAL, seed=0)
    with pytest.raises(ValueError):
        evaluate_trial(SamplerConfig("nuts", 0.1, 2, 0.1, 600, 0), GAUSS_1D, FAST_EVAL, 0)


def test_search_beats_deliberately_bad_setting_on_rough_well():
    ef = RoughWell()
    eval_cfg = TuningEvalConfig(n_samples=1500, n_lags=80)
    best, trials = random_search(SearchSpace(), 50, "mjhmc", ef, eval_cfg, seed=0)
    bad = evaluate_trial(SamplerConfig("mjhmc", 0.01, 2, 0.9, 1500, 123), ef, eval_cfg, aux_seed=321)
    assert bad.status == "ok"
    assert best.objective <= bad.objective
