import numpy as np
import pytest

from jumphmc import (
    DiagonalGaussian,
    PhaseState,
    RoughWell,
    SearchSpace,
    TuningEvalConfig,
    evaluate_trial,
    random_search,
    run_chain,
)

GAUSS_1D = DiagonalGaussian.isotropic(1)
FAST_EVAL = TuningEvalConfig(n_samples=600, n_lags=40)


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(epsilon_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        SearchSpace(beta_range=(0.1, 1.5))
    with pytest.raises(ValueError):
        SearchSpace(steps_range=(5, 2))


def test_space_draw_respects_bounds():
    space = SearchSpace(epsilon_range=(0.1, 2.0), beta_range=(0.01, 0.5), steps_range=(3, 7))
    rng = np.random.default_rng(0)
    for _ in range(200):
        eps, beta, steps = space.draw(rng)
        assert 0.1 <= eps <= 2.0
        assert 0.01 <= beta <= 0.5
        assert 3 <= steps <= 7


def test_budget_one_returns_the_single_trial():
    best, trials = random_search(SearchSpace(), 1, "mjhmc", GAUSS_1D, FAST_EVAL, seed=0)
    assert len(trials) == 1
    assert best == trials[0]


def test_collapsed_space_pins_parameters():
    space = SearchSpace(epsilon_range=(0.5, 0.5), beta_range=(0.2, 0.2), steps_range=(4, 4))
    best, trials = random_search(space, 3, "hmc", GAUSS_1D, FAST_EVAL, seed=1)
    for t in trials:
        assert t.epsilon == pytest.approx(0.5)
        assert t.beta == pytest.approx(0.2)
        assert t.steps == 4


def test_deterministic_under_seed():
    a = random_search(SearchSpace(), 4, "mjhmc", GAUSS_1D, FAST_EVAL, seed=7)
    b = random_search(SearchSpace(), 4, "mjhmc", GAUSS_1D, FAST_EVAL, seed=7)
    assert a[0] == b[0]
    assert a[1] == b[1]


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
    init = PhaseState(np.zeros(2), np.random.default_rng(0).standard_normal(2))
    assert run_chain("hmc", 4.847, 34, 0.712, 400, 0, ef, init).acceptance_rate == 0.0
    trial = evaluate_trial("hmc", 4.847, 0.712, 34, ef, eval_cfg, chain_seed=0, aux_seed=0)
    assert trial.status == "ok"
    assert trial.objective == 0.0


@pytest.mark.parametrize("seed, index", [(1222383955, 2), (3669447255, 0)])
def test_frozen_jump_resample_scores_zero_decay(seed, index):
    # past the rough well's stability limit a jump chain that moved can still
    # put every holding-time resampled draw on one state: no decay, no failure
    _, trials = random_search(
        SearchSpace(), 3, "mjhmc", RoughWell(), TuningEvalConfig(n_samples=400), seed=seed
    )
    assert trials[index].epsilon > 4.4
    assert trials[index].status == "ok"
    assert trials[index].objective == 0.0


def test_unknown_sampler_rejected():
    with pytest.raises(ValueError):
        random_search(SearchSpace(), 1, "nuts", GAUSS_1D, FAST_EVAL, seed=0)
    with pytest.raises(ValueError):
        evaluate_trial("nuts", 0.1, 0.1, 2, GAUSS_1D, FAST_EVAL, 0, 0)


def test_search_beats_deliberately_bad_setting_on_rough_well():
    ef = RoughWell()
    eval_cfg = TuningEvalConfig(n_samples=1500, n_lags=80)
    best, trials = random_search(SearchSpace(), 50, "mjhmc", ef, eval_cfg, seed=0)
    bad = evaluate_trial("mjhmc", 0.01, 0.9, 2, ef, eval_cfg, chain_seed=123, aux_seed=321)
    assert bad.status == "ok"
    assert best.objective <= bad.objective
