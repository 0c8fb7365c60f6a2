"""Acceptance suite: one check per headline property, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines
live.  Each check enforces both its numerical tolerance and its runtime
budget.
"""

import time

import numpy as np

from jumphmc import (
    DiagonalGaussian,
    RoughWell,
    SamplerConfig,
    autocorrelation,
    fit_decay,
    init_cache,
    random_ladder_experiment,
    run_chain,
    systematic_resample_indices,
    weighted_moments,
)
from jumphmc.jump import _exp, _holding_time, _log_rates, _log_waiting_times
from jumphmc.energy import kinetic_energy, worst_reversibility
from jumphmc.forkmap import map_ordered
from jumphmc.ladder import worst_balance, worst_race_deviation, worst_similarity

MJHMC_ROUGH_WELL = dict(epsilon=3.0, beta=0.012314, steps=25)
CONTROL_ROUGH_WELL = dict(epsilon=0.591686, beta=0.429956, steps=25)


def leapfrog(ef, x, v, epsilon, steps):
    """L of (x, v) by the target's trajectory, from a fresh gradient at x."""
    return ef.trajectory(x, v, ef.gradient(x), epsilon, steps)[:2]


def report(name: str, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] {name}: {detail} ({elapsed:.1f}s)")


def test_criterion_1_balance_condition():
    """Rate matrices leave the target distribution exactly stationary."""
    t0 = time.time()
    worst, _ = worst_balance(np.random.default_rng(101), 100)
    elapsed = time.time() - t0
    passed = worst <= 1e-10 and elapsed < 10
    report("balance condition (100 ladders, k in 4..128)", passed,
           f"max residual {worst:.2e} <= 1e-10", elapsed)
    assert worst <= 1e-10
    assert elapsed < 10


def test_criterion_2_similarity_spectra():
    """Embedded and holding-time-scaled chains share their spectra."""
    t0 = time.time()
    worst = worst_similarity(np.random.default_rng(202), 50)
    elapsed = time.time() - t0
    passed = worst <= 1e-8 and elapsed < 10
    report("similarity spectra (50 ladders)", passed,
           f"max multiset distance {worst:.2e} <= 1e-8", elapsed)
    assert worst <= 1e-8
    assert elapsed < 10


def test_criterion_3_competing_exponentials():
    """Embedded-chain probabilities match simulation; product form refuted."""
    from jumphmc import min_exponential_oracle

    t0 = time.time()
    rng = np.random.default_rng(303)
    n = 1_000_000
    vectors = [np.array([1.0, 3.0]), np.array([1.0, 1.0]), np.array([1.0, 2.0, 3.0]),
               np.array([0.5, 1.5, 2.5])]
    vectors += [rng.uniform(0.2, 3.0, size=int(rng.integers(2, 4))) for _ in range(16)]
    worst_sigmas = worst_race_deviation(vectors, n, rng)

    # the length-3 case refutes the pairwise-product formula
    rates_vec = np.array([1.0, 2.0, 3.0])
    freqs = min_exponential_oracle(rates_vec, n, rng)
    product_form = np.array([1 / 12, 4 / 15, 9 / 20])
    sigma = np.sqrt(product_form * (1 - product_form) / n)
    product_rejected = bool(np.all(np.abs(freqs - product_form) > 10 * sigma))

    elapsed = time.time() - t0
    passed = worst_sigmas <= 3.0 and product_rejected and elapsed < 30
    report("competing exponentials (20 rate vectors, 1e6 trials)", passed,
           f"worst deviation {worst_sigmas:.2f} sigma <= 3; product form rejected: {product_rejected}",
           elapsed)
    assert worst_sigmas <= 3.0
    assert product_rejected
    assert elapsed < 30


def test_criterion_4_spectral_gap_experiment():
    """Jump-process chains mix faster on ladders, by >= 2x at the largest size.

    Sizes are odd: on an even ring both chains are exactly bipartite and
    every spectral gap collapses to zero, so even sizes cannot distinguish
    the samplers at all.
    """
    t0 = time.time()
    result = random_ladder_experiment(draws_per_size=250, seed=404)
    elapsed = time.time() - t0
    big = result.sizes >= 32
    wins = bool(np.all(result.mjhmc_mean[big] > result.hmc_mean[big]))
    ratio = float(result.mjhmc_mean[-1] / result.hmc_mean[-1])
    passed = wins and ratio >= 2.0 and elapsed < 300
    detail = (
        f"mjhmc > hmc at every k >= 32: {wins}; ratio at k={int(result.sizes[-1])}: "
        f"{ratio:.2f} >= 2"
    )
    report("spectral-gap experiment (250 draws/size)", passed, detail, elapsed)
    assert wins
    assert ratio >= 2.0
    assert elapsed < 300


def _moment_errors(seed: int) -> tuple[float, float]:
    """(max |mean| / SE, max |cov - I|) of one 1e5-row chain on the 2D isotropic Gaussian."""
    config = SamplerConfig("mjhmc", epsilon=0.9, steps=5, beta=0.1, n_samples=100_000, seed=seed)
    v0 = np.random.default_rng(seed + 100).standard_normal(2)
    chain = run_chain(config, DiagonalGaussian.isotropic(2), np.zeros(2), v0)
    mean, cov = weighted_moments(chain)
    n_batches = 50
    batches = np.array_split(np.arange(len(chain)), n_batches)
    batch_means = np.array(
        [chain.holding_times[b] @ chain.positions[b] / chain.holding_times[b].sum()
         for b in batches]
    )
    se = batch_means.std(axis=0, ddof=1) / np.sqrt(n_batches)
    return float(np.max(np.abs(mean) / se)), float(np.max(np.abs(cov - np.eye(2))))


def test_criterion_5_sampler_correctness():
    """Weighted moments on the 2D isotropic Gaussian match the target."""
    t0 = time.time()
    # the three seeds are independent chains, run in forked processes
    mean_ses, cov_errs = zip(*map_ordered(_moment_errors, [0, 1, 2]))
    worst_mean_ses, worst_cov_err = max(mean_ses), max(cov_errs)
    elapsed = time.time() - t0
    passed = worst_mean_ses <= 3.0 and worst_cov_err <= 0.05 and elapsed < 60
    report("sampler correctness (2D Gaussian, 1e5 steps, 3 seeds)", passed,
           f"worst |mean|/SE {worst_mean_ses:.2f} <= 3; worst |cov - I| {worst_cov_err:.3f} <= 0.05",
           elapsed)
    assert worst_mean_ses <= 3.0
    assert worst_cov_err <= 0.05
    assert elapsed < 60


def test_criterion_6_rough_well_decay_ordering():
    """Decay-rate ordering on the rough well at the published hyperparameters.

    KNOWN FAILURE, left red deliberately rather than weakened.

    It now fails first at its budget precondition, before any ordering is
    compared.  Its chain lengths (14,000 jump rows, 20,001 control rows)
    were sized for the cache before the orbit cache, which integrates each
    orbit node once per momentum redraw and so spends fewer evaluations
    per row.  At seed 0 the jump chain spends 118,300 gradient evaluations
    and the control 496,325, against the 500,000 asked of each.  The
    ordering itself still fails: with a prototype of the orbit cache, at a
    matched 3e5 budget over seeds 0-4, the jump sampler's decay rate was
    0.46-0.74 of the control's.

    The ordering failure was analysed before the orbit cache.  At step size
    3.0 the leapfrog integrator is beyond the stability limit set by the
    ripple curvature (2 / sqrt((pi/4)^2) ~ 2.55), so a 25-step application
    raises the total energy by ~10-100 at equilibrium (median ~11).  Forward
    rates exp(-dH/2) then almost never win the race, ~40% of transitions are
    momentum flips that exactly retrace the previous trajectory, and the
    jump sampler's position autocorrelation per gradient evaluation decays
    several times slower than the discrete control's at its own published
    setting (~5e-5 vs ~4e-4), for every seed, every budget up to 2e6
    evaluations tried, and regardless of flip-cost accounting.  Every
    distributional property of the sampler (balance residual ~1e-16,
    Gaussian moments, holding-time law, race probabilities, ladder spectral
    gaps) checks out, so the implementation follows the published update
    rules; the published hyperparameter values simply do not reproduce the
    published ordering under those rules at unit momentum mass.
    """
    t0 = time.time()
    ef = RoughWell()
    wins = 0
    details = []
    for seed in range(5):
        root = np.random.SeedSequence(seed)
        s_init, s_mj, s_hmc, s_res = [int(s.generate_state(1)[0]) for s in root.spawn(4)]
        init = (np.zeros(2), np.random.default_rng(s_init).standard_normal(2))

        mj_cfg = SamplerConfig("mjhmc", n_samples=14_000, seed=s_mj, **MJHMC_ROUGH_WELL)
        mj = run_chain(mj_cfg, ef, *init)
        idx = systematic_resample_indices(
            mj.holding_times, len(mj), np.random.default_rng(s_res)
        )
        h_cfg = SamplerConfig("hmc", n_samples=20_001, seed=s_hmc, **CONTROL_ROUGH_WELL)
        hc = run_chain(h_cfg, ef, *init)

        budget_mj = int(mj.gradient_evals[-1] - mj.gradient_evals[0])
        budget_h = int(hc.gradient_evals[-1] - hc.gradient_evals[0])
        assert budget_mj >= 500_000 and budget_h >= 500_000
        max_lag = 0.10 * min(budget_mj, budget_h)
        fit_mj = fit_decay(
            autocorrelation(mj.positions[idx], mj.gradient_evals[idx], max_lag_evals=max_lag)
        )
        fit_h = fit_decay(
            autocorrelation(hc.positions, hc.gradient_evals, max_lag_evals=max_lag)
        )
        wins += abs(fit_mj.r_real) > abs(fit_h.r_real)
        details.append(f"seed {seed}: |Re r| mjhmc {abs(fit_mj.r_real):.2e} vs hmc {abs(fit_h.r_real):.2e}")
    elapsed = time.time() - t0
    passed = wins >= 4 and elapsed < 600
    report("rough-well decay ordering (5 seeds, >= 5e5 grad evals)", passed,
           f"mjhmc faster for {wins}/5 seeds (need >= 4); " + "; ".join(details), elapsed)
    assert elapsed < 600
    assert wins >= 4, (
        f"jump sampler decayed faster for only {wins}/5 seeds at the published "
        "hyperparameters; see this test's docstring for the analysis"
    )


def test_criterion_7_integrator_properties():
    """Reversibility, volume preservation, and second-order energy error."""
    t0 = time.time()
    rng = np.random.default_rng(707)
    models = [RoughWell(), DiagonalGaussian(np.array([1.0, 0.25]))]

    worst_rev = worst_reversibility(
        (ef, rng.normal(scale=2.0, size=2), rng.standard_normal(2), epsilon, steps)
        for ef in models for epsilon in (0.1, 1.0) for steps in (1, 25) for _ in range(25)
    )

    # volume preservation: numerical Jacobian determinant of one application
    ef = RoughWell()
    base = np.array([1.2, -0.4, 0.8, 0.3])
    h = 1e-6
    jac = np.empty((4, 4))
    for i in range(4):
        up, dn = base.copy(), base.copy()
        up[i] += h
        dn[i] -= h
        fu = leapfrog(ef, up[:2], up[2:], 0.5, 5)
        fd = leapfrog(ef, dn[:2], dn[2:], 0.5, 5)
        jac[:, i] = (np.concatenate(fu) - np.concatenate(fd)) / (2 * h)
    det_err = abs(np.linalg.det(jac) - 1.0)

    # second-order energy error: halving the step at fixed trajectory length
    gauss = DiagonalGaussian(np.array([1.0, 4.0]))
    states = [(rng.normal(size=2), rng.standard_normal(2)) for _ in range(64)]

    def total_energy(x, v):
        return gauss.energy(x) + kinetic_energy(v)

    def mean_energy_error(epsilon, steps):
        return np.mean(
            [abs(total_energy(*leapfrog(gauss, *s, epsilon, steps)) - total_energy(*s))
             for s in states]
        )

    ratio = mean_energy_error(0.2, 8) / mean_energy_error(0.1, 16)

    elapsed = time.time() - t0
    passed = worst_rev <= 1e-9 and det_err <= 1e-5 and 3.0 <= ratio <= 5.0 and elapsed < 10
    report("integrator properties", passed,
           f"reversibility {worst_rev:.2e} <= 1e-9; |det J - 1| {det_err:.2e} <= 1e-5; "
           f"halving ratio {ratio:.2f} in [3, 5]", elapsed)
    assert worst_rev <= 1e-9
    assert det_err <= 1e-5
    assert 3.0 <= ratio <= 5.0
    assert elapsed < 10


def test_criterion_8_holding_time_law():
    """Sojourn times at a pinned state are exponential with the total rate."""
    t0 = time.time()
    ef = RoughWell()
    config = SamplerConfig("mjhmc", epsilon=1.0, steps=3, beta=0.5, n_samples=1, seed=0)
    x0, v0 = np.array([-1.69921191, -1.02124494]), np.array([-0.01153306, -1.48537518])
    cache = init_cache(x0, v0, ef)
    cache.fill(ef, config.epsilon, config.steps, backward=True)
    log_gamma_L, log_gamma_F = _log_rates(cache)
    total = _exp(log_gamma_L) + _exp(log_gamma_F) + config.beta
    rng = np.random.default_rng(808)
    mins = np.array(
        [_holding_time(min(_log_waiting_times(log_gamma_L, log_gamma_F, config.beta, rng)))
         for _ in range(100_000)]
    )
    rel_err = abs(mins.mean() - 1.0 / total) * total
    elapsed = time.time() - t0
    passed = rel_err <= 0.02 and elapsed < 10
    report("holding-time law (1e5 draws)", passed,
           f"relative error of mean {rel_err:.4f} <= 0.02", elapsed)
    assert rel_err <= 0.02
    assert elapsed < 10
