import numpy as np
import pytest

from jumphmc import (
    AutocorrSeries,
    DecayFit,
    DecayFitError,
    DegenerateChainError,
    HmcConfig,
    PhaseState,
    RoughWell,
    SamplerConfig,
    autocorrelation,
    fit_decay,
    hmc_chain,
    sample_chain,
    systematic_resample_indices,
    tuning_objective,
)


def ar1_chain(phi, n, seed, dim=1):
    """Stationary AR(1) with unit marginal variance; analytic ACF is phi^lag."""
    rng = np.random.default_rng(seed)
    x = np.empty((n, dim))
    x[0] = rng.standard_normal(dim)
    innov = np.sqrt(1 - phi**2)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + innov * rng.standard_normal(dim)
    return x


class TestAutocorrelation:
    def test_lag_zero_is_exactly_one(self):
        x = np.random.default_rng(0).normal(size=2000)
        series = autocorrelation(x, np.arange(1, 2001), max_lag_evals=100, n_lags=21)
        assert series.lags[0] == 0.0
        assert series.values[0] == 1.0

    def test_white_noise_decorrelates(self):
        n = 100_000
        x = np.random.default_rng(1).normal(size=n)
        series = autocorrelation(x, np.arange(1, n + 1), max_lag_evals=50, n_lags=51)
        assert np.all(np.abs(series.values[1:]) < 0.02)

    def test_ar1_matches_analytic(self):
        phi = 0.9
        x = ar1_chain(phi, 100_000, seed=2)
        series = autocorrelation(x, np.arange(1, x.shape[0] + 1), max_lag_evals=20, n_lags=21)
        expected = phi ** series.lags
        np.testing.assert_allclose(series.values, expected, atol=0.05)

    def test_dimension_averaging(self):
        # two perfectly correlated copies give the same series as one
        x = ar1_chain(0.8, 20_000, seed=3)
        both = np.hstack([x, x])
        evals = np.arange(1, x.shape[0] + 1)
        a = autocorrelation(x, evals, max_lag_evals=10, n_lags=11)
        b = autocorrelation(both, evals, max_lag_evals=10, n_lags=11)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-12)

    def test_affine_invariance(self):
        x = ar1_chain(0.7, 5_000, seed=4, dim=2)
        evals = np.arange(1, x.shape[0] + 1)
        a = autocorrelation(x, evals, max_lag_evals=15, n_lags=16)
        b = autocorrelation(2.5 * x - 3.0, evals, max_lag_evals=15, n_lags=16)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-9)

    def test_nearest_sample_lookup_with_uneven_costs(self):
        # two gradient evals per step: a lag of 2 evals is one step
        x = ar1_chain(0.9, 20_000, seed=5)
        evals = 2 * np.arange(1, x.shape[0] + 1)
        series = autocorrelation(x, evals, max_lag_evals=20, n_lags=11)
        expected = 0.9 ** (series.lags / 2)
        np.testing.assert_allclose(series.values, expected, atol=0.06)

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(np.zeros(5), np.arange(5), max_lag_evals=2)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateChainError):
            autocorrelation(np.ones(100), np.arange(100), max_lag_evals=10)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            AutocorrSeries(np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.5, 0.2]))
        with pytest.raises(ValueError):
            AutocorrSeries(np.array([1.0, 2.0]), np.array([1.0, 0.5]))


class TestFitDecay:
    def test_pure_decay_recovered(self):
        n = np.arange(0, 1001, 10, dtype=float)
        fit = fit_decay(AutocorrSeries(n, np.exp(-0.01 * n)))
        assert fit.r_real == pytest.approx(-0.01, abs=1e-4)
        assert fit.r_imag == pytest.approx(0.0, abs=1e-4)

    def test_damped_oscillation_recovered(self):
        n = np.arange(0, 1001, 10, dtype=float)
        values = np.real(np.exp((-0.01 + 0.05j) * n))
        fit = fit_decay(AutocorrSeries(n, values))
        assert fit.r_real == pytest.approx(-0.01, abs=1e-3)
        assert fit.r_imag == pytest.approx(0.05, abs=1e-3)

    def test_noisy_recovery_within_30_percent(self):
        n = np.arange(0, 1001, 10, dtype=float)
        clean = np.real(np.exp((-0.01 + 0.05j) * n))
        estimates = []
        for seed in range(20):
            noisy = clean + np.random.default_rng(seed).normal(scale=0.02, size=n.size)
            noisy[0] = 1.0
            estimates.append(fit_decay(AutocorrSeries(n, noisy)).r_real)
        assert np.mean(estimates) == pytest.approx(-0.01, rel=0.30)
        assert max(abs(e + 0.01) / 0.01 for e in estimates) < 0.30

    def test_random_ground_truths_recovered(self):
        # noiseless in-model data: the grid + refinement must find the truth
        n = np.arange(0, 1001, 10, dtype=float)
        rng = np.random.default_rng(99)
        for _ in range(50):
            a = 10 ** rng.uniform(-3.5, -1.2)
            b = 0.0 if rng.random() < 0.3 else 10 ** rng.uniform(-3, np.log10(0.5 * np.pi / 10))
            fit = fit_decay(AutocorrSeries(n, np.exp(-a * n) * np.cos(b * n)))
            assert -fit.r_real == pytest.approx(a, rel=1e-3)
            assert fit.r_imag == pytest.approx(b, abs=1e-3 * max(b, a))

    def test_residual_is_minimal_among_evaluated(self):
        n = np.arange(0, 501, 5, dtype=float)
        values = np.exp(-0.02 * n)
        fit = fit_decay(AutocorrSeries(n, values))
        # spot-check: the reported point beats nearby perturbations
        for da, db in [(1e-3, 0), (-1e-3, 0), (0, 1e-3)]:
            a, b = -fit.r_real + da, max(0.0, fit.r_imag + db)
            obj = float(np.sum((np.exp(-a * n) * np.cos(b * n) - values) ** 2))
            assert fit.residual <= obj + 1e-12

    def test_too_few_lags_rejected(self):
        with pytest.raises(ValueError):
            fit_decay(AutocorrSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.2])))

    def test_non_finite_series_rejected(self):
        n = np.arange(0, 10, dtype=float)
        values = np.ones(10)
        values[3] = np.nan
        with pytest.raises(DecayFitError):
            fit_decay(AutocorrSeries(n, values))


class TestTuningObjective:
    def test_reads_decay_rate(self):
        from jumphmc import DecayFit

        assert tuning_objective(DecayFit(r_real=-0.02, r_imag=0.1, residual=0.0)) == -0.02
        assert tuning_objective(DecayFit(r_real=0.0, r_imag=0.0, residual=0.0)) == 0.0

    def test_faster_decay_scores_lower(self):
        n = np.arange(0, 301, 3, dtype=float)
        slow = fit_decay(AutocorrSeries(n, np.exp(-0.005 * n)))
        fast = fit_decay(AutocorrSeries(n, np.exp(-0.05 * n)))
        assert tuning_objective(fast) < tuning_objective(slow)


# Reference: the scalar fit with one golden search per b candidate, kept
# verbatim from before the lockstep version.
def _golden_min(f, lo, hi, tol):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while (hi - lo) > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def reference_fit_decay(series, grid_points=60):
    lags = series.lags
    values = series.values
    if lags.size < 4:
        raise ValueError("need at least 4 lags to fit")
    if not np.all(np.isfinite(values)):
        raise DecayFitError("autocorrelation series contains non-finite values")
    n_max = lags[-1]
    n_min = np.min(lags[1:])
    a_floor = 0.01 / n_max
    a_grid = np.concatenate([[0.0], np.geomspace(a_floor, 20.0 / n_min, grid_points)])
    decays = np.exp(-np.multiply.outer(a_grid, lags))

    best = {"a": 0.0, "b": 0.0, "val": np.inf}

    def profile(b: float) -> float:
        """min_a objective(a, b), refining a around its grid bracket."""
        cos_part = np.cos(b * lags)
        errs = np.sum((decays * cos_part - values) ** 2, axis=1)
        if not np.any(np.isfinite(errs)):
            return np.inf
        j = int(np.nanargmin(errs))
        lo = a_grid[j - 1] if j > 0 else 0.0
        hi = a_grid[j + 1] if j + 1 < a_grid.size else 2.0 * a_grid[-1]

        def f_of_a(a: float) -> float:
            return float(np.sum((np.exp(-a * lags) * cos_part - values) ** 2))

        a, val = _golden_min(f_of_a, float(lo), float(hi), tol=1e-8 * max(hi, a_floor))
        if errs[j] < val:
            a, val = float(a_grid[j]), float(errs[j])
        if val < best["val"]:
            best.update(a=a, b=b, val=val)
        return val

    b_floor = 0.1 / n_max
    b_coarse = np.concatenate([[0.0], np.geomspace(b_floor, np.pi / n_min, grid_points)])
    b_dense = np.arange(0.0, np.pi / n_min, 0.5 * np.pi / n_max)
    b_grid = np.unique(np.concatenate([b_coarse, b_dense]))
    profile_vals = np.array([profile(b) for b in b_grid])
    if not np.any(np.isfinite(profile_vals)):
        raise DecayFitError("no candidate produced a finite objective")

    b = best["b"]
    width = max(float(np.diff(b_grid).max()), b_floor)
    for _ in range(60):
        candidates = np.linspace(max(0.0, b - width), b + width, 9)
        for cand in candidates:
            profile(cand)
        b = best["b"]
        width *= 0.5
        if width <= 1e-6 * max(b, b_floor):
            break
    return DecayFit(r_real=-best["a"], r_imag=best["b"], residual=best["val"])


def _model_series():
    """The in-model, noisy and damped series of TestFitDecay (a subset of the draws)."""
    n = np.arange(0, 1001, 10, dtype=float)
    cases = {
        "pure_decay": (n, np.exp(-0.01 * n)),
        "damped": (n, np.real(np.exp((-0.01 + 0.05j) * n))),
        "short_grid": (np.arange(0, 501, 5, dtype=float), np.exp(-0.02 * np.arange(0, 501, 5))),
    }
    rng = np.random.default_rng(99)
    for i in range(10):
        a = 10 ** rng.uniform(-3.5, -1.2)
        b = 0.0 if rng.random() < 0.3 else 10 ** rng.uniform(-3, np.log10(0.5 * np.pi / 10))
        cases[f"ground_truth_{i}"] = (n, np.exp(-a * n) * np.cos(b * n))
    clean = np.real(np.exp((-0.01 + 0.05j) * n))
    for seed in range(4):
        noisy = clean + np.random.default_rng(seed).normal(scale=0.02, size=n.size)
        noisy[0] = 1.0
        cases[f"noisy_{seed}"] = (n, noisy)
    return cases


def _rough_well_series(sampler, epsilon):
    """Autocorrelation at 120 lags of a short rough-well chain, as a tuning trial scores it."""
    ef = RoughWell()
    init = PhaseState(np.zeros(2), np.array([0.4, -0.9]))
    if sampler == "mjhmc":
        chain = sample_chain(
            SamplerConfig(epsilon=epsilon, steps=10, beta=0.1, n_samples=400, seed=5), ef, init,
        )
        idx = systematic_resample_indices(
            chain.holding_times, len(chain), np.random.default_rng(6)
        )
        positions, evals = chain.positions[idx], chain.gradient_evals[idx]
    else:
        chain = hmc_chain(
            HmcConfig(epsilon=epsilon, steps=10, beta=0.1, n_samples=400, seed=5), ef, init,
        )
        positions, evals = chain.positions, chain.gradient_evals
    return autocorrelation(positions, evals, n_lags=120)


class TestLockstepFitMatchesScalarFit:
    """The lockstep fit reproduces the one-search-per-candidate fit bit for bit."""

    @pytest.mark.parametrize("name", sorted(_model_series()))
    def test_model_series(self, name):
        series = AutocorrSeries(*_model_series()[name])
        assert fit_decay(series) == reference_fit_decay(series)

    @pytest.mark.parametrize("sampler", ["mjhmc", "hmc"])
    @pytest.mark.parametrize("epsilon", [0.1, 0.6, 1.5, 3.0])
    def test_rough_well_series(self, sampler, epsilon):
        series = _rough_well_series(sampler, epsilon)
        assert fit_decay(series) == reference_fit_decay(series)

    def test_constant_series_brackets_at_zero_decay(self):
        n = np.arange(0, 1001, 10, dtype=float)
        series = AutocorrSeries(n, np.ones(n.size))
        fit = fit_decay(series)
        assert fit == reference_fit_decay(series)
        assert fit.r_real == 0.0 and fit.r_imag == 0.0 and fit.residual == 0.0

    def test_decay_beyond_grid_top(self):
        # a = 5 is past the grid's top 20 / n_min = 2, so the bracket is the
        # last grid point and its upper end 2 * a_grid[-1]
        n = np.arange(0, 1001, 10, dtype=float)
        series = AutocorrSeries(n, np.exp(-5.0 * n))
        fit = fit_decay(series)
        assert fit == reference_fit_decay(series)
        assert -fit.r_real > 2.0

    def test_pure_oscillation(self):
        # b > 0 with the decay bracketed in [0, a_floor], the grid's first cell
        n = np.arange(0, 1001, 10, dtype=float)
        series = AutocorrSeries(n, np.cos(0.05 * n))
        fit = fit_decay(series)
        assert fit == reference_fit_decay(series)
        assert fit.r_imag == pytest.approx(0.05, rel=1e-6)
        assert 0.0 <= -fit.r_real < 0.01 / n[-1]

    def test_overflowing_series_has_no_finite_candidate(self):
        # every squared error overflows, so every candidate profiles to inf
        n = np.arange(0, 1001, 10, dtype=float)
        series = AutocorrSeries(n, np.full(n.size, 1e200))
        for fit in (fit_decay, reference_fit_decay):
            with np.errstate(over="ignore"), pytest.raises(DecayFitError, match="no candidate"):
                fit(series)
