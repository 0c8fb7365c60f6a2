import numpy as np
import pytest

from jumphmc import (
    AutocorrSeries,
    DecayFit,
    DecayFitError,
    DegenerateChainError,
    RoughWell,
    SamplerConfig,
    SearchSpace,
    autocorrelation,
    fit_decay,
    run_chain,
    tuning_objective,
    unweighted_samples,
)
from jumphmc.diagnostics import _band_bound, _may_win, _safeguarded_newton


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


def _bound_cases():
    """Rows (b, values) for the bound checks: b = 0, pure oscillation, noisy and overflowing."""
    n = np.arange(0, 1001, 10, dtype=float)
    rng = np.random.default_rng(17)
    cases = {
        "b_zero": (0.0, np.exp(-0.01 * n) + rng.normal(scale=0.05, size=n.size)),
        "pure_oscillation": (0.05, np.cos(0.05 * n)),
        "overflowing": (0.02, np.full(n.size, 1e200)),
    }
    for i in range(6):
        # a noisy damped oscillation, offered an unrelated candidate b
        a, b_data = 10 ** rng.uniform(-3.5, -1.0), rng.uniform(0.0, np.pi / 10)
        noise = rng.normal(scale=10 ** rng.uniform(-3, -0.5), size=n.size)
        cases[f"random_{i}"] = (rng.uniform(0.0, np.pi / 10), np.exp(-a * n) * np.cos(b_data * n) + noise)
    return n, cases


class TestPruningBounds:
    """Both bounds of the pruned sweep are lower bounds on the squared error."""

    N, CASES = _bound_cases()
    # the fit's a grid, with its closing point
    A_GRID = np.append(np.concatenate([[0.0], np.geomspace(0.01 / 1000, 2.0, 60)]), 4.0)

    def squared_errors(self, a, b, values):
        with np.errstate(over="ignore"):
            model = np.exp(-np.multiply.outer(a, self.N)) * np.cos(b * self.N)
            return np.sum((model - values) ** 2, axis=-1)

    def newton_value(self, b, values, lo, hi):
        """The row's least squared error in [lo, hi], found as the fit finds it."""
        cos_part, n = np.cos(b * self.N), self.N

        def terms(a, live):
            m = np.exp(-np.multiply.outer(a, n)) * cos_part
            r = m - values
            return (np.sum(r * r, axis=1), -2.0 * (r * m) @ n,
                    2.0 * (m * (m + r)) @ (n * n))

        with np.errstate(over="ignore", invalid="ignore"):
            _, val = _safeguarded_newton(
                terms, np.array([0.5 * (lo + hi)]), np.array([lo]), np.array([hi]),
                np.array([1e-8 * max(hi, 1e-5)]),
            )
        return val[0]

    def assert_below(self, bound, f):
        assert np.all(bound <= f * (1.0 + 8 * self.N.size * np.finfo(float).eps))

    @pytest.mark.parametrize("name", sorted(_bound_cases()[1]))
    def test_band_without_a(self, name):
        # for every a >= 0 the model lies between 0 and cos(b n)
        b, values = self.CASES[name]
        cos_part = np.cos(b * self.N)[None]
        bound = _band_bound(values, 0.0, cos_part)
        a = np.concatenate([self.A_GRID, np.linspace(0.0, 4.0, 2001)])
        self.assert_below(bound, self.squared_errors(a, b, values))
        for j in range(0, self.A_GRID.size - 1, 7):
            lo, hi = self.A_GRID[j], self.A_GRID[j + 1]
            self.assert_below(bound, self.newton_value(b, values, lo, hi))

    @pytest.mark.parametrize("name", sorted(_bound_cases()[1]))
    def test_band_of_a_bracket(self, name):
        # for a in [lo, hi] the model lies between cos(b n) e^{-hi n} and cos(b n) e^{-lo n}
        b, values = self.CASES[name]
        cos_part = np.cos(b * self.N)[None]
        for j in range(1, self.A_GRID.size - 1, 3):
            lo, hi = self.A_GRID[j - 1], self.A_GRID[j + 1]
            bound = _band_bound(values, cos_part * np.exp(-hi * self.N), cos_part * np.exp(-lo * self.N))
            self.assert_below(bound, self.squared_errors(np.linspace(lo, hi, 401), b, values))
            self.assert_below(bound, self.newton_value(b, values, lo, hi))

    def test_bracket_bound_is_tighter(self):
        # the bracket's band lies inside the band from 0 to cos(b n)
        b, values = self.CASES["random_0"]
        cos_part = np.cos(b * self.N)[None]
        loose = _band_bound(values, 0.0, cos_part)
        for lo, hi in zip(self.A_GRID[:-2], self.A_GRID[2:]):
            tight = _band_bound(values, cos_part * np.exp(-hi * self.N), cos_part * np.exp(-lo * self.N))
            assert tight >= loose

    def test_nan_bound_keeps_its_row(self):
        bound = np.array([np.nan, 1.0, 1.05, 2.0, np.inf])
        assert _may_win(bound, 1.0, 0.1).tolist() == [True, True, True, False, False]
        assert _may_win(bound, np.inf, 0.1).tolist() == [True] * 5


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
# verbatim from before the lockstep and Newton versions.
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
    config = SamplerConfig(sampler, epsilon, 10, 0.1, 400, 5)
    chain = run_chain(config, RoughWell(), np.zeros(2), np.array([0.4, -0.9]))
    positions, evals = unweighted_samples(chain, np.random.default_rng(6))
    return autocorrelation(positions, evals, n_lags=120)


def assert_matches_reference(fit, ref):
    """The fit's complex rate is within 1e-6 of the reference's, or its residual is no larger.

    The second branch covers flat valleys, where the golden-section
    reference stops at a residual it cannot tell from the true minimum.
    """
    r, r_ref = complex(fit.r_real, fit.r_imag), complex(ref.r_real, ref.r_imag)
    assert abs(r - r_ref) <= 1e-6 * abs(r_ref) or fit.residual <= ref.residual


class TestLockstepFitMatchesScalarFit:
    """The Newton fit agrees with the one-golden-search-per-candidate fit."""

    reference = staticmethod(reference_fit_decay)

    @pytest.mark.parametrize("name", sorted(_model_series()))
    def test_model_series(self, name):
        series = AutocorrSeries(*_model_series()[name])
        assert_matches_reference(fit_decay(series), self.reference(series))

    @pytest.mark.parametrize("sampler", ["mjhmc", "hmc"])
    @pytest.mark.parametrize("epsilon", [0.1, 0.6, 1.5, 3.0])
    def test_rough_well_series(self, sampler, epsilon):
        series = _rough_well_series(sampler, epsilon)
        assert_matches_reference(fit_decay(series), self.reference(series))

    def test_constant_series_brackets_at_zero_decay(self):
        n = np.arange(0, 1001, 10, dtype=float)
        series = AutocorrSeries(n, np.ones(n.size))
        fit = fit_decay(series)
        assert_matches_reference(fit, self.reference(series))
        assert fit.r_real == 0.0 and fit.r_imag == 0.0 and fit.residual == 0.0

    def test_decay_beyond_grid_top(self):
        # a = 5 is past the grid's top 20 / n_min = 2, so the search starts
        # at the grid's closing point 2 * a_grid[-1]
        n = np.arange(0, 1001, 10, dtype=float)
        series = AutocorrSeries(n, np.exp(-5.0 * n))
        fit = fit_decay(series)
        assert_matches_reference(fit, self.reference(series))
        assert -fit.r_real > 2.0

    def test_pure_oscillation(self):
        # b > 0 with the decay bracketed in [0, a_floor], the grid's first cell
        n = np.arange(0, 1001, 10, dtype=float)
        series = AutocorrSeries(n, np.cos(0.05 * n))
        fit = fit_decay(series)
        assert_matches_reference(fit, self.reference(series))
        assert fit.r_imag == pytest.approx(0.05, rel=1e-6)
        assert 0.0 <= -fit.r_real < 0.01 / n[-1]

    def test_overflowing_series_has_no_finite_candidate(self):
        # every squared error overflows, so every candidate profiles to inf
        n = np.arange(0, 1001, 10, dtype=float)
        series = AutocorrSeries(n, np.full(n.size, 1e200))
        for fit in (fit_decay, self.reference):
            with np.errstate(over="ignore"), pytest.raises(DecayFitError, match="no candidate"):
                fit(series)


@pytest.fixture(scope="module")
def trial_series():
    """60 series scored like tuning trials, at settings drawn like SearchSpace's."""
    space, rng = SearchSpace(), np.random.default_rng(11)
    series = []
    while len(series) < 60:
        sampler = ("mjhmc", "hmc")[len(series) % 2]
        epsilon, beta, steps = space.draw(rng)
        v0 = rng.standard_normal(2)
        config = SamplerConfig(sampler, epsilon, steps, beta, 400, int(rng.integers(2**32)))
        chain = run_chain(config, RoughWell(), np.zeros(2), v0)
        try:
            series.append(autocorrelation(*unweighted_samples(chain, rng), n_lags=120))
        except DegenerateChainError:
            continue  # a frozen chain has no series to fit
    return series


def test_rough_well_trial_fits_have_nonnegative_rates(trial_series):
    fits = [fit_decay(series) for series in trial_series]
    for fit in fits:
        assert np.isfinite(fit.r_real) and fit.r_real <= 0.0
        assert fit.r_imag >= 0.0


# Reference: the unpruned Newton fit with its b window quartered per round,
# kept verbatim from before the pruned sweep and the Newton refinement of b.
_BATCH_ROWS = 64  # b candidates per lockstep batch; bounds the (rows, n_lags) temporaries
_NEWTON_ITERS = 64  # safety cap: bisection alone reaches the tolerance in about 30


def newton_fit_decay(series: AutocorrSeries, grid_points: int = 60) -> DecayFit:
    """Least-squares fit of Re[exp(r n)] to the autocorrelation series.

    The model with r = -a + ib is exp(-a n) cos(b n).  The decay and
    oscillation rates couple in a curved valley, so the fit profiles the
    decay rate out (variable projection): for any oscillation rate b, the
    best decay rate a(b) is bracketed on a coarse log-spaced grid and then
    found by a safeguarded Newton iteration on the closed-form derivative in
    a, and the 1D profile objective is minimized over b.  Candidate b values
    combine a log-spaced grid with a dense linear sweep (the profile has
    basins of width ~pi/n_max that a log grid alone would skip); the
    winning basin is refined by a re-centered window, quartered each round,
    to relative tolerance 1e-6.  The reported fit is the best candidate ever
    evaluated.

    The Newton iterations of a batch of b candidates run in lockstep on
    arrays, one row per candidate.  Each row starts at its best grid point,
    shrinks its grid bracket by the sign of the derivative, bisects when the
    curvature is not positive or the Newton step leaves the bracket, and
    stops at its own tolerance; the decay rate never leaves the bracket, so
    it is never negative.
    """
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
    # The grid's last point closes the bracket of the one before it: where the
    # profile keeps falling past the grid, the search then starts at the end.
    a_grid = np.append(a_grid, 2.0 * a_grid[-1])
    # Bracket ends of grid point j are a_ends[j] and a_ends[j + 2].
    a_ends = np.concatenate([[0.0], a_grid, a_grid[-1:]])
    decays = np.exp(-np.multiply.outer(a_grid, lags))
    decays_sq = decays * decays
    v_dot_v = values @ values
    # Exceeds the rounding error of an expanded squared error (below) plus
    # that of a direct one: each is at most a few n_lags * eps * (n_lags + v.v).
    slack = 16.0 * lags.size * np.finfo(float).eps * (lags.size + v_dot_v)
    lags_sq = lags * lags

    best = {"a": 0.0, "b": 0.0, "val": np.inf}

    def grid_errors(cos_part: np.ndarray) -> np.ndarray:
        """Squared errors on the a grid against each oscillation cos_part[i].

        Expanded into matrix products as c^2 . d^2 - 2 (c v) . d + v . v, the
        errors preselect the grid points within slack of a row's least error
        (about one per row); only those are summed directly, and the rest are
        inf, so each row's argmin and least error are those of the direct
        sums.  An overflowing v . v leaves a row no point: its direct sums
        overflow too.
        """
        with np.errstate(invalid="ignore"):
            approx = (cos_part * cos_part) @ decays_sq.T
            approx -= 2.0 * ((cos_part * values) @ decays.T)
            approx += v_dot_v
            near_i, near_j = np.nonzero(approx - approx.min(axis=1, keepdims=True) <= slack)
        resid = decays[near_j] * cos_part[near_i]
        resid -= values
        errs = np.full(approx.shape, np.inf)
        errs[near_i, near_j] = np.einsum("ij,ij->i", resid, resid)
        return errs

    def newton_terms(a: np.ndarray, cos_part: np.ndarray) -> tuple:
        """f, f' and f'' in a at decay rates a[i] against the oscillations cos_part[i].

        With m = exp(-a n) cos(b n) and r = m - v:
        f = sum r^2,  f' = -2 sum r n m,  f'' = 2 sum n^2 m (m + r).
        """
        m = np.multiply.outer(-a, lags)
        np.exp(m, out=m)
        m *= cos_part
        r = m - values
        f = np.einsum("ij,ij->i", r, r)
        r *= m
        grad = -2.0 * (r @ lags)
        m *= m
        r += m
        return f, grad, 2.0 * (r @ lags_sq)

    def profile(bs: np.ndarray) -> np.ndarray:
        """The least squared error over a for each b in bs, refining a in its grid bracket."""
        cos_part = np.cos(np.multiply.outer(bs, lags))
        errs = grid_errors(cos_part)
        # An infinite minimum means no finite error.
        j = errs.argmin(axis=1)
        err_j = errs[np.arange(bs.size), j]
        vals = np.full(bs.size, np.inf)
        rows = np.flatnonzero(np.isfinite(err_j))
        if rows.size == 0:
            return vals
        j, err_j, cos_part = j[rows], err_j[rows], cos_part[rows]
        a_j, lo, hi = a_grid[j], a_ends[j], a_ends[j + 2]

        # Safeguarded Newton on f'(a), all rows in lockstep; a row leaves the
        # batch once its step or its bracket is no wider than its tolerance.
        tol = 1e-8 * np.maximum(hi, a_floor)
        a = a_j
        a_out, val = np.empty(rows.size), np.empty(rows.size)
        live = np.arange(rows.size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for it in range(_NEWTON_ITERS):
                f, grad, curv = newton_terms(a, cos_part)
                hi = np.where(grad > 0, a, hi)
                lo = np.where(grad < 0, a, lo)
                step = grad / curv
                newton = a - step
                inside = (curv > 0) & (newton > lo) & (newton < hi)
                a_next = np.where(inside, newton, 0.5 * (lo + hi))
                done = ((curv > 0) & (np.abs(step) <= tol)) | (hi - lo <= tol)
                done |= it + 1 == _NEWTON_ITERS
                a_out[live[done]], val[live[done]] = a[done], f[done]
                if done.all():
                    break
                keep = ~done
                live, a, lo, hi, tol, cos_part = (
                    v[keep] for v in (live, a_next, lo, hi, tol, cos_part)
                )
        on_grid = err_j < val
        a = np.where(on_grid, a_j, a_out)
        val = np.where(on_grid, err_j, val)
        vals[rows] = val

        # The first strict improvement in candidate order, as a sequential scan finds it.
        i = int(np.argmin(np.where(val < best["val"], val, np.inf)))
        if val[i] < best["val"]:
            best.update(a=float(a[i]), b=float(bs[rows[i]]), val=float(val[i]))
        return vals

    b_floor = 0.1 / n_max
    b_coarse = np.concatenate([[0.0], np.geomspace(b_floor, np.pi / n_min, grid_points)])
    b_dense = np.arange(0.0, np.pi / n_min, 0.5 * np.pi / n_max)
    b_grid = np.unique(np.concatenate([b_coarse, b_dense]))
    profile_vals = np.concatenate(
        [profile(b_grid[i:i + _BATCH_ROWS]) for i in range(0, b_grid.size, _BATCH_ROWS)]
    )
    if not np.any(np.isfinite(profile_vals)):
        raise DecayFitError("no candidate produced a finite objective")

    # Refinement of b on the profile: each round's window spans the last
    # round's best point and its two neighbours.  Windows never extend below
    # zero, so the pure-decay boundary stays reachable.
    b = best["b"]
    width = max(float(np.diff(b_grid).max()), b_floor)
    for _ in range(60):
        profile(np.linspace(max(0.0, b - width), b + width, 9))
        b = best["b"]
        width *= 0.25
        if width <= 1e-6 * max(b, b_floor):
            break
    return DecayFit(r_real=-best["a"], r_imag=best["b"], residual=best["val"])


class TestPrunedFitMatchesNewtonFit(TestLockstepFitMatchesScalarFit):
    """The pruned fit agrees with the unpruned Newton fit, on the same cases and on trial series."""

    reference = staticmethod(newton_fit_decay)

    def test_trial_series(self, trial_series):
        for series in trial_series:
            assert_matches_reference(fit_decay(series), newton_fit_decay(series))
