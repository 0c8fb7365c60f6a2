"""Autocorrelation against compute cost, and the decay-rate fit used for tuning.

Mixing speed is proxied by how fast the sample autocorrelation decays as a
function of gradient evaluations (not steps), which makes samplers with
different per-step costs directly comparable.  The decay is summarized by
fitting Re[exp(r n)] with complex r: the real part is the decay rate and
the tuning objective, the imaginary part an oscillation rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DecayFitError, DegenerateChainError


@dataclass(frozen=True)
class AutocorrSeries:
    """Autocorrelation on a grid of gradient-evaluation lags; values[0] is 1."""

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if lags.shape != values.shape or lags.ndim != 1:
            raise ValueError("lags and values must be vectors of equal length")
        if lags[0] != 0 or np.any(np.diff(lags) <= 0):
            raise ValueError("lags must increase strictly from 0")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class DecayFit:
    """Fitted complex rate: decay (real, <= 0) and oscillation (imaginary, >= 0)."""

    r_real: float
    r_imag: float
    residual: float


def _acf_fft(y: np.ndarray) -> np.ndarray:
    """Biased autocorrelation of a centered series via FFT, normalized to 1 at lag 0."""
    n = y.size
    size = 1 << int(np.ceil(np.log2(2 * n - 1)))
    f = np.fft.rfft(y, n=size)
    acov = np.fft.irfft(f * np.conj(f), n=size)[:n]
    return acov / acov[0]


def autocorrelation(
    positions: np.ndarray,
    gradient_evals: np.ndarray,
    max_lag_evals: Optional[float] = None,
    n_lags: int = 200,
) -> AutocorrSeries:
    """Dimension-averaged autocorrelation on a uniform gradient-evaluation grid.

    Parameters
    ----------
    positions : array, shape (n,) or (n, dim)
        Chain positions.  For the jump sampler pass the holding-time
        resampled positions so the samples are unweighted.
    gradient_evals : array, shape (n,)
        Cumulative gradient evaluations at each sample; must be
        nondecreasing.
    max_lag_evals : float, optional
        Largest lag of the grid; defaults to 10% of the total gradient
        evaluations spanned by the chain.
    n_lags : int
        Number of grid points, including lag 0.

    Each grid lag is mapped to the sample offset whose cumulative cost is
    nearest, so the series is defined even when per-step costs vary.
    """
    x = np.asarray(positions, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < 10:
        raise ValueError("need a chain of at least 10 samples")
    evals = np.asarray(gradient_evals, dtype=float)
    if evals.shape != (n,):
        raise ValueError("gradient_evals must have one entry per sample")
    if np.any(np.diff(evals) < 0):
        raise ValueError("gradient_evals must be nondecreasing")
    if n_lags < 2:
        raise ValueError("need at least two lags")

    centered = x - x.mean(axis=0)
    variances = np.mean(centered**2, axis=0)
    if np.any(variances <= 0) or not np.all(np.isfinite(variances)):
        raise DegenerateChainError("chain has a zero-variance dimension")
    rho = np.mean([_acf_fft(centered[:, d]) for d in range(x.shape[1])], axis=0)

    rel = evals - evals[0]
    if max_lag_evals is None:
        max_lag_evals = 0.10 * rel[-1]
    if max_lag_evals <= 0:
        raise ValueError("max_lag_evals must be positive")
    grid = np.linspace(0.0, float(max_lag_evals), n_lags)

    # Nearest-sample lookup: the step offset whose cost displacement best
    # matches each grid lag.
    pos = np.searchsorted(rel, grid)
    pos = np.clip(pos, 1, n - 1)
    use_left = (grid - rel[pos - 1]) <= (rel[pos] - grid)
    idx = np.where(use_left, pos - 1, pos)
    idx[0] = 0
    return AutocorrSeries(lags=grid, values=rho[idx])


_BATCH_ROWS = 64  # b candidates per lockstep batch; bounds the (rows, n_lags) temporaries
_NEWTON_ITERS = 64  # safety cap: bisection alone reaches the tolerance in about 30


def fit_decay(series: AutocorrSeries, grid_points: int = 60) -> DecayFit:
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


def tuning_objective(fit: DecayFit) -> float:
    """The decay rate itself: more negative means faster mixing."""
    return fit.r_real
