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


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_BATCH_ROWS = 64  # b candidates per lockstep batch; bounds the (rows, n_lags) temporaries


def fit_decay(series: AutocorrSeries, grid_points: int = 60) -> DecayFit:
    """Least-squares fit of Re[exp(r n)] to the autocorrelation series.

    The model with r = -a + ib is exp(-a n) cos(b n).  The decay and
    oscillation rates couple in a curved valley, so the fit profiles the
    decay rate out: for any oscillation rate b, the best decay rate a(b) is
    found by golden-section search (bracketed on a coarse log-spaced grid),
    and the 1D profile objective is then minimized over b.  Candidate b
    values combine a log-spaced grid with a dense linear sweep (the profile
    has basins of width ~pi/n_max that a log grid alone would skip); the
    winning basin is refined by a re-centered shrinking window to relative
    tolerance 1e-6.  The reported fit is the best candidate ever evaluated.

    The golden searches of a batch of b candidates (the grid in blocks,
    then each refinement round) run in lockstep on arrays, one row per
    candidate, each row stopping at its own tolerance; every row takes the
    same floating-point steps as a search of that candidate alone.
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
    decays = np.exp(-np.multiply.outer(a_grid, lags))

    best = {"a": 0.0, "b": 0.0, "val": np.inf}

    def objective(a: np.ndarray, cos_part: np.ndarray) -> np.ndarray:
        """Squared error at decay rate a[i] against the oscillation cos_part[i]."""
        err = np.exp(-a[:, None] * lags)
        err *= cos_part
        err -= values
        err *= err
        return err.sum(axis=1)

    def profile(bs: np.ndarray) -> np.ndarray:
        """min_a objective(a, b) for each b in bs, refining a around its grid bracket."""
        k = bs.size
        cos_part = np.empty((k, lags.size))
        lo, hi, a_j, err_j = np.empty(k), np.empty(k), np.empty(k), np.empty(k)
        vals = np.full(k, np.inf)
        ok = np.zeros(k, dtype=bool)
        for i, b in enumerate(bs):
            cos_part[i] = np.cos(b * lags)
            errs = decays * cos_part[i]
            errs -= values
            errs *= errs
            errs = errs.sum(axis=1)
            # Finite values, decays and cosines leave no NaN in errs, so
            # argmin is nanargmin, and an infinite minimum means no finite error.
            j = int(errs.argmin())
            if not np.isfinite(errs[j]):
                continue
            ok[i] = True
            lo[i] = a_grid[j - 1] if j > 0 else 0.0
            hi[i] = a_grid[j + 1] if j + 1 < a_grid.size else 2.0 * a_grid[-1]
            a_j[i], err_j[i] = a_grid[j], errs[j]
        rows = np.flatnonzero(ok)
        if rows.size == 0:
            return vals
        cos_part, lo, hi, a_j, err_j = cos_part[rows], lo[rows], hi[rows], a_j[rows], err_j[rows]

        # Golden-section search in a, all rows in lockstep; a row leaves the
        # batch once its bracket is no wider than its own tolerance.
        tol = 1e-8 * np.maximum(hi, a_floor)
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        fc, fd = objective(c, cos_part), objective(d, cos_part)
        a, val = np.empty(rows.size), np.empty(rows.size)
        live = np.arange(rows.size)
        while True:
            running = (hi - lo) > tol
            if not running.all():
                stop = ~running
                at_c = fc[stop] < fd[stop]
                a[live[stop]] = np.where(at_c, c[stop], d[stop])
                val[live[stop]] = np.where(at_c, fc[stop], fd[stop])
                if not running.any():
                    break
                live, lo, hi, c, d, fc, fd, tol, cos_part = (
                    v[running] for v in (live, lo, hi, c, d, fc, fd, tol, cos_part)
                )
            left = fc < fd
            hi = np.where(left, d, hi)
            lo = np.where(left, lo, c)
            x = np.where(left, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
            fx = objective(x, cos_part)
            c, d, fc, fd = (
                np.where(left, x, d), np.where(left, c, x),
                np.where(left, fx, fd), np.where(left, fc, fx),
            )
        on_grid = err_j < val
        a = np.where(on_grid, a_j, a)
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

    # Shrinking-window refinement of b on the profile; windows never extend
    # below zero, so the pure-decay boundary stays reachable.
    b = best["b"]
    width = max(float(np.diff(b_grid).max()), b_floor)
    for _ in range(60):
        profile(np.linspace(max(0.0, b - width), b + width, 9))
        b = best["b"]
        width *= 0.5
        if width <= 1e-6 * max(b, b_floor):
            break
    return DecayFit(r_real=-best["a"], r_imag=best["b"], residual=best["val"])


def tuning_objective(fit: DecayFit) -> float:
    """The decay rate itself: more negative means faster mixing."""
    return fit.r_real
