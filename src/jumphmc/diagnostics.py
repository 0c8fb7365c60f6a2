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

MIN_SAMPLES = 10  # shortest chain autocorrelation accepts
MIN_FIT_LAGS = 4  # fewest lags fit_decay accepts


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
        Number of grid points, including lag 0; at least ``MIN_FIT_LAGS``.

    Each grid lag is mapped to the sample offset whose cumulative cost is
    nearest, so the series is defined even when per-step costs vary.
    Raises DecayFitError when the lags reach fewer than ``MIN_FIT_LAGS``
    distinct samples: a fit would score such a series as never decaying.
    Its message says whether the window is too short or too long.
    """
    x = np.asarray(positions, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < MIN_SAMPLES:
        raise ValueError(f"need a chain of at least {MIN_SAMPLES} samples")
    evals = np.asarray(gradient_evals, dtype=float)
    if evals.shape != (n,):
        raise ValueError("gradient_evals must have one entry per sample")
    if np.any(np.diff(evals) < 0):
        raise ValueError("gradient_evals must be nondecreasing")
    if n_lags < MIN_FIT_LAGS:
        raise ValueError(f"need at least {MIN_FIT_LAGS} lags")

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
    if np.count_nonzero(np.diff(idx)) + 1 < MIN_FIT_LAGS:  # idx is nondecreasing
        reached = ("every lag maps to the first sample" if rel[idx[-1]] == 0
                   else f"the lags reach fewer than {MIN_FIT_LAGS} samples")
        cause = ("too long, and every lag past the chain's span maps to its last sample"
                 if grid[-1] > rel[-1] > 0 else "too short")
        raise DecayFitError(f"{reached}: max_lag_evals is {cause}")
    return AutocorrSeries(lags=grid, values=rho[idx])


_BATCH_ROWS = 64  # b candidates per lockstep batch; bounds the (rows, n_lags) temporaries
_NEWTON_ITERS = 64  # safety cap: bisection alone reaches the tolerance in about 30
_GRID_POINTS = 60  # log-spaced points of the coarse grids in a and in b


def _safeguarded_newton(terms, x, lo, hi, tol):
    """Minimize one function per row in lockstep, each inside its bracket [lo, hi].

    ``terms(x, live)`` returns f, f' and f'' at x[i] for the rows live[i].  A
    row shrinks its bracket by the sign of f', bisects when the curvature is
    not positive or the Newton step leaves the bracket, and stops once its
    step or its bracket is no wider than its tolerance.  x never leaves the
    bracket.  Returns each row's last x and its f.
    """
    x_out, f_out = np.empty(x.size), np.empty(x.size)
    live = np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(_NEWTON_ITERS):
            f, grad, curv = terms(x, live)
            hi = np.where(grad > 0, x, hi)
            lo = np.where(grad < 0, x, lo)
            step = grad / curv
            newton = x - step
            inside = (curv > 0) & (newton > lo) & (newton < hi)
            x_next = np.where(inside, newton, 0.5 * (lo + hi))
            done = ((curv > 0) & (np.abs(step) <= tol)) | (hi - lo <= tol)
            done |= it + 1 == _NEWTON_ITERS
            x_out[live[done]], f_out[live[done]] = x[done], f[done]
            if done.all():
                break
            keep = ~done
            live, x, lo, hi, tol = (v[keep] for v in (live, x_next, lo, hi, tol))
    return x_out, f_out


def _band_bound(values: np.ndarray, edge_1: np.ndarray, edge_2: np.ndarray) -> np.ndarray:
    """Squared distance of the series from the band between two model edges, per row.

    Wherever the model lies between edge_1[i, n] and edge_2[i, n] at every
    lag n, its squared error against ``values`` is at least bound[i].
    """
    with np.errstate(over="ignore"):
        gap = np.clip(values, np.minimum(edge_1, edge_2), np.maximum(edge_1, edge_2))
        gap -= values
        return np.einsum("ij,ij->i", gap, gap)


def _may_win(bound: np.ndarray, known: float, slack: float) -> np.ndarray:
    """Rows whose bound does not rule out beating ``known``; a NaN bound keeps its row."""
    return ~(bound > known + slack)


def fit_decay(series: AutocorrSeries) -> DecayFit:
    """Least-squares fit of Re[exp(r n)] to the autocorrelation series.

    The model with r = -a + ib is exp(-a n) cos(b n).  The decay and
    oscillation rates couple in a curved valley, so the fit profiles the
    decay rate out (variable projection): for any oscillation rate b, the
    best decay rate a(b) is bracketed on a coarse log-spaced grid and then
    found by a safeguarded Newton iteration on the closed-form derivative in
    a, and the 1D profile p(b) = min_a f(a, b) is minimized over b.
    Candidate b values combine a log-spaced grid with a dense linear sweep
    (the profile has basins of width ~pi/n_max that a log grid alone would
    skip).  The sweep's winner is refined by a safeguarded Newton iteration
    on p(b) inside a window of one sweep spacing either side.  Each step
    solves a(b) by Newton from the last a, and takes p' and p'' from the
    quadratic model of f in (a, b) with a eliminated:
    p' = f_b - f_ab f_a / f_aa and p'' = f_bb - f_ab^2 / f_aa, or f_b and
    f_bb where the model's a lies outside the grid's range.  The reported
    fit is the best candidate ever evaluated.

    The sweep skips every candidate that provably cannot beat the least
    error already known, with two bounds.  For a >= 0 the model lies
    between 0 and cos(b n), and for a in a grid bracket [lo, hi] between
    cos(b n) exp(-hi n) and cos(b n) exp(-lo n); the squared distance of
    the series from such a band is at most the squared error.  A candidate
    is skipped only when its bound exceeds the known error by more than
    rounding, so the sweep's winner is the one a full sweep finds.  The
    Newton iterations of the remaining candidates run in lockstep on
    arrays, one row per candidate, each starting at its best grid point.
    Neither rate is ever negative.
    """
    lags = series.lags
    values = series.values
    if lags.size < MIN_FIT_LAGS:
        raise ValueError(f"need at least {MIN_FIT_LAGS} lags to fit")
    if not np.all(np.isfinite(values)):
        raise DecayFitError("autocorrelation series contains non-finite values")
    n_max = lags[-1]
    n_min = np.min(lags[1:])
    a_floor = 0.01 / n_max
    a_grid = np.concatenate([[0.0], np.geomspace(a_floor, 20.0 / n_min, _GRID_POINTS)])
    # The grid's last point closes the bracket of the one before it: where the
    # profile keeps falling past the grid, the search then starts at the end.
    a_grid = np.append(a_grid, 2.0 * a_grid[-1])
    decays = np.exp(-np.multiply.outer(a_grid, lags))
    decays_sq = decays * decays
    v_dot_v = values @ values
    # Exceeds the rounding error of an expanded squared error (below) plus
    # that of a direct one: each is at most a few n_lags * eps * (n_lags + v.v).
    # A bound counts only when it exceeds the least known error by more.
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

    def profile(bs: np.ndarray, cos_part: np.ndarray) -> None:
        """Offer each b in bs as a candidate, with its least squared error over a.

        ``cos_part[i]`` is cos(bs[i] n), computed once by the first bound.
        """
        errs = grid_errors(cos_part)
        # An infinite minimum means no finite error.
        j = errs.argmin(axis=1)
        err_j = errs[np.arange(bs.size), j]
        j_lo, j_hi = np.maximum(j - 1, 0), np.minimum(j + 1, a_grid.size - 1)
        edge_hi, edge_lo = decays[j_hi], decays[j_lo]
        edge_hi *= cos_part
        edge_lo *= cos_part
        bound = _band_bound(values, edge_hi, edge_lo)
        known = min(best["val"], err_j.min())
        rows = np.flatnonzero(np.isfinite(err_j) & _may_win(bound, known, slack))
        if rows.size == 0:
            return
        j, err_j, cos_part = j[rows], err_j[rows], cos_part[rows]
        a_j, lo, hi = a_grid[j], a_grid[j_lo[rows]], a_grid[j_hi[rows]]
        a, val = _safeguarded_newton(
            lambda a, live: newton_terms(a, cos_part[live]),
            a_j, lo, hi, 1e-8 * np.maximum(hi, a_floor),
        )
        on_grid = err_j < val
        a = np.where(on_grid, a_j, a)
        val = np.where(on_grid, err_j, val)

        # The first strict improvement in candidate order, as a sequential scan finds it.
        i = int(np.argmin(np.where(val < best["val"], val, np.inf)))
        if val[i] < best["val"]:
            best.update(a=float(a[i]), b=float(bs[rows[i]]), val=float(val[i]))

    b_floor = 0.1 / n_max
    b_coarse = np.concatenate([[0.0], np.geomspace(b_floor, np.pi / n_min, _GRID_POINTS)])
    b_dense = np.arange(0.0, np.pi / n_min, 0.5 * np.pi / n_max)
    b_grid = np.unique(np.concatenate([b_coarse, b_dense]))
    # The first bound needs no a: it drops a candidate whose band from 0 to
    # cos(b n) lies farther from the series than the best b = 0 grid point.
    pure_decay = grid_errors(np.ones((1, lags.size))).min()
    b_kept, cos_kept = [], []
    for i in range(0, b_grid.size, _BATCH_ROWS):
        bs = b_grid[i:i + _BATCH_ROWS]
        cos_part = np.cos(np.multiply.outer(bs, lags))
        keep = (bs == 0.0) | _may_win(_band_bound(values, 0.0, cos_part), pure_decay, slack)
        b_kept.append(bs[keep])
        cos_kept.append(cos_part[keep])
    b_kept, cos_kept = np.concatenate(b_kept), np.concatenate(cos_kept)
    for i in range(0, b_kept.size, _BATCH_ROWS):
        profile(b_kept[i:i + _BATCH_ROWS], cos_kept[i:i + _BATCH_ROWS])
    if not np.isfinite(best["val"]):
        raise DecayFitError("no candidate produced a finite objective")

    # Refinement: safeguarded Newton on the profile p(b) within one sweep
    # spacing of the winner.  The window never extends below zero, so the
    # pure-decay boundary stays reachable; a stays in the grid's range.
    b0 = best["b"]
    width = max(float(np.diff(b_grid).max()), b_floor)
    a_last = np.array([best["a"]])
    a_tol = np.array([1e-8 * max(best["a"], a_floor)])

    def profile_terms(b: np.ndarray, live: np.ndarray) -> tuple:
        """p, p' and p'' at the one candidate b[0]; each point evaluated is offered as a fit."""
        cos_b = np.cos(b[0] * lags)
        a, _ = _safeguarded_newton(
            lambda a, live: newton_terms(a, cos_b), a_last, np.zeros(1), a_grid[-1:], a_tol
        )
        a_last[:] = a
        decay = np.exp(-a[0] * lags)
        m = decay * cos_b
        r = m - values
        m_b = -lags * decay * np.sin(b[0] * lags)  # d m / d b;  d m / d a = -n m
        f = r @ r
        f_a = -2.0 * ((lags * m) @ r)
        f_aa = 2.0 * ((lags_sq * m) @ (m + r))
        f_ab = -2.0 * ((lags * m_b) @ (m + r))
        f_b = 2.0 * (r @ m_b)
        f_bb = 2.0 * (m_b @ m_b - (lags_sq * m) @ r)
        if f < best["val"]:
            best.update(a=float(a[0]), b=float(b[0]), val=float(f))
        # Eliminate a from the local quadratic model, unless its minimum in a
        # lies outside the range, where a(b) stays at the edge.
        if f_aa > 0 and 0.0 <= a[0] - f_a / f_aa <= a_grid[-1]:
            f_b -= f_ab * f_a / f_aa
            f_bb -= f_ab * f_ab / f_aa
        return np.array([f]), np.array([f_b]), np.array([f_bb])

    _safeguarded_newton(
        profile_terms, np.array([b0]), np.array([max(0.0, b0 - width)]), np.array([b0 + width]),
        np.array([1e-8 * max(b0, b_floor)]),
    )
    return DecayFit(r_real=-best["a"], r_imag=best["b"], residual=best["val"])


def tuning_objective(fit: DecayFit) -> float:
    """The decay rate itself: more negative means faster mixing."""
    return fit.r_real
