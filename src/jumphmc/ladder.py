"""Finite ring state-ladders and their spectral analysis.

A ladder is a ring of k rungs, one total-energy value per rung, visited by
the leapfrog and flip operators.  Each rung carries an ascending and a
descending state (2k states total): leapfrog moves ascending states up the
ring and descending states down, flip swaps the two sides of a rung.  On a
single ladder momentum randomization never fires (it moves the particle to
a different ladder), so the jump process has at most two outgoing arms per
state.

The continuous-time rate matrix, its embedded discrete-time chain, the
holding-time scaling between them, and the invariant checks (``worst_*``)
live here, together with the randomized spectral-gap experiment comparing
the jump process against the discrete-time control chain.  Its draws are
independent, so it runs them through ``forkmap.map_ordered``, one process
per CPU the process may use, with results bit-identical to a serial run.

Both ladder chains in closed form.  Every state has two exits.  alpha_r
is the probability that the ascending state a_r moves up to a_{r+1} (else
it flips to d_r), delta_r that the descending state d_r moves down to
d_{r-1} (else it flips to a_r).  The control accepts L by Metropolis,
alpha_r = exp(-max(0, E_{r+1} - E_r)) and delta_r = exp(-max(0, E_{r-1} - E_r)).
In the jump process a_r leapfrogs at rate p = exp(-(E_{r+1} - E_r)/2) and
flips at max(0, q - p), q = exp(-(E_{r-1} - E_r)/2) being d_r's L rate, so
alpha_r = p / max(p, q) = min(1, p / q) = exp(-max(0, D_r)) and likewise
delta_r = exp(-max(0, -D_r)), with D_r = (E_{r+1} - E_{r-1}) / 2: Metropolis
on half the two-rung energy difference.  No exponent is positive, so
neither form overflows where the rates do.  ``ladder_chain`` and the ring
search read these numbers; ``embedded_chain(build_mjhmc_rate_matrix(.))``
stays as the independent check.

Spectral gaps from the ring's transfer matrix.  A left eigenvector u with
eigenvalue lambda satisfies

    lambda u_a(r) = alpha_r u_a(r+1) + (1 - alpha_r) u_d(r)
    lambda u_d(r) = delta_r u_d(r-1) + (1 - delta_r) u_a(r).

Solving the first for u_a(r+1) and the second, at r+1, for u_d(r+1) gives
w_{r+1} = M_r(lambda) w_r for w_r = (u_a(r), u_d(r)), with

    M_r = (1 / alpha_r) [[lambda, alpha_r - 1],
                         [1 - delta_{r+1}, (alpha_r + delta_{r+1} - 1) / lambda]]

and det M_r = delta_{r+1} / alpha_r.  Around the ring w_k = w_0, so lambda
is an eigenvalue exactly when P(lambda) = M_{k-1} ... M_0 has eigenvalue
1, that is when phi(lambda) = det(P - I) = det P - tr P + 1 vanishes.
det P is the scalar prod delta_{r+1} / alpha_r (it telescopes to 1 for
both chains), and lambda^k phi(lambda) is the characteristic polynomial
of the 2k x 2k chain up to a constant factor.  So phi costs O(k) per point
instead of an O(k^3) eigensolve.  ``certified_ring_gap`` brackets the real
roots next to -1 and +1, refines the outermost one, and accepts it as
lambda_2 only when the argument principle on a circle just inside it
counts exactly two roots outside (lambda = 1 and lambda_2).  phi has real
coefficients, so the upper semicircle suffices: the number of roots
outside |z| = R is k - (change of arg phi) / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateLadderError
from .forkmap import map_ordered
from .jump import check_count


@dataclass(frozen=True)
class Ladder:
    """A ring of k rungs with one total-energy value per rung."""

    energies: np.ndarray

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.energies, dtype=float))
        if e.ndim != 1 or e.size < 3:
            raise ValueError("a ladder needs at least 3 rungs")
        if not np.all(np.isfinite(e)):
            raise ValueError("rung energies must be finite")
        object.__setattr__(self, "energies", e)

    @property
    def k(self) -> int:
        return self.energies.size


def _leapfrog_rates(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jump-process L rates from each rung up to r+1 and down to r-1."""
    up_rate = np.exp(-0.5 * (np.roll(e, -1) - e))  # ascending L, also descending L-inverse
    dn_rate = np.exp(-0.5 * (np.roll(e, 1) - e))  # descending L, also ascending L-inverse
    return up_rate, dn_rate


def build_mjhmc_rate_matrix(ladder: Ladder) -> np.ndarray:
    """Continuous-time rate matrix of the jump process on a single ladder.

    Entry (i, j) is the rate of j -> i transitions; each diagonal entry
    closes its column to zero sum.  Rates follow the square-rooted density
    ratios: the leapfrog rate from a rung at energy E to its successor at
    E' is exp(-(E' - E)/2), and the flip rate is the positive part of the
    backward leapfrog rate minus the forward one, so at most one side of
    each rung pair carries a nonzero flip rate.  A rung-to-rung energy
    drop above about 1419 overflows a rate and raises ``ValueError``;
    ``ladder_chain`` has the embedded chain without rates.
    """
    k = ladder.k
    with np.errstate(over="ignore"):
        up_rate, dn_rate = _leapfrog_rates(ladder.energies)
    if not (np.all(np.isfinite(up_rate)) and np.all(np.isfinite(dn_rate))):
        raise ValueError("a leapfrog rate overflows: a rung-to-rung energy drop exceeds about 1419")
    flip_asc = np.maximum(0.0, dn_rate - up_rate)
    flip_desc = np.maximum(0.0, up_rate - dn_rate)

    n = 2 * k
    rates = np.zeros((n, n))
    r = np.arange(k)
    asc = r
    desc = k + r
    rates[(r + 1) % k, asc] = up_rate
    rates[desc, asc] = flip_asc
    rates[k + (r - 1) % k, desc] = dn_rate
    rates[asc, desc] = flip_desc
    np.fill_diagonal(rates, -rates.sum(axis=0))
    return rates


def _exit_probabilities(ladder: Ladder, sampler: str) -> tuple[np.ndarray, np.ndarray]:
    """The L probabilities of one ladder chain, one pair per rung, in O(k).

    ``alpha[r]`` is the probability that the ascending state of rung r
    leapfrogs up to rung r+1 and ``delta[r]`` that the descending state
    leapfrogs down to rung r-1; each state's other exit is its flip.
    ``sampler`` is "mjhmc" (the jump process's embedded chain) or "hmc"
    (the control chain).  These are the closed forms of the module
    docstring: no exponent is positive, so nothing overflows.
    """
    e = ladder.energies
    rise_up, rise_down = np.roll(e, -1) - e, np.roll(e, 1) - e
    if sampler == "mjhmc":
        half = 0.5 * (rise_up - rise_down)  # D_r, rounded as the rates' exponents are
        return np.exp(-np.maximum(0.0, half)), np.exp(-np.maximum(0.0, -half))
    if sampler == "hmc":
        return np.exp(-np.maximum(0.0, rise_up)), np.exp(-np.maximum(0.0, rise_down))
    raise ValueError("sampler must be 'mjhmc' or 'hmc'")


def ladder_chain(ladder: Ladder, sampler: str) -> np.ndarray:
    """Column-stochastic 2k x 2k matrix of one ladder chain ("mjhmc" or "hmc").

    Entry (i, j) is the probability of a j -> i move.  Ascending states
    occupy 0..k-1 and descending states k..2k-1; each leapfrogs with its
    ``_exit_probabilities`` entry and flips to its rung partner otherwise.
    """
    k = ladder.k
    alpha, delta = _exit_probabilities(ladder, sampler)
    chain = np.zeros((2 * k, 2 * k))
    r = np.arange(k)
    chain[(r + 1) % k, r] = alpha
    chain[k + r, r] = 1.0 - alpha
    chain[k + (r - 1) % k, k + r] = delta
    chain[r, k + r] = 1.0 - delta
    return chain


def _embedded(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(embedded_chain(rates), holding_time_diag(rates))`` from one split of
    ``rates`` into its off-diagonal part and each state's total outgoing rate;
    raises if a state has none."""
    off = rates.copy()
    np.fill_diagonal(off, 0.0)
    totals = off.sum(axis=0)
    if np.any(totals <= 0):
        raise DegenerateLadderError("a state has no outgoing transitions")
    return off / totals, 1.0 / totals


def embedded_chain(rates: np.ndarray) -> np.ndarray:
    """Discrete-time chain over visited states, ignoring holding times.

    For competing exponential clocks the probability that the j -> i clock
    rings first is its rate over the total outgoing rate, so
    T[i, j] = rate(i, j) / total(j) with a zero diagonal (no
    self-transitions).
    """
    return _embedded(rates)[0]


def holding_time_diag(rates: np.ndarray) -> np.ndarray:
    """Expected holding time of each state: one over its total outgoing rate."""
    return _embedded(rates)[1]


def spectral_gap(chain: np.ndarray) -> float:
    """Difference in magnitude of the two largest eigenvalues.

    Larger gap means faster mixing.  The input must be column-stochastic;
    eigenvalues are computed with a dense general solver since the matrices
    here are small and non-symmetric.
    """
    chain = np.asarray(chain, dtype=float)
    if chain.ndim != 2 or chain.shape[0] != chain.shape[1]:
        raise ValueError("chain must be a square matrix")
    if np.any(chain < -1e-12) or np.any(chain > 1 + 1e-12):
        raise ValueError("chain entries must lie in [0, 1]")
    if not np.allclose(chain.sum(axis=0), 1.0, atol=1e-9):
        raise ValueError("chain columns must sum to 1")
    mags = np.sort(np.abs(np.linalg.eigvals(chain)))[::-1]
    return float(mags[0] - mags[1])


def similarity_check(rates: np.ndarray) -> float:
    """``spectral_distance`` between the spectra of the embedded chain and of
    its holding-time-scaled sibling.

    The sample-evolution chain D T D^-1 is similar to the embedded chain T,
    so the two spectra must agree as multisets: the distance is rounding noise.
    """
    t_hat, d = _embedded(rates)
    t_scaled = (d[:, None] * t_hat) / d[None, :]
    return spectral_distance(np.linalg.eigvals(t_hat), np.linalg.eigvals(t_scaled))


def spectral_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Multiset distance between two spectra: worst greedy nearest-match gap.

    Sorting complex eigenvalues is unstable when real parts nearly tie (a
    conjugate pair can swap order between the two spectra), so entries are
    matched greedily by distance instead.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("spectra must have equal length")
    unmatched = np.ones(b.size, dtype=bool)
    # Match the entries of largest magnitude first: they are the ones the
    # spectral gap depends on.
    worst = 0.0
    for x in sorted(a, key=abs, reverse=True):
        dist = np.abs(b - x)
        dist[~unmatched] = np.inf
        j = int(np.argmin(dist))
        worst = max(worst, float(dist[j]))
        unmatched[j] = False
    return worst


def ladder_stationary(ladder: Ladder) -> np.ndarray:
    """Unnormalized target probabilities of the 2k states.

    Both sides of a rung share the rung's total energy, hence the same
    probability.  Energies are shifted by their minimum before
    exponentiating; every consumer is scale-invariant.
    """
    pi_rung = np.exp(-(ladder.energies - ladder.energies.min()))
    return np.concatenate([pi_rung, pi_rung])


def balance_check(rates: np.ndarray, ladder: Ladder) -> float:
    """Max residual of (rates @ pi) relative to max pi; zero when balanced.

    The jump-process rates are built so that probability inflow and outflow
    cancel exactly at the target distribution, so on an exact rate matrix
    this residual is pure floating-point noise.
    """
    pi = ladder_stationary(ladder)
    return float(np.max(np.abs(rates @ pi)) / pi.max())


def embedded_fixed_point_check(rates: np.ndarray, ladder: Ladder) -> float:
    """Residual of the embedded chain's fixed point.

    The embedded chain's stationary distribution is the target scaled by
    inverse holding times; returns max |T p - p| / max p for that p.
    """
    t_hat, d = _embedded(rates)
    p_hat = ladder_stationary(ladder) / d
    return float(np.max(np.abs(t_hat @ p_hat - p_hat)) / p_hat.max())


def worst_balance(rng: np.random.Generator, count: int, fault: float = 0.0) -> tuple[float, float]:
    """Worst ``balance_check`` and ``embedded_fixed_point_check`` over ``count`` ladders of
    4..128 rungs drawn from ``rng``.  ``fault`` is moved from the first matrix's diagonal
    to its 0 -> 1 rate, an error that both checks must catch."""
    balance = fixed = 0.0
    for i in range(count):
        ladder = _draw_ladder(int(rng.integers(4, 129)), rng)
        rates = build_mjhmc_rate_matrix(ladder)
        if i == 0:
            rates[1, 0] += fault
            rates[0, 0] -= fault
        balance = max(balance, balance_check(rates, ladder))
        fixed = max(fixed, embedded_fixed_point_check(rates, ladder))
    return balance, fixed


def worst_similarity(rng: np.random.Generator, count: int) -> float:
    """Worst ``similarity_check`` over ``count`` ladders drawn as in ``worst_balance``."""
    ladders = (_draw_ladder(int(rng.integers(4, 129)), rng) for _ in range(count))
    return max((similarity_check(build_mjhmc_rate_matrix(lad)) for lad in ladders), default=0.0)


# Below this many rungs one dense eigensolve is faster than the ring search.
# Medians over the 500 matrices per size of seed 404, 1 BLAS thread, 2-core
# VM: dense 2.2 ms against ring 4.2 ms at k=33; 10.0 ms against 7.3 ms at 65.
RING_GAP_MIN_K = 48


def ladder_spectral_gap(ladder: Ladder, sampler: str) -> float:
    """Spectral gap of one ladder chain ("mjhmc" or "hmc").

    From ``RING_GAP_MIN_K`` rungs on this is the certified transfer-matrix
    gap of ``certified_ring_gap``; below that, or whenever the certificate
    fails, it is ``spectral_gap`` of the dense ``ladder_chain``.
    """
    if ladder.k >= RING_GAP_MIN_K:
        gap = certified_ring_gap(ladder, sampler)
        if gap is not None:
            return gap
    return spectral_gap(ladder_chain(ladder, sampler))


# Real-axis search grids, in 1 + lambda and 1 - lambda.  Within about 1e-10
# of the trivial root lambda = 1 the characteristic function is rounding
# noise, so the grid near +1 starts further out.
_GRID_POINTS = 200
_NEAR_MINUS_ONE = -1.0 + np.geomspace(1e-12, 0.5, _GRID_POINTS)
_NEAR_PLUS_ONE = 1.0 - np.geomspace(1e-8, 0.5, _GRID_POINTS)
_ROOT_WIDTH = 1e-13  # bracket width at which a real root counts as found
_PHASE_STEP = np.pi / 4  # largest phase change allowed between mesh points
_MESH_PASSES = 8
_MESH_POINTS_PER_RUNG = 64  # mesh size past which a refinement is refused


class _RingTransfer:
    """The characteristic function of a ladder chain as a ring of 2x2 matrices.

    ``phi(z)`` returns det(P(z) - I) times a positive number that depends on
    z, so its sign on the real axis and its phase on a circle are those of
    det(P - I); see the module docstring for the derivation.
    """

    def __init__(self, alpha: np.ndarray, delta: np.ndarray):
        delta_next = np.roll(delta, -1)
        # M_r = N_r / alpha_r with N_r = [[z, b_r], [c_r, d_r / z]], as float
        # lists: the rung loops read one entry at a time
        self.b = (alpha - 1.0).tolist()
        self.c = (1.0 - delta_next).tolist()
        self.d = (alpha + delta_next - 1.0).tolist()
        log_alpha = float(np.sum(np.log(alpha)))
        self.log_norm = -log_alpha  # log of prod 1 / alpha_r
        # det P = prod delta_{r+1} / alpha_r, as a scalar: from the rescaled
        # product entries it would cancel catastrophically
        self.one_plus_det = 1.0 + math.exp(float(np.sum(np.log(delta))) - log_alpha)
        self.k = alpha.size

    def phi(self, z: np.ndarray, rate: bool = False):
        """Scaled det(P - I) at every point of ``z``; with ``rate``, also the
        phase derivative d arg(phi) / d theta at z = |z| exp(i theta).

        One rung loop over point vectors: the working set is O(len(z)).  The
        product is renormalised every 32 rungs and the scale kept as a log.
        """
        n = z.size
        zi = 1.0 / z
        # rows of [P | dP/dz]: top = (P00, P01, D00, D01), bottom = (P10, P11, D10, D11)
        width = 4 if rate else 2
        top = np.zeros((width, n), dtype=z.dtype)
        bottom = np.zeros((width, n), dtype=z.dtype)
        top[0] = 1.0
        bottom[1] = 1.0
        log_scale = np.full(n, self.log_norm)
        for r, (b, c, d) in enumerate(zip(self.b, self.c, self.d)):
            dz = d * zi
            new_top = z * top + b * bottom
            new_bottom = c * top + dz * bottom
            if rate:  # d/dz of N_r = [[z, b], [c, d/z]] is [[1, 0], [0, -d/z^2]]
                new_top[2:] += top[:2]
                new_bottom[2:] -= (dz * zi) * bottom[:2]
            top, bottom = new_top, new_bottom
            if r % 32 == 31:
                s = np.maximum(np.abs(top[:2]).max(axis=0), np.abs(bottom[:2]).max(axis=0))
                top /= s
                bottom /= s
                log_scale += np.log(s)
        value = self.one_plus_det * np.exp(-log_scale) - (top[0] + bottom[1])
        if not rate:
            return value
        # phi'/phi = -tr(dP/dz) / value, and d arg phi / d theta = Re(z phi'/phi)
        return value, np.real(-z * (top[2] + bottom[3]) / value)

    def phi_float(self, x: float) -> float:
        """``phi`` at one real point, with the same arithmetic and scaling, for
        the root search: on Python floats a k=201 evaluation takes about a
        twentieth of the time of a one-point array call."""
        p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
        xi = 1.0 / x
        log_scale = self.log_norm
        for r, (b, c, d) in enumerate(zip(self.b, self.c, self.d)):
            dz = d * xi
            p00, p10 = x * p00 + b * p10, c * p00 + dz * p10
            p01, p11 = x * p01 + b * p11, c * p01 + dz * p11
            if r % 32 == 31:
                s = max(abs(p00), abs(p01), abs(p10), abs(p11))
                p00, p01, p10, p11 = p00 / s, p01 / s, p10 / s, p11 / s
                log_scale += math.log(s)
        return self.one_plus_det * math.exp(-log_scale) - (p00 + p11)

    def brackets(self, *grids: np.ndarray) -> list[tuple[float, float, float, float]]:
        """(lo, hi, phi(lo), phi(hi)) of the first two sign changes along each grid."""
        values = self.phi(np.concatenate(grids))
        found = []
        start = 0
        for grid in grids:
            x, f = grid, values[start:start + grid.size]
            start += grid.size
            for j in np.nonzero(np.signbit(f[1:]) != np.signbit(f[:-1]))[0][:2]:
                i, h = (j, j + 1) if x[j] < x[j + 1] else (j + 1, j)
                found.append((float(x[i]), float(x[h]), float(f[i]), float(f[h])))
        return found

    def root(self, lo: float, hi: float, f_lo: float, f_hi: float) -> Optional[float]:
        """A real root in a sign-change bracket, narrowed to ``_ROOT_WIDTH``.

        Anderson-Bjorck regula falsi on ``phi_float``; None if it stalls.
        """
        for _ in range(100):
            if hi - lo <= _ROOT_WIDTH:
                return 0.5 * (lo + hi)
            x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            fx = self.phi_float(x)
            if fx == 0.0:
                return x
            if (fx > 0.0) == (f_lo > 0.0):
                m = 1.0 - fx / f_lo
                f_hi *= m if m > 0.0 else 0.5
                lo, f_lo = x, fx
            else:
                m = 1.0 - fx / f_hi
                f_lo *= m if m > 0.0 else 0.5
                hi, f_hi = x, fx
        return None

    def roots_outside(self, radius: float) -> Optional[int]:
        """Number of eigenvalues of modulus above ``radius``, or None if not certified.

        The argument principle on the upper semicircle z = radius exp(i theta):
        phi has real coefficients, so the count is k - (change of arg phi) / pi.
        The mesh is uniform plus geometric toward theta = 0 and pi, where the
        eigenvalues cluster, and is refined until every phase step, and every
        step that the phase derivative at either end predicts, is below
        ``_PHASE_STEP``.  A value that is not finite, or a mesh still too
        coarse after ``_MESH_PASSES`` refinements or at
        ``_MESH_POINTS_PER_RUNG`` points per rung, fails.
        """
        k = self.k
        ends = np.geomspace(0.125 * (1.0 - radius), 0.5 * np.pi, 160)
        theta = np.unique(np.concatenate([np.linspace(0.0, np.pi, 2 * k + 1), ends, np.pi - ends]))
        z = radius * np.exp(1j * theta)
        z[0], z[-1] = radius, -radius
        value, rate = self.phi(z, rate=True)
        for refinements in range(_MESH_PASSES + 1):
            if not (np.all(np.isfinite(value)) and np.all(np.isfinite(rate))):
                return None
            step = np.angle(value[1:] / value[:-1])
            h = np.diff(theta)
            need = np.maximum(np.abs(step), h * np.maximum(np.abs(rate[1:]), np.abs(rate[:-1])))
            coarse = np.nonzero(need > _PHASE_STEP)[0]
            if coarse.size == 0:
                count = k - float(np.sum(step)) / np.pi
                return round(count) if abs(count - round(count)) < 1e-6 else None
            if refinements == _MESH_PASSES or theta.size > _MESH_POINTS_PER_RUNG * k:
                return None
            pieces = np.minimum(np.ceil(need[coarse] / _PHASE_STEP), 32).astype(int)
            offsets = np.concatenate([np.arange(1, m) / m for m in pieces])
            new = np.repeat(theta[coarse], pieces - 1) + offsets * np.repeat(h[coarse], pieces - 1)
            new_value, new_rate = self.phi(radius * np.exp(1j * new), rate=True)
            order = np.argsort(np.concatenate([theta, new]), kind="stable")
            theta = np.concatenate([theta, new])[order]
            value = np.concatenate([value, new_value])[order]
            rate = np.concatenate([rate, new_rate])[order]
        return None

    def certify(self, *grids: np.ndarray) -> tuple[Optional[float], Optional[float]]:
        """(gap, radius): the certified gap from these real grids, or (None, radius
        of a count that found extra eigenvalues outside), or (None, None)."""
        found = self.brackets(*grids)
        if not found:
            return None, None
        found.sort(key=lambda br: -max(abs(br[0]), abs(br[1])))
        lam2 = self.root(*found[0])
        if lam2 is None:
            return None, None
        gap = 1.0 - abs(lam2)
        # the next real root known, from its unrefined bracket
        next_gap = 1.0 - max(abs(found[1][0]), abs(found[1][1])) if len(found) > 1 else 1.0
        if next_gap <= gap + _ROOT_WIDTH:
            return None, None
        radius = 1.0 - min(math.sqrt(gap * next_gap), 3.0 * gap)
        if radius > 1.0 - 1e-8:  # the circle would pass through rounding noise at 1
            return None, None
        outside = self.roots_outside(radius)
        if outside == 2:  # lambda = 1 and lambda_2
            return gap, radius
        return None, (radius if outside is not None and outside > 2 else None)


def certified_ring_gap(ladder: Ladder, sampler: str) -> Optional[float]:
    """Spectral gap 1 - |lambda_2| of one ladder chain ("mjhmc" or "hmc") from
    its ring of transfer matrices, or None when it cannot be certified.

    lambda_2 is searched on the real axis near -1 and +1 and refined to
    1e-13; it is returned only when the argument principle certifies that
    lambda = 1 and lambda_2 are the only eigenvalues of modulus above a
    circle between lambda_2 and the next real root.  None means the dense
    solve is needed: lambda_2 complex, a mesh that stays too coarse, an
    exit probability of 0.
    """
    alpha, delta = _exit_probabilities(ladder, sampler)
    if not (np.all(alpha > 0.0) and np.all(delta > 0.0)):
        return None
    ring = _RingTransfer(alpha, delta)
    gap, radius = ring.certify(_NEAR_MINUS_ONE, _NEAR_PLUS_ONE)
    if gap is None and radius is not None:
        # More eigenvalues outside the circle than the log grids found: two
        # close real roots can share one grid cell.  Search the annulus
        # again on linear grids.
        width = 1.0 - radius
        gap, _ = ring.certify(-1.0 + np.linspace(0.0, width, 257)[1:],
                              1.0 - np.linspace(1e-8, width, 256))
    return gap


@dataclass(frozen=True)
class GapExperimentResult:
    """Per-size mean spectral gaps of the two samplers, with standard errors."""

    sizes: np.ndarray
    draws_per_size: int
    mjhmc_mean: np.ndarray
    mjhmc_stderr: np.ndarray
    hmc_mean: np.ndarray
    hmc_stderr: np.ndarray

    def rows(self) -> Iterable[tuple]:
        """Long-format rows (k, sampler, mean_gap, std_error, draws) for CSV output."""
        for i, k in enumerate(self.sizes):
            yield (int(k), "mjhmc", self.mjhmc_mean[i], self.mjhmc_stderr[i], self.draws_per_size)
            yield (int(k), "hmc", self.hmc_mean[i], self.hmc_stderr[i], self.draws_per_size)


# Odd sizes only: on an even ring every L or F transition flips the parity
# of rung+side, so both chains are bipartite and |lambda_2| = 1 exactly,
# collapsing the spectral gap to zero regardless of the energies.
DEFAULT_LADDER_SIZES = (5, 9, 17, 33, 65, 129, 201)


def _draw_ladder(k: int, rng: np.random.Generator) -> Ladder:
    """Draw a ladder with standard-normal rung energies, redrawing degenerate ones.

    A draw is degenerate when every flip rate vanishes (the two travel
    directions decouple into separate cycles): a flip rate is the positive
    part of dn_rate - up_rate or of its negative, so that is when the two L
    rates of every rung are equal.  This has probability zero under
    continuous energy draws but is guarded anyway.
    """
    while True:
        ladder = Ladder(rng.standard_normal(k))
        up_rate, dn_rate = _leapfrog_rates(ladder.energies)
        if np.any(up_rate != dn_rate):
            return ladder


def _ladder_gaps(task: tuple[int, np.random.SeedSequence]) -> tuple[float, float]:
    """(mjhmc gap, hmc gap) of the ladder that one (size, seed) task draws."""
    k, seq = task
    ladder = _draw_ladder(k, np.random.default_rng(seq))
    return ladder_spectral_gap(ladder, "mjhmc"), ladder_spectral_gap(ladder, "hmc")


def random_ladder_experiment(
    sizes: Sequence[int] = DEFAULT_LADDER_SIZES,
    draws_per_size: int = 250,
    seed: int = 0,
) -> GapExperimentResult:
    """Average spectral gaps over random energy landscapes, per ladder size.

    Rung energies are i.i.d. standard normal, and each gap comes from
    ``ladder_spectral_gap``.  Each (size, draw) task uses its own
    deterministically derived random stream, so the tasks run on every CPU
    the process may use (see ``forkmap.map_ordered``) and the result is
    bit-identical to a serial run.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("need at least one ladder size")
    for i, k in enumerate(sizes):
        check_count(f"sizes[{i}]", k, 3)
    check_count("draws_per_size", draws_per_size)
    sizes = np.array(sizes, dtype=int)

    # Largest ladder first, so that the processes run out of work together;
    # serial below RING_GAP_MIN_K, where a draw costs 0.3-1.3 ms, a fork 3.5 ms.
    per_size = np.random.SeedSequence(seed).spawn(len(sizes))
    by_size = np.argsort(-sizes, kind="stable")
    tasks = [(int(sizes[s]), seq) for s in by_size for seq in per_size[s].spawn(draws_per_size)]
    run = map_ordered if max(sizes) >= RING_GAP_MIN_K else map
    gaps = np.transpose(list(run(_ladder_gaps, tasks))).reshape(2, len(sizes), draws_per_size)
    gaps = gaps[:, by_size.argsort()]  # back in the order of sizes
    stats = {}
    for sampler, g in zip(("mjhmc", "hmc"), gaps):
        stats[f"{sampler}_mean"] = g.mean(axis=1)
        stats[f"{sampler}_stderr"] = (
            g.std(axis=1, ddof=1) / np.sqrt(draws_per_size) if draws_per_size > 1
            else np.zeros(len(sizes))
        )
    return GapExperimentResult(sizes=sizes, draws_per_size=draws_per_size, **stats)


def min_exponential_oracle(
    rates: Sequence[float], n_trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Empirical win frequencies of competing exponential clocks.

    Simulates ``n_trials`` races between independent exponentials with the
    given rates and returns how often each clock rang first.  Serves as the
    independent check for the embedded chain's analytic probabilities.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.size < 2:
        raise ValueError("need at least two competing rates")
    if np.any(rates <= 0):
        raise ValueError("rates must be positive")
    draws = rng.standard_exponential((int(n_trials), rates.size)) / rates
    winners = np.argmin(draws, axis=1)
    return np.bincount(winners, minlength=rates.size) / float(n_trials)


def worst_race_deviation(rate_vectors: Iterable[np.ndarray], n_trials: int,
                         rng: np.random.Generator, fault: bool = False) -> float:
    """Worst distance, in standard errors, between ``min_exponential_oracle``'s win
    frequencies and the embedded chain's rate / total over ``rate_vectors``.  The
    races draw from ``rng``; ``rate_vectors`` may be a generator drawing from it too.
    ``fault`` replaces the shares by the pairwise-product formula prod_j r_i / (r_i + r_j),
    wrong for three clocks or more, an error that the check must catch."""
    worst = 0.0
    for rates in rate_vectors:
        share = rates / rates.sum()
        if fault:  # the product includes j = i, whose factor 1/2 the 2 cancels
            share = 2.0 * np.prod(rates[:, None] / np.add.outer(rates, rates), axis=1)
        freqs = min_exponential_oracle(rates, n_trials, rng)
        sigma = np.sqrt(share * (1 - share) / n_trials)
        worst = max(worst, float(np.max(np.abs(freqs - share) / sigma)))
    return worst
