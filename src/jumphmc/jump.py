"""Hamiltonian Monte Carlo as a continuous-time Markov jump process.

From any state the sampler can jump to three neighbors: the leapfrog image
L(zeta), the momentum flip F(zeta), and a momentum redraw R(zeta).  Each
neighbor is assigned a Poisson rate; the square-rooted probability ratios
let rates exceed 1, which is the whole point.  Expressed through energy
differences the outgoing rates are

    gamma_L = exp(-(H(L zeta) - H(zeta)) / 2)
    gamma_F = max(0, exp(-(H(L^-1 zeta) - H(zeta)) / 2) - gamma_L)
    beta    = constant momentum-randomization rate

and a step is an exponential race between the three arms.  The time spent
waiting in each state (the holding time) doubles as an importance weight,
so visited states plus holding times can be resampled into an unweighted
chain (:func:`systematic_resample_indices`).

The module also runs the discrete-time HMC control (:func:`hmc_chain`).
One control step proposes the leapfrog image of the current state,
accepts it with the Metropolis-Hastings probability min(1, exp(-dH)),
flips the momentum on rejection (keeping the position), and then redraws
the momentum with probability ``beta``.  Flip-on-reject makes the chain's
restriction to a state ladder well defined, which is what the spectral-gap
comparison uses.  Accept, reject and redraw are the L, F and R rules of
:class:`StateCache`, so both samplers keep their state in the same cache,
and one :class:`SamplerConfig` describes a chain of either.  A chain
starts from two arrays, x and v, and a cached state is a plain tuple.

Between two redraws both samplers walk one orbit {F^s L^n zeta_R}.  The
cache is that orbit, each node stored once, and the walk's place (n, d) on
it.  So each node is integrated once per redraw epoch, and an F followed by
L returns the stored node itself rather than a re-integrated copy, which
differs from it where the leapfrog round trip is not reversible in floating
point (past the target's stability limit).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .energy import CountingEnergy, EnergyFunction, kinetic_energy
from .errors import IntegrationError

_MAX_LOG = math.log(sys.float_info.max)
_TINY = sys.float_info.min


def _exp(log_value: float) -> float:
    """``math.exp`` that saturates to inf instead of raising on overflow."""
    return math.exp(log_value) if log_value <= _MAX_LOG else math.inf


def check_count(name: str, value, least: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer of at least ``least``.

    An integral float or a bool is not a count: a chain loop would die on
    the float and run the bool as 0 or 1.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not a bool")
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


@dataclass(frozen=True)
class SamplerConfig:
    """Hyperparameters of a chain of either sampler.

    ``sampler`` is "mjhmc" for the jump sampler, whose ``beta`` is a
    momentum-redraw rate and must be positive and finite, or "hmc" for the
    discrete-time control, whose ``beta`` is a per-step redraw probability
    in (0, 1].
    """

    sampler: str
    epsilon: float
    steps: int
    beta: float
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.sampler == "mjhmc":
            if not 0 < self.beta < math.inf:
                raise ValueError("beta must be positive and finite")
        elif self.sampler == "hmc":
            if not 0 < self.beta <= 1:
                raise ValueError("beta must lie in (0, 1]")
        else:
            raise ValueError(f"unknown sampler kind: {self.sampler!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        check_count("steps", self.steps)
        check_count("n_samples", self.n_samples)


def _node(x: np.ndarray, v: np.ndarray, grad: np.ndarray, potential: float, d: int = 1) -> tuple:
    """The node of (x, v), with v in orientation +1, gradient ``grad`` and potential E(x).

    Raises IntegrationError, carrying x and v in orientation d, where the
    total energy is not finite.
    """
    h = potential + kinetic_energy(v)
    if not math.isfinite(h):
        raise IntegrationError("non-finite energy encountered", x, v if d > 0 else -v)
    return (x, v, grad, potential, h)


class StateCache:
    """The orbit walked since the last momentum redraw, and the walk's place (n, d) on it.

    Between two R transitions the chain walks one orbit, the states
    F^s L^n zeta_R of the state zeta_R that the redraw (or the chain
    start) left: the state ladder of the paper's spectral-gap argument and
    of :mod:`jumphmc.ladder`.  ``orbit[n]`` is the node L^n zeta_R, stored
    once, in orientation +1.  The current state is the node at n in
    orientation d, whose momentum is negated when d = -1; ``flips[n]``
    keeps that flipped node once :meth:`node` has made it.  Since
    L(F L^n zeta) = F L^(n-1) zeta, in orientation d the leapfrog image of
    the node at n is the node at n + d and its inverse the node at n - d.
    A flip keeps H, so the rates read it from ``orbit`` in either
    orientation.

    A node is a plain tuple ``(x, v, grad, potential, h)`` of the
    position, the momentum, the gradient at x, the potential E(x) and the
    total energy H = E(x) + |v|^2 / 2.  Nothing writes into a node's
    arrays, so nodes share them.  Each transition kind has one rule, and
    no rule integrates:

    - L (:meth:`leap`): n += d;
    - F (:meth:`flip`): d = -d;
    - R (:meth:`redraw`): the momentum is redrawn and a new orbit starts
      at n = 0, d = +1, holding only the redrawn node.

    :meth:`fill` is the one place that integrates, and only a neighbor the
    orbit does not hold.  So every node is integrated at most once per
    epoch, and a walk that turns back with F retraces the stored nodes
    exactly, also where the leapfrog round trip is not reversible in
    floating point.  Memory is bounded by the nodes of one epoch.
    """

    __slots__ = ("orbit", "flips", "n", "d")

    def __init__(self, start: tuple):
        self.orbit, self.flips, self.n, self.d = {0: start}, {}, 0, 1

    def node(self, offset: int = 0) -> tuple:
        """The node at n + offset * d, in orientation d."""
        k = self.n + offset * self.d
        if self.d > 0:
            return self.orbit[k]
        node = self.flips.get(k)
        if node is None:
            x, v, grad, potential, h = self.orbit[k]
            node = self.flips[k] = (x, -v, grad, potential, h)
        return node

    def leap(self) -> None:
        self.n += self.d

    def flip(self) -> None:
        self.d = -self.d

    def redraw(self, rng: np.random.Generator) -> None:
        x, _, grad, potential, _ = self.orbit[self.n]
        v = rng.standard_normal(x.size)
        self.orbit.clear()
        self.flips.clear()
        self.orbit[0] = (x, v, grad, potential, potential + kinetic_energy(v))
        self.n, self.d = 0, 1

    def fill(self, ef: EnergyFunction, epsilon: float, steps: int, backward: bool = False) -> None:
        """Integrate the node at n + d, then at n - d if asked, unless the orbit holds it.

        The jump sampler needs both neighbors, the HMC control only the
        forward one, its proposal.
        """
        n, d = self.n, self.d
        if n + d not in self.orbit:
            self._integrate(ef, epsilon, steps, d)
        if backward and n - d not in self.orbit:
            self._integrate(ef, epsilon, steps, -d)

    def _integrate(self, ef: EnergyFunction, epsilon: float, steps: int, e: int) -> None:
        """Store the node at n + e: the trajectory from the current node in orientation e.

        It is stored in orientation +1, with H its endpoint potential plus
        |v|^2 / 2.  A trajectory that raises stores nothing.
        """
        x, v, grad, _, _ = self.node()
        xe, ve, ge, potential = ef.trajectory(x, v if e == self.d else -v, grad, epsilon, steps)
        self.orbit[self.n + e] = _node(xe, ve if e > 0 else -ve, ge, potential, self.d)


def init_cache(x: np.ndarray, v: np.ndarray, ef: EnergyFunction) -> StateCache:
    """The cache at a chain start (x, v): an orbit of the one node n = 0.

    Its potential is the chain's one ``energy()`` call.  Raises
    IntegrationError, carrying the start, where its total energy is not finite.
    """
    return StateCache(_node(x, v, ef.gradient(x), ef.energy(x)))


def _log_rates(cache: StateCache) -> tuple[float, float]:
    """(log gamma_L, log gamma_F) from the total energies h of the three nodes.

    The log-rates are formed without exponentiating: log gamma_L =
    -dH_fwd/2 and, with a = -dH_bwd/2, log gamma_F = a + log(1 - exp(log
    gamma_L - a)) when a > log gamma_L, else gamma_F = 0.
    """
    orbit, n, d = cache.orbit, cache.n, cache.d
    h = orbit[n][4]
    log_gamma_L = -0.5 * (orbit[n + d][4] - h)
    a = -0.5 * (orbit[n - d][4] - h)
    # -expm1 stays positive for a difference too small for 1 - exp to resolve
    log_gamma_F = a + math.log(-math.expm1(log_gamma_L - a)) if a > log_gamma_L else -math.inf
    return log_gamma_L, log_gamma_F


def _log_waiting_times(
    log_gamma_L: float, log_gamma_F: float, beta: float, rng: np.random.Generator
) -> tuple[float, float, float]:
    """Logs of the three competing waiting times draw / rate, in L, F, R order.

    A zero rate gives +inf, so that arm can never win.  Exactly three
    exponential variates are consumed regardless, keeping the random stream
    independent of which rates vanish.  The (astronomically unlikely)
    exact-zero draw is raised to the smallest normal float.
    """
    d_L, d_F, d_R = rng.standard_exponential(3).tolist()
    log = math.log
    return (
        log(d_L if d_L > _TINY else _TINY) - log_gamma_L,
        log(d_F if d_F > _TINY else _TINY) - log_gamma_F,
        log(d_R if d_R > _TINY else _TINY) - log(beta),
    )


def _holding_time(log_wait: float) -> float:
    """A waiting time from its log, kept strictly positive and possibly inf.

    This defines what a state with an overflowing outflow rate contributes:
    when the time underflows (total rate above about 1e308) it is clamped to
    the smallest normal float, about 2.2e-308.  Such a state then carries a
    negligible but positive importance weight, so resampling and weighted
    moments accept every chain the sampler returns.
    """
    return max(_exp(log_wait), _TINY)


def step(
    cache: StateCache, config: SamplerConfig, ef: EnergyFunction, rng: np.random.Generator
) -> tuple[str, float]:
    """Run one exponential race from the cache's current state and move to the winner.

    Returns the winning kind, "L", "F" or "R", and the holding time of the
    state left.  The race compares log waiting times, so it is exact even
    where a rate overflows.  Ties (a measure-zero event) resolve with the
    fixed priority L > F > R.  The cache's orbit must hold both neighbors
    of the current node; the cache is updated in place by the rule of the
    winning kind (see :class:`StateCache`) and filled again.  So an L
    transition costs one leapfrog integration when its new forward
    neighbor is a node the orbit does not hold, and none otherwise; an F
    transition costs none, and an R transition two.
    """
    wait_L, wait_F, wait_R = _log_waiting_times(*_log_rates(cache), config.beta, rng)
    kind, shortest = ("F", wait_F) if wait_F < wait_L else ("L", wait_L)
    if wait_R < shortest:
        kind, shortest = "R", wait_R
    if kind == "L":
        cache.leap()
    elif kind == "F":
        cache.flip()
    else:
        cache.redraw(rng)
    cache.fill(ef, config.epsilon, config.steps, backward=True)
    return kind, _holding_time(shortest)


@dataclass
class Chain:
    """A completed run of either sampler, stored as packed arrays.

    ``sampler`` is "mjhmc" for the jump sampler and "hmc" for the
    discrete-time control.  Row i is the i-th recorded state with its
    holding time, the kind of the transition that ended it, and the
    cumulative gradient-evaluation count after that row's bookkeeping.  A
    control row is the state after one step: its holding time is 1, and its
    transition is L when the proposal was accepted and F when it was
    rejected, which is the flip-on-reject move.
    """

    sampler: str
    positions: np.ndarray
    momenta: np.ndarray
    holding_times: np.ndarray
    transitions: np.ndarray
    gradient_evals: np.ndarray
    energy_evals: int = 0

    def __len__(self) -> int:
        return self.positions.shape[0]

    def transition_counts(self) -> dict[str, int]:
        kinds, counts = np.unique(self.transitions, return_counts=True)
        return {str(k): int(c) for k, c in zip(kinds, counts)}

    @property
    def accepted(self) -> np.ndarray:
        """Which rows end in an L transition: the control's accepted proposals."""
        return self.transitions == "L"

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted))


def record_chain(
    config: SamplerConfig, rows: Callable, ef: EnergyFunction, dim: int, blocks=None
) -> Chain:
    """Record the first ``config.n_samples`` rows of a chain; the one loop of both samplers.

    ``rows(counter, rng)`` yields ``(x, v, holding_time, kind)`` per row,
    evaluating the target through ``counter`` and drawing from ``rng``,
    which is seeded with ``config.seed``.  Each row's gradient count is
    read from ``counter`` once the row is produced.  If producing row i
    raises :class:`IntegrationError`, the error carries rows ``[:i]`` as
    ``partial_chain``.  Once rows ``[:stop]`` are recorded, for each stop in
    ``blocks.stops``, ``blocks(chain, stop)`` gets them (``chainio.ChainBlocks``).
    """
    n, sampler = config.n_samples, config.sampler
    counter = CountingEnergy(ef)
    produce = rows(counter, np.random.default_rng(config.seed))
    arrays = (
        np.empty((n, dim)), np.empty((n, dim)), np.empty(n),
        np.empty(n, dtype="<U1"), np.empty(n, dtype=np.int64),
    )
    positions, momenta, holding_times, transitions, gradient_evals = arrays
    stops = set(blocks.stops) if blocks else ()
    try:
        for i in range(n):
            positions[i], momenta[i], holding_times[i], transitions[i] = next(produce)
            gradient_evals[i] = counter.gradient_calls
            if i + 1 in stops:
                blocks(Chain(sampler, *arrays), i + 1)
    except IntegrationError as err:
        err.partial_chain = Chain(sampler, *(a[:i].copy() for a in arrays), counter.energy_calls)
        raise
    return Chain(sampler, *arrays, counter.energy_calls)


def sample_chain(
    config: SamplerConfig, ef: EnergyFunction, x0: np.ndarray, v0: np.ndarray, blocks=None
) -> Chain:
    """Generate ``config.n_samples`` weighted jump-sampler samples starting from (x0, v0).

    The start must be two 1-D float arrays of the target's dimension
    (``tuner.run_chain`` converts and checks it).  The first recorded state
    is the start itself.  If the integrator fails, the raised
    :class:`IntegrationError` carries the rows recorded so far as
    ``partial_chain``.
    """

    def rows(counter, rng):
        cache = init_cache(x0, v0, counter)
        cache.fill(counter, config.epsilon, config.steps, backward=True)
        while True:
            x, v, _, _, _ = cache.node()
            kind, holding_time = step(cache, config, counter, rng)
            yield x, v, holding_time, kind

    return record_chain(config, rows, ef, x0.size, blocks)


def hmc_chain(
    config: SamplerConfig, ef: EnergyFunction, x0: np.ndarray, v0: np.ndarray, blocks=None
) -> Chain:
    """Run ``config.n_samples`` steps of the discrete-time HMC control from (x0, v0).

    Row i is the state after step i, with holding time 1 and transition L
    (accepted) or F (rejected).  A step fills only the forward neighbor,
    its proposal, so it costs the gradient evaluations of at most one
    leapfrog application, and none when the cache's orbit already holds
    the proposal.  After a rejection it usually does: the walk turns back
    along stored nodes, so after an accepted step the proposal
    L(F L zeta) = F zeta is the stored earlier state flipped.
    """

    def rows(counter, rng):
        cache = init_cache(x0, v0, counter)
        epsilon, steps, beta = config.epsilon, config.steps, config.beta
        while True:
            cache.fill(counter, epsilon, steps)
            d_h = cache.orbit[cache.n + cache.d][4] - cache.orbit[cache.n][4]
            # one call draws the accept and the redraw uniform: the values of two random() calls
            u, u_redraw = rng.random(2).tolist()
            # math.exp may differ from np.exp by 1 ulp, which moves an accept only
            # when u falls between the two: about 1e-16 per step
            if d_h <= 0 or u < math.exp(-d_h):
                cache.leap()
                kind = "L"
            else:
                cache.flip()
                kind = "F"
            if u_redraw < beta:
                cache.redraw(rng)
            x, v, _, _, _ = cache.node()
            yield x, v, 1.0, kind

    return record_chain(config, rows, ef, x0.size, blocks)


def systematic_resample_indices(
    weights: np.ndarray, n_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Systematic resampling: indices drawn with one uniform offset.

    Lower variance than multinomial resampling; expected multiplicity of
    index i is ``n_out * w_i / sum(w)``.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        raise ValueError("empty weight vector")
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be positive and finite")
    if n_out < 1:
        raise ValueError("n_out must be at least 1")
    cum = np.cumsum(weights)
    cum /= cum[-1]
    cum[-1] = 1.0
    points = (rng.random() + np.arange(n_out)) / n_out
    # an offset just below 1 can round the last point up to 1.0
    return np.minimum(np.searchsorted(cum, points, side="right"), weights.size - 1)


def weighted_moments(chain: Chain) -> tuple[np.ndarray, np.ndarray]:
    """Holding-time-weighted mean and central covariance of the positions."""
    positions, weights = chain.positions, chain.holding_times
    if positions.shape[0] == 0:
        raise ValueError("cannot take moments of an empty chain")
    total = weights.sum()
    mean = weights @ positions / total
    centered = positions - mean
    cov = (weights * centered.T) @ centered / total
    return mean, cov
