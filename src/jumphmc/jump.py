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
chain.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .energy import CountingEnergy, EnergyFunction, kinetic_energy
from .errors import IntegrationError
from .phase import (
    LeapfrogParams,
    PhaseState,
    flip,
    leapfrog_inverse_with_grad,
    leapfrog_with_grad,
    randomize_momentum,
)


class Transition(enum.Enum):
    """Which arm of the exponential race fired."""

    L = "L"
    F = "F"
    R = "R"


@dataclass(frozen=True)
class TransitionRates:
    """Outgoing Poisson rates from the current state.

    The race runs on the log-rates, which stay finite where a rate
    overflows a float; ``gamma_L`` and ``gamma_F`` are their exponentials
    and read inf there.  Built from linear rates alone, the log-rates are
    derived from them.
    """

    gamma_L: float
    gamma_F: float
    beta: float
    log_gamma_L: Optional[float] = None
    log_gamma_F: Optional[float] = None

    def __post_init__(self):
        if self.log_gamma_L is None:
            object.__setattr__(self, "log_gamma_L", _log(self.gamma_L))
        if self.log_gamma_F is None:
            object.__setattr__(self, "log_gamma_F", _log(self.gamma_F))

    @property
    def total(self) -> float:
        return self.gamma_L + self.gamma_F + self.beta


_MAX_LOG = math.log(sys.float_info.max)


def _exp(log_value: float) -> float:
    """``math.exp`` that saturates to inf instead of raising on overflow."""
    return math.exp(log_value) if log_value <= _MAX_LOG else math.inf


def _log(rate: float) -> float:
    return math.log(rate) if rate > 0 else -math.inf


@dataclass(frozen=True)
class SamplerConfig:
    """Hyperparameters of a jump-process chain."""

    epsilon: float
    steps: int
    beta: float
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        LeapfrogParams(self.epsilon, self.steps)  # validates epsilon/steps

    @property
    def leapfrog_params(self) -> LeapfrogParams:
        return LeapfrogParams(self.epsilon, self.steps)


@dataclass(frozen=True)
class WeightedSample:
    """A visited state, how long the chain sat in it, and its running cost."""

    state: PhaseState
    holding_time: float
    transition_out: Transition
    cumulative_gradient_evals: int


class _Node(NamedTuple):
    """A phase state with its cached potential, total energy and gradient."""

    state: PhaseState
    potential: float
    h: float
    grad: np.ndarray


@dataclass
class StateCache:
    """Precomputed neighbors of the current state.

    ``forward`` holds L of the current state and ``backward`` holds L^-1 of
    it.  Each transition kind has one update rule:

    - L: the forward node becomes current and the previous current node
      becomes backward; only the new forward node is integrated.
    - F: since L(F zeta) = F L^-1 zeta and L^-1(F zeta) = F L zeta, the new
      forward node is the old backward node flipped and the new backward
      node is the old forward node flipped.  A flip keeps the potential,
      the total energy and the gradient, so nothing is evaluated.
    - R: both neighbors of the redrawn state are integrated afresh.
    """

    current: _Node
    forward: _Node
    backward: _Node
    last_transition: Optional[Transition] = None

    @property
    def state(self) -> PhaseState:
        return self.current.state


def _flipped(node: _Node) -> _Node:
    """The node of the flipped state: |v|^2 is exactly invariant under negation."""
    return node._replace(state=flip(node.state))


def _make_node(state: PhaseState, grad: np.ndarray, ef: EnergyFunction) -> _Node:
    with np.errstate(over="ignore", invalid="ignore"):
        potential = ef.energy(state.x)
        h = potential + kinetic_energy(state.v)
    if not np.isfinite(h):
        raise IntegrationError("non-finite energy encountered", state=state)
    return _Node(state, potential, h, grad)


def init_cache(zeta: PhaseState, config: SamplerConfig, ef: EnergyFunction) -> StateCache:
    """Build the neighbor cache for a fresh chain start."""
    params = config.leapfrog_params
    g0 = ef.gradient(zeta.x)
    current = _make_node(zeta, g0, ef)
    fwd_state, fwd_grad = leapfrog_with_grad(zeta, params, ef, grad0=g0)
    bwd_state, bwd_grad = leapfrog_inverse_with_grad(zeta, params, ef, grad0=g0)
    return StateCache(
        current=current,
        forward=_make_node(fwd_state, fwd_grad, ef),
        backward=_make_node(bwd_state, bwd_grad, ef),
    )


def compute_rates(
    zeta: PhaseState, cache: StateCache, config: SamplerConfig, ef: EnergyFunction
) -> TransitionRates:
    """Outgoing rates from ``zeta`` given its cached neighbor energies.

    The log-rates are formed from the cached total energies without
    exponentiating: log gamma_L = -dH_fwd/2 and, with a = -dH_bwd/2,
    log gamma_F = a + log(1 - exp(log gamma_L - a)) when a > log gamma_L,
    else gamma_F = 0.
    """
    cur = cache.current
    if cur.state is not zeta and not (
        np.array_equal(cur.state.x, zeta.x) and np.array_equal(cur.state.v, zeta.v)
    ):
        raise ValueError("cache is not consistent with the supplied state")
    if not (
        math.isfinite(cur.h) and math.isfinite(cache.forward.h) and math.isfinite(cache.backward.h)
    ):
        raise IntegrationError("non-finite energy in neighbor cache", state=zeta)
    log_gamma_L = -0.5 * (cache.forward.h - cur.h)
    a = -0.5 * (cache.backward.h - cur.h)
    # -expm1 stays positive for a difference too small for 1 - exp to resolve
    log_gamma_F = a + math.log(-math.expm1(log_gamma_L - a)) if a > log_gamma_L else -math.inf
    return TransitionRates(
        _exp(log_gamma_L), _exp(log_gamma_F), config.beta, log_gamma_L, log_gamma_F
    )


_RACE_KINDS = (Transition.L, Transition.F, Transition.R)


def _log_waiting_times(rates: TransitionRates, rng: np.random.Generator) -> list[float]:
    """Logs of the three competing waiting times draw / rate, in L, F, R order.

    A zero rate gives +inf, so that arm can never win.  Exactly three
    exponential variates are consumed regardless, keeping the random stream
    independent of which rates vanish.  The (astronomically unlikely)
    exact-zero draw is raised to the smallest normal float.
    """
    draws = rng.standard_exponential(3).tolist()
    log_rates = (rates.log_gamma_L, rates.log_gamma_F, _log(rates.beta))
    return [math.log(max(d, sys.float_info.min)) - lr for d, lr in zip(draws, log_rates)]


def _holding_time(log_wait: float) -> float:
    """A waiting time from its log, kept strictly positive and possibly inf.

    This defines what a state with an overflowing outflow rate contributes:
    when the time underflows (total rate above about 1e308) it is clamped to
    the smallest normal float, about 2.2e-308.  Such a state then carries a
    negligible but positive importance weight, so resampling and weighted
    moments accept every chain the sampler returns.
    """
    return max(_exp(log_wait), sys.float_info.min)


def draw_waiting_times(
    rates: TransitionRates, rng: np.random.Generator
) -> tuple[float, float, float]:
    """Draw the three competing exponential waiting times (L, F, R).

    A zero rate yields an infinite waiting time; every time is strictly
    positive (see :func:`_holding_time`).
    """
    return tuple(_holding_time(lw) for lw in _log_waiting_times(rates, rng))


def step(
    zeta: PhaseState,
    cache: StateCache,
    config: SamplerConfig,
    ef: EnergyFunction,
    rng: np.random.Generator,
) -> tuple[PhaseState, WeightedSample, StateCache]:
    """Run one exponential race, record the holding time, move to the winner.

    The race compares log waiting times, so it is exact even where a rate
    overflows.  Ties (a measure-zero event) resolve with the fixed priority
    L > F > R.  The neighbor cache is updated by the rule of the winning
    kind (see :class:`StateCache`): an L transition costs one leapfrog
    integration, an F transition none, an R transition two.  When ``ef`` is
    a :class:`CountingEnergy` the emitted sample carries its cumulative
    gradient-evaluation count, including the cost of that update.
    """
    params = config.leapfrog_params
    rates = compute_rates(zeta, cache, config, ef)
    log_waits = _log_waiting_times(rates, rng)
    shortest = min(log_waits)
    kind = _RACE_KINDS[log_waits.index(shortest)]

    cur, fwd, bwd = cache.current, cache.forward, cache.backward
    if kind is Transition.L:
        nxt = fwd.state
        new_current, new_backward = fwd, cur
        new_forward = _make_node(*leapfrog_with_grad(nxt, params, ef, grad0=fwd.grad), ef)
    elif kind is Transition.F:
        new_current, new_forward, new_backward = _flipped(cur), _flipped(bwd), _flipped(fwd)
        nxt = new_current.state
    else:
        nxt = randomize_momentum(zeta, rng)
        new_current = _Node(nxt, cur.potential, cur.potential + kinetic_energy(nxt.v), cur.grad)
        new_forward = _make_node(*leapfrog_with_grad(nxt, params, ef, grad0=cur.grad), ef)
        new_backward = _make_node(*leapfrog_inverse_with_grad(nxt, params, ef, grad0=cur.grad), ef)
    next_cache = StateCache(new_current, new_forward, new_backward, last_transition=kind)

    sample = WeightedSample(
        state=zeta,
        holding_time=_holding_time(shortest),
        transition_out=kind,
        cumulative_gradient_evals=getattr(ef, "gradient_calls", 0),
    )
    return nxt, sample, next_cache


@dataclass
class JumpChain:
    """A completed jump-process run, stored as packed arrays.

    Row i is the i-th visited state with its holding time, the transition
    that ended the visit, and the cumulative gradient-evaluation count after
    that visit's bookkeeping.
    """

    positions: np.ndarray
    momenta: np.ndarray
    holding_times: np.ndarray
    transitions: np.ndarray
    gradient_evals: np.ndarray
    energy_evals: int = 0

    def __len__(self) -> int:
        return self.positions.shape[0]

    def sample(self, i: int) -> WeightedSample:
        return WeightedSample(
            state=PhaseState(self.positions[i], self.momenta[i]),
            holding_time=float(self.holding_times[i]),
            transition_out=Transition(str(self.transitions[i])),
            cumulative_gradient_evals=int(self.gradient_evals[i]),
        )

    def __iter__(self):
        return (self.sample(i) for i in range(len(self)))

    def transition_counts(self) -> dict[str, int]:
        kinds, counts = np.unique(self.transitions, return_counts=True)
        return {str(k): int(c) for k, c in zip(kinds, counts)}


def _pack_chain(samples: list[WeightedSample], energy_evals: int) -> JumpChain:
    n = len(samples)
    dim = samples[0].state.dim if n else 0
    chain = JumpChain(
        positions=np.empty((n, dim)),
        momenta=np.empty((n, dim)),
        holding_times=np.empty(n),
        transitions=np.empty(n, dtype="<U1"),
        gradient_evals=np.empty(n, dtype=np.int64),
        energy_evals=energy_evals,
    )
    for i, s in enumerate(samples):
        chain.positions[i] = s.state.x
        chain.momenta[i] = s.state.v
        chain.holding_times[i] = s.holding_time
        chain.transitions[i] = s.transition_out.value
        chain.gradient_evals[i] = s.cumulative_gradient_evals
    return chain


def sample_chain(config: SamplerConfig, ef: EnergyFunction, init: PhaseState) -> JumpChain:
    """Generate ``config.n_samples`` weighted samples starting from ``init``.

    The first recorded state is ``init`` itself.  If the integrator fails,
    the raised :class:`IntegrationError` carries the samples collected so
    far as ``partial_chain``.
    """
    counter = CountingEnergy(ef)
    rng = np.random.default_rng(config.seed)
    samples: list[WeightedSample] = []
    zeta = init
    try:
        cache = init_cache(zeta, config, counter)
        for _ in range(config.n_samples):
            zeta, sample, cache = step(zeta, cache, config, counter, rng)
            samples.append(sample)
    except IntegrationError as err:
        err.partial_chain = _pack_chain(samples, counter.energy_calls)
        raise
    return _pack_chain(samples, counter.energy_calls)


ChainLike = Union[JumpChain, Sequence[WeightedSample]]


def _positions_and_weights(samples: ChainLike) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(samples, JumpChain):
        return samples.positions, samples.holding_times
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample sequence")
    positions = np.stack([s.state.x for s in samples])
    weights = np.array([s.holding_time for s in samples])
    return positions, weights


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
    return np.searchsorted(cum, points, side="right")


def resample(samples: ChainLike, n_out: int, rng: np.random.Generator) -> list[PhaseState]:
    """Resample visited states using holding times as importance weights."""
    positions, weights = _positions_and_weights(samples)
    if isinstance(samples, JumpChain):
        momenta = samples.momenta
    else:
        momenta = np.stack([s.state.v for s in samples])
    if positions.shape[0] == 0:
        raise ValueError("cannot resample an empty chain")
    idx = systematic_resample_indices(weights, n_out, rng)
    return [PhaseState(positions[i], momenta[i]) for i in idx]


def weighted_moments(samples: ChainLike) -> tuple[np.ndarray, np.ndarray]:
    """Holding-time-weighted mean and central covariance of the positions."""
    positions, weights = _positions_and_weights(samples)
    if positions.shape[0] == 0:
        raise ValueError("cannot take moments of an empty chain")
    total = weights.sum()
    mean = weights @ positions / total
    centered = positions - mean
    cov = (weights * centered.T) @ centered / total
    return mean, cov
