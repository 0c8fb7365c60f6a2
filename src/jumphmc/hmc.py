"""Discrete-time HMC control sampler.

One step proposes the leapfrog image of the current state, accepts it with
the Metropolis-Hastings probability min(1, exp(-dH)), flips the momentum on
rejection (keeping the position), and then corrupts the momentum with a
full standard-normal redraw with probability ``beta``.  Flip-on-reject makes
the chain's restriction to a state ladder well defined, which is what the
spectral-gap comparison uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy import CountingEnergy, EnergyFunction, kinetic_energy
from .errors import IntegrationError
from .phase import LeapfrogParams, PhaseState, flip, leapfrog_with_grad


@dataclass(frozen=True)
class HmcConfig:
    """Hyperparameters of the control chain; ``beta`` is a per-step probability."""

    epsilon: float
    steps: int
    beta: float
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        LeapfrogParams(self.epsilon, self.steps)

    @property
    def leapfrog_params(self) -> LeapfrogParams:
        return LeapfrogParams(self.epsilon, self.steps)


class _Walker(NamedTuple):
    """Current state plus its cached potential energy and gradient."""

    state: PhaseState
    potential: float
    grad: np.ndarray


def _mh_step(
    walker: _Walker, config: HmcConfig, ef: EnergyFunction, rng: np.random.Generator
) -> tuple[_Walker, bool]:
    proposal, end_grad = leapfrog_with_grad(
        walker.state, config.leapfrog_params, ef, grad0=walker.grad
    )
    h_cur = walker.potential + kinetic_energy(walker.state.v)
    with np.errstate(over="ignore", invalid="ignore"):
        pot_prop = ef.energy(proposal.x)
        h_prop = pot_prop + kinetic_energy(proposal.v)
    if not np.isfinite(h_prop):
        raise IntegrationError("non-finite proposal energy", state=proposal)
    d_h = h_prop - h_cur
    u = rng.random()
    accepted = d_h <= 0 or u < np.exp(-d_h)
    if accepted:
        walker = _Walker(proposal, pot_prop, end_grad)
    else:
        walker = _Walker(flip(walker.state), walker.potential, walker.grad)
    if rng.random() < config.beta:
        walker = _Walker(
            PhaseState(walker.state.x, rng.standard_normal(walker.state.dim)),
            walker.potential,
            walker.grad,
        )
    return walker, accepted


def hmc_step(
    zeta: PhaseState, config: HmcConfig, ef: EnergyFunction, rng: np.random.Generator
) -> tuple[PhaseState, int]:
    """One propose/accept/corrupt step; returns the new state and gradient evals used."""
    counter = CountingEnergy(ef)
    walker = _Walker(zeta, counter.energy(zeta.x), counter.gradient(zeta.x))
    walker, _ = _mh_step(walker, config, counter, rng)
    return walker.state, counter.gradient_calls


@dataclass
class HmcChain:
    """A completed control run: post-step states with cumulative costs."""

    positions: np.ndarray
    momenta: np.ndarray
    gradient_evals: np.ndarray
    accepted: np.ndarray
    energy_evals: int = 0

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted))


def hmc_chain(config: HmcConfig, ef: EnergyFunction, init: PhaseState) -> HmcChain:
    """Iterate :func:`hmc_step` ``config.n_samples`` times with cost accounting.

    The cached gradient at the current position is carried between steps, so
    each step costs the gradient evaluations of exactly one leapfrog
    application.
    """
    counter = CountingEnergy(ef)
    rng = np.random.default_rng(config.seed)
    n, dim = config.n_samples, init.dim
    chain = HmcChain(
        positions=np.empty((n, dim)),
        momenta=np.empty((n, dim)),
        gradient_evals=np.empty(n, dtype=np.int64),
        accepted=np.empty(n, dtype=bool),
    )
    walker = _Walker(init, counter.energy(init.x), counter.gradient(init.x))
    for i in range(n):
        try:
            walker, accepted = _mh_step(walker, config, counter, rng)
        except IntegrationError as err:
            err.partial_chain = HmcChain(
                positions=chain.positions[:i].copy(),
                momenta=chain.momenta[:i].copy(),
                gradient_evals=chain.gradient_evals[:i].copy(),
                accepted=chain.accepted[:i].copy(),
                energy_evals=counter.energy_calls,
            )
            raise
        chain.positions[i] = walker.state.x
        chain.momenta[i] = walker.state.v
        chain.gradient_evals[i] = counter.gradient_calls
        chain.accepted[i] = accepted
    chain.energy_evals = counter.energy_calls
    return chain
