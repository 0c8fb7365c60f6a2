"""Discrete-time HMC control sampler.

One step proposes the leapfrog image of the current state, accepts it with
the Metropolis-Hastings probability min(1, exp(-dH)), flips the momentum on
rejection (keeping the position), and then corrupts the momentum with a
full standard-normal redraw with probability ``beta``.  Flip-on-reject makes
the chain's restriction to a state ladder well defined, which is what the
spectral-gap comparison uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import CountingEnergy, EnergyFunction, kinetic_energy
from .errors import IntegrationError
from .jump import Chain, record_chain
from .phase import LeapfrogParams, PhaseState


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


def _mh_step(
    x: np.ndarray,
    v: np.ndarray,
    grad: np.ndarray,
    potential: float,
    config: HmcConfig,
    ef: EnergyFunction,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, bool]:
    """One step from (x, v) with its cached gradient and potential.

    Returns the new (x, v, grad, potential) and whether the proposal was
    accepted.
    """
    xp, vp, gp = ef.trajectory(x, v, grad, config.epsilon, config.steps)
    h_cur = potential + kinetic_energy(v)
    pot_prop = ef.energy(xp)
    h_prop = pot_prop + kinetic_energy(vp)
    if not math.isfinite(h_prop):
        raise IntegrationError("non-finite proposal energy", state=PhaseState(xp, vp))
    d_h = h_prop - h_cur
    u = rng.random()
    accepted = d_h <= 0 or u < np.exp(-d_h)
    if accepted:
        x, v, grad, potential = xp, vp, gp, pot_prop
    else:
        v = -v
    if rng.random() < config.beta:
        v = rng.standard_normal(x.size)
    return x, v, grad, potential, accepted


def hmc_step(
    zeta: PhaseState, config: HmcConfig, ef: EnergyFunction, rng: np.random.Generator
) -> tuple[PhaseState, int]:
    """One propose/accept/corrupt step; returns the new state and gradient evals used."""
    counter = CountingEnergy(ef)
    potential = counter.energy(zeta.x)
    grad = counter.gradient(zeta.x)
    x, v, _, _, _ = _mh_step(zeta.x, zeta.v, grad, potential, config, counter, rng)
    return PhaseState(x, v), counter.gradient_calls


def hmc_chain(config: HmcConfig, ef: EnergyFunction, init: PhaseState) -> Chain:
    """Iterate :func:`hmc_step` ``config.n_samples`` times with cost accounting.

    Row i is the state after step i, with holding time 1 and transition L
    (accepted) or F (rejected).  The cached gradient at the current position
    is carried between steps, so each step costs the gradient evaluations of
    exactly one leapfrog application.
    """

    def rows(counter, rng):
        x, v = init.x, init.v
        potential, grad = counter.energy(x), counter.gradient(x)
        while True:
            x, v, grad, potential, accepted = _mh_step(
                x, v, grad, potential, config, counter, rng
            )
            yield x, v, 1.0, "L" if accepted else "F"

    return record_chain("hmc", rows, ef, init.dim, config.n_samples, config.seed)
