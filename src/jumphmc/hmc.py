"""Discrete-time HMC control sampler.

One step proposes the leapfrog image of the current state, accepts it with
the Metropolis-Hastings probability min(1, exp(-dH)), flips the momentum on
rejection (keeping the position), and then corrupts the momentum with a
full standard-normal redraw with probability ``beta``.  Flip-on-reject makes
the chain's restriction to a state ladder well defined, which is what the
spectral-gap comparison uses.  Accept, reject and redraw are the L, F and R
rules of the jump sampler's :class:`~jumphmc.jump.StateCache`, so the
control keeps its state in the same cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyFunction
from .jump import Chain, init_cache, record_chain
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


def hmc_chain(config: HmcConfig, ef: EnergyFunction, init: PhaseState) -> Chain:
    """Run ``config.n_samples`` propose/accept/corrupt steps with cost accounting.

    Row i is the state after step i, with holding time 1 and transition L
    (accepted) or F (rejected).  A step fills only the cache's forward node,
    its proposal, so it costs the gradient evaluations of at most one
    leapfrog application, and none when the proposal is already cached.
    After a rejection it usually is: the F rule makes the old backward node,
    flipped, the next proposal, so after an accepted step the proposal
    L(F L zeta) = F zeta is the stored earlier state flipped.
    """

    def rows(counter, rng):
        cache = init_cache(init, counter)
        while True:
            cache.fill(counter, config.epsilon, config.steps)
            d_h = cache.forward[4] - cache.current[4]
            u = rng.random()
            if d_h <= 0 or u < np.exp(-d_h):
                cache.leap()
                kind = "L"
            else:
                cache.flip()
                kind = "F"
            if rng.random() < config.beta:
                cache.redraw(rng)
            x, v, _, _, _ = cache.current
            yield x, v, 1.0, kind

    return record_chain("hmc", rows, ef, init.dim, config.n_samples, config.seed)
