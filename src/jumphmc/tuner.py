"""Random-search tuning of (epsilon, beta, steps) against the decay-rate objective.

Random search is enough at this problem scale and keeps the harness
dependency free; trials are independent, reproducible via per-trial derived
seeds, and failed integrations are recorded rather than fatal.  A chain
that never decorrelates scores 0.0, the worst finite decay rate, instead of
failing: a control that rejects every proposal, or a jump chain whose
holding-time resample puts every draw on one state.  A jump chain of
momentum resamples only (R rows) still fails: far past stability its
trajectories leave every L and F rate at exactly 0.  Trials run in forked
processes (``forkmap.map_ordered``) after all their seeds are drawn, so
results do not depend on the number of processes.  :func:`run_chain` is
the library's one way to run a chain of either sampler, shared with the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import MIN_FIT_LAGS, MIN_SAMPLES, autocorrelation, fit_decay, tuning_objective
from .energy import EnergyFunction
from .errors import DecayFitError, DegenerateChainError, DimensionError, IntegrationError
from .forkmap import map_ordered
from .jump import Chain, SamplerConfig, check_count, hmc_chain, sample_chain
from .jump import systematic_resample_indices


@dataclass(frozen=True)
class SearchSpace:
    """Log-uniform ranges for epsilon and beta, uniform integer range for steps."""

    epsilon_range: tuple[float, float] = (0.05, 5.0)
    beta_range: tuple[float, float] = (0.005, 0.9)
    steps_range: tuple[int, int] = (2, 50)

    def __post_init__(self):
        e_lo, e_hi = self.epsilon_range
        b_lo, b_hi = self.beta_range
        s_lo, s_hi = self.steps_range
        check_count("steps_range[0]", s_lo)
        check_count("steps_range[1]", s_hi)
        if not 0 < e_lo <= e_hi < math.inf:  # numpy cannot draw from an infinite range
            raise ValueError("epsilon_range must satisfy 0 < lo <= hi < inf")
        if not 0 < b_lo <= b_hi <= 1:
            raise ValueError("beta_range must lie in (0, 1] with lo <= hi")
        if s_lo > s_hi:
            raise ValueError("steps_range must satisfy 1 <= lo <= hi")

    def draw(self, rng: np.random.Generator) -> tuple[float, float, int]:
        eps = float(np.exp(rng.uniform(*np.log(self.epsilon_range))))
        beta = float(np.exp(rng.uniform(*np.log(self.beta_range))))
        steps = int(rng.integers(self.steps_range[0], self.steps_range[1] + 1))
        return eps, beta, steps


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated chain configuration; failed trials carry no objective."""

    config: SamplerConfig
    status: str
    objective: Optional[float] = None


@dataclass(frozen=True)
class TuningEvalConfig:
    """How each trial is scored: chain length and autocorrelation grid."""

    n_samples: int = 4000
    n_lags: int = 120
    max_lag_evals: Optional[float] = None

    def __post_init__(self):
        check_count("n_samples", self.n_samples, MIN_SAMPLES)
        check_count("n_lags", self.n_lags, MIN_FIT_LAGS)
        if isinstance(self.max_lag_evals, bool):
            raise ValueError("max_lag_evals must be a number, not a bool")
        if self.max_lag_evals is not None and not 0 < self.max_lag_evals < math.inf:
            raise ValueError("max_lag_evals must be positive and finite")


def run_chain(config: SamplerConfig, ef: EnergyFunction, x0, v0, blocks=None) -> Chain:
    """Run one chain of the sampler that ``config`` names, from position x0 and momentum v0.

    The start is converted once to 1-D float64 arrays, through which a 1-D
    float64 array passes as itself.  Raises DimensionError unless the two
    are 1-D (or scalars) of one shape.  ``blocks`` goes to ``jump.record_chain``.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    if x0.shape != v0.shape or x0.ndim != 1:
        raise DimensionError(f"position shape {x0.shape} != momentum shape {v0.shape}")
    run = sample_chain if config.sampler == "mjhmc" else hmc_chain
    return run(config, ef, x0, v0, blocks=blocks)


def unweighted_samples(chain: Chain, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The unweighted ``(positions, gradient_evals)`` that autocorrelation needs.

    A jump chain is resampled systematically by holding time with ``rng``.
    A control chain is returned as it is, with no draw from ``rng``: its
    rows already carry equal weight, and a unit-weight resample is not the
    identity at every offset.
    """
    if chain.sampler == "hmc":
        return chain.positions, chain.gradient_evals
    idx = systematic_resample_indices(chain.holding_times, len(chain), rng)
    return chain.positions[idx], chain.gradient_evals[idx]


def evaluate_trial(
    config: SamplerConfig, ef: EnergyFunction, eval_config: TuningEvalConfig, aux_seed: int
) -> TrialRecord:
    """Run one chain of ``config`` and score its decay rate.

    ``eval_config`` sets the autocorrelation grid; the chain length is
    ``config.n_samples``.  ``aux_seed`` drives the non-chain randomness
    (initial momentum and, for the jump sampler, the holding-time
    resampling).  A chain whose scored positions have no variance never
    decayed and scores 0.0, unless every row is R: such a jump chain never
    ran a trajectory it could accept, so it fails, as do integration and
    fit failures.
    """
    aux_rng = np.random.default_rng(aux_seed)
    v0 = aux_rng.standard_normal(ef.dim)
    objective = None
    try:
        chain = run_chain(config, ef, np.zeros(ef.dim), v0)
        series = autocorrelation(
            *unweighted_samples(chain, aux_rng),
            max_lag_evals=eval_config.max_lag_evals, n_lags=eval_config.n_lags,
        )
        objective = tuning_objective(fit_decay(series))
    except DegenerateChainError:
        if not np.all(chain.transitions == "R"):
            objective = 0.0
    except (IntegrationError, DecayFitError):
        pass
    return TrialRecord(config, "failed" if objective is None else "ok", objective)


def random_search(
    space: SearchSpace,
    budget: int,
    sampler: str,
    ef: EnergyFunction,
    eval_config: TuningEvalConfig = TuningEvalConfig(),
    seed: int = 0,
) -> tuple[TrialRecord, list[TrialRecord]]:
    """Sample ``budget`` settings and return (best trial, all trials).

    The best trial minimizes the decay-rate objective over trials that
    completed.  Raises if every trial failed.  The trials run longest
    first, by ``steps``, so that a long trial does not start last and
    leave the other processes idle; they are returned in draw order.
    """
    check_count("budget", budget)
    master = np.random.default_rng(seed)
    tasks = []
    for _ in range(budget):
        eps, beta, steps = space.draw(master)
        chain_seed = int(master.integers(2**63))
        aux_seed = int(master.integers(2**63))
        config = SamplerConfig(sampler, eps, steps, beta, eval_config.n_samples, chain_seed)
        tasks.append((config, ef, eval_config, aux_seed))
    order = sorted(range(budget), key=lambda i: tasks[i][0].steps, reverse=True)  # stable
    # evaluate_trial by its module-global name, which bench/hooks.py wraps
    done = map_ordered(lambda task: evaluate_trial(*task), [tasks[i] for i in order])
    trials = [trial for _, trial in sorted(zip(order, done), key=lambda pair: pair[0])]
    ok = [t for t in trials if t.status == "ok"]
    if not ok:
        raise RuntimeError("all tuning trials failed")
    best = min(ok, key=lambda t: t.objective)
    return best, trials
