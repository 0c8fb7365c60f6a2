"""Random-search tuning of (epsilon, beta, steps) against the decay-rate objective.

Random search is enough at this problem scale and keeps the harness
dependency free; trials are independent, reproducible via per-trial derived
seeds, and failed integrations are recorded rather than fatal.  A chain
that never decorrelates scores 0.0, the worst finite decay rate, instead of
failing: a control that rejects every proposal, or a jump chain whose
holding-time resample puts every draw on one state.  A jump chain of
momentum resamples only (R rows) still fails: far past stability its
trajectories leave every L and F rate at exactly 0.  :func:`run_chain` is
the library's one way to run a chain of either sampler, shared with the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import MIN_FIT_LAGS, MIN_SAMPLES, autocorrelation, fit_decay, tuning_objective
from .energy import EnergyFunction
from .errors import DecayFitError, DegenerateChainError, IntegrationError
from .jump import Chain, SamplerConfig, hmc_chain, sample_chain, systematic_resample_indices
from .phase import PhaseState


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
        if not 0 < e_lo <= e_hi:
            raise ValueError("epsilon_range must satisfy 0 < lo <= hi")
        if not 0 < b_lo <= b_hi <= 1:
            raise ValueError("beta_range must lie in (0, 1] with lo <= hi")
        if not 1 <= s_lo <= s_hi:
            raise ValueError("steps_range must satisfy 1 <= lo <= hi")

    def draw(self, rng: np.random.Generator) -> tuple[float, float, int]:
        eps = float(np.exp(rng.uniform(*np.log(self.epsilon_range))))
        beta = float(np.exp(rng.uniform(*np.log(self.beta_range))))
        steps = int(rng.integers(self.steps_range[0], self.steps_range[1] + 1))
        return eps, beta, steps


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated hyperparameter setting; failed trials carry no objective."""

    epsilon: float
    beta: float
    steps: int
    sampler: str
    seed: int
    status: str
    objective: Optional[float] = None


@dataclass(frozen=True)
class TuningEvalConfig:
    """How each trial is scored: chain length and autocorrelation grid."""

    n_samples: int = 4000
    n_lags: int = 120
    max_lag_evals: Optional[float] = None

    def __post_init__(self):
        if self.n_samples < MIN_SAMPLES:
            raise ValueError(f"n_samples must be at least {MIN_SAMPLES}")
        if self.n_lags < MIN_FIT_LAGS:
            raise ValueError(f"n_lags must be at least {MIN_FIT_LAGS}")


def run_chain(config: SamplerConfig, ef: EnergyFunction, init: PhaseState) -> Chain:
    """Run one chain of the sampler that ``config`` names, from ``init``."""
    run = sample_chain if config.sampler == "mjhmc" else hmc_chain
    return run(config, ef, init)


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
    sampler: str,
    epsilon: float,
    beta: float,
    steps: int,
    ef: EnergyFunction,
    eval_config: TuningEvalConfig,
    chain_seed: int,
    aux_seed: int,
) -> TrialRecord:
    """Run one chain at the given setting and score its decay rate.

    ``aux_seed`` drives the non-chain randomness (initial momentum and, for
    the jump sampler, the holding-time resampling).  A chain whose scored
    positions have no variance never decayed and scores 0.0, unless every
    row is R: such a jump chain never ran a trajectory it could accept, so
    it fails, as do integration and fit failures.
    """
    config = SamplerConfig(sampler, epsilon, steps, beta, eval_config.n_samples, chain_seed)
    aux_rng = np.random.default_rng(aux_seed)
    init = PhaseState(np.zeros(ef.dim), aux_rng.standard_normal(ef.dim))
    objective = None
    try:
        chain = run_chain(config, ef, init)
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
    return TrialRecord(
        epsilon=epsilon, beta=beta, steps=steps, sampler=sampler, seed=chain_seed,
        status="failed" if objective is None else "ok", objective=objective,
    )


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
    completed.  Raises if every trial failed.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    master = np.random.default_rng(seed)
    trials = []
    for _ in range(budget):
        eps, beta, steps = space.draw(master)
        chain_seed = int(master.integers(2**63))
        aux_seed = int(master.integers(2**63))
        trials.append(
            evaluate_trial(sampler, eps, beta, steps, ef, eval_config, chain_seed, aux_seed)
        )
    ok = [t for t in trials if t.status == "ok"]
    if not ok:
        raise RuntimeError("all tuning trials failed")
    best = min(ok, key=lambda t: t.objective)
    return best, trials
