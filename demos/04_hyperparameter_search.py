"""Random-search tuning of the jump sampler's three hyperparameters.

Samplers of this family live or die by (epsilon, beta, M).  The tuner draws
settings log-uniformly, scores each by the fitted autocorrelation decay
rate of a short pilot chain, and keeps the minimizer.  Integration
blow-ups at wild step sizes are recorded as failed trials, not crashes.

Budgets here are deliberately small so the demo runs in under a minute;
results sharpen with longer pilot chains.
"""

import numpy as np

from jumphmc import RoughWell, SearchSpace, TuningEvalConfig, random_search
from jumphmc.chainio import write_trials_csv

space = SearchSpace(
    epsilon_range=(0.1, 5.0),
    beta_range=(0.005, 0.9),
    steps_range=(2, 50),
)
eval_config = TuningEvalConfig(n_samples=1500, n_lags=80)

print("random search, 20 trials on the rough well ...")
best, trials = random_search(space, 20, "mjhmc", RoughWell(), eval_config, seed=7)

print(f"\n{'epsilon':>8} {'beta':>8} {'M':>4} {'status':>7} {'objective':>12}")
for t in sorted(trials, key=lambda t: np.inf if t.objective is None else t.objective):
    obj = "-" if t.objective is None else f"{t.objective:+.2e}"
    c = t.config
    print(f"{c.epsilon:8.3f} {c.beta:8.4f} {c.steps:4d} {t.status:>7} {obj:>12}")

print(
    f"\nbest: epsilon={best.config.epsilon:.3f} beta={best.config.beta:.4f} "
    f"M={best.config.steps} (objective {best.objective:+.3e})"
)
print("note the preference for large steps and a small momentum-corruption")
print("rate; the discrete-time control tunes to a smaller step size")

write_trials_csv("tuning_trials.csv", trials, seed=7)
print("\ntrials written to tuning_trials.csv")
