"""Sampling the rough well with the jump-process sampler.

The rough well is a wide quadratic bowl (width 100) covered in sinusoidal
ripples (period 8).  The ripples force a small integrator step while the
bowl demands long trajectories, which is exactly the regime where running
HMC as a continuous-time jump process helps: transition rates may exceed 1,
so downhill moves fire almost instantly while barely-visited uphill states
are passed through quickly with small holding times.

The script runs one chain, inspects the race statistics, and shows that
holding-time weighting is what makes the visited states a fair sample.
"""

import numpy as np

from jumphmc import (
    PhaseState,
    RoughWell,
    SamplerConfig,
    run_chain,
    systematic_resample_indices,
    weighted_moments,
)
from jumphmc.chainio import write_chain_csv

ef = RoughWell()
config = SamplerConfig("mjhmc", epsilon=2.5, steps=25, beta=0.02, n_samples=20_000, seed=0)
init = PhaseState(np.zeros(2), np.random.default_rng(1).standard_normal(2))

print("running", config.n_samples, "jump-process steps on the rough well ...")
chain = run_chain(config, ef, init)

print("\n--- race statistics ---")
counts = chain.transition_counts()
for kind, label in (("L", "leapfrog"), ("F", "flip"), ("R", "momentum redraw")):
    share = counts.get(kind, 0) / len(chain)
    print(f"  {label:16s} {counts.get(kind, 0):6d} transitions ({share:5.1%})")
print(f"  total system time   {chain.holding_times.sum():10.1f}")
print(f"  gradient evals      {int(chain.gradient_evals[-1]):10d}")

print("\n--- holding times are importance weights ---")
mean, cov = weighted_moments(chain)
print(f"  weighted mean       {np.round(mean, 2)}")
print(f"  weighted std        {np.round(np.sqrt(np.diag(cov)), 1)}   (target scale ~100)")

# At this aggressive step size the race rates are exponentials of sizable
# energy-conservation errors, so the holding times span decades; that
# spread is precisely what the weighting (or resampling) accounts for.
q = np.percentile(chain.holding_times, [1, 50, 99])
print(f"  holding-time percentiles (1/50/99): {q[0]:.3f} / {q[1]:.3f} / {q[2]:.3f}")

# the momentum-redraw arm fires as a Poisson clock with rate beta, so its
# share of transitions should be about beta * total time / steps
expected_r = config.beta * chain.holding_times.sum() / len(chain)
print(f"  redraw share        {counts.get('R', 0) / len(chain):.3f} "
      f"(Poisson-clock prediction {expected_r:.3f})")

print("\n--- resampling to an unweighted chain ---")
idx = systematic_resample_indices(chain.holding_times, 10_000, np.random.default_rng(2))
xs = chain.positions[idx]
print(f"  resampled std       {np.round(xs.std(axis=0), 1)}")

write_chain_csv("rough_well_chain.csv", chain, config=config.__dict__, seed=config.seed)
print("\nchain written to rough_well_chain.csv")
