import numpy as np
import pytest

from jumphmc import (
    DiagonalGaussian,
    EnergyFunction,
    RoughWell,
    SamplerConfig,
    run_chain,
)


class FlatEnergy(EnergyFunction):
    """Constant energy: every proposal is accepted."""

    def __init__(self, dim=2):
        self.dim = dim

    def energy(self, x):
        return 0.0

    def gradient(self, x):
        return np.zeros(self.dim)


def test_flat_energy_always_accepts_and_advances():
    # zero gradient: momentum is constant, position advances by eps*steps*v
    config = SamplerConfig("hmc", epsilon=0.1, steps=5, beta=1e-12, n_samples=20, seed=0)
    v0 = np.array([1.0, -2.0])
    chain = run_chain(config, FlatEnergy(), np.zeros(2), v0)
    assert chain.acceptance_rate == 1.0
    for i in range(20):
        np.testing.assert_allclose(chain.positions[i], (i + 1) * 0.5 * v0, rtol=1e-12)


def test_downhill_proposals_always_accepted():
    # strongly biased start: the first proposal falls toward the origin
    ef = DiagonalGaussian.isotropic(1)
    accepted = 0
    trials = 200
    for seed in range(trials):
        config = SamplerConfig("hmc", epsilon=0.1, steps=5, beta=1.0, n_samples=1, seed=seed)
        chain = run_chain(config, ef, [3.0], [-0.5])
        # moving downhill from x=3 with inward momentum lowers H, so the
        # proposal must be taken: the position must have moved
        assert not np.array_equal(chain.positions[0], [3.0])
        accepted += 1
    assert accepted == trials


def test_gaussian_variance_recovered():
    ef = DiagonalGaussian.isotropic(1, precision=4.0)
    config = SamplerConfig("hmc", epsilon=0.1, steps=10, beta=0.5, n_samples=100_000, seed=1)
    chain = run_chain(config, ef, [0.0], [1.0])
    assert chain.positions.var() == pytest.approx(0.25, rel=0.05)
    assert chain.acceptance_rate > 0.5


def test_chain_deterministic_under_seed():
    config = SamplerConfig("hmc", epsilon=0.5, steps=3, beta=0.4, n_samples=300, seed=9)
    init = (np.zeros(2), np.array([1.0, 1.0]))
    a = run_chain(config, RoughWell(), *init)
    b = run_chain(config, RoughWell(), *init)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.accepted, b.accepted)


def test_acceptance_rate_at_reported_control_hyperparameters():
    # the published control optimum accepts some but not all proposals
    config = SamplerConfig("hmc", epsilon=0.591686, steps=25, beta=0.429956, n_samples=2000, seed=2)
    chain = run_chain(config, RoughWell(), np.zeros(2), np.ones(2))
    assert 0.0 < chain.acceptance_rate < 1.0


def test_single_step_chain():
    config = SamplerConfig("hmc", epsilon=0.2, steps=2, beta=0.5, n_samples=1, seed=3)
    chain = run_chain(config, DiagonalGaussian.isotropic(2), np.zeros(2), np.ones(2))
    assert len(chain) == 1
    assert chain.gradient_evals[0] > 0


def test_gradient_cost_equals_one_leapfrog_application():
    steps = 7
    config = SamplerConfig("hmc", epsilon=0.3, steps=steps, beta=0.5, n_samples=50, seed=4)
    ef = DiagonalGaussian.isotropic(2)
    chain = run_chain(config, ef, np.zeros(2), np.ones(2))
    # first step pays the initial gradient; later steps reuse the cached one
    assert chain.gradient_evals[0] == steps + 1
    np.testing.assert_array_equal(np.diff(chain.gradient_evals), steps)


def test_momentum_corruption_probability():
    # beta = 1 redraws momentum every step, so consecutive momenta decorrelate
    ef = DiagonalGaussian.isotropic(1)
    config = SamplerConfig("hmc", epsilon=0.05, steps=1, beta=1.0, n_samples=5000, seed=5)
    chain = run_chain(config, ef, [0.0], [1.0])
    v = chain.momenta[:, 0]
    corr = np.corrcoef(v[:-1], v[1:])[0, 1]
    assert abs(corr) < 0.05
    assert chain.momenta.var() == pytest.approx(1.0, rel=0.1)


def rejecting_chain():
    # with a huge step the proposal is (almost) always rejected; beta ~ 0
    # means no redraw
    ef = DiagonalGaussian.isotropic(1, precision=4.0)
    config = SamplerConfig("hmc", epsilon=1.9, steps=1, beta=1e-12, n_samples=60, seed=6)
    init = (np.array([0.3]), np.array([0.7]))
    return config, init, run_chain(config, ef, *init)


def test_rejection_flips_momentum():
    # the momentum should simply change sign at each rejection
    _, init, chain = rejecting_chain()
    rejected = ~chain.accepted
    assert rejected.sum() > 0
    x0, v0 = init
    prev_v = np.concatenate([[v0[0]], chain.momenta[:-1, 0]])
    prev_x = np.concatenate([[x0[0]], chain.positions[:-1, 0]])
    np.testing.assert_array_equal(chain.momenta[rejected, 0], -prev_v[rejected])
    np.testing.assert_array_equal(chain.positions[rejected, 0], prev_x[rejected])


def test_proposal_integrated_only_after_acceptance():
    # Without redraws, an accepted step leaves the next proposal missing
    # (L rule), and a rejected one hands the next step its proposal from
    # the cache (F rule: the old backward node flipped, which the cache
    # holds once the first step has run).  So from the third step on, a
    # step costs ``steps`` exactly when the step before it was accepted.
    config, _, chain = rejecting_chain()
    cost = np.diff(chain.gradient_evals)
    np.testing.assert_array_equal(cost[1:], config.steps * (chain.transitions[1:-1] == "L"))


def test_gaussian_variance_recovered_when_cache_hits_dominate():
    # epsilon * sqrt(precision) = 1.9 rejects often and redraws are rare,
    # so most proposals come from the cache instead of the integrator
    ef = DiagonalGaussian.isotropic(1, precision=4.0)
    config = SamplerConfig("hmc", epsilon=0.95, steps=2, beta=0.05, n_samples=50_000, seed=0)
    chain = run_chain(config, ef, [0.0], [1.0])
    hit_share = np.mean(np.diff(chain.gradient_evals) == 0)
    assert hit_share > 0.4
    assert chain.positions.var() * 4.0 == pytest.approx(1.0, rel=0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig("hmc", epsilon=0.1, steps=5, beta=0.0, n_samples=10)
    with pytest.raises(ValueError):
        SamplerConfig("hmc", epsilon=0.1, steps=5, beta=1.5, n_samples=10)
