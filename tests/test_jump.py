import numpy as np
import pytest

from jumphmc import (
    CountingEnergy,
    DiagonalGaussian,
    EnergyFunction,
    IntegrationError,
    RoughWell,
    SamplerConfig,
    init_cache,
    run_chain,
    step,
    systematic_resample_indices,
    weighted_moments,
)
from jumphmc.jump import (
    Chain,
    StateCache,
    _exp,
    _holding_time,
    _log_rates,
    _log_waiting_times,
)
from jumphmc.energy import kinetic_energy
import jumphmc.jump as jump_module

LN2 = np.log(2.0)


def cache_on(orbit):
    """A cache at n = 0, d = +1 on a copy of ``orbit``, its nodes keyed by n in orientation +1."""
    cache = StateCache(orbit[0])
    cache.orbit.update(orbit)
    return cache


def pinned_cache(h_cur, h_fwd, h_bwd):
    """A synthetic cache with prescribed total energies."""
    g, v = np.zeros(1), np.zeros(1)
    return cache_on({
        0: (np.array([0.0]), v, g, h_cur, h_cur),
        1: (np.array([1.0]), v, g, h_fwd, h_fwd),
        -1: (np.array([-1.0]), v, g, h_bwd, h_bwd),
    })


def filled_cache(state, config, ef):
    """The cache at ``state = (x, v)`` with both neighbors integrated, as a chain start has it."""
    cache = init_cache(*state, ef)
    cache.fill(ef, config.epsilon, config.steps, backward=True)
    return cache


def waiting_times(log_gamma_L, log_gamma_F, beta, rng):
    """The three competing waiting times (L, F, R) of one race, as the sampler draws them."""
    return [_holding_time(lw) for lw in _log_waiting_times(log_gamma_L, log_gamma_F, beta, rng)]


def total_rate(log_gamma_L, log_gamma_F, beta):
    return _exp(log_gamma_L) + _exp(log_gamma_F) + beta


# a rough-well state where all three arms of the race have sizeable rates
PINNED_ROUGH = (np.array([-1.69921191, -1.02124494]), np.array([-0.01153306, -1.48537518]))
CFG = SamplerConfig("mjhmc", epsilon=0.5, steps=3, beta=0.25, n_samples=10, seed=0)
GAUSS_2D = DiagonalGaussian.isotropic(2)


class TestComputeRates:
    def test_flat_energy(self):
        log_gamma_L, log_gamma_F = _log_rates(pinned_cache(1.0, 1.0, 1.0))
        assert _exp(log_gamma_L) == pytest.approx(1.0)
        assert _exp(log_gamma_F) == 0.0

    def test_uphill_forward(self):
        log_gamma_L, log_gamma_F = _log_rates(pinned_cache(0.0, 2 * LN2, 0.0))
        assert _exp(log_gamma_L) == pytest.approx(0.5)
        assert _exp(log_gamma_F) == pytest.approx(0.5)

    def test_downhill_rate_above_one(self):
        # rates are Poisson rates, not probabilities: values above 1 are legal
        log_gamma_L, log_gamma_F = _log_rates(pinned_cache(0.0, -2 * LN2, 2 * LN2))
        assert _exp(log_gamma_L) == pytest.approx(2.0)
        assert _exp(log_gamma_F) == 0.0


class TestWaitingTimes:
    def test_zero_flip_rate_never_wins(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            _, w_f, _ = waiting_times(0.0, -np.inf, 0.5, rng)
            assert w_f == np.inf

    def test_min_is_exponential_with_total_rate(self):
        rng = np.random.default_rng(1)
        log_rates = (np.log(0.7), np.log(0.3), 0.5)
        mins = np.array([min(waiting_times(*log_rates, rng)) for _ in range(100_000)])
        assert mins.mean() == pytest.approx(1.0 / total_rate(*log_rates), rel=0.02)

    def test_two_way_race_fractions(self):
        # competing exponentials with rates (1, 3): second arm wins 75%
        rng = np.random.default_rng(2)
        n = 100_000
        wins = 0
        for _ in range(n):
            w_l, w_f, w_r = waiting_times(0.0, np.log(3.0), 1e-300, rng)
            wins += w_f < w_l and w_f < w_r
        sigma = np.sqrt(0.75 * 0.25 / n)
        assert abs(wins / n - 0.75) <= 3 * sigma


class TestStep:
    def test_huge_beta_dominates(self):
        config = SamplerConfig("mjhmc", epsilon=0.5, steps=1, beta=1e12, n_samples=10_000, seed=3)
        chain = run_chain(config, GAUSS_2D, np.zeros(2), np.ones(2))
        counts = chain.transition_counts()
        assert counts.get("R", 0) / len(chain) >= 0.999

    def test_fixed_seed_reproducible(self):
        config = SamplerConfig("mjhmc", epsilon=0.7, steps=4, beta=0.3, n_samples=500, seed=11)
        init = (np.zeros(2), np.array([1.0, -1.0]))
        a = run_chain(config, RoughWell(), *init)
        b = run_chain(config, RoughWell(), *init)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.holding_times, b.holding_times)
        np.testing.assert_array_equal(a.transitions, b.transitions)

    def test_race_frequencies_at_pinned_state(self):
        # repeated races from one state follow the multinomial rate shares
        ef = RoughWell()
        config = SamplerConfig("mjhmc", epsilon=1.0, steps=3, beta=0.5, n_samples=1, seed=0)
        cache = filled_cache(PINNED_ROUGH, config, ef)
        log_gamma_L, log_gamma_F = _log_rates(cache)
        rates = np.array([_exp(log_gamma_L), _exp(log_gamma_F), config.beta])
        probs = rates / total_rate(log_gamma_L, log_gamma_F, config.beta)
        assert rates[1] > 0.1  # the state genuinely exercises all three arms

        rng = np.random.default_rng(5)
        n = 100_000
        counts = {"L": 0, "F": 0, "R": 0}
        orbit = dict(cache.orbit)
        for _ in range(n):
            kind, _ = step(cache_on(orbit), config, ef, rng)  # step updates its cache
            counts[kind] += 1
        freqs = np.array([counts["L"], counts["F"], counts["R"]]) / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        np.testing.assert_array_less(np.abs(freqs - probs), 3 * sigma)

    @pytest.mark.parametrize("waits, kind", [
        ((0.0, 0.0, 0.0), "L"), ((0.0, 1.0, 0.0), "L"), ((0.0, 0.0, 1.0), "L"),
        ((1.0, 0.0, 0.0), "F"), ((1.0, 0.5, 0.5), "F"), ((1.0, 1.0, 0.5), "R"),
        ((1.0, 2.0, 1.0), "L"), ((2.0, 1.0, 1.0), "F"),
    ])
    def test_ties_resolve_l_then_f_then_r(self, monkeypatch, waits, kind):
        # equal log waits (a measure-zero event) go to the first arm in L, F, R order
        monkeypatch.setattr(jump_module, "_log_waiting_times", lambda *args: waits)
        config = SamplerConfig("mjhmc", epsilon=0.5, steps=3, beta=0.25, n_samples=1, seed=0)
        cache = filled_cache(PINNED_ROUGH, config, RoughWell())
        assert step(cache, config, RoughWell(), np.random.default_rng(0)) == (
            kind, _holding_time(min(waits)))

    def test_cache_reuse_after_l_transition(self):
        # the backward node of the new state is the old state's stored node,
        # and the new state the stored forward node: the same objects
        ef = GAUSS_2D
        config = SamplerConfig("mjhmc", epsilon=0.6, steps=2, beta=0.2, n_samples=1, seed=9)
        rng = np.random.default_rng(9)
        state = (np.array([0.5, -0.2]), np.array([1.0, 0.3]))
        cache = filled_cache(state, config, ef)
        for _ in range(200):
            current, forward = cache.orbit[cache.n], cache.orbit[cache.n + cache.d]
            kind, _ = step(cache, config, ef, rng)
            if kind == "L":
                assert cache.node(-1)[4] == current[4]
                assert cache.orbit[cache.n - cache.d] is current
                assert cache.orbit[cache.n] is forward
                assert cache.node()[4] == forward[4]


class TestSampleChain:
    def test_single_sample_is_init(self):
        config = SamplerConfig("mjhmc", epsilon=0.5, steps=2, beta=0.5, n_samples=1, seed=0)
        x0, v0 = np.array([0.3, 0.4]), np.array([-1.0, 2.0])
        chain = run_chain(config, GAUSS_2D, x0, v0)
        assert len(chain) == 1
        np.testing.assert_array_equal(chain.positions[0], x0)
        np.testing.assert_array_equal(chain.momenta[0], v0)
        assert chain.holding_times[0] > 0

    def test_gaussian_weighted_mean_near_zero(self):
        config = SamplerConfig("mjhmc", epsilon=0.9, steps=5, beta=0.1, n_samples=20_000, seed=4)
        chain = run_chain(config, GAUSS_2D, np.zeros(2), np.ones(2))
        mean, cov = weighted_moments(chain)
        # batch-means standard error absorbs the autocorrelation
        n_batches = 50
        batches = np.array_split(np.arange(len(chain)), n_batches)
        batch_means = np.array(
            [
                chain.holding_times[b] @ chain.positions[b] / chain.holding_times[b].sum()
                for b in batches
            ]
        )
        se = batch_means.std(axis=0, ddof=1) / np.sqrt(n_batches)
        assert np.all(np.abs(mean) <= 3 * se)
        np.testing.assert_allclose(np.diag(cov), 1.0, rtol=0.10)

    def test_rough_well_at_reported_hyperparameters(self):
        # the published optimum for this sampler on the rough well
        config = SamplerConfig(
            "mjhmc", epsilon=3.0, steps=25, beta=0.012314, n_samples=100_000, seed=0
        )
        v0 = np.random.default_rng(1).standard_normal(2)
        chain = run_chain(config, RoughWell(), np.zeros(2), v0)
        assert len(chain) == 100_000
        assert np.all(np.isfinite(chain.positions))
        assert np.all(chain.holding_times > 0)
        assert np.all(np.diff(chain.gradient_evals) >= 0)

    def test_no_self_transitions(self):
        config = SamplerConfig("mjhmc", epsilon=0.5, steps=2, beta=0.4, n_samples=2000, seed=6)
        chain = run_chain(config, GAUSS_2D, np.zeros(2), np.ones(2))
        same_x = np.all(chain.positions[1:] == chain.positions[:-1], axis=1)
        same_v = np.all(chain.momenta[1:] == chain.momenta[:-1], axis=1)
        assert not np.any(same_x & same_v)

    def test_integration_failure_keeps_partial_chain(self):
        class WalledGaussian(EnergyFunction):
            # finite quadratic bowl that becomes infinite outside a radius
            dim = 1

            def energy(self, x):
                return 0.5 * float(x[0] ** 2) if abs(x[0]) < 2.0 else np.inf

            def gradient(self, x):
                return np.asarray(x, dtype=float)

        config = SamplerConfig("mjhmc", epsilon=0.8, steps=4, beta=0.5, n_samples=10_000, seed=12)
        with pytest.raises(IntegrationError) as excinfo:
            run_chain(config, WalledGaussian(), [0.0], [0.1])
        partial = excinfo.value.partial_chain
        assert partial is not None
        assert 0 < len(partial) < 10_000

    def test_holding_time_mean_matches_rate_law(self):
        # sojourn time at a pinned state is exponential with the total rate
        ef = RoughWell()
        config = SamplerConfig("mjhmc", epsilon=1.0, steps=3, beta=0.5, n_samples=1, seed=0)
        log_rates = (*_log_rates(filled_cache(PINNED_ROUGH, config, ef)), config.beta)
        rng = np.random.default_rng(7)
        mins = np.array([min(waiting_times(*log_rates, rng)) for _ in range(20_000)])
        assert mins.mean() == pytest.approx(1.0 / total_rate(*log_rates), rel=0.02)

    def test_chain_rows_replay_step(self):
        # row i holds the state step() left, its holding time, the kind and
        # the cumulative cost: replaying the races reproduces every row
        config = SamplerConfig("mjhmc", epsilon=0.5, steps=2, beta=0.3, n_samples=50, seed=2)
        init = (np.zeros(2), np.ones(2))
        chain = run_chain(config, GAUSS_2D, *init)
        ef = CountingEnergy(GAUSS_2D)
        rng = np.random.default_rng(config.seed)
        cache = filled_cache(init, config, ef)
        for i in range(len(chain)):
            x, v, _, _, _ = cache.node()
            kind, holding_time = step(cache, config, ef, rng)
            np.testing.assert_array_equal(chain.positions[i], x)
            np.testing.assert_array_equal(chain.momenta[i], v)
            assert chain.holding_times[i] == holding_time
            assert chain.transitions[i] == kind
            assert chain.gradient_evals[i] == ef.gradient_calls

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig("mjhmc", epsilon=0.5, steps=2, beta=0.0, n_samples=10)
        with pytest.raises(ValueError):
            SamplerConfig("mjhmc", epsilon=0.5, steps=2, beta=0.5, n_samples=0)


NON_FINITE = [
    (sampler, field, value)
    for sampler in ("mjhmc", "hmc")
    for field in ("epsilon", "beta")
    for value in (np.nan, np.inf)
]


@pytest.mark.parametrize(
    "sampler, field, value",
    NON_FINITE + [("nuts", "sampler", "nuts")],
    ids=[f"{s}-{f}-{v}" for s, f, v in NON_FINITE] + ["unknown-kind"],
)
def test_sampler_config_refuses_non_finite_or_unknown(sampler, field, value):
    # a nan beta would leave the jump sampler's R clock never winning, an inf
    # one every holding time at the smallest float, and a non-finite epsilon
    # would fail only at the first trajectory
    fields = dict(sampler=sampler, epsilon=0.5, steps=2, beta=0.5, n_samples=10)
    with pytest.raises(ValueError, match=field):
        SamplerConfig(**dict(fields, **{field: value}))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("steps", 2.5, "steps must be an integer"),
        ("steps", True, "steps must be an integer, not a bool"),
        ("n_samples", 10.5, "n_samples must be an integer"),
        ("n_samples", True, "n_samples must be an integer, not a bool"),
    ],
    ids=["steps-float", "steps-bool", "n_samples-float", "n_samples-bool"],
)
def test_sampler_config_refuses_non_integral_counts(field, value, message):
    # a float count used to pass here and kill the chain loop with a
    # TypeError, and steps=True ran as one leapfrog step
    fields = dict(sampler="mjhmc", epsilon=0.5, steps=2, beta=0.2, n_samples=10)
    with pytest.raises(ValueError, match=f"^{message}$"):
        SamplerConfig(**dict(fields, **{field: value}))


def test_sampler_config_accepts_numpy_integer_counts():
    config = SamplerConfig("hmc", 0.5, np.int64(2), 0.5, np.int32(10))
    assert config.steps == 2 and config.n_samples == 10


class TestResample:
    def test_uniform_weights_near_uniform_multiplicity(self):
        rng = np.random.default_rng(0)
        weights = np.ones(100)
        idx = systematic_resample_indices(weights, 10_000, rng)
        counts = np.bincount(idx, minlength=100)
        # systematic resampling at equal weights gives each input n_out/N copies
        np.testing.assert_array_equal(counts, np.full(100, 100))

    def test_weight_proportionality(self):
        rng = np.random.default_rng(1)
        idx = systematic_resample_indices(np.array([3.0, 1.0]), 10_000, rng)
        first = int(np.sum(idx == 0))
        sigma = np.sqrt(10_000 * 0.75 * 0.25)
        assert abs(first - 7500) <= 3 * sigma

    def test_single_input_copies(self):
        config = SamplerConfig("mjhmc", epsilon=0.5, steps=2, beta=0.5, n_samples=1, seed=0)
        chain = run_chain(config, GAUSS_2D, np.zeros(2), np.ones(2))
        idx = systematic_resample_indices(chain.holding_times, 7, np.random.default_rng(0))
        out = chain.positions[idx]
        assert len(out) == 7
        for x in out:
            np.testing.assert_array_equal(x, chain.positions[0])

    def test_resampled_indices_are_sorted(self):
        rng = np.random.default_rng(3)
        idx = systematic_resample_indices(rng.uniform(0.1, 2.0, size=500), 1000, rng)
        assert np.all(np.diff(idx) >= 0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            systematic_resample_indices(np.array([]), 5, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2, 400, 3000])
    def test_offset_just_below_one_stays_in_range(self, n):
        # (u + n - 1) / n rounds to 1.0 at u = 1 - 2**-53, where searchsorted
        # alone returns n, one past the last weight
        class TopOffset:
            def random(self):
                return 1.0 - 2.0**-53

        idx = systematic_resample_indices(np.ones(n), n, TopOffset())
        assert idx.max() == n - 1


class TestWeightedMoments:
    def test_uniform_weights_reduce_to_ordinary_moments(self):
        rng = np.random.default_rng(4)
        positions = rng.normal(size=(500, 2))
        chain = Chain(
            sampler="mjhmc",
            positions=positions,
            momenta=np.zeros((500, 2)),
            holding_times=np.ones(500),
            transitions=np.full(500, "L"),
            gradient_evals=np.arange(500),
        )
        mean, cov = weighted_moments(chain)
        np.testing.assert_allclose(mean, positions.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(cov, np.cov(positions.T, ddof=0), rtol=1e-10)

    def test_gaussian_variance_recovered(self):
        ef = DiagonalGaussian.isotropic(1, precision=4.0)
        config = SamplerConfig("mjhmc", epsilon=0.4, steps=5, beta=0.3, n_samples=100_000, seed=8)
        chain = run_chain(config, ef, [0.0], [1.0])
        _, cov = weighted_moments(chain)
        assert cov[0, 0] == pytest.approx(0.25, rel=0.05)

    def test_single_sample_zero_covariance(self):
        config = SamplerConfig("mjhmc", epsilon=0.5, steps=2, beta=0.5, n_samples=1, seed=0)
        chain = run_chain(config, GAUSS_2D, np.zeros(2), np.ones(2))
        _, cov = weighted_moments(chain)
        np.testing.assert_array_equal(cov, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# one neighbor-cache rule per transition kind

ROUGH_PUBLISHED = SamplerConfig(
    "mjhmc", epsilon=3.0, steps=25, beta=0.012314, n_samples=3000, seed=5
)
def rough_chain(config=ROUGH_PUBLISHED):
    v0 = np.random.default_rng(1).standard_normal(2)
    return run_chain(config, RoughWell(), np.zeros(2), v0)


def orbit_costs(transitions, steps):
    """Each row's gradient cost under the orbit rule, from the transition kinds alone.

    Between redraws the nodes the chain has reached form one run n = lo..hi
    of the orbit around its start, n = 0.  The cache update after an L
    transition (n += d) integrates the new forward node n + d only when it
    lies outside that run; F (d = -d) reuses both neighbors; R starts a new
    orbit and integrates both neighbors of its start.
    """
    n, d, lo, hi = 0, 1, -1, 1
    costs = []
    for kind in transitions:
        cost = 0
        if kind == "L":
            n += d
            if not lo <= n + d <= hi:
                lo, hi, cost = min(lo, n + d), max(hi, n + d), steps
        elif kind == "F":
            d = -d
        else:
            n, d, lo, hi, cost = 0, 1, -1, 1, 2 * steps
        costs.append(cost)
    return np.array(costs)


class TestCacheRules:
    def test_gradient_cost_per_transition_kind(self):
        # the increment from row i-1 to row i is the cache update after row
        # i's transition: an L integrates only a node new to the epoch, F
        # reuses both neighbors, R starts a new orbit
        chain = rough_chain()
        m = ROUGH_PUBLISHED.steps
        kinds = chain.transitions
        counts = chain.transition_counts()
        assert set(counts) == {"L", "F", "R"}
        costs = orbit_costs(kinds, m)
        np.testing.assert_array_equal(np.diff(chain.gradient_evals), costs[1:])
        # the chain start pays g0 plus both neighbors
        assert chain.gradient_evals[0] == 2 * m + 1 + costs[0]
        new_nodes = int(np.sum((kinds == "L") & (costs == m)))
        assert chain.energy_evals == 3 + new_nodes + 2 * counts["R"]
        # both kinds of L ran: some reached new nodes, some stored ones
        assert 0 < new_nodes < counts["L"]

    @pytest.mark.parametrize("sampler", ["mjhmc", "hmc"])
    @pytest.mark.parametrize("target", [RoughWell, DiagonalGaussian])
    def test_chain_calls_energy_only_at_its_start(self, sampler, target):
        # every later potential comes with its trajectory, from the kernel
        class EnergySpy(target):
            calls = 0

            def energy(self, x):
                EnergySpy.calls += 1
                return super().energy(x)

        ef = EnergySpy() if target is RoughWell else EnergySpy(np.array([1.0, 4.0]))
        config = SamplerConfig(sampler, epsilon=0.4, steps=5, beta=0.3, n_samples=200, seed=2)
        chain = run_chain(config, ef, np.zeros(2), np.ones(2))
        assert EnergySpy.calls == 1
        assert chain.energy_evals == 1 + chain.gradient_evals[-1] // config.steps

    def test_endpoint_with_infinite_potential_fails_the_fill(self):
        # a finite trajectory whose energy overflows: the node raises, carrying its endpoint
        ef = CountingEnergy(DiagonalGaussian(np.logspace(0.0, 2.0, 50)))
        x0, v0 = np.full(50, 3.0), np.ones(50)
        x, v, _, potential = ef.inner.trajectory(x0, v0, ef.inner.gradient(x0), 3.0, 55)
        assert potential == np.inf and np.isfinite(x).all()
        cache = init_cache(x0, v0, ef)
        with pytest.raises(IntegrationError, match="^non-finite energy encountered$") as err:
            cache.fill(ef, 3.0, 55)
        np.testing.assert_array_equal(err.value.x, x)
        np.testing.assert_array_equal(err.value.v, v)
        assert list(cache.orbit) == [0]  # the cache is left as it was
        assert (ef.gradient_calls, ef.energy_calls) == (1 + 55, 2)

    def test_flip_swap_matches_recomputation(self):
        # from a fresh cache, the F rule equals integrating F zeta anew,
        # bit for bit, and evaluates nothing
        ef = CountingEnergy(RoughWell())
        config = SamplerConfig("mjhmc", epsilon=1.0, steps=3, beta=0.5, n_samples=1, seed=0)
        x0, v0 = PINNED_ROUGH
        fresh = filled_cache(PINNED_ROUGH, config, ef)
        orbit = dict(fresh.orbit)
        for seed in range(100):
            calls = (ef.gradient_calls, ef.energy_calls)
            cache = cache_on(orbit)
            kind, _ = step(cache, config, ef, np.random.default_rng(seed))
            if kind == "F":
                break
        else:
            pytest.fail("no F transition in 100 races")
        assert (ef.gradient_calls, ef.energy_calls) == calls

        g0 = ef.inner.gradient(x0)
        fwd = ef.inner.trajectory(x0, -v0, g0, config.epsilon, config.steps)[:3]
        xb, vb, gb, _ = ef.inner.trajectory(x0, v0, g0, config.epsilon, config.steps)
        bwd = (xb, -vb, gb)  # L^-1 F = F L
        for (x, v, g, _, h), (ref_x, ref_v, ref_g) in ((cache.node(1), fwd), (cache.node(-1), bwd)):
            np.testing.assert_array_equal(x, ref_x)
            np.testing.assert_array_equal(v, ref_v)
            np.testing.assert_array_equal(g, ref_g)
            assert h == ef.inner.energy(ref_x) + kinetic_energy(ref_v)
        np.testing.assert_array_equal(cache.node()[1], -v0)
        assert cache.node()[4] == orbit[0][4]

    def test_flip_after_leapfrog_retraces_exactly(self):
        # L, F, L returns to the flipped start: the F rule hands the stored
        # pre-L node back as the forward neighbor
        chain = rough_chain(
            SamplerConfig("mjhmc", epsilon=3.0, steps=25, beta=0.012314, n_samples=5000, seed=0)
        )
        t = chain.transitions
        rows = np.flatnonzero((t[:-3] == "L") & (t[1:-2] == "F") & (t[2:-1] == "L")) + 1
        assert rows.size > 100
        np.testing.assert_array_equal(chain.positions[rows + 2], chain.positions[rows - 1])
        np.testing.assert_array_equal(chain.momenta[rows + 2], -chain.momenta[rows - 1])

    @pytest.mark.parametrize("epsilon", [1.0, 2.0, 3.0])
    def test_retrace_returns_the_stored_node(self, epsilon):
        # After an F, the L transitions that walk back reach nodes the epoch
        # already holds, and the chain's state there is the stored node, bit
        # for bit.  A re-integrated node would differ: from epsilon 2 on the
        # rough well's leapfrog round trip is not reversible in floating point.
        chain = rough_chain(SamplerConfig("mjhmc", epsilon, 25, 0.012314, 3000, seed=5))
        first = {}  # n -> (x, v in orientation +1) at the epoch's first visit of node n
        n, d, previous, retraced = 0, 1, None, 0
        for x, v, kind in zip(chain.positions, chain.momenta, chain.transitions):
            if n not in first:
                first[n] = (x, d * v)
            elif previous == "L":
                np.testing.assert_array_equal(x, first[n][0])
                np.testing.assert_array_equal(d * v, first[n][1])
                retraced += 1
            if kind == "L":
                n += d
            elif kind == "F":
                d = -d
            else:
                n, d, first = 0, 1, {}
            previous = kind
        assert retraced > 500

    def test_redraw_keeps_only_the_new_orbit_start(self):
        # memory is bounded by one epoch: R drops every node of the old orbit
        ef = RoughWell()
        config = SamplerConfig("mjhmc", epsilon=3.0, steps=25, beta=0.5, n_samples=1, seed=0)
        cache = filled_cache((np.zeros(2), np.ones(2)), config, ef)

        for _ in range(4):
            cache.leap()
            cache.fill(ef, config.epsilon, config.steps, backward=True)
        cache.flip()
        assert len(cache.orbit) == 7  # n = -1..5
        x = cache.node()[0]
        assert list(cache.flips) == [4]  # the current node, read in orientation -1
        cache.redraw(np.random.default_rng(0))
        assert len(cache.orbit) == 1 and not cache.flips
        assert cache.node()[0] is x
        cache.fill(ef, config.epsilon, config.steps, backward=True)
        assert len(cache.orbit) == 3

    def test_flip_heavy_weighted_moments(self):
        # epsilon * sqrt(3.8) = 1.95, just inside the stability limit of 2:
        # about 21% of transitions are F, so the swap rule carries the chain.
        # Over seeds 0-29 the variance x precision ratio had standard
        # deviation 0.030 (precision 1) and 0.019 (precision 3.8), largest
        # |ratio - 1| 0.066; the tolerance is 4 of the wider deviation.
        precision = np.array([1.0, 3.8])
        config = SamplerConfig("mjhmc", epsilon=1.0, steps=5, beta=0.1, n_samples=50_000, seed=0)
        v0 = np.random.default_rng(100).standard_normal(2)
        chain = run_chain(config, DiagonalGaussian(precision), np.zeros(2), v0)
        assert chain.transition_counts()["F"] / len(chain) > 0.15
        mean, cov = weighted_moments(chain)
        n_batches = 50
        batches = np.array_split(np.arange(len(chain)), n_batches)
        batch_means = np.array(
            [
                chain.holding_times[b] @ chain.positions[b] / chain.holding_times[b].sum()
                for b in batches
            ]
        )
        se = batch_means.std(axis=0, ddof=1) / np.sqrt(n_batches)
        assert np.all(np.abs(mean) <= 3 * se)
        np.testing.assert_allclose(np.diag(cov) * precision, 1.0, atol=0.12)


# ---------------------------------------------------------------------------
# rates whose exponentials overflow


class TestRateOverflow:
    def test_overflowing_forward_rate_is_finite_in_log(self):
        log_gamma_L, log_gamma_F = _log_rates(pinned_cache(0.0, -4000.0, 0.0))
        assert log_gamma_L == 2000.0
        assert _exp(log_gamma_L) == np.inf
        assert _exp(log_gamma_F) == 0.0 and log_gamma_F == -np.inf

    def test_flip_rate_from_two_overflowing_exponentials(self):
        # gamma_F = e^1001 - e^1000: both terms overflow, their log does not
        _, log_gamma_F = _log_rates(pinned_cache(0.0, -2000.0, -2002.0))
        assert log_gamma_F == pytest.approx(1001.0 + np.log1p(-np.exp(-1.0)), rel=1e-15)

    def test_race_consumes_three_exponentials(self):
        cache = pinned_cache(0.0, -4000.0, 0.0)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        kind, holding_time = step(cache, CFG, DiagonalGaussian.isotropic(1), rng)
        ref.standard_exponential(3)
        assert kind == "L"
        assert holding_time == np.finfo(float).tiny
        assert rng.random() == ref.random()

    @pytest.mark.parametrize(
        "x0, epsilon, steps",
        [((300.0, 300.0), 1.9, 5), ((1e4, 0.0), 1.99, 50)],
    )
    def test_far_start_holding_times_positive(self, x0, epsilon, steps):
        # starts far out in the tail: the energy drop along L overflows exp
        config = SamplerConfig(
            "mjhmc", epsilon=epsilon, steps=steps, beta=0.01, n_samples=3000, seed=0
        )
        with np.errstate(all="raise"):
            chain = run_chain(config, GAUSS_2D, np.array(x0), np.zeros(2))
        h = chain.holding_times
        assert np.all(np.isfinite(h)) and np.all(h > 0)
        assert np.any(h == np.finfo(float).tiny)  # the clamped, overflowing states
        idx = systematic_resample_indices(h, 100, np.random.default_rng(0))
        assert len(chain.positions[idx]) == 100
        mean, cov = weighted_moments(chain)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))
