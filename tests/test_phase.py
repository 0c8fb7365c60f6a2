"""Phase-space tests: the leapfrog operator L as the targets' ``trajectory``
runs it, the F and R rules of the sampler cache, and the start (x, v) of
a chain."""

import numpy as np
import pytest

from jumphmc import (
    CountingEnergy,
    DiagonalGaussian,
    DimensionError,
    EnergyFunction,
    IntegrationError,
    RoughWell,
    SamplerConfig,
    init_cache,
    run_chain,
)
from jumphmc import tuner
from jumphmc.energy import kinetic_energy
from jumphmc.phase import leapfrog_with_grad

UNIT_1D = DiagonalGaussian.isotropic(1)
CHAIN_FIELDS = ("positions", "momenta", "holding_times", "transitions", "gradient_evals")


def random_states(rng, n, dim=2, scale=2.0):
    return [(rng.normal(scale=scale, size=dim), rng.standard_normal(dim)) for _ in range(n)]


def leapfrog(ef, state, epsilon, steps):
    """L of ``state = (x, v)`` by the target's trajectory: (x, v, grad) at the endpoint."""
    x, v = state
    return ef.trajectory(x, v, ef.gradient(x), epsilon, steps)[:3]


def filled_cache(state, epsilon, steps, ef):
    """The sampler cache at ``state`` with both neighbors integrated."""
    cache = init_cache(*state, ef)
    cache.fill(ef, epsilon, steps, backward=True)
    return cache


def backward(state, epsilon, steps, ef):
    """L^-1 of ``state``: the backward node of a filled sampler cache."""
    x, v, _, _, _ = filled_cache(state, epsilon, steps, ef).backward
    return x, v


def test_phase_state_validation():
    # a chain starts from a 1-D position and a momentum of the same shape
    for sampler in ("mjhmc", "hmc"):
        config = SamplerConfig(sampler, 0.1, 1, 0.5, 2)
        for x, v in ((np.zeros(2), np.zeros(3)), (np.zeros((1, 2)), np.zeros((1, 2)))):
            with pytest.raises(DimensionError):
                run_chain(config, DiagonalGaussian.isotropic(2), x, v)


@pytest.mark.parametrize(
    "x, v",
    [([1.0, 2.0], [3.0, 4.0]), (np.array([1, 2]), np.array([3, 4])),
     (np.float32([1, 2]), np.array([3.0, 4.0])), (np.array(1.5), np.array([2.0])),
     (np.array([1.5]), np.array(2.0))],
)
def test_phase_state_converts_other_inputs(x, v):
    # run_chain converts the start once: a list, int, float32 or 0-d start
    # runs the chain of its 1-D float64 arrays
    x64, v64 = (np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (x, v))
    ef = DiagonalGaussian.isotropic(x64.size)
    for sampler in ("mjhmc", "hmc"):
        config = SamplerConfig(sampler, 0.3, 3, 0.5, 20, seed=1)
        chain, ref = run_chain(config, ef, x, v), run_chain(config, ef, x64, v64)
        for name in CHAIN_FIELDS:
            np.testing.assert_array_equal(getattr(chain, name), getattr(ref, name))
        if sampler == "mjhmc":  # the first jump row is the start itself
            np.testing.assert_array_equal(chain.positions[0], np.atleast_1d(x))
            np.testing.assert_array_equal(chain.momenta[0], np.atleast_1d(v))


def test_phase_state_keeps_valid_arrays(monkeypatch):
    # a 1-D float64 start reaches the sampler as the same objects, unwritten
    x, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    config = SamplerConfig("mjhmc", 0.3, 3, 0.5, 50)
    run_chain(config, DiagonalGaussian.isotropic(2), x, v)
    np.testing.assert_array_equal(x, [1.0, 2.0])
    np.testing.assert_array_equal(v, [3.0, 4.0])
    seen = []
    monkeypatch.setattr(tuner, "sample_chain",
                        lambda config, ef, x0, v0, blocks: seen.append((x0, v0)))
    run_chain(config, DiagonalGaussian.isotropic(2), x, v)
    assert seen[0][0] is x and seen[0][1] is v


def test_leapfrog_params_validation():
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        SamplerConfig("mjhmc", 0.0, 1, 0.5, 10)
    with pytest.raises(ValueError):
        SamplerConfig("mjhmc", 0.1, 0, 0.5, 10)
    for steps in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="steps must be an integer"):
            SamplerConfig("mjhmc", 0.1, steps, 0.5, 10)


def test_leapfrog_with_grad_runs_the_trajectory():
    # the one-call form of L: (x, v) and (epsilon, steps) in, grad0 fourth
    ef = RoughWell()
    x, v = np.array([1.0, -0.5]), np.array([0.3, 0.7])
    ref = ef.trajectory(x, v, ef.gradient(x), 0.5, 7)
    for out in (leapfrog_with_grad((x, v), (0.5, 7), ef),
                leapfrog_with_grad((x, v), (0.5, 7), ef, ef.gradient(x))):
        for a, b in zip(out, ref, strict=True):
            np.testing.assert_array_equal(a, b)


def test_tiny_step_is_near_identity():
    x, v = np.array([1.0, -0.5]), np.array([0.3, 0.7])
    out_x, out_v, _ = leapfrog(RoughWell(), (x, v), 1e-12, 1)
    np.testing.assert_allclose(out_x, x, atol=1e-10)
    np.testing.assert_allclose(out_v, v, atol=1e-10)


def test_harmonic_oscillator_single_step():
    # hand-executed half-kick / drift / half-kick on E = x^2/2 from (1, 0):
    # v_half = -0.05, x' = 0.995, v' = -0.05 - 0.05 * 0.995 = -0.09975
    out_x, out_v, _ = leapfrog(UNIT_1D, (np.array([1.0]), np.array([0.0])), 0.1, 1)
    assert out_x[0] == pytest.approx(0.995, rel=1e-15)
    assert out_v[0] == pytest.approx(-0.09975, rel=1e-15)


def test_harmonic_oscillator_inverse_recovers_start():
    fx, fv, _ = leapfrog(UNIT_1D, (np.array([1.0]), np.array([0.0])), 0.1, 1)
    back_x, back_v = backward((fx, fv), 0.1, 1, UNIT_1D)
    np.testing.assert_allclose(back_x, [1.0], atol=1e-12)
    np.testing.assert_allclose(back_v, [0.0], atol=1e-12)


@pytest.mark.parametrize("epsilon", [0.1, 1.0])
@pytest.mark.parametrize("steps", [1, 25])
@pytest.mark.parametrize(
    "ef", [RoughWell(), DiagonalGaussian(np.array([1.0, 0.25]))]
)
def test_flfl_reversibility(epsilon, steps, ef):
    # F L F L = I: exact in exact arithmetic, 1e-9 relative in floats
    rng = np.random.default_rng(21)
    for x, v in random_states(rng, 25):
        fx, fv, _ = leapfrog(ef, (x, v), epsilon, steps)
        bx, bv, _ = leapfrog(ef, (fx, -fv), epsilon, steps)
        orig = np.concatenate([x, v])
        diff = np.concatenate([bx - x, -bv - v])
        assert np.linalg.norm(diff) <= 1e-9 * np.linalg.norm(orig)


def test_leapfrog_inverse_inverts():
    ef = RoughWell()
    rng = np.random.default_rng(2)
    for x, v in random_states(rng, 20):
        rx, rv = backward(leapfrog(ef, (x, v), 0.5, 10)[:2], 0.5, 10, ef)
        orig = np.concatenate([x, v])
        diff = np.concatenate([rx - x, rv - v])
        assert np.linalg.norm(diff) <= 1e-9 * np.linalg.norm(orig)


def test_leapfrog_inverse_tiny_step():
    x, v = np.array([0.4, 0.2]), np.array([-1.0, 0.8])
    out_x, out_v = backward((x, v), 1e-12, 1, RoughWell())
    np.testing.assert_allclose(out_x, x, atol=1e-10)
    np.testing.assert_allclose(out_v, v, atol=1e-10)


def test_volume_preservation_jacobian():
    # numerical 4x4 Jacobian of the leapfrog map in 2D: |det - 1| <= 1e-5
    ef = RoughWell()
    base = np.array([1.2, -0.4, 0.8, 0.3])
    h = 1e-6

    def apply(z):
        return np.concatenate(leapfrog(ef, (z[:2], z[2:]), 0.5, 5)[:2])

    jac = np.empty((4, 4))
    for i in range(4):
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        jac[:, i] = (apply(up) - apply(dn)) / (2 * h)
    assert abs(np.linalg.det(jac) - 1.0) <= 1e-5


def test_energy_error_is_second_order():
    # fixed trajectory length: halving epsilon while doubling steps must
    # shrink the energy error by roughly 2^2
    ef = DiagonalGaussian(np.array([1.0, 4.0]))
    rng = np.random.default_rng(8)
    states = random_states(rng, 64, scale=1.0)

    def total_energy(x, v):
        return ef.energy(x) + kinetic_energy(v)

    def mean_energy_error(epsilon, steps):
        errs = [
            abs(total_energy(*leapfrog(ef, s, epsilon, steps)[:2]) - total_energy(*s))
            for s in states
        ]
        return np.mean(errs)

    ratio = mean_energy_error(0.2, 8) / mean_energy_error(0.1, 16)
    assert 3.0 <= ratio <= 5.0


class FreeParticle(EnergyFunction):
    """Zero potential, whose trajectory is a straight line: a cache on it costs no integration."""

    def __init__(self, dim):
        self.dim = dim

    def energy(self, x):
        return 0.0

    def gradient(self, x):
        return np.zeros(self.dim)

    def trajectory(self, x, v, grad, epsilon, steps):
        return x + epsilon * steps * v, v.copy(), grad, 0.0


def redrawn_momentum(cache, rng):
    """The momentum R draws: the R rule of the sampler cache, applied in place."""
    cache.redraw(rng)
    return cache.current[1]


def free_cache(state):
    return filled_cache(state, 0.1, 1, FreeParticle(state[0].size))


def test_randomize_momentum_keeps_position():
    rng = np.random.default_rng(0)
    x, v0 = np.array([1.0, 2.0]), np.array([3.0, -4.0])
    cache = free_cache((x, v0))
    v = redrawn_momentum(cache, rng)
    np.testing.assert_array_equal(cache.current[0], x)
    assert not np.array_equal(v, v0)


def test_randomize_momentum_moments():
    rng = np.random.default_rng(123)
    cache = free_cache((np.zeros(2), np.zeros(2)))
    draws = np.array([redrawn_momentum(cache, rng) for _ in range(100_000)])
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.02)
    np.testing.assert_allclose(draws.var(axis=0), 1.0, atol=0.03)


def test_randomize_momentum_reproducible():
    state = (np.zeros(3), np.zeros(3))
    a = redrawn_momentum(free_cache(state), np.random.default_rng(42))
    b = redrawn_momentum(free_cache(state), np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_flip_is_involution():
    # the F rule of the sampler cache negates the momentum and keeps the position
    cache = free_cache((np.array([1.0, 2.0]), np.array([3.0, -4.0])))
    nodes = (cache.current, cache.forward, cache.backward)
    cache.flip()
    np.testing.assert_array_equal(cache.current[0], [1.0, 2.0])
    np.testing.assert_array_equal(cache.current[1], [-3.0, 4.0])
    cache.flip()
    for node, before in zip((cache.current, cache.forward, cache.backward), nodes):
        for a, b in zip(node, before):
            np.testing.assert_array_equal(a, b)


def test_integration_failure_carries_state():
    # far beyond the stability limit the trajectory overflows
    ef = DiagonalGaussian.isotropic(1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as excinfo:
            leapfrog(ef, (np.array([1.0]), np.array([1.0])), 1e6, 400)
    bad = excinfo.value
    assert bad.x is not None and bad.v is not None
    assert not np.all(np.isfinite(bad.x)) or not np.all(np.isfinite(bad.v))


def two_half_kick_leapfrog(zeta, epsilon, steps, ef):
    """Reference: each step as half-kick / drift / half-kick, applied literally."""
    half = 0.5 * epsilon
    x, v = zeta[0].copy(), zeta[1].copy()
    g = ef.gradient(x)
    for _ in range(steps):
        v -= half * g
        x += epsilon * v
        g = ef.gradient(x)
        v -= half * g
    return x, v, g


@pytest.mark.parametrize(
    "ef", [RoughWell(), DiagonalGaussian(np.array([1.0, 0.25]))]
)
def test_fused_kicks_match_two_half_kick_loop(ef):
    # one step has no kicks to fuse: bit for bit; at 25 steps the fused
    # full kick rounds differently, within 1e-12 relative in a stable regime
    rng = np.random.default_rng(31)
    for steps, check in ((1, np.testing.assert_array_equal),
                         (25, lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-12, atol=0))):
        for state in random_states(rng, 20):
            out = leapfrog(ef, state, 0.5, steps)
            ref = two_half_kick_leapfrog(state, 0.5, steps, ef)
            for a, b in zip(out, ref):
                check(a, b)



@pytest.mark.parametrize("epsilon", [0.5, 3.0])
@pytest.mark.parametrize("steps", [1, 2, 25])
def test_rough_well_trajectory_matches_generic_loop(epsilon, steps):
    # the scalar-float kernel performs the numpy loop's operations in the
    # same order, so the two agree bit for bit
    ef = RoughWell()
    rng = np.random.default_rng(41)
    for x0, v0 in random_states(rng, 20, scale=20.0):
        x, v = x0.copy(), v0.copy()
        grad = ef.gradient(x)
        out = ef.trajectory(x0, v0, grad, epsilon, steps)
        ref = EnergyFunction.trajectory(ef, x0, v0, grad, epsilon, steps)
        assert np.isfinite(np.concatenate(out[:3])).all()
        for a, b in zip(out, ref, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(x0, x)  # the inputs are left untouched
        np.testing.assert_array_equal(v0, v)


@pytest.mark.parametrize("dim", [1, 2, 50])
@pytest.mark.parametrize("epsilon", [0.05, 0.5, 3.0])
@pytest.mark.parametrize("steps", [1, 2, 25])
def test_gaussian_trajectory_matches_generic_loop(dim, epsilon, steps):
    # the buffered kernel runs the numpy loop's operations into buffers of
    # its own, so the two agree bit for bit, unstable regimes included
    ef = DiagonalGaussian(np.logspace(0.0, 2.0, dim))
    rng = np.random.default_rng(43)
    for _ in range(10):
        x0, v0 = 3.0 * rng.standard_normal(dim), rng.standard_normal(dim)
        grad = ef.gradient(x0)
        x, v, g = x0.copy(), v0.copy(), grad.copy()
        out = ef.trajectory(x0, v0, grad, epsilon, steps)
        ref = EnergyFunction.trajectory(ef, x0, v0, grad, epsilon, steps)
        assert np.isfinite(np.concatenate(out[:3])).all()
        for a, b in zip(out, ref, strict=True):
            np.testing.assert_array_equal(a, b)
        for before, after in ((x, x0), (v, v0), (g, grad)):  # the inputs are left untouched
            np.testing.assert_array_equal(before, after)


def test_gaussian_overflow_raises_the_generic_loops_integration_error():
    ef = DiagonalGaussian(np.logspace(0.0, 2.0, 50))
    rng = np.random.default_rng(47)
    x0, v0 = rng.standard_normal(50), rng.standard_normal(50)
    errors = []
    for run in (ef.trajectory, lambda *a: EnergyFunction.trajectory(ef, *a)):
        with pytest.raises(IntegrationError) as excinfo:
            run(x0, v0, ef.gradient(x0), 1e3, 60)  # x grows about 1e8-fold per step
        errors.append(excinfo.value)
    kernel, generic = errors
    assert not np.isfinite(kernel.x).all()
    np.testing.assert_array_equal(kernel.x, generic.x)  # nan where nan
    np.testing.assert_array_equal(kernel.v, generic.v)


def test_rough_well_overflow_raises_integration_error():
    # math.sin(inf) raises ValueError inside the kernel; the caller must
    # still see an IntegrationError carrying a non-finite state
    state = (np.array([1.0, -0.5]), np.array([0.3, 0.7]))
    with pytest.raises(IntegrationError) as excinfo:
        leapfrog(RoughWell(), state, 1e200, 3)
    bad = excinfo.value
    assert bad.x is not None and bad.v is not None
    assert not (np.all(np.isfinite(bad.x)) and np.all(np.isfinite(bad.v)))


SHIPPED_KERNELS = [RoughWell()] + [DiagonalGaussian(np.logspace(0.0, 2.0, dim)) for dim in (1, 2, 50)]


def two_block_leapfrog(ef, x, v, grad, epsilon, steps):
    """Reference: the fused-kick loop with its closing half-kick written as a
    second block after ``steps - 1`` full kicks, in the order of IEEE operations
    the kernels must keep."""
    half = 0.5 * epsilon
    x, v = x.copy(), v.copy()
    v -= half * grad
    for _ in range(steps - 1):
        x += epsilon * v
        g = ef.gradient(x)
        v -= epsilon * g
    x += epsilon * v
    g = ef.gradient(x)
    v -= half * g
    return x, v, g, ef.energy(x)


@pytest.mark.parametrize("ef", SHIPPED_KERNELS, ids=["rough", "gaussian-1", "gaussian-2", "gaussian-50"])
@pytest.mark.parametrize("epsilon", [0.05, 3.0])
@pytest.mark.parametrize("steps", [1, 2, 25])
def test_kernels_match_the_two_block_loop(ef, epsilon, steps):
    # the one loop runs the two-block form's operations, so the
    # generic loop and both kernels agree with it bit for bit; epsilon 3 is past
    # every shipped target's stability limit
    rng = np.random.default_rng(59)
    for _ in range(10):
        x0, v0 = 3.0 * rng.standard_normal(ef.dim), rng.standard_normal(ef.dim)
        grad = ef.gradient(x0)
        ref = two_block_leapfrog(ef, x0, v0, grad, epsilon, steps)
        assert np.isfinite(np.concatenate(ref[:3])).all()
        for run in (ef.trajectory, lambda *a: EnergyFunction.trajectory(ef, *a)):
            for a, b in zip(run(x0, v0, grad, epsilon, steps), ref, strict=True):
                np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("ef", SHIPPED_KERNELS, ids=["rough", "gaussian-1", "gaussian-2", "gaussian-50"])
@pytest.mark.parametrize("epsilon, steps", [(0.05, 25), (0.5, 7), (3.0, 25), (3.0, 55), (1e200, 3)])
def test_kernel_returns_the_generic_endpoint_and_its_energy(ef, epsilon, steps):
    # the 4-tuple is EnergyFunction.trajectory's endpoint plus energy() there,
    # bit for bit; at epsilon 3 the Gaussians are unstable, and at 55 steps the
    # 2-D and 50-D ones end finite with an energy that overflows to inf
    rng = np.random.default_rng(53)
    for _ in range(10):
        x0, v0 = 3.0 * rng.standard_normal(ef.dim), rng.standard_normal(ef.dim)
        grad = ef.gradient(x0)
        try:
            x, v, g, _ = EnergyFunction.trajectory(ef, x0, v0, grad, epsilon, steps)
        except IntegrationError as generic:
            with pytest.raises(IntegrationError) as kernel:
                ef.trajectory(x0, v0, grad, epsilon, steps)
            np.testing.assert_array_equal(kernel.value.x, generic.x)  # nan where nan
            np.testing.assert_array_equal(kernel.value.v, generic.v)
            continue
        out = ef.trajectory(x0, v0, grad, epsilon, steps)
        for a, b in zip(out, (x, v, g, ef.energy(x)), strict=True):
            np.testing.assert_array_equal(a, b)  # inf where inf
        assert type(out[3]) is float


def test_generic_trajectory_returns_energy_at_the_endpoint():
    # a target without a kernel of its own gets its potential from energy()
    ef = SpyGaussian()
    x, v, g, potential = EnergyFunction.trajectory(ef, np.array([1.0, -2.0]), np.ones(2),
                                                   ef.gradient(np.array([1.0, -2.0])), 0.3, 4)
    assert potential == DiagonalGaussian(np.array([1.0, 0.25])).energy(x)


class SpyGaussian(DiagonalGaussian):
    """A target on the default trajectory loop that counts its own gradient calls."""

    def __init__(self):
        super().__init__(np.array([1.0, 0.25]))
        self.calls = 0

    def gradient(self, x):
        self.calls += 1
        return super().gradient(x)

    trajectory = EnergyFunction.trajectory  # not DiagonalGaussian's own kernel


@pytest.mark.parametrize("make", [RoughWell, SpyGaussian])
@pytest.mark.parametrize("steps", [1, 7, 25])
def test_counting_energy_counts_steps_per_trajectory(make, steps):
    inner = make()
    counter = CountingEnergy(inner)
    rng = np.random.default_rng(5)
    for i, (x, v) in enumerate(random_states(rng, 4), start=1):
        counter.trajectory(x, v, inner.gradient(x), 0.5, steps)
        assert counter.gradient_calls == i * steps
        assert counter.energy_calls == i  # the endpoint potential
    if isinstance(inner, SpyGaussian):
        # each counted evaluation is one real gradient call (plus the 4 above)
        assert inner.calls == counter.gradient_calls + 4


@pytest.mark.parametrize("make", [RoughWell, lambda: DiagonalGaussian.isotropic(2), SpyGaussian])
def test_counting_energy_counts_a_failed_trajectorys_steps_and_no_energy(make):
    counter = CountingEnergy(make())
    x, v = np.array([1.0, -0.5]), np.array([0.3, 0.7])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError):
            counter.trajectory(x, v, counter.inner.gradient(x), 1e200, 3)
    assert (counter.gradient_calls, counter.energy_calls) == (3, 0)
