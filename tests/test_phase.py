import numpy as np
import pytest

from jumphmc import (
    CountingEnergy,
    DiagonalGaussian,
    DimensionError,
    EnergyFunction,
    GaussianParams,
    IntegrationError,
    LeapfrogParams,
    PhaseState,
    RoughWell,
    init_cache,
    joint_energy,
)
from jumphmc.phase import leapfrog_with_grad

UNIT_1D = DiagonalGaussian.isotropic(1)


def random_states(rng, n, dim=2, scale=2.0):
    return [PhaseState(rng.normal(scale=scale, size=dim), rng.standard_normal(dim)) for _ in range(n)]


def filled_cache(state, params, ef):
    """The sampler cache at ``state`` with both neighbors integrated."""
    cache = init_cache(state, ef)
    cache.fill(ef, params.epsilon, params.steps, backward=True)
    return cache


def backward(state, params, ef):
    """L^-1 of ``state``: the backward node of a filled sampler cache."""
    x, v, _, _, _ = filled_cache(state, params, ef).backward
    return PhaseState(x, v)


def test_phase_state_validation():
    with pytest.raises(DimensionError):
        PhaseState(np.zeros(2), np.zeros(3))


@pytest.mark.parametrize(
    "x, v",
    [([1.0, 2.0], [3.0, 4.0]), (np.array([1, 2]), np.array([3, 4])),
     (np.float32([1, 2]), np.array([3.0, 4.0])), (np.array(1.5), np.array([2.0])),
     (np.array([1.5]), np.array(2.0))],
)
def test_phase_state_converts_other_inputs(x, v):
    state = PhaseState(x, v)
    for a, ref in ((state.x, x), (state.v, v)):
        assert type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 1
        np.testing.assert_array_equal(a, np.atleast_1d(ref))


def test_phase_state_keeps_valid_arrays():
    x, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    state = PhaseState(x, v)
    assert state.x is x and state.v is v


def test_leapfrog_params_validation():
    with pytest.raises(ValueError):
        LeapfrogParams(0.0, 1)
    with pytest.raises(ValueError):
        LeapfrogParams(0.1, 0)


def test_tiny_step_is_near_identity():
    state = PhaseState(np.array([1.0, -0.5]), np.array([0.3, 0.7]))
    out, _ = leapfrog_with_grad(state, LeapfrogParams(1e-12, 1), RoughWell())
    np.testing.assert_allclose(out.x, state.x, atol=1e-10)
    np.testing.assert_allclose(out.v, state.v, atol=1e-10)


def test_harmonic_oscillator_single_step():
    # hand-executed half-kick / drift / half-kick on E = x^2/2 from (1, 0):
    # v_half = -0.05, x' = 0.995, v' = -0.05 - 0.05 * 0.995 = -0.09975
    out, _ = leapfrog_with_grad(PhaseState([1.0], [0.0]), LeapfrogParams(0.1, 1), UNIT_1D)
    assert out.x[0] == pytest.approx(0.995, rel=1e-15)
    assert out.v[0] == pytest.approx(-0.09975, rel=1e-15)


def test_harmonic_oscillator_inverse_recovers_start():
    params = LeapfrogParams(0.1, 1)
    forward, _ = leapfrog_with_grad(PhaseState([1.0], [0.0]), params, UNIT_1D)
    back = backward(forward, params, UNIT_1D)
    np.testing.assert_allclose(back.x, [1.0], atol=1e-12)
    np.testing.assert_allclose(back.v, [0.0], atol=1e-12)


@pytest.mark.parametrize("epsilon", [0.1, 1.0])
@pytest.mark.parametrize("steps", [1, 25])
@pytest.mark.parametrize(
    "ef", [RoughWell(), DiagonalGaussian(GaussianParams(np.array([1.0, 0.25])))]
)
def test_flfl_reversibility(epsilon, steps, ef):
    # F L F L = I: exact in exact arithmetic, 1e-9 relative in floats
    params = LeapfrogParams(epsilon, steps)
    rng = np.random.default_rng(21)
    for state in random_states(rng, 25):
        fwd, _ = leapfrog_with_grad(state, params, ef)
        back, _ = leapfrog_with_grad(PhaseState(fwd.x, -fwd.v), params, ef)
        orig = np.concatenate([state.x, state.v])
        diff = np.concatenate([back.x - state.x, -back.v - state.v])
        assert np.linalg.norm(diff) <= 1e-9 * np.linalg.norm(orig)


def test_leapfrog_inverse_inverts():
    params = LeapfrogParams(0.5, 10)
    ef = RoughWell()
    rng = np.random.default_rng(2)
    for state in random_states(rng, 20):
        round_trip = backward(leapfrog_with_grad(state, params, ef)[0], params, ef)
        orig = np.concatenate([state.x, state.v])
        diff = np.concatenate([round_trip.x - state.x, round_trip.v - state.v])
        assert np.linalg.norm(diff) <= 1e-9 * np.linalg.norm(orig)


def test_leapfrog_inverse_tiny_step():
    state = PhaseState(np.array([0.4, 0.2]), np.array([-1.0, 0.8]))
    out = backward(state, LeapfrogParams(1e-12, 1), RoughWell())
    np.testing.assert_allclose(out.x, state.x, atol=1e-10)
    np.testing.assert_allclose(out.v, state.v, atol=1e-10)


def test_volume_preservation_jacobian():
    # numerical 4x4 Jacobian of the leapfrog map in 2D: |det - 1| <= 1e-5
    ef = RoughWell()
    params = LeapfrogParams(0.5, 5)
    base = np.array([1.2, -0.4, 0.8, 0.3])
    h = 1e-6

    def apply(z):
        out, _ = leapfrog_with_grad(PhaseState(z[:2], z[2:]), params, ef)
        return np.concatenate([out.x, out.v])

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
    ef = DiagonalGaussian(GaussianParams(np.array([1.0, 4.0])))
    rng = np.random.default_rng(8)
    states = random_states(rng, 64, scale=1.0)

    def mean_energy_error(epsilon, steps):
        params = LeapfrogParams(epsilon, steps)
        errs = [
            abs(joint_energy(leapfrog_with_grad(s, params, ef)[0], ef) - joint_energy(s, ef))
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
        return x + epsilon * steps * v, v.copy(), grad


def redrawn_momentum(cache, rng):
    """The momentum R draws: the R rule of the sampler cache, applied in place."""
    cache.redraw(rng)
    return cache.current[1]


def free_cache(state):
    return filled_cache(state, LeapfrogParams(0.1, 1), FreeParticle(state.dim))


def test_randomize_momentum_keeps_position():
    rng = np.random.default_rng(0)
    state = PhaseState(np.array([1.0, 2.0]), np.array([3.0, -4.0]))
    cache = free_cache(state)
    v = redrawn_momentum(cache, rng)
    np.testing.assert_array_equal(cache.current[0], state.x)
    assert not np.array_equal(v, state.v)


def test_randomize_momentum_moments():
    rng = np.random.default_rng(123)
    cache = free_cache(PhaseState(np.zeros(2), np.zeros(2)))
    draws = np.array([redrawn_momentum(cache, rng) for _ in range(100_000)])
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.02)
    np.testing.assert_allclose(draws.var(axis=0), 1.0, atol=0.03)


def test_randomize_momentum_reproducible():
    state = PhaseState(np.zeros(3), np.zeros(3))
    a = redrawn_momentum(free_cache(state), np.random.default_rng(42))
    b = redrawn_momentum(free_cache(state), np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_flip_is_involution():
    # the F rule of the sampler cache negates the momentum and keeps the position
    state = PhaseState(np.array([1.0, 2.0]), np.array([3.0, -4.0]))
    cache = free_cache(state)
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
    state = PhaseState([1.0], [1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as excinfo:
            leapfrog_with_grad(state, LeapfrogParams(1e6, 400), ef)
    assert excinfo.value.state is not None
    assert not np.all(np.isfinite(excinfo.value.state.x)) or not np.all(
        np.isfinite(excinfo.value.state.v)
    )


def two_half_kick_leapfrog(zeta, params, ef):
    """Reference: each step as half-kick / drift / half-kick, applied literally."""
    half = 0.5 * params.epsilon
    x, v = zeta.x.copy(), zeta.v.copy()
    g = ef.gradient(x)
    for _ in range(params.steps):
        v -= half * g
        x += params.epsilon * v
        g = ef.gradient(x)
        v -= half * g
    return PhaseState(x, v), g


@pytest.mark.parametrize(
    "ef", [RoughWell(), DiagonalGaussian(GaussianParams(np.array([1.0, 0.25])))]
)
def test_fused_kicks_match_two_half_kick_loop(ef):
    # one step has no kicks to fuse: bit for bit; at 25 steps the fused
    # full kick rounds differently, within 1e-12 relative in a stable regime
    rng = np.random.default_rng(31)
    for steps, check in ((1, np.testing.assert_array_equal),
                         (25, lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-12, atol=0))):
        params = LeapfrogParams(0.5, steps)
        for state in random_states(rng, 20):
            out, g = leapfrog_with_grad(state, params, ef)
            ref, ref_g = two_half_kick_leapfrog(state, params, ef)
            check(out.x, ref.x)
            check(out.v, ref.v)
            check(g, ref_g)



@pytest.mark.parametrize("epsilon", [0.5, 3.0])
@pytest.mark.parametrize("steps", [1, 25])
def test_rough_well_trajectory_matches_generic_loop(epsilon, steps):
    # the scalar-float kernel performs the numpy loop's operations in the
    # same order, so the two agree bit for bit
    ef = RoughWell()
    rng = np.random.default_rng(41)
    for state in random_states(rng, 20, scale=20.0):
        x, v = state.x.copy(), state.v.copy()
        grad = ef.gradient(x)
        out = ef.trajectory(state.x, state.v, grad, epsilon, steps)
        ref = EnergyFunction.trajectory(ef, state.x, state.v, grad, epsilon, steps)
        assert np.isfinite(np.concatenate(out)).all()
        for a, b in zip(out, ref):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.x, x)  # the inputs are left untouched
        np.testing.assert_array_equal(state.v, v)


def test_rough_well_overflow_raises_integration_error():
    # math.sin(inf) raises ValueError inside the kernel; the caller must
    # still see an IntegrationError carrying a non-finite state
    state = PhaseState(np.array([1.0, -0.5]), np.array([0.3, 0.7]))
    with pytest.raises(IntegrationError) as excinfo:
        leapfrog_with_grad(state, LeapfrogParams(1e200, 3), RoughWell())
    bad = excinfo.value.state
    assert bad is not None
    assert not (np.all(np.isfinite(bad.x)) and np.all(np.isfinite(bad.v)))


class SpyGaussian(DiagonalGaussian):
    """A target on the default trajectory loop that counts its own gradient calls."""

    def __init__(self):
        super().__init__(GaussianParams(np.array([1.0, 0.25])))
        self.calls = 0

    def gradient(self, x):
        self.calls += 1
        return super().gradient(x)


@pytest.mark.parametrize("make", [RoughWell, SpyGaussian])
@pytest.mark.parametrize("steps", [1, 7, 25])
def test_counting_energy_counts_steps_per_trajectory(make, steps):
    inner = make()
    counter = CountingEnergy(inner)
    rng = np.random.default_rng(5)
    for i, state in enumerate(random_states(rng, 4), start=1):
        counter.trajectory(state.x, state.v, inner.gradient(state.x), 0.5, steps)
        assert counter.gradient_calls == i * steps
    if isinstance(inner, SpyGaussian):
        # each counted evaluation is one real gradient call (plus the 4 above)
        assert inner.calls == counter.gradient_calls + 4
