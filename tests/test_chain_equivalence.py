"""The array-native chain loops against the object-based loops they replaced.

The reference below is the former ``step``/``sample_chain`` of
``jumphmc.jump`` and ``hmc_chain`` of the former ``jumphmc.hmc``, kept
verbatim apart from imports, docstrings, config annotations and the names
``reference_sample_chain`` and ``reference_hmc_chain``.  Both read only
``config.epsilon/steps/beta/n_samples/seed``, and the chain under test is
run through ``run_chain``.  The former ``config.leapfrog_params`` property
reads ``(config.epsilon, config.steps)``.  The former phase operators,
``leapfrog_with_grad`` adapter and ``Transition`` it uses are copied
below, with the former ``PhaseState`` as a local ``(x, v)`` pair type,
``Phase``.  It builds one ``WeightedSample``, one ``TransitionRates`` and
several ``Phase`` objects per step and packs them into arrays at the end;
both references now pack into the one ``Chain`` record (the control's
accepted flags become L/F kinds with unit holding times), with their
loops untouched.  The rewrite performs the same floating-point operations
and draws the same random numbers, so every chain array must be equal,
not merely close.  The one exception is the control's cache hit: a step
whose proposal the cache already holds, which the reference integrates
afresh (see ``test_control_chain_matches_object_loop``).

Since a target's ``trajectory`` returns the endpoint potential with the
endpoint, the ``leapfrog_with_grad`` adapter passes that potential on,
and the reference nodes and proposals take it instead of calling
``energy()`` again.  Only the chain start's potential comes from
``energy()``, as in the former loops' one evaluation there, so the
counted energy evaluations are the same.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import pytest

from jumphmc import (
    Chain,
    DiagonalGaussian,
    EnergyFunction,
    IntegrationError,
    RoughWell,
    SamplerConfig,
    run_chain,
)
from jumphmc.energy import CountingEnergy, kinetic_energy

# ---------------------------------------------------------------------------
# the former phase-space point, phase operators and transition kinds


class Phase(NamedTuple):
    """A phase-space point: position ``x`` and momentum ``v``."""

    x: np.ndarray
    v: np.ndarray

    @property
    def dim(self) -> int:
        return self.x.size


class Transition(enum.Enum):
    """Which arm of the exponential race fired."""

    L = "L"
    F = "F"
    R = "R"


def flip(zeta: Phase) -> Phase:
    """Negate the momentum, reversing the direction of travel."""
    return Phase(zeta.x, -zeta.v)


def leapfrog_with_grad(
    zeta: Phase, params: tuple[float, int], ef: EnergyFunction, grad0: np.ndarray
) -> tuple[Phase, np.ndarray, float]:
    """L of ``zeta`` with ``params = (epsilon, steps)``, from the gradient ``grad0`` at x:
    the endpoint, its gradient and its potential, as the target's kernel returns them."""
    x, v, g, potential = ef.trajectory(zeta.x, zeta.v, grad0, *params)
    return Phase(x, v), g, potential


def leapfrog_inverse_with_grad(
    zeta: Phase,
    params: tuple[float, int],
    ef: EnergyFunction,
    grad0: Optional[np.ndarray] = None,
) -> tuple[Phase, np.ndarray, float]:
    """As :func:`leapfrog_with_grad` but for L^-1; gradients reuse the same positions."""
    forward, g, potential = leapfrog_with_grad(flip(zeta), params, ef, grad0=grad0)
    return flip(forward), g, potential


def randomize_momentum(zeta: Phase, rng: np.random.Generator) -> Phase:
    """Replace the momentum with a fresh standard-normal draw; position unchanged."""
    return Phase(zeta.x, rng.standard_normal(zeta.dim))


# ---------------------------------------------------------------------------
# reference: the object-based jump loop


@dataclass(frozen=True)
class TransitionRates:
    gamma_L: float
    gamma_F: float
    beta: float
    log_gamma_L: Optional[float] = None
    log_gamma_F: Optional[float] = None

    def __post_init__(self):
        if self.log_gamma_L is None:
            object.__setattr__(self, "log_gamma_L", _log(self.gamma_L))
        if self.log_gamma_F is None:
            object.__setattr__(self, "log_gamma_F", _log(self.gamma_F))

    @property
    def total(self) -> float:
        return self.gamma_L + self.gamma_F + self.beta


_MAX_LOG = math.log(sys.float_info.max)


def _exp(log_value: float) -> float:
    return math.exp(log_value) if log_value <= _MAX_LOG else math.inf


def _log(rate: float) -> float:
    return math.log(rate) if rate > 0 else -math.inf


@dataclass(frozen=True)
class WeightedSample:
    state: Phase
    holding_time: float
    transition_out: Transition
    cumulative_gradient_evals: int


class _Node(NamedTuple):
    state: Phase
    potential: float
    h: float
    grad: np.ndarray


@dataclass
class StateCache:
    current: _Node
    forward: _Node
    backward: _Node
    last_transition: Optional[Transition] = None

    @property
    def state(self) -> Phase:
        return self.current.state


def _flipped(node: _Node) -> _Node:
    return node._replace(state=flip(node.state))


def _make_node(state: Phase, grad: np.ndarray, potential: float) -> _Node:
    with np.errstate(over="ignore", invalid="ignore"):
        h = potential + kinetic_energy(state.v)
    if not np.isfinite(h):
        raise IntegrationError("non-finite energy encountered", *state)
    return _Node(state, potential, h, grad)


def init_cache(zeta: Phase, config: SamplerConfig, ef: EnergyFunction) -> StateCache:
    params = (config.epsilon, config.steps)
    g0 = ef.gradient(zeta.x)
    current = _make_node(zeta, g0, ef.energy(zeta.x))
    fwd_state, fwd_grad, fwd_potential = leapfrog_with_grad(zeta, params, ef, grad0=g0)
    bwd_state, bwd_grad, bwd_potential = leapfrog_inverse_with_grad(zeta, params, ef, grad0=g0)
    return StateCache(
        current=current,
        forward=_make_node(fwd_state, fwd_grad, fwd_potential),
        backward=_make_node(bwd_state, bwd_grad, bwd_potential),
    )


def compute_rates(
    zeta: Phase, cache: StateCache, config: SamplerConfig, ef: EnergyFunction
) -> TransitionRates:
    cur = cache.current
    if cur.state is not zeta and not (
        np.array_equal(cur.state.x, zeta.x) and np.array_equal(cur.state.v, zeta.v)
    ):
        raise ValueError("cache is not consistent with the supplied state")
    if not (
        math.isfinite(cur.h) and math.isfinite(cache.forward.h) and math.isfinite(cache.backward.h)
    ):
        raise IntegrationError("non-finite energy in neighbor cache", *zeta)
    log_gamma_L = -0.5 * (cache.forward.h - cur.h)
    a = -0.5 * (cache.backward.h - cur.h)
    log_gamma_F = a + math.log(-math.expm1(log_gamma_L - a)) if a > log_gamma_L else -math.inf
    return TransitionRates(
        _exp(log_gamma_L), _exp(log_gamma_F), config.beta, log_gamma_L, log_gamma_F
    )


_RACE_KINDS = (Transition.L, Transition.F, Transition.R)


def _log_waiting_times(rates: TransitionRates, rng: np.random.Generator) -> list[float]:
    draws = rng.standard_exponential(3).tolist()
    log_rates = (rates.log_gamma_L, rates.log_gamma_F, _log(rates.beta))
    return [math.log(max(d, sys.float_info.min)) - lr for d, lr in zip(draws, log_rates)]


def _holding_time(log_wait: float) -> float:
    return max(_exp(log_wait), sys.float_info.min)


def step(
    zeta: Phase,
    cache: StateCache,
    config: SamplerConfig,
    ef: EnergyFunction,
    rng: np.random.Generator,
) -> tuple[Phase, WeightedSample, StateCache]:
    params = (config.epsilon, config.steps)
    rates = compute_rates(zeta, cache, config, ef)
    log_waits = _log_waiting_times(rates, rng)
    shortest = min(log_waits)
    kind = _RACE_KINDS[log_waits.index(shortest)]

    cur, fwd, bwd = cache.current, cache.forward, cache.backward
    if kind is Transition.L:
        nxt = fwd.state
        new_current, new_backward = fwd, cur
        new_forward = _make_node(*leapfrog_with_grad(nxt, params, ef, grad0=fwd.grad))
    elif kind is Transition.F:
        new_current, new_forward, new_backward = _flipped(cur), _flipped(bwd), _flipped(fwd)
        nxt = new_current.state
    else:
        nxt = randomize_momentum(zeta, rng)
        new_current = _Node(nxt, cur.potential, cur.potential + kinetic_energy(nxt.v), cur.grad)
        new_forward = _make_node(*leapfrog_with_grad(nxt, params, ef, grad0=cur.grad))
        new_backward = _make_node(*leapfrog_inverse_with_grad(nxt, params, ef, grad0=cur.grad))
    next_cache = StateCache(new_current, new_forward, new_backward, last_transition=kind)

    sample = WeightedSample(
        state=zeta,
        holding_time=_holding_time(shortest),
        transition_out=kind,
        cumulative_gradient_evals=getattr(ef, "gradient_calls", 0),
    )
    return nxt, sample, next_cache


def _pack_chain(samples: list[WeightedSample], energy_evals: int) -> Chain:
    n = len(samples)
    dim = samples[0].state.dim if n else 0
    chain = Chain(
        sampler="mjhmc",
        positions=np.empty((n, dim)),
        momenta=np.empty((n, dim)),
        holding_times=np.empty(n),
        transitions=np.empty(n, dtype="<U1"),
        gradient_evals=np.empty(n, dtype=np.int64),
        energy_evals=energy_evals,
    )
    for i, s in enumerate(samples):
        chain.positions[i] = s.state.x
        chain.momenta[i] = s.state.v
        chain.holding_times[i] = s.holding_time
        chain.transitions[i] = s.transition_out.value
        chain.gradient_evals[i] = s.cumulative_gradient_evals
    return chain


def reference_sample_chain(
    config: SamplerConfig, ef: EnergyFunction, init: Phase
) -> Chain:
    counter = CountingEnergy(ef)
    rng = np.random.default_rng(config.seed)
    samples: list[WeightedSample] = []
    zeta = init
    try:
        cache = init_cache(zeta, config, counter)
        for _ in range(config.n_samples):
            zeta, sample, cache = step(zeta, cache, config, counter, rng)
            samples.append(sample)
    except IntegrationError as err:
        err.partial_chain = _pack_chain(samples, counter.energy_calls)
        raise
    return _pack_chain(samples, counter.energy_calls)


# ---------------------------------------------------------------------------
# reference: the object-based control loop


class _Walker(NamedTuple):
    state: Phase
    potential: float
    grad: np.ndarray


def _mh_step(
    walker: _Walker, config: SamplerConfig, ef: EnergyFunction, rng: np.random.Generator
) -> tuple[_Walker, bool]:
    proposal, end_grad, pot_prop = leapfrog_with_grad(
        walker.state, (config.epsilon, config.steps), ef, grad0=walker.grad
    )
    h_cur = walker.potential + kinetic_energy(walker.state.v)
    with np.errstate(over="ignore", invalid="ignore"):
        h_prop = pot_prop + kinetic_energy(proposal.v)
    if not np.isfinite(h_prop):
        raise IntegrationError("non-finite proposal energy", *proposal)
    d_h = h_prop - h_cur
    u = rng.random()
    accepted = d_h <= 0 or u < np.exp(-d_h)
    if accepted:
        walker = _Walker(proposal, pot_prop, end_grad)
    else:
        walker = _Walker(flip(walker.state), walker.potential, walker.grad)
    if rng.random() < config.beta:
        walker = _Walker(
            Phase(walker.state.x, rng.standard_normal(walker.state.dim)),
            walker.potential,
            walker.grad,
        )
    return walker, accepted


def _control_chain(positions, momenta, gradient_evals, accepted, energy_evals=0) -> Chain:
    """The former control record as a Chain: unit holding times, L if accepted, F if not."""
    return Chain(
        "hmc", positions, momenta, np.ones(len(positions)), np.where(accepted, "L", "F"),
        gradient_evals, energy_evals,
    )


def reference_hmc_chain(config: SamplerConfig, ef: EnergyFunction, init: Phase) -> Chain:
    counter = CountingEnergy(ef)
    rng = np.random.default_rng(config.seed)
    n, dim = config.n_samples, init.dim
    positions = np.empty((n, dim))
    momenta = np.empty((n, dim))
    gradient_evals = np.empty(n, dtype=np.int64)
    accepts = np.empty(n, dtype=bool)
    walker = _Walker(init, counter.energy(init.x), counter.gradient(init.x))
    for i in range(n):
        try:
            walker, accepted = _mh_step(walker, config, counter, rng)
        except IntegrationError as err:
            err.partial_chain = _control_chain(
                positions=positions[:i].copy(),
                momenta=momenta[:i].copy(),
                gradient_evals=gradient_evals[:i].copy(),
                accepted=accepts[:i].copy(),
                energy_evals=counter.energy_calls,
            )
            raise
        positions[i] = walker.state.x
        momenta[i] = walker.state.v
        gradient_evals[i] = counter.gradient_calls
        accepts[i] = accepted
    return _control_chain(positions, momenta, gradient_evals, accepts, counter.energy_calls)


# ---------------------------------------------------------------------------
# the comparisons

FIELDS = ("positions", "momenta", "holding_times", "transitions", "gradient_evals", "accepted")


def assert_same_chain(new, ref, rows=None):
    """Every field equal, or only the first ``rows`` rows of each array."""
    assert new.sampler == ref.sampler
    for name in FIELDS:
        a, b = getattr(new, name)[:rows], getattr(ref, name)[:rows]
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    if rows is None:
        assert new.energy_evals == ref.energy_evals


def rough_start(seed=1):
    return Phase(np.zeros(2), np.random.default_rng(seed).standard_normal(2))


BENCH_GAUSSIAN = DiagonalGaussian(np.logspace(0.0, 2.0, 50))


@pytest.mark.parametrize(
    "config, ef, init",
    [
        # the published rough-well setting: about 40% of transitions are F
        (SamplerConfig("mjhmc", 3.0, 25, 0.012314, 3000, seed=0), RoughWell(), rough_start()),
        (SamplerConfig("mjhmc", 3.0, 25, 0.012314, 3000, seed=7), RoughWell(), rough_start(3)),
        (SamplerConfig("mjhmc", 1.0, 10, 0.2, 2000, seed=2), RoughWell(),
         Phase(np.array([40.0, -15.0]), np.array([0.5, 2.0]))),
        # the 50-D Gaussian of the benchmark
        (SamplerConfig("mjhmc", 0.1, 20, 0.1, 1500, seed=4), BENCH_GAUSSIAN,
         Phase(np.zeros(50), np.random.default_rng(5).standard_normal(50))),
        # far starts, where the energy drop along L overflows exp
        (SamplerConfig("mjhmc", 1.9, 5, 0.01, 3000, seed=0), DiagonalGaussian.isotropic(2),
         Phase(np.array([300.0, 300.0]), np.zeros(2))),
        (SamplerConfig("mjhmc", 1.99, 50, 0.01, 3000, seed=0), DiagonalGaussian.isotropic(2),
         Phase(np.array([1e4, 0.0]), np.zeros(2))),
    ],
    ids=["rough-published-0", "rough-published-7", "rough-off-mode", "gaussian-50d",
         "far-300-300", "far-1e4-0"],
)
def test_jump_chain_matches_object_loop(config, ef, init):
    new = run_chain(config, ef, *init)
    ref = reference_sample_chain(config, ef, init)
    assert_same_chain(new, ref)
    assert set(new.transition_counts()) == {"L", "F", "R"}  # every cache rule ran


@pytest.mark.parametrize(
    "config, ef, init",
    [
        # the control at its published rough-well setting
        (SamplerConfig("hmc", 0.591686, 25, 0.429956, 3000, seed=0), RoughWell(), rough_start()),
        (SamplerConfig("hmc", 0.591686, 25, 0.429956, 3000, seed=9), RoughWell(), rough_start(4)),
        (SamplerConfig("hmc", 0.1, 20, 0.1, 1500, seed=4), BENCH_GAUSSIAN,
         Phase(np.zeros(50), np.random.default_rng(5).standard_normal(50))),
        # a redraw every step: nothing is ever cached
        (SamplerConfig("hmc", 0.591686, 25, 1.0, 3000, seed=0), RoughWell(), rough_start()),
    ],
    ids=["rough-published-0", "rough-published-9", "gaussian-50d", "rough-beta-1"],
)
def test_control_chain_matches_object_loop(config, ef, init):
    # A cache hit is a row whose gradient count did not grow: its step took
    # the proposal from the cache, where the reference integrated it afresh.
    # L(F L zeta) = F zeta holds only to rounding, so the chains agree bit
    # for bit before the first hit and to rounding at it.  The error there
    # is measured on the whole phase-space point: a coordinate that returns
    # to exactly 0 in the cache reads about 1e-16 in the reference.
    new = run_chain(config, ef, *init)
    ref = reference_hmc_chain(config, ef, init)
    hits = np.flatnonzero(np.diff(new.gradient_evals, prepend=0) == 0)
    if config.beta == 1:
        assert hits.size == 0
    if hits.size == 0:
        assert_same_chain(new, ref)
        return
    first = hits[0]
    assert_same_chain(new, ref, rows=first)
    assert new.transitions[first] == ref.transitions[first]
    new_point = np.concatenate([new.positions[first], new.momenta[first]])
    ref_point = np.concatenate([ref.positions[first], ref.momenta[first]])
    assert np.linalg.norm(new_point - ref_point) <= 1e-9 * np.linalg.norm(ref_point)


class WalledGaussian(EnergyFunction):
    """A quadratic bowl whose energy is infinite outside |x| < 2."""

    dim = 1

    def energy(self, x):
        return 0.5 * float(x[0] ** 2) if abs(x[0]) < 2.0 else np.inf

    def gradient(self, x):
        return np.asarray(x, dtype=float)


@pytest.mark.parametrize(
    "reference, config",
    [
        (reference_sample_chain,
         SamplerConfig("mjhmc", epsilon=0.8, steps=4, beta=0.5, n_samples=10_000, seed=12)),
        (reference_hmc_chain,
         SamplerConfig("hmc", epsilon=0.8, steps=4, beta=0.5, n_samples=10_000, seed=12)),
    ],
    ids=["jump", "control"],
)
def test_partial_chain_matches_object_loop(reference, config):
    init = Phase(np.array([0.0]), np.array([0.1]))
    with pytest.raises(IntegrationError) as new:
        run_chain(config, WalledGaussian(), *init)
    with pytest.raises(IntegrationError) as ref:
        reference(config, WalledGaussian(), init)
    assert str(new.value) == "non-finite energy encountered"  # the cache's one message
    np.testing.assert_array_equal(new.value.x, ref.value.x)
    np.testing.assert_array_equal(new.value.v, ref.value.v)
    assert 0 < len(new.value.partial_chain) < config.n_samples
    assert_same_chain(new.value.partial_chain, ref.value.partial_chain)


@pytest.mark.parametrize(
    "config",
    [
        SamplerConfig("mjhmc", epsilon=0.8, steps=4, beta=0.5, n_samples=10),
        SamplerConfig("hmc", epsilon=0.8, steps=4, beta=0.5, n_samples=10),
    ],
    ids=["jump", "control"],
)
def test_non_finite_start_fails_at_init_cache(config):
    # both samplers check the start where they build the cache, before any row
    init = Phase(np.array([3.0]), np.array([0.1]))
    with pytest.raises(IntegrationError) as err:
        run_chain(config, WalledGaussian(), *init)
    assert str(err.value) == "non-finite energy encountered"
    np.testing.assert_array_equal(err.value.x, init.x)
    np.testing.assert_array_equal(err.value.v, init.v)
    assert len(err.value.partial_chain) == 0
