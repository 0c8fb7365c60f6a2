"""The array-native chain loops against object-based reference loops.

The control's reference is the former ``hmc_chain`` of the former
``jumphmc.hmc``, and the jump sampler's the former object-based ``step``
and ``sample_chain`` of ``jumphmc.jump`` (renamed ``reference_hmc_chain``
and ``reference_sample_chain``).  Both read only
``config.epsilon/steps/beta/n_samples/seed``, and the chain under test is
run through ``run_chain``.  The former phase operators, ``leapfrog_with_grad``
adapter and ``Transition`` they use are copied below, with the former
``PhaseState`` as a local ``(x, v)`` pair type, ``Phase``.  The references
build one ``WeightedSample``, one ``TransitionRates`` and several ``Phase``
objects per step and pack them into the one ``Chain`` record at the end
(the control's accepted flags become L/F kinds with unit holding times).

The jump reference keeps the former race and row bookkeeping, but its
three-node cache is replaced by an :class:`Orbit`: between two redraws the
chain walks the orbit {F^s L^n zeta_R}, and every node of it is the forward
integration from its neighbor nearer the epoch start, or, on the other
side of the start, the flipped forward integration of the flipped
neighbor.  The reference integrates exactly that, once per node, so the
chain under test must equal it bit for bit: states, holding times, kinds,
gradient counts and energy counts, not merely close.  The control is
compared with the former loop up to its first cache hit (see
``test_control_chain_matches_object_loop``), and bit for bit over the whole
chain with the same control walked on an :class:`Orbit`
(``reference_orbit_hmc_chain``).

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


def _flipped(node: _Node) -> _Node:
    return node._replace(state=flip(node.state))


def _make_node(state: Phase, grad: np.ndarray, potential: float) -> _Node:
    with np.errstate(over="ignore", invalid="ignore"):
        h = potential + kinetic_energy(state.v)
    return _Node(state, potential, h, grad)


class Orbit:
    """The reference orbit of one redraw epoch, integrated outward from its start.

    ``rays[1][m]`` is L^m zeta_R and ``rays[-1][m]`` is L^m F zeta_R =
    F L^-m zeta_R, each integrated by ``leapfrog_with_grad`` from the ray's
    node before it, the neighbor nearer the epoch start.  ``(n, d)`` is the
    walk's place on the orbit: the node at n in orientation d, which is
    F L^n zeta_R when d = -1.  A node is integrated the first time the walk
    asks for it, so the gradient count is that of integrating each orbit
    node once per epoch.
    """

    def __init__(self, start: _Node):
        self.rays = {1: [start], -1: [_flipped(start)]}
        self.n, self.d = 0, 1

    def node(self, offset: int, params: tuple[float, int], ef: EnergyFunction) -> _Node:
        """The node at n + offset * d in orientation d.

        Raises IntegrationError, carrying the node in orientation d, where
        its total energy is not finite.
        """
        n = self.n + offset * self.d
        side = 1 if n >= 0 else -1
        ray = self.rays[side]
        while len(ray) <= abs(n):
            last = ray[-1]
            ray.append(_make_node(*leapfrog_with_grad(last.state, params, ef, grad0=last.grad)))
        node = ray[abs(n)] if side == self.d else _flipped(ray[abs(n)])
        if not np.isfinite(node.h):
            raise IntegrationError("non-finite energy encountered", *node.state)
        return node


def init_orbit(zeta: Phase, config: SamplerConfig, ef: EnergyFunction) -> Orbit:
    params = (config.epsilon, config.steps)
    g0 = ef.gradient(zeta.x)
    orbit = Orbit(_make_node(zeta, g0, ef.energy(zeta.x)))
    for offset in (0, 1, -1):
        orbit.node(offset, params, ef)
    return orbit


def compute_rates(cur: _Node, fwd: _Node, bwd: _Node, config: SamplerConfig) -> TransitionRates:
    log_gamma_L = -0.5 * (fwd.h - cur.h)
    a = -0.5 * (bwd.h - cur.h)
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
    orbit: Orbit, config: SamplerConfig, ef: EnergyFunction, rng: np.random.Generator
) -> tuple[Orbit, WeightedSample]:
    """One race from the orbit's current node; the next node's neighbors are integrated
    before the row's gradient count is read, as the chain's convention has it."""
    params = (config.epsilon, config.steps)
    cur, fwd, bwd = (orbit.node(offset, params, ef) for offset in (0, 1, -1))
    rates = compute_rates(cur, fwd, bwd, config)
    log_waits = _log_waiting_times(rates, rng)
    shortest = min(log_waits)
    kind = _RACE_KINDS[log_waits.index(shortest)]

    if kind is Transition.L:
        orbit.n += orbit.d
    elif kind is Transition.F:
        orbit.d = -orbit.d
    else:
        nxt = randomize_momentum(cur.state, rng)
        orbit = Orbit(_Node(nxt, cur.potential, cur.potential + kinetic_energy(nxt.v), cur.grad))
    for offset in (0, 1, -1):
        orbit.node(offset, params, ef)

    sample = WeightedSample(
        state=cur.state,
        holding_time=_holding_time(shortest),
        transition_out=kind,
        cumulative_gradient_evals=getattr(ef, "gradient_calls", 0),
    )
    return orbit, sample


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
    try:
        orbit = init_orbit(init, config, counter)
        for _ in range(config.n_samples):
            orbit, sample = step(orbit, config, counter, rng)
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


def reference_orbit_hmc_chain(config: SamplerConfig, ef: EnergyFunction, init: Phase) -> Chain:
    """The control walked on an :class:`Orbit`: a step proposes the node at n + d,
    an accept moves to it (n += d), a reject flips (d = -d), and a redraw starts a
    new orbit at the state the step left."""
    counter = CountingEnergy(ef)
    rng = np.random.default_rng(config.seed)
    params = (config.epsilon, config.steps)
    orbit = Orbit(_make_node(init, counter.gradient(init.x), counter.energy(init.x)))
    n = config.n_samples
    positions, momenta = np.empty((n, init.dim)), np.empty((n, init.dim))
    gradient_evals, accepts = np.empty(n, dtype=np.int64), np.empty(n, dtype=bool)
    for i in range(n):
        d_h = orbit.node(1, params, counter).h - orbit.node(0, params, counter).h
        u = rng.random()
        accepted = d_h <= 0 or u < np.exp(-d_h)
        if accepted:
            orbit.n += orbit.d
        else:
            orbit.d = -orbit.d
        cur = orbit.node(0, params, counter)
        if rng.random() < config.beta:
            nxt = randomize_momentum(cur.state, rng)
            cur = _Node(nxt, cur.potential, cur.potential + kinetic_energy(nxt.v), cur.grad)
            orbit = Orbit(cur)
        positions[i], momenta[i] = cur.state
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
    # some L transitions reached a stored node, so the comparison covers the orbit's reuse
    cost = np.diff(new.gradient_evals)
    assert np.any((new.transitions[1:] == "L") & (cost == 0))


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


@pytest.mark.parametrize(
    "config, ef, init",
    [
        (SamplerConfig("hmc", 0.591686, 25, 0.429956, 3000, seed=0), RoughWell(), rough_start()),
        # past the rough well's stability limit, where L(F L zeta) is far from F zeta
        (SamplerConfig("hmc", 3.0, 25, 0.429956, 3000, seed=0), RoughWell(), rough_start()),
        (SamplerConfig("hmc", 0.1, 20, 0.1, 1500, seed=4), BENCH_GAUSSIAN,
         Phase(np.zeros(50), np.random.default_rng(5).standard_normal(50))),
    ],
    ids=["rough-published", "rough-unstable", "gaussian-50d"],
)
def test_control_chain_walks_the_orbit(config, ef, init):
    # every row, also after the cache hits where the former loop re-integrates
    new = run_chain(config, ef, *init)
    assert_same_chain(new, reference_orbit_hmc_chain(config, ef, init))
    assert np.any(np.diff(new.gradient_evals) == 0)  # some proposals came from the cache


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
