"""Phase-space operators: leapfrog integration, momentum flip, momentum redraw.

The three operators act on joint position/momentum states.  Leapfrog (L)
advances approximate Hamiltonian dynamics, the flip (F) negates momentum,
and the randomization (R) redraws momentum from its standard-normal
marginal.  L and F are volume preserving and satisfy F L F L = I, which
gives the inverse integrator L^-1 = F L F for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DimensionError

if TYPE_CHECKING:
    from .energy import EnergyFunction

_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True, eq=False)
class PhaseState:
    """A joint phase-space point: position ``x`` and momentum ``v``."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x, v = self.x, self.v
        # The samplers build states from arrays that are already valid; only
        # anything else is converted.
        if not (
            type(x) is np.ndarray and type(v) is np.ndarray
            and x.dtype is _FLOAT64 and v.dtype is _FLOAT64 and x.ndim == v.ndim == 1
        ):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            v = np.atleast_1d(np.asarray(v, dtype=float))
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "v", v)
        if x.shape != v.shape or x.ndim != 1:
            raise DimensionError(f"position shape {x.shape} != momentum shape {v.shape}")

    @property
    def dim(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class LeapfrogParams:
    """Step size and number of leapfrog steps per operator application."""

    epsilon: float
    steps: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")


def flip(zeta: PhaseState) -> PhaseState:
    """Negate the momentum, reversing the direction of travel."""
    return PhaseState(zeta.x, -zeta.v)


def leapfrog_with_grad(
    zeta: PhaseState,
    params: LeapfrogParams,
    ef: "EnergyFunction",
    grad0: Optional[np.ndarray] = None,
) -> tuple[PhaseState, np.ndarray]:
    """Apply ``params.steps`` leapfrog steps and return (state, endpoint gradient).

    The steps run in ``ef.trajectory`` (see
    :meth:`~jumphmc.energy.EnergyFunction.trajectory`), which a target may
    specialise.  ``grad0`` may supply a previously computed gradient at the
    starting position, saving one evaluation (``steps`` evaluations instead
    of ``steps + 1``).

    Raises
    ------
    IntegrationError
        From ``ef.trajectory``, if the integration leaves the region where
        energies and gradients are finite.  The error carries the offending
        state.
    """
    if grad0 is None:
        with np.errstate(over="ignore", invalid="ignore"):
            grad0 = ef.gradient(zeta.x)
    x, v, g = ef.trajectory(zeta.x, zeta.v, grad0, params.epsilon, params.steps)
    return PhaseState(x, v), g


def leapfrog(zeta: PhaseState, params: LeapfrogParams, ef: "EnergyFunction") -> PhaseState:
    """Apply the leapfrog operator L: ``params.steps`` symplectic steps of size epsilon."""
    state, _ = leapfrog_with_grad(zeta, params, ef)
    return state


def leapfrog_inverse(zeta: PhaseState, params: LeapfrogParams, ef: "EnergyFunction") -> PhaseState:
    """Apply L^-1 = F L F: integrate backwards along the trajectory."""
    state, _ = leapfrog_inverse_with_grad(zeta, params, ef)
    return state


def leapfrog_inverse_with_grad(
    zeta: PhaseState,
    params: LeapfrogParams,
    ef: "EnergyFunction",
    grad0: Optional[np.ndarray] = None,
) -> tuple[PhaseState, np.ndarray]:
    """As :func:`leapfrog_with_grad` but for L^-1; gradients reuse the same positions."""
    forward, g = leapfrog_with_grad(flip(zeta), params, ef, grad0=grad0)
    return flip(forward), g


def randomize_momentum(zeta: PhaseState, rng: np.random.Generator) -> PhaseState:
    """Replace the momentum with a fresh standard-normal draw; position unchanged."""
    return PhaseState(zeta.x, rng.standard_normal(zeta.dim))
