"""Phase-space states and the leapfrog integrator on them.

A :class:`PhaseState` is a joint position/momentum point.  The leapfrog
operator L advances approximate Hamiltonian dynamics; the steps themselves
run in the target's ``trajectory``, and :func:`leapfrog_with_grad` is the
one adapter from a state to that kernel.  L is volume preserving and, with
the momentum flip F (v -> -v), satisfies F L F L = I, so the inverse
integrator is L^-1 = F L F.  The samplers apply F and the momentum redraw
R directly to their cached arrays (see :class:`~jumphmc.jump.StateCache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DimensionError

if TYPE_CHECKING:
    from .energy import EnergyFunction


@dataclass(frozen=True, eq=False)
class PhaseState:
    """A joint phase-space point: position ``x`` and momentum ``v``."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        # a 1-D float64 array passes through as the same object
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
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
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")


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
