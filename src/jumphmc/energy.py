"""Target distributions expressed as energy functions.

An energy function assigns ``E(x) = -log pi(x) + const`` to a position
``x``; samplers only ever consume energy *differences* and gradients, so
the constant never matters.  Momentum is standard normal with unit mass
throughout, so the total energy of a phase-space point (x, v) is
``E(x) + kinetic_energy(v)``, which the samplers form once per node of
their cache (:class:`~jumphmc.jump.StateCache`).  A target also owns its
leapfrog trajectory (:meth:`EnergyFunction.trajectory`).
"""

from __future__ import annotations

import abc
import math

import numpy as np

from .errors import DimensionError, IntegrationError


def _check_dim(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionError(f"expected vector of dimension {dim}, got shape {x.shape}")
    return x


def kinetic_energy(v: np.ndarray) -> float:
    """Kinetic energy |v|^2 / 2 of a unit-mass momentum.

    ``np.vdot`` gives the bits of ``np.dot`` but sets no floating-point
    warning where the sum overflows to inf, which callers check for.
    """
    return 0.5 * float(np.vdot(v, v))


class EnergyFunction(abc.ABC):
    """A target distribution given by its energy and gradient.

    Implementations must be pure and deterministic; any caching lives in
    the samplers.  ``gradient`` must agree with central finite differences
    of ``energy``.  A target may override :meth:`trajectory` with a faster
    leapfrog kernel that computes the same numbers.
    """

    dim: int

    @abc.abstractmethod
    def energy(self, x) -> float:
        """E(x), i.e. -log pi(x) up to an additive constant."""

    @abc.abstractmethod
    def gradient(self, x) -> np.ndarray:
        """dE/dx as a freshly allocated vector of the same dimension as x.

        Must not alias ``x``: the integrator mutates its position buffer in
        place between gradient calls.
        """

    def trajectory(
        self, x: np.ndarray, v: np.ndarray, grad: np.ndarray, epsilon: float, steps: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Run ``steps`` leapfrog steps from (x, v); ``grad`` is the gradient at x.

        Each step is the half-kick / drift / half-kick scheme.  The closing
        half-kick of one step and the opening half-kick of the next use the
        same gradient, so they are applied as one full kick: a half-kick at
        each end and ``steps - 1`` full kicks in between, ``steps`` gradient
        evaluations in all.  Returns fresh (x, v, grad) at the endpoint and
        the endpoint's potential E(x), which may be inf, and leaves the
        inputs untouched.  Both shipped targets run the same IEEE operations
        in faster kernels of their own and take the potential from the
        formula their :meth:`energy` uses, so they return the same bits.

        Raises
        ------
        IntegrationError
            If the endpoint position, momentum or gradient is not finite.  A
            trajectory that overflows ends non-finite, so this one check
            catches any failure along it.  The error carries the endpoint,
            and no potential is evaluated.
        """
        half = 0.5 * epsilon
        # Fresh buffers, updated in place: the loop runs millions of times on
        # tiny vectors, so allocations matter.
        x = x.copy()
        v = v.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            g = grad
            v -= half * g
            for _ in range(steps - 1):
                x += epsilon * v
                g = self.gradient(x)
                v -= epsilon * g
            x += epsilon * v
            g = self.gradient(x)
            v -= half * g
        if not (np.isfinite(x).all() and np.isfinite(v).all() and np.isfinite(g).all()):
            raise _integration_error(x, v)
        return x, v, g, self.energy(x)


def _integration_error(x: np.ndarray, v: np.ndarray) -> IntegrationError:
    return IntegrationError("leapfrog integration produced non-finite values", x, v)


class RoughWell(EnergyFunction):
    """The 2D rough-well target.

    A wide quadratic well of width ``sigma1`` overlaid with sinusoidal
    ripples of period ``sigma2``:

        E(x) = (x1^2 + x2^2) / (2 sigma1^2)
               + cos(pi x1 / sigma2) + cos(pi x2 / sigma2)

    The ripples make the surface rough, so traversing the well needs many
    small integrator steps even though the distribution is well conditioned.
    """

    dim = 2

    def __init__(self, sigma1: float = 100.0, sigma2: float = 4.0):
        if not (0 < sigma1 < math.inf and 0 < sigma2 < math.inf):
            raise ValueError("sigma1 and sigma2 must be positive and finite")
        self.sigma1, self.sigma2 = sigma1, sigma2
        # precomputed constants: these run in the integrator's inner loop
        try:
            self._half_inv_s1sq = 0.5 / sigma1**2
        except (OverflowError, ZeroDivisionError):  # sigma1**2 leaves the float range
            self._half_inv_s1sq = 0.0
        self._curvature = 2.0 * self._half_inv_s1sq
        self._freq = np.pi / sigma2
        if not (0 < self._curvature < math.inf and 0 < self._freq < math.inf):
            raise ValueError("1/sigma1^2 and pi/sigma2 must be positive finite floats")

    def energy(self, x) -> float:
        x = _check_dim(x, 2)
        return self._potential(x, *x.tolist())

    def _potential(self, x: np.ndarray, x0: float, x1: float) -> float:
        """E at ``x``, whose coordinates are the floats x0 and x1: the one formula
        of :meth:`energy` and the kernel's endpoint potential."""
        f = self._freq
        try:
            # the two cosines on floats: the same sum as np.sum(np.cos(f * x))
            ripple = math.cos(f * x0) + math.cos(f * x1)
        except ValueError:
            ripple = math.nan  # math.cos(inf) raises where np.cos gives nan
        # vdot, not x0*x0 + x1*x1, which may round differently (fused multiply-add)
        return self._half_inv_s1sq * float(np.vdot(x, x)) + ripple

    def gradient(self, x) -> np.ndarray:
        """x_i / sigma1^2 - (pi / sigma2) sin(pi x_i / sigma2)."""
        c, f = self._curvature, self._freq
        # the kernel's operations; math.sin(inf) raises where np.sin gives nan
        return np.array([c * xi - f * math.sin(f * xi) if math.isfinite(f * xi) else math.nan
                         for xi in _check_dim(x, 2).tolist()])

    def trajectory(self, x, v, grad, epsilon, steps):
        """The leapfrog loop of :meth:`EnergyFunction.trajectory` on Python floats.

        On two coordinates numpy's per-call overhead dwarfs the arithmetic.
        The scalar updates are the same IEEE operations as the array ones,
        so the results are the same numbers.  The endpoint potential comes
        from the floats the loop ends with.
        """
        x0, x1 = _check_dim(x, 2).tolist()
        v0, v1 = v.tolist()
        g0, g1 = grad.tolist()
        eps = float(epsilon)  # a numpy scalar would make every update a numpy call
        half = 0.5 * eps
        c, f, sin = self._curvature, self._freq, math.sin
        try:
            v0 -= half * g0
            v1 -= half * g1
            for _ in range(steps - 1):
                x0 += eps * v0
                x1 += eps * v1
                g0 = c * x0 - f * sin(f * x0)  # gradient's formula, without the call
                g1 = c * x1 - f * sin(f * x1)
                v0 -= eps * g0
                v1 -= eps * g1
            x0 += eps * v0
            x1 += eps * v1
            g0 = c * x0 - f * sin(f * x0)
            g1 = c * x1 - f * sin(f * x1)
            v0 -= half * g0
            v1 -= half * g1
        except ValueError:
            # math.sin(inf) raises where np.sin gives nan: the position has
            # overflowed, and the generic loop raises with the state it runs on to.
            return EnergyFunction.trajectory(self, x, v, grad, epsilon, steps)
        isfinite = math.isfinite
        if not (isfinite(x0) and isfinite(x1) and isfinite(v0) and isfinite(v1)
                and isfinite(g0) and isfinite(g1)):
            raise _integration_error(np.array([x0, x1]), np.array([v0, v1]))
        x = np.array([x0, x1])
        return x, np.array([v0, v1]), np.array([g0, g1]), self._potential(x, x0, x1)


class DiagonalGaussian(EnergyFunction):
    """Gaussian target with diagonal precision matrix: E(x) = 0.5 * sum_i p_i x_i^2."""

    def __init__(self, precision_diag):
        p = np.atleast_1d(np.asarray(precision_diag, dtype=float))
        if p.ndim != 1 or p.size == 0:
            raise ValueError("precision_diag must be a nonempty vector")
        if not np.all((p > 0) & (p < np.inf)):
            raise ValueError("all precisions must be positive and finite")
        self.precision_diag = p
        self.dim = p.size

    @classmethod
    def isotropic(cls, dim: int, precision: float = 1.0) -> "DiagonalGaussian":
        return cls(np.full(dim, float(precision)))

    def energy(self, x) -> float:
        x = _check_dim(x, self.dim)
        with np.errstate(over="ignore"):  # far out in the tail the energy is inf
            return self._potential(x)

    def _potential(self, x: np.ndarray) -> float:
        """The one formula of :meth:`energy` and the kernel's endpoint potential."""
        return 0.5 * float(np.vdot(self.precision_diag, x * x))

    def gradient(self, x) -> np.ndarray:
        """p_i x_i."""
        return self.precision_diag * _check_dim(x, self.dim)

    def trajectory(self, x, v, grad, epsilon, steps):
        """:meth:`EnergyFunction.trajectory` with g = p x inline and no temporaries.

        The step sizes are 0-d float64 arrays: numpy multiplies by one in
        about half the time it takes to convert a Python float, with the
        same bits.
        """
        mul, add, sub = np.multiply, np.add, np.subtract
        eps = np.array(epsilon, dtype=float)
        half = np.array(0.5 * epsilon, dtype=float)
        p, x, v = self.precision_diag, _check_dim(x, self.dim).copy(), v.copy()
        g, t = np.empty_like(x), np.empty_like(x)
        with np.errstate(over="ignore", invalid="ignore"):  # out= given by position: faster
            sub(v, mul(half, grad, t), v)
            for _ in range(steps - 1):
                add(x, mul(eps, v, t), x)
                mul(p, x, g)
                sub(v, mul(eps, g, t), v)
            add(x, mul(eps, v, t), x)
            mul(p, x, g)
            sub(v, mul(half, g, t), v)
            potential = self._potential(x)
        if not (np.isfinite(x).all() and np.isfinite(v).all() and np.isfinite(g).all()):
            raise _integration_error(x, v)
        return x, v, g, potential


class CountingEnergy(EnergyFunction):
    """Wrapper that counts energy and gradient evaluations.

    Samplers wrap their target in this to report true per-sample costs;
    nothing is cached here, so every avoided recomputation upstream shows
    up directly in the counts.  A trajectory counts its ``steps`` gradient
    evaluations, however the target computes them, and, once it returns,
    the one energy evaluation of its endpoint potential.
    """

    def __init__(self, inner: EnergyFunction):
        self.inner = inner
        self.dim = inner.dim
        self.energy_calls = 0
        self.gradient_calls = 0

    def energy(self, x) -> float:
        self.energy_calls += 1
        return self.inner.energy(x)

    def gradient(self, x) -> np.ndarray:
        self.gradient_calls += 1
        return self.inner.gradient(x)

    def trajectory(self, x, v, grad, epsilon, steps):
        self.gradient_calls += steps
        end = self.inner.trajectory(x, v, grad, epsilon, steps)
        self.energy_calls += 1
        return end


def worst_reversibility(cases) -> float:
    """Worst |F L F L (x, v) - (x, v)| / |(x, v)| over ``(ef, x, v, epsilon, steps)`` cases, which
    may be a generator: L is ``ef.trajectory`` from a fresh gradient, F the momentum flip."""
    worst = 0.0
    for ef, x, v, epsilon, steps in cases:
        x1, v1, _, _ = ef.trajectory(x, v, ef.gradient(x), epsilon, steps)
        x2, v2, _, _ = ef.trajectory(x1, -v1, ef.gradient(x1), epsilon, steps)
        error = np.linalg.norm(np.concatenate([x2 - x, -v2 - v]))
        worst = max(worst, float(error / np.linalg.norm(np.concatenate([x, v]))))
    return worst
