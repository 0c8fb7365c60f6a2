import math

import numpy as np
import pytest

from jumphmc import (
    DiagonalGaussian,
    DimensionError,
    RoughWell,
    init_cache,
)


def central_diff_gradient(energy, x, h=1e-5):
    """Independent oracle: central finite differences of the energy."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (energy(up) - energy(dn)) / (2 * h)
    return grad


def test_rough_well_energy_at_origin():
    # quadratic term vanishes, both cosines are 1
    assert RoughWell().energy(np.zeros(2)) == pytest.approx(2.0, abs=1e-15)


def test_rough_well_energy_at_two_two():
    # 8/20000 + 2 cos(pi/2) = 4e-4
    assert RoughWell().energy(np.array([2.0, 2.0])) == pytest.approx(4.0e-4, abs=1e-12)


def test_rough_well_energy_generic_point():
    # frozen from an independent evaluation of the formula, re-derived inline
    x = (1.3, -0.7)
    oracle = (x[0] ** 2 + x[1] ** 2) / (2 * 100.0**2) + math.cos(
        math.pi * x[0] / 4.0
    ) + math.cos(math.pi * x[1] / 4.0)
    value = RoughWell().energy(np.array(x))
    assert value == pytest.approx(1.3752477290700411, rel=1e-12)
    assert value == pytest.approx(oracle, rel=1e-12)


def test_rough_well_gradient_odd_symmetry():
    np.testing.assert_allclose(RoughWell().gradient(np.zeros(2)), np.zeros(2))


def test_rough_well_gradient_known_point():
    expected = np.array([2.0 / 10000.0 - math.pi / 4.0, 0.0])
    np.testing.assert_allclose(RoughWell().gradient(np.array([2.0, 0.0])), expected, rtol=1e-12)


def test_rough_well_gradient_matches_finite_differences():
    ef = RoughWell()
    x = np.array([0.37, -2.9])
    fd = central_diff_gradient(ef.energy, x)
    np.testing.assert_allclose(ef.gradient(x), fd, rtol=1e-5)


def test_rough_well_gradient_is_nan_at_infinite_coordinate():
    # as np.sin(inf) is nan; math.sin(inf) would raise ValueError instead
    g = RoughWell().gradient(np.array([np.inf, 2.0]))
    assert np.isnan(g[0])
    assert g[1] == pytest.approx(2.0 / 10000.0 - math.pi / 4.0, rel=1e-12)


def test_rough_well_energy_is_nan_at_infinite_coordinate():
    # as np.cos(inf) is nan; math.cos(inf) would raise ValueError instead
    assert math.isnan(RoughWell().energy([np.inf, 2.0]))
    assert math.isnan(RoughWell().energy([0.0, -np.inf]))


def test_rough_well_energy_matches_numpy_formula():
    # the ripple runs on floats with math.cos; it equals the numpy formula
    # it replaced bit for bit, far from the mode too
    ef = RoughWell()
    rng = np.random.default_rng(7)
    for scale in (1.0, 1e2, 1e5, 1e12, 1e100):
        for x in rng.standard_normal((2000, 2)) * scale:
            ref = (0.5 / ef.sigma1**2 * float(np.dot(x, x))
                   + float(np.sum(np.cos(np.pi / ef.sigma2 * x))))
            assert ef.energy(x) == ref


def test_rough_well_dimension_error():
    with pytest.raises(DimensionError):
        RoughWell().energy(np.zeros(3))
    with pytest.raises(DimensionError):
        RoughWell().gradient(np.zeros(1))


def test_gaussian_energy_trivial():
    ef = DiagonalGaussian(np.array([4.0]))
    assert ef.energy(np.zeros(1)) == 0.0
    assert ef.energy(np.array([1.0])) == pytest.approx(2.0)
    np.testing.assert_allclose(ef.gradient(np.array([1.0])), [4.0])


def test_gaussian_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    ef = DiagonalGaussian(np.array([0.5, 2.0, 7.0]))
    for _ in range(5):
        x = rng.normal(size=3)
        fd = central_diff_gradient(ef.energy, x)
        np.testing.assert_allclose(ef.gradient(x), fd, rtol=1e-5, atol=1e-8)


def test_gaussian_params_validation():
    with pytest.raises(ValueError):
        DiagonalGaussian(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        DiagonalGaussian(np.array([]))
    for precision in ([0.0, 1.0], [np.inf, 1.0], [np.nan]):
        with pytest.raises(ValueError, match="positive and finite"):
            DiagonalGaussian(precision)


def test_rough_well_params_validation():
    with pytest.raises(ValueError):
        RoughWell(sigma1=0.0)
    with pytest.raises(ValueError):
        RoughWell(sigma2=-1.0)
    # 1e-200 and 1e200 used to raise ZeroDivisionError and OverflowError from
    # sigma1**2, and 1e-310 left pi/sigma2 infinite
    for kwargs in ({"sigma1": np.inf}, {"sigma2": np.nan}, {"sigma1": 1e-200},
                   {"sigma1": 1e200}, {"sigma2": 1e-310}):
        with pytest.raises(ValueError):
            RoughWell(**kwargs)


def joint_energy(x, v, ef):
    """H(x, v) = E(x) + |v|^2 / 2 as the samplers form it: the total energy of a start node."""
    return init_cache(x, v, ef).node()[4]


def test_joint_energy_rough_well_origin():
    assert joint_energy(np.zeros(2), np.zeros(2), RoughWell()) == pytest.approx(2.0)


def test_joint_energy_kinetic_term():
    # E(x) = 0 at the Gaussian origin, so H is the kinetic energy alone
    ef = DiagonalGaussian.isotropic(2)
    assert joint_energy(np.zeros(2), np.array([3.0, 4.0]), ef) == pytest.approx(12.5)


def test_joint_energy_is_sum_of_parts():
    rng = np.random.default_rng(3)
    ef = RoughWell()
    for _ in range(5):
        x, v = rng.normal(size=2), rng.normal(size=2)
        expected = ef.energy(x) + 0.5 * np.sum(v**2)
        assert joint_energy(x, v, ef) == pytest.approx(expected, rel=1e-14)


def test_joint_energy_dimension_mismatch():
    with pytest.raises(DimensionError):
        joint_energy(np.zeros(3), np.zeros(3), RoughWell())


@pytest.mark.parametrize(
    "ef",
    [
        RoughWell(),
        RoughWell(sigma1=10.0, sigma2=2.0),
        DiagonalGaussian(np.array([1.0, 4.0])),
        DiagonalGaussian(np.array([0.3, 2.0, 9.0, 0.7])),
    ],
)
def test_gradient_finite_difference_agreement_everywhere(ef):
    # contract: every shipped model's gradient matches central differences
    # to 1e-5 relative at randomly drawn points
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.normal(scale=3.0, size=ef.dim)
        fd = central_diff_gradient(ef.energy, x)
        np.testing.assert_allclose(ef.gradient(x), fd, rtol=1e-5, atol=1e-7)


def test_ripple_is_bounded():
    rng = np.random.default_rng(5)
    ef = RoughWell()
    for _ in range(200):
        x = rng.uniform(-300, 300, size=2)
        ripple = ef.energy(x) - np.dot(x, x) / (2 * ef.sigma1**2)
        assert -2.0 <= ripple <= 2.0


def test_joint_energy_invariant_under_flip():
    rng = np.random.default_rng(9)
    ef = RoughWell()
    for _ in range(20):
        x, v = rng.normal(size=2), rng.normal(size=2)
        assert joint_energy(x, -v, ef) == joint_energy(x, v, ef)
