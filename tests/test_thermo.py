import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinodalkit.fields import GridSpec, ScalarField2D
from spinodalkit.solver import _chemical_potential
from spinodalkit.thermo import d2gibbs, dgibbs, free_energy, gibbs, spinodal_interval


def forward_energy(v, h, kappa):
    """F by periodic forward rolls, in v's dtype: the definition of the
    functional, sum of [G(x) + kappa (dx^2 + dy^2) / h^2] h^2."""
    gx = (np.roll(v, -1, axis=1) - v) / h
    gy = (np.roll(v, -1, axis=0) - v) / h
    density = (v * (1.0 - v)) ** 2 + kappa * (gx * gx + gy * gy)
    return density.sum() * h * h


def test_double_well_minima_and_midpoint():
    assert gibbs(0.0) == 0.0
    assert gibbs(1.0) == 0.0
    assert gibbs(0.5) == 0.0625


def test_double_well_symmetry():
    x = np.linspace(-0.2, 1.2, 57)
    assert_allclose(gibbs(x), gibbs(1.0 - x), rtol=0, atol=1e-15)


def test_derivative_point_values():
    assert dgibbs(0.5) == 0.0
    assert d2gibbs(0.5) == -1.0
    assert d2gibbs(0.0) == 2.0
    assert d2gibbs(1.0) == 2.0


@pytest.mark.parametrize("delta", [1e-3, 1e-4])
def test_dgibbs_matches_finite_difference(delta):
    # central-difference error is G'''(x) delta^2 / 6; |G'''| <= 17 on the range
    x = np.linspace(-0.2, 1.2, 141)
    fd = (gibbs(x + delta) - gibbs(x - delta)) / (2 * delta)
    assert np.abs(dgibbs(x) - fd).max() <= 3.0 * delta**2


def test_spinodal_interval_closed_form():
    lo, hi = spinodal_interval()
    assert abs(lo - (3 - math.sqrt(3)) / 6) <= 1e-12
    assert abs(hi - (3 + math.sqrt(3)) / 6) <= 1e-12
    assert lo < 0.48 < hi
    assert abs((lo + hi) - 1.0) <= 1e-12  # symmetric about 0.5


def test_spinodal_endpoints_are_inflection_points():
    lo, hi = spinodal_interval()
    assert abs(d2gibbs(lo)) <= 1e-10
    assert abs(d2gibbs(hi)) <= 1e-10
    inside = np.linspace(lo + 1e-6, hi - 1e-6, 101)
    assert (d2gibbs(inside) < 0).all()


def test_dgibbs_into_out_matches_allocating_call():
    x = np.random.default_rng(4).uniform(-0.5, 1.5, (6, 9))
    buf = np.empty_like(x)
    assert dgibbs(x, out=buf) is buf
    assert np.array_equal(buf, dgibbs(x))
    # gibbs takes the same out=, with the bits of (x (1 - x))^2
    assert gibbs(x, out=buf) is buf
    assert np.array_equal(buf, gibbs(x))
    assert np.array_equal(buf, (x * (1.0 - x)) ** 2)


def test_double_well_matches_polynomial_coefficients():
    # x^2 (1-x)^2 = x^2 - 2 x^3 + x^4, checked against numpy's polynomial oracle
    P = np.polynomial.polynomial
    c = (0.0, 0.0, 1.0, -2.0, 1.0)
    x = np.linspace(-0.5, 1.5, 33)
    assert_allclose(gibbs(x), P.polyval(x, c), rtol=0, atol=1e-12)
    assert_allclose(dgibbs(x), P.polyval(x, P.polyder(c)), rtol=0, atol=1e-12)
    assert_allclose(d2gibbs(x), P.polyval(x, P.polyder(c, 2)), rtol=0, atol=1e-12)


def test_free_energy_uniform_fields():
    spec = GridSpec(8, 16)
    zero = ScalarField2D(spec, np.zeros((16, 8)))
    assert free_energy(zero, kappa=1.0) == 0.0
    half = ScalarField2D(spec, np.full((16, 8), 0.5))
    assert_allclose(free_energy(half, kappa=1.0), 8 * 16 / 16.0, rtol=1e-14)


def test_free_energy_sinusoid_gradient_term():
    # x = 0.5 + eps cos(k i h), k = 2 pi / (nx h): the forward-difference
    # gradient sum is kappa eps^2 (nx ny / 2) k_d^2 with
    # k_d^2 = (4 / h^2) sin^2(k h / 2)
    nx, ny, h, eps, kappa = 32, 8, 0.5, 1e-3, 1.7
    i = np.arange(nx)
    v = 0.5 + eps * np.tile(np.cos(2 * np.pi * i / nx), (ny, 1))
    f = ScalarField2D(GridSpec(nx, ny, h), v)
    k_d2 = 4.0 / h**2 * math.sin(math.pi / nx) ** 2
    gradient_term = kappa * eps**2 * (nx * ny / 2) * k_d2 * h**2
    bulk = float(gibbs(v).sum()) * h**2
    assert_allclose(free_energy(f, kappa), bulk + gradient_term, rtol=1e-10)


def test_free_energy_mirror_symmetry():
    rng = np.random.default_rng(8)
    v = rng.random((16, 16))
    f = ScalarField2D(GridSpec(16, 16), v)
    g = ScalarField2D(GridSpec(16, 16), 1.0 - v)
    assert_allclose(free_energy(f, 1.0), free_energy(g, 1.0), rtol=1e-12)


@pytest.mark.parametrize("shape,h,kappa", [((16, 16), 1.0, 1.0), ((5, 7), 0.7, 2.3),
                                           ((7, 5), 1.3, 0.0), ((48, 64), 1.3, 0.7)])
def test_free_energy_equals_roll_formula(shape, h, kappa):
    v = np.random.default_rng(9).random(shape)
    f = ScalarField2D(GridSpec(shape[1], shape[0], h), v)
    assert free_energy(f, kappa) == float(forward_energy(v, h, kappa))


@pytest.mark.parametrize("h", [1.0, 1.3])
def test_free_energy_gradient_is_chemical_potential(h):
    # dF/dx[i,j] = h^2 mu[i,j].  The difference quotient of F (~3.6) rounds
    # to a few eps |F| / delta ~ 1e-9; its truncation error, a third
    # derivative times delta^2 / 6, is below 1e-11.
    kappa, delta, spec = 0.7, 1e-6, GridSpec(5, 6, h)
    v = np.random.default_rng(12).random((6, 5))
    grad = np.empty_like(v)
    for idx in np.ndindex(v.shape):
        up, down = v.copy(), v.copy()
        up[idx] += delta
        down[idx] -= delta
        grad[idx] = (free_energy(ScalarField2D(spec, up), kappa)
                     - free_energy(ScalarField2D(spec, down), kappa)) / (2 * delta)
    mu = _chemical_potential(np.pad(v, ((1, 1), (0, 0)), mode="wrap"), h, kappa,
                             np.empty_like(v), np.empty_like(v), np.empty((6, 2)))
    assert_allclose(grad, mu * h * h, rtol=0, atol=1e-8)


def test_free_energy_sees_the_checkerboard():
    # the grid-scale mode an unstable explicit step grows first costs
    # kappa (0.2^2 + 0.2^2) per cell against a bulk gain of 0.0049
    n = 64
    i, j = np.indices((n, n))
    board = ScalarField2D(GridSpec(n, n), 0.5 + 0.1 * (-1.0) ** (i + j))
    flat = ScalarField2D(GridSpec(n, n), np.full((n, n), 0.5))
    assert_allclose(free_energy(board, 1.0) - free_energy(flat, 1.0), 307.6096, rtol=1e-12)


def test_free_energy_keeps_precision_near_one():
    # x = 1 + 1e-6 noise: G and the gradient term are both ~1e-12 per cell,
    # and forward differences of nearby values are exact, so F stays within
    # rounding of a long-double sum.  The form sum [G - kappa x lap(x)] h^2,
    # equal in exact arithmetic, cancels to a relative error of ~1e-7 here.
    h, kappa = 1.3, 0.7
    v = 1.0 + 1e-6 * np.random.default_rng(13).standard_normal((256, 256))
    f = ScalarField2D(GridSpec(256, 256, h), v)
    exact = forward_energy(v.astype(np.longdouble), h, kappa)
    assert abs(free_energy(f, kappa) / exact - 1) <= 1e-12


def test_free_energy_rejects_negative_kappa():
    f = ScalarField2D(GridSpec(4, 4), np.zeros((4, 4)))
    for kappa in (-0.1, -math.inf, math.nan, math.inf):
        with pytest.raises(ValueError):
            free_energy(f, kappa=kappa)
