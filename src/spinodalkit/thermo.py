"""Double-well bulk free energy, spinodal interval and free-energy functional.

The package has one bulk free energy, the Cahn-Hilliard double well
G(x) = x^2 (1-x)^2; the functions here evaluate that one model.
All thermodynamic quantities are dimensionless solver units. The functional
F sums [G(x) + kappa |grad_h x|^2] h^2 over cells, grad_h x being periodic
forward differences; its gradient is h^2 times the solver's chemical
potential mu = G'(x) - 2 kappa lap(x), so F is what the scheme dissipates.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import ScalarField2D

__all__ = [
    "gibbs",
    "dgibbs",
    "d2gibbs",
    "spinodal_interval",
    "free_energy",
]


def gibbs(x):
    """Bulk free energy G(x); evaluation outside [0,1] is allowed."""
    x = np.asarray(x, dtype=np.float64)
    return (x * (1.0 - x)) ** 2


def dgibbs(x, out: np.ndarray | None = None):
    """G'(x) = x*(2 + x*(-6 + 4x)) = 4x^3 - 6x^2 + 2x.

    With `out` (an array of x's shape, not overlapping x) the result is
    written there and no array is allocated.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.multiply(x, 4.0, out=out)
    out += -6.0
    out *= x
    out += 2.0
    out *= x
    return out


def d2gibbs(x):
    """G''(x) = 12x^2 - 12x + 2."""
    x = np.asarray(x, dtype=np.float64)
    return 2.0 + x * (-12.0 + 12.0 * x)


def spinodal_interval() -> tuple[float, float]:
    """((3 - sqrt 3)/6, (3 + sqrt 3)/6), where G'' < 0: the roots of
    12x^2 - 12x + 2."""
    r = math.sqrt(3.0) / 6.0
    return 0.5 - r, 0.5 + r


def free_energy(f: ScalarField2D, kappa: float) -> float:
    """F = sum over cells of [G(x) + kappa ((x[i,j+1] - x[i,j])^2
    + (x[i+1,j] - x[i,j])^2) / h^2] h^2, with periodic forward differences.

    Its gradient in the cell values is exactly h^2 (G'(x) - 2 kappa lap(x))
    with the 5-point Laplacian lap: h^2 times the solver's `mu`.
    """
    if not 0 <= kappa < math.inf:
        raise ValueError(f"gradient-energy coefficient must be finite and >= 0, got {kappa}")
    v = f.values
    h = f.spec.h
    density, g = np.empty_like(v), np.empty_like(v)
    # d[i] = (w[i+1] - w[i]) / h along the first axis of each view
    for d, w in ((density.T, v.T), (g, v)):
        np.subtract(w[1:], w[:-1], out=d[:-1])
        np.subtract(w[0], w[-1], out=d[-1])
        d /= h
    density *= density
    g *= g
    density += g
    density *= kappa
    # G(v) = (v (1 - v))^2, as gibbs computes it, in the buffer g is done with
    np.subtract(1.0, v, out=g)
    g *= v
    g *= g
    density += g
    return float(density.sum() * h * h)
