"""Double-well bulk free energy, spinodal interval and free-energy functional.

The package has one bulk free energy, the Cahn-Hilliard double well
G(x) = x^2 (1-x)^2; the functions here evaluate that one model.
All thermodynamic quantities are dimensionless solver units. The functional
uses kappa*|grad x|^2, whose variational derivative is -2*kappa*laplacian(x);
factor-of-two conventions differ across the literature, so this one is fixed
here and the solver's chemical potential matches it.
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
    """Total free energy F = sum over cells of [G(x) + kappa |grad x|^2] h^2.

    The gradient is a centered periodic difference. This functional is a
    diagnostic Lyapunov monitor; it is not bit-for-bit the quantity the
    stencil-composed solver dissipates, hence descent checks carry a slack.
    """
    if kappa < 0:
        raise ValueError(f"gradient-energy coefficient must be non-negative, got {kappa}")
    v = f.values
    h = f.spec.h
    gx, gy = np.empty_like(v), np.empty_like(v)
    # g[i] = (w[i+1] - w[i-1]) / 2h along the first axis of each view
    for g, w in ((gx.T, v.T), (gy, v)):
        np.subtract(w[2:], w[:-2], out=g[1:-1])
        np.subtract(w[1], w[-1], out=g[0])
        np.subtract(w[0], w[-2], out=g[-1])
        g /= 2.0 * h
    gx *= gx
    gy *= gy
    gx += gy
    gx *= kappa
    density = gibbs(v)
    density += gx
    return float(density.sum() * h * h)
