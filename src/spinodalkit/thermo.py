"""Bulk Gibbs free-energy model, spinodal interval, and the free-energy functional.

All thermodynamic quantities are dimensionless solver units. The functional
uses kappa*|grad x|^2, whose variational derivative is -2*kappa*laplacian(x);
factor-of-two conventions differ across the literature, so this one is fixed
here and the solver's chemical potential matches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fields import ScalarField2D

__all__ = [
    "GibbsForm",
    "GibbsModel",
    "NoSpinodalRegionError",
    "gibbs",
    "dgibbs",
    "d2gibbs",
    "spinodal_interval",
    "free_energy",
]


class GibbsForm(Enum):
    DOUBLE_WELL = "double-well"      # G(x) = x^2 (1-x)^2
    POLYNOMIAL = "polynomial"        # G(x) = sum_i coeffs[i] x^i


class NoSpinodalRegionError(ValueError):
    """The model's second derivative is nowhere negative."""


@dataclass(frozen=True)
class GibbsModel:
    form: GibbsForm = GibbsForm.DOUBLE_WELL
    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.form is GibbsForm.POLYNOMIAL and len(self.coeffs) < 3:
            raise ValueError("polynomial Gibbs model needs at least degree 2")


def gibbs(model: GibbsModel, x):
    """Bulk free energy G(x); evaluation outside [0,1] is allowed."""
    x = np.asarray(x, dtype=np.float64)
    if model.form is GibbsForm.DOUBLE_WELL:
        return (x * (1.0 - x)) ** 2
    return np.polynomial.polynomial.polyval(x, model.coeffs)


def dgibbs(model: GibbsModel, x, out: np.ndarray | None = None):
    """G'(x); for the double well x*(2 + x*(-6 + 4x)) = 4x^3 - 6x^2 + 2x.

    With `out` (an array of x's shape, not overlapping x) the result is
    written there and no array is allocated.
    """
    x = np.asarray(x, dtype=np.float64)
    if model.form is GibbsForm.DOUBLE_WELL:
        out = np.multiply(x, 4.0, out=out)
        out += -6.0
        out *= x
        out += 2.0
        out *= x
        return out
    c = np.polynomial.polynomial.polyder(model.coeffs)
    val = np.polynomial.polynomial.polyval(x, c)
    if out is None:
        return val
    out[...] = val
    return out


def d2gibbs(model: GibbsModel, x):
    """G''(x); for the double well 12x^2 - 12x + 2."""
    x = np.asarray(x, dtype=np.float64)
    if model.form is GibbsForm.DOUBLE_WELL:
        return 2.0 + x * (-12.0 + 12.0 * x)
    c = np.polynomial.polynomial.polyder(model.coeffs, 2)
    return np.polynomial.polynomial.polyval(x, c)


def spinodal_interval(model: GibbsModel) -> tuple[float, float]:
    """Maximal interval in [0,1] where G'' < 0.

    Raises NoSpinodalRegionError when G'' is nowhere negative on [0,1].
    """
    if model.form is GibbsForm.DOUBLE_WELL:
        # roots of 12x^2 - 12x + 2
        r = math.sqrt(3.0) / 6.0
        return 0.5 - r, 0.5 + r
    c = np.polynomial.polynomial.polyder(model.coeffs, 2)
    roots = np.polynomial.polynomial.polyroots(c)
    real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0.0 <= r.real <= 1.0)
    edges = [0.0] + real + [1.0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        if hi > lo and d2gibbs(model, mid) < 0:
            return lo, hi
    raise NoSpinodalRegionError("G'' is nowhere negative on [0, 1]: no spinodal region")


def free_energy(f: ScalarField2D, model: GibbsModel, kappa: float) -> float:
    """Total free energy F = sum over cells of [G(x) + kappa |grad x|^2] h^2.

    The gradient is a centered periodic difference. This functional is a
    diagnostic Lyapunov monitor; it is not bit-for-bit the quantity the
    stencil-composed solver dissipates, hence descent checks carry a slack.
    """
    if kappa < 0:
        raise ValueError(f"gradient-energy coefficient must be non-negative, got {kappa}")
    v = f.values
    h = f.spec.h
    gx = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * h)
    gy = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2.0 * h)
    density = gibbs(model, v) + kappa * (gx * gx + gy * gy)
    return float(density.sum() * h * h)
