"""Nonlinear least squares (Levenberg-Marquardt) and the parametric models
used for critical-field, resonator, and conductivity analysis.

The engine is deliberately small: numeric central-difference Jacobians,
multiplicative damping on the scaled normal equations, one stop rule
(stationarity) and a cost trace that shows no step goes uphill.  Every
driver fits in coordinates of order one.  Complex observations contribute
real and imaginary residuals separately.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fields import NumericalFailure, _table_columns, write_table_csv
from .transport import CONSTANTS, _ols_line

__all__ = [
    "FitModel",
    "FitResult",
    "SingularFitError",
    "LinearFit",
    "ConductivityRegimes",
    "nlls_fit",
    "model_gl_hc2",
    "model_powerlaw_hc2",
    "model_inv_s21",
    "fit_gl_hc2",
    "fit_powerlaw_hc2",
    "fit_resonance",
    "fit_conductivity_regimes",
    "read_xy_csv",
    "read_s21_csv",
    "fit_report_text",
    "write_fit_csv",
]

EXPONENT_CAP = 10.0  # power-law exponents are confined to (0, 10]
# fit_conductivity_regimes' temperature windows (K): sigma vs T on the
# high one, sigma vs sqrt(T) on the low one
HIGH_T_WINDOW = (100.0, 300.0)
LOW_T_WINDOW = (10.0, 60.0)


class SingularFitError(RuntimeError, NumericalFailure):
    """Normal equations are numerically singular."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class FitModel:
    """A named parametric curve: fn(params, x) -> model values.

    Output may be real or complex; complex models are fitted on stacked
    real/imaginary residuals.
    """

    name: str
    param_names: tuple[str, ...]
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if len(self.param_names) < 1:
            raise ValueError("model needs at least one parameter")


@dataclass(frozen=True)
class FitResult:
    model_name: str
    param_names: tuple[str, ...]
    params: np.ndarray
    covariance: np.ndarray
    ss_res: float
    r_squared: float
    n_iter: int
    converged: bool
    cost_trace: tuple[float, ...]
    message: str = ""

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])

    def uncertainty(self, name: str) -> float:
        i = self.param_names.index(name)
        return float(math.sqrt(abs(self.covariance[i, i])))


def _stack_residual(y: np.ndarray, model_vals) -> np.ndarray:
    r = y - model_vals
    if np.iscomplexobj(r):
        return np.concatenate((r.real, r.imag))
    return np.asarray(r, dtype=np.float64)


# what a model raises for parameters outside its domain
_DOMAIN_ERRORS = (ValueError, FloatingPointError, ZeroDivisionError, OverflowError)


def _numeric_jacobian(residual: Callable[[np.ndarray], np.ndarray],
                      p: np.ndarray, m: int) -> np.ndarray:
    """Central differences dr/dp with one absolute step of 1e-6.  The fit
    drivers work in coordinates of order one, so the step is small against
    every feature of the model, and a coordinate at 0 is no special case."""
    J = np.empty((m, p.size))
    for j in range(p.size):
        pp = p.copy()
        pp[j] = p[j] + 1e-6
        rp = residual(pp)
        pp[j] = p[j] - 1e-6
        J[:, j] = (rp - residual(pp)) / 2e-6
    return J


def nlls_fit(model: FitModel, x, y, init, max_iter: int = 200) -> FitResult:
    """Levenberg-Marquardt minimizer of sum |y - fn(p, x)|^2, for p of order
    one (the Jacobian takes one absolute step).

    Damping is multiplicative on the diagonal of the normal matrix (lambda
    scaled by 10 on reject, /10 on accept).  The fit is converged exactly
    when it reaches a stationary point (Moré 1978): a Gauss-Newton step from
    it would remove at most 1e-10 of the cost, or the residual norm is at
    most sqrt(eps) of the data's, the rounding level a noiseless trace ends
    on.  It then still takes that Gauss-Newton step if it lowers the cost.
    Reaching max_iter, finding no downhill step from a point that is not
    stationary, a point too near the model's domain edge for the Jacobian,
    or a non-finite covariance returns a result flagged non-converged.
    Singular normal equations raise SingularFitError with a condition
    estimate.
    """
    x, y = np.asarray(x), np.asarray(y)
    p = np.asarray(init, dtype=np.float64).copy()
    n = p.size
    if len(model.param_names) != n:
        raise ValueError(f"{model.name}: init has {n} entries for "
                         f"{len(model.param_names)} parameters")
    yy = _stack_residual(y, 0.0)
    m = yy.size
    if m < n:
        raise ValueError(f"{model.name}: {y.size} observations cannot "
                         f"constrain {n} parameters")
    if not np.isfinite(p).all():
        raise ValueError(f"{model.name}: initial parameters must be finite")

    def residual(params: np.ndarray) -> np.ndarray:
        return _stack_residual(y, model.fn(params, x))

    rounding_cost = np.finfo(np.float64).eps * float(yy @ yy)
    r = residual(p)
    cost = float(r @ r)
    trace = [cost]
    lam = 1e-3
    converged, message = False, "max iterations reached"
    it = 0
    J = _numeric_jacobian(residual, p, m)

    while it < max_iter:
        it += 1
        JtJ, downhill = J.T @ J, -J.T @ r
        if not np.isfinite(JtJ).all():
            raise SingularFitError(f"{model.name}: non-finite normal equations",
                                   condition=float("inf"))
        # a Gauss-Newton step removes the cost of r's projection on J
        gauss_newton = -np.linalg.lstsq(J, r, rcond=None)[0]
        removed = J @ gauss_newton
        stationary = cost <= rounding_cost or float(removed @ removed) <= 1e-10 * cost
        scale = np.diag(np.where(np.diag(JtJ) > 0, np.diag(JtJ), 1.0))
        while True:
            try:
                step = gauss_newton if stationary else \
                    np.linalg.solve(JtJ + lam * scale, downhill)
                if not np.isfinite(step).all():
                    raise np.linalg.LinAlgError("non-finite step")
            except np.linalg.LinAlgError as exc:
                cond = float(np.linalg.cond(JtJ))
                raise SingularFitError(f"{model.name}: singular normal equations "
                                       f"(cond ~ {cond:.3e})", condition=cond) from exc
            p_try = p + step
            try:
                r_try = residual(p_try)
                cost_try = float(r_try @ r_try)
            except _DOMAIN_ERRORS:
                cost_try = math.inf  # trial left the model's domain
            accepted = cost_try < cost
            if accepted or stationary or lam >= 1e12:
                break
            lam *= 10.0
        if accepted:
            lam = max(lam / 10.0, 1e-15)
            p, r, cost = p_try, r_try, cost_try
            trace.append(cost)
        if stationary or not accepted:
            converged = stationary
            message = "stationary point" if stationary else \
                "no downhill step from a point that is not stationary"
            break
        try:
            J = _numeric_jacobian(residual, p, m)
        except _DOMAIN_ERRORS:   # p lies within one Jacobian step of the domain's edge
            message = "Jacobian step left the model's domain"
            break

    ss_tot = float(((yy - yy.mean()) ** 2).sum())
    r_squared = 1.0 - cost / ss_tot if ss_tot > 0.0 else float(cost == 0.0)
    # J is at p, or where the last accepted step began; for a converged fit
    # that step is a Gauss-Newton step, far within an uncertainty
    try:
        cov = np.linalg.inv(J.T @ J) * (cost / max(m - n, 1))
        cov = 0.5 * (cov + cov.T)
    except np.linalg.LinAlgError:
        cov = np.full((n, n), np.nan)
    if converged and not np.isfinite(cov).all():
        converged = False
        message = "covariance is not finite"

    return FitResult(model_name=model.name, param_names=model.param_names,
                     params=p, covariance=cov, ss_res=cost,
                     r_squared=r_squared, n_iter=it, converged=converged,
                     cost_trace=tuple(trace), message=message)


# ---------------------------------------------------------------------------
# Physical models
# ---------------------------------------------------------------------------

def model_gl_hc2(T, xi: float, T_c: float):
    """Parallel-field GL upper critical field
    mu0 Hc2(T) = Phi0/(2 pi xi^2) * (1 - (T/T_c)^2), clamped to 0 above T_c:
    the power law with H0 = Phi0/(2 pi xi^2), alpha = 2 and beta = 1."""
    if xi <= 0:
        raise ValueError(f"xi must be positive, got xi={xi}")
    return model_powerlaw_hc2(T, CONSTANTS.flux_quantum / (2.0 * math.pi * xi ** 2),
                              2.0, 1.0, T_c)


def model_powerlaw_hc2(T, H0: float, alpha: float, beta: float, T_c: float):
    """Empirical perpendicular-field form
    mu0 Hc2(T) = H0 * (1 - (T/T_c)^alpha)^beta, clamped to 0 above T_c."""
    if alpha <= 0 or beta <= 0 or T_c <= 0:
        raise ValueError(f"alpha, beta, T_c must be positive, got "
                         f"alpha={alpha} beta={beta} T_c={T_c}")
    t = np.asarray(T, dtype=np.float64)
    base = 1.0 - (t / T_c) ** alpha
    if (base < 0).any():
        warnings.warn("temperatures above T_c clamped to zero field",
                      RuntimeWarning, stacklevel=2)
        base = np.maximum(base, 0.0)
    out = H0 * base ** beta
    return out if out.ndim else float(out)


def model_inv_s21(f, Q_i: float, Q_c_star: float, phi: float, f0: float):
    """Inverse transmission of a notch resonator:
    S21^-1(f) = 1 + (Q_i/Q_c*) e^{i phi} / (1 + 2i Q_i (f - f0)/f0)."""
    if Q_i <= 0 or Q_c_star <= 0 or f0 <= 0:
        raise ValueError(f"Q_i, Q_c*, f0 must be positive, got "
                         f"Q_i={Q_i} Q_c*={Q_c_star} f0={f0}")
    farr = np.asarray(f, dtype=np.float64)
    out = 1.0 + (Q_i / Q_c_star) * np.exp(1j * phi) \
        / (1.0 + 2j * Q_i * (farr - f0) / f0)
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Fit drivers with initial-guess helpers
# ---------------------------------------------------------------------------

def _fit_scaled(model: FitModel, x, y, z0, to_params, dp_dz) -> FitResult:
    """Fit `model` in coordinates z of order one, starting from z0.
    to_params(z) gives the model's parameters, each from its own coordinate,
    and dp_dz(z) their derivatives, which map the covariance back by the
    chain rule.  Temperatures above T_c are clamped, and a covariance that
    overflows is not finite, without a warning."""
    scaled = replace(model, fn=lambda z, t: model.fn(to_params(z), t))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = nlls_fit(scaled, x, y, z0)
        grad = dp_dz(res.params)
        cov = res.covariance * np.outer(grad, grad)
    if res.converged and not np.isfinite(cov).all():
        res = replace(res, converged=False, message="covariance is not finite")
    return replace(res, params=to_params(res.params), covariance=cov)


def fit_gl_hc2(T, muH, init: tuple[float, float] | None = None) -> FitResult:
    """Fit (xi, T_c) to a parallel-field Hc2(T) trace, both in units of init."""
    T = np.asarray(T, dtype=np.float64)
    muH = np.asarray(muH, dtype=np.float64)
    if init is None:
        h_max = float(muH.max())
        xi0 = math.sqrt(CONSTANTS.flux_quantum / (2.0 * math.pi * max(h_max, 1e-12)))
        init = (xi0, 1.02 * float(T.max()))
    unit = np.array(init, dtype=np.float64)
    model = FitModel("gl_hc2", ("xi_m", "Tc_K"), lambda p, t: model_gl_hc2(t, *p))
    return _fit_scaled(model, T, muH, np.ones(2), lambda z: unit * z,
                       lambda z: unit)


def _to_bounded(u: np.ndarray) -> np.ndarray:
    """Logistic map R -> (0, cap) for exponent parameters."""
    return EXPONENT_CAP / (1.0 + np.exp(-u))


def _from_bounded(v: float) -> float:
    if not 0.0 < v < EXPONENT_CAP:
        raise ValueError(f"exponent must lie in (0, {EXPONENT_CAP}), got {v}")
    return math.log(v / (EXPONENT_CAP - v))


def fit_powerlaw_hc2(T, muH, T_c: float,
                     init: tuple[float, float, float] | None = None) -> FitResult:
    """Fit (H0, alpha, beta) at fixed T_c: H0 in units of init, and the
    exponents kept in (0, 10] through a logistic reparameterization."""
    T = np.asarray(T, dtype=np.float64)
    muH = np.asarray(muH, dtype=np.float64)
    if init is None:
        init = (float(muH.max()), 2.0, 1.0)
    h0, a0, b0 = init

    def to_params(z: np.ndarray) -> np.ndarray:
        return np.concatenate(([h0 * z[0]], _to_bounded(z[1:])))

    def dp_dz(z: np.ndarray) -> np.ndarray:
        v = _to_bounded(z[1:])
        return np.concatenate(([h0], v * (EXPONENT_CAP - v) / EXPONENT_CAP))

    model = FitModel("powerlaw_hc2", ("H0_T", "alpha", "beta"),
                     lambda p, t: model_powerlaw_hc2(t, p[0], p[1], p[2], T_c))
    z0 = np.array([1.0, _from_bounded(a0), _from_bounded(b0)])
    return _fit_scaled(model, T, muH, z0, to_params, dp_dz)


def _resonance_init(f: np.ndarray, s21_inv: np.ndarray) -> tuple[float, float, float, float]:
    """Seed (Q_i, Q_c*, phi, f0) from the resonance peak of |S21^-1 - 1|:
    f0 at the peak, Q_i from the sqrt(3)-height width, Q_c* from the depth."""
    y = s21_inv - 1.0
    mag = np.abs(y)
    i0 = int(np.argmax(mag))
    f0 = float(f[i0])
    amp = float(mag[i0])
    above = np.nonzero(mag >= amp / 2.0)[0]
    width = float(f[above[-1]] - f[above[0]]) if above.size > 1 else \
        float(f[-1] - f[0]) / 10.0
    q_i = math.sqrt(3.0) * f0 / max(width, 1e-12 * f0)
    q_c = q_i / max(amp, 1e-12)
    phi = float(np.angle(y[i0]))
    return q_i, q_c, phi, f0


def fit_resonance(f, s21_inv,
                  init: tuple[float, float, float, float] | None = None) -> FitResult:
    """Fit (Q_i, Q_c*, phi, f0) to a complex inverse-S21 trace: Q_i and Q_c*
    in units of their seeds, and f0 as the seed's plus a detuning measured
    in the seed's linewidths f0/Q_i."""
    f = np.asarray(f, dtype=np.float64)
    s21_inv = np.asarray(s21_inv, dtype=np.complex128)
    if init is None:
        init = _resonance_init(f, s21_inv)
    q_i, q_c, phi, f0 = init
    offset = np.array([0.0, 0.0, 0.0, f0])
    unit = np.array([q_i, q_c, 1.0, f0 / q_i])
    model = FitModel("inv_s21", ("Q_i", "Q_c_star", "phi_rad", "f0_Hz"),
                     lambda p, x: model_inv_s21(x, *p))
    return _fit_scaled(model, f, s21_inv, np.array([1.0, 1.0, phi, 0.0]),
                       lambda z: offset + unit * z, lambda z: unit)


# ---------------------------------------------------------------------------
# Conductivity regimes (plain OLS on two temperature windows)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class ConductivityRegimes:
    high_T: LinearFit   # sigma vs T on the high window
    low_T: LinearFit    # sigma vs sqrt(T) on the low window


def _ols(x: np.ndarray, y: np.ndarray) -> LinearFit:
    slope, intercept = _ols_line(x, y, "degenerate abscissa; slope undefined")
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    dy = y - y.mean()
    ss_tot = float(dy @ dy)
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r2)


def fit_conductivity_regimes(T, sigma) -> ConductivityRegimes:
    """HIGH_T_WINDOW: OLS of sigma vs T.  LOW_T_WINDOW: OLS of sigma vs sqrt(T).

    Each window needs at least three points.
    """
    T = np.asarray(T, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    fits = []
    for (lo, hi), transform in ((HIGH_T_WINDOW, lambda t: t),
                                (LOW_T_WINDOW, np.sqrt)):
        m = (T >= lo) & (T <= hi)
        if int(m.sum()) < 3:
            raise ValueError(f"fewer than 3 points in window [{lo}, {hi}] K")
        fits.append(_ols(transform(T[m]), sigma[m]))
    return ConductivityRegimes(high_T=fits[0], low_T=fits[1])


# ---------------------------------------------------------------------------
# File formats and reports
# ---------------------------------------------------------------------------

def read_xy_csv(path, columns: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """Two-column numeric CSV with an exact header, e.g. (T_K, muH_T)."""
    x, y = _table_columns(path, ",".join(columns))
    return x, y


def read_s21_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Resonance trace with header f_Hz,re_S21,im_S21; returns (f, complex S21)."""
    f, real, imag = _table_columns(path, "f_Hz,re_S21,im_S21")
    return f, real + 1j * imag


def fit_report_text(result: FitResult) -> str:
    lines = [f"model: {result.model_name}",
             f"converged: {result.converged} ({result.message}, "
             f"{result.n_iter} iterations)"]
    for i, name in enumerate(result.param_names):
        lines.append(f"  {name:>12s} = {result.params[i]:.9g}"
                     f" +/- {result.uncertainty(name):.3g}")
    lines.append(f"  R^2 = {result.r_squared:.6f}   SS_res = {result.ss_res:.6g}")
    return "\n".join(lines)


def write_fit_csv(path, result: FitResult) -> None:
    """Machine-readable fit report: parameter,value,uncertainty plus
    r_squared / ss_res / converged footer rows."""
    write_table_csv(path, "parameter,value,uncertainty", [
        *((name, result[name], result.uncertainty(name)) for name in result.param_names),
        ("r_squared", result.r_squared, ""),
        ("ss_res", result.ss_res, ""),
        ("converged", result.converged, "")])
