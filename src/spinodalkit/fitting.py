"""Nonlinear least squares (Levenberg-Marquardt) and the parametric models
used for critical-field, resonator, and conductivity analysis.

The engine is deliberately small: numeric central-difference Jacobians,
multiplicative damping on the scaled normal equations, and a cost trace so
the no-uphill-steps property is checkable.  Complex observations contribute
real and imaginary residuals separately.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fields import read_table_csv, write_table_csv
from .transport import CONSTANTS

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


class SingularFitError(RuntimeError):
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


def _stack_residual(y: np.ndarray, model_vals: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    r = y - model_vals
    if np.iscomplexobj(r):
        return np.concatenate((r.real * weights, r.imag * weights))
    return np.asarray(r, dtype=np.float64) * weights


def _numeric_jacobian(residual: Callable[[np.ndarray], np.ndarray],
                      p: np.ndarray, m: int) -> np.ndarray:
    """Central differences dr/dp with relative step 1e-6 (absolute 1e-6 at
    p_j = 0).  A relative step keeps sign constraints intact for
    tiny-magnitude parameters such as coherence lengths in meters."""
    n = p.size
    J = np.empty((m, n))
    for j in range(n):
        delta = 1e-6 * abs(float(p[j])) or 1e-6
        pp = p.copy()
        pp[j] = p[j] + delta
        rp = residual(pp)
        pp[j] = p[j] - delta
        rm = residual(pp)
        J[:, j] = (rp - rm) / (2.0 * delta)
    return J


def nlls_fit(model: FitModel, x, y, init, weights=None,
             max_iter: int = 200, cost_rtol: float = 1e-10,
             step_atol: float = 1e-12) -> FitResult:
    """Levenberg-Marquardt minimizer of sum w^2 (y - fn(p, x))^2.

    Damping is multiplicative on the diagonal of the normal matrix
    (lambda scaled by 10 on reject, /10 on accept).  Convergence: relative
    reduction of the residual norm below cost_rtol, or step norm below
    step_atol; hitting max_iter or a non-finite covariance returns a result
    flagged non-converged. Singular normal equations raise SingularFitError
    with a condition estimate.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    p = np.asarray(init, dtype=np.float64).copy()
    n = p.size
    if len(model.param_names) != n:
        raise ValueError(f"{model.name}: init has {n} entries for "
                         f"{len(model.param_names)} parameters")
    if weights is None:
        w = np.ones(y.shape, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != y.shape or (w < 0).any():
            raise ValueError("weights must be non-negative, one per observation")
    m = y.size * (2 if np.iscomplexobj(y) else 1)
    if m < n:
        raise ValueError(f"{model.name}: {y.size} observations cannot "
                         f"constrain {n} parameters")
    if not np.isfinite(p).all():
        raise ValueError(f"{model.name}: initial parameters must be finite")

    def residual(params: np.ndarray) -> np.ndarray:
        return _stack_residual(y, model.fn(params, x), w)

    r = residual(p)
    cost = float(r @ r)
    trace = [cost]
    lam = 1e-3
    converged = False
    message = "max iterations reached"
    it = 0

    while it < max_iter:
        it += 1
        J = _numeric_jacobian(residual, p, m)
        JtJ = J.T @ J
        g = J.T @ r
        d = np.diag(JtJ).copy()
        if not np.isfinite(JtJ).all():
            raise SingularFitError(f"{model.name}: non-finite normal equations",
                                   condition=float("inf"))
        scale = np.where(d > 0, d, 1.0)
        accepted = False
        while True:
            M = JtJ + lam * np.diag(scale)
            try:
                step = np.linalg.solve(M, -g)
            except np.linalg.LinAlgError as exc:
                cond = float(np.linalg.cond(JtJ))
                raise SingularFitError(
                    f"{model.name}: singular normal equations "
                    f"(cond ~ {cond:.3e})", condition=cond) from exc
            if not np.isfinite(step).all():
                cond = float(np.linalg.cond(JtJ))
                raise SingularFitError(
                    f"{model.name}: normal-equation solve produced non-finite "
                    f"step (cond ~ {cond:.3e})", condition=cond)
            if float(np.linalg.norm(step)) < step_atol:
                converged = True
                message = "step norm below tolerance"
                break
            p_try = p + step
            try:
                r_try = residual(p_try)
                cost_try = float(r_try @ r_try)
            except (ValueError, FloatingPointError, ZeroDivisionError, OverflowError):
                cost_try = math.inf  # trial left the model's domain
            if math.isfinite(cost_try) and cost_try < cost:
                accepted = True
                break
            lam *= 10.0
            if lam > 1e12:
                converged = True
                message = "damping exhausted; no downhill step exists"
                break
        if not accepted:
            break
        lam = max(lam / 10.0, 1e-15)
        norm_prev = math.sqrt(cost)
        p, r, cost = p_try, r_try, cost_try
        trace.append(cost)
        norm_new = math.sqrt(cost)
        if norm_new == 0.0 or (norm_prev - norm_new) < cost_rtol * norm_prev:
            converged = True
            message = "residual norm stationary"
            break

    ss_res = cost
    yy = np.concatenate((y.real * w, y.imag * w)) if np.iscomplexobj(y) \
        else np.asarray(y, dtype=np.float64) * w
    ss_tot = float(((yy - yy.mean()) ** 2).sum())
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res == 0.0 else 0.0

    J = _numeric_jacobian(residual, p, m)
    dof = max(m - n, 1)
    try:
        cov = np.linalg.inv(J.T @ J) * (ss_res / dof)
        cov = 0.5 * (cov + cov.T)
    except np.linalg.LinAlgError:
        cov = np.full((n, n), np.nan)
    if converged and not np.isfinite(cov).all():
        converged = False
        message = "covariance is not finite"

    return FitResult(model_name=model.name, param_names=model.param_names,
                     params=p, covariance=cov, ss_res=ss_res,
                     r_squared=r_squared, n_iter=it, converged=converged,
                     cost_trace=tuple(trace), message=message)


# ---------------------------------------------------------------------------
# Physical models
# ---------------------------------------------------------------------------

def model_gl_hc2(T, xi: float, T_c: float):
    """Parallel-field GL upper critical field
    mu0 Hc2(T) = Phi0/(2 pi xi^2) * (1 - (T/T_c)^2), clamped to 0 above T_c."""
    if xi <= 0 or T_c <= 0:
        raise ValueError(f"xi and T_c must be positive, got xi={xi} T_c={T_c}")
    t = np.asarray(T, dtype=np.float64)
    base = 1.0 - (t / T_c) ** 2
    if (base < 0).any():
        warnings.warn("temperatures above T_c clamped to zero field",
                      RuntimeWarning, stacklevel=2)
        base = np.maximum(base, 0.0)
    out = CONSTANTS.flux_quantum / (2.0 * math.pi * xi ** 2) * base
    return out if out.ndim else float(out)


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

def fit_gl_hc2(T, muH, init: tuple[float, float] | None = None) -> FitResult:
    """Fit (xi, T_c) to a parallel-field Hc2(T) trace."""
    T = np.asarray(T, dtype=np.float64)
    muH = np.asarray(muH, dtype=np.float64)
    if init is None:
        h_max = float(muH.max())
        xi0 = math.sqrt(CONSTANTS.flux_quantum / (2.0 * math.pi * max(h_max, 1e-12)))
        init = (xi0, 1.02 * float(T.max()))
    model = FitModel("gl_hc2", ("xi_m", "Tc_K"),
                     lambda p, t: model_gl_hc2(t, p[0], p[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return nlls_fit(model, T, muH, np.asarray(init))


def _to_bounded(u: np.ndarray) -> np.ndarray:
    """Logistic map R -> (0, cap) for exponent parameters."""
    return EXPONENT_CAP / (1.0 + np.exp(-u))


def _from_bounded(v: float) -> float:
    if not 0.0 < v < EXPONENT_CAP:
        raise ValueError(f"exponent must lie in (0, {EXPONENT_CAP}), got {v}")
    return math.log(v / (EXPONENT_CAP - v))


def fit_powerlaw_hc2(T, muH, T_c: float,
                     init: tuple[float, float, float] | None = None) -> FitResult:
    """Fit (H0, alpha, beta) at fixed T_c; exponents are kept in (0, 10]
    through a logistic reparameterization, and the reported covariance is
    mapped back with the chain rule."""
    T = np.asarray(T, dtype=np.float64)
    muH = np.asarray(muH, dtype=np.float64)
    if init is None:
        init = (float(muH.max()), 2.0, 1.0)
    h0, a0, b0 = init
    internal_init = np.array([h0, _from_bounded(a0), _from_bounded(b0)])

    def fn(p: np.ndarray, t: np.ndarray) -> np.ndarray:
        ab = _to_bounded(p[1:])
        return model_powerlaw_hc2(t, p[0], float(ab[0]), float(ab[1]), T_c)

    model = FitModel("powerlaw_hc2", ("H0_T", "alpha", "beta"), fn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = nlls_fit(model, T, muH, internal_init)

    ab = _to_bounded(res.params[1:])
    params = np.array([res.params[0], ab[0], ab[1]])
    # d(bounded)/d(u) = v (cap - v) / cap
    grad = np.array([1.0, ab[0] * (EXPONENT_CAP - ab[0]) / EXPONENT_CAP,
                     ab[1] * (EXPONENT_CAP - ab[1]) / EXPONENT_CAP])
    cov = res.covariance * np.outer(grad, grad)
    return replace(res, params=params, covariance=cov)


def _resonance_init(f: np.ndarray, s21_inv: np.ndarray) -> tuple[float, float, float, float]:
    """Seed (Q_i, Q_c*, phi, f0) from the resonance peak of |S21^-1 - 1|:
    f0 at the peak, Q_i from the sqrt(3)-height width, Q_c* from the depth."""
    y = s21_inv - 1.0
    mag = np.abs(y)
    i0 = int(np.argmax(mag))
    f0 = float(f[i0])
    amp = float(mag[i0])
    half = amp / 2.0
    above = np.nonzero(mag >= half)[0]
    width = float(f[above[-1]] - f[above[0]]) if above.size > 1 else \
        float(f[-1] - f[0]) / 10.0
    q_i = math.sqrt(3.0) * f0 / max(width, 1e-12 * f0)
    q_c = q_i / max(amp, 1e-12)
    phi = float(np.angle(y[i0]))
    return q_i, q_c, phi, f0


def fit_resonance(f, s21_inv,
                  init: tuple[float, float, float, float] | None = None) -> FitResult:
    """Fit (Q_i, Q_c*, phi, f0) to a complex inverse-S21 trace."""
    f = np.asarray(f, dtype=np.float64)
    s21_inv = np.asarray(s21_inv, dtype=np.complex128)
    if init is None:
        init = _resonance_init(f, s21_inv)
    model = FitModel("inv_s21", ("Q_i", "Q_c_star", "phi_rad", "f0_Hz"),
                     lambda p, x: model_inv_s21(x, p[0], p[1], p[2], p[3]))
    return nlls_fit(model, f, s21_inv, np.asarray(init))


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
    high_window: tuple[float, float]
    low_window: tuple[float, float]


def _ols(x: np.ndarray, y: np.ndarray) -> LinearFit:
    xm, ym = x.mean(), y.mean()
    dx, dy = x - xm, y - ym
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("degenerate abscissa; slope undefined")
    slope = float(dx @ dy) / sxx
    intercept = float(ym - slope * xm)
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(dy @ dy)
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r2)


def fit_conductivity_regimes(T, sigma,
                             high_window: tuple[float, float] = (100.0, 300.0),
                             low_window: tuple[float, float] = (10.0, 60.0),
                             ) -> ConductivityRegimes:
    """High window: OLS of sigma vs T.  Low window: OLS of sigma vs sqrt(T).

    Each window needs at least three points.
    """
    T = np.asarray(T, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    fits = []
    for (lo, hi), transform in ((high_window, lambda t: t),
                                (low_window, np.sqrt)):
        m = (T >= lo) & (T <= hi)
        if int(m.sum()) < 3:
            raise ValueError(f"fewer than 3 points in window [{lo}, {hi}] K")
        fits.append(_ols(transform(T[m]), sigma[m]))
    return ConductivityRegimes(high_T=fits[0], low_T=fits[1],
                               high_window=high_window, low_window=low_window)


# ---------------------------------------------------------------------------
# File formats and reports
# ---------------------------------------------------------------------------

def read_xy_csv(path, columns: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """Two-column numeric CSV with an exact header, e.g. (T_K, muH_T)."""
    x, y = np.array(read_table_csv(path, ",".join(columns))).T.copy()
    return x, y


def read_s21_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Resonance trace with header f_Hz,re_S21,im_S21; returns (f, complex S21)."""
    f, real, imag = np.array(read_table_csv(path, "f_Hz,re_S21,im_S21")).T.copy()
    return f, real + 1j * imag


def fit_report_text(result: FitResult) -> str:
    lines = [f"model: {result.model_name}",
             f"converged: {result.converged} ({result.message}, "
             f"{result.n_iter} iterations)"]
    for i, name in enumerate(result.param_names):
        lines.append(f"  {name:>12s} = {result.params[i]:.9g}"
                     f" +/- {math.sqrt(abs(result.covariance[i, i])):.3g}")
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
