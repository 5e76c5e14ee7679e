"""Carrier and superconducting parameter extraction from transport data.

Everything here is closed-form free-electron / dirty-BCS bookkeeping:
Hall density, Fermi-surface quantities, Ioffe-Regel product, the
weak-coupling gap, sheet kinetic inductance, and the thin-film sheet
inductance from the penetration depth.  All constants are pinned CODATA
2018 values so derived numbers are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import _table_columns, read_table_csv, write_table_csv

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "TransportRecord",
    "FreeElectronParams",
    "DerivedTransport",
    "hall_carrier_density",
    "hall_slope_ols",
    "free_electron_params",
    "bcs_gap",
    "sheet_kinetic_inductance",
    "specific_inductance",
    "sheet_inductance_from_lambda",
    "tc_midpoint",
    "derive_transport",
    "read_transport_csv",
    "read_rt_csv",
    "write_transport_report_csv",
    "TRANSPORT_HEADER",
    "REPORT_HEADER",
]

BCS_GAP_RATIO = 1.764  # weak-coupling Delta(0) / (k_B Tc)
NORMAL_FRACTION = 0.1  # tc_midpoint's R_normal: the hottest tenth of the samples

TRANSPORT_HEADER = "label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T"
REPORT_HEADER = "label,d_m,Tc_K,Rs_ohm_sq,n_e_m3,Lk_H_sq,l_m,kF_l"


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018, SI.  flux_quantum = h/(2e) holds to better than 1e-9."""

    m_e: float = 9.1093837015e-31     # electron mass, kg
    e: float = 1.602176634e-19        # elementary charge, C (exact)
    hbar: float = 1.054571817e-34     # reduced Planck constant, J s
    k_B: float = 1.380649e-23         # Boltzmann constant, J/K (exact)
    mu_0: float = 1.25663706212e-6    # vacuum permeability, H/m
    flux_quantum: float = 2.067833848e-15  # Phi_0 = h/2e, Wb


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class TransportRecord:
    """One measured film: thickness, sheet resistance, Tc, Hall slope."""

    label: str
    d: float           # film thickness, m
    R_s: float         # normal-state sheet resistance, ohm/sq
    T_c: float         # transition temperature, K
    hall_slope: float  # dR_xy/d(mu_0 H), ohm/T

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"{self.label}: thickness must be positive, got {self.d}")
        if self.R_s <= 0:
            raise ValueError(f"{self.label}: sheet resistance must be positive, got {self.R_s}")
        if self.T_c < 0:
            raise ValueError(f"{self.label}: Tc must be non-negative, got {self.T_c}")


@dataclass(frozen=True)
class FreeElectronParams:
    n_e: float      # carrier density, m^-3
    k_F: float      # Fermi wavevector, m^-1
    v_F: float      # Fermi velocity, m/s
    tau: float      # elastic scattering time, s
    l: float        # mean free path, m
    kF_l: float     # Ioffe-Regel product
    rho_xx: float   # resistivity R_s * d, ohm m


@dataclass(frozen=True)
class DerivedTransport:
    """Everything the report emits for one film."""

    record: TransportRecord
    electrons: FreeElectronParams
    gap: float       # Delta, J
    L_k: float       # sheet kinetic inductance, H/sq


def hall_carrier_density(hall_slope: float, d: float) -> float:
    """n_e = 1/(slope * e * d) from the low-field Hall slope dR_xy/d(mu0 H)."""
    if hall_slope <= 0:
        raise ValueError(f"Hall slope must be positive (electron-like), got {hall_slope}")
    if d <= 0:
        raise ValueError(f"thickness must be positive, got {d}")
    return 1.0 / (hall_slope * CONSTANTS.e * d)


def _ols_line(x: np.ndarray, y: np.ndarray, degenerate: str) -> tuple[float, float]:
    """Ordinary least-squares (slope, intercept) of y = slope * x + intercept
    from the centred sums; ValueError(degenerate) when every x is equal."""
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError(degenerate)
    slope = float(dx @ (y - ym)) / sxx
    return slope, float(ym - slope * xm)


def hall_slope_ols(mu0H: np.ndarray, R_xy: np.ndarray) -> tuple[float, float]:
    """Ordinary least squares R_xy = slope * mu0H + offset.

    The fit is not forced through the origin; the offset is a diagnostic
    for field-sweep miscentering.
    """
    x = np.asarray(mu0H, dtype=np.float64)
    y = np.asarray(R_xy, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two (mu0H, R_xy) pairs")
    return _ols_line(x, y, "all field values identical; slope undefined")


def free_electron_params(n_e: float, R_s: float, d: float) -> FreeElectronParams:
    """Free-electron extraction: k_F = (3 pi^2 n_e)^(1/3), v_F = hbar k_F/m_e,
    tau = m_e/(n_e e^2 rho_xx), l = v_F tau."""
    if n_e <= 0 or R_s <= 0 or d <= 0:
        raise ValueError(f"inputs must be positive, got n_e={n_e} R_s={R_s} d={d}")
    c = CONSTANTS
    rho_xx = R_s * d
    k_F = (3.0 * math.pi ** 2 * n_e) ** (1.0 / 3.0)
    v_F = c.hbar * k_F / c.m_e
    tau = c.m_e / (n_e * c.e ** 2 * rho_xx)
    l = v_F * tau
    return FreeElectronParams(n_e=n_e, k_F=k_F, v_F=v_F, tau=tau, l=l,
                              kF_l=k_F * l, rho_xx=rho_xx)


def bcs_gap(T_c: float) -> float:
    """Weak-coupling zero-temperature gap Delta = 1.764 k_B Tc."""
    if T_c < 0:
        raise ValueError(f"Tc must be non-negative, got {T_c}")
    return BCS_GAP_RATIO * CONSTANTS.k_B * T_c


def sheet_kinetic_inductance(R_s: float, T_c: float) -> float:
    """Dirty-limit sheet kinetic inductance L_k = hbar R_s / (pi Delta)."""
    if R_s <= 0 or T_c <= 0:
        raise ValueError(f"inputs must be positive, got R_s={R_s} T_c={T_c}")
    return CONSTANTS.hbar * R_s / (math.pi * bcs_gap(T_c))


def specific_inductance(L_s: float, t: float) -> float:
    """Thickness-normalized figure of merit L_s * t (H m)."""
    if L_s <= 0 or t <= 0:
        raise ValueError(f"inputs must be positive, got L_s={L_s} t={t}")
    return L_s * t


def sheet_inductance_from_lambda(lam: float, t: float) -> float:
    """Thin-film sheet inductance L_s = (mu0 lambda / 2) coth(t / 2 lambda).

    For t << lambda this reduces to mu0 lambda^2 / t, i.e. L_s t -> mu0 lambda^2.
    """
    if lam <= 0 or t <= 0:
        raise ValueError(f"inputs must be positive, got lambda={lam} t={t}")
    z = t / (2.0 * lam)
    return CONSTANTS.mu_0 * lam / (2.0 * math.tanh(z))


def tc_midpoint(T: np.ndarray, R: np.ndarray) -> float:
    """Transition midpoint: temperature where R(T) crosses half the
    normal-state resistance.

    R_normal is the median resistance over the hottest NORMAL_FRACTION of
    samples (robust to plateau noise).  The crossing is located by linear
    interpolation, scanning from the high-temperature end so the transition
    edge (not a low-T fluctuation) is picked.  Raises if no crossing exists.
    """
    T = np.asarray(T, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    if T.size != R.size or T.size < 3:
        raise ValueError("need at least three (T, R) samples")
    if not (np.diff(T) >= 0).all():
        raise ValueError("trace must be sorted by temperature")

    n_top = max(1, int(math.ceil(NORMAL_FRACTION * T.size)))
    r_normal = float(np.median(R[-n_top:]))
    half = 0.5 * r_normal
    for i in range(T.size - 2, -1, -1):
        r0, r1 = float(R[i]), float(R[i + 1])
        if (r0 - half) * (r1 - half) <= 0.0 and r0 != r1:
            return float(T[i] + (half - r0) * (T[i + 1] - T[i]) / (r1 - r0))
    raise ValueError(f"no crossing of R_normal/2 = {half:.6g} found; "
                     "trace looks flat or non-superconducting")


def derive_transport(rec: TransportRecord) -> DerivedTransport:
    n_e = hall_carrier_density(rec.hall_slope, rec.d)
    fep = free_electron_params(n_e, rec.R_s, rec.d)
    return DerivedTransport(
        record=rec,
        electrons=fep,
        gap=bcs_gap(rec.T_c),
        L_k=sheet_kinetic_inductance(rec.R_s, rec.T_c),
    )


def _derivable_film(*fields) -> TransportRecord:
    """A TransportRecord from which derive_transport gives finite numbers;
    a ValueError, prefixed with the film's label, otherwise."""
    rec = TransportRecord(*fields)
    try:
        d = derive_transport(rec)
    except ValueError as exc:
        raise ValueError(f"{rec.label}: {exc}") from exc
    except ArithmeticError:  # a product underflowed to 0 and was divided by
        d = None
    if d is None or not all(map(math.isfinite, (d.gap, d.L_k, *vars(d.electrons).values()))):
        raise ValueError(f"{rec.label}: derived values leave the float range")
    return rec


def read_transport_csv(path) -> list[TransportRecord]:
    """Input rows: label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T, each a
    film that derive_transport turns into finite numbers."""
    return read_table_csv(path, TRANSPORT_HEADER, text=1, record=_derivable_film)


def read_rt_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """R(T) trace with header T_K,R_ohm."""
    T, R = _table_columns(path, "T_K,R_ohm")
    return T, R


def write_transport_report_csv(path, derived) -> None:
    """Table-style report: label,d_m,Tc_K,Rs_ohm_sq,n_e_m3,Lk_H_sq,l_m,kF_l."""
    write_table_csv(path, REPORT_HEADER, [
        (d.record.label, d.record.d, d.record.T_c, d.record.R_s,
         d.electrons.n_e, d.L_k, d.electrons.l, d.electrons.kF_l) for d in derived])
