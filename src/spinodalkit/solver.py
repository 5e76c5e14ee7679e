"""Explicit Cahn-Hilliard time stepper on a periodic grid.

Update rule (forward Euler, composed 5-point Laplacians):

    mu  = G'(x) - 2 kappa lap(x)
    x  <- x + dt * D * lap(mu)

The scheme conserves the mean exactly (the discrete Laplacian of any field
sums to zero) and dissipates the free energy when dt is inside the linear
stability window.  Von Neumann analysis of the update linearised about the
worst-case curvature G''=2 gives, with q_max = 8/h^2 for the 5-point
stencil, dt_crit = 2 / (D q_max (G''_max + 2 kappa q_max)) ~ 0.0139 at
D=kappa=h=1.  The default step h^4/(200 D kappa) = 0.005 sits well inside
it; anything above the hard ceiling h^4/(16 D kappa) is rejected outright
unless force_dt is set.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .fields import (NumericalFailure, ScalarField2D, _laplacian_values,
                     write_table_csv)
from .thermo import GibbsModel, dgibbs, free_energy

__all__ = [
    "SolverParams",
    "DiagnosticsRecord",
    "SimulationResult",
    "StabilityError",
    "TimeStepError",
    "default_dt",
    "max_stable_dt",
    "run",
    "snapshot_filename",
    "write_diagnostics_csv",
]

DIAG_HEADER = "step,time,mass,free_energy,min,max"


class StabilityError(RuntimeError, NumericalFailure):
    """The field diverged, or a diverging dt was requested.

    When raised mid-run, `partial` holds the SimulationResult accumulated so
    far and `last_stable` the field just before the offending step.
    """

    def __init__(self, message: str, step: int | None = None, time: float | None = None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.partial: "SimulationResult | None" = None
        self.last_stable: ScalarField2D | None = None


class TimeStepError(ValueError):
    """The time step is not a positive finite number, although h, D and
    kappa each are: h^4 or 200*D*kappa leaves the float range (h = 1e-100
    gives dt = 0, D = 1e-320 gives dt = inf), or an explicit dt is inf or
    nan.  Also raised when a snapshot time is more steps of dt away than a
    float can count (t = 1e308, or dt = 1e-310)."""


@dataclass(frozen=True)
class SolverParams:
    """Time-stepping controls.

    dt=None selects the default step h^4/(200*D*kappa).  n_steps=None runs
    exactly to the last snapshot time.  force_dt skips the stability ceiling
    (the divergence guard still fires if the run blows up).
    """

    D: float = 1.0
    kappa: float = 1.0
    dt: float | None = None
    n_steps: int | None = None
    snapshot_times: tuple[float, ...] = (0.0, 10.0, 50.0, 500.0)
    diag_stride: int = 100
    force_dt: bool = False

    def __post_init__(self):
        if self.D <= 0 or self.kappa <= 0:
            raise ValueError(f"D and kappa must be positive, got D={self.D} kappa={self.kappa}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps is not None and self.n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {self.n_steps}")
        if self.diag_stride < 1:
            raise ValueError(f"diag_stride must be >= 1, got {self.diag_stride}")
        if any(t < 0 for t in self.snapshot_times):
            raise ValueError("snapshot times must be non-negative")
        object.__setattr__(self, "snapshot_times",
                           tuple(sorted(float(t) for t in self.snapshot_times)))

    def resolve_dt(self, h: float) -> float:
        """The step to take on a grid of spacing h; raises TimeStepError
        unless it is positive and finite."""
        try:
            dt = self.dt if self.dt is not None else default_dt(h, self.D, self.kappa)
        except OverflowError:   # h ** 4 beyond the float range
            dt = math.inf
        if not (math.isfinite(dt) and dt > 0):
            raise TimeStepError(f"time step dt={dt!r} from h={h!r}, D={self.D!r}, "
                                f"kappa={self.kappa!r} is not a positive finite number")
        return dt


@dataclass(frozen=True)
class DiagnosticsRecord:
    step: int
    time: float
    mass: float
    free_energy: float
    min: float
    max: float


@dataclass
class SimulationResult:
    snapshots: dict[float, ScalarField2D] = field(default_factory=dict)
    diagnostics: list[DiagnosticsRecord] = field(default_factory=list)
    final: ScalarField2D | None = None
    dt: float = 0.0
    n_steps: int = 0


def default_dt(h: float, D: float, kappa: float) -> float:
    """Conservative default step, ~36% of the linear stability limit."""
    return h ** 4 / (200.0 * D * kappa)


def max_stable_dt(h: float, D: float, kappa: float) -> float:
    """Hard ceiling h^4/(16 D kappa); beyond it the run is rejected."""
    return h ** 4 / (16.0 * D * kappa)


def _chemical_potential(values: np.ndarray, h: float, model: GibbsModel, kappa: float,
                        out: np.ndarray, lap: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """G'(x) - (2 kappa) lap(x) into `out`; `lap` and `tmp` are scratch.

    None of the buffers may overlap `values`.
    """
    lap = _laplacian_values(values, h, lap, tmp)
    mu = dgibbs(model, values, out)
    lap *= 2.0 * kappa
    mu -= lap
    return mu


def _euler_step(values: np.ndarray, h: float, model: GibbsModel, D: float, kappa: float,
                dt: float, out: np.ndarray, lap: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """x + (dt D) lap(mu) into `out`, with `lap` and `mu` as scratch.

    `out` doubles as scratch until the last operation.  None of the
    buffers may overlap `values`.
    """
    mu = _chemical_potential(values, h, model, kappa, mu, lap, out)
    _laplacian_values(mu, h, lap, out)
    lap *= dt * D
    return np.add(values, lap, out=out)


def _check_sane(values: np.ndarray, step: int, time: float) -> None:
    hi = float(values.max())   # max of an array containing NaN is NaN
    lo = float(values.min())
    if not (math.isfinite(hi) and math.isfinite(lo)) or hi > 2.0 or lo < -2.0:
        raise StabilityError(
            f"field diverged at step {step} (t={time:.6g}): range [{lo:.6g}, {hi:.6g}]; "
            "reduce dt", step=step, time=time)


def _diag(vals: np.ndarray, template: ScalarField2D, step: int, dt: float,
          model: GibbsModel, kappa: float) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        step=step, time=step * dt,
        mass=float(vals.mean()),
        free_energy=free_energy(template.with_values(vals), model, kappa),
        min=float(vals.min()), max=float(vals.max()))


def _guard_dt(dt: float, h: float, params: SolverParams) -> None:
    ceiling = max_stable_dt(h, params.D, params.kappa)
    if dt > ceiling and not params.force_dt:
        raise StabilityError(
            f"dt={dt:.6g} exceeds the stability ceiling {ceiling:.6g} "
            "(h^4/(16*D*kappa)); pass force_dt to override")


def run(init: ScalarField2D, params: SolverParams, model: GibbsModel) -> SimulationResult:
    """Integrate from `init` through the snapshot schedule.

    Snapshots are taken at the nearest step at or after each requested time
    (t=0 is the initial condition).  Diagnostics are recorded at step 0,
    every diag_stride steps, at every snapshot step, and at the final step.
    On divergence the raised StabilityError carries the partial result and
    the last stable field.
    """
    spec = init.spec
    dt = params.resolve_dt(spec.h)
    _guard_dt(dt, spec.h, params)

    snap_steps: dict[int, list[float]] = {}
    for t in params.snapshot_times:
        if not math.isfinite(t / dt):
            raise TimeStepError(f"snapshot time {t!r} at dt={dt!r} is {t / dt!r} "
                                "steps away, beyond the float range")
        k = int(math.ceil(t / dt - 1e-9))
        snap_steps.setdefault(k, []).append(t)
    n_steps = max(snap_steps) if snap_steps else 0
    if params.n_steps is not None:
        n_steps = max(n_steps, params.n_steps)

    result = SimulationResult(dt=dt, n_steps=n_steps)
    # The step reads `values` and writes `new_values`; the two swap after
    # every accepted step, so the loop allocates nothing.
    values = init.values.copy()
    new_values, lap, mu = (np.empty_like(values) for _ in range(3))
    h = spec.h

    def record(step: int, vals: np.ndarray) -> None:
        result.diagnostics.append(_diag(vals, init, step, dt, model, params.kappa))

    def snapshot(step: int, vals: np.ndarray) -> None:
        for t in snap_steps.get(step, ()):
            result.snapshots[t] = init.with_values(vals.copy())

    record(0, values)
    snapshot(0, values)
    for step in range(1, n_steps + 1):
        _euler_step(values, h, model, params.D, params.kappa, dt, new_values, lap, mu)
        try:
            _check_sane(new_values, step, step * dt)
        except StabilityError as err:
            err.partial = result
            err.last_stable = init.with_values(values)
            raise
        values, new_values = new_values, values
        if step % params.diag_stride == 0 or step == n_steps or step in snap_steps:
            record(step, values)
        snapshot(step, values)

    result.final = init.with_values(values)
    return result


def snapshot_filename(t: float) -> str:
    """Canonical per-time snapshot name, e.g. snap_t10.csv, snap_t0.5.csv."""
    return f"snap_t{t:g}.csv"


def write_diagnostics_csv(path, records) -> None:
    write_table_csv(path, DIAG_HEADER, map(astuple, records))
