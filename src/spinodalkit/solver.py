"""Explicit Cahn-Hilliard time stepper on a periodic grid.

Update rule (forward Euler, composed 5-point Laplacians):

    mu  = G'(x) - 2 kappa lap(x)
    x  <- x + dt * D * lap(mu)

The scheme conserves the mean exactly (the discrete Laplacian of any field
sums to zero) and dissipates the free energy `thermo.free_energy`, whose
gradient is h^2 mu, when dt is inside the linear stability window.  Von
Neumann analysis of the update linearised about the worst-case curvature
G''=2 gives, with q_max = 8/h^2 for the 5-point stencil,
dt_crit = 2 / (D q_max (G''_max + 2 kappa q_max)) ~ 0.0139 at D=kappa=h=1.
The default step h^4/(200 D kappa) = 0.005 sits well inside it; anything
above the hard ceiling h^4/(16 D kappa) is rejected outright unless force_dt
is set.

`run` keeps the snapshot schedule, the diagnostics and the divergence
check; the scheme is a step rule, built by `_step_rule`.  A rule's
`advance()` makes the next field its `values` and returns it, and keeps the
field before it in `previous`: the last stable field if the new one fails
the check.  The explicit rule allocates three field buffers and one (ny, 2)
edge buffer once.  A step reads `values`, uses `mu` as the first
Laplacian's 4x scratch before G'(x) overwrites it, scales `mu` in place
during the second Laplacian, and leaves the next field in the buffer of
`previous`, whose name it then swaps with `values`.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .fields import (NumericalFailure, ScalarField2D, _laplacian_values,
                     write_table_csv)
from .thermo import dgibbs, free_energy

__all__ = [
    "SolverParams",
    "DiagnosticsRecord",
    "SimulationResult",
    "StabilityError",
    "TimeStepError",
    "run",
    "write_diagnostics_csv",
]

# Above 2**53 not every integer is a float, so neither a step's time
# step * dt nor the step index ceil(t / dt) of a snapshot time is exact.
_MAX_STEPS = 2 ** 53


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
    float can count (t = 1e308, or dt = 1e-310), or when the run needs more
    than 2**53 steps (t = 1e15 at dt = 0.005, or n_steps = 1e17)."""


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
        if not all(math.isfinite(v) and v > 0 for v in (self.D, self.kappa)):
            raise ValueError(f"D and kappa must be finite and > 0: D={self.D} kappa={self.kappa}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps is not None and self.n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {self.n_steps}")
        if self.diag_stride < 1:
            raise ValueError(f"diag_stride must be >= 1, got {self.diag_stride}")
        if not all(t >= 0 for t in self.snapshot_times):
            raise ValueError("snapshot times must be non-negative")
        object.__setattr__(self, "snapshot_times",
                           tuple(sorted(float(t) + 0.0 for t in self.snapshot_times)))

    def resolve_dt(self, h: float) -> float:
        """The step on a grid of spacing h: dt, or h^4/(200*D*kappa) if None.
        Raises TimeStepError unless it is positive and finite, and
        StabilityError above the ceiling h^4/(16*D*kappa) unless force_dt."""
        dt, ceiling = self.dt, math.inf
        try:
            if dt is None:
                dt = h ** 4 / (200.0 * self.D * self.kappa)
            ceiling = h ** 4 / (16.0 * self.D * self.kappa)
        except (OverflowError, ZeroDivisionError):   # h ** 4 or 1/(D*kappa) too large:
            dt = math.inf if dt is None else dt      # no default and no ceiling
        if not (math.isfinite(dt) and dt > 0):
            raise TimeStepError(f"time step dt={dt!r} from h={h!r}, D={self.D!r}, "
                                f"kappa={self.kappa!r} is not a positive finite number")
        if dt > ceiling and not self.force_dt:
            raise StabilityError(
                f"dt={dt:.6g} exceeds the stability ceiling {ceiling:.6g} "
                "(h^4/(16*D*kappa)); pass force_dt to override")
        return dt


@dataclass(frozen=True)
class DiagnosticsRecord:
    step: int
    time: float
    mass: float
    free_energy: float
    min: float
    max: float


DIAG_HEADER = ",".join(f.name for f in fields(DiagnosticsRecord))


@dataclass
class SimulationResult:
    snapshots: dict[float, ScalarField2D] = field(default_factory=dict)
    diagnostics: list[DiagnosticsRecord] = field(default_factory=list)
    final: ScalarField2D | None = None
    dt: float = 0.0
    n_steps: int = 0


def _chemical_potential(values: np.ndarray, h: float, kappa: float, mu: np.ndarray,
                        lap: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """G'(x) - (2 kappa) lap(x) into `mu`, leaving (2 kappa) lap(x) in `lap`.

    `mu` first takes the Laplacian's 4x scratch, then G'(x) overwrites it.
    `edge` is the Laplacian's (ny, 2) edge buffer.  Neither `mu` nor `lap`
    may overlap `values`, which is only read.
    """
    _laplacian_values(values, h, lap, mu, edge)
    dgibbs(values, mu)
    lap *= 2.0 * kappa
    mu -= lap
    return mu


def _euler_step(values: np.ndarray, h: float, D: float, kappa: float, dt: float,
                lap: np.ndarray, mu: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """x + (dt D) lap(mu) into `lap`, which it returns.

    Three field buffers carry the step: `values` (only read), `lap` (the
    result) and `mu` (scratch; the second Laplacian scales it in place to
    4 mu).  `edge` is the Laplacian's (ny, 2) edge buffer.  The update adds
    `values` to the scaled Laplacian; addition commutes, so the bits equal
    those of x + (dt D) lap(mu).  Neither `lap` nor `mu` may overlap
    `values`.
    """
    _chemical_potential(values, h, kappa, mu, lap, edge)
    _laplacian_values(mu, h, lap, mu, edge)
    lap *= dt * D
    lap += values
    return lap


class _ExplicitRule:
    """Forward Euler through `_euler_step` (see the module docstring)."""

    def __init__(self, values: np.ndarray, h: float, D: float, kappa: float, dt: float):
        self.values = values.copy()
        self.previous = np.empty_like(self.values)
        self._mu = np.empty_like(self.values)
        self._edge = np.empty((self.values.shape[0], 2))
        self._coefficients = (h, D, kappa, dt)

    def advance(self) -> np.ndarray:
        new = _euler_step(self.values, *self._coefficients, self.previous, self._mu,
                          self._edge)
        self.values, self.previous = new, self.values
        return new


def _step_rule(params: SolverParams, values: np.ndarray, h: float,
               dt: float) -> _ExplicitRule:
    """The step rule of `params`, starting from the field `values`.  `run`
    looks this name up at call time, so a test can substitute a rule."""
    return _ExplicitRule(values, h, params.D, params.kappa, dt)


def _check_sane(values: np.ndarray, step: int, time: float) -> None:
    hi = float(values.max())   # max of an array containing NaN is NaN
    lo = float(values.min())
    if not (math.isfinite(hi) and math.isfinite(lo)) or hi > 2.0 or lo < -2.0:
        raise StabilityError(
            f"field diverged at step {step} (t={time:.6g}): range [{lo:.6g}, {hi:.6g}]; "
            "reduce dt", step=step, time=time)


def _diag(vals: np.ndarray, template: ScalarField2D, step: int, dt: float,
          kappa: float) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        step=step, time=step * dt,
        mass=float(vals.mean()),
        free_energy=free_energy(template.with_values(vals), kappa),
        min=float(vals.min()), max=float(vals.max()))


def run(init: ScalarField2D, params: SolverParams) -> SimulationResult:
    """Integrate from `init` through the snapshot schedule.

    Snapshots are taken at the nearest step at or after each requested time
    (t=0 is the initial condition).  Diagnostics are recorded at step 0,
    every diag_stride steps, at every snapshot step, and at the final step.
    On divergence the raised StabilityError carries the partial result and
    the last stable field.
    """
    spec = init.spec
    dt = params.resolve_dt(spec.h)

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
    if n_steps > _MAX_STEPS:
        raise TimeStepError(f"the run needs {n_steps} steps of dt={dt!r}, more than "
                            "2**53, beyond which step times are not exact")

    result = SimulationResult(dt=dt, n_steps=n_steps)
    rule = _step_rule(params, init.values, spec.h, dt)

    def record(step: int, vals: np.ndarray) -> None:
        result.diagnostics.append(_diag(vals, init, step, dt, params.kappa))

    def snapshot(step: int, vals: np.ndarray) -> None:
        for t in snap_steps.get(step, ()):
            result.snapshots[t] = init.with_values(vals.copy())

    record(0, rule.values)
    snapshot(0, rule.values)
    for step in range(1, n_steps + 1):
        values = rule.advance()
        try:
            _check_sane(values, step, step * dt)
        except StabilityError as err:
            err.partial = result
            err.last_stable = init.with_values(rule.previous)
            raise
        if step % params.diag_stride == 0 or step == n_steps or step in snap_steps:
            record(step, values)
        snapshot(step, values)

    result.final = init.with_values(rule.values)
    return result


def write_diagnostics_csv(path, records) -> None:
    write_table_csv(path, DIAG_HEADER, map(astuple, records))
