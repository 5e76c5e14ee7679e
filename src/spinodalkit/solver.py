"""Explicit Cahn-Hilliard time stepper on a periodic grid.

Update rule (forward Euler, composed 5-point Laplacians):

    mu  = G'(x) - 2 kappa lap(x)
    x  <- x + dt * D * lap(mu)

The scheme conserves the mean exactly (the discrete Laplacian of any field
sums to zero) and dissipates the free energy `thermo.free_energy`, whose
gradient is h^2 mu, when dt is inside the linear stability window.  Von
Neumann analysis of the update linearised about G''_max = 2, the largest
curvature of G on [0, 1], with q_max = 8/h^2 for the 5-point stencil, gives
the stability limit that `SolverParams.resolve_dt` enforces unless force_dt:
dt <= 2 / (D q_max (G''_max + 2 kappa q_max)) = h^4 / (8 D (h^2 + 8 kappa)),
1/72 ~ 0.0139 at D = kappa = h = 1.  It is sufficient, not tight.  The
default step h^4/(200 D kappa) is below it wherever h^2 < 17 kappa.

`run` keeps the snapshot schedule, the diagnostics and the divergence
check; the scheme is a step rule, built by `_step_rule`.  A rule's
`advance()` makes the next field its `values` and returns that field's
(min, max), and keeps the field before it in `previous`: the last stable
field if the new one fails the check.  `run` closes the rule when it ends,
however it ends.

The explicit rule keeps the field in two shared anonymous mappings of
(ny + 4, nx), the field with two halo rows at each end: a copy of rows
ny-2, ny-1 above it and of rows 0, 1 below.  A step reads one buffer and
writes the other, whose name it then swaps into `values`.  The rows are cut
into k slabs.  Slab [a, b) computes mu on rows a-1..b from rows a-2..b+1 of
the old field, in two scratch buffers of its own, then the new rows a..b-1;
the slab that holds rows 0-1, or ny-2..ny-1, also copies them to the new
halo rows.  Every sum is the serial step's, in its order, so the bits do
not depend on k.  k = max(1, min(usable cores, nx ny // _SLAB_CELLS,
ny // 2)): no option sets it.  Slabs 1..k-1 run in worker processes forked
when the rule is built; each steps its slab when it reads a byte from its
pipe and answers with a byte when done, and leaves its slab's (min, max)
in a shared array.  The parent steps slab 0 meanwhile.  A worker exits on
a quit byte or at the end of its pipe, only ever by os._exit; a worker that
dies mid-run makes `advance` raise ChildProcessError.  Where os.fork is
missing or fails, k is 1.
"""

from __future__ import annotations

import gc
import math
import mmap
import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import fields as _fields
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
    """The field diverged during a run; a step refused before it is a TimeStepError.

    `partial` holds the SimulationResult accumulated so far and
    `last_stable` the field just before the offending step.
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
    nan.  Also raised for a step above the stability limit unless force_dt
    is set, when a snapshot time is more steps of dt away than a float can
    count (t = 1e308, or dt = 1e-310), or when the run needs more than 2**53
    steps (t = 1e15 at dt = 0.005, or n_steps = 1e17)."""


@dataclass(frozen=True)
class SolverParams:
    """Time-stepping controls.

    dt=None selects the default step h^4/(200*D*kappa).  n_steps=None runs
    exactly to the last snapshot time.  force_dt skips the stability limit
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
        Raises TimeStepError unless it is positive and finite, and, unless
        force_dt, at most the stability limit h^4/(8*D*(h^2 + 8*kappa)).
        The limit is computed as h^2/(8*D*(1 + 8*kappa/h^2)), which stays
        finite where h^4 overflows; where h^2 underflows it is 0."""
        dt = self.dt
        if dt is None:
            try:
                dt = h ** 4 / (200.0 * self.D * self.kappa)
            except (OverflowError, ZeroDivisionError):   # h ** 4 or 1/(D*kappa) too large
                dt = math.inf
        if not (math.isfinite(dt) and dt > 0):
            raise TimeStepError(f"time step dt={dt!r} from h={h!r}, D={self.D!r}, "
                                f"kappa={self.kappa!r} is not a positive finite number")
        h2 = h * h
        limit = h2 / (8.0 * self.D * (1.0 + 8.0 * self.kappa / h2)) if h2 else 0.0
        if dt > limit and not self.force_dt:
            raise TimeStepError(f"time step dt={dt:.6g} exceeds the stability limit "
                                f"h^4/(8*D*(h^2 + 8*kappa)) = {limit:.6g}; set [solver] dt "
                                "at or below it, or force_dt (--force-dt) to run it anyway")
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
    """G'(x) - (2 kappa) lap(x) into `mu`, leaving (2 kappa) lap(x) in `lap`,
    on the rows of `values` between its first and last, which are the halo
    (`_laplacian_values`).

    `mu` first takes the Laplacian's 4x scratch, then G'(x) overwrites it.
    `edge` is the Laplacian's (m, 2) edge buffer.  Neither `mu` nor `lap`
    may overlap `values`, which is only read.
    """
    _laplacian_values(values, h, lap, mu, edge)
    dgibbs(values[1:-1], mu)
    lap *= 2.0 * kappa
    mu -= lap
    return mu


def _euler_step(values: np.ndarray, h: float, D: float, kappa: float, dt: float,
                out: np.ndarray, lap: np.ndarray, mu: np.ndarray,
                edge: np.ndarray) -> np.ndarray:
    """x + (dt D) lap(mu) on the m rows of `values` inside its two halo rows
    at each end, into `out`, which it returns.

    `values` (m + 4 rows) is only read; `out` (m rows) takes the result.
    `lap` and `mu` (m + 2 rows) carry mu on the m rows and one row each
    side; the second Laplacian scales `mu` in place to 4 mu.  `edge` is the
    Laplacians' (m + 2, 2) edge buffer.  The update adds x to the scaled
    Laplacian; addition commutes, so the bits equal those of
    x + (dt D) lap(mu).  No buffer may overlap `values`.
    """
    _chemical_potential(values, h, kappa, mu, lap, edge)
    _laplacian_values(mu, h, out, mu[1:-1], edge[1:-1])
    out *= dt * D
    out += values[2:-2]
    return out


# A grid of n cells is stepped in at most n // _SLAB_CELLS slabs: below
# about this many cells a slab saves less than its process's hand-off per
# step costs.  On 2 cores, two slabs were faster from 140^2 (19600 cells)
# up, and not at 128^2 (16384) (BENCH_solver_slabs.json)
_SLAB_CELLS = 10_000


def _shared(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float64 array in its own anonymous shared mapping, which
    forked processes write for each other.  It starts on a page, which the
    step's scratch needs too: where malloc puts a field 16 bytes past a
    page, stores and loads alias and a 256^2 step takes ~20% longer."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


class _ExplicitRule:
    """Forward Euler through `_euler_step`, in row slabs (see the module
    docstring)."""

    def __init__(self, values: np.ndarray, h: float, D: float, kappa: float, dt: float):
        ny, nx = values.shape
        k = max(1, min(_fields._usable_cores(), nx * ny // _SLAB_CELLS, ny // 2))
        if not hasattr(os, "fork"):
            k = 1
        self._buffers = [_shared((ny + 4, nx)) for _ in range(2)]
        self._buffers[0][2:-2] = values
        self._refresh_halo(self._buffers[0], 0, ny)
        self.values, self.previous = (b[2:-2] for b in self._buffers)
        self._source = 0
        self._coefficients = (h, D, kappa, dt)
        self._ranges = _shared((k, 2))
        self._rows = [i * ny // k for i in range(k + 1)]
        self._workers: list[tuple[int, int, int]] = []   # (pid, go, done) fds
        try:
            for i in range(1, k):
                self._fork(i)
        except OSError:   # the step is the same in one slab
            self.close()
            self._ranges, self._rows = self._ranges[:1], [0, ny]
        self._scratch = self._slab_scratch(0)

    def _slab_scratch(self, i: int) -> tuple[np.ndarray, ...]:
        m, nx = self._rows[i + 1] - self._rows[i] + 2, self.values.shape[1]
        return _shared((m, nx)), _shared((m, nx)), np.empty((m, 2))

    def _refresh_halo(self, buffer: np.ndarray, a: int, b: int) -> None:
        """Copy the field's rows 0-1 to the halo below it, and its rows
        ny-2..ny-1 to the halo above it, each if rows a..b-1 hold them."""
        if a == 0:
            buffer[-2:] = buffer[2:4]
        if b == buffer.shape[0] - 4:
            buffer[:2] = buffer[-4:-2]

    def _step(self, i: int, source: int, scratch: tuple[np.ndarray, ...]) -> None:
        """Step slab i from buffer `source` into the other, and record the
        new rows' min and max."""
        a, b = self._rows[i], self._rows[i + 1]
        old, new = self._buffers[source], self._buffers[1 - source]
        out = _euler_step(old[a:b + 4], *self._coefficients, new[a + 2:b + 2], *scratch)
        self._refresh_halo(new, a, b)
        self._ranges[i] = out.min(), out.max()

    def _fork(self, i: int) -> None:
        """Start the process that steps slab i whenever it reads a byte."""
        go_r, go_w = os.pipe()
        done_r, done_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (go_r, go_w, done_r, done_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                # a collection here would copy the parent's heap page by page
                # and could run the finalizers of its garbage a second time
                gc.disable()
                for fd in (go_w, done_r, *(fd for w in self._workers for fd in w[1:])):
                    os.close(fd)
                scratch = self._slab_scratch(i)
                while (byte := os.read(go_r, 1)) in (b"\0", b"\1"):
                    self._step(i, byte[0], scratch)
                    os.write(done_w, b"\0")
                code = 0
            finally:   # a worker never returns into its parent's code
                os._exit(code)
        os.close(go_r)
        os.close(done_w)
        self._workers.append((pid, go_w, done_r))

    def advance(self) -> tuple[float, float]:
        """Step every slab; returns the new field's (min, max), NaN if any
        value is NaN."""
        source = self._source
        for pid, go, _ in self._workers:
            try:
                os.write(go, bytes((source,)))
            except BrokenPipeError:
                raise ChildProcessError(f"solver worker {pid} has exited") from None
        self._step(0, source, self._scratch)
        for pid, _, done in self._workers:
            if os.read(done, 1) != b"\0":   # EOF: the worker died mid-step
                raise ChildProcessError(f"solver worker {pid} exited mid-step")
        self._source = 1 - source
        self.values, self.previous = self.previous, self.values
        return float(self._ranges[:, 0].min()), float(self._ranges[:, 1].max())

    def close(self) -> None:
        """Stop the worker processes and wait for each to exit."""
        workers, self._workers = self._workers, []
        for _, go, done in workers:
            try:
                os.write(go, b"q")
            except OSError:   # the worker is gone already
                pass
            os.close(go)
            os.close(done)
        for pid, _, _ in workers:
            os.waitpid(pid, 0)


def _step_rule(params: SolverParams, values: np.ndarray, h: float,
               dt: float) -> _ExplicitRule:
    """The step rule of `params`, starting from the field `values`.  `run`
    looks this name up at call time, so a test can substitute a rule."""
    return _ExplicitRule(values, h, params.D, params.kappa, dt)


def _check_sane(lo: float, hi: float, step: int, time: float) -> None:
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

    try:
        record(0, rule.values)
        snapshot(0, rule.values)
        for step in range(1, n_steps + 1):
            lo, hi = rule.advance()
            try:
                _check_sane(lo, hi, step, step * dt)
            except StabilityError as err:
                err.partial = result
                err.last_stable = init.with_values(rule.previous.copy())
                raise
            if step % params.diag_stride == 0 or step == n_steps or step in snap_steps:
                record(step, rule.values)
            snapshot(step, rule.values)
        result.final = init.with_values(rule.values.copy())
    finally:
        rule.close()
    return result


def write_diagnostics_csv(path, records) -> None:
    write_table_csv(path, DIAG_HEADER, map(astuple, records))
