import errno
import hashlib
import math
import os
import signal

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinodalkit import cli, fields, solver
from spinodalkit.fields import (GridSpec, ScalarField2D, gaussian_field,
                                read_snapshot_csv, snapshot_filename,
                                snapshot_time, write_snapshot_csv)
from spinodalkit.solver import (DIAG_HEADER, SolverParams, StabilityError,
                                TimeStepError, _chemical_potential, run,
                                write_diagnostics_csv)
from spinodalkit.thermo import d2gibbs, dgibbs, free_energy


def chemical_potential(v, h, kappa):
    mu, lap = np.empty(v.shape), np.empty(v.shape)
    return _chemical_potential(np.pad(v, ((1, 1), (0, 0)), mode="wrap"), h, kappa,
                               mu, lap, np.empty((v.shape[0], 2)))


def test_dt_defaults():
    assert SolverParams().resolve_dt(1.0) == 1.0 / 200
    assert SolverParams().resolve_dt(2.0) == 16.0 / 200
    # the limit h^4/(8 D (h^2 + 8 kappa)) = 1/72 is accepted, the next float above is not
    assert SolverParams(dt=1.0 / 72).resolve_dt(1.0) == 1.0 / 72
    above = math.nextafter(1.0 / 72, 1.0)
    with pytest.raises(TimeStepError, match="stability limit"):
        SolverParams(dt=above).resolve_dt(1.0)
    assert SolverParams(dt=above, force_dt=True).resolve_dt(1.0) == above


@pytest.mark.parametrize("h,D,kappa", [(1.0, 1.0, 1.0), (1.3, 0.7, 1.5), (2.0, 1.0, 1.0)])
def test_dt_limit_is_the_checkerboard_stability_bound(h, D, kappa):
    # Linearised about G'' = 2, the explicit step multiplies a Fourier mode
    # of stencil wavenumber q by 1 - dt D q (2 + 2 kappa q); the checkerboard
    # has the largest, q = 8/h^2, and the limit is the dt at which its factor
    # reaches -1.
    q = 8.0 / h ** 2
    limit = 2.0 / (D * q * (2.0 + 2.0 * kappa * q))
    assert 1.0 - limit * D * q * (2.0 + 2.0 * kappa * q) == pytest.approx(-1.0, abs=1e-12)
    below = limit * (1.0 - 1e-12)
    assert SolverParams(D=D, kappa=kappa, dt=below).resolve_dt(h) == below
    with pytest.raises(TimeStepError, match="stability limit"):
        SolverParams(D=D, kappa=kappa, dt=limit * (1.0 + 1e-12)).resolve_dt(h)


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(D=0.0)
    with pytest.raises(ValueError):
        SolverParams(dt=-0.001)
    with pytest.raises(ValueError):
        SolverParams(n_steps=-1)
    with pytest.raises(ValueError):
        SolverParams(diag_stride=0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="snapshot times must be non-negative"):
            SolverParams(snapshot_times=(bad, 1.0))
    # a nan or inf coefficient is refused here, not reported as divergence
    for bad in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="D and kappa must be finite and > 0"):
            SolverParams(dt=0.005, D=bad)
        with pytest.raises(ValueError, match="D and kappa must be finite and > 0"):
            SolverParams(dt=0.005, kappa=bad)


def test_snapshot_times_are_normalized_sorted():
    p = SolverParams(snapshot_times=(5.0, 1.0, 3.0))
    assert p.snapshot_times == (1.0, 3.0, 5.0)
    zero = SolverParams(snapshot_times=(-0.0, 1)).snapshot_times[0]
    assert math.copysign(1.0, zero) == 1.0


def test_dt_above_ceiling_is_rejected():
    f = gaussian_field(GridSpec(16, 16), 0.48, 1e-3, seed=0)
    bad = SolverParams(dt=0.1, snapshot_times=(0.1,))
    with pytest.raises(TimeStepError):
        run(f, bad)


@pytest.mark.parametrize("h,params", [
    (1e-100, SolverParams()),                       # h^4 underflows: dt = 0
    (1e100, SolverParams()),                        # h^4 overflows
    (1.0, SolverParams(D=1e-320)),                  # D*kappa underflows: dt = inf
    (1.0, SolverParams(D=1e-200, kappa=1e-200)),    # 200*D*kappa underflows to 0
    (1.0, SolverParams(D=1e300, kappa=1e300)),      # D*kappa overflows: dt = 0
    (1.0, SolverParams(dt=float("inf"), force_dt=True)),
    (1.0, SolverParams(dt=float("nan"), force_dt=True)),
], ids=["h_tiny", "h_huge", "D_tiny", "D_kappa_tiny", "D_kappa_huge", "dt_inf",
        "dt_nan"])
def test_unusable_dt_is_rejected_before_any_step(h, params):
    f = gaussian_field(GridSpec(8, 8, h), 0.48, 1e-3, seed=0)
    with pytest.raises(TimeStepError, match=r"h=.*, D=.*, kappa="):
        run(f, params)


def test_forced_unstable_dt_trips_divergence_guard():
    # 100x the practical stability bound: the guard must fire well within
    # 1000 steps and name the offending step
    f = gaussian_field(GridSpec(32, 32), 0.48, 1e-3, seed=0)
    params = SolverParams(dt=0.5, n_steps=1000, snapshot_times=(),
                          force_dt=True)
    with pytest.raises(StabilityError) as info:
        run(f, params)
    assert info.value.step is not None and info.value.step <= 1000
    assert f"step {info.value.step}" in str(info.value)


def test_abort_carries_partial_result_and_last_stable_field():
    f = gaussian_field(GridSpec(32, 32), 0.48, 1e-3, seed=0)
    params = SolverParams(dt=0.06, snapshot_times=(0.0, 600.0), force_dt=True)
    with pytest.raises(StabilityError) as info:
        run(f, params)
    err = info.value
    assert err.partial is not None
    assert 0.0 in err.partial.snapshots
    assert err.last_stable is not None
    assert np.isfinite(err.last_stable.values).all()


class FailingRule:
    """A step rule that adds 1e-3 to its field each step, and whose field
    turns non-finite at step `k`; `fields[s]` is its field after step s."""

    def __init__(self, values, k):
        self.values, self.previous, self.k = values.copy(), None, k
        self.fields = [self.values]
        self.closed = False

    def advance(self):
        if len(self.fields) < self.k:
            new = self.values + 1e-3
        else:
            new = np.full_like(self.values, np.nan)
        self.previous, self.values = self.values, new
        self.fields.append(new)
        return new.min(), new.max()

    def close(self):
        self.closed = True


def test_divergence_of_the_step_rule_reports_its_step_and_the_steps_before(monkeypatch):
    k, dt, rules = 7, 0.005, []

    def failing_rule(params, values, h, dt):
        rules.append(FailingRule(values, k))
        return rules[-1]

    monkeypatch.setattr(solver, "_step_rule", failing_rule)
    f = gaussian_field(GridSpec(16, 16), 0.48, 1e-3, seed=10)
    # snapshot steps 0, 3, 6, 7 and 10; diagnostics every 2 steps
    params = SolverParams(dt=dt, n_steps=20, diag_stride=2,
                          snapshot_times=(0.0, 0.015, 0.03, 0.035, 0.05))
    with pytest.raises(StabilityError) as info:
        run(f, params)
    err, (rule,) = info.value, rules
    assert (err.step, err.time) == (k, k * dt)
    assert sorted(err.partial.snapshots) == [0.0, 0.015, 0.03]
    for t, step in ((0.0, 0), (0.015, 3), (0.03, 6)):
        assert np.array_equal(err.partial.snapshots[t].values, rule.fields[step])
    assert [d.step for d in err.partial.diagnostics] == [0, 2, 3, 4, 6]
    for d in err.partial.diagnostics:
        assert d.mass == rule.fields[d.step].mean()
    assert np.array_equal(err.last_stable.values, rule.fields[k - 1])
    assert rule.closed


def test_chemical_potential_of_uniform_field():
    c = 0.3
    mu = chemical_potential(np.full((8, 8), c), 1.0, kappa=1.0)
    assert_allclose(mu, float(dgibbs(c)), rtol=1e-14)
    half = chemical_potential(np.full((8, 8), 0.5), 1.0, kappa=1.0)
    assert np.array_equal(half, np.zeros((8, 8)))


def test_chemical_potential_linearized_about_half():
    nx, ny, eps, kappa = 64, 8, 1e-6, 1.3
    i = np.arange(nx)
    c = np.tile(np.cos(2 * np.pi * i / nx), (ny, 1))
    q1 = 2.0 - 2.0 * np.cos(2 * np.pi / nx)  # stencil eigenvalue at h=1
    expected = (d2gibbs(0.5) + 2.0 * kappa * q1) * eps * c
    mu = chemical_potential(0.5 + eps * c, 1.0, kappa)
    assert_allclose(mu, expected, rtol=1e-4, atol=1e-15)


def test_single_step_conserves_mean():
    f = gaussian_field(GridSpec(64, 64), 0.48, 1e-3, seed=1)
    res = run(f, SolverParams(n_steps=1, snapshot_times=()))
    m0 = f.values.mean()
    assert abs(res.final.values.mean() - m0) <= 1e-13 * abs(m0)
    assert res.n_steps == 1
    assert [d.step for d in res.diagnostics] == [0, 1]
    assert res.diagnostics[1].time == SolverParams().resolve_dt(1.0)


def test_uniform_field_is_a_fixed_point():
    f = ScalarField2D(GridSpec(16, 16), np.full((16, 16), 0.37))
    res = run(f, SolverParams(n_steps=3, snapshot_times=()))
    assert_allclose(res.final.values, 0.37, rtol=0, atol=1e-15)


def test_energy_decreases_over_100_steps():
    f = gaussian_field(GridSpec(128, 128), 0.48, 1e-3, seed=2)
    params = SolverParams(dt=1e-3, n_steps=100, snapshot_times=())
    res = run(f, params)
    e0 = free_energy(f, 1.0)
    e1 = free_energy(res.final, 1.0)
    assert e1 < e0


def test_run_snapshot_schedule():
    f = gaussian_field(GridSpec(16, 16), 0.48, 1e-3, seed=3)
    params = SolverParams(dt=0.003, snapshot_times=(0.0, 0.01, 0.3))
    res = run(f, params)
    assert sorted(res.snapshots) == [0.0, 0.01, 0.3]
    assert np.array_equal(res.snapshots[0.0].values, f.values)
    # nearest step at or after: 0.01/0.003 -> step 4, 0.3/0.003 -> step 100
    assert res.n_steps == 100
    steps = [d.step for d in res.diagnostics]
    assert 4 in steps and 100 in steps and 0 in steps


def test_run_respects_explicit_n_steps():
    f = gaussian_field(GridSpec(16, 16), 0.48, 1e-3, seed=3)
    res = run(f, SolverParams(n_steps=37, snapshot_times=()))
    assert res.n_steps == 37
    assert res.diagnostics[-1].step == 37


def test_run_is_deterministic():
    f = gaussian_field(GridSpec(32, 32), 0.48, 1e-3, seed=4)
    params = SolverParams(n_steps=50, snapshot_times=(0.1,))
    a = run(f, params)
    b = run(f, params)
    assert np.array_equal(a.snapshots[0.1].values, b.snapshots[0.1].values)
    assert np.array_equal(a.final.values, b.final.values)


def test_restarted_run_continues_the_trajectory_exactly():
    f = gaussian_field(GridSpec(16, 16), 0.48, 1e-3, seed=5)
    first = run(f, SolverParams(n_steps=3, snapshot_times=()))
    rest = run(first.final, SolverParams(n_steps=4, snapshot_times=()))
    whole = run(f, SolverParams(n_steps=7, snapshot_times=()))
    assert np.array_equal(rest.final.values, whole.final.values)


def test_restart_from_a_snapshot_file_continues_the_trajectory_exactly(tmp_path):
    f = gaussian_field(GridSpec(20, 12, 1.3), 0.48, 1e-3, seed=5)
    first = run(f, SolverParams(n_steps=3, snapshot_times=()))
    write_snapshot_csv(first.final, tmp_path / "snap.csv")
    restart = read_snapshot_csv(tmp_path / "snap.csv")
    assert restart.spec == f.spec
    rest = run(restart, SolverParams(n_steps=4, snapshot_times=()))
    whole = run(f, SolverParams(n_steps=7, snapshot_times=()))
    assert np.array_equal(rest.final.values, whole.final.values)


def test_mirrored_initial_conditions_evolve_mirrored():
    f = gaussian_field(GridSpec(32, 32), 0.48, 1e-3, seed=6)
    g = f.with_values(1.0 - f.values)
    ra = run(f, SolverParams(n_steps=200, snapshot_times=()))
    rb = run(g, SolverParams(n_steps=200, snapshot_times=()))
    assert np.abs((1.0 - rb.final.values) - ra.final.values).max() <= 1e-12


def test_snapshot_filenames():
    for t, name in [(10.0, "snap_t10.csv"), (0.5, "snap_t0.5.csv"), (0.0, "snap_t0.csv"),
                    (1e6, "snap_t1e+06.csv"),
                    # %g would round these to 1.23457e+06 and 0.01
                    (1234567.0, "snap_t1234567.0.csv"),
                    (0.01000001, "snap_t0.01000001.csv")]:
        assert snapshot_filename(t) == name
        assert snapshot_time(name) == t


def test_diagnostics_csv_round_trip(tmp_path):
    f = gaussian_field(GridSpec(16, 16), 0.48, 1e-3, seed=7)
    res = run(f, SolverParams(n_steps=10, diag_stride=5, snapshot_times=()))
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, res.diagnostics)
    lines = path.read_text().splitlines()
    assert lines[0] == DIAG_HEADER
    assert len(lines) == 1 + len(res.diagnostics)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[2]) == res.diagnostics[0].mass


def test_run_outputs_share_no_memory_and_stay_fixed():
    f = gaussian_field(GridSpec(16, 16), 0.48, 1e-3, seed=8)
    times = (0.0, 0.01, 0.02, 0.05)
    res = run(f, SolverParams(snapshot_times=times))
    arrays = [res.snapshots[t].values for t in times] + [res.final.values]
    for i, a in enumerate(arrays):
        assert not np.shares_memory(a, f.values)
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    before = [a.copy() for a in arrays]
    run(f, SolverParams(snapshot_times=times))
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)
    # each snapshot holds the field of its own step, not a later one
    for t in times[1:]:
        alone = run(f, SolverParams(snapshot_times=(t,)))
        assert np.array_equal(res.snapshots[t].values, alone.final.values)


def test_stability_error_fields_share_no_memory_and_stay_fixed():
    f = gaussian_field(GridSpec(32, 32), 0.48, 1e-3, seed=0)
    params = SolverParams(dt=0.06, snapshot_times=(0.0, 0.06, 0.12, 600.0),
                          force_dt=True)
    with pytest.raises(StabilityError) as info:
        run(f, params)
    err = info.value
    snaps = [err.partial.snapshots[t].values for t in (0.0, 0.06, 0.12)]
    arrays = snaps + [err.last_stable.values]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    before = [a.copy() for a in arrays]
    with pytest.raises(StabilityError):
        run(f, params)
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)
    # last_stable is the field one step before the divergence
    upto = run(f, SolverParams(dt=0.06, n_steps=err.step - 1, snapshot_times=(),
                               force_dt=True))
    assert np.array_equal(err.last_stable.values, upto.final.values)


def step_calls(monkeypatch) -> dict:
    """The calls this process makes to the step's layers in 10 steps of 16^2."""
    calls = {}
    for name in ("_euler_step", "_laplacian_values", "dgibbs"):
        def counted(*a, _fn=getattr(solver, name), _name=name, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*a, **kw)
        monkeypatch.setattr(solver, name, counted)
    f = gaussian_field(GridSpec(16, 16), 0.48, 1e-3, seed=9)
    run(f, SolverParams(n_steps=10, snapshot_times=()))
    return calls


def test_step_calls_go_through_the_module_attributes(monkeypatch):
    # perfbench's tracer times the step's layers by patching these names
    assert step_calls(monkeypatch) == {"_euler_step": 10, "_laplacian_values": 20,
                                       "dgibbs": 10}


@pytest.fixture
def slabs(monkeypatch):
    """slabs(k): the solver sees k usable cores and no floor on the cells of
    a slab, so a grid of at least 2k rows steps in k slabs.  Returns the
    list to which each rule built from then on adds its workers' pids."""
    built, step_rule = [], solver._step_rule

    def recorded(*a):
        rule = step_rule(*a)
        built.append([pid for pid, _, _ in rule._workers])
        return rule
    monkeypatch.setattr(solver, "_step_rule", recorded)

    def slabs(k: int) -> list:
        monkeypatch.setattr(solver, "_SLAB_CELLS", 1)
        monkeypatch.setattr(fields, "_usable_cores", lambda: k)
        built.clear()
        return built
    return slabs


def outcome(res):
    """Every bit of a result: snapshots, diagnostics and final field."""
    return ({t: s.values.tobytes() for t, s in res.snapshots.items()},
            repr(res.diagnostics), res.final and res.final.values.tobytes())


def no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_step_calls_in_two_slabs_are_the_parents_slab(monkeypatch, slabs):
    # the worker steps its own slab; the parent's calls are those of one
    built = slabs(2)
    assert step_calls(monkeypatch) == {"_euler_step": 10, "_laplacian_values": 20,
                                       "dgibbs": 10}
    assert [len(pids) for pids in built] == [1]


@pytest.mark.parametrize("nx,ny", [(37, 16), (53, 64)])
def test_run_is_bit_identical_in_one_two_and_three_slabs(slabs, nx, ny):
    # uneven splits: rows 0, 5, 10, 16 and 0, 21, 42, 64 in three slabs
    f = gaussian_field(GridSpec(nx, ny, 1.3), 0.48, 1e-3, seed=nx)
    params = SolverParams(n_steps=60, diag_stride=7, snapshot_times=(0.0, 0.05, 0.1))
    outcomes = []
    for k in (1, 2, 3):
        built = slabs(k)
        outcomes.append(outcome(run(f, params)))
        assert len(built) == 1 and len(built[0]) == k - 1
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    assert no_children()


def test_a_1000_squared_run_is_bit_identical_in_two_slabs(slabs):
    f = gaussian_field(GridSpec(1000, 1000), 0.48, 1e-3, seed=1)
    params = SolverParams(n_steps=20, diag_stride=10, snapshot_times=(0.0, 0.05))
    outcomes = []
    for k in (1, 2):
        built = slabs(k)
        outcomes.append(outcome(run(f, params)))
        assert [len(pids) for pids in built] == [k - 1]
    assert outcomes[1] == outcomes[0]


def test_divergence_is_the_same_in_two_slabs(slabs):
    f = gaussian_field(GridSpec(32, 32), 0.48, 1e-3, seed=0)
    params = SolverParams(dt=0.06, snapshot_times=(0.0, 0.06, 0.12, 600.0), force_dt=True)
    seen = []
    for k in (1, 2):
        built = slabs(k)
        with pytest.raises(StabilityError) as info:
            run(f, params)
        assert len(built[0]) == k - 1
        err = info.value
        seen.append((err.step, str(err), outcome(err.partial), err.last_stable.values.tobytes()))
    assert seen[1] == seen[0]
    assert no_children()


def test_no_worker_outlives_a_run(slabs, monkeypatch):
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    f = gaussian_field(GridSpec(32, 32), 0.48, 1e-3, seed=0)
    built = slabs(2)
    run(f, SolverParams(n_steps=5, snapshot_times=()))
    assert no_children()
    with pytest.raises(StabilityError):
        run(f, SolverParams(dt=0.06, n_steps=1000, snapshot_times=(), force_dt=True))
    assert no_children()
    diag = solver._diag

    def failing_diag(vals, template, step, *a):
        if step:
            raise KeyError("diagnostics failed")
        return diag(vals, template, step, *a)
    monkeypatch.setattr(solver, "_diag", failing_diag)
    with pytest.raises(KeyError):
        run(f, SolverParams(n_steps=5, diag_stride=2, snapshot_times=()))
    assert no_children()
    assert [len(pids) for pids in built] == [1, 1, 1]
    if fds is not None:
        assert sorted(os.listdir("/proc/self/fd")) == sorted(fds)


def test_a_killed_worker_stops_the_run(slabs, monkeypatch):
    built, diag = slabs(2), solver._diag

    def kill_at_step_2(vals, template, step, *a):
        if step == 2:
            os.kill(built[0][0], signal.SIGKILL)
        return diag(vals, template, step, *a)

    def hung(signum, frame):
        raise TimeoutError("run waits on a dead worker")
    monkeypatch.setattr(solver, "_diag", kill_at_step_2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        f = gaussian_field(GridSpec(32, 32), 0.48, 1e-3, seed=0)
        with pytest.raises(ChildProcessError, match=r"solver worker \d+"):
            run(f, SolverParams(n_steps=10, diag_stride=2, snapshot_times=()))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert no_children()


@pytest.mark.parametrize("forks", [0, 1, None])
def test_a_refused_fork_steps_in_one_slab(slabs, monkeypatch, forks):
    # the second fork of three slabs fails, or the first, or os.fork is
    # missing: the worker already started is stopped, and the field steps
    # in one slab, with the same bits
    f = gaussian_field(GridSpec(53, 64), 0.48, 1e-3, seed=2)
    params = SolverParams(n_steps=30, diag_stride=7, snapshot_times=(0.0, 0.05))
    slabs(1)
    serial = outcome(run(f, params))
    fork, started = os.fork, []

    def limited_fork():
        if len(started) == forks:
            raise OSError(errno.EAGAIN, "fork refused")
        started.append(1)
        return fork()
    if forks is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", limited_fork)
    built = slabs(3)
    assert outcome(run(f, params)) == serial
    assert built == [[]] and len(started) == (forks or 0)
    assert no_children()


def explicit_amplification(omega, dt, n):
    """Forward Euler's growth of a linear mode over n steps."""
    return (1.0 + dt * omega) ** n


# Cahn's linear theory (Acta Metall. 9, 795 (1961)), on the 5-point grid:
# about a uniform field x_bar, a step rule multiplies each Fourier mode k of
# x - x_bar by its amplification of omega(k) = D lam (G''(x_bar) - 2 kappa lam),
# lam = -(4/h^2)(sin^2(k_x h/2) + sin^2(k_y h/2)) being the stencil's symbol.
# At variance 1e-12 the quadratic term of G' moves a mode by ~1e-5 of itself
# (the deviation scales with the amplitude): the explicit rule's largest
# relative deviation over the band 0.2 < |k| < 0.8 at t = 10 is 1.5e-5 on
# 64x64 and 2.8e-5 on 48x40, while e^(omega t) is 4.4e-4 and 7.1e-3 away
# and one step fewer 6.6e-4 and 4.4e-3.  The bound 1e-4 tells them apart.
@pytest.mark.parametrize("amplification", [explicit_amplification], ids=["explicit"])
@pytest.mark.parametrize("nx,ny,h,D,kappa", [(64, 64, 1.0, 1.0, 1.0),
                                             (48, 40, 1.3, 0.7, 1.5)],
                         ids=["64x64", "48x40_h1.3"])
def test_fourier_modes_grow_by_the_linear_theory_amplification(nx, ny, h, D, kappa,
                                                               amplification):
    f = gaussian_field(GridSpec(nx, ny, h), 0.48, 1e-12, seed=0)
    res = run(f, SolverParams(D=D, kappa=kappa, snapshot_times=(10.0,)))
    x_bar = f.values.mean()
    kx = 2 * np.pi * np.fft.rfftfreq(nx, d=h)
    ky = 2 * np.pi * np.fft.fftfreq(ny, d=h)[:, None]
    lam = -(4 / h ** 2) * (np.sin(kx * h / 2) ** 2 + np.sin(ky * h / 2) ** 2)
    omega = D * lam * (d2gibbs(x_bar) - 2 * kappa * lam)
    band = (0.2 < np.hypot(kx, ky)) & (np.hypot(kx, ky) < 0.8)
    assert (omega[band] > 0).any() and (omega[band] < 0).any()
    growth = (np.fft.rfft2(res.final.values - res.final.values.mean())[band]
              / np.fft.rfft2(f.values - x_bar)[band])

    def deviation(factor):
        return np.abs(growth / factor[band] - 1).max()

    assert deviation(amplification(omega, res.dt, res.n_steps)) < 1e-4
    assert deviation(np.exp(omega * res.n_steps * res.dt)) > 1e-4


# sha256 of every `simulate` output as computed with the np.roll Laplacian
# and the allocating step: any change in the order of floating-point
# operations shows here.  The diagnostics.csv hashes carry the
# forward-difference free energy (the functional whose gradient is h^2 mu).
GOLDEN = {
    "[grid]\nnx = 32\nny = 24\nh = 1.3\n[init]\nseed = 11\n"
    "[solver]\nsnapshot_times = 0, 2, 5\ndiag_stride = 50\n": {
        "diagnostics.csv": "c4c078e8a2c2d9668204d7162da42ed2949e9ff3e6684c3a25b1f3d761bec992",
        "snap_t0.csv": "2b5d77461e81bd99ee7091c8b13cc280df85f4f584073d952f0009d8e629c13f",
        "snap_t2.csv": "571fdcebe2b1c120bc5938e3b24699d864fadbd9d27568e019d9eddf9a50ef0a",
        "snap_t5.csv": "d6db8ce224a1b3d9152f8783e5c57e8a89923ca5dceabb6a484ea520f1e1657c",
    },
    "[grid]\nnx = 16\nny = 16\n[init]\nseed = 3\n"
    "[solver]\nsnapshot_times = 0, 1, 3\ndiag_stride = 100\n": {
        "diagnostics.csv": "85e5b00b49a30d55b20cb1453fa969930961c967ff755b23ff8fbeb2f6c60933",
        "snap_t0.csv": "f11567fe9b77dd5ef07fa41ac5fb9ac65f84a8599d7781fd38574d13aa586ba7",
        "snap_t1.csv": "d0fa5348384ff5ca627b57cc1f590d45cdba780928ca9372f19650c3c7f8741e",
        "snap_t3.csv": "ed2f0025edda07b82b8f1b9ad6993c8daff08dd0a41e997a204ad4ba512a41b7",
    },
}


@pytest.mark.parametrize("config", list(GOLDEN), ids=["32x24_h1.3", "16x16"])
def test_simulate_outputs_match_golden_hashes(tmp_path, config):
    ini = tmp_path / "run.ini"
    ini.write_text(config)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN[config]


@pytest.mark.parametrize("config", list(GOLDEN), ids=["32x24_h1.3", "16x16"])
def test_simulate_outputs_match_golden_hashes_in_two_slabs(tmp_path, config, slabs):
    built = slabs(2)
    test_simulate_outputs_match_golden_hashes(tmp_path, config)
    assert [len(pids) for pids in built] == [1]
