import contextlib
import hashlib
import io
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from spinodalkit import analysis, cli, fitting, solver
from spinodalkit.config import ConfigError
from spinodalkit.fields import DataFormatError, GridSpec, ScalarField2D, write_snapshot_csv
from spinodalkit.fitting import model_gl_hc2, model_inv_s21, model_powerlaw_hc2

CONFIG = """
[grid]
nx = 32
ny = 32

[solver]
snapshot_times = 0, 0.5
diag_stride = 50
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(CONFIG)
    return p


def _write_table(path, header, *columns):
    rows = zip(*columns)
    path.write_text(header + "\n" + "".join(
        ",".join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n"
        for row in rows))
    return str(path)


def _film_commands(d):
    """argv (without --out) of the five film-data commands, on inputs built
    from fixed-seed numpy data in directory d."""
    rng = np.random.default_rng(20211)
    films = _write_table(
        d / "films.csv", "label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T",
        ["tin", "tial_a", "tial_b"], rng.uniform(20e-9, 150e-9, 3),
        rng.uniform(5.0, 300.0, 3), rng.uniform(1.0, 5.0, 3),
        rng.uniform(1e-4, 1e-2, 3))
    T = np.linspace(0.1, 3.1, 20)
    gl = _write_table(d / "hc2_gl.csv", "T_K,muH_T", T,
                      model_gl_hc2(T, 7.7e-9, 3.2)
                      * (1 + 0.005 * rng.standard_normal(T.size)))
    T = np.linspace(0.1, 3.7, 60)
    pl = _write_table(d / "hc2_pl.csv", "T_K,muH_T", T,
                      model_powerlaw_hc2(T, 2.5, 3.5, 1.1, 3.8)
                      * (1 + 0.005 * rng.standard_normal(T.size)))
    qi, qc, phi, f0 = 2.2e5, 1e5, 0.1, 6e9
    f = np.linspace(f0 - 5 * f0 / qi, f0 + 5 * f0 / qi, 201)
    inv = model_inv_s21(f, qi, qc, phi, f0) + 2e-4 * (
        rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
    s21 = _write_table(d / "s21.csv", "f_Hz,re_S21,im_S21", f,
                       (1 / inv).real, (1 / inv).imag)
    T = np.arange(5.0, 305.0, 5.0)
    sigma = np.where(T >= 80.0, 40.0 + 0.12 * T, 9.0 + 3.0 * np.sqrt(T))
    sig = _write_table(d / "sigma.csv", "T_K,sigma", T,
                       sigma * (1 + 0.001 * rng.standard_normal(T.size)))
    return {
        "transport": ["transport", "--in", films],
        "fit-hc2": ["fit-hc2", "--in", gl],
        "fit-hc2-powerlaw": ["fit-hc2", "--in", pl, "--model", "powerlaw",
                             "--tc", "3.8"],
        "fit-resonance": ["fit-resonance", "--in", s21],
        "fit-sigma": ["fit-sigma", "--in", sig],
    }


# sha256 of the film-data reports as written before the parser was cached:
# parsing must not change a byte of what the commands write.
FILM_GOLDEN = {
    "fit_hc2_gl.csv": "03682c20a6ebccb9790137f459fdef26cd75e2ff64557a917acae3a4b22a80ea",
    "fit_hc2_powerlaw.csv": "aa9d6933ffbf4095b58399ebdfa5fe972caa536062ad8ff2b63e71fa6b36253c",
    "fit_resonance.csv": "41205ae3b1347cc0ac5764921c7e84c560b12128dbe59cc1bf5cb914fc3014ae",
    "fit_sigma.csv": "b1ec09210863c5e33e0d7a61f6337dd86bcba84006d35306321bb1fcd54cb38a",
    "transport_report.csv": "bda6cb3a2932799e9ec979054c619afeab9fa22541853e8dad89a2914c31b36a",
}


def test_film_data_outputs_match_golden_hashes(tmp_path):
    out = tmp_path / "out"
    for argv in _film_commands(tmp_path).values():
        assert cli.main([*argv, "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == FILM_GOLDEN


def test_cli_import_leaves_scipy_special_unloaded(tmp_path):
    # scipy.special costs ~0.3 s of start-up; only gaussian_field needs it.
    # scipy.ndimage costs ~60 ms; only labelling and percolation need it.
    # concurrent.futures costs ~7 ms; only a threaded analyze needs it.
    # The package modules cost ~35 ms together, and each subcommand
    # imports only those it uses when it runs.
    code = ("import sys, spinodalkit.cli; print(*(m in sys.modules for m in "
            "('scipy.special', 'scipy.ndimage', 'concurrent.futures')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False False False"

    snap = tmp_path / "snap_t1.csv"
    write_snapshot_csv(ScalarField2D(GridSpec(8, 8), np.full((8, 8), 0.5)), snap)
    out = ["--out", str(tmp_path / "out")]
    base = {"cli", "config", "fields"}
    loaded_after = [
        ((), base),
        ((*_film_commands(tmp_path)["fit-sigma"], *out), base | {"fitting", "transport"}),
        (("render", "--in", str(snap), *out), base | {"render"}),
    ]
    code = textwrap.dedent("""
        import sys
        from spinodalkit import cli
        if sys.argv[1:]:
            assert cli.main(sys.argv[1:]) == 0
        print(*(m.split(".")[1] for m in sys.modules if m.startswith("spinodalkit.")))
    """)
    for argv, expected in loaded_after:
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert set(out.splitlines()[-1].split()) == expected, argv


def test_parser_is_built_on_first_main_call_then_reused(tmp_path):
    # counts argparse parsers constructed: none at import, one tree for
    # several main() calls, and a fresh tree from every build_parser()
    code = textwrap.dedent("""
        import argparse, sys
        built = []
        init = argparse.ArgumentParser.__init__
        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting_init
        from spinodalkit import cli
        n_import = len(built)
        codes = [cli.main(["fit-sigma", "--in", sys.argv[1]]) for _ in range(3)]
        n_main = len(built)
        assert cli.build_parser() is not cli.build_parser()
        print(n_import, n_main, (len(built) - n_main) // 2, codes)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "none.csv")],
                         env=env, check=True, capture_output=True, text=True).stdout
    n_import, n_main, per_tree, codes = out.split(" ", 3)
    assert n_import == "0"
    assert int(n_main) == int(per_tree) > 0
    assert codes.strip() == "[2, 2, 2]"


def _run_calls(calls, root, capsys):
    """Each call's exit code, stdout, stderr and written files, with the
    output root masked so that two roots compare equal."""
    results = []
    for i, argv in enumerate(calls):
        out = root / str(i)
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        std = capsys.readouterr()
        files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                 if out.is_dir() else {})
        results.append((code, std.out.replace(str(root), "<root>"),
                        std.err.replace(str(root), "<root>"), files))
    return results


def test_reused_parser_leaks_nothing_between_calls(tmp_path, capsys, monkeypatch):
    film = _film_commands(tmp_path)
    good = tmp_path / "good.ini"
    good.write_text(CONFIG)
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG + "dt = 0.5\n")
    calls = [
        film["fit-hc2-powerlaw"],
        film["fit-hc2"],
        film["fit-hc2-powerlaw"][:-2],  # --tc dropped: the command refuses
        ["simulate", "--config", str(bad), "--seed", "5", "--force-dt"],
        ["simulate", "--seed", "five"],
        ["simulate", "--config", str(bad)],
        ["simulate", "--config", str(good)],
        film["transport"],
    ]
    cli._parser.cache_clear()
    with contextlib.redirect_stderr(io.StringIO()):
        cli._parser()  # usage errors must go to sys.stderr as of the call
    reused = _run_calls(calls, tmp_path / "reused", capsys)
    assert [r[0] for r in reused] == [0, 0, 1, 3, 1, 3, 0, 0]
    assert reused[4][2].startswith("usage: spinodalkit simulate")
    assert "argument --seed: invalid int value: 'five'" in reused[4][2]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert _run_calls(calls, tmp_path / "fresh", capsys) == reused


def test_main_reads_sys_argv_at_call_time(tmp_path, monkeypatch):
    film = _film_commands(tmp_path)
    for name in ("fit-sigma", "transport"):
        monkeypatch.setattr(sys, "argv",
                            ["spinodalkit", *film[name], "--out", str(tmp_path / name)])
        assert cli.main() == 0
    assert (tmp_path / "fit-sigma" / "fit_sigma.csv").exists()
    assert (tmp_path / "transport" / "transport_report.csv").exists()


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 1


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--frobnicate"])
    assert info.value.code == 1


def test_bad_threads_value_is_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--threads", "0"])
    assert info.value.code == 1


def test_simulate_writes_outputs(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert (out / "snap_t0.csv").exists()
    assert (out / "snap_t0.5.csv").exists()
    assert (out / "diagnostics.csv").exists()
    assert "simulate:" in capsys.readouterr().out


def test_simulate_is_byte_identical_across_runs_and_threads(tmp_path, config_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(config_path),
                         "--out", str(out), "--threads", threads]) == 0
        outs.append((out / "snap_t0.5.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_seed_override(tmp_path, config_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    cli.main(["simulate", "--config", str(config_path), "--out", str(a)])
    cli.main(["simulate", "--config", str(config_path), "--out", str(b),
              "--seed", "99"])
    assert (a / "snap_t0.csv").read_bytes() != (b / "snap_t0.csv").read_bytes()


def test_simulate_rejects_unstable_dt(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(CONFIG + "dt = 0.5\n")
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(ini), "--out", str(out)])
    assert code == 3
    assert "stability ceiling" in capsys.readouterr().err
    assert not (out / "snap_last_stable.csv").exists()


def test_force_dt_divergence_writes_last_stable(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(CONFIG + "dt = 0.5\n")
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(ini), "--out", str(out),
                     "--force-dt"])
    assert code == 3
    err = capsys.readouterr().err
    assert "diverged at step" in err
    assert (out / "snap_last_stable.csv").exists()
    assert (out / "diagnostics.csv").exists()


def test_bad_config_is_data_error(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[grid]\nwidth = 10\n")
    assert cli.main(["simulate", "--config", str(ini)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("text,dt", [("[grid]\nh = 1e-100\n", "0.0"),
                                     ("[solver]\nD = 1e-320\n", "inf")],
                         ids=["dt_zero", "dt_inf"])
def test_unusable_automatic_dt_is_data_error(tmp_path, capsys, text, dt):
    # each value is finite and positive, but h^4/(200*D*kappa) is not
    ini = tmp_path / "bad.ini"
    ini.write_text(text + "[grid]\nnx = 8\nny = 8\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"time step dt={dt} from h=" in err
    assert all(f"{name}=" in err for name in ("h", "D", "kappa"))
    assert not list(out.glob("snap_t*.csv"))


@pytest.mark.parametrize("text", ["[grid]\nh = inf\n", "[solver]\nsnapshot_times = 0, inf\n"],
                         ids=["h", "snapshot_times"])
def test_non_finite_config_value_is_data_error(tmp_path, capsys, text):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(ini), "--out", str(out)]) == 2
    assert "line 2: bad value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[solver]\nsnapshot_times = 0, 1e308\n",
                                  "[solver]\ndt = 1e-310\n"], ids=["t_huge", "dt_tiny"])
def test_overflowing_step_index_is_data_error(tmp_path, capsys, text):
    # t / dt is inf, so a snapshot time has no step index
    ini = tmp_path / "bad.ini"
    ini.write_text(text + "[grid]\nnx = 8\nny = 8\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(ini), "--out", str(out)]) == 2
    assert "steps away, beyond the float range" in capsys.readouterr().err
    assert not list(out.glob("snap_t*.csv"))


EXIT_CODES = [
    (solver.StabilityError("diverged"), 3), (analysis.LinearSolveError("singular"), 3),
    (analysis.NoStructureError("constant field"), 3),
    (fitting.SingularFitError("singular", 1e20), 3), (np.linalg.LinAlgError("singular"), 3),
    (DataFormatError("bad row"), 2), (ConfigError("bad key"), 2),
    (solver.TimeStepError("bad dt"), 2), (ValueError("bad value"), 2),
    (OSError("no file"), 2),
]


@pytest.mark.parametrize("error,code", EXIT_CODES,
                         ids=[type(e).__name__ for e, _ in EXIT_CODES])
def test_exit_code_of_each_error_type(tmp_path, capsys, monkeypatch, error, code):
    # numerical failures exit 3, bad input (config, data, values, files) 2;
    # some numerical failures are also ValueErrors
    def fail(T, sigma):
        raise error

    monkeypatch.setattr(fitting, "fit_conductivity_regimes", fail)
    argv = _film_commands(tmp_path)["fit-sigma"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"spinodalkit fit-sigma: {error}\n"


def test_threads_env_var(tmp_path, config_path, monkeypatch):
    monkeypatch.setenv("SPINODALKIT_THREADS", "banana")
    assert cli.main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == 2
    monkeypatch.setenv("SPINODALKIT_THREADS", "4")
    assert cli.main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["simulate", "analyze", "transport", "fit-hc2",
                                     "fit-resonance", "fit-sigma", "render"])
def test_threads_env_var_is_checked_by_every_command(
        tmp_path, config_path, monkeypatch, capsys, command):
    snap = tmp_path / "snap_t1.csv"
    rng = np.random.default_rng(7)
    write_snapshot_csv(ScalarField2D(GridSpec(16, 16), rng.uniform(0, 1, (16, 16))),
                       snap)
    argv = {**_film_commands(tmp_path),
            "simulate": ["simulate", "--config", str(config_path)],
            "analyze": ["analyze", "--in", str(snap)],
            "render": ["render", "--in", str(snap)]}[command]
    out = tmp_path / "out"
    monkeypatch.setenv("SPINODALKIT_THREADS", "abc")
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert "SPINODALKIT_THREADS must be an integer" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv("SPINODALKIT_THREADS", "2")
    assert cli.main([*argv, "--out", str(out)]) == 0


def test_analyze_snapshot_directory(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(config_path), "--out", str(out)])
    rep = tmp_path / "rep"
    code = cli.main(["analyze", "--in", str(out), "--out", str(rep)])
    assert code == 0
    lines = (rep / "report.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two snapshots
    assert lines[0].startswith("time,char_length")
    assert float(lines[1].split(",")[0]) == 0.0


def test_analyze_report_is_byte_identical_across_runs_and_threads(
        tmp_path, config_path):
    snaps = tmp_path / "snaps"
    cli.main(["simulate", "--config", str(config_path), "--out", str(snaps)])
    reports = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "2"), ("e", "4")):
        rep = tmp_path / name
        assert cli.main(["analyze", "--in", str(snaps), "--out", str(rep),
                         "--threads", threads]) == 0
        reports.append((rep / "report.csv").read_bytes())
    assert all(r == reports[0] for r in reports)


# sha256 of `analyze`'s report.csv on a 64x64 run (seed 11, t = 0, 10, 50),
# as written by the per-format report writer before the shared table writer
ANALYZE_64_GOLDEN = "fc2c92d04bdde5cda23a99a9328cc81a726b40e7faf860f71c02b3a839312a4b"


def test_analyze_64_report_matches_golden_hash(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[grid]\nnx = 64\nny = 64\n\n[init]\nseed = 11\n\n"
                   "[solver]\nsnapshot_times = 0, 10, 50\n")
    snaps = tmp_path / "snaps"
    assert cli.main(["simulate", "--config", str(ini), "--out", str(snaps)]) == 0
    for threads in ("1", "2", "4"):
        rep = tmp_path / threads
        assert cli.main(["analyze", "--in", str(snaps), "--out", str(rep),
                         "--threads", threads]) == 0
        got = hashlib.sha256((rep / "report.csv").read_bytes()).hexdigest()
        assert got == ANALYZE_64_GOLDEN


def test_analyze_threads_run_reff_solves_concurrently(tmp_path, config_path,
                                                      monkeypatch):
    # each solve waits until a second one is running: only a pool of two
    # workers gets past the barrier, a serial run breaks it
    snaps = tmp_path / "snaps"
    cli.main(["simulate", "--config", str(config_path), "--out", str(snaps)])
    solve = analysis.effective_sheet_resistance
    barrier = threading.Barrier(2, timeout=30.0)
    threads_seen = set()

    def rendezvous(c, axis):
        threads_seen.add(threading.get_ident())
        barrier.wait()
        return solve(c, axis)

    monkeypatch.setattr(analysis, "effective_sheet_resistance", rendezvous)
    assert cli.main(["analyze", "--in", str(snaps), "--out", str(tmp_path / "a"),
                     "--threads", "2"]) == 0
    assert len(threads_seen) == 2 and threading.get_ident() not in threads_seen
    barrier = threading.Barrier(2, timeout=0.2)
    with pytest.raises(threading.BrokenBarrierError):
        cli.main(["analyze", "--in", str(snaps), "--out", str(tmp_path / "b"),
                  "--threads", "1"])
    assert not (tmp_path / "b" / "report.csv").exists()


@pytest.mark.parametrize("env,threads,cores,warns", [
    ({}, "2", 2, True),         # BLAS unset: one thread per core
    ({"OPENBLAS_NUM_THREADS": "1"}, "2", 2, False),
    ({"OMP_NUM_THREADS": "1"}, "2", 2, False),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x", "MKL_NUM_THREADS": "2"},
     "2", 2, True),             # the first positive integer counts
    ({"OPENBLAS_NUM_THREADS": "2"}, "4", 4, False),   # 2 solves: 2 workers, not 4
    ({"OPENBLAS_NUM_THREADS": "3"}, "4", 4, True),
    ({"OPENBLAS_NUM_THREADS": "4"}, "1", 2, False),   # no pool, only BLAS threads
    ({"OPENBLAS_NUM_THREADS": "2"}, "2", None, True),  # no affinity call: cpu_count
], ids=["unset", "openblas_1", "omp_1", "first_positive", "pool_capped", "pool_capped_over",
        "serial", "cpu_count"])
def test_analyze_warns_when_pool_and_blas_threads_oversubscribe(
        tmp_path, monkeypatch, capsys, env, threads, cores, warns):
    snap = tmp_path / "snap_t1.csv"
    write_snapshot_csv(ScalarField2D(GridSpec(16, 16),
                                     np.random.default_rng(5).uniform(0, 1, (16, 16))), snap)

    def analyze(name):
        assert cli.main(["analyze", "--in", str(snap), "--out", str(tmp_path / name),
                         "--threads", threads]) == 0
        return capsys.readouterr(), (tmp_path / name / "report.csv").read_bytes()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    (quiet_out, quiet_err), quiet_report = analyze("serial_blas")
    assert quiet_err == ""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    (out, err), report = analyze("run")
    assert (out.replace("run", "serial_blas"), report) == (quiet_out, quiet_report)
    assert ("BLAS threads exceed" in err) == warns
    assert err.count("\n") == warns


def test_analyze_non_power_of_two_grid(tmp_path):
    ini = tmp_path / "odd.ini"
    ini.write_text(CONFIG.replace("nx = 32", "nx = 48").replace("ny = 32", "ny = 40"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    assert cli.main(["analyze", "--in", str(out), "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("threads", ["1", "2"])
def test_analyze_without_conducting_path_is_numeric_failure(tmp_path, capsys, threads):
    # every cell is Al-rich and 1e-310 bonds underflow to zero conductance
    ini = tmp_path / "dead.ini"
    ini.write_text(CONFIG.replace("nx = 32", "nx = 16").replace("ny = 32", "ny = 16")
                   + "\n[analysis]\nx_c = 0.99\nsigma_al = 1e-310\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    code = cli.main(["analyze", "--config", str(ini), "--in", str(out),
                     "--out", str(out), "--threads", threads])
    assert code == 3
    assert "Kirchhoff" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_analyze_missing_input_is_data_error(tmp_path):
    assert cli.main(["analyze", "--in", str(tmp_path / "nope.csv")]) == 2
    empty = tmp_path / "emptydir"
    empty.mkdir()
    assert cli.main(["analyze", "--in", str(empty)]) == 2


@pytest.mark.parametrize("command", ["analyze", "render"])
def test_non_numeric_snapshot_time_is_data_error(tmp_path, capsys, command):
    snap = tmp_path / "snap_tabc.csv"
    write_snapshot_csv(ScalarField2D(GridSpec(4, 4), np.full((4, 4), 0.5)), snap)
    assert cli.main([command, "--in", str(snap), "--out", str(tmp_path)]) == 2
    assert "'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "render"])
@pytest.mark.parametrize("names", [["snap_tnan.csv"], ["snap_tinf.csv"],
                                   ["snap_t10.csv", "snap_t1e1.csv"]],
                         ids=["nan", "inf", "duplicate"])
def test_non_finite_or_duplicate_snapshot_time_is_data_error(tmp_path, capsys, command,
                                                             names):
    # every file is a valid snapshot, but the report would hold a time of
    # nan or inf, or two rows of one time; a non-finite time fails both as
    # a single file and in a directory
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    field = ScalarField2D(GridSpec(8, 8), np.random.default_rng(3).uniform(0, 1, (8, 8)))
    for name in ["snap_t0.csv", *names]:
        write_snapshot_csv(field, snaps / name)
    inputs = [snaps] if len(names) > 1 else [snaps, snaps / names[0]]
    for i, path in enumerate(inputs):
        out = tmp_path / f"out{i}"
        assert cli.main([command, "--in", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(str(snaps / name) in err for name in names)
        assert list(out.iterdir()) == []


ROW = "0.5,0.5,0.5,0.5\n"
INVALID_SNAPSHOTS = {
    "grid_too_small": "2,2,1.0\n0.5,0.5\n0.5,0.5\n",
    "zero_spacing": "4,4,0.0\n" + ROW * 4,
    "negative_rows": "4,-4,1.0\n" + ROW * 4,
    "nan_value": "4,4,1.0\n" + ROW * 3 + "0.5,nan,0.5,0.5\n",
    "infinite_spacing": "4,4,inf\n" + ROW * 4,
    "huge_grid": "1000000000,1000000000,1.0\n" + ROW * 4,
    "huge_grid_no_rows": "1000000000,1000000000,1.0\n",
    "short_header": "4,4\n" + ROW * 4,
    "header_only": "4,4,1.0\n",
    "short_file": "4,4,1.0\n" + ROW * 3,
    "extra_row": "4,4,1.0\n" + ROW * 5,
    "ragged_row": "4,4,1.0\n" + ROW * 3 + "0.5,0.5,0.5\n",
    "short_rows": "4,4,1.0\n" + "0.5,0.5,0.5\n" * 4,
    "non_numeric": "4,4,1.0\n" + ROW * 3 + "0.5,x,0.5,0.5\n",
    "inf_value": "4,4,1.0\n" + ROW * 3 + "0.5,-inf,0.5,0.5\n",
    "comment_row": "4,4,1.0\n" + ROW * 3 + "# 0.5,0.5,0.5,0.5\n",
}


@pytest.mark.parametrize("command", ["analyze", "render"])
@pytest.mark.parametrize("content", list(INVALID_SNAPSHOTS.values()), ids=list(INVALID_SNAPSHOTS))
def test_invalid_snapshot_is_data_error(tmp_path, capsys, command, content):
    snap = tmp_path / "snap_t0.csv"
    snap.write_text(content)
    assert cli.main([command, "--in", str(snap), "--out", str(tmp_path)]) == 2
    assert str(snap) in capsys.readouterr().err


def test_transport_command(tmp_path, capsys):
    films = tmp_path / "films.csv"
    films.write_text("label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T\n"
                     "tan,1e-07,132.3,3.2,0.0039\n")
    code = cli.main(["transport", "--in", str(films), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "transport_report.csv").exists()
    out = capsys.readouterr().out
    assert "tan:" in out and "L_k=" in out

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert cli.main(["transport", "--in", str(bad)]) == 2


def test_fit_hc2_gl(tmp_path, capsys):
    T = np.linspace(0.1, 3.1, 25)
    muH = model_gl_hc2(T, 7.7e-9, 3.2)
    trace = tmp_path / "hc2.csv"
    trace.write_text("T_K,muH_T\n" +
                     "".join(f"{t},{h}\n" for t, h in zip(T, muH)))
    code = cli.main(["fit-hc2", "--in", str(trace), "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "fit_hc2_gl.csv").read_text()
    assert report.startswith("parameter,value,uncertainty\nxi_m,")
    assert "xi_m" in capsys.readouterr().out


def test_fit_with_non_finite_covariance_is_not_converged(tmp_path, capsys):
    # the step converges, but T_c ~ 1e308 overflows the covariance to nan
    trace = tmp_path / "hc2.csv"
    trace.write_text("T_K,muH_T\n1e308,2.0\n1.7e308,1.0\n")
    code = cli.main(["fit-hc2", "--in", str(trace), "--out", str(tmp_path)])
    assert code == 3
    report = (tmp_path / "fit_hc2_gl.csv").read_text()
    assert report.endswith("converged,0,\n")
    assert "covariance is not finite" in capsys.readouterr().out


def test_fit_hc2_powerlaw_needs_tc(tmp_path, capsys):
    trace = tmp_path / "hc2.csv"
    trace.write_text("T_K,muH_T\n1.0,2.0\n2.0,1.0\n3.0,0.2\n")
    code = cli.main(["fit-hc2", "--in", str(trace), "--model", "powerlaw"])
    assert code == 1
    assert "--tc is required" in capsys.readouterr().err
    code = cli.main(["fit-hc2", "--in", str(trace), "--model", "powerlaw",
                     "--tc", "3.2", "--out", str(tmp_path)])
    assert code in (0, 3)  # tiny trace may legitimately not converge
    assert (tmp_path / "fit_hc2_powerlaw.csv").exists()


@pytest.mark.parametrize("tc", ["-1", "0", "nan", "inf"])
def test_fit_hc2_tc_must_be_positive_and_finite(tmp_path, capsys, tc):
    argv = _film_commands(tmp_path)["fit-hc2-powerlaw"][:-1] + [tc]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--out", str(out)])
    assert info.value.code == 1
    assert "argument --tc: must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_fit_resonance_command(tmp_path):
    qi, qc, phi, f0 = 2.7e5, 1e5, 0.1, 6e9
    lw = f0 / qi
    f = np.linspace(f0 - 5 * lw, f0 + 5 * lw, 201)
    s21 = 1.0 / model_inv_s21(f, qi, qc, phi, f0)
    trace = tmp_path / "s21.csv"
    trace.write_text("f_Hz,re_S21,im_S21\n" +
                     "".join(f"{x},{v.real},{v.imag}\n" for x, v in zip(f, s21)))
    code = cli.main(["fit-resonance", "--in", str(trace), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "fit_resonance.csv").read_text().splitlines()
    qi_fit = float(next(ln for ln in lines if ln.startswith("Q_i,")).split(",")[1])
    assert abs(qi_fit - qi) / qi < 1e-4

    zero = tmp_path / "zero.csv"
    zero.write_text("f_Hz,re_S21,im_S21\n6e9,0,0\n")
    assert cli.main(["fit-resonance", "--in", str(zero)]) == 2


def test_fit_sigma_command(tmp_path, capsys):
    T = np.arange(5.0, 305.0, 5.0)
    sigma = 40.0 + 0.12 * T
    trace = tmp_path / "sigma.csv"
    trace.write_text("T_K,sigma\n" +
                     "".join(f"{t},{s}\n" for t, s in zip(T, sigma)))
    code = cli.main(["fit-sigma", "--in", str(trace), "--out", str(tmp_path)])
    assert code == 0
    body = (tmp_path / "fit_sigma.csv").read_text()
    assert body.startswith("window,abscissa,slope,intercept,r_squared\n")
    assert "high_T,T,0.12" in body

    sparse = tmp_path / "sparse.csv"
    sparse.write_text("T_K,sigma\n150,1\n200,1\n250,1\n300,1\n")
    assert cli.main(["fit-sigma", "--in", str(sparse)]) == 2


# inputs a command rejects with exit 2 (bad data or values); each exited 3
# before bare ValueErrors were mapped to the data-error code
REJECTED_INPUTS = {
    "fit-sigma_empty_low_window": (
        "fit-sigma", "T_K,sigma\n150,1\n200,1\n250,1\n300,1\n",
        "fewer than 3 points in window [10.0, 60.0] K"),
    "fit-hc2_one_row": (
        "fit-hc2", "T_K,muH_T\n1.0,2.0\n",
        "gl_hc2: 1 observations cannot constrain 2 parameters"),
    "fit-resonance_one_row": (
        "fit-resonance", "f_Hz,re_S21,im_S21\n6e9,0.5,0.1\n",
        "inv_s21: 1 observations cannot constrain 4 parameters"),
    "transport_negative_hall_slope": (
        "transport", "label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T\n"
                     "tan,1e-07,132.3,3.2,-0.0039\n",
        "Hall slope must be positive (electron-like), got -0.0039"),
}


@pytest.mark.parametrize("command,content,message", list(REJECTED_INPUTS.values()),
                         ids=list(REJECTED_INPUTS))
def test_invalid_input_values_are_data_errors(tmp_path, capsys, command, content,
                                              message):
    src = tmp_path / "in.csv"
    src.write_text(content)
    assert cli.main([command, "--in", str(src), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"spinodalkit {command}: {message}\n"


FILM_INPUT_HEADERS = {
    "transport": ("label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T", "tan,1e-07,132.3,3.2,0.0039"),
    "fit-hc2": ("T_K,muH_T", "1.0,2.0"),
    "fit-resonance": ("f_Hz,re_S21,im_S21", "6e9,0.5,0.1"),
    "fit-sigma": ("T_K,sigma", "150,1"),
}
BAD_ROWS = {
    "extra_field": (lambda row: row + ",1.0", "expected {n} fields, got {m}"),
    "missing_field": (lambda row: row.rsplit(",", 1)[0], "expected {n} fields, got {m}"),
    "nan": (lambda row: row.rsplit(",", 1)[0] + ",nan", "{last} must be finite, got nan"),
    "inf": (lambda row: row.rsplit(",", 1)[0] + ",-inf", "{last} must be finite, got -inf"),
}


@pytest.mark.parametrize("fault", list(BAD_ROWS))
@pytest.mark.parametrize("command", list(FILM_INPUT_HEADERS))
def test_malformed_film_data_row_is_data_error(tmp_path, capsys, command, fault):
    header, row = FILM_INPUT_HEADERS[command]
    change, message = BAD_ROWS[fault]
    bad = change(row)
    src = tmp_path / "in.csv"
    src.write_text(f"{header}\n{row}\n\n{bad}\n{row}\n")
    out = tmp_path / "out"
    assert cli.main([command, "--in", str(src), "--out", str(out)]) == 2
    expected = message.format(n=header.count(",") + 1, m=bad.count(",") + 1,
                              last=header.rsplit(",", 1)[1])
    # line 4: the blank line 3 is skipped but counted
    assert capsys.readouterr().err == f"spinodalkit {command}: {src}:4: {expected}\n"
    assert list(out.iterdir()) == []


def test_render_command(tmp_path):
    vals = np.full((4, 4), 0.5)
    f = ScalarField2D(GridSpec(4, 4), vals)
    snap = tmp_path / "snap_t3.csv"
    write_snapshot_csv(f, snap)
    code = cli.main(["render", "--in", str(snap), "--out", str(tmp_path)])
    assert code == 0
    data = (tmp_path / "snap_t3.ppm").read_bytes()
    assert data.startswith(b"P6\n4 4\n255\n")
    pixels = data.split(b"255\n", 1)[1]
    assert pixels[:3] == bytes([128, 128, 0])
