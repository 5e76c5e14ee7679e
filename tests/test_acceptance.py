"""Acceptance suite: one test per shipped guarantee, at the stated
tolerances.  `pytest -v tests/test_acceptance.py` prints one pass/fail
line per criterion; run with -s to also see the measured values.

The two solver-based fixtures are module-scoped because they carry the
bulk of the runtime (the 256-square coarsening run takes about a minute).
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinodalkit.analysis import (characteristic_length,
                                  effective_sheet_resistance,
                                  percolation_threshold_mc)
from spinodalkit import cli
from spinodalkit.fields import GridSpec, gaussian_field, write_snapshot_csv
from spinodalkit.fitting import (fit_conductivity_regimes, fit_gl_hc2,
                                 fit_powerlaw_hc2, fit_resonance,
                                 model_gl_hc2, model_inv_s21,
                                 model_powerlaw_hc2)
from spinodalkit.solver import SolverParams, run
from spinodalkit.thermo import spinodal_interval
from spinodalkit.transport import (CONSTANTS, free_electron_params,
                                   sheet_inductance_from_lambda,
                                   sheet_kinetic_inductance,
                                   specific_inductance)
from dense_oracle import dense_sheet_resistance
from test_network import DUALITY_BOUND, duality_error


@pytest.fixture(scope="module")
def run128():
    init = gaussian_field(GridSpec(128, 128), 0.48, 1e-3, seed=3)
    params = SolverParams(snapshot_times=(), n_steps=10_000, diag_stride=1)
    return run(init, params)


@pytest.fixture(scope="module")
def run256():
    init = gaussian_field(GridSpec(256, 256), 0.48, 1e-3, seed=1)
    params = SolverParams(snapshot_times=(10.0, 50.0, 500.0))
    return run(init, params)


def test_c01_spinodal_interval():
    lo, hi = spinodal_interval()
    assert abs(lo - (3 - math.sqrt(3)) / 6) <= 1e-12
    assert abs(hi - (3 + math.sqrt(3)) / 6) <= 1e-12
    print(f"criterion 1: spinodal interval ({lo:.15f}, {hi:.15f})")


def test_c02_mass_conservation(run128):
    masses = np.array([d.mass for d in run128.diagnostics])
    drift = np.abs(masses - masses[0]).max() / abs(masses[0])
    print(f"criterion 2: relative mass drift {drift:.3e} over 10^4 steps")
    assert drift <= 1e-12


def test_c03_energy_descent(run128):
    e = np.array([d.free_energy for d in run128.diagnostics])
    slack = 1e-9 * np.abs(e[:-1])
    worst = float((np.diff(e) - slack).max())
    print(f"criterion 3: worst energy increase {worst:.3e} (must be <= 0)")
    assert (np.diff(e) <= slack).all()


def test_c04_coarsening(run256):
    lengths = {t: characteristic_length(run256.snapshots[t])
               for t in (10.0, 50.0, 500.0)}
    var = float(np.var(run256.snapshots[500.0].values))
    print(f"criterion 4: L(10)={lengths[10.0]:.3f} L(50)={lengths[50.0]:.3f} "
          f"L(500)={lengths[500.0]:.3f}, var(500)={var:.3f}")
    assert lengths[10.0] < lengths[50.0] < lengths[500.0]
    assert var > 0.05


def test_analyze_256_report_is_byte_identical_across_threads(run256, tmp_path,
                                                            set_workers):
    # criterion 14 for `analyze`: the threaded R_eff solves of a coarsened
    # 256^2 map write the same report as the serial ones
    snap = tmp_path / "snap_t500.csv"
    write_snapshot_csv(run256.snapshots[500.0], snap)
    reports = []
    for workers in (1, 2, 4):
        set_workers(workers)
        out = tmp_path / str(workers)
        assert cli.main(["analyze", "--in", str(snap), "--out", str(out)]) == 0
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    print("analyze: 256^2 report byte-identical on 1, 2 and 4 pool workers")


def test_planar_duality_on_the_coarsened_128_run(run128):
    # R_eff's exact oracle at a size no direct solve reaches in the suite:
    # the network and its planar dual have conductances G G* = 1
    for contrast, bound in DUALITY_BOUND.items():
        sigma = np.where(run128.final.values >= 0.5, 1.0, 1.0 / contrast)
        errors = [duality_error(sigma, axis) for axis in ("x", "y")]
        print(f"duality: |G G* - 1| = {errors[0]:.2e} / {errors[1]:.2e} "
              f"at contrast {contrast:g} (128^2, t=50)")
        assert max(errors) <= bound


def test_c05_kinetic_inductance():
    lk_tan = sheet_kinetic_inductance(132.3, 3.2)
    lk_tin = sheet_kinetic_inductance(8.5, 3.8)
    print(f"criterion 5: L_k = {lk_tan * 1e12:.2f} pH/sq and "
          f"{lk_tin * 1e12:.3f} pH/sq")
    assert abs(lk_tan - 57.0e-12) / 57.0e-12 <= 0.01
    assert abs(lk_tin - 3.0e-12) / 3.0e-12 <= 0.05


def test_c06_specific_inductance():
    prod = specific_inductance(57.4e-12, 100e-9)
    assert abs(prod - 5.7e-18) / 5.7e-18 <= 0.01
    lam = 750e-9
    t = 1e-3 * lam
    limit = CONSTANTS.mu_0 * lam ** 2
    err = abs(sheet_inductance_from_lambda(lam, t) * t - limit) / limit
    print(f"criterion 6: L_s*t = {prod * 1e18:.3f} nH*nm, "
          f"thin-limit error {err:.2e}")
    assert err < 1e-4


def test_c07_free_electron_extraction():
    tin = free_electron_params(4.46e28, 8.5, 98e-9)
    assert abs(tin.l - 1.33e-9) / 1.33e-9 <= 0.15
    assert abs(tin.kF_l - 14.6) / 14.6 <= 0.15
    tan = free_electron_params(1.60e28, 132.3, 100e-9)
    assert abs(tan.l - 0.18e-9) / 0.18e-9 <= 0.35
    assert abs(tan.kF_l - 1.38) / 1.38 <= 0.35
    print(f"criterion 7: TiN l={tin.l * 1e9:.3f} nm kF*l={tin.kF_l:.2f}; "
          f"TAN l={tan.l * 1e9:.4f} nm kF*l={tan.kF_l:.3f} "
          "(self-consistent values; the published TAN row differs, see README)")


def test_c08_gl_fit_round_trip():
    xi, tc = 7.7e-9, 3.2
    T = np.linspace(0.1, 3.1, 20)
    muH = model_gl_hc2(T, xi, tc)
    clean = fit_gl_hc2(T, muH, init=(5e-9, 3.5))
    assert abs(clean["xi_m"] - xi) / xi <= 1e-6

    rng = np.random.default_rng(11)
    noisy = muH * (1 + 0.02 * rng.standard_normal(T.size))
    res = fit_gl_hc2(T, noisy, init=(5e-9, 3.5))
    err = abs(res["xi_m"] - xi) / xi
    h0 = model_gl_hc2(0.0, xi, tc)
    print(f"criterion 8: noisy xi error {err:.2%}, H_c2(0) = {h0:.4f} T")
    assert err <= 0.03
    assert abs(h0 - 5.55) / 5.55 <= 0.005


def test_c09_powerlaw_fit_round_trip():
    h0, alpha, beta, tc = 2.5, 3.6, 1.1, 3.8
    T = np.linspace(0.1, 3.7, 60)
    muH = model_powerlaw_hc2(T, h0, alpha, beta, tc)
    rng = np.random.default_rng(0)
    noisy = muH * (1 + 0.02 * rng.standard_normal(T.size))
    res = fit_powerlaw_hc2(T, noisy, T_c=tc)
    err_a = abs(res["alpha"] - alpha) / alpha
    err_b = abs(res["beta"] - beta) / beta
    print(f"criterion 9: alpha error {err_a:.2%}, beta error {err_b:.2%}")
    assert err_a <= 0.05
    assert err_b <= 0.05


def test_c10_resonance_fit_round_trip():
    qi, qc, phi, f0 = 2.7e5, 1e5, 0.1, 6e9
    at_f0 = model_inv_s21(f0, qi, qc, phi, f0)
    assert abs(at_f0 - (1 + qi / qc * np.exp(1j * phi))) <= 1e-12
    assert abs(model_inv_s21(f0 * (1 + 1e8), qi, qc, phi, f0) - 1.0) <= 1e-12

    lw = f0 / qi
    f = np.linspace(f0 - 5 * lw, f0 + 5 * lw, 201)
    rng = np.random.default_rng(2)
    trace = model_inv_s21(f, qi, qc, phi, f0) \
        + 1e-3 * (rng.standard_normal(201) + 1j * rng.standard_normal(201))
    res = fit_resonance(f, trace)
    err = abs(res["Q_i"] - qi) / qi
    print(f"criterion 10: Q_i error {err:.2%} at 1e-3 complex noise")
    assert err <= 0.02


def test_c11_conductivity_regimes():
    T = np.arange(5.0, 305.0, 5.0)
    exact_hi = fit_conductivity_regimes(T, 2.0 + 0.5 * T)
    exact_lo = fit_conductivity_regimes(T, 1.0 + 3.0 * np.sqrt(T))
    assert exact_hi.high_T.r_squared == 1.0
    assert exact_lo.low_T.r_squared == 1.0

    rng = np.random.default_rng(8)
    noisy_hi = fit_conductivity_regimes(
        T, (40.0 + 0.12 * T) * (1 + 0.001 * rng.standard_normal(T.size)))
    noisy_lo = fit_conductivity_regimes(
        T, (10.0 + 4.0 * np.sqrt(T)) * (1 + 0.001 * rng.standard_normal(T.size)))
    print(f"criterion 11: noisy R^2 high={noisy_hi.high_T.r_squared:.5f} "
          f"low={noisy_lo.low_T.r_squared:.5f}")
    assert noisy_hi.high_T.r_squared >= 0.997
    assert noisy_lo.low_T.r_squared >= 0.997


def test_c12_resistor_network():
    uniform = np.full((16, 16), 2.0)
    assert_allclose(effective_sheet_resistance(uniform, "x"), 0.5, rtol=1e-8)

    s1, s2 = 1.0, 1e-2
    strips = np.empty((16, 16))
    strips[:, 0::2] = s1
    strips[:, 1::2] = s2
    assert_allclose(effective_sheet_resistance(strips, "x"),
                    0.5 * (1 / s1 + 1 / s2), rtol=1e-6)
    assert_allclose(effective_sheet_resistance(strips, "y"),
                    2.0 / (s1 + s2), rtol=1e-6)

    rng = np.random.default_rng(21)
    rand = np.exp(rng.standard_normal((8, 8)))
    for axis in ("x", "y"):
        assert_allclose(effective_sheet_resistance(rand, axis),
                        dense_sheet_resistance(rand, axis), rtol=1e-8)
    print("criterion 12: uniform/series/parallel/dense-oracle checks passed")


def test_c13_percolation_threshold():
    mean, err = percolation_threshold_mc(L=256, trials=200, seed=7)
    print(f"criterion 13: p_c = {mean:.4f} +/- {err:.4f} (target 0.593 +/- 0.02)")
    assert abs(mean - 0.593) <= 0.02


def test_c14_simulate_determinism(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[grid]\nnx = 64\nny = 64\n"
                   "[solver]\nsnapshot_times = 0, 1, 2\n")
    outputs = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / name
        code = cli.main(["simulate", "--config", str(ini),
                         "--out", str(out), "--threads", threads])
        assert code == 0
        outputs.append({p.name: p.read_bytes()
                        for p in out.glob("snap_t*.csv")})
    assert outputs[0].keys() == outputs[1].keys()
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]
    print("criterion 14: snapshot files byte-identical across runs and threads")
