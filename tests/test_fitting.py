import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinodalkit.fields import DataFormatError
from spinodalkit.fitting import (FitModel, SingularFitError, fit_conductivity_regimes,
                                 fit_gl_hc2, fit_powerlaw_hc2, fit_report_text,
                                 fit_resonance, model_gl_hc2, model_inv_s21,
                                 model_powerlaw_hc2, nlls_fit, read_s21_csv,
                                 read_xy_csv, write_fit_csv, _numeric_jacobian,
                                 _stack_residual)
from spinodalkit.transport import CONSTANTS

XI, TC = 7.7e-9, 3.2
LINE = FitModel("line", ("a", "b"), lambda p, t: p[0] * t + p[1])


def gl_trace(n=25, t_max=3.1):
    T = np.linspace(0.1, t_max, n)
    return T, model_gl_hc2(T, XI, TC)


def test_gl_model_point_values():
    assert model_gl_hc2(TC, XI, TC) == 0.0
    h0 = model_gl_hc2(0.0, XI, TC)
    assert abs(h0 - 5.55) / 5.55 < 0.005
    assert_allclose(h0, CONSTANTS.flux_quantum / (2 * math.pi * XI ** 2),
                    rtol=1e-14)
    T = np.linspace(0.0, TC, 50)
    assert (np.diff(model_gl_hc2(T, XI, TC)) < 0).all()


def test_gl_model_clamps_above_tc_with_warning():
    with pytest.warns(RuntimeWarning):
        vals = model_gl_hc2(np.array([1.0, 4.0]), XI, TC)
    assert vals[1] == 0.0
    with pytest.raises(ValueError):
        model_gl_hc2(1.0, -1e-9, TC)


def test_powerlaw_model_point_values():
    assert model_powerlaw_hc2(TC, 2.5, 3.6, 1.1, TC) == 0.0
    assert model_powerlaw_hc2(0.0, 2.5, 3.6, 1.1, TC) == 2.5
    # the measured exponents lift the curve above the GL form near Tc
    gl = model_gl_hc2(0.9 * TC, XI, TC) / model_gl_hc2(0.0, XI, TC)
    pl = model_powerlaw_hc2(0.9 * TC, 1.0, 3.6, 1.1, TC)
    assert pl > gl
    assert_allclose(pl, 0.28128, rtol=1e-3)
    with pytest.raises(ValueError):
        model_powerlaw_hc2(1.0, 2.5, -3.6, 1.1, TC)


def test_inv_s21_point_values_and_conjugate_symmetry():
    qi, qc, phi, f0 = 2.7e5, 1e5, 0.1, 6e9
    at_f0 = model_inv_s21(f0, qi, qc, phi, f0)
    assert_allclose(at_f0, 1 + qi / qc * np.exp(1j * phi), rtol=1e-14)
    far = model_inv_s21(f0 * 1e6, qi, qc, phi, f0)
    assert abs(far - 1.0) < 1e-5
    delta = np.linspace(-3e4, 3e4, 11)
    plus = model_inv_s21(f0 + delta, qi, qc, phi, f0)
    minus = model_inv_s21(f0 - delta, qi, qc, -phi, f0)
    assert_allclose(minus, np.conj(plus), rtol=1e-14)
    for bad in [(0.0, qc, phi, f0), (qi, -qc, phi, f0), (qi, qc, phi, 0.0)]:
        with pytest.raises(ValueError):
            model_inv_s21(f0, *bad)


def test_nlls_matches_closed_form_ols():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 10, 40)
    y = 1.7 * x - 0.4 + 0.05 * rng.standard_normal(40)
    res = nlls_fit(LINE, x, y, init=(0.0, 0.0))
    A = np.stack([x, np.ones_like(x)], axis=1)
    ref, *_ = np.linalg.lstsq(A, y, rcond=None)
    assert_allclose(res.params, ref, rtol=1e-10)
    assert res.converged


def test_perfect_fit_r_squared_is_exactly_one():
    x = np.arange(10.0)
    y = 2.0 * x + 3.0
    res = nlls_fit(LINE, x, y, init=(2.0, 3.0))
    assert res.ss_res == 0.0
    assert res.r_squared == 1.0
    assert res.converged


def test_gl_fit_noiseless_round_trip():
    T, muH = gl_trace()
    res = fit_gl_hc2(T, muH, init=(5e-9, 3.5))
    assert abs(res["xi_m"] - XI) / XI < 1e-6
    assert abs(res["Tc_K"] - TC) / TC < 1e-6
    assert res.converged


def test_gl_fit_default_init_and_noise():
    rng = np.random.default_rng(11)
    T, muH = gl_trace(40)
    noisy = muH * (1 + 0.02 * rng.standard_normal(T.size))
    res = fit_gl_hc2(T, noisy)
    assert abs(res["xi_m"] - XI) / XI < 0.05
    assert res.uncertainty("xi_m") > 0


def test_fit_is_invariant_under_data_reordering():
    rng = np.random.default_rng(1)
    T, muH = gl_trace(30)
    noisy = muH * (1 + 0.01 * rng.standard_normal(T.size))
    order = rng.permutation(T.size)
    a = fit_gl_hc2(T, noisy, init=(5e-9, 3.5))
    b = fit_gl_hc2(T[order], noisy[order], init=(5e-9, 3.5))
    assert_allclose(a.params, b.params, rtol=1e-8)


def test_powerlaw_fit_round_trip_and_bounds():
    T = np.linspace(0.1, 3.1, 40)
    muH = model_powerlaw_hc2(T, 2.5, 3.6, 1.1, TC)
    res = fit_powerlaw_hc2(T, muH, T_c=TC)
    assert_allclose(res.params, [2.5, 3.6, 1.1], rtol=1e-5)
    assert 0 < res["alpha"] <= 10.0 and 0 < res["beta"] <= 10.0
    assert np.isfinite(res.uncertainty("alpha"))
    with pytest.raises(ValueError):
        fit_powerlaw_hc2(T, muH, T_c=TC, init=(2.5, 12.0, 1.1))


def test_resonance_round_trip():
    qi, qc, phi, f0 = 2.7e5, 1e5, 0.1, 6e9
    lw = f0 / qi
    f = np.linspace(f0 - 5 * lw, f0 + 5 * lw, 201)
    clean = model_inv_s21(f, qi, qc, phi, f0)
    res = fit_resonance(f, clean)
    assert_allclose(res.params, [qi, qc, phi, f0], rtol=1e-7)

    rng = np.random.default_rng(2)
    noisy = clean + 1e-3 * (rng.standard_normal(201) + 1j * rng.standard_normal(201))
    res = fit_resonance(f, noisy)
    assert abs(res["Q_i"] - qi) / qi < 0.02


def test_resonance_fit_converges_at_every_q():
    # 201 points over +-5 linewidths with 1e-3 complex noise; with f0 fitted
    # in Hz the fit stopped at max_iter for most traces from Q_i ~ 1e6 up
    rng = np.random.default_rng(2015)
    for qi in (1e5, 3e5, 1e6, 3e6):
        for _ in range(5):
            qc, phi = rng.uniform(0.5e5, 2e5), rng.uniform(-np.pi, np.pi)
            f0 = rng.uniform(4e9, 8e9)
            f = np.linspace(f0 - 5 * f0 / qi, f0 + 5 * f0 / qi, 201)
            trace = model_inv_s21(f, qi, qc, phi, f0) + 1e-3 * (
                rng.standard_normal(201) + 1j * rng.standard_normal(201))
            res = fit_resonance(f, trace)
            assert res.converged, (qi, res.message)
            assert abs(res["Q_i"] - qi) / qi <= 0.02


def test_cost_trace_never_increases():
    T, muH = gl_trace()
    res = fit_gl_hc2(T, muH, init=(3e-9, 4.0))
    trace = np.array(res.cost_trace)
    assert (np.diff(trace) <= 0).all()
    assert res.ss_res == trace[-1]


def test_nlls_input_validation():
    x = np.arange(5.0)
    y = 2 * x
    with pytest.raises(ValueError):
        nlls_fit(LINE, x, y, init=(1.0,))
    with pytest.raises(ValueError):
        nlls_fit(LINE, x, y, init=(1.0, np.nan))
    with pytest.raises(ValueError):
        nlls_fit(LINE, np.array([1.0]), np.array([2.0]), init=(1.0, 0.0))
    with pytest.raises(ValueError):
        FitModel("none", (), lambda p, t: t)


def test_non_finite_model_raises_singular_fit_error():
    bad = FitModel("bad", ("a", "b"), lambda p, t: p[0] * t / p[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(SingularFitError) as info:
            nlls_fit(bad, np.arange(4.0), np.arange(4.0), init=(1.0, 0.0))
    assert info.value.condition > 0 or math.isinf(info.value.condition)


def test_max_iter_flags_non_convergence():
    T, muH = gl_trace()
    # (xi, T_c) in units of the start (3 nm, 4 K), as fit_gl_hc2 fits them
    model = FitModel("gl", ("xi", "tc"),
                     lambda z, t: model_gl_hc2(t, 3e-9 * z[0], 4.0 * z[1]))
    res = nlls_fit(model, T, muH, init=(1.0, 1.0), max_iter=1)
    assert not res.converged
    assert "max iterations" in res.message


def test_singular_covariance_is_not_converged():
    # b never enters the model: the fit of a is exact, but b has no variance
    model = FitModel("flat", ("a", "b"), lambda p, t: p[0] + 0.0 * p[1] * t)
    res = nlls_fit(model, np.arange(5.0), np.full(5, 2.0), init=(1.0, 1.0))
    assert res["a"] == pytest.approx(2.0, rel=1e-12)
    assert not res.converged
    assert res.message == "covariance is not finite"


def test_jacobian_at_the_domain_edge_ends_the_fit_not_converged():
    # a * x with a > 0 fitted to y = -x: trials with a <= 0 are rejected,
    # and the accepted a approach 0 until a Jacobian step crosses it
    def positive_slope(p, t):
        if p[0] <= 0:
            raise ValueError("a must be positive")
        return p[0] * t

    x = np.linspace(1.0, 5.0, 10)
    res = nlls_fit(FitModel("pos", ("a",), positive_slope), x, -x, init=(1.0,))
    assert not res.converged
    assert res.message == "Jacobian step left the model's domain"
    assert 0.0 < res["a"] < 1e-6
    assert all(b < a for a, b in zip(res.cost_trace, res.cost_trace[1:]))


def stacked_analytic_gl(T, xi, tc):
    base = 1.0 - (T / tc) ** 2
    amp = CONSTANTS.flux_quantum / (2 * math.pi * xi ** 2)
    d_xi = -2.0 * amp / xi * base
    d_tc = amp * 2.0 * T ** 2 / tc ** 3
    return -np.stack([d_xi, d_tc], axis=1)  # residual is (y - model)


def test_numeric_jacobian_matches_analytic_gl():
    # (xi, T_c) in units of a start at (7 nm, 3 K), at the point (6 nm, 3.4 K)
    T, muH = gl_trace()
    unit = np.array([7e-9, 3.0])
    p = np.array([6e-9, 3.4])

    def residual(z):
        return _stack_residual(muH, model_gl_hc2(T, *(unit * z)))

    J = _numeric_jacobian(residual, p / unit, T.size)
    assert_allclose(J, stacked_analytic_gl(T, *p) * unit, rtol=1e-4)


def inv_s21_gradient(f, qi, qc, phi, f0):
    """Analytic d S21^-1 / d(Q_i, Q_c*, phi, f0), one complex column each."""
    B = qi / qc
    D = 1.0 + 2j * qi * (f - f0) / f0
    e = np.exp(1j * phi)
    return np.stack([e * (1.0 / (qc * D) - B * (2j * (f - f0) / f0) / D ** 2),
                     -B / qc * e / D,
                     1j * B * e / D,
                     B * e * 2j * qi * f / (f0 ** 2 * D ** 2)], axis=1)


def test_numeric_jacobian_matches_analytic_resonance():
    # fit_resonance's coordinates: Q_i and Q_c* in units of their seeds, and
    # f0 as a detuning from the seed in the seed's linewidths, so the step
    # stays far inside the linewidth at a high Q
    qi, qc, phi, f0 = 2.7e5, 1e5, 0.1, 6e9
    seed = np.array([2.5e5, 1.2e5, 0.0, 6e9 + 1e4])
    unit = np.array([seed[0], seed[1], 1.0, seed[3] / seed[0]])
    offset = np.array([0.0, 0.0, 0.0, seed[3]])
    f = np.linspace(f0 - 5 * f0 / qi, f0 + 5 * f0 / qi, 9)
    y = model_inv_s21(f, qi, qc, phi, f0)

    def residual(z):
        return _stack_residual(y, model_inv_s21(f, *(offset + unit * z)))

    G = inv_s21_gradient(f, qi, qc, phi, f0) * unit
    analytic = -np.concatenate([G.real, G.imag])
    z = (np.array([qi, qc, phi, f0]) - offset) / unit
    J = _numeric_jacobian(residual, z, 2 * f.size)
    assert_allclose(J, analytic, rtol=1e-4, atol=1e-18)


def plain_central_fd(residual, p, m):
    # a step ten times the engine's, so the check does not repeat its code
    J = np.empty((m, p.size))
    for j in range(p.size):
        delta = 1e-5
        hi, lo = p.copy(), p.copy()
        hi[j] += delta
        lo[j] -= delta
        J[:, j] = (residual(hi) - residual(lo)) / (2 * delta)
    return J


# fit_resonance's coordinates for seeds (Q_i, Q_c*, f0) = (2.5e5, 1.2e5, 6.00001e9)
S21_OFFSET = np.array([0.0, 0.0, 0.0, 6.00001e9])
S21_UNIT = np.array([2.5e5, 1.2e5, 1.0, 6.00001e9 / 2.5e5])
F_S21 = np.linspace(6e9 - 1e5, 6e9 + 1e5, 9)


# every model in the coordinates of order one that its fit driver uses
@pytest.mark.parametrize("model,x,y,p", [
    (LINE, np.arange(6.0), 2 * np.arange(6.0) + 1, np.array([1.5, 0.5])),
    (FitModel("gl", ("xi", "tc"), lambda z, t: model_gl_hc2(t, XI * z[0], TC * z[1])),
     np.linspace(0.1, 3.0, 12), model_gl_hc2(np.linspace(0.1, 3.0, 12), XI, TC),
     np.array([6e-9 / XI, 3.4 / TC])),
    (FitModel("pl", ("h0", "a", "b"),
              lambda p, t: model_powerlaw_hc2(t, p[0], p[1], p[2], TC)),
     np.linspace(0.1, 3.0, 12),
     model_powerlaw_hc2(np.linspace(0.1, 3.0, 12), 2.5, 3.6, 1.1, TC),
     np.array([2.0, 3.0, 1.0])),
    (FitModel("res", ("qi", "qc", "phi", "f0"),
              lambda z, t: model_inv_s21(t, *(S21_OFFSET + S21_UNIT * z))),
     F_S21, model_inv_s21(F_S21, 2.7e5, 1e5, 0.1, 6e9),
     np.array([1.0, 1.0, 0.05, 0.0])),
])
def test_engine_jacobian_is_central_difference(model, x, y, p):
    def residual(q):
        return _stack_residual(y, model.fn(q, x))

    m = residual(p).size
    assert_allclose(_numeric_jacobian(residual, p.copy(), m),
                    plain_central_fd(residual, p, m), rtol=1e-4, atol=1e-30)


def test_conductivity_regimes_exact():
    T = np.arange(5.0, 305.0, 5.0)
    sigma = 2.0 + 0.5 * T
    reg = fit_conductivity_regimes(T, sigma)
    assert reg.high_T.slope == 0.5
    assert reg.high_T.r_squared == 1.0

    sigma_sqrt = 1.0 + 3.0 * np.sqrt(T)
    reg = fit_conductivity_regimes(T, sigma_sqrt)
    assert_allclose(reg.low_T.slope, 3.0, rtol=1e-12)
    assert reg.low_T.r_squared == 1.0


def test_conductivity_regimes_with_noise():
    rng = np.random.default_rng(8)
    T = np.arange(5.0, 305.0, 2.0)
    sigma = (40.0 + 0.12 * T) * (1 + 0.001 * rng.standard_normal(T.size))
    reg = fit_conductivity_regimes(T, sigma)
    assert reg.high_T.r_squared >= 0.997
    sigma2 = (10.0 + 4.0 * np.sqrt(T)) * (1 + 0.001 * rng.standard_normal(T.size))
    reg2 = fit_conductivity_regimes(T, sigma2)
    assert reg2.low_T.r_squared >= 0.997


def test_conductivity_regimes_window_guard():
    T = np.array([150.0, 200.0, 250.0, 300.0])
    with pytest.raises(ValueError):
        fit_conductivity_regimes(T, np.ones(4))


def test_xy_and_s21_csv_readers(tmp_path):
    p = tmp_path / "hc2.csv"
    p.write_text("T_K,muH_T\n0.5,3.0\n1.0,2.5\n")
    T, H = read_xy_csv(p, ("T_K", "muH_T"))
    assert T.tolist() == [0.5, 1.0] and H.tolist() == [3.0, 2.5]
    with pytest.raises(DataFormatError):
        read_xy_csv(p, ("T_K", "sigma"))

    s = tmp_path / "s21.csv"
    s.write_text("f_Hz,re_S21,im_S21\n6e9,0.5,-0.25\n")
    f, s21 = read_s21_csv(s)
    assert f[0] == 6e9 and s21[0] == 0.5 - 0.25j
    bad = tmp_path / "bad.csv"
    bad.write_text("f_Hz,re_S21,im_S21\n6e9,x,0\n")
    with pytest.raises(DataFormatError):
        read_s21_csv(bad)


def test_fit_reports(tmp_path):
    x = np.arange(8.0)
    res = nlls_fit(LINE, x, 2 * x + 1, init=(2.0, 1.0))
    text = fit_report_text(res)
    assert "model: line" in text and "R^2" in text

    path = tmp_path / "fit.csv"
    write_fit_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "parameter,value,uncertainty"
    assert lines[1].startswith("a,2.0,")
    assert any(ln.startswith("r_squared,1.0") for ln in lines)
    assert lines[-1] == "converged,1,"
