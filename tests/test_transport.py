import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinodalkit.fields import DataFormatError
from spinodalkit.transport import (CONSTANTS, TransportRecord, bcs_gap,
                                   derive_transport, free_electron_params,
                                   hall_carrier_density, hall_slope_ols,
                                   read_rt_csv, read_transport_csv,
                                   sheet_inductance_from_lambda,
                                   sheet_kinetic_inductance,
                                   specific_inductance, tc_midpoint,
                                   write_transport_report_csv)

# measured inputs for the two reference films
TAN = dict(d=100e-9, R_s=132.3, T_c=3.2, slope=3.90e-3)
TIN = dict(d=98e-9, R_s=8.5, T_c=3.8, n_e=4.46e28)


def test_hall_carrier_density():
    n_e = hall_carrier_density(TAN["slope"], TAN["d"])
    assert_allclose(n_e, 1.6004e28, rtol=1e-4)
    assert abs(n_e - 1.60e28) / 1.60e28 < 0.005
    assert_allclose(hall_carrier_density(TAN["slope"], 2 * TAN["d"]),
                    n_e / 2.0, rtol=1e-14)


def test_hall_slope_inversion():
    slope = 1.0 / (TIN["n_e"] * CONSTANTS.e * TIN["d"])
    assert_allclose(slope, 1.42800e-3, rtol=1e-5)
    assert_allclose(hall_carrier_density(slope, TIN["d"]), TIN["n_e"],
                    rtol=1e-12)


def test_hall_input_validation():
    with pytest.raises(ValueError):
        hall_carrier_density(-1e-3, 100e-9)
    with pytest.raises(ValueError):
        hall_carrier_density(1e-3, 0.0)


def test_hall_slope_ols():
    h = np.linspace(-2.0, 2.0, 21)
    slope, offset = hall_slope_ols(h, 3.9e-3 * h + 1.7e-4)
    assert_allclose(slope, 3.9e-3, rtol=1e-12)
    assert_allclose(offset, 1.7e-4, rtol=1e-10)
    with pytest.raises(ValueError):
        hall_slope_ols(np.ones(5), np.arange(5.0))
    with pytest.raises(ValueError):
        hall_slope_ols(np.array([1.0]), np.array([2.0]))


def test_free_electron_extraction_tan():
    fep = free_electron_params(1.60e28, TAN["R_s"], TAN["d"])
    assert_allclose(fep.k_F, 7.7956e9, rtol=1e-4)
    assert_allclose(fep.l, 1.513e-10, rtol=1e-3)
    assert_allclose(fep.kF_l, 1.179, rtol=1e-3)
    # self-consistent values sit within 35% of the published 0.18 nm / 1.38
    assert abs(fep.l - 0.18e-9) / 0.18e-9 < 0.35
    assert abs(fep.kF_l - 1.38) / 1.38 < 0.35


def test_free_electron_extraction_tin():
    fep = free_electron_params(TIN["n_e"], TIN["R_s"], TIN["d"])
    assert_allclose(fep.l, 1.2132e-9, rtol=1e-3)
    assert_allclose(fep.kF_l, 13.31, rtol=1e-3)
    assert abs(fep.l - 1.33e-9) / 1.33e-9 < 0.15
    assert abs(fep.kF_l - 14.6) / 14.6 < 0.15


def test_free_electron_internal_identities():
    fep = free_electron_params(2.3e28, 50.0, 75e-9)
    assert fep.l == fep.v_F * fep.tau
    assert fep.kF_l == fep.k_F * fep.l
    assert fep.rho_xx == 50.0 * 75e-9
    assert_allclose(fep.k_F, (3 * math.pi ** 2 * 2.3e28) ** (1 / 3), rtol=1e-14)
    for bad in [(0.0, 50.0, 75e-9), (2.3e28, -50.0, 75e-9), (2.3e28, 50.0, 0.0)]:
        with pytest.raises(ValueError):
            free_electron_params(*bad)


def test_free_electron_depends_on_rho_only_through_product():
    a = free_electron_params(2.3e28, 50.0, 75e-9)
    b = free_electron_params(2.3e28, 500.0, 7.5e-9)
    assert_allclose(a.tau, b.tau, rtol=1e-14)
    assert_allclose(a.kF_l, b.kF_l, rtol=1e-14)


def test_slope_round_trip():
    n_e = hall_carrier_density(TAN["slope"], TAN["d"])
    recovered = 1.0 / (n_e * CONSTANTS.e * TAN["d"])
    assert_allclose(recovered, TAN["slope"], rtol=1e-12)


def test_bcs_gap():
    assert_allclose(bcs_gap(3.2), 7.7935e-23, rtol=1e-4)
    assert bcs_gap(0.0) == 0.0
    assert_allclose(bcs_gap(6.4), 2 * bcs_gap(3.2), rtol=1e-14)
    with pytest.raises(ValueError):
        bcs_gap(-1.0)


def test_kinetic_inductance_reference_films():
    lk_tan = sheet_kinetic_inductance(TAN["R_s"], TAN["T_c"])
    assert abs(lk_tan - 57e-12) / 57e-12 < 0.01
    lk_tin = sheet_kinetic_inductance(TIN["R_s"], TIN["T_c"])
    assert abs(lk_tin - 3e-12) / 3e-12 < 0.05


def test_kinetic_inductance_homogeneity():
    base = sheet_kinetic_inductance(100.0, 3.0)
    assert_allclose(sheet_kinetic_inductance(700.0, 3.0), 7 * base, rtol=1e-14)
    assert_allclose(sheet_kinetic_inductance(100.0, 6.0), base / 2, rtol=1e-14)
    for bad in [(0.0, 3.0), (100.0, 0.0)]:
        with pytest.raises(ValueError):
            sheet_kinetic_inductance(*bad)


def test_specific_inductance():
    assert abs(specific_inductance(57.4e-12, 100e-9) - 5.7e-18) / 5.7e-18 < 0.01
    with pytest.raises(ValueError):
        specific_inductance(-1.0, 1e-9)


def test_sheet_inductance_thin_film_limit():
    lam = 750e-9
    t = 1e-3 * lam
    product = sheet_inductance_from_lambda(lam, t) * t
    assert abs(product - CONSTANTS.mu_0 * lam ** 2) / (CONSTANTS.mu_0 * lam ** 2) < 1e-4
    t2 = 2 * lam
    product2 = sheet_inductance_from_lambda(lam, t2) * t2
    coth1 = 1.3130352854993315
    assert_allclose(product2, coth1 * CONSTANTS.mu_0 * lam ** 2, rtol=1e-12)
    for bad in [(0.0, t), (lam, -t)]:
        with pytest.raises(ValueError):
            sheet_inductance_from_lambda(*bad)


def test_tc_midpoint_tanh_step():
    T = np.arange(2.8, 3.6, 0.002)
    R = 40.0 * (1 + np.tanh((T - 3.2) / 0.05)) / 2
    assert abs(tc_midpoint(T, R) - 3.2) < 1e-3


def test_tc_midpoint_linear_ramp():
    ramp_T = np.linspace(3.0, 3.4, 81)
    flat_T = np.linspace(3.405, 4.0, 120)
    T = np.concatenate([ramp_T, flat_T])
    R = np.concatenate([np.linspace(0.0, 40.0, 81), np.full(120, 40.0)])
    assert_allclose(tc_midpoint(T, R), 3.2, rtol=0, atol=1e-12)
    # uniform rescaling of the resistance axis changes nothing
    assert_allclose(tc_midpoint(T, 7.3 * R), 3.2, rtol=0, atol=1e-12)


def test_tc_midpoint_errors():
    T = np.linspace(2.0, 4.0, 50)
    with pytest.raises(ValueError):
        tc_midpoint(T, np.full(50, 12.0))
    with pytest.raises(ValueError):
        tc_midpoint(T[::-1], np.linspace(0, 1, 50))
    with pytest.raises(ValueError):
        tc_midpoint(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_record_validation():
    with pytest.raises(ValueError):
        TransportRecord(label="x", d=-1e-9, R_s=10.0, T_c=3.0, hall_slope=1e-3)
    with pytest.raises(ValueError):
        TransportRecord(label="x", d=1e-9, R_s=0.0, T_c=3.0, hall_slope=1e-3)
    with pytest.raises(ValueError):
        TransportRecord(label="x", d=1e-9, R_s=10.0, T_c=-1.0, hall_slope=1e-3)


def test_derive_transport_composes():
    rec = TransportRecord(label="tan", d=TAN["d"], R_s=TAN["R_s"],
                          T_c=TAN["T_c"], hall_slope=TAN["slope"])
    d = derive_transport(rec)
    assert_allclose(d.electrons.n_e, 1.6004e28, rtol=1e-4)
    assert d.gap == bcs_gap(TAN["T_c"])
    assert d.L_k == sheet_kinetic_inductance(TAN["R_s"], TAN["T_c"])


def test_transport_csv_round_trip(tmp_path):
    src = tmp_path / "films.csv"
    src.write_text("label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T\n"
                   "tan,1e-07,132.3,3.2,0.0039\n"
                   "tin,9.8e-08,8.5,3.8,0.001428\n")
    records = read_transport_csv(src)
    assert [r.label for r in records] == ["tan", "tin"]
    assert records[0].d == 1e-7 and records[1].T_c == 3.8

    out = tmp_path / "report.csv"
    write_transport_report_csv(out, [derive_transport(r) for r in records])
    lines = out.read_text().splitlines()
    assert lines[0] == "label,d_m,Tc_K,Rs_ohm_sq,n_e_m3,Lk_H_sq,l_m,kF_l"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "tan"
    assert_allclose(float(first[5]), 56.98e-12, rtol=1e-3)


def test_transport_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("label,thickness\nx,1\n")
    with pytest.raises(DataFormatError):
        read_transport_csv(bad_header)
    bad_row = tmp_path / "b.csv"
    bad_row.write_text("label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T\n"
                       "tan,oops,132.3,3.2,0.0039\n")
    with pytest.raises(DataFormatError, match="b.csv:2"):
        read_transport_csv(bad_row)
    empty = tmp_path / "c.csv"
    empty.write_text("label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T\n")
    with pytest.raises(DataFormatError):
        read_transport_csv(empty)


def test_rt_csv(tmp_path):
    p = tmp_path / "rt.csv"
    p.write_text("T_K,R_ohm\n2.0,0.0\n3.0,20.0\n4.0,40.0\n")
    T, R = read_rt_csv(p)
    assert T.tolist() == [2.0, 3.0, 4.0]
    assert R.tolist() == [0.0, 20.0, 40.0]
    bad = tmp_path / "bad.csv"
    bad.write_text("T_K,R_ohm\n2.0\n")
    with pytest.raises(DataFormatError):
        read_rt_csv(bad)
