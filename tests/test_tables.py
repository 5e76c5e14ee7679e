"""The shared table CSV reader and report writer, through every public
reader and writer built on them."""

import math

import numpy as np
import pytest

from spinodalkit import cli, fitting
from spinodalkit.analysis import AnalysisRow, write_report_csv
from spinodalkit.fields import DataFormatError, read_table_csv, write_table_csv
from spinodalkit.fitting import (ConductivityRegimes, FitResult, LinearFit,
                                 read_s21_csv, read_xy_csv, write_fit_csv)
from spinodalkit.solver import DiagnosticsRecord, write_diagnostics_csv
from spinodalkit.transport import (DerivedTransport, FreeElectronParams,
                                   TransportRecord, read_rt_csv,
                                   read_transport_csv,
                                   write_transport_report_csv)

READERS = {
    "xy": (lambda p: read_xy_csv(p, ("T_K", "muH_T")), "T_K,muH_T", "1.0,2.0"),
    "s21": (read_s21_csv, "f_Hz,re_S21,im_S21", "6e9,0.5,-0.25"),
    "rt": (read_rt_csv, "T_K,R_ohm", "2.0,40.0"),
    "transport": (read_transport_csv, "label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T",
                  "tan,1e-07,132.3,3.2,0.0039"),
}
FAULTS = {
    "extra_field": (lambda row: row + ",7", r"expected \d fields, got \d"),
    "missing_field": (lambda row: row.rsplit(",", 1)[0], r"expected \d fields, got \d"),
    "empty_field": (lambda row: row.rsplit(",", 1)[0] + ",", "could not convert"),
    "nan": (lambda row: row.rsplit(",", 1)[0] + ",nan", "must be finite, got nan"),
    "inf": (lambda row: row.rsplit(",", 1)[0] + ",inf", "must be finite, got inf"),
    "minus_inf": (lambda row: row.rsplit(",", 1)[0] + ",-Infinity", "must be finite, got -inf"),
}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("reader", list(READERS))
def test_reader_rejects_malformed_row_naming_its_line(tmp_path, reader, fault):
    read, header, row = READERS[reader]
    change, message = FAULTS[fault]
    p = tmp_path / "t.csv"
    p.write_text(f"{header}\n{row}\n{change(row)}\n")
    with pytest.raises(DataFormatError, match=rf"t\.csv:3: .*{message}"):
        read(p)


@pytest.mark.parametrize("reader", list(READERS))
def test_reader_skips_blank_lines_and_counts_them(tmp_path, reader):
    read, header, row = READERS[reader]
    p = tmp_path / "t.csv"
    p.write_text(f"{header}\n\n{row}\n\n\n{row}\n\n")
    once = tmp_path / "once.csv"
    once.write_text(f"{header}\n{row}\n{row}\n")
    got, want = read(p), read(once)
    if reader == "transport":
        assert got == want and len(got) == 2
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert len(got[0]) == 2
    p.write_text(f"{header}\n\n{row}\n\n{row},1\n")
    with pytest.raises(DataFormatError, match=r"t\.csv:5: "):
        read(p)


@pytest.mark.parametrize("reader", list(READERS))
def test_reader_rejects_bad_header_and_empty_body(tmp_path, reader):
    read, header, row = READERS[reader]
    p = tmp_path / "t.csv"
    for text in ("", f"{header},extra\n{row}\n", f"\n{header}\n{row}\n"):
        p.write_text(text)
        with pytest.raises(DataFormatError, match="expected header"):
            read(p)
    p.write_text(f" {header.replace(',', ' , ')} \n{row}\n")
    read(p)  # spaces around header names are ignored
    p.write_text(f"{header}\n\n\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        read(p)


def test_read_table_csv_columns_and_records(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text('name,x,y\n" a ", 1e-3 ,2\n"b,c",0.1,-0.0\n')
    assert read_table_csv(p, "name,x,y", text=1) == [("a", 1e-3, 2.0), ("b,c", 0.1, -0.0)]
    assert read_table_csv(p, "name,x,y", text=1, record=lambda n, x, y: n) == ["a", "b,c"]

    def positive(name, x, y):
        if y <= 0:
            raise ValueError(f"{name}: y must be positive, got {y}")
    with pytest.raises(DataFormatError, match=r"t\.csv:3: b,c: y must be positive"):
        read_table_csv(p, "name,x,y", text=1, record=positive)
    with pytest.raises(DataFormatError, match=r"t\.csv:2: could not convert"):
        read_table_csv(p, "name,x,y")  # every field numeric


def test_transport_record_faults_name_the_line(tmp_path):
    p = tmp_path / "films.csv"
    p.write_text("label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T\n"
                 "tan,1e-07,132.3,3.2,0.0039\ntin,-1e-07,8.5,3.8,0.0014\n")
    with pytest.raises(DataFormatError, match=r"films\.csv:3: tin: thickness must be positive"):
        read_transport_csv(p)


# values that print differently under naive formatting: signed zero, the
# smallest subnormal, exponent forms and a numpy scalar
AWKWARD = [-0.0, 5e-324, 1e16, 1e-05, 0.1, np.float64(0.5)]


def _plain(values):
    return [float(v) for v in values]


def test_write_table_csv_formats_each_type(tmp_path):
    p = tmp_path / "t.csv"
    write_table_csv(p, "a,b,c,d,e,f,g,h,i,j,k", [
        ["label", True, False, np.bool_(True), 7, np.int64(-3), *AWKWARD[:4], AWKWARD[5]],
        ["", "", "", "", 0, 0, 0.0, 0.0, 0.0, 0.0, np.float32(0.25)]])
    assert p.read_bytes() == (b"a,b,c,d,e,f,g,h,i,j,k\n"
                              b"label,1,0,1,7,-3,-0.0,5e-324,1e+16,1e-05,0.5\n"
                              b",,,,0,0,0.0,0.0,0.0,0.0,0.25\n")


def test_writers_match_their_former_f_strings(tmp_path, monkeypatch):
    # each reference below is the per-format f-string its writer used before
    # the shared table writer; numpy scalars are given to it as floats
    a, b, c, d, e, f = AWKWARD
    pa, pb, pc, pd, pe, pf = _plain(AWKWARD)

    row = AnalysisRow(time=a, char_length=b, ti_fraction=c, n_clusters=3,
                      largest_cluster=np.int64(12), spans_x=True, spans_y=False,
                      R_eff_x=e, R_eff_y=f)
    write_report_csv(tmp_path / "report.csv", [row, row])
    line = f"{pa!r},{pb!r},{pc!r},{3},{12},{int(True)},{int(False)},{pe!r},{pf!r}\n"
    assert (tmp_path / "report.csv").read_text() == (
        "time,char_length,ti_fraction,n_clusters,largest_cluster,"
        "spans_x,spans_y,R_eff_x,R_eff_y\n" + line * 2)

    rec = DiagnosticsRecord(step=40, time=d, mass=f, free_energy=a, min=b, max=c)
    write_diagnostics_csv(tmp_path / "diag.csv", [rec])
    assert (tmp_path / "diag.csv").read_text() == (
        "step,time,mass,free_energy,min,max\n"
        f"{40},{pd!r},{pf!r},{pa!r},{pb!r},{pc!r}\n")

    film = TransportRecord(label="tial_a", d=b, R_s=c, T_c=a, hall_slope=e)
    elec = FreeElectronParams(n_e=d, k_F=1.0, v_F=1.0, tau=1.0, l=f, kF_l=e, rho_xx=1.0)
    write_transport_report_csv(tmp_path / "films.csv",
                               [DerivedTransport(film, elec, gap=1.0, L_k=a)])
    assert (tmp_path / "films.csv").read_text() == (
        "label,d_m,Tc_K,Rs_ohm_sq,n_e_m3,Lk_H_sq,l_m,kF_l\n"
        f"tial_a,{pb!r},{pa!r},{pc!r},{pd!r},{pa!r},{pf!r},{pe!r}\n")

    cov = np.diag([a, -e, f]) ** 2
    fit = FitResult("m", ("p0", "p1", "p2"), np.array([a, b, c]), cov, ss_res=f,
                    r_squared=d, n_iter=3, converged=True, cost_trace=())
    write_fit_csv(tmp_path / "fit.csv", fit)
    ref = "parameter,value,uncertainty\n"
    for i, name in enumerate(fit.param_names):
        ref += f"{name},{float(fit.params[i])!r},{math.sqrt(abs(cov[i, i]))!r}\n"
    ref += f"r_squared,{pd!r},\nss_res,{pf!r},\nconverged,{int(True)},\n"
    assert (tmp_path / "fit.csv").read_text() == ref

    hi, lo = LinearFit(a, b, c), LinearFit(d, e, f)
    monkeypatch.setattr(fitting, "fit_conductivity_regimes", lambda T, s: ConductivityRegimes(
        hi, lo, (100.0, 300.0), (10.0, 60.0)))
    trace = tmp_path / "sigma.csv"
    trace.write_text("T_K,sigma\n10,1\n")
    assert cli.main(["fit-sigma", "--in", str(trace), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "fit_sigma.csv").read_text() == (
        "window,abscissa,slope,intercept,r_squared\n"
        f"high_T,T,{pa!r},{pb!r},{pc!r}\n"
        f"low_T,sqrt_T,{pd!r},{pe!r},{pf!r}\n")
