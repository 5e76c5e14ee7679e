"""The shared table CSV reader and report writer, through every public
reader and writer built on them."""

import csv
import math

import numpy as np
import pytest

from spinodalkit import cli, fields, fitting
from spinodalkit.analysis import AnalysisRow, write_report_csv
from spinodalkit.fields import (DataFormatError, _table_columns, read_table_csv,
                                write_table_csv)
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


# The numeric readers parse with numpy's C reader and fall back to the row
# loop, which is the oracle: same bits, or the same error.
_R = np.random.default_rng(19)
_DOUBLES = [*(_R.standard_normal(4) * 10.0 ** _R.integers(-300, 300, 4)).tolist(), 1 / 3, 0.1]
VALUE_TEXTS = [
    *map(repr, _DOUBLES), *("%.17g" % v for v in _DOUBLES), *("%.3e" % v for v in _DOUBLES),
    "0", "7", "-12", "+3", " 1.5 ", "\t2\t", "-0.0", "5e-324", "2.2250738585072014e-308",
    "1e308", "-1.7976931348623157e308", ".5", "5.", "1E5",
]
ODD_TEXTS = ['"1.0"', '" 2"', "1_000", "", "nan", "inf", "-Infinity", "1e400",
             "\ufeff1", "1 2", "0x10", "#1", "\u0661"]
LINE_ENDS = ["\n", "\r\n", "\r"]
# corpus cases the C reader must finish alone
FAST_CASES = {"plain'\\n'", "plain'\\r\\n'", "plain'\\r'", "one_row", "no_final_line_end",
              "blank_lines"}


def _lines(rows, end="\n"):
    return "".join(",".join(row) + end for row in rows)


def _corpus(header):
    """(name, file text) pairs for a numeric table with `header`."""
    n = header.count(",") + 1
    plain = [VALUE_TEXTS[i:i + n] for i in range(0, len(VALUE_TEXTS) - n + 1, n)]
    row = plain[0]
    bodies = [(f"plain{end!r}", _lines(plain, end)) for end in LINE_ENDS]
    bodies += [
        ("one_row", _lines([row])),
        ("no_final_line_end", _lines(plain)[:-1]),
        ("blank_lines", "\n" + _lines(plain[:2], "\n\n") + "\r\n\r\n"),
        ("whitespace_line", _lines([row]) + "   \n" + _lines([row])),
        ("tab_line", _lines([row]) + "\t\r\n" + _lines([row])),
        ("trailing_comma", _lines([row]) + ",".join(row) + ",\n"),
        ("missing_field", _lines([row, row[:-1]])),
        ("extra_field", _lines([row, [*row, "1"]])),
        ("every_row_short", _lines([row[:-1]] * 3)),
        ("every_row_long", _lines([[*row, "1"]] * 3)),
        ("header_only", ""),
        ("blank_body", "\n\n"),
        ("multiline_quote", _lines([row]) + '"1\n2",' + ",".join(row[1:]) + "\n"),
    ]
    bodies += [(f"odd_{t!r}", _lines([row, [t, *row[1:]], row])) for t in ODD_TEXTS]
    bodies += [(f"odd_last_{t!r}", _lines([[*row[:-1], t]])) for t in ODD_TEXTS]
    # random mixes of the above, line ends and row lengths included
    rng = np.random.default_rng(7)
    pool = VALUE_TEXTS * 3 + ODD_TEXTS
    for k in range(150):
        lines = []
        for _ in range(rng.integers(1, 6)):
            width = n if rng.random() < 0.85 else int(rng.integers(1, n + 2))
            line = ",".join(pool[i] for i in rng.integers(0, len(pool), width))
            lines.append(line + LINE_ENDS[rng.integers(0, 3)])
            if rng.random() < 0.1:
                lines.append(["", " ", "\r\n"][rng.integers(0, 3)] + "\n")
        bodies.append((f"mix{k}", "".join(lines)))
    first = {"plain'\\r\\n'": "\r\n", "plain'\\r'": "\r"}
    cases = [(name, header + first.get(name, "\n") + body) for name, body in bodies]
    return [*cases, ("bom_before_header", "\ufeff" + header + "\n" + _lines([row]))]


NUMERIC_READERS = {
    "xy": ("T_K,muH_T", lambda p: read_xy_csv(p, ("T_K", "muH_T")), lambda c: (c[0], c[1])),
    "rt": ("T_K,R_ohm", read_rt_csv, lambda c: (c[0], c[1])),
    "s21": ("f_Hz,re_S21,im_S21", read_s21_csv, lambda c: (c[0], c[1] + 1j * c[2])),
    "one_column": ("x", lambda p: [_table_columns(p, "x")], lambda c: [c]),
}


def _outcome(call):
    """The arrays `call` returns, as (dtype, shape, bytes), or its error."""
    try:
        got = call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in got]


@pytest.mark.parametrize("reader", list(NUMERIC_READERS))
def test_numeric_readers_give_the_row_loops_result(tmp_path, monkeypatch, reader):
    header, read, columns = NUMERIC_READERS[reader]
    loop = fields.read_table_csv
    fallbacks = []
    monkeypatch.setattr(fields, "read_table_csv", lambda *a: fallbacks.append(1) or loop(*a))
    looped = set()
    p = tmp_path / "t.csv"
    for name, text in _corpus(header):
        p.write_text(text, encoding="utf-8", newline="")

        def oracle():
            return np.array(loop(p, header))
        before = len(fallbacks)
        assert _outcome(lambda: read(p)) == _outcome(lambda: columns(oracle().T.copy())), name
        if len(fallbacks) > before:
            looped.add(name)
        assert _outcome(lambda: [_table_columns(p, header)]) == _outcome(
            lambda: [oracle().T.copy()]), name
    assert not looped & FAST_CASES
    assert {"odd_'1_000'", "odd_'\"1.0\"'", "trailing_comma", "odd_last_'nan'"} <= looped
    assert 0 < len({name for name in looped if name.startswith("mix")}) < 150


@pytest.mark.parametrize("reader", list(NUMERIC_READERS))
def test_plain_numeric_trace_is_parsed_without_the_row_loop(tmp_path, monkeypatch, reader):
    header, read, columns = NUMERIC_READERS[reader]
    n = header.count(",") + 1
    p = tmp_path / "t.csv"
    values = np.random.default_rng(3).standard_normal((60, n))
    p.write_text(header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in values.tolist()))
    want = columns(values.T.copy())

    def no_loop(*args):
        raise AssertionError("the row loop ran on a plain trace")
    monkeypatch.setattr(fields, "read_table_csv", no_loop)
    assert [a.tobytes() for a in read(p)] == [b.tobytes() for b in want]
    p.write_text(header + "\n" + ",".join(["1_000"] * n) + "\n")
    with pytest.raises(AssertionError, match="row loop"):
        read(p)  # a form only float() reads goes to the loop


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


LABELS = ["tan", "tan, run 2", 'say "hi"', '"', "two\nlines", "cr\rlf", "TiAlN-\u03b1", ""]


def test_written_labels_read_back_unchanged(tmp_path):
    p = tmp_path / "t.csv"
    write_table_csv(p, "label,x", [(label, 1.0) for label in LABELS])
    assert read_table_csv(p, "label,x", text=1) == [(label, 1.0) for label in LABELS]
    # csv's minimal quoting: only labels holding a comma, quote or line
    # break are quoted, so every other label keeps its bytes
    lines = p.read_bytes().decode("utf-8").split("\n")
    assert lines[1:4] == ["tan,1.0", '"tan, run 2",1.0', '"say ""hi""",1.0']


def test_transport_report_keeps_awkward_labels(tmp_path):
    films = tmp_path / "films.csv"
    films.write_text("label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T\n" + "".join(
        '"' + label.replace('"', '""') + '",1e-07,132.3,3.2,0.0039\n'
        for label in LABELS), encoding="utf-8")
    assert cli.main(["transport", "--in", str(films), "--out", str(tmp_path)]) == 0
    report = tmp_path / "transport_report.csv"
    with open(report, encoding="utf-8", newline="") as fh:
        assert [len(row) for row in csv.reader(fh)] == [8] * (len(LABELS) + 1)
    header = "label,d_m,Tc_K,Rs_ohm_sq,n_e_m3,Lk_H_sq,l_m,kF_l"
    assert [r[0] for r in read_table_csv(report, header, text=1)] == LABELS


def test_failed_report_write_is_data_error_leaving_no_report(tmp_path, monkeypatch, capsys):
    films = tmp_path / "films.csv"
    films.write_text("label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T\n"
                     "tan,1e-07,132.3,3.2,0.0039\ntin,1e-07,8.5,3.8,0.0014\n")
    whole = fields._write_whole

    def disk_full_after_first_line(path, chunks):
        def stream():
            yield next(iter(chunks))
            raise OSError("No space left on device")
        whole(path, stream())
    monkeypatch.setattr(fields, "_write_whole", disk_full_after_first_line)
    out = tmp_path / "out"
    assert cli.main(["transport", "--in", str(films), "--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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
    monkeypatch.setattr(fitting, "fit_conductivity_regimes",
                        lambda T, s: ConductivityRegimes(hi, lo))
    trace = tmp_path / "sigma.csv"
    trace.write_text("T_K,sigma\n10,1\n")
    assert cli.main(["fit-sigma", "--in", str(trace), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "fit_sigma.csv").read_text() == (
        "window,abscissa,slope,intercept,r_squared\n"
        f"high_T,T,{pa!r},{pb!r},{pc!r}\n"
        f"low_T,sqrt_T,{pd!r},{pe!r},{pf!r}\n")
