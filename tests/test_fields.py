import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinodalkit import fields, render
from spinodalkit.analysis import AnalysisRow, write_report_csv
from spinodalkit.fields import (DataFormatError, GridSpec, ScalarField2D,
                                _laplacian_values, gaussian_field,
                                read_snapshot_csv, write_snapshot_csv)
from spinodalkit.solver import DiagnosticsRecord, write_diagnostics_csv


def test_grid_spec_rejects_small_grids():
    with pytest.raises(ValueError):
        GridSpec(3, 8)
    with pytest.raises(ValueError):
        GridSpec(8, 2)


def test_grid_spec_rejects_nonpositive_spacing():
    with pytest.raises(ValueError):
        GridSpec(8, 8, h=0.0)
    with pytest.raises(ValueError):
        GridSpec(8, 8, h=-1.0)


def test_field_shape_must_match_grid():
    with pytest.raises(ValueError):
        ScalarField2D(GridSpec(8, 4), np.zeros((8, 4)))  # transposed


def test_field_rejects_non_finite_values():
    v = np.zeros((4, 4))
    v[2, 2] = np.nan
    with pytest.raises(ValueError):
        ScalarField2D(GridSpec(4, 4), v)


def test_gaussian_field_deterministic():
    spec = GridSpec(32, 32)
    a = gaussian_field(spec, 0.48, 1e-3, seed=5)
    b = gaussian_field(spec, 0.48, 1e-3, seed=5)
    assert np.array_equal(a.values, b.values)
    c = gaussian_field(spec, 0.48, 1e-3, seed=6)
    assert not np.array_equal(a.values, c.values)


def test_gaussian_field_zero_variance_is_exact():
    f = gaussian_field(GridSpec(16, 8), 0.5, 0.0, seed=7)
    assert np.array_equal(f.values, np.full((8, 16), 0.5))


def test_gaussian_field_sample_statistics():
    f = gaussian_field(GridSpec(256, 256), 0.48, 1e-3, seed=1)
    mean, var = f.values.mean(), f.values.var()
    assert abs(mean - 0.48) <= 4.0 * np.sqrt(1e-3 / 65536)
    assert abs(var - 1e-3) <= 0.1 * 1e-3


def test_gaussian_field_validates_inputs():
    spec = GridSpec(8, 8)
    with pytest.raises(ValueError):
        gaussian_field(spec, 0.5, -1e-3, seed=0)
    with pytest.raises(ValueError):
        gaussian_field(spec, 1.5, 1e-3, seed=0)
    for seed in (-1, 2 ** 64, 1.5):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            gaussian_field(spec, 0.5, 1e-3, seed)
    # numpy integers are seeds too
    assert (gaussian_field(spec, 0.5, 1e-3, np.uint64(2 ** 64 - 1)).values
            == gaussian_field(spec, 0.5, 1e-3, 2 ** 64 - 1).values).all()


def wrap_rows(v):
    """v with its last row above it and its first below: the halo rows
    that make `_laplacian_values` periodic in rows too."""
    return np.pad(v, ((1, 1), (0, 0)), mode="wrap")


def laplacian(v, h=1.0):
    return _laplacian_values(wrap_rows(v), h, np.empty(v.shape), np.empty(v.shape),
                             np.empty((v.shape[0], 2)))


def test_laplacian_of_constant_is_zero():
    assert np.array_equal(laplacian(np.full((8, 8), 3.7)), np.zeros((8, 8)))


def test_laplacian_impulse_stencil():
    v = np.zeros((8, 8))
    v[3, 5] = 1.0
    out = laplacian(v)
    expected = np.zeros((8, 8))
    expected[3, 5] = -4.0
    expected[2, 5] = expected[4, 5] = expected[3, 4] = expected[3, 6] = 1.0
    assert np.array_equal(out, expected)


def test_laplacian_impulse_wraps_periodically():
    v = np.zeros((4, 4))
    v[0, 0] = 1.0
    out = laplacian(v)
    assert out[0, 0] == -4.0
    assert out[3, 0] == 1.0 and out[1, 0] == 1.0
    assert out[0, 3] == 1.0 and out[0, 1] == 1.0


@pytest.mark.parametrize("h", [1.0, 0.5, 2.0])
def test_laplacian_cosine_eigenfield(h):
    nx, ny = 32, 16
    i = np.arange(nx)
    v = np.tile(np.cos(2 * np.pi * i / nx), (ny, 1))
    eig = -(2.0 - 2.0 * np.cos(2 * np.pi / nx)) / h**2
    assert_allclose(laplacian(v, h), eig * v, rtol=0, atol=1e-13)


def test_laplacian_translation_equivariance():
    rng = np.random.default_rng(2)
    v = rng.random((16, 16))
    a = np.roll(laplacian(v), (3, -5), axis=(0, 1))
    b = laplacian(np.roll(v, (3, -5), axis=(0, 1)))
    assert np.array_equal(a, b)


def test_laplacian_sums_to_zero_on_torus():
    rng = np.random.default_rng(3)
    v = rng.random((32, 32))
    out = laplacian(v)
    assert abs(out.sum()) <= 1e-10 * v.size * np.abs(v).max()


def _roll_laplacian(v, h):
    """The np.roll formula, summed in the order the solver's results pin."""
    out = np.roll(v, 1, axis=0)
    out += np.roll(v, -1, axis=0)
    out += np.roll(v, 1, axis=1)
    out += np.roll(v, -1, axis=1)
    out -= 4.0 * v
    if h != 1.0:
        out /= h * h
    return out


def _mixed_magnitudes(shape):
    rng = np.random.default_rng(8)
    # mixed magnitudes make any change in summation order show in the bits
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)


ROLL_CASES = pytest.mark.parametrize("shape", [(4, 4), (5, 7), (7, 5), (24, 32)],
                                     ids=["4x4", "5x7", "7x5", "24x32"])


@pytest.mark.parametrize("h", [1.0, 1.3])
@ROLL_CASES
def test_laplacian_is_bit_identical_to_roll_formula(shape, h):
    v = _mixed_magnitudes(shape)
    out = laplacian(v, h)
    assert out.tobytes() == _roll_laplacian(v, h).tobytes()


@pytest.mark.parametrize("h", [1.0, 1.3])
@ROLL_CASES
def test_laplacian_scratch_may_alias_input(shape, h):
    v = _mixed_magnitudes(shape)
    w = wrap_rows(v)
    out = _laplacian_values(w, h, np.empty(shape), w[1:-1], np.empty((shape[0], 2)))
    assert out.tobytes() == laplacian(v, h).tobytes() == _roll_laplacian(v, h).tobytes()
    assert w[1:-1].tobytes() == (4.0 * v).tobytes()


def test_snapshot_csv_round_trip_is_byte_identical(tmp_path):
    f = gaussian_field(GridSpec(16, 8, h=0.5), 0.48, 1e-3, seed=4)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_snapshot_csv(f, p1)
    g = read_snapshot_csv(p1)
    assert g.spec == f.spec
    assert np.array_equal(g.values, f.values)
    write_snapshot_csv(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_csv_bytes_match_per_element_repr(tmp_path):
    awkward = [-0.0, 5e-324, 0.1, 1 / 3, 1e16, -2.5e-300]
    v = np.array(awkward * 4).reshape(4, 6)
    p = tmp_path / "snap.csv"
    write_snapshot_csv(ScalarField2D(GridSpec(6, 4, h=0.1), v), p)
    expected = "6,4,0.1\n" + "".join(
        ",".join(repr(float(x)) for x in row) + "\n" for row in v)
    assert p.read_bytes() == expected.encode("ascii")
    assert "-0.0,5e-324,0.1,0.3333333333333333,1e+16,-2.5e-300" in p.read_text()


def test_snapshot_csv_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("4,4\n")
    with pytest.raises(DataFormatError):
        read_snapshot_csv(p)
    p.write_text("4,4,1.0\n0,0,0,0\n0,0,0,0\n")
    with pytest.raises(DataFormatError):
        read_snapshot_csv(p)  # truncated rows
    p.write_text("4,4,1.0\n" + "0,0,0\n" * 4)
    with pytest.raises(DataFormatError):
        read_snapshot_csv(p)  # short rows
    p.write_text("4,4,1.0\n" + "0,0,0,0\n" * 5)
    with pytest.raises(DataFormatError, match="expected 4 rows of 4 values, got 5 rows"):
        read_snapshot_csv(p)  # extra rows


def test_snapshot_csv_reads_every_value_exactly(tmp_path):
    # -0.0, subnormals and 17-digit values parse to the doubles float() gives
    awkward = ["-0.0", "5e-324", "0.1", "0.3333333333333333", "1e+16",
               "-2.5e-300", "2.2250738585072014e-308", "0.30000000000000004"]
    p = tmp_path / "snap.csv"
    p.write_text("4,4,1.0\n" + "".join(",".join(awkward[i:i + 4]) + "\n"
                                        for i in (0, 4, 0, 4)) + "\n")
    v = read_snapshot_csv(p).values
    want = np.array([float(x) for x in awkward * 2]).reshape(4, 4)
    assert v.tobytes() == want.tobytes()


def _edge_values(rng):
    """Values at the edges of the snapshot formatter's arithmetic, with
    their negatives: decimals of 1-17 digits in each decade from 1e-4 to
    1e15 and their float neighbours, every power of two and its neighbours,
    signed zeros, subnormals, and both ends of the range the formatter
    decides itself."""
    vals = [0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308]
    for e in range(-4, 16):
        for digits in range(1, 18):
            for m in rng.integers(10 ** (digits - 1), 10 ** digits, size=4):
                vals.append(float(f"{m}e{e - digits + 1}"))
    vals += [2.0 ** k for k in range(-1074, 1024)]
    vals += [1e-4, 1e-3, 0.1, 1.0, 1e15, 1e16]
    vals += list((rng.integers(1, 2 ** 52, size=64, dtype=np.uint64)).view(np.float64))
    v = np.array(vals)
    with np.errstate(over="ignore"):  # the neighbour of the largest double
        v = np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])
    v = v[np.isfinite(v)]
    return np.concatenate([v, -v])


def _random_values(rng, n):
    """n finite doubles: half raw 64-bit patterns, across all binades, and
    half with exponents that keep them in [2**-14, 2**50), about the range
    the snapshot formatter decides itself."""
    bits = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
    exponent = rng.integers(1023 - 14, 1023 + 50, size=n // 2, dtype=np.uint64)
    bits[:n // 2] = (bits[:n // 2] & np.uint64(0x800FFFFFFFFFFFFF)) | (exponent << np.uint64(52))
    v = bits.view(np.float64)
    return v[np.isfinite(v)]


def _check_snapshot_bytes(tmp_path, values, nx, h):
    values = values[:values.size - values.size % nx]
    f = ScalarField2D(GridSpec(nx, values.size // nx, h=h), values.reshape(-1, nx))
    p = tmp_path / f"snap_{nx}.csv"
    write_snapshot_csv(f, p)
    # the file by the format's definition, per-value repr, row by row
    with open(p, "rb") as fh:
        assert fh.readline() == f"{nx},{f.spec.ny},{h!r}\n".encode()
        for row in f.values:
            assert fh.readline() == f"{','.join(map(repr, row.tolist()))}\n".encode()
        assert fh.read() == b""


@pytest.mark.parametrize("nx", [4, 97, 1000])
def test_snapshot_bytes_are_repr_of_every_value(tmp_path, nx):
    # 2**18 values in all; nx = 97 and 1000 do not divide the formatter's
    # chunk, so chunks end mid-row
    rng = np.random.default_rng(nx)
    edge = _edge_values(rng)
    values = np.concatenate([edge, _random_values(rng, 2 ** 18 // 3 - edge.size)])
    _check_snapshot_bytes(tmp_path, rng.permutation(values), nx, h=0.1)


@pytest.mark.slow
def test_snapshot_bytes_are_repr_of_every_value_large(tmp_path):
    rng = np.random.default_rng(22)
    _check_snapshot_bytes(tmp_path, _random_values(rng, 2 ** 22), 2039, h=1.0)


def test_snapshot_write_memory_is_bounded(tmp_path):
    # the body is formatted chunk by chunk: a 1000^2 write (about 19 MB of
    # text) holds a few MB at most
    import tracemalloc
    f = gaussian_field(GridSpec(1000, 1000), 0.48, 1e-3, seed=4)
    tracemalloc.start()
    try:
        write_snapshot_csv(f, tmp_path / "snap.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()],
                         ids=["os_error", "interrupt"])
def test_failed_snapshot_write_leaves_no_partial_file(tmp_path, monkeypatch, exc):
    from spinodalkit import floattext
    f = gaussian_field(GridSpec(8, 8), 0.48, 1e-3, seed=2)
    g = gaussian_field(GridSpec(8, 8), 0.48, 1e-3, seed=3)
    format_cells = floattext._format_cells
    calls = []

    def failing_format(*args):  # the body's chunk formatter, failing halfway
        calls.append(args)
        if len(calls) == 3:
            raise exc
        return format_cells(*args)

    def inject():
        monkeypatch.setattr(floattext, "_CHUNK_CELLS", 16)  # 4 chunks of 16 cells
        monkeypatch.setattr(floattext, "_format_cells", failing_format)

    inject()
    with pytest.raises(type(exc)):
        write_snapshot_csv(f, tmp_path / "snap_t0.csv")
    assert len(calls) == 3
    assert list(tmp_path.iterdir()) == []
    # a failed rewrite keeps the complete file that was there
    monkeypatch.undo()
    write_snapshot_csv(g, tmp_path / "snap_t0.csv")
    before = (tmp_path / "snap_t0.csv").read_bytes()
    calls.clear()
    inject()
    with pytest.raises(type(exc)):
        write_snapshot_csv(f, tmp_path / "snap_t0.csv")
    assert [p.name for p in tmp_path.iterdir()] == ["snap_t0.csv"]
    assert (tmp_path / "snap_t0.csv").read_bytes() == before


# the writers besides the snapshot one, each called with a version number
# k that changes what it writes
WRITERS = {
    "report": lambda p, k: write_report_csv(p, [AnalysisRow(
        time=k, char_length=1.5, ti_fraction=0.5, n_clusters=3, largest_cluster=12,
        spans_x=True, spans_y=False, R_eff_x=1.0, R_eff_y=2.0)] * 4),
    "diagnostics": lambda p, k: write_diagnostics_csv(p, [DiagnosticsRecord(
        step=k, time=0.5, mass=0.48, free_energy=-1.0, min=0.0, max=1.0)] * 4),
    "ppm": lambda p, k: render.render_ppm(
        gaussian_field(GridSpec(8, 8), 0.5, 0.1, seed=k), p),
}


@pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()],
                         ids=["os_error", "interrupt"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_report_or_image_write_leaves_no_partial_file(tmp_path, monkeypatch, writer, exc):
    write, dest = WRITERS[writer], tmp_path / "out"
    whole = fields._write_whole

    def fail_after_first_chunk(path, chunks):
        def stream():
            it = iter(chunks)
            yield next(it)
            # the temporary file is open beside the destination
            assert f"out.{os.getpid()}.tmp" in [p.name for p in tmp_path.iterdir()]
            raise exc
        whole(path, stream())

    def failing():
        for module in (fields, render):
            monkeypatch.setattr(module, "_write_whole", fail_after_first_chunk)
    failing()
    with pytest.raises(type(exc)):
        write(dest, 1)
    assert list(tmp_path.iterdir()) == []
    # a failed rewrite keeps the complete file that was there
    monkeypatch.undo()
    write(dest, 2)
    before = dest.read_bytes()
    write(dest, 3)
    assert dest.read_bytes() != before
    write(dest, 2)
    failing()
    with pytest.raises(type(exc)):
        write(dest, 3)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert dest.read_bytes() == before
