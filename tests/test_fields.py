import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinodalkit.fields import (DataFormatError, GridSpec, ScalarField2D,
                                _laplacian_values, _uniform_stream, field_stats,
                                gaussian_field, read_snapshot_csv,
                                write_snapshot_csv)


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
    mean, var, _, _ = field_stats(f)
    assert abs(mean - 0.48) <= 4.0 * np.sqrt(1e-3 / 65536)
    assert abs(var - 1e-3) <= 0.1 * 1e-3


def test_gaussian_field_validates_inputs():
    spec = GridSpec(8, 8)
    with pytest.raises(ValueError):
        gaussian_field(spec, 0.5, -1e-3, seed=0)
    with pytest.raises(ValueError):
        gaussian_field(spec, 1.5, 1e-3, seed=0)


def test_uniform_stream_is_chunking_independent():
    # per-cell values are a pure function of (seed, index): any split of the
    # index range reproduces the same stream, so a parallel fill is
    # deterministic regardless of worker boundaries
    full = _uniform_stream(9, 0, 101)
    parts = np.concatenate([
        _uniform_stream(9, 0, 17),
        _uniform_stream(9, 17, 40),
        _uniform_stream(9, 57, 44),
    ])
    assert np.array_equal(full, parts)
    for k in (0, 1, 3, 4, 63, 100):
        assert _uniform_stream(9, k, 1)[0] == full[k]


def laplacian(v, h=1.0):
    return _laplacian_values(v, h, np.empty(v.shape), np.empty(v.shape))


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


@pytest.mark.parametrize("h", [1.0, 1.3])
@pytest.mark.parametrize("shape", [(4, 4), (5, 7), (7, 5), (24, 32)],
                         ids=["4x4", "5x7", "7x5", "24x32"])
def test_laplacian_is_bit_identical_to_roll_formula(shape, h):
    rng = np.random.default_rng(8)
    # mixed magnitudes make any change in summation order show in the bits
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    out = laplacian(v, h)
    assert out.tobytes() == _roll_laplacian(v, h).tobytes()


def test_field_stats_trivials():
    assert field_stats(ScalarField2D(GridSpec(4, 4), np.full((4, 4), 0.5))) == \
        (0.5, 0.0, 0.5, 0.5)
    v = np.zeros((4, 4))
    v[:2] = 1.0
    mean, var, lo, hi = field_stats(ScalarField2D(GridSpec(4, 4), v))
    assert (mean, var, lo, hi) == (0.5, 0.25, 0.0, 1.0)


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
