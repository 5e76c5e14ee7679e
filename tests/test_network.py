from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from numpy.testing import assert_allclose

from spinodalkit.analysis import (LinearSolveError, _bond_conductances,
                                  _electrode_currents, _oriented,
                                  _sheet_resistances, _spd_inverse,
                                  analyze_fields, effective_sheet_resistance)
from spinodalkit.fields import GridSpec, ScalarField2D, gaussian_field
from spinodalkit.solver import SolverParams, run
from dense_oracle import dense_sheet_resistance, dual_bonds, exact_sheet_resistance


def cmap(sigma):
    return np.asarray(sigma, dtype=float)


def test_uniform_sheet_is_exact():
    for nx, ny, s in [(8, 8, 1.0), (24, 16, 3.0), (6, 30, 0.25)]:
        c = cmap(np.full((ny, nx), s))
        assert_allclose(effective_sheet_resistance(c, "x"), 1.0 / s, rtol=1e-12)
        assert_allclose(effective_sheet_resistance(c, "y"), 1.0 / s, rtol=1e-12)


def test_series_and_parallel_laminates():
    s1, s2 = 1.0, 1e-2
    sigma = np.empty((16, 16))
    sigma[:, 0::2] = s1
    sigma[:, 1::2] = s2
    c = cmap(sigma)
    # current crossing the stripes sees resistances in series,
    # current along them sees the conductances in parallel
    series = 0.5 * (1.0 / s1 + 1.0 / s2)
    parallel = 2.0 / (s1 + s2)
    assert_allclose(effective_sheet_resistance(c, "x"), series, rtol=1e-8)
    assert_allclose(effective_sheet_resistance(c, "y"), parallel, rtol=1e-8)


@pytest.mark.parametrize("contrast", [1e4, 1e8, 1e12, 1e16, 1e30])
def test_well_conducting_electrode_column_keeps_the_current(contrast):
    # column 0 conducts, the rest is 1/contrast: R = (1 + 15 contrast)/16.
    # The current used to come from gl (1 - V_0), whose terms cancel here
    # (relative error 1.7e-3 at 1e12, a negative current at 1e16)
    sigma = np.full((16, 16), 1.0 / contrast)
    sigma[:, 0] = 1.0
    exact = (1.0 + 15.0 * contrast) / 16.0
    assert_allclose(effective_sheet_resistance(cmap(sigma), "x"), exact, rtol=1e-13)
    assert_allclose(effective_sheet_resistance(cmap(sigma[:, ::-1]), "x"), exact,
                    rtol=1e-13)


def test_matches_dense_direct_solve():
    rng = np.random.default_rng(12)
    sigma = np.exp(rng.standard_normal((10, 12)))
    c = cmap(sigma)
    for axis in ("x", "y"):
        assert_allclose(effective_sheet_resistance(c, axis),
                        dense_sheet_resistance(c, axis), rtol=1e-8)


@pytest.mark.parametrize("contrast,rtol", [(1e4, 1e-11), (1e8, 1e-7)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_current_crossing_the_low_phase_against_exact_solve(seed, contrast, rtol):
    # no Ti-rich path spans x, so the current must cross the 1/contrast
    # phase and the elimination loses ~contrast * 1e-16 (measured at most
    # 1.2e-12 at 1e4 and 1.8e-8 at 1e8); the oracle is exact rational arithmetic
    sigma = cmap(np.where(np.random.default_rng(seed).random((8, 8)) < 0.3, 1.0, 1.0 / contrast))
    exact = exact_sheet_resistance(sigma, "x")
    assert abs(Fraction(effective_sheet_resistance(sigma, "x")) - exact) <= rtol * exact


def two_phase(shape, contrast, seed):
    mask = np.random.default_rng(seed).random(shape) < 0.5
    return cmap(np.where(mask, 1.0, 1.0 / contrast))


@pytest.mark.parametrize("shape,contrast", [((32, 32), 1e6), ((24, 40), 1e4),
                                            ((40, 24), 1e4)])
def test_two_phase_map_matches_dense_solve(shape, contrast):
    c = two_phase(shape, contrast, seed=8)
    for axis in ("x", "y"):
        assert_allclose(effective_sheet_resistance(c, axis),
                        dense_sheet_resistance(c, axis), rtol=1e-8)


def duality_error(sigma, axis: str) -> float:
    """|G G* - 1| for the network of the conductivity map `sigma` driven
    along `axis`: G from its sweep, G* from the sweep of its planar dual."""
    bonds = _bond_conductances(_oriented(sigma, axis)[None])
    g, g_dual = (_electrode_currents(*b)[0] for b in (bonds, dual_bonds(*bonds)))
    return abs(g * g_dual - 1.0)


# |G G* - 1| bounds by contrast, at the measured levels: at most 8.7e-15 and
# 1.2e-11 on the random maps below; 128^2 solver snapshots read 1.0e-14 at
# contrast 1 (a uniform map) and up to 2.5e-10 at 1e4
DUALITY_BOUND = {1.0: 1e-14, 1e4: 1e-9}


@pytest.mark.parametrize("contrast", list(DUALITY_BOUND))
@pytest.mark.parametrize("shape", [(12, 20), (33, 7), (2, 9), (40, 48), (64, 64)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_planar_dual_conductance_is_the_inverse(shape, contrast):
    # Kirchhoff networks of random two-phase maps (p = 0.55) and their
    # planar duals: G G* = 1 exactly (Brooks, Smith, Stone & Tutte 1940)
    for seed in range(3):
        sigma = np.where(np.random.default_rng(seed).random(shape) < 0.55,
                         1.0, 1.0 / contrast)
        for axis in ("x", "y"):
            assert duality_error(sigma, axis) <= DUALITY_BOUND[contrast]


def test_planar_duality_on_128_solver_snapshots():
    res = run(gaussian_field(GridSpec(128, 128), 0.48, 1e-3, seed=3),
              SolverParams(snapshot_times=(0.0, 10.0)))
    for f in res.snapshots.values():
        for contrast, bound in DUALITY_BOUND.items():
            sigma = np.where(f.values >= 0.5, 1.0, 1.0 / contrast)
            for axis in ("x", "y"):
                assert duality_error(sigma, axis) <= bound


def sparse_sheet_resistance_x(s):
    """Kirchhoff system assembled in COO form and solved by spsolve."""
    ny, nx = s.shape
    node = np.arange(nx * ny).reshape(ny, nx)
    rows, cols, vals = [], [], []
    for a, b, sa, sb in ((node[:, :-1], node[:, 1:], s[:, :-1], s[:, 1:]),
                         (node[:-1, :], node[1:, :], s[:-1, :], s[1:, :])):
        g = (2.0 * sa * sb / (sa + sb)).ravel()
        a, b = a.ravel(), b.ravel()
        rows += [a, b, a, b]
        cols += [a, b, b, a]
        vals += [g, g, -g, -g]
    gl, gr = 2.0 * s[:, 0], 2.0 * s[:, -1]
    rows += [node[:, 0], node[:, -1]]
    cols += [node[:, 0], node[:, -1]]
    vals += [gl, gr]
    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nx * ny, nx * ny)).tocsc()
    rhs = np.zeros(nx * ny)
    rhs[node[:, 0]] = gl
    V = scipy.sparse.linalg.spsolve(A, rhs)
    current = (gl * (1.0 - V[node[:, 0]])).sum()
    return (1.0 / current) * (ny / nx)


def test_matches_sparse_direct_solve_on_64_grid():
    c = two_phase((64, 64), 1e4, seed=9)
    assert_allclose(effective_sheet_resistance(c, "x"),
                    sparse_sheet_resistance_x(c), rtol=1e-9)
    assert_allclose(effective_sheet_resistance(c, "y"),
                    sparse_sheet_resistance_x(c.T), rtol=1e-9)


@pytest.mark.parametrize("shape", [(48, 40), (40, 47)])
def test_non_square_two_phase_map_matches_sparse_direct_solve(shape):
    c = two_phase(shape, 1e4, seed=10)
    assert_allclose(effective_sheet_resistance(c, "x"),
                    sparse_sheet_resistance_x(c), rtol=1e-9)
    assert_allclose(effective_sheet_resistance(c, "y"),
                    sparse_sheet_resistance_x(c.T), rtol=1e-9)


def random_spd(n, rng):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def kirchhoff_like(n, rng):
    """Symmetric, negative off-diagonal, diagonal a little above the row's
    off-diagonal sum: like the blocks of the column elimination."""
    off = -rng.random((n, n)) * (rng.random((n, n)) < 0.2)
    off = np.triu(off, 1)
    off = off + off.T
    return off + np.diag(-off.sum(axis=1) + 0.1 + rng.random(n))


SPD_SIZES = [1, 2, 5, 16, 31, 32, 33, 47, 64, 65, 100, 129, 130]


@pytest.mark.parametrize("make", [random_spd, kirchhoff_like])
def test_spd_inverse_matches_lapack_inverse(make):
    rng = np.random.default_rng(14)
    for n in SPD_SIZES:
        S = make(n, rng)
        want = np.linalg.inv(S)
        got = _spd_inverse(S)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), n
    # a stack inverts map by map
    stack = np.stack([make(65, rng) for _ in range(3)])
    got = _spd_inverse(stack)
    for S, inv in zip(stack, got):
        assert np.array_equal(inv, _spd_inverse(S))


@pytest.mark.parametrize("n,zero", [(1, 0), (40, 3), (40, 38), (100, 70)])
def test_spd_inverse_of_singular_matrix_raises(n, zero):
    # the zero row and column land in the leading block A or in the Schur
    # complement D
    S = random_spd(n, np.random.default_rng(15))
    S[zero, :] = 0.0
    S[:, zero] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        _spd_inverse(S)


def test_stacked_currents_equal_single_map_currents():
    rng = np.random.default_rng(16)
    maps = [two_phase((64, 64), 1e4, seed=17),
            np.exp(rng.standard_normal((64, 64))),
            two_phase((64, 64), 1e6, seed=18).T,
            np.full((64, 64), 3.0),
            two_phase((64, 64), 1e2, seed=19)]
    single = [_electrode_currents(*_bond_conductances(s[None]))[0] for s in maps]
    for k in range(1, 6):
        for start in range(0, 6 - k):
            got = _electrode_currents(*_bond_conductances(np.stack(maps[start:start + k])))
            assert got.tolist() == single[start:start + k]


def test_axis_swap_is_transpose():
    rng = np.random.default_rng(3)
    sigma = np.exp(rng.standard_normal((8, 14)))
    r_y = effective_sheet_resistance(cmap(sigma), "y")
    r_x = effective_sheet_resistance(cmap(sigma.T), "x")
    assert_allclose(r_y, r_x, rtol=1e-9)


def test_conductivity_scaling():
    rng = np.random.default_rng(4)
    sigma = np.exp(rng.standard_normal((9, 9)))
    r1 = effective_sheet_resistance(cmap(sigma), "x")
    r2 = effective_sheet_resistance(cmap(10.0 * sigma), "x")
    assert_allclose(r2, r1 / 10.0, rtol=1e-9)


def test_two_phase_map_brackets_pure_phases():
    # analyze_fields gives the Ti-rich cells (x >= x_c) sigma_ti, the rest sigma_al
    rng = np.random.default_rng(5)
    mask = rng.random((16, 16)) < 0.5
    f = ScalarField2D(GridSpec(16, 16), np.where(mask, 0.9, 0.1))
    row = analyze_fields([(0.0, f)], x_c=0.5, sigma_ti=1.0, sigma_al=1e-4)[0]
    r = effective_sheet_resistance(np.where(mask, 1.0, 1e-4), "x")
    assert row.R_eff_x == r
    assert 1.0 < r < 1e4  # between the pure Ti and pure Al sheets


def test_invalid_axis_and_sigma():
    with pytest.raises(ValueError, match="axis must be"):
        effective_sheet_resistance(np.ones((4, 4)), "diag")
    for value in (0.0, -1.0, np.inf, np.nan):
        bad = np.ones((4, 4))
        bad[1, 2] = value
        with pytest.raises(ValueError, match="positive and finite"):
            effective_sheet_resistance(bad, "x")
    # an empty axis or a third one is refused before any solve
    for shape in ((0, 5), (5, 0), (4, 4, 1)):
        with pytest.raises(ValueError, match="2-D array"):
            effective_sheet_resistance(np.ones(shape), "y")


def test_underflowing_bonds_raise_linear_solve_error():
    # harmonic means of 1e-310 cells underflow to zero: no conducting path
    with pytest.raises(LinearSolveError):
        effective_sheet_resistance(cmap(np.full((16, 16), 1e-310)), "x")


def test_failing_map_in_a_stack_raises_linear_solve_error():
    # the dead map's sweep fails, so the whole stack raises
    good = two_phase((16, 16), 1e4, seed=20)
    dead = np.full((16, 16), 1e-310)
    with pytest.raises(LinearSolveError, match="Kirchhoff"):
        _sheet_resistances(np.stack([good, dead, good]))
    single = _sheet_resistances(good[None])
    assert _sheet_resistances(np.stack([good, good])).tolist() == 2 * single.tolist()

