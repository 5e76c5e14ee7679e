"""Oracles for the Kirchhoff system behind
analysis.effective_sheet_resistance.  The direct solves, for small grids in
test_network and the acceptance suite, assemble the full nx*ny system node
by node, so keep them to a few hundred cells (the exact solve to a hundred
or so).  The planar dual (dual_bonds) checks a solve of any size."""

from fractions import Fraction

import numpy as np


def _nodal_system(sigma, axis: str):
    """(A, b, gl) of the nodal system A V = b for unit voltage across
    `axis`, with node (i, j) at row i*nx + j and gl the left electrode
    bonds.  Entries take the dtype of `sigma`: float, or object for exact
    rationals."""
    s = {"x": sigma, "y": sigma.T}[axis]
    ny, nx = s.shape
    n = nx * ny
    gh = 2 * s[:, :-1] * s[:, 1:] / (s[:, :-1] + s[:, 1:])
    gv = 2 * s[:-1, :] * s[1:, :] / (s[:-1, :] + s[1:, :])
    gl, gr = 2 * s[:, 0], 2 * s[:, -1]

    A = np.zeros((n, n), dtype=s.dtype)
    b = np.zeros(n, dtype=s.dtype)

    def k(i, j):
        return i * nx + j

    def bond(a, c2, g):
        A[a, a] += g
        A[c2, c2] += g
        A[a, c2] -= g
        A[c2, a] -= g

    for i in range(ny):
        for j in range(nx - 1):
            bond(k(i, j), k(i, j + 1), gh[i, j])
    for i in range(ny - 1):
        for j in range(nx):
            bond(k(i, j), k(i + 1, j), gv[i, j])
    for i in range(ny):
        A[k(i, 0), k(i, 0)] += gl[i]
        b[k(i, 0)] += gl[i]
        A[k(i, nx - 1), k(i, nx - 1)] += gr[i]
    return A, b, gl


def dense_sheet_resistance(sigma, axis: str) -> float:
    """R_eff per square of the conductivity array `sigma` driven along
    `axis`, from one np.linalg.solve of the assembled nodal system."""
    A, b, gl = _nodal_system(sigma, axis)
    ny = len(gl)
    V = np.linalg.solve(A, b).reshape(ny, -1)
    current = float((gl * (1.0 - V[:, 0])).sum())
    return (1.0 / current) * (ny / V.shape[1])


def exact_sheet_resistance(sigma, axis: str) -> Fraction:
    """R_eff per square of `sigma` driven along `axis`, exactly: every float
    conductivity is a rational, and Gaussian elimination of the nodal
    system in Fraction arithmetic makes no rounding error."""
    A, b, gl = _nodal_system(np.vectorize(Fraction, otypes=[object])(sigma), axis)
    n, ny = len(b), len(gl)
    nx = n // ny
    w = nx + 1   # A is SPD and banded: A[r, c] = 0 for |r - c| > nx
    for p in range(n):                             # forward elimination
        for r in range(p + 1, min(n, p + w)):
            f = A[r, p] / A[p, p]
            A[r, p:p + w] -= f * A[p, p:p + w]
            b[r] -= f * b[p]
    V = [Fraction(0)] * n
    for p in range(n - 1, -1, -1):                 # back substitution
        V[p] = (b[p] - sum(A[p, c] * V[c] for c in range(p + 1, min(n, p + w)))) / A[p, p]
    current = sum(g * (1 - V[i * nx]) for i, g in enumerate(gl))
    return Fraction(ny, nx) / current


def dual_bonds(gh, gv, gl, gr):
    """The planar dual of each left/right network of a stack, in the bond
    stacks analysis._electrode_currents takes: gh (k, ny, nx-1), gv
    (k, ny-1, nx), gl and gr (k, ny), ny >= 2.

    A dual node sits on each face between two rows of cells, in each of the
    nx + 1 gaps of a row (electrode, cell, ..., cell, electrode); its
    electrodes are the outer faces above the top row and below the bottom
    row, and each dual bond crosses one primal bond g with conductance 1/g
    (Brooks, Smith, Stone & Tutte, Duke Math. J. 7, 312 (1940)).  With
    cols = [gl, gh, gr], gap c's vertical dual bonds are 1/cols[1:-1, c],
    its top and bottom electrode bonds 1/cols[0, c] and 1/cols[-1, c], and
    face row i's horizontal dual bonds are 1/gv[i, :].  The dual is
    returned transposed, as a left/right network of (nx + 1) x (ny - 1)
    nodes, so the two-terminal conductances satisfy G * G_dual = 1.
    """
    cols = np.concatenate([gl[..., None], gh, gr[..., None]], axis=-1)
    inv = 1.0 / cols
    return (np.swapaxes(inv[:, 1:-1, :], 1, 2), np.swapaxes(1.0 / gv, 1, 2),
            inv[:, 0, :], inv[:, -1, :])
