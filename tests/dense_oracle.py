"""Dense direct solve of the Kirchhoff system behind
analysis.effective_sheet_resistance: the oracle for small grids in
test_network and the acceptance suite.  It assembles the full nx*ny
system node by node, so keep it to a few hundred cells."""

import numpy as np


def dense_sheet_resistance(sigma, axis: str) -> float:
    """R_eff per square of the conductivity array `sigma` driven along
    `axis`, from one np.linalg.solve of the assembled nodal system."""
    s = {"x": sigma, "y": sigma.T}[axis]
    ny, nx = s.shape
    n = nx * ny
    gh = 2.0 * s[:, :-1] * s[:, 1:] / (s[:, :-1] + s[:, 1:])
    gv = 2.0 * s[:-1, :] * s[1:, :] / (s[:-1, :] + s[1:, :])
    gl, gr = 2.0 * s[:, 0], 2.0 * s[:, -1]

    A = np.zeros((n, n))
    b = np.zeros(n)

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

    V = np.linalg.solve(A, b).reshape(ny, nx)
    current = float((gl * (1.0 - V[:, 0])).sum())
    return (1.0 / current) * (ny / nx)
