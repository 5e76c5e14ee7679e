"""Uniform periodic 2D grids, scalar fields, stencils, and seeded initialization.

Fields are immutable value objects: every operation returns a new field.
Grids are periodic in both directions, which conserves mass exactly under
divergence-form updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataFormatError",
    "GridSpec",
    "ScalarField2D",
    "gaussian_field",
    "field_stats",
    "write_snapshot_csv",
    "read_snapshot_csv",
]

MIN_GRID = 4


class DataFormatError(ValueError):
    """A data file (snapshot, trace, or table CSV) failed to parse."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform 2D grid: nx columns, ny rows, cell spacing h (solver units)."""

    nx: int
    ny: int
    h: float = 1.0

    def __post_init__(self):
        if self.nx < MIN_GRID or self.ny < MIN_GRID:
            raise ValueError(f"grid must be at least {MIN_GRID}x{MIN_GRID}, got {self.nx}x{self.ny}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"cell spacing must be positive and finite, got {self.h}")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class ScalarField2D:
    """Scalar values on a GridSpec, stored row-major as a (ny, nx) float64 array."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.shape != (self.spec.ny, self.spec.nx):
            raise ValueError(f"values shape {v.shape} does not match grid ({self.spec.ny}, {self.spec.nx})")
        if not np.isfinite(v).all():
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "ScalarField2D":
        return ScalarField2D(self.spec, values)


def _uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles in [0,1): element i of the stream is a pure function of (seed, start+i).

    Philox consumes one 64-bit word per double and advance() jumps whole
    128-bit counter blocks (4 doubles), so generation is aligned to blocks
    and sliced. Any chunking of [start, start+count) reproduces the same
    values, which is what makes a parallel fill deterministic.
    """
    block = start // 4
    pad = start - 4 * block
    bitgen = np.random.Philox(key=np.uint64(seed))
    if block:
        bitgen.advance(block)
    u = np.random.Generator(bitgen).random(pad + count)
    return u[pad:]


def gaussian_field(spec: GridSpec, mean: float, variance: float, seed: int) -> ScalarField2D:
    """i.i.d. N(mean, variance) field, bit-reproducible for a given seed.

    Cell (i, j) draws stream element i*nx + j, so the result does not depend
    on how the fill is chunked across workers.
    """
    if variance < 0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    if not 0.0 <= mean <= 1.0:
        raise ValueError(f"mean must lie in [0, 1], got {mean}")
    # imported here: scipy.special adds ~0.3 s to every CLI start otherwise
    from scipy.special import ndtri
    u = _uniform_stream(seed, 0, spec.n_cells)
    # guard u=0 so ndtri stays finite; probability 2^-53 per cell
    u = np.maximum(u, np.finfo(np.float64).tiny)
    values = mean + np.sqrt(variance) * ndtri(u)
    return ScalarField2D(spec, values.reshape(spec.ny, spec.nx))


def _laplacian_values(v: np.ndarray, h: float, out: np.ndarray,
                      tmp: np.ndarray) -> np.ndarray:
    """5-point periodic Laplacian of a C-contiguous (ny, nx) array, into `out`.

    The sum is ((((v[i-1] + v[i+1]) + v[j-1]) + v[j+1]) - 4 v) / h^2 in that
    order, the order of the np.roll formula, so results are bit-identical to
    it.  Every large operation runs on contiguous memory: north+south from
    row slabs, then west and east as shifts by one element of the flattened
    array.  Those shifts wrap each row's edge columns into the neighbouring
    row, so both edge columns are rebuilt from their saved north+south sums.
    `out` must be C-contiguous and `tmp` is scratch for 4v; neither may
    overlap `v`.
    """
    np.add(v[:-2], v[2:], out=out[1:-1])
    np.add(v[-1], v[1], out=out[0])
    np.add(v[-2], v[0], out=out[-1])
    tmp[:, 0] = out[:, 0]
    tmp[:, -1] = out[:, -1]
    flat, vf = out.reshape(-1), v.reshape(-1)
    flat[1:] += vf[:-1]
    flat[:-1] += vf[1:]
    np.add(tmp[:, 0], v[:, -1], out=out[:, 0])
    out[:, 0] += v[:, 1]
    np.add(tmp[:, -1], v[:, -2], out=out[:, -1])
    out[:, -1] += v[:, 0]
    np.multiply(v, 4.0, out=tmp)
    out -= tmp
    if h != 1.0:
        out /= h * h
    return out


def field_stats(f: ScalarField2D) -> tuple[float, float, float, float]:
    """Population (mean, variance, min, max) over all cells."""
    v = f.values
    return float(v.mean()), float(v.var()), float(v.min()), float(v.max())


def write_snapshot_csv(f: ScalarField2D, path) -> None:
    """Snapshot format: header line `nx,ny,h`, then ny rows of nx values.

    Values are written with shortest round-trip repr so read back is
    bit-identical.
    """
    spec = f.spec
    with open(path, "w", newline="") as fh:
        fh.write(f"{spec.nx},{spec.ny},{float(spec.h)!r}\n")
        for row in f.values.tolist():
            fh.write(",".join(map(repr, row)))
            fh.write("\n")


def read_snapshot_csv(path) -> ScalarField2D:
    with open(path, "r") as fh:
        header = fh.readline().strip()
        parts = header.split(",")
        if len(parts) != 3:
            raise DataFormatError(f"{path}: malformed snapshot header {header!r}")
        try:
            spec = GridSpec(int(parts[0]), int(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed snapshot header {header!r}: {exc}") from exc
        nx, ny = spec.nx, spec.ny
        # rows are kept as read, never preallocated from the header, so a
        # header declaring a huge grid fails on its short file, not in malloc
        rows = []
        for i in range(ny):
            line = fh.readline()
            if not line:
                raise DataFormatError(f"{path}: expected {ny} data rows, file ended at row {i}")
            try:
                row = np.array(line.strip().split(","), dtype=np.float64)
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {i} has a non-numeric value") from exc
            if row.size != nx:
                raise DataFormatError(f"{path}: row {i} has {row.size} values, expected {nx}")
            rows.append(row)
    try:
        return ScalarField2D(spec, np.array(rows))
    except ValueError as exc:   # non-finite values
        raise DataFormatError(f"{path}: {exc}") from exc
