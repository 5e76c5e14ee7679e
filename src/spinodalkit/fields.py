"""Uniform periodic 2D grids, scalar fields, stencils, and seeded initialization.

Fields are immutable value objects: every operation returns a new field.
Grids are periodic in both directions, which conserves mass exactly under
divergence-form updates.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataFormatError",
    "NumericalFailure",
    "GridSpec",
    "ScalarField2D",
    "gaussian_field",
    "field_stats",
    "write_snapshot_csv",
    "read_snapshot_csv",
    "read_table_csv",
    "write_table_csv",
]

MIN_GRID = 4


class DataFormatError(ValueError):
    """A data file (snapshot, trace, or table CSV) failed to parse."""


class NumericalFailure(Exception):
    """Marker base of the errors that mean a numerical failure (CLI exit 3):
    the input was valid, but the computation gave no usable result.  The
    errors that derive from it keep their own builtin base as well."""


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
    """Read a snapshot written by write_snapshot_csv: the body must hold
    exactly ny rows of nx finite values (no fewer, no more)."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        try:
            nx, ny, h = header.split(",")
            spec = GridSpec(int(nx), int(ny), float(h))
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed snapshot header {header!r}: {exc}") from exc
        try:
            # no max_rows: the body is never preallocated from the header, so
            # a header declaring a huge grid fails on its short file, not in malloc
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body fails the shape check
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if values.shape != (spec.ny, spec.nx):
                raise ValueError(f"expected {spec.ny} rows of {spec.nx} values, "
                                 f"got {values.shape[0]} rows of {values.shape[1]}")
            return ScalarField2D(spec, values)  # rejects non-finite values
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


def read_table_csv(path, header: str, text: int = 0, record=None) -> list:
    """Rows of a table CSV.  The first line must be `header` (spaces around
    names aside) and blank lines are skipped; every other row has exactly
    the header's fields, the first `text` kept as stripped strings and the
    rest finite floats.  A row is the tuple of its fields, or
    `record(*fields)`.  Any fault, a ValueError from `record` too, is a
    DataFormatError naming `path:line`; so is a file without data rows."""
    names = header.split(",")
    rows = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [c.strip() for c in first] != names:
            raise DataFormatError(f"{path}: expected header '{header}'")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(names):
                    raise ValueError(f"expected {len(names)} fields, got {len(row)}")
                values = [float(s) for s in row[text:]]
                for name, v in zip(names[text:], values):
                    if not math.isfinite(v):
                        raise ValueError(f"{name} must be finite, got {v}")
                fields = (*(s.strip() for s in row[:text]), *values)
                rows.append(record(*fields) if record else fields)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return rows


def _table_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(v))
    return repr(float(v))


def write_table_csv(path, header: str, rows) -> None:
    """A report CSV: `header`, then one line per row of `rows`.

    Strings are written unchanged, ints and bools as integers, and every
    other value as repr(float(x)), the shortest text that reads back to the
    same double (a numpy scalar prints as a plain float).  ASCII text with
    `\\n` line ends.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_table_cell, row)) + "\n")
