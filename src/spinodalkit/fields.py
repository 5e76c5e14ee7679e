"""Uniform periodic 2D grids, scalar fields, stencils, and seeded initialization.

Fields are immutable value objects: every operation returns a new field.
Grids are periodic in both directions, which conserves mass exactly under
divergence-form updates.
"""

from __future__ import annotations

import csv
import math
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataFormatError",
    "NumericalFailure",
    "GridSpec",
    "ScalarField2D",
    "gaussian_field",
    "snapshot_filename",
    "snapshot_time",
    "write_snapshot_csv",
    "read_snapshot_csv",
    "read_table_csv",
    "write_table_csv",
]

MIN_GRID = 4

# A seed is the key of a Philox stream: one unsigned 64-bit word.
SEED_LIMIT = 2 ** 64


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


def gaussian_field(spec: GridSpec, mean: float, variance: float, seed: int) -> ScalarField2D:
    """i.i.d. N(mean, variance) field, bit-reproducible for a given seed.

    Cell (i, j) draws stream element i*nx + j.
    """
    if variance < 0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    if not 0.0 <= mean <= 1.0:
        raise ValueError(f"mean must lie in [0, 1], got {mean}")
    if not (isinstance(seed, (int, np.integer)) and 0 <= int(seed) < SEED_LIMIT):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    # imported here: scipy.special adds ~0.3 s to every CLI start otherwise
    from scipy.special import ndtri
    u = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(spec.n_cells)
    # guard u=0 so ndtri stays finite; probability 2^-53 per cell
    u = np.maximum(u, np.finfo(np.float64).tiny)
    values = mean + np.sqrt(variance) * ndtri(u)
    return ScalarField2D(spec, values.reshape(spec.ny, spec.nx))


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity set, or
    os.cpu_count() where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _laplacian_values(v: np.ndarray, h: float, out: np.ndarray,
                      scratch: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """5-point Laplacian of the rows of `v` between its first and last, into
    `out`: `v` is a C-contiguous (m + 2, nx) array whose first and last rows
    are the halo, the rows just outside the m that `out` gets (for a whole
    periodic field, its last row above it and its first below).  Columns
    wrap periodically.

    The sum is ((((v[i-1] + v[i+1]) + v[j-1]) + v[j+1]) - 4 v) / h^2 in that
    order, the order of the np.roll formula, so results are bit-identical to
    it.  Every large operation runs on contiguous memory: north+south from
    row slabs, then west and east as shifts by one element of the flattened
    rows.  Those shifts wrap each row's edge columns into the neighbouring
    row, so both edge columns are rebuilt from their north+south sums, saved
    in `edge`, an (m, 2) array.  `out` must be C-contiguous and may not
    overlap `v`.  4v is written into `scratch`, (m, nx), after the last read
    of `v`, so `scratch` may be v[1:-1] itself, which is then left holding 4v.
    """
    c = v[1:-1]
    np.add(v[:-2], v[2:], out=out)
    edge[:, 0] = out[:, 0]
    edge[:, 1] = out[:, -1]
    flat, cf = out.reshape(-1), c.reshape(-1)
    flat[1:] += cf[:-1]
    flat[:-1] += cf[1:]
    np.add(edge[:, 0], c[:, -1], out=out[:, 0])
    out[:, 0] += c[:, 1]
    np.add(edge[:, 1], c[:, -2], out=out[:, -1])
    out[:, -1] += c[:, 0]
    np.multiply(c, 4.0, out=scratch)
    out -= scratch
    if h != 1.0:
        out /= h * h
    return out


def snapshot_filename(t: float) -> str:
    """snap_t<%g of t>.csv when that text reads back to t (snap_t0.5.csv),
    else snap_t<repr(t)>.csv (snap_t1234567.0.csv): the name gives back t
    exactly, so distinct times never share a name."""
    text = f"{t:g}"
    if float(text) != t:
        text = repr(float(t))
    return f"snap_t{text}.csv"


def snapshot_time(path) -> float | None:
    """The time in a snap_t<time>.csv file name, or None for a name of
    another form.  A DataFormatError names the file when <time> is not a
    finite number."""
    m = re.fullmatch(r"snap_t(.+)\.csv", os.path.basename(path))
    if m is None:
        return None
    try:
        t = float(m.group(1))
    except ValueError:
        t = math.nan
    if not math.isfinite(t):
        raise DataFormatError(f"{path}: snapshot time {m.group(1)!r} in the file "
                              "name is not a finite number")
    return t + 0.0   # snap_t-0.csv names time 0.0, not -0.0


def _write_whole(path, chunks) -> None:
    """Write `chunks`, an iterable of bytes, to `path` whole or not at all:
    they stream to `<path>.<pid>.tmp` beside it, renamed onto `path` once
    complete and removed on any error, so `path` keeps its old content until
    the new one is whole.  The package opens no file for writing elsewhere."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _csv_lines(header: str, rows, cell):
    """UTF-8 lines, `\\n`-ended: `header`, then each row's cells by `cell`."""
    yield f"{header}\n".encode()
    for row in rows:
        yield f"{','.join(map(cell, row))}\n".encode()


def _loadtxt(fh) -> np.ndarray:
    """The rest of `fh` as a 2-D float64 array, by numpy's C reader with
    float()'s rounding.  No max_rows, so a header declaring a huge grid
    fails on its short file, not in malloc."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty body: callers check the shape
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)


def _snapshot_lines(f: ScalarField2D):
    """The snapshot file of `f`: its header line, then its body in chunks
    (`floattext.repr_rows`)."""
    # imported here, as only `simulate` writes snapshots: compiling it would
    # add ~2.5 ms to every CLI start where no bytecode is cached
    from .floattext import repr_rows
    spec = f.spec
    yield f"{spec.nx},{spec.ny},{float(spec.h)!r}\n".encode()
    yield from repr_rows(f.values)


def write_snapshot_csv(f: ScalarField2D, path) -> None:
    """Snapshot format: header line `nx,ny,h`, then ny rows of nx values
    by shortest round-trip repr, so read back is bit-identical; written
    whole or not at all (`_write_whole`).  numpy computes repr's digits for
    a chunk of cells at once (`floattext`), and repr itself formats the few
    values that computation cannot decide."""
    _write_whole(path, _snapshot_lines(f))


def read_snapshot_csv(path) -> ScalarField2D:
    """Read a snapshot written by write_snapshot_csv: the body must hold
    exactly ny rows of nx finite values (no fewer, no more)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            nx, ny, h = header.split(",")
            spec = GridSpec(int(nx), int(ny), float(h))
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed snapshot header {header!r}: {exc}") from exc
        try:
            values = _loadtxt(fh)
            if values.shape != (spec.ny, spec.nx):
                raise ValueError(f"expected {spec.ny} rows of {spec.nx} values, "
                                 f"got {values.shape[0]} rows of {values.shape[1]}")
            return ScalarField2D(spec, values)  # rejects non-finite values
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


def _table_reader(path, fh, header: str):
    """A csv reader over `fh` past its first line, which must be `header`
    (spaces around names aside)."""
    reader = csv.reader(fh)
    first = next(reader, None)
    if first is None or [c.strip() for c in first] != header.split(","):
        raise DataFormatError(f"{path}: expected header '{header}'")
    return reader


def _table_columns(path, header: str) -> np.ndarray:
    """The columns of an all-numeric table, as a C-contiguous float64 array
    of shape (columns, rows), under read_table_csv's rules.  The C parse
    (`_loadtxt`) is kept only when it has at least one row of exactly the
    header's fields, all finite; anything else (a fault, or a form only
    float() reads, such as `1_000` or a quoted field) is parsed again by
    read_table_csv, which names the faulty line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        _table_reader(path, fh, header)
        try:
            values = _loadtxt(fh)
        except ValueError:
            values = None
    if (values is None or values.shape[0] == 0
            or values.shape[1] != header.count(",") + 1 or not np.isfinite(values).all()):
        values = np.array(read_table_csv(path, header))
    return values.T.copy()


def read_table_csv(path, header: str, text: int = 0, record=None) -> list:
    """Rows of a table CSV.  The first line must be `header` (spaces around
    names aside) and blank lines are skipped; every other row has exactly
    the header's fields, the first `text` kept as stripped strings and the
    rest finite floats.  A row is the tuple of its fields, or
    `record(*fields)`.  Any fault, a ValueError from `record` too, is a
    DataFormatError naming `path:line`; so is a file without data rows."""
    names = header.split(",")
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _table_reader(path, fh, header)
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
        if re.search(r'[,"\r\n]', v):  # csv's minimal quoting, quotes doubled
            return '"' + v.replace('"', '""') + '"'
        return v
    if isinstance(v, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(v))
    return repr(float(v))


def write_table_csv(path, header: str, rows) -> None:
    """A report CSV: `header`, then one line per row of `rows`, written
    whole or not at all (`_write_whole`).  Strings are written as is, but
    quoted as csv does when they hold `,`, `"` or a line break; ints and
    bools as integers, and every other value as repr(float(x)), the
    shortest text that reads back to the same double (a numpy scalar
    prints as a plain float)."""
    _write_whole(path, _csv_lines(header, rows, _table_cell))
