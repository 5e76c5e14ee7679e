"""Microstructure descriptors for two-phase composition fields.

Four families of diagnostics:

* spectral — a characteristic domain length from the first moment of the
  power spectrum (numpy FFT; any grid size);
* clustering — connected components of a thresholded phase map under
  4-connectivity (scipy.ndimage.label), with spanning tests;
* percolation — a Monte Carlo site-percolation threshold estimate from the
  exact spanning onset of each trial;
* transport — effective sheet resistance of the composite from an exact
  Kirchhoff solve with harmonic-mean bond conductances, by column-by-column
  elimination at O(nx*ny^3) time and O(ny^2) memory.

analyze_fields reports all four for a batch of snapshots; its R_eff solves,
one per snapshot and axis, can run on a thread pool.

Clustering and spanning use non-periodic boundaries (electrodes break
periodicity) even though the underlying composition field is periodic;
the mismatch is deliberate and only affects edge-touching clusters.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

from .fields import GridSpec, NumericalFailure, ScalarField2D, write_table_csv

__all__ = [
    "NoStructureError",
    "LinearSolveError",
    "Phase",
    "PhaseMap",
    "ClusterLabeling",
    "ConductivityMap",
    "AnalysisRow",
    "characteristic_length",
    "label_clusters",
    "spans",
    "percolation_threshold_mc",
    "effective_sheet_resistance",
    "dense_sheet_resistance",
    "analyze_field",
    "analyze_fields",
    "write_report_csv",
    "REPORT_HEADER",
]

REPORT_HEADER = ("time,char_length,ti_fraction,n_clusters,largest_cluster,"
                 "spans_x,spans_y,R_eff_x,R_eff_y")


class NoStructureError(ValueError, NumericalFailure):
    """The field is constant; no length scale can be extracted."""


class LinearSolveError(RuntimeError, NumericalFailure):
    """The Kirchhoff system of a conductivity map has no usable solution:
    a singular elimination block, or a non-finite or non-positive
    electrode current."""


# ---------------------------------------------------------------------------
# Spectral length scale
# ---------------------------------------------------------------------------

def characteristic_length(f: ScalarField2D) -> float:
    """First-moment length L = 2*pi * sum S(k) / sum |k| S(k), k != 0,
    where S is the power spectrum of the mean-subtracted field.

    A pure sinusoid of wavelength lam gives L = lam exactly; white noise
    gives a few cell spacings.  Invariant under cyclic shifts and x -> 1-x.
    """
    v = f.values
    if float(v.max()) == float(v.min()):
        raise NoStructureError("constant field has no structure")
    spectrum = np.abs(np.fft.fft2(v - v.mean())) ** 2
    kx = 2.0 * np.pi * np.fft.fftfreq(f.spec.nx, d=f.spec.h)
    ky = 2.0 * np.pi * np.fft.fftfreq(f.spec.ny, d=f.spec.h)
    kmag = np.hypot(ky[:, None], kx[None, :])
    mask = kmag > 0.0
    s = spectrum[mask]
    return float(2.0 * np.pi * s.sum() / (kmag[mask] * s).sum())


# ---------------------------------------------------------------------------
# Phase maps and cluster labeling
# ---------------------------------------------------------------------------

class Phase(Enum):
    TI_RICH = "ti-rich"
    AL_RICH = "al-rich"


@dataclass(frozen=True)
class PhaseMap:
    """Per-cell phase tags from thresholding a composition field at x_c
    (cells with x >= x_c are Ti-rich)."""

    spec: GridSpec
    ti_rich: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.ti_rich, dtype=bool)
        if m.shape != (self.spec.ny, self.spec.nx):
            raise ValueError(f"mask shape {m.shape} does not match grid "
                             f"({self.spec.ny}, {self.spec.nx})")
        object.__setattr__(self, "ti_rich", m)

    @classmethod
    def from_field(cls, f: ScalarField2D, x_c: float = 0.5) -> "PhaseMap":
        return cls(spec=f.spec, ti_rich=f.values >= x_c)

    def mask(self, phase: Phase) -> np.ndarray:
        return self.ti_rich if phase is Phase.TI_RICH else ~self.ti_rich

    def fraction(self, phase: Phase) -> float:
        return float(self.mask(phase).mean())


@dataclass(frozen=True)
class ClusterLabeling:
    """labels: 0 background, 1..n clusters in row-major first-touch order."""

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.sizes.size)

    @property
    def largest(self) -> int:
        return int(self.sizes.max()) if self.sizes.size else 0


def label_clusters(pmap: PhaseMap, phase: Phase = Phase.TI_RICH) -> ClusterLabeling:
    """Connected components of the chosen phase under 4-connectivity
    (non-periodic).  Every phase cell gets exactly one positive label;
    sizes sum to the phase's cell count."""
    # scipy.ndimage is imported on first use: it adds ~60 ms (~15%) to the
    # CLI's start-up, which every subcommand pays, while only analysis needs it
    from scipy import ndimage
    labels = ndimage.label(pmap.mask(phase))[0]
    return ClusterLabeling(labels=labels, sizes=np.bincount(labels.ravel())[1:])


def spans(labeling: ClusterLabeling, axis: str) -> bool:
    """True iff some single cluster touches both opposite edges along axis
    ('x': left and right columns; 'y': top and bottom rows)."""
    labels = labeling.labels
    if axis == "x":
        first, last = labels[:, 0], labels[:, -1]
    elif axis == "y":
        first, last = labels[0, :], labels[-1, :]
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    common = np.intersect1d(first, last)
    return bool((common > 0).any())


# Cells labelled by one ndimage.label call in percolation_threshold_mc; at
# L=64 the per-call Python overhead outweighs the labelling itself, so trials
# are stacked up to this size (a trial larger than it is labelled alone)
_LABEL_CHUNK_CELLS = 2 ** 16


def _spanning_onsets(u: np.ndarray) -> np.ndarray:
    """For each field u[i] of a (k, ny, nx) stack, the smallest value v of
    u[i] such that the cells with u[i] <= v span top to bottom.

    Spanning is monotone in v, so bisecting over each field's sorted values
    finds the exact onset (Newman & Ziff, PRL 85, 4104 (2000)).  All k
    bisections run in lockstep: each step labels the whole stacked mask in
    one ndimage.label call whose structure connects cells within a field
    only, never across fields.
    """
    from scipy import ndimage
    k = u.shape[0]
    v = np.sort(u.reshape(k, -1), axis=1)
    rows = np.arange(k)
    lo = np.zeros(k, dtype=np.intp)
    hi = np.full(k, v.shape[1] - 1)   # u <= max(u) occupies every cell and spans
    structure = np.zeros((3, 3, 3), dtype=bool)
    structure[1] = ndimage.generate_binary_structure(2, 1)
    while (active := lo < hi).any():
        mid = (lo + hi) // 2
        labels, n = ndimage.label(u <= v[rows, mid][:, None, None], structure)
        # labels are unique across the stack, so a bottom-row label that is
        # also on some top row is on its own field's top row
        on_top = np.zeros(n + 1, dtype=bool)
        on_top[labels[:, 0, :]] = True
        on_top[0] = False
        span = on_top[labels[:, -1, :]].any(axis=1)
        hi = np.where(active & span, mid, hi)
        lo = np.where(active & ~span, mid + 1, lo)
    return v[rows, lo]


def percolation_threshold_mc(L: int, trials: int, seed: int) -> tuple[float, float]:
    """Site-percolation spanning threshold on an L x L grid, 4-connectivity.

    Each trial draws one uniform field u from its own child of
    SeedSequence(seed), so runs with different seeds share no trials.  The
    trial's estimate is the exact top-to-bottom spanning onset of u (see
    _spanning_onsets, which takes the trials in stacks).  Returns the trial
    mean and its standard error.
    """
    if L < 32:
        raise ValueError(f"grid size must be >= 32, got {L}")
    if trials < 50:
        raise ValueError(f"trial count must be >= 50, got {trials}")
    children = np.random.SeedSequence(seed).spawn(trials)
    per_stack = max(1, _LABEL_CHUNK_CELLS // (L * L))
    onsets = []
    for start in range(0, trials, per_stack):
        chunk = children[start:start + per_stack]
        u = np.empty((len(chunk), L, L))
        for trial, child in zip(u, chunk):
            np.random.default_rng(child).random(out=trial)
        onsets.append(_spanning_onsets(u))
    estimates = np.concatenate(onsets)
    p_hat = float(estimates.mean())
    stderr = float(estimates.std(ddof=1) / math.sqrt(trials))
    return p_hat, stderr


# ---------------------------------------------------------------------------
# Effective sheet resistance (random resistor network)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConductivityMap:
    """Per-cell conductivities (arbitrary conductance units), all > 0."""

    spec: GridSpec
    sigma: np.ndarray

    def __post_init__(self):
        s = np.ascontiguousarray(np.asarray(self.sigma, dtype=np.float64))
        if s.shape != (self.spec.ny, self.spec.nx):
            raise ValueError(f"sigma shape {s.shape} does not match grid "
                             f"({self.spec.ny}, {self.spec.nx})")
        if not np.isfinite(s).all() or (s <= 0).any():
            raise ValueError("all conductivities must be positive and finite")
        object.__setattr__(self, "sigma", s)

    @classmethod
    def from_phase_map(cls, pmap: PhaseMap, sigma_ti: float = 1.0,
                       sigma_al: float = 1e-4) -> "ConductivityMap":
        """Two-phase contrast map; the poorly conducting phase keeps a small
        positive floor so the linear system stays nonsingular."""
        sigma = np.where(pmap.ti_rich, float(sigma_ti), float(sigma_al))
        return cls(spec=pmap.spec, sigma=sigma)


def _bond_conductances(s: np.ndarray):
    """Internal bonds are series pairs of half-cells: g = 2 s1 s2/(s1+s2).
    Electrode bonds are single half-cells: g = 2 s."""
    gh = 2.0 * s[:, :-1] * s[:, 1:] / (s[:, :-1] + s[:, 1:])
    gv = 2.0 * s[:-1, :] * s[1:, :] / (s[:-1, :] + s[1:, :])
    gl = 2.0 * s[:, 0]
    gr = 2.0 * s[:, -1]
    return gh, gv, gl, gr


def _oriented(c: ConductivityMap, axis: str) -> np.ndarray:
    """sigma with the driven axis along columns (the y axis is transposed)."""
    if axis == "x":
        return c.sigma
    if axis == "y":
        return c.sigma.T
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def _electrode_current(s: np.ndarray) -> float:
    """Current through the left electrode for unit voltage left->right,
    insulating top/bottom.

    Exact column-by-column Schur complement from the right electrode to the
    left: with A_j the Kirchhoff block of column j and G_j = diag(gh[:, j])
    its coupling to column j+1, S <- A_j - G_j S^-1 G_j carries the
    Dirichlet-to-Neumann map of everything right of column j.  The source is
    nonzero only on column 0, so S_0 V_0 = gl closes the solve.  Memory is
    O(ny^2) and time O(nx ny^3).
    """
    ny, nx = s.shape
    gh, gv, gl, gr = _bond_conductances(s)
    diag = np.zeros_like(s)
    diag[:, :-1] += gh
    diag[:, 1:] += gh
    diag[:-1, :] += gv
    diag[1:, :] += gv
    diag[:, 0] += gl
    diag[:, -1] += gr

    def add_block(j: int, S: np.ndarray) -> np.ndarray:
        flat = S.reshape(-1)
        flat[::ny + 1] += diag[:, j]
        flat[1::ny + 1] -= gv[:, j]
        flat[ny::ny + 1] -= gv[:, j]
        return S

    S = add_block(nx - 1, np.zeros((ny, ny)))
    for j in range(nx - 2, -1, -1):
        g = gh[:, j]
        # -g[:, None] * inv(S) * g, scaled in place in the same order
        S = np.linalg.inv(S)
        np.multiply(-g[:, None], S, out=S)
        S *= g
        S = add_block(j, S)
    V0 = np.linalg.solve(S, gl)
    return float((gl * (1.0 - V0)).sum())


def effective_sheet_resistance(c: ConductivityMap, axis: str) -> float:
    """Sheet resistance (per square) for current driven along `axis` with
    unit potential difference across the opposing edges.

    Bond conductances are harmonic means of adjacent cell sigma; electrode
    coupling uses the half-cell bond 2*sigma so a uniform map gives exactly
    1/sigma per square.  The raw V/I resistance is normalized by
    width/length to squares.  Raises LinearSolveError when the network
    carries no usable current: a singular block, or a current that is not
    finite and positive.
    """
    s = _oriented(c, axis)
    ny, nx = s.shape
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            current = _electrode_current(s)
    except (np.linalg.LinAlgError, FloatingPointError) as err:
        raise LinearSolveError(f"Kirchhoff elimination failed: {err}") from err
    if not (math.isfinite(current) and current > 0.0):
        raise LinearSolveError(f"Kirchhoff solve gave electrode current {current!r}")
    return (1.0 / current) * (ny / nx)


def dense_sheet_resistance(c: ConductivityMap, axis: str) -> float:
    """Direct dense solve of the same Kirchhoff system; oracle for grids
    up to 32x32."""
    s = _oriented(c, axis)
    ny, nx = s.shape
    n = nx * ny
    if n > 32 * 32:
        raise ValueError(f"dense oracle limited to 1024 cells, got {n}")
    gh, gv, gl, gr = _bond_conductances(s)

    A = np.zeros((n, n))
    b = np.zeros(n)

    def k(i, j):
        return i * nx + j

    for i in range(ny):
        for j in range(nx - 1):
            g = gh[i, j]
            a, c2 = k(i, j), k(i, j + 1)
            A[a, a] += g
            A[c2, c2] += g
            A[a, c2] -= g
            A[c2, a] -= g
    for i in range(ny - 1):
        for j in range(nx):
            g = gv[i, j]
            a, c2 = k(i, j), k(i + 1, j)
            A[a, a] += g
            A[c2, c2] += g
            A[a, c2] -= g
            A[c2, a] -= g
    for i in range(ny):
        A[k(i, 0), k(i, 0)] += gl[i]
        b[k(i, 0)] += gl[i] * 1.0
        A[k(i, nx - 1), k(i, nx - 1)] += gr[i]

    V = np.linalg.solve(A, b).reshape(ny, nx)
    current = float((gl * (1.0 - V[:, 0])).sum())
    return (1.0 / current) * (ny / nx)


# ---------------------------------------------------------------------------
# Snapshot report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisRow:
    time: float
    char_length: float
    ti_fraction: float
    n_clusters: int
    largest_cluster: int
    spans_x: bool
    spans_y: bool
    R_eff_x: float
    R_eff_y: float


def analyze_fields(items, x_c: float = 0.5, sigma_ti: float = 1.0,
                   sigma_al: float = 1e-4, threads: int = 1) -> list[AnalysisRow]:
    """One AnalysisRow per (time, field) pair of `items`, in input order
    (Ti-rich phase throughout).

    The R_eff solves, one per field and axis, dominate the cost and are
    independent, so up to `threads` worker threads run them (LAPACK releases
    the GIL).  Each solve is computed the same way whichever thread runs it,
    so the rows do not depend on `threads`.  The first failing solve in input
    order raises.
    """
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    rows, cmaps = [], []
    for time, f in items:
        pmap = PhaseMap.from_field(f, x_c)
        labeling = label_clusters(pmap, Phase.TI_RICH)
        rows.append(dict(
            time=time,
            char_length=characteristic_length(f),
            ti_fraction=pmap.fraction(Phase.TI_RICH),
            n_clusters=labeling.n_clusters,
            largest_cluster=labeling.largest,
            spans_x=spans(labeling, "x"),
            spans_y=spans(labeling, "y"),
        ))
        cmaps.append(ConductivityMap.from_phase_map(pmap, sigma_ti, sigma_al))
    # two solves per field, in the order (field 0, x), (field 0, y), (field 1, x), ...
    job_maps = [c for c in cmaps for _ in range(2)]
    job_axes = ["x", "y"] * len(cmaps)
    workers = min(threads, len(job_maps))
    if workers <= 1:
        r_eff = list(map(effective_sheet_resistance, job_maps, job_axes))
    else:
        # imported here: the serial path, and every other subcommand, never pays for it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            r_eff = list(pool.map(effective_sheet_resistance, job_maps, job_axes))
    return [AnalysisRow(**row, R_eff_x=rx, R_eff_y=ry)
            for row, rx, ry in zip(rows, r_eff[0::2], r_eff[1::2])]


def analyze_field(f: ScalarField2D, time: float, x_c: float = 0.5,
                  sigma_ti: float = 1.0, sigma_al: float = 1e-4) -> AnalysisRow:
    """All per-snapshot descriptors of one field (see analyze_fields)."""
    return analyze_fields([(time, f)], x_c, sigma_ti, sigma_al)[0]


def write_report_csv(path, rows) -> None:
    write_table_csv(path, REPORT_HEADER, map(astuple, rows))
