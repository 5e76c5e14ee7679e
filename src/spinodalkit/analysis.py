"""Microstructure descriptors for two-phase composition fields.

Four families of diagnostics:

* spectral — a characteristic domain length from the first moment of the
  power spectrum (numpy FFT; any grid size);
* clustering — connected components of a 2-D boolean phase mask under
  4-connectivity (scipy.ndimage.label), with spanning tests;
* percolation — a Monte Carlo site-percolation threshold estimate from the
  exact spanning onset of each trial: labellings narrow a bracket of ranks
  around it, and a union-find sweep over the last bracket's cells finishes
  it; the trial stacks run on a thread per usable core;
* transport — effective sheet resistance of a 2-D array of per-cell
  conductivities from an exact Kirchhoff solve with harmonic-mean bond
  conductances, by column-by-column elimination at O(nx*ny^3) time and
  O(ny^2) memory; each column's block is inverted by a recursive 2x2
  Schur-complement split whose work is matmul (_spd_inverse).

analyze_fields reports all four for a batch of ScalarField2D snapshots,
from each one's Ti-rich mask x >= x_c and its two-valued conductivity
array; its R_eff solves, one per snapshot and axis, are swept in stacks of
same-shape maps on a pool of usable cores // BLAS threads workers, so
that pool threads and BLAS threads together never ask for more than the
usable cores.  Percolation and the R_eff solves cut their work with
_cut and map it in order with _map_in_order.

Clustering and spanning use non-periodic boundaries (electrodes break
periodicity) even though the underlying composition field is periodic;
the mismatch is deliberate and only affects edge-touching clusters.  One
test, _spanning, reads a map's first and last rows; R_eff keeps an axis's
edges in columns (_oriented), so `spans` turns that map with .T.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import fields as _fields
from .fields import NumericalFailure, ScalarField2D, write_table_csv

__all__ = [
    "LinearSolveError",
    "ClusterLabeling",
    "AnalysisRow",
    "characteristic_length",
    "label_clusters",
    "spans",
    "percolation_threshold_mc",
    "effective_sheet_resistance",
    "analyze_field",
    "analyze_fields",
    "write_report_csv",
    "REPORT_HEADER",
]

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
    A constant field has no finite length scale: L = inf.
    """
    v = f.values
    if float(v.max()) == float(v.min()):
        return math.inf
    spectrum = np.abs(np.fft.fft2(v - v.mean())) ** 2
    kx = 2.0 * np.pi * np.fft.fftfreq(f.spec.nx, d=f.spec.h)
    ky = 2.0 * np.pi * np.fft.fftfreq(f.spec.ny, d=f.spec.h)
    kmag = np.hypot(ky[:, None], kx[None, :])
    mask = kmag > 0.0
    s = spectrum[mask]
    return float(2.0 * np.pi * s.sum() / (kmag[mask] * s).sum())


# ---------------------------------------------------------------------------
# Cluster labeling and spanning
# ---------------------------------------------------------------------------

def _grid_array(a, dtype) -> np.ndarray:
    """a as an array of dtype; it must be 2-D with a cell on each axis."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or 0 in a.shape:
        raise ValueError(f"expected a 2-D array with at least one cell on "
                         f"each axis, got shape {a.shape}")
    return a


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


def label_clusters(mask: np.ndarray) -> ClusterLabeling:
    """Connected components of the True cells of a 2-D boolean mask under
    4-connectivity (non-periodic).  Every True cell gets exactly one
    positive label; sizes sum to the True cell count."""
    # scipy.ndimage is imported on first use: it adds ~60 ms (~15%) to the
    # CLI's start-up, which every subcommand pays, while only analysis needs it
    from scipy import ndimage
    labels = ndimage.label(_grid_array(mask, bool))[0]
    return ClusterLabeling(labels=labels, sizes=np.bincount(labels.ravel())[1:])


def _oriented(a: np.ndarray, axis: str) -> np.ndarray:
    """a 2-D grid array with `axis` along its rows, so columns 0 and -1 are the
    edges it joins (y is transposed), as R_eff needs; `spans` turns it to rows."""
    if axis == "x":
        return a
    if axis == "y":
        return a.T
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def _spanning(labels: np.ndarray, count: int) -> np.ndarray:
    """Whether each image of a (k, m, n) label stack (labels 0..count, no
    positive one in two images) has one positive label on its first and last rows."""
    on_first = np.zeros(count + 1, dtype=bool)
    on_first[labels[:, 0]] = True
    on_first[0] = False
    return on_first[labels[:, -1]].any(axis=1)


def spans(labeling: ClusterLabeling, axis: str) -> bool:
    """True iff some single cluster touches both opposite edges along axis
    ('x': left and right columns; 'y': top and bottom rows).  _spanning
    reads rows, so the map _oriented gives (edges in columns) is turned."""
    turned = _oriented(labeling.labels, axis).T[None]
    return bool(_spanning(turned, labeling.n_clusters)[0])


# ---------------------------------------------------------------------------
# Stacks and workers
# ---------------------------------------------------------------------------

def _blas_threads() -> int:
    """Threads each BLAS call may use: the first positive integer among
    OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, else one per
    usable core (OpenBLAS's default).  The package sets none of them."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return n
    return _fields._usable_cores()


def _cut(jobs: list, per_stack: int, workers: int) -> list[list]:
    """jobs cut, in order, into at least min(workers, len(jobs)) contiguous
    stacks of at most per_stack jobs each, whose sizes differ by at most one."""
    n = max(min(workers, len(jobs)), -(-len(jobs) // per_stack))
    return [jobs[i * len(jobs) // n:(i + 1) * len(jobs) // n] for i in range(n)]


def _map_in_order(fn, stacks: list, workers: int) -> list:
    """[fn(stack) for stack in stacks], on up to `workers` threads; with one
    worker, or one stack, no pool is made."""
    workers = min(workers, len(stacks))
    if workers <= 1:
        return list(map(fn, stacks))
    # imported here: the serial path, and every other subcommand, never pays for it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, stacks))


# Trial cells labelled by one ndimage.label call in percolation_threshold_mc;
# at L=64 the per-call Python overhead outweighs the labelling itself, so
# trials are stacked up to this size (a trial larger than it is labelled alone)
_LABEL_CHUNK_CELLS = 2 ** 16


# Site-percolation threshold of the infinite square lattice (Newman & Ziff,
# PRL 85, 4104 (2000)); each trial's onset search starts there
_P_C = 0.592746


# A field of n cells is finished by _sweep_onset once its onset bracket holds
# at most max(1, n // _SWEEP_SHARE) ranks.  The sweep holds the interpreter
# lock, so a wider one slows the thread pool more than its saved labellings
# gain (BENCH_percolation_sweep.json)
_SWEEP_SHARE = 64


def _sweep_onset(u: np.ndarray, labels: np.ndarray, above, upto):
    """The smallest value v of the (ny, nx) field u such that the cells with
    u <= v span top to bottom, given that the cells u <= above do not span,
    that the cells u <= upto do, and `labels`, the 4-connected clusters of
    the cells u <= above (0 background, any distinct positive ids).

    The cells above < u <= upto are added in value order to a union-find
    over those clusters (Newman & Ziff, PRL 85, 4104 (2000)), and the value
    of the first cell whose set touches both the top and the bottom row is
    returned: the cells added before it, with the clusters, are the occupied
    set of every threshold below it, and none of those spans.
    """
    ny, nx = u.shape
    flat = u.ravel()
    cells = np.flatnonzero((flat > above) & (flat <= upto))
    cells = cells[np.argsort(flat[cells], kind="stable")]
    # ids on the grid with a blank border, rows of w cells: the i-th cell
    # added gets first + i, so the cells not yet added have ids above the
    # adding cell's; 0 is the border and the background
    w = nx + 2
    ids = np.zeros((ny + 2) * w, dtype=np.intp)
    ids.reshape(ny + 2, w)[1:-1, 1:-1] = labels
    first = int(labels.max()) + 1
    at = cells + 2 * (cells // nx) + (w + 1)
    ids[at] = np.arange(first, first + cells.size)
    neighbours = ids[at[:, None] + (-w, w, -1, 1)].tolist()
    # edge bits of each root: 1 touches the top row, 2 the bottom row; no
    # cluster touches both, as the cells u <= above do not span
    edges = dict.fromkeys(labels[-1].tolist(), 2)
    edges.update(dict.fromkeys(labels[0].tolist(), 1))
    edges.pop(0, None)
    bottom = (ny - 1) * nx
    parent = {}
    for me, (cell, around) in enumerate(zip(cells.tolist(), neighbours), first):
        bits = (cell < nx) + 2 * (cell >= bottom)
        for b in around:
            if not 0 < b < me:
                continue
            path = []
            while b in parent:
                path.append(b)
                b = parent[b]
            for a in path:
                parent[a] = me
            if b != me:
                parent[b] = me
                bits |= edges.pop(b, 0)
        if bits == 3:
            return flat[cell]
        edges[me] = bits
    raise AssertionError("the cells u <= upto do not span")


def _spanning_onsets(u: np.ndarray) -> np.ndarray:
    """For each field u[i] of a (k, ny, nx) stack, the smallest value v of
    u[i] such that the cells with u[i] <= v span top to bottom.

    Spanning is monotone in the rank of v among the field's sorted values,
    so any search that keeps a bracket [lo, hi] (ranks below lo do not span,
    rank hi does) and probes inside [lo, hi - 1] ends on the exact onset.
    The first probe is rank floor(p_c * n) of the n = ny * nx values.  Until
    a field has both a spanning and a non-spanning probe, each next probe
    steps from the last one in the direction its result points, by a step
    that starts near the onset's spread (n**(5/8) / 2 ranks, from
    finite-size scaling with nu = 4/3) and doubles every round; the bracket
    is then bisected.  Every field ends in _sweep_onset, once its bracket
    holds at most max(1, n // _SWEEP_SHARE) ranks (one rank included), from
    the clusters of its last non-spanning probe (an empty grid while it has
    none): the window v[lo - 1] < u <= v[hi] is chosen by value, so tied
    values give the onset the search would.

    Every round labels the fields whose onset is still open in one
    ndimage.label call on their (k', ny, nx) stack of masks, under the 2-D
    cross as a structure that joins no two fields; _spanning reads each
    field by its first and last rows, as `spans` reads its turned map.
    """
    from scipy import ndimage
    apart = np.zeros((3, 3, 3), dtype=bool)
    apart[1] = ndimage.generate_binary_structure(2, 1)
    k, ny, nx = u.shape
    n = ny * nx
    onsets = np.empty(k, dtype=u.dtype)
    live = np.arange(k)
    v = np.sort(u.reshape(k, n), axis=1)
    lo = np.zeros(k, dtype=np.intp)
    hi = np.full(k, n - 1)    # u <= max(u) occupies every cell and spans
    probe = np.full(k, int(_P_C * n))
    step = max(1, int(n ** 0.625 / 2))
    base = np.zeros((k, ny, nx), dtype=np.int32)    # labels of u <= v[lo - 1]
    while True:
        sweep = hi - lo < max(1, n // _SWEEP_SHARE)
        for i in np.flatnonzero(sweep):
            above = v[i, lo[i] - 1] if lo[i] else -np.inf
            onsets[live[i]] = _sweep_onset(u[i], base[i], above, v[i, hi[i]])
        if sweep.any():
            keep = ~sweep
            live, u, v, lo, hi, probe, base = (
                a[keep] for a in (live, u, v, lo, hi, probe, base))
        if not live.size:
            return onsets
        m = np.clip(probe, lo, hi - 1)
        labels, count = ndimage.label(
            u <= v[np.arange(live.size), m][:, None, None], apart)
        span = _spanning(labels, count)
        base[~span] = labels[~span]
        hi = np.where(span, m, hi)
        lo = np.where(span, lo, m + 1)
        # lo > 0 once a probe failed to span, hi < n - 1 once one spanned
        bracketed = (lo > 0) & (hi < n - 1)
        probe = np.where(bracketed, (lo + hi) // 2,
                         np.where(span, m - step, m + step))
        step = min(2 * step, n)


def percolation_threshold_mc(L: int, trials: int, seed: int) -> tuple[float, float]:
    """Site-percolation spanning threshold on an L x L grid, 4-connectivity.

    Each trial draws one uniform field u from its own child of
    SeedSequence(seed), so runs with different seeds share no trials.  The
    trial's estimate is the exact top-to-bottom spanning onset of u (see
    _spanning_onsets): about 3.5 labellings at L=64 and 2.3 at L=256 narrow
    it to a bracket of at most L*L // 64 ranks, and a union-find sweep over
    that bracket's cells gives the same value as labelling them would.  The
    trials are cut into stacks of at most _LABEL_CHUNK_CELLS trial cells, at
    least one per usable core, which a thread per core labels (ndimage.label
    releases the interpreter lock).
    A trial's onset is the same in any stack and the estimates are taken in
    trial order, so the result does not depend on the core count.  Returns
    the trial mean and its standard error.
    """
    if L < 32:
        raise ValueError(f"grid size must be >= 32, got {L}")
    if trials < 50:
        raise ValueError(f"trial count must be >= 50, got {trials}")
    children = np.random.SeedSequence(seed).spawn(trials)
    workers = _fields._usable_cores()
    stacks = _cut(children, max(1, _LABEL_CHUNK_CELLS // (L * L)), workers)

    def onsets(stack) -> np.ndarray:
        u = np.empty((len(stack), L, L))
        for trial, child in zip(u, stack):
            np.random.default_rng(child).random(out=trial)
        return _spanning_onsets(u)

    estimates = np.concatenate(_map_in_order(onsets, stacks, workers))
    p_hat = float(estimates.mean())
    stderr = float(estimates.std(ddof=1) / math.sqrt(trials))
    return p_hat, stderr


# ---------------------------------------------------------------------------
# Effective sheet resistance (random resistor network)
# ---------------------------------------------------------------------------

def _positive_finite(sigma: np.ndarray) -> np.ndarray:
    if not (np.isfinite(sigma) & (sigma > 0)).all():
        raise ValueError("all conductivities must be positive and finite")
    return sigma


def _bond_conductances(s: np.ndarray):
    """Internal bonds are series pairs of half-cells: g = 2 s1 s2/(s1+s2).
    Electrode bonds are single half-cells: g = 2 s.  s is one (ny, nx) map
    or a (k, ny, nx) stack of them."""
    gh = 2.0 * s[..., :-1] * s[..., 1:] / (s[..., :-1] + s[..., 1:])
    gv = 2.0 * s[..., :-1, :] * s[..., 1:, :] / (s[..., :-1, :] + s[..., 1:, :])
    gl = 2.0 * s[..., 0]
    gr = 2.0 * s[..., -1]
    return gh, gv, gl, gr


# Blocks up to this order are inverted by np.linalg.inv; larger ones are
# split in two by _spd_inverse
_INV_BASE = 32


def _spd_inverse(S: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, or of each matrix of
    a (..., n, n) stack.

    np.linalg.inv solves against an identity right-hand side, which costs
    several matrix products of the same order.  Above _INV_BASE, S is split
    2x2 at h = n//2 into [[A, B], [B^T, C]] and inverted blockwise
    (Banachiewicz): with the Schur complement D = C - B^T A^-1 B,

        S^-1 = [[A^-1 + A^-1 B D^-1 B^T A^-1, -A^-1 B D^-1],
                [-D^-1 B^T A^-1,              D^-1        ]],

    recursing on A and D, so the work above the base case is matmul.  A and
    D of an SPD matrix are SPD, so no pivoting is needed; a singular block
    raises np.linalg.LinAlgError from the base case.
    """
    n = S.shape[-1]
    if n <= _INV_BASE:
        return np.linalg.inv(S)
    h = n // 2
    B = S[..., :h, h:]
    A_inv = _spd_inverse(S[..., :h, :h])
    AB = A_inv @ B                                        # A^-1 B
    D_inv = _spd_inverse(S[..., h:, h:] - np.swapaxes(B, -1, -2) @ AB)
    out = np.empty_like(S)
    X = np.matmul(AB, D_inv, out=out[..., :h, h:])        # A^-1 B D^-1
    np.matmul(X, np.swapaxes(AB, -1, -2), out=out[..., :h, :h])
    out[..., :h, :h] += A_inv
    X *= -1.0
    out[..., h:, :h] = np.swapaxes(X, -1, -2)
    out[..., h:, h:] = D_inv
    return out


def _electrode_currents(gh, gv, gl, gr) -> np.ndarray:
    """Current through the left electrode for unit voltage left->right,
    insulating top/bottom, for each network of a stack of k: bonds gh
    (k, ny, nx-1) within rows, gv (k, ny-1, nx) within columns, and gl, gr
    (k, ny) to the left and right electrodes (see _bond_conductances).

    Exact column-by-column Schur complement from the right electrode to the
    left: with A_j the Kirchhoff block of column j and G_j = diag(gh[:, j])
    its coupling to column j+1, S <- A_j - G_j S^-1 G_j carries the
    Dirichlet-to-Neumann map of everything right of column j.  The source is
    nonzero only on column 0, so S_0 V_0 = gl closes the solve.

    The current sum(gl (1 - V_0)) cancels when column 0 conducts well, so it
    is taken from the leak l_j, the part of S_j's row sums that flows right:
    S_j 1 = gh[:, j-1] + l_j (gl for j = 0), with l_{nx-1} = gr and
    l_j = G_j S_{j+1}^-1 l_{j+1}.  Then 1 - V_0 = S_0^-1 l_0, a sum of
    non-negative terms.  The k maps are swept in lockstep, one (k, ny, ny)
    block per column; each map's current is computed exactly as it would be
    alone.  Memory is O(k ny^2) and time O(k nx ny^3).
    """
    k, ny = gl.shape
    nx = gv.shape[-1]
    diag = np.zeros((k, ny, nx))
    diag[..., :-1] += gh
    diag[..., 1:] += gh
    diag[..., :-1, :] += gv
    diag[..., 1:, :] += gv
    diag[..., 0] += gl
    diag[..., -1] += gr

    def add_block(j: int, S: np.ndarray) -> np.ndarray:
        flat = S.reshape(k, -1)
        flat[:, ::ny + 1] += diag[..., j]
        flat[:, 1::ny + 1] -= gv[..., j]
        flat[:, ny::ny + 1] -= gv[..., j]
        return S

    S = add_block(nx - 1, np.zeros((k, ny, ny)))
    leak = gr
    for j in range(nx - 2, -1, -1):
        g = gh[..., j]
        S = _spd_inverse(S)
        leak = g * (S @ leak[..., None])[..., 0]
        # -G S^-1 G for each map: rows scaled by -g, then columns by g, in place
        np.multiply(-g[:, :, None], S, out=S)
        S *= g[:, None, :]
        S = add_block(j, S)
    return (gl * np.linalg.solve(S, leak[..., None])[..., 0]).sum(axis=-1)


def _sheet_resistances(s: np.ndarray) -> np.ndarray:
    """Sheet resistance per square of each map of a (k, ny, nx) stack of
    oriented maps (see _oriented).  Raises LinearSolveError when the sweep
    fails: a singular block, a floating-point exception, or a current that
    is not finite and positive."""
    _, ny, nx = s.shape
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            current = _electrode_currents(*_bond_conductances(s))
    except (np.linalg.LinAlgError, FloatingPointError) as err:
        raise LinearSolveError(f"Kirchhoff elimination failed: {err}") from err
    bad = current[~(np.isfinite(current) & (current > 0.0))]
    if bad.size:
        raise LinearSolveError(f"Kirchhoff solve gave electrode current {float(bad[0])!r}")
    return (1.0 / current) * (ny / nx)


def effective_sheet_resistance(sigma: np.ndarray, axis: str) -> float:
    """Sheet resistance (per square) of `sigma`, a 2-D array of positive
    finite conductivities, between electrodes on the edges `axis` joins.

    Bond conductances are harmonic means of adjacent cell sigma; electrode
    coupling uses the half-cell bond 2*sigma so a uniform map gives 1/sigma
    per square up to the elimination's rounding, which grows with the map:
    a 16^2 map of sigma = 1e-4 gives 10000.000000000022, a 64^2 map of
    sigma = 1 gives 1 + 8.0e-15.  The raw V/I resistance is normalized by
    width/length to squares.  Raises LinearSolveError when the network
    carries no usable current: a singular block, or a current that is not
    finite and positive.
    """
    s = _positive_finite(_grid_array(sigma, np.float64))
    return float(_sheet_resistances(_oriented(s, axis)[None])[0])


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


REPORT_HEADER = ",".join(f.name for f in fields(AnalysisRow))


# Entries k*ny*ny of the (k, ny, ny) elimination blocks of one stack of R_eff
# solves in analyze_fields: 64^2 maps go up to 64 to a stack and 256^2 up to
# 4, and from 512^2 on every solve runs alone, so a large solve's peak memory
# is that of one map
_REFF_STACK_ENTRIES = 2 ** 18


def _reff_stacks(shapes, workers: int) -> list[list[int]]:
    """Indices into `shapes`, the oriented shapes of the R_eff solves, cut
    into stacks for _sheet_resistances.

    Each group of same-shape solves is cut by _cut, in input order, into at
    least min(workers, group size) stacks of at most _REFF_STACK_ENTRIES
    block entries.
    """
    groups = {}
    for j, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(j)
    stacks = []
    for (ny, _), jobs in groups.items():
        stacks += _cut(jobs, max(1, _REFF_STACK_ENTRIES // (ny * ny)), workers)
    return stacks


def analyze_fields(items, x_c: float = 0.5, sigma_ti: float = 1.0,
                   sigma_al: float = 1e-4) -> list[AnalysisRow]:
    """One AnalysisRow per (time, field) pair of `items`, in input order
    (Ti-rich phase throughout).

    The R_eff solves, one per field and axis, dominate the cost and are
    independent.  Solves of the same oriented shape are swept together in
    stacks (see _reff_stacks), which max(1, usable cores // BLAS threads)
    pool threads take (BLAS and LAPACK release the GIL).  A solve gives the
    same bits in any stack and on any thread, so the rows do not depend on
    the worker count.  A failing solve raises LinearSolveError.
    """
    _positive_finite(np.array([sigma_ti, sigma_al], dtype=np.float64))
    rows, sigmas = [], []
    for time, f in items:
        ti_rich = f.values >= x_c
        labeling = label_clusters(ti_rich)
        rows.append(dict(
            time=time,
            char_length=characteristic_length(f),
            ti_fraction=float(ti_rich.mean()),
            n_clusters=labeling.n_clusters,
            largest_cluster=labeling.largest,
            spans_x=spans(labeling, "x"),
            spans_y=spans(labeling, "y"),
        ))
        sigmas.append(np.where(ti_rich, float(sigma_ti), float(sigma_al)))
    # two solves per field, in the order (field 0, x), (field 0, y), (field 1, x), ...
    oriented = [_oriented(s, axis) for s in sigmas for axis in ("x", "y")]
    # pool threads, each running BLAS on _blas_threads() threads, that ask for
    # more threads than there are usable cores are slower than one worker
    workers = max(1, _fields._usable_cores() // _blas_threads())
    stacks = _reff_stacks([s.shape for s in oriented], workers)

    def solve(stack: list[int]) -> list[float]:
        return _sheet_resistances(np.stack([oriented[j] for j in stack])).tolist()

    r_eff = [0.0] * len(oriented)
    for stack, values in zip(stacks, _map_in_order(solve, stacks, workers)):
        for j, value in zip(stack, values):
            r_eff[j] = value
    return [AnalysisRow(**row, R_eff_x=rx, R_eff_y=ry)
            for row, rx, ry in zip(rows, r_eff[0::2], r_eff[1::2])]


def analyze_field(f: ScalarField2D, time: float, x_c: float = 0.5,
                  sigma_ti: float = 1.0, sigma_al: float = 1e-4) -> AnalysisRow:
    """All per-snapshot descriptors of one field (see analyze_fields)."""
    return analyze_fields([(time, f)], x_c, sigma_ti, sigma_al)[0]


def write_report_csv(path, rows) -> None:
    write_table_csv(path, REPORT_HEADER, map(astuple, rows))
