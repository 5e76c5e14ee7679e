import threading

import numpy as np
import pytest
import scipy.ndimage
from numpy.testing import assert_allclose

from spinodalkit import analysis
from spinodalkit.analysis import (REPORT_HEADER, ClusterLabeling,
                                  analyze_field,
                                  analyze_fields, characteristic_length,
                                  effective_sheet_resistance,
                                  label_clusters, percolation_threshold_mc,
                                  spans, write_report_csv)
from spinodalkit.fields import GridSpec, ScalarField2D, gaussian_field
from spinodalkit.solver import SolverParams, run


def field(vals, h=1.0):
    vals = np.asarray(vals, dtype=float)
    ny, nx = vals.shape
    return ScalarField2D(GridSpec(nx, ny, h), vals)


@pytest.mark.parametrize("m,h", [(4, 1.0), (2, 0.5), (8, 2.0)])
def test_characteristic_length_single_mode(m, h):
    # one Fourier mode along x: S(k) concentrates at |k| = 2*pi*m/(nx*h),
    # so the spectral length is exactly one wavelength
    nx = ny = 64
    i = np.arange(nx)
    vals = 0.5 + 0.1 * np.cos(2 * np.pi * m * i / nx)
    f = field(np.tile(vals, (ny, 1)), h=h)
    assert_allclose(characteristic_length(f), nx * h / m, rtol=1e-12)


def test_characteristic_length_invariances():
    f = gaussian_field(GridSpec(64, 64), 0.48, 1e-3, seed=9)
    res = run(f, SolverParams(n_steps=2000, snapshot_times=()))
    g = res.final
    ref = characteristic_length(g)
    rolled = g.with_values(np.roll(np.roll(g.values, 11, axis=0), -5, axis=1))
    assert_allclose(characteristic_length(rolled), ref, rtol=1e-10)
    assert_allclose(characteristic_length(g.with_values(1.0 - g.values)),
                    ref, rtol=1e-10)


def test_characteristic_length_needs_structure():
    # a constant field has no finite length scale
    for value in (0.5, 0.48, 0.0):
        assert characteristic_length(field(np.full((16, 12), value))) == np.inf


def test_phase_map_threshold_and_fraction():
    f = field([[0.2, 0.5, 0.7, 0.49],
               [0.51, 0.0, 1.0, 0.3],
               [0.9, 0.499, 0.5001, 0.1],
               [0.6, 0.4, 0.8, 0.2]])
    expected = np.array([[False, True, True, False],
                         [True, False, True, False],
                         [True, False, True, False],
                         [True, False, True, False]])
    # the Ti-rich cells are x >= x_c: 0.5 is in, 0.499 and 0.49 are out
    row = analyze_fields([(0.0, f)], x_c=0.5)[0]
    assert row.ti_fraction == expected.mean() == 0.5
    assert row.n_clusters == label_clusters(expected).n_clusters
    assert analyze_fields([(0.0, f)], x_c=0.5001)[0].ti_fraction == 7 / 16


def test_phase_map_shape_check():
    # label_clusters takes a 2-D mask with a cell on each axis
    for shape in ((4,), (0, 4), (4, 0)):
        with pytest.raises(ValueError, match="2-D array"):
            label_clusters(np.zeros(shape, dtype=bool))


def pmap(mask):
    return np.asarray(mask, dtype=bool)


def test_label_clusters_trivial_cases():
    empty = label_clusters(pmap(np.zeros((4, 4))))
    assert empty.n_clusters == 0 and empty.largest == 0
    full = label_clusters(pmap(np.ones((4, 4))))
    assert full.n_clusters == 1 and full.largest == 16
    checker = np.indices((6, 6)).sum(axis=0) % 2 == 0
    lab = label_clusters(pmap(checker))
    assert lab.n_clusters == 18  # 4-connectivity: no diagonal joins
    assert lab.largest == 1


def test_label_clusters_matches_scipy():
    rng = np.random.default_rng(42)
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    for _ in range(50):
        mask = rng.random((rng.integers(4, 40), rng.integers(4, 40))) < 0.55
        ours = label_clusters(pmap(mask))
        ref, n_ref = scipy.ndimage.label(mask, structure=structure)
        assert ours.n_clusters == n_ref
        assert ours.sizes.sum() == mask.sum()
        assert sorted(ours.sizes) == sorted(np.bincount(ref.ravel())[1:])
        # same partition: each of our labels maps to exactly one of theirs
        if n_ref:
            pairs = np.unique(
                np.stack([ours.labels[mask], ref[mask]]), axis=1)
            assert pairs.shape[1] == n_ref


def test_label_clusters_row_major_first_touch_order():
    # the right arm of the U (column 2) is reached by the scan before the
    # two arms join, yet it carries the label of the U's first cell; the
    # diagonal neighbours in the bottom-left corner stay apart
    mask = np.array([[1, 0, 1, 0, 1],
                     [1, 0, 1, 0, 1],
                     [1, 1, 1, 0, 1],
                     [0, 0, 0, 0, 1],
                     [1, 0, 1, 1, 1],
                     [0, 1, 0, 0, 0]])
    expected = np.array([[1, 0, 1, 0, 2],
                         [1, 0, 1, 0, 2],
                         [1, 1, 1, 0, 2],
                         [0, 0, 0, 0, 2],
                         [3, 0, 2, 2, 2],
                         [0, 4, 0, 0, 0]])
    lab = label_clusters(pmap(mask))
    assert np.array_equal(lab.labels, expected)
    assert lab.sizes.tolist() == [7, 7, 1, 1]


def test_labels_cover_phase_exactly():
    rng = np.random.default_rng(7)
    mask = rng.random((30, 30)) < 0.5
    lab = label_clusters(pmap(mask))
    assert np.array_equal(lab.labels > 0, mask)


def test_spans_stripes():
    column = np.zeros((5, 5), dtype=bool)
    column[:, 2] = True
    lab = label_clusters(pmap(column))
    assert spans(lab, "y") and not spans(lab, "x")
    row = np.zeros((5, 5), dtype=bool)
    row[2, :] = True
    lab = label_clusters(pmap(row))
    assert spans(lab, "x") and not spans(lab, "y")
    lab = label_clusters(pmap(np.ones((5, 5))))
    assert spans(lab, "x") and spans(lab, "y")
    with pytest.raises(ValueError):
        spans(lab, "z")


def test_spans_requires_single_connected_cluster():
    # both edges touched, but by different clusters
    broken = np.zeros((5, 5), dtype=bool)
    broken[0, :] = True
    broken[-1, :] = True
    lab = label_clusters(pmap(broken))
    assert not spans(lab, "y")


def test_percolation_threshold_small_grid():
    mean, err = percolation_threshold_mc(L=32, trials=50, seed=3)
    assert 0.54 < mean < 0.65
    assert 0.0 < err < 0.02
    again = percolation_threshold_mc(L=32, trials=50, seed=3)
    assert again == (mean, err)


# (p_hat, stderr) of the one-trial-at-a-time bisection these replaced; the
# stacked trials and the search from p_c must reproduce them bit for bit.
# 53 trials at L=64 leave a short last stack.
PINNED_PERCOLATION = {
    (32, 50, 3): (0.5946146049857497, 0.005292661303568006),
    (64, 50, 0): (0.5857329763125021, 0.0029524661817944336),
    (64, 53, 11): (0.5910570947362138, 0.003085239829171695),
    (128, 50, 5): (0.594658876616574, 0.002055235098436597),
}


@pytest.mark.parametrize("args", list(PINNED_PERCOLATION),
                         ids=["-".join(map(str, a)) for a in PINNED_PERCOLATION])
def test_percolation_estimates_are_pinned(args):
    assert percolation_threshold_mc(*args) == PINNED_PERCOLATION[args]


# c13's (L, trials, seed) and its pair, which the serial stacks gave
PINNED_PERCOLATION_C13 = {(256, 200, 7): (0.5931243666930983, 0.0005199187860314177)}


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_percolation_estimates_do_not_depend_on_the_core_count(monkeypatch, cores):
    monkeypatch.setattr("spinodalkit.fields._usable_cores", lambda: cores)
    for args, pinned in {**PINNED_PERCOLATION, **PINNED_PERCOLATION_C13}.items():
        assert percolation_threshold_mc(*args) == pinned


def test_percolation_stacks_run_on_a_thread_per_core(monkeypatch):
    # the first stack on each thread waits until a second thread has one:
    # only a pool of two workers gets past the barrier
    monkeypatch.setattr("spinodalkit.fields._usable_cores", lambda: 2)
    spanning_onsets = analysis._spanning_onsets
    barrier = threading.Barrier(2, timeout=30.0)
    idents = set()

    def rendezvous(u):
        if threading.get_ident() not in idents:
            idents.add(threading.get_ident())
            barrier.wait()
        return spanning_onsets(u)

    monkeypatch.setattr(analysis, "_spanning_onsets", rendezvous)
    assert percolation_threshold_mc(L=64, trials=53, seed=11) == PINNED_PERCOLATION[(64, 53, 11)]
    assert len(idents) == 2 and threading.get_ident() not in idents


def test_percolation_labels_stacks_of_at_most_2_16_cells(monkeypatch):
    # every label call holds a stack of at most 16 trials of 64^2 (2^16
    # trial cells), under a structure that joins no two trials, and only
    # trials whose onset is still open; one worker keeps the calls in order
    monkeypatch.setattr("spinodalkit.fields._usable_cores", lambda: 1)
    stacks, results, calls = [], [], []
    spanning_onsets, label = analysis._spanning_onsets, scipy.ndimage.label

    def record_stack(u):
        stacks.append(u)
        results.append(spanning_onsets(u))
        return results[-1]

    def record_label(masks, structure, *args, **kwargs):
        calls.append((len(stacks) - 1, masks.copy(), structure.copy()))
        return label(masks, structure, *args, **kwargs)

    monkeypatch.setattr(analysis, "_spanning_onsets", record_stack)
    monkeypatch.setattr(scipy.ndimage, "label", record_label)
    percolation_threshold_mc(L=64, trials=53, seed=11)
    monkeypatch.undo()
    # balanced: 4 stacks are needed, and 53 trials cut into 4 give 13/13/13/14
    assert [len(u) for u in stacks] == [13, 13, 13, 14]
    first_trial = np.cumsum([0] + [len(u) for u in stacks])

    fields = [f for u in stacks for f in u]
    v = [np.sort(f.ravel()) for f in fields]
    onset = [int(np.searchsorted(s, _per_field_onset(f)))
             for s, f in zip(v, fields)]
    assert np.concatenate(results).tolist() == [s[r] for s, r in zip(v, onset)]
    probes = [[] for _ in fields]     # ranks each trial was labelled at
    for stack, masks, structure in calls:
        assert masks.shape[1:] == (64, 64) and 1 <= len(masks) <= 16
        # only the middle plane joins cells: none of a trial's to another's
        assert structure.shape == (3, 3, 3) and not structure[[0, 2]].any()
        # the masks are trials of this stack, in stack order
        trial = first_trial[stack]
        for mask in masks:
            rank = int(mask.sum()) - 1
            while not np.array_equal(mask, fields[trial] <= v[trial][rank]):
                trial += 1
            probes[trial].append(rank)
            trial += 1
    n, width = 64 * 64, 64 * 64 // 64
    for r, seen in zip(onset, probes):
        # [lo, hi] is the bracket the probes so far leave around r
        lo, hi = 0, n - 1
        for rank in seen:
            # each probe lies in the open bracket of the earlier ones, and
            # none is made once that bracket is closed or narrow
            assert lo <= rank < hi and hi - lo + 1 > width
            if rank >= r:
                hi = rank
            else:
                lo = rank + 1
        # the sweep finishes a bracket of at most n // 64 ranks unlabelled
        assert lo <= r <= hi
        assert lo == hi or hi - lo + 1 <= width
    # the bisection over all 4096 ranks took 12 passes per trial, and the
    # search without the sweep 9.1
    assert sum(map(len, probes)) <= 4 * len(fields)


def test_spanning_onset_is_exact():
    # only column 5 holds values below 0.9, so the cells u <= v first span
    # top to bottom when v reaches that column's maximum
    rng = np.random.default_rng(11)
    u = 0.9 + 0.1 * rng.random((32, 32))
    column = 0.1 * rng.random(32)
    u[:, 5] = column
    assert analysis._spanning_onsets(u[None])[0] == column.max()
    # only row 17 holds values above 0.99: every other cell is in before
    # any of it, and the first cell of that row completes a spanning path
    u = 0.99 * rng.random((32, 32))
    row = 0.99 + 0.01 * rng.random(32)
    u[17] = row
    assert analysis._spanning_onsets(u[None])[0] == row.min()


def _per_field_onset(u):
    # the one-field bisection with a 2-D label and an intersect1d span test
    v = np.sort(u.ravel())
    lo, hi = 0, v.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        labels = scipy.ndimage.label(u <= v[mid])[0]
        if (np.intersect1d(labels[0], labels[-1]) > 0).any():
            hi = mid
        else:
            lo = mid + 1
    return v[lo]


def test_stacked_onsets_match_per_field_bisection():
    rng = np.random.default_rng(5)
    stacks = [rng.random((k, 32, 32)) for k in range(1, 6)]
    stacks += [rng.random((3, 32, 48)), rng.random((3, 48, 32)),
               rng.random((3, 33, 97))]
    # heavy ties (30 levels), and correlated fields (cumulative sums)
    stacks += [rng.integers(0, 30, (4, 40, 48)) / 30,
               rng.integers(0, 30, (2, 64, 64)) / 30,
               np.cumsum(rng.random((3, 48, 40)) - 0.5, axis=2)
               + np.cumsum(rng.random((3, 48, 40)) - 0.5, axis=1)]
    # 256^2: the sweep finishes a bracket of up to 1024 ranks
    stacks.append(rng.random((1, 256, 256)))
    # "leak" stack: even fields are low only in their top 20 rows, odd ones
    # only in their bottom 20; a structure linking neighbouring fields would
    # join the overlap and let each odd field span at a low value
    leak = 0.5 + 0.5 * rng.random((4, 32, 32))
    leak[0::2, :20] = 0.1 * rng.random((2, 20, 32))
    leak[1::2, -20:] = 0.1 * rng.random((2, 20, 32))
    # onsets far from p_c: one low column spans at rank ny - 1 (a long
    # search down), one high row holds the onset at rank n - nx (a long
    # search up); mixed with random fields, the trials finish in different
    # rounds
    column = 0.9 + 0.1 * rng.random((32, 32))
    column[:, 7] = 0.1 * rng.random(32)
    row = 0.99 * rng.random((32, 32))
    row[20] = 0.99 + 0.01 * rng.random(32)
    mixed = np.stack([rng.random((32, 32)), row, column, rng.random((32, 32)),
                      leak[1]])
    # the onset cell (15, 5) joins a low column on the top rows to a low
    # block on the bottom rows: both are clusters of the last non-spanning
    # probe, one touching only the top row and one only the bottom row
    bridge = 0.9 + 0.1 * rng.random((32, 32))
    bridge[16:] = 0.01 + 0.09 * rng.random((16, 32))
    bridge[16, 5] = 0.01
    bridge[:15, 5] = 0.01 * rng.random(15)
    bridge[15, 5] = 0.5
    # on 8 x 106 the search steps down to a spanning probe of rank 7, a
    # bracket within n // 64 = 13 ranks before any probe failed: the sweep
    # starts from an empty grid
    wide = 0.9 + 0.1 * rng.random((8, 106))
    wide[:, 40] = 0.1 * rng.random(8)
    # fields under 128 cells, where n // 64 <= 1: the sweep closes a bracket
    # of one rank; continuous values, 1000 and 3 levels, and constant fields
    small = [draw((k, ny, nx)) for ny, nx in
             ((1, 1), (1, 6), (6, 1), (2, 9), (9, 2), (4, 4), (5, 7), (8, 8), (11, 11))
             for k in (1, 3)
             for draw in (rng.random, lambda shape: rng.integers(0, 1000, shape) / 1000,
                          lambda shape: rng.integers(0, 3, shape) / 3, np.ones)]
    # each field's first and last rows hold its lowest values, so every probe
    # occupies both: a structure joining field i's last row to field i + 1's
    # first row would let field i span at its first probe
    edges = 0.1 + 0.9 * rng.random((4, 40, 48))
    edges[:, [0, -1]] = 0.01 * rng.random((4, 2, 48))
    for u in stacks + small + [leak, column[None], row[None], mixed,
                               bridge[None], wide[None], edges]:
        expected = [_per_field_onset(field) for field in u]
        assert analysis._spanning_onsets(u).tolist() == expected
    assert (analysis._spanning_onsets(leak) > 0.5).all()
    assert analysis._spanning_onsets(bridge[None])[0] == 0.5
    assert analysis._spanning_onsets(wide[None])[0] == wide[:, 40].max()


def test_every_onset_ends_in_one_sweep(monkeypatch):
    # each field of a stack is finished by exactly one _sweep_onset call,
    # whether its bracket closes at one rank or at n // 64 ranks; on fields
    # under 128 cells every bracket the sweep gets holds one rank: the cells
    # above the last non-spanning value and tied at the onset
    calls = []
    sweep_onset = analysis._sweep_onset

    def record(u, labels, above, upto):
        calls.append((u.tobytes(), above, upto, sweep_onset(u, labels, above, upto)))
        return calls[-1][-1]

    monkeypatch.setattr(analysis, "_sweep_onset", record)
    rng = np.random.default_rng(9)
    column = 0.9 + 0.1 * rng.random((32, 32))
    column[:, 7] = 0.1 * rng.random(32)
    mixed = np.stack([rng.random((32, 32)), column,
                      rng.integers(0, 3, (32, 32)) / 3, np.ones((32, 32))])
    small = np.concatenate([rng.random((3, 5, 7)),
                            rng.integers(0, 3, (3, 5, 7)) / 3, np.ones((1, 5, 7))])
    for u in (mixed, small):
        calls.clear()
        onsets = analysis._spanning_onsets(u)
        finished = {key: onset for key, _, _, onset in calls}
        assert len(calls) == len(finished) == len(u)
        assert [finished[f.tobytes()] for f in u] == onsets.tolist()
    for f, onset in zip(small, onsets):
        _, above, upto, _ = next(c for c in calls if c[0] == f.tobytes())
        assert upto == onset and above == f[f < onset].max(initial=-np.inf)


def test_spanning_onset_decides_spans_on_solver_snapshots(monkeypatch):
    # x >= x_c spans along an axis iff x_c <= -w, w the onset of -x with
    # that axis turned top to bottom: one search answers every x_c
    sweeps = []
    sweep_onset = analysis._sweep_onset

    def count_sweep(*args):
        sweeps.append(args)
        return sweep_onset(*args)

    monkeypatch.setattr(analysis, "_sweep_onset", count_sweep)
    # a square map, and a 48 x 40 one (ny = 40): `spans` turns each axis
    # of a non-square map to rows
    snapshots = []
    for spec in (GridSpec(32, 32), GridSpec(48, 40)):
        f = gaussian_field(spec, 0.48, 1e-3, seed=3)
        res = run(f, SolverParams(snapshot_times=(0.0, 10.0)))
        snapshots += [res.snapshots[0.0].values, res.snapshots[10.0].values]
    assert snapshots[-1].shape == (40, 48)
    for x in snapshots:
        for axis in ("x", "y"):
            top = -analysis._spanning_onsets(-analysis._oriented(x, axis).T[None])[0]
            levels = [top, np.nextafter(top, np.inf), x.min(), x.max(),
                      *np.quantile(x, [0.1, 0.3, 0.5, 0.7, 0.9])]
            for x_c in levels:
                assert spans(label_clusters(x >= x_c), axis) == (top >= x_c)
    assert sweeps


def test_percolation_trials_of_nearby_seeds_are_independent(monkeypatch):
    seen = []

    def record(u):
        seen.extend(field.tobytes() for field in u)
        return u.mean(axis=(1, 2))

    monkeypatch.setattr(analysis, "_spanning_onsets", record)
    percolation_threshold_mc(L=32, trials=50, seed=3)
    fields3, seen[:] = set(seen), []
    percolation_threshold_mc(L=32, trials=50, seed=4)
    fields4 = set(seen)
    assert len(fields3) == len(fields4) == 50
    assert not fields3 & fields4


def test_percolation_threshold_validates_arguments():
    with pytest.raises(ValueError):
        percolation_threshold_mc(L=16, trials=50, seed=0)
    with pytest.raises(ValueError):
        percolation_threshold_mc(L=32, trials=10, seed=0)


def test_analyze_field_and_report_csv(tmp_path):
    f = gaussian_field(GridSpec(32, 32), 0.48, 1e-3, seed=5)
    res = run(f, SolverParams(n_steps=3000, snapshot_times=()))
    row = analyze_field(res.final, time=15.0)
    assert row.time == 15.0
    assert 0.0 < row.ti_fraction < 1.0
    assert row.n_clusters >= 1
    assert row.largest_cluster <= row.ti_fraction * 32 * 32 + 0.5
    assert row.R_eff_x > 0 and row.R_eff_y > 0

    path = tmp_path / "report.csv"
    write_report_csv(path, [row])
    lines = path.read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    parts = lines[1].split(",")
    assert float(parts[0]) == 15.0
    assert float(parts[1]) == row.char_length
    assert parts[5] in {"0", "1"} and parts[6] in {"0", "1"}


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_analyze_fields_rows_are_in_input_order(set_workers, workers):
    # fields of different shapes, so a row or axis taken from the wrong
    # solve cannot match the direct calls
    items = [(float(t), gaussian_field(GridSpec(nx, ny), 0.45, 0.01, seed=t))
             for t, (nx, ny) in enumerate([(16, 12), (12, 20), (24, 16)])]
    set_workers(workers)
    rows = analyze_fields(items, x_c=0.5, sigma_ti=2.0, sigma_al=1e-3)
    assert [r.time for r in rows] == [0.0, 1.0, 2.0]
    for row, (t, f) in zip(rows, items):
        assert row == analyze_field(f, t, x_c=0.5, sigma_ti=2.0, sigma_al=1e-3)
        cmap = np.where(f.values >= 0.5, 2.0, 1e-3)
        assert row.R_eff_x == effective_sheet_resistance(cmap, "x")
        assert row.R_eff_y == effective_sheet_resistance(cmap, "y")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_analyze_fields_stacks_same_shape_solves(set_workers, workers):
    # 40 > 32: the block inverse runs, and the eight solves share one shape,
    # so they are swept in stacks whose cut depends on `workers`
    items = [(float(t), gaussian_field(GridSpec(40, 40), 0.47, 0.01, seed=30 + t))
             for t in range(4)]
    set_workers(workers)
    rows = analyze_fields(items)
    for row, (t, f) in zip(rows, items):
        cmap = np.where(f.values >= 0.5, 1.0, 1e-4)
        assert row.R_eff_x == effective_sheet_resistance(cmap, "x")
        assert row.R_eff_y == effective_sheet_resistance(cmap, "y")


def test_analyze_fields_edge_cases():
    assert analyze_fields([]) == []

    def unread():
        raise AssertionError("a field was read")
        yield

    # the conductivities are checked before the first field is taken
    for sigma_al in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            analyze_fields(unread(), sigma_al=sigma_al)
    with pytest.raises(ValueError, match="2-D array"):
        label_clusters(np.ones((4, 4, 1), dtype=bool))
