"""The four benchmark workloads: their inputs, made from a seed, and one pass.

Each workload has two sides:

* `make_inputs(work, seed, small)` runs in the benchmark's parent process.
  It writes every input file under `work` with numpy alone and returns a
  JSON-able `spec` for the worker plus the generating `truth` the
  verifiers compare against.  No data file is checked in.
* `prepare(runner, work, spec)` and `run_pass(runner, work, spec, out)` run
  in the worker process, which imports the package.  `prepare` is untimed;
  `run_pass` is one timed pass of the workload's commands.

`small=True` shrinks every workload for `selftest.py`.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# CODATA 2018 values, SI; the same published constants the program uses.
E_CHARGE = 1.602176634e-19
HBAR = 1.054571817e-34
K_B = 1.380649e-23
FLUX_QUANTUM = 2.067833848e-15
BCS_GAP_RATIO = 1.764


def _grid_config(n: int, times: tuple[float, ...]) -> str:
    return (f"[grid]\nnx = {n}\nny = {n}\n"
            f"[solver]\nsnapshot_times = {', '.join(f'{t:g}' for t in times)}\n")


# Reference kernels.  Each workload divides its pass time by the time of a
# fixed kernel doing the same kind of work, measured just before and after
# the pass; the kernels call nothing from the package, so only the machine's
# speed at the moment moves them.  A shared VM's speed wanders by 10-40%, and
# different work is hit differently (large-array numpy by memory traffic,
# interpreted code by the core), hence one kernel per kind of work.

def numpy_kernel(n: int, reps: int) -> None:
    """5-point stencils and a cubic on an n x n array, as the solver does."""
    v = np.linspace(0.0, 1.0, n * n).reshape(n, n)
    for _ in range(reps):
        out = np.roll(v, 1, axis=0)
        out += np.roll(v, -1, axis=0)
        out += np.roll(v, 1, axis=1)
        out += np.roll(v, -1, axis=1)
        out -= 4.0 * v
        out += v * (2.0 + v * (-6.0 + 4.0 * v))


def python_kernel(n: int) -> None:
    """Interpreted list and dict work, as union-find and argument parsing do."""
    parent = list(range(4096))
    counts: dict[int, int] = {}
    for i in range(n):
        a, b = (i * 7919) & 4095, (i * 104729) & 4095
        while parent[a] != a:
            a = parent[a]
        parent[b] = a
        counts[a] = counts.get(a, 0) + 1


def _solver_seed(seed: int) -> int:
    """The config accepts seeds >= 0; fold any benchmark seed into range."""
    return seed % (2 ** 32)


# ---------------------------------------------------------------------------
# coarsen: `simulate` on the default 256^2 grid with snapshots at t=0, 2, 5
# (1000 explicit steps at dt=0.005), alternating --threads 1 and 2.
# Why: the solver/fields/thermo kernels do ~90% of the work and snapshot
# writes ~10%.  It bypasses `analysis`, `render`, `fitting` and `transport`
# entirely, so it isolates the stepping core (Laplacian, G'(x), step,
# diagnostics) and the write side of snapshot I/O.  A step costs the same
# at any t, so t=5 stands for the t=50 run (10k steps, ~12 s) at a tenth of
# the length: a run then holds ~10 passes, whose median is steady on a
# shared machine where a single 12 s pass is not.
# ---------------------------------------------------------------------------

class Coarsen:
    name = "coarsen"
    min_passes = 2          # passes alternate --threads 1/2 for byte identity

    def make_inputs(self, work: Path, seed: int, small: bool):
        n, times = (32, (0.0, 2.0, 5.0)) if small else (256, (0.0, 2.0, 5.0))
        (work / "coarsen.ini").write_text(_grid_config(n, times))
        spec = {"config": "coarsen.ini", "seed": _solver_seed(seed),
                "n": n, "times": list(times)}
        truth = {"n": n, "times": times, "seed": _solver_seed(seed),
                 "mean": 0.48, "variance": 1e-3}
        return spec, truth

    def prepare(self, runner, work: Path, spec):
        return None

    def reference(self) -> None:
        numpy_kernel(256, 100)

    def run_pass(self, runner, work: Path, spec, out: Path, k: int):
        threads = "1" if k % 2 == 0 else "2"
        runner.cli("simulate", ["simulate", "--config", str(work / spec["config"]),
                                "--out", str(out), "--seed", str(spec["seed"]),
                                "--threads", threads])


# ---------------------------------------------------------------------------
# microstructure: `analyze` then `render` over the snapshots t=0, 10, 50 of
# four independent 64^2 runs, with --threads 2.  The snapshots are made once
# per invocation by `simulate` (untimed) and sha256-checked.
# Why: six Jacobi-PCG R_eff solves take ~95% of `analyze`; labelling and the
# spectral length take the rest.  The solver never runs.  The three maps
# differ (t=0 noise with ~500 clusters at 25% Ti, then coarsened maps with
# tens of clusters nearer 47% Ti), so labelling shape and solve conditioning
# vary.  It is the read side of snapshot I/O, where `coarsen` is the write
# side.  At 256^2 one `analyze` takes ~50 s and at 128^2 ~5.5 s; at 64^2 it
# takes ~0.5 s, but the PCG iteration counts of one run's maps vary by ~12%
# from seed to seed, so a pass averages four runs.
# ---------------------------------------------------------------------------

class Microstructure:
    name = "microstructure"
    min_passes = 2
    runs = 4

    def make_inputs(self, work: Path, seed: int, small: bool):
        n, times = (32, (0.0, 2.0, 5.0)) if small else (64, (0.0, 10.0, 50.0))
        (work / "micro.ini").write_text(_grid_config(n, times))
        spec = {"config": "micro.ini", "n": n, "times": list(times),
                "runs": {f"snaps/r{i}": _solver_seed(seed * self.runs + i)
                         for i in range(self.runs)}}
        truth = {"n": n, "times": times, "mean": 0.48, "variance": 1e-3,
                 "x_c": 0.5, "sigma_ti": 1.0, "sigma_al": 1e-4}
        return spec, truth

    def prepare(self, runner, work: Path, spec):
        hashes = {}
        for snaps, seed in spec["runs"].items():
            runner.cli("prepare", ["simulate", "--config", str(work / spec["config"]),
                                   "--out", str(work / snaps), "--seed", str(seed)])
            (work / snaps / "diagnostics.csv").unlink(missing_ok=True)
            hashes.update({str(p.relative_to(work)): sha256_file(p)
                           for p in sorted((work / snaps).glob("snap_t*.csv"))})
        return hashes

    def reference(self) -> None:
        numpy_kernel(64, 1200)    # PCG on 64^2 arrays: many small numpy calls

    def run_pass(self, runner, work: Path, spec, out: Path, k: int):
        for snaps in spec["runs"]:
            dst = out / Path(snaps).name
            runner.cli("analyze", ["analyze", "--in", str(work / snaps), "--out", str(dst),
                                   "--config", str(work / spec["config"]),
                                   "--threads", "2"])
            runner.cli("render", ["render", "--in", str(work / snaps),
                                  "--out", str(dst / "img"), "--threads", "2"])


# ---------------------------------------------------------------------------
# percolation: analysis.percolation_threshold_mc(L=64, trials=50).
# Why: union-find labelling on random near-critical masks, ~10 bisection
# steps per trial.  No I/O, no R_eff, no solver.  It is the labelling layer
# of `microstructure` used differently, so a labelling change that helps
# coarse maps and costs on critical ones shows here.  50 trials is the
# function's minimum; L=64 keeps one pass near 0.5 s (L=256 takes ~6 s), so
# a run holds enough passes for a steady median.
# ---------------------------------------------------------------------------

class Percolation:
    name = "percolation"
    min_passes = 2          # equal seeds must give equal estimates

    def make_inputs(self, work: Path, seed: int, small: bool):
        L = 64
        # The library seeds trial t with seed+t; spacing seeds 1000 apart
        # keeps neighbouring benchmark seeds from sharing trials.
        spec = {"L": L, "trials": 50, "seed": (seed % 2 ** 40) * 1000}
        truth = {"p_c": 0.593, "tol": 0.02}
        return spec, truth

    def prepare(self, runner, work: Path, spec):
        return None

    def reference(self) -> None:
        python_kernel(330_000)

    def run_pass(self, runner, work: Path, spec, out: Path, k: int):
        from spinodalkit import analysis
        runner.call("percolation", analysis.percolation_threshold_mc,
                    spec["L"], spec["trials"], spec["seed"])


# ---------------------------------------------------------------------------
# film_fits: 80 generated film data sets, each through `transport`,
# `fit-hc2 --model gl`, `fit-hc2 --model powerlaw`, `fit-resonance` and
# `fit-sigma` (400 commands, a few ms each).
# Why: the only workload that touches `fitting`, `transport` and the small
# CSV readers and writers; many short commands, so per-command overhead
# (argument parsing, file handling) shows.  It bypasses the solver and the
# microstructure analysis.  A fit convergence gate changes `n_iter` here and
# nowhere else.
# ---------------------------------------------------------------------------

class FilmFits:
    name = "film_fits"
    min_passes = 3
    # Noise is below the acceptance tests' (2% for Hc2, 1e-3 for S21) so that
    # the c08-c10 tolerances hold on every generated set, not just on average.
    HC2_NOISE = 0.005
    S21_NOISE = 2e-4
    SIGMA_NOISE = 0.001

    def make_inputs(self, work: Path, seed: int, small: bool):
        rng = np.random.default_rng(np.random.SeedSequence([seed % 2 ** 63, 2111]))
        n_sets = 4 if small else 80
        cases = []
        for i in range(n_sets):
            d = work / f"set{i:03d}"
            d.mkdir()
            cases.append(self._make_set(rng, d, i))
        spec = {"sets": [c["dir"] for c in cases],
                "tc_powerlaw": [c["powerlaw"]["T_c"] for c in cases]}
        return spec, cases

    def _make_set(self, rng, d: Path, i: int):
        case = {"dir": d.name}
        # transport: four films, Hall slope from a chosen carrier density
        films = []
        for j in range(4):
            f = {"label": f"film{i}_{j}", "d": float(rng.uniform(20e-9, 150e-9)),
                 "R_s": float(rng.uniform(5.0, 300.0)),
                 "T_c": float(rng.uniform(1.0, 5.0)),
                 "n_e": float(10 ** rng.uniform(28.0, 29.0))}
            f["hall_slope"] = 1.0 / (f["n_e"] * E_CHARGE * f["d"])
            films.append(f)
        case["films"] = films
        _write_rows(d / "films.csv", "label,d_m,Rs_ohm_sq,Tc_K,hall_slope_ohm_per_T",
                    [(f["label"], f["d"], f["R_s"], f["T_c"], f["hall_slope"])
                     for f in films])
        # GL Hc2(T): c08's 20-point trace around xi = 7.7 nm, Tc = 3.2 K
        xi, tc = float(rng.uniform(6e-9, 10e-9)), float(rng.uniform(2.8, 3.6))
        T = np.linspace(0.1, tc - 0.1, 20)
        mu_h = FLUX_QUANTUM / (2 * math.pi * xi ** 2) * (1 - (T / tc) ** 2)
        mu_h *= 1 + self.HC2_NOISE * rng.standard_normal(T.size)
        case["gl"] = {"xi_m": xi, "Tc_K": tc}
        _write_rows(d / "hc2_gl.csv", "T_K,muH_T", zip(T, mu_h))
        # power-law Hc2(T) at fixed Tc: c09's 60-point trace
        h0, a, b = float(rng.uniform(2.0, 3.0)), float(rng.uniform(3.0, 4.0)), \
            float(rng.uniform(0.9, 1.3))
        tc = float(rng.uniform(3.5, 4.0))
        T = np.linspace(0.1, tc - 0.1, 60)
        mu_h = h0 * (1 - (T / tc) ** a) ** b
        mu_h *= 1 + self.HC2_NOISE * rng.standard_normal(T.size)
        case["powerlaw"] = {"H0_T": h0, "alpha": a, "beta": b, "T_c": tc}
        _write_rows(d / "hc2_pl.csv", "T_K,muH_T", zip(T, mu_h))
        # inverse S21 of a notch resonator: c10's 201-point sweep of 10
        # linewidths, Q_i up to c10's 2.7e5.  Above ~3e5 the fit can stop at
        # max_iter without converging (see NOTES.md).
        qi, qc = float(rng.uniform(1.5e5, 2.7e5)), float(rng.uniform(0.5e5, 2e5))
        phi, f0 = float(rng.uniform(-0.3, 0.3)), float(rng.uniform(4e9, 8e9))
        f = np.linspace(f0 - 5 * f0 / qi, f0 + 5 * f0 / qi, 201)
        inv = 1 + (qi / qc) * np.exp(1j * phi) / (1 + 2j * qi * (f - f0) / f0)
        inv += self.S21_NOISE * (rng.standard_normal(f.size)
                                 + 1j * rng.standard_normal(f.size))
        s21 = 1.0 / inv
        case["resonance"] = {"Q_i": qi, "Q_c_star": qc, "phi_rad": phi, "f0_Hz": f0}
        _write_rows(d / "s21.csv", "f_Hz,re_S21,im_S21",
                    zip(f, s21.real, s21.imag))
        # sigma(T): linear in T above 80 K, linear in sqrt(T) below
        T = np.arange(5.0, 305.0, 5.0)
        hi = (float(rng.uniform(20.0, 60.0)), float(rng.uniform(0.05, 0.2)))
        lo = (float(rng.uniform(5.0, 15.0)), float(rng.uniform(2.0, 5.0)))
        sigma = np.where(T >= 80.0, hi[0] + hi[1] * T, lo[0] + lo[1] * np.sqrt(T))
        sigma *= 1 + self.SIGMA_NOISE * rng.standard_normal(T.size)
        case["sigma"] = {"high_slope": hi[1], "low_slope": lo[1]}
        _write_rows(d / "sigma.csv", "T_K,sigma", zip(T, sigma))
        return case

    def prepare(self, runner, work: Path, spec):
        return None

    def reference(self) -> None:
        # interpreted work only: a small-file kernel varied 3x run to run
        # on a shared 2-core VM, far more than the commands that write files
        python_kernel(330_000)

    def run_pass(self, runner, work: Path, spec, out: Path, k: int):
        for name, tc in zip(spec["sets"], spec["tc_powerlaw"]):
            src, dst = work / name, str(out / name)
            runner.cli("fits", ["transport", "--in", str(src / "films.csv"), "--out", dst])
            runner.cli("fits", ["fit-hc2", "--in", str(src / "hc2_gl.csv"),
                                "--model", "gl", "--out", dst])
            runner.cli("fits", ["fit-hc2", "--in", str(src / "hc2_pl.csv"),
                                "--model", "powerlaw", "--tc", repr(tc), "--out", dst])
            runner.cli("fits", ["fit-resonance", "--in", str(src / "s21.csv"),
                                "--out", dst])
            runner.cli("fits", ["fit-sigma", "--in", str(src / "sigma.csv"),
                                "--out", dst])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_rows(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else repr(float(x))
                              for x in row) + "\n")


WORKLOADS = {w.name: w for w in (Coarsen(), Microstructure(), Percolation(),
                                 FilmFits())}
