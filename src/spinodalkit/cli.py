"""Command-line front end.

Subcommands: simulate | analyze | transport | fit-hc2 | fit-resonance |
fit-sigma | render.  Exit codes are a stable scripting contract:
0 success, 1 usage error, 2 data/parse error, 3 numerical failure.

All randomness flows from the config seed (or --seed override); outputs
are byte-identical across repeated runs and across --threads values.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

# Only what every subcommand needs is imported here.  Each `_cmd_*` imports
# the package modules it uses when it runs, as modules (`from . import
# fitting`), so callers and tracers that patch a module attribute still see
# every call.
from .config import ConfigError, RunConfig, load_config
from .fields import (DataFormatError, GridSpec, NumericalFailure, gaussian_field,
                     read_snapshot_csv, write_snapshot_csv, write_table_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_SNAP_RE = re.compile(r"^snap_t(.+)\.csv$")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(s: str) -> int:
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}")
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _positive_float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {s!r}")
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {s}")
    return v


def _resolve_threads(value: int | None) -> int:
    """--threads, else SPINODALKIT_THREADS, else 1.  The cap never changes
    results; only `analyze` uses workers (its R_eff solves), the other
    subcommands check the value and ignore it."""
    if value is None:
        raw = os.environ.get("SPINODALKIT_THREADS", "1")
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"SPINODALKIT_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise ConfigError(f"thread count must be >= 1, got {value}")
    return value


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    return cfg


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    from . import solver, thermo
    cfg = _load_run_config(args)
    out = _out_dir(cfg.out_dir)
    spec = GridSpec(cfg.nx, cfg.ny, cfg.h)
    init = gaussian_field(spec, cfg.mean, cfg.variance, cfg.seed)
    params = solver.SolverParams(
        D=cfg.D, kappa=cfg.kappa, dt=cfg.dt, n_steps=cfg.n_steps,
        snapshot_times=cfg.snapshot_times, diag_stride=cfg.diag_stride,
        force_dt=args.force_dt)
    model = thermo.GibbsModel()
    try:
        result = solver.run(init, params, model)
    except solver.StabilityError as err:
        if err.partial is not None:
            for t, snap in err.partial.snapshots.items():
                write_snapshot_csv(snap, out / solver.snapshot_filename(t))
            solver.write_diagnostics_csv(out / "diagnostics.csv",
                                         err.partial.diagnostics)
        if err.last_stable is not None:
            write_snapshot_csv(err.last_stable, out / "snap_last_stable.csv")
            print(f"wrote last stable field to {out / 'snap_last_stable.csv'}",
                  file=sys.stderr)
        raise
    for t, snap in sorted(result.snapshots.items()):
        write_snapshot_csv(snap, out / solver.snapshot_filename(t))
    solver.write_diagnostics_csv(out / "diagnostics.csv", result.diagnostics)
    print(f"simulate: {len(result.snapshots)} snapshots, {result.n_steps} steps "
          f"(dt={result.dt:g}) -> {out}")
    return EXIT_OK


def _snapshot_paths(in_path: Path) -> list[tuple[float, Path]]:
    """(time, path) of each snapshot to read, by time.  The time comes from
    a snap_t<time>.csv name (0 for a single file named otherwise); it must
    be finite, and no two files may name the same time."""
    if in_path.is_dir():
        found = []
        for p in sorted(in_path.iterdir()):
            m = _SNAP_RE.match(p.name)
            if m:
                try:
                    found.append((float(m.group(1)), p))
                except ValueError:
                    continue
        if not found:
            raise DataFormatError(f"{in_path}: no snap_t*.csv files found")
    else:
        m = _SNAP_RE.match(in_path.name)
        try:
            found = [(float(m.group(1)) if m else 0.0, in_path)]
        except ValueError:
            raise DataFormatError(f"{in_path}: snapshot time {m.group(1)!r} "
                                  "in the file name is not a number") from None
    for t, p in found:
        if not math.isfinite(t):
            raise DataFormatError(f"{p}: snapshot time {t!r} in the file name "
                                  "is not finite")
    found.sort()
    for (t, p), (t_next, p_next) in zip(found, found[1:]):
        if t == t_next:
            raise DataFormatError(f"{p} and {p_next}: both name snapshot time {t:g}")
    return found


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _warn_if_oversubscribed(workers: int) -> None:
    """One stderr line when `workers` pool threads, each running BLAS on its
    own BLAS threads, ask for more threads than there are usable cores:
    such a run is slower than a serial one.  The package sets no BLAS
    thread count, so an unset one is taken as one per core (OpenBLAS's
    default)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cores = os.cpu_count() or 1
    blas = cores
    for var in _BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            blas = n
            break
    if workers > 1 and workers * blas > cores:
        print(f"spinodalkit analyze: warning: {workers} pool workers x {blas} BLAS "
              f"threads exceed {cores} usable cores, which is slower than a "
              "serial run; set OPENBLAS_NUM_THREADS=1 or lower --threads",
              file=sys.stderr)


def _cmd_analyze(args) -> int:
    from . import analysis
    cfg = _load_run_config(args)
    out = _out_dir(cfg.out_dir)
    paths = _snapshot_paths(Path(args.in_path))
    # analyze_fields runs two R_eff solves per snapshot on min(threads, solves) workers
    _warn_if_oversubscribed(min(args.threads, 2 * len(paths)))
    snapshots = ((t, read_snapshot_csv(path)) for t, path in paths)
    rows = analysis.analyze_fields(snapshots, x_c=cfg.x_c, sigma_ti=cfg.sigma_ti,
                                   sigma_al=cfg.sigma_al, threads=args.threads)
    report = out / "report.csv"
    analysis.write_report_csv(report, rows)
    print(f"analyze: {len(rows)} snapshots -> {report}")
    return EXIT_OK


def _cmd_transport(args) -> int:
    from . import transport
    out = _out_dir(args.out or ".")
    records = transport.read_transport_csv(args.in_path)
    derived = [transport.derive_transport(r) for r in records]
    report = out / "transport_report.csv"
    transport.write_transport_report_csv(report, derived)
    for d in derived:
        e = d.electrons
        print(f"{d.record.label}: n_e={e.n_e:.4g} m^-3  L_k={d.L_k:.4g} H/sq  "
              f"l={e.l:.4g} m  kF*l={e.kF_l:.4g}")
    print(f"transport: {len(derived)} films -> {report}")
    return EXIT_OK


def _write_fit_outputs(result, out: Path, stem: str) -> int:
    from . import fitting
    path = out / f"{stem}.csv"
    fitting.write_fit_csv(path, result)
    print(fitting.fit_report_text(result))
    print(f"fit: report -> {path}")
    return EXIT_OK if result.converged else EXIT_NUMERIC


def _cmd_fit_hc2(args) -> int:
    from . import fitting
    out = _out_dir(args.out or ".")
    T, muH = fitting.read_xy_csv(args.in_path, ("T_K", "muH_T"))
    if args.model == "gl":
        result = fitting.fit_gl_hc2(T, muH)
    else:
        if args.tc is None:
            print("spinodalkit fit-hc2: --tc is required for --model powerlaw",
                  file=sys.stderr)
            return EXIT_USAGE
        result = fitting.fit_powerlaw_hc2(T, muH, args.tc)
    return _write_fit_outputs(result, out, f"fit_hc2_{args.model}")


def _cmd_fit_resonance(args) -> int:
    from . import fitting
    out = _out_dir(args.out or ".")
    f, s21 = fitting.read_s21_csv(args.in_path)
    if (np.abs(s21) == 0).any():
        raise DataFormatError(f"{args.in_path}: |S21| = 0 sample cannot be inverted")
    result = fitting.fit_resonance(f, 1.0 / s21)
    return _write_fit_outputs(result, out, "fit_resonance")


def _cmd_fit_sigma(args) -> int:
    from . import fitting
    out = _out_dir(args.out or ".")
    T, sigma = fitting.read_xy_csv(args.in_path, ("T_K", "sigma"))
    regimes = fitting.fit_conductivity_regimes(T, sigma)
    path = out / "fit_sigma.csv"
    hi, lo = regimes.high_T, regimes.low_T
    write_table_csv(path, "window,abscissa,slope,intercept,r_squared",
                    [("high_T", "T", hi.slope, hi.intercept, hi.r_squared),
                     ("low_T", "sqrt_T", lo.slope, lo.intercept, lo.r_squared)])
    print(f"high-T window {regimes.high_window}: sigma = {hi.slope:.6g}*T + "
          f"{hi.intercept:.6g}  (R^2={hi.r_squared:.6f})")
    print(f"low-T window {regimes.low_window}: sigma = {lo.slope:.6g}*sqrt(T) + "
          f"{lo.intercept:.6g}  (R^2={lo.r_squared:.6f})")
    print(f"fit: report -> {path}")
    return EXIT_OK


def _cmd_render(args) -> int:
    from . import render
    out = _out_dir(args.out or ".")
    targets = _snapshot_paths(Path(args.in_path))
    for _, path in targets:
        f = read_snapshot_csv(path)
        dest = out / (path.stem + ".ppm")
        render.render_ppm(f, dest)
        print(f"render: {path} -> {dest}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinodalkit",
                     description="Spinodal-decomposition simulator and "
                                 "superconducting transport analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *, config=False, infile=False, seed=False,
            force_dt=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        if config:
            p.add_argument("--config", help="INI-style run configuration")
        if infile:
            p.add_argument("--in", dest="in_path", required=True,
                           help="input file (or snapshot directory)")
        p.add_argument("--out", help="output directory")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=_positive_int,
                       help="worker cap; only analyze uses workers "
                            "(results are thread-count independent)")
        if force_dt:
            p.add_argument("--force-dt", action="store_true",
                           help="bypass the dt stability ceiling")
        return p

    add("simulate", _cmd_simulate, "run the phase-field solver",
        config=True, seed=True, force_dt=True)
    add("analyze", _cmd_analyze, "microstructure report from snapshots",
        config=True, infile=True)
    add("transport", _cmd_transport, "derive carrier/superconducting parameters",
        infile=True)
    p_hc2 = add("fit-hc2", _cmd_fit_hc2, "fit an Hc2(T) trace", infile=True)
    p_hc2.add_argument("--model", choices=("gl", "powerlaw"), default="gl")
    p_hc2.add_argument("--tc", type=_positive_float,
                       help="fixed T_c for the power-law model (K)")
    add("fit-resonance", _cmd_fit_resonance, "fit a complex S21 trace",
        infile=True)
    add("fit-sigma", _cmd_fit_sigma, "fit conductivity temperature regimes",
        infile=True)
    add("render", _cmd_render, "convert snapshots to PPM images", infile=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on the first call, then reused, since
    building the subcommand tree costs about as much as a film-data command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.threads = _resolve_threads(args.threads)
        return args.func(args)
    # numeric failures first: some of them are also ValueErrors
    except (NumericalFailure, np.linalg.LinAlgError) as err:
        print(f"spinodalkit {args.command}: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as err:  # bad input: config, data files, values
        print(f"spinodalkit {args.command}: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
