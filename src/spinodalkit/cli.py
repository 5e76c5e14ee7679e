"""Command-line front end.

Subcommands: simulate | analyze | transport | fit-hc2 | fit-resonance |
fit-sigma | render.  Exit codes are a stable scripting contract:
0 success, 1 usage error, 2 data/parse error, 3 numerical failure.

All randomness flows from the config seed (or --seed override); outputs
are byte-identical across repeated runs and worker counts.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

# Only what every subcommand needs is imported here.  Each `_cmd_*` imports
# the package modules it uses when it runs, as modules (`from . import
# fitting`), so callers and tracers that patch a module attribute still see
# every call.
from .config import RunConfig, load_config, section
from .fields import (SEED_LIMIT, DataFormatError, GridSpec, NumericalFailure,
                     gaussian_field, read_snapshot_csv, snapshot_filename,
                     snapshot_time, write_snapshot_csv, write_table_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_in(lo: int, hi: float):
    """An argparse type: an integer in [lo, hi)."""
    def parse(s: str) -> int:
        try:
            v = int(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {s!r}")
        if not lo <= v < hi:
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}), got {v}")
        return v
    return parse


def _positive_float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {s!r}")
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {s}")
    return v


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
    from . import solver
    cfg = _load_run_config(args)
    out = _out_dir(cfg.out_dir)
    init = gaussian_field(GridSpec(**section(cfg, "grid")), **section(cfg, "init"))
    params = solver.SolverParams(**section(cfg, "solver"), force_dt=args.force_dt)

    def write(result) -> None:
        for t, snap in sorted(result.snapshots.items()):
            write_snapshot_csv(snap, out / snapshot_filename(t))
        solver.write_diagnostics_csv(out / "diagnostics.csv", result.diagnostics)

    try:
        result = solver.run(init, params)
    except solver.StabilityError as err:   # the run diverged after it started
        write(err.partial)
        write_snapshot_csv(err.last_stable, out / "snap_last_stable.csv")
        print(f"wrote last stable field to {out / 'snap_last_stable.csv'}",
              file=sys.stderr)
        raise
    write(result)
    print(f"simulate: {len(result.snapshots)} snapshots, {result.n_steps} steps "
          f"(dt={result.dt:g}) -> {out}")
    return EXIT_OK


def _snapshot_paths(in_path: Path) -> list[tuple[float, Path]]:
    """(time, path) of each snapshot to read, by time.  The time comes from
    a snap_t<time>.csv name (0 for a single file named otherwise); it must
    be finite, and no two files may name the same time."""
    if in_path.is_dir():
        found = [(t, p) for p in sorted(in_path.iterdir())
                 if (t := snapshot_time(p)) is not None]
        if not found:
            raise DataFormatError(f"{in_path}: no snap_t*.csv files found")
    else:
        t = snapshot_time(in_path)
        found = [(0.0 if t is None else t, in_path)]
    found.sort()
    for (t, p), (t_next, p_next) in zip(found, found[1:]):
        if t == t_next:
            raise DataFormatError(f"{p} and {p_next}: both name snapshot time {t:g}")
    return found


def _cmd_analyze(args) -> int:
    from . import analysis
    cfg = _load_run_config(args)
    out = _out_dir(cfg.out_dir)
    snapshots = ((t, read_snapshot_csv(path))
                 for t, path in _snapshot_paths(Path(args.in_path)))
    rows = analysis.analyze_fields(snapshots, **section(cfg, "analysis"))
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
    if (args.model == "powerlaw") != (args.tc is not None):
        rule = "is required for" if args.tc is None else "applies only to"
        print(f"spinodalkit fit-hc2: --tc {rule} --model powerlaw", file=sys.stderr)
        return EXIT_USAGE
    out = _out_dir(args.out or ".")
    T, muH = fitting.read_xy_csv(args.in_path, ("T_K", "muH_T"))
    if args.model == "gl":
        result = fitting.fit_gl_hc2(T, muH)
    else:
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
    print(f"high-T window {fitting.HIGH_T_WINDOW}: sigma = {hi.slope:.6g}*T + "
          f"{hi.intercept:.6g}  (R^2={hi.r_squared:.6f})")
    print(f"low-T window {fitting.LOW_T_WINDOW}: sigma = {lo.slope:.6g}*sqrt(T) + "
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

    def add(name, fn, help_text, *, config=False, infile=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        if config:
            p.add_argument("--config", help="INI-style run configuration")
        if infile:
            p.add_argument("--in", dest="in_path", required=True,
                           help="input file (or snapshot directory)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threads", type=_int_in(1, math.inf), default=1,
                       help="accepted and checked, but changes nothing: "
                            "simulate and analyze size their own workers")
        return p

    p_sim = add("simulate", _cmd_simulate, "run the phase-field solver", config=True)
    p_sim.add_argument("--seed", type=_int_in(0, SEED_LIMIT),
                       help="override the config seed")
    p_sim.add_argument("--force-dt", action="store_true",
                       help="bypass the dt stability limit")
    add("analyze", _cmd_analyze, "microstructure report from snapshots",
        config=True, infile=True)
    add("transport", _cmd_transport, "derive carrier/superconducting parameters",
        infile=True)
    p_hc2 = add("fit-hc2", _cmd_fit_hc2, "fit an Hc2(T) trace", infile=True)
    p_hc2.add_argument("--model", choices=("gl", "powerlaw"), default="gl")
    p_hc2.add_argument("--tc", type=_positive_float,
                       help="fixed T_c of the power-law model (K); "
                            "required by it, refused by gl")
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
        return args.func(args)
    # numeric failures first: some of them are also ValueErrors
    except (NumericalFailure, np.linalg.LinAlgError) as err:
        print(f"spinodalkit {args.command}: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, MemoryError) as err:  # bad input: config, data, values, sizes
        print(f"spinodalkit {args.command}: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
