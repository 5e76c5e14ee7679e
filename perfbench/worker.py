"""Benchmark worker: one fresh process that imports the package and runs
one workload's passes for a fixed time.

    python3 perfbench/worker.py --workload NAME --work DIR --seconds S --trace 0|1

`run.py` starts it with PYTHONPATH set to the checkout's `src` and reads
`DIR/result.json` when it exits.  Passes stop once the next one would end
past S seconds, after at least the workload's minimum.  With --trace 1 the
passes alternate untraced and traced, starting untraced, and the spans of
the traced ones are written to `DIR/spans.jsonl`.  Outputs are checked by
the parent afterwards, never here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS


def reference_time(wl) -> float:
    """Median of three timings of the workload's reference kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        wl.reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs commands of one pass, timing each and recording exit codes."""

    def __init__(self, cli, tracer: Tracer | None):
        self._cli = cli
        self.tracer = tracer
        self.phases: dict[str, float] = {}
        self.commands: list[list] = []
        self.values: list = []

    def _timed(self, phase, label, fn):
        idx = self.tracer.begin(label) if self.tracer else None
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, value = fn()
        except SystemExit as exc:
            code, value = exc.code if isinstance(exc.code, int) else 1, None
        except Exception as exc:   # a crashing command is a failed operation
            code, value = -1, repr(exc)
        dt = time.perf_counter() - t0
        if idx is not None:
            self.tracer.end(idx)
        self.phases[phase] = self.phases.get(phase, 0.0) + dt
        self.commands.append([phase, label, code, dt])
        return value

    def cli(self, phase: str, argv: list[str]) -> None:
        self._timed(phase, f"cmd.{argv[0]}", lambda: (self._cli.main(argv), None))

    def call(self, phase: str, fn, *args):
        value = self._timed(phase, f"cmd.{fn.__name__}", lambda: (0, fn(*args)))
        self.values.append(value if isinstance(value, (list, tuple, str)) else None)
        return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import scipy
    import spinodalkit
    from spinodalkit import cli

    work = args.work
    wl = WORKLOADS[args.workload]
    spec = json.loads((work / "spec.json").read_text())
    prep = Runner(cli, None)
    state = wl.prepare(prep, work, spec)

    tracer = Tracer() if args.trace else None
    min_passes = max(wl.min_passes, 2 if args.trace else 1)
    passes = []
    start = time.perf_counter()
    ref_before = reference_time(wl)
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        out = work / f"pass{k}"
        out.mkdir()
        runner = Runner(cli, tracer if traced else None)
        if traced:
            tracer.pass_id = k
            tracer.install()
            root = tracer.begin("pass")
        t = time.perf_counter()
        wl.run_pass(runner, work, spec, out, k)
        wall = time.perf_counter() - t
        if traced:
            tracer.end(root)
            tracer.uninstall()
        ref_after = reference_time(wl)
        passes.append({"k": k, "traced": traced, "wall_s": wall,
                       "ref_s": 0.5 * (ref_before + ref_after), "dir": out.name,
                       "phases": runner.phases, "commands": runner.commands,
                       "values": runner.values})
        ref_before = ref_after
        k += 1
        elapsed = time.perf_counter() - start
        if k >= min_passes and elapsed + wall > args.seconds:
            break

    if tracer:
        tracer.write(work / "spans.jsonl")
    result = {
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "spinodalkit": spinodalkit.__version__},
        "prepare": {"commands": prep.commands, "state": state},
        "passes": passes,
        "missing_hooks": tracer.missing if tracer else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
