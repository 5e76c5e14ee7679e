"""spinodalkit benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere inside a checkout; the package is imported from the
checkout's `src`.  Steps:

1. set-up: import `spinodalkit.cli` in fresh processes, four before the
   worker and three after it (`setup_s` is the median import time);
2. make the workload's inputs from the seed (untimed);
3. start one fresh worker process (`worker.py`) that runs timed passes of
   the workload for S seconds, tracing every other pass with --trace 1;
4. check every output against an independent oracle (`verify.py`).

Workloads are in `workloads.py`.  With --trace 0 the result carries the
end-to-end metrics; with --trace 1 the per-layer ones.  The last line of
stdout is the JSON result; a readable summary, the machine facts and any
failed check go to stderr.  The full record of the run is written to
`.perfbench/result-<workload>-seed<N>-trace<T>.json` and, with --trace 1,
the spans to `.perfbench/trace-<workload>-seed<N>.jsonl`.

Exit code 0 when the run completed (whether or not every check passed);
1 when set-up or the worker failed; 2 when the checkout has no package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import UNITS as LAYER_UNITS, layer_metrics, read_spans
from verify import verify
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = (4, 3)    # fresh-process imports before and after the worker
DEADLINE_S = 170.0
# one worker on 2 cores: keep BLAS/OpenMP from adding threads of their own
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PHASES = ("simulate", "analyze", "render", "percolation", "fits")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"   # same string hashes, dict layout, in every run
    env.update({v: "1" for v in THREAD_VARS})
    return env


def measure_setup(env: dict, deadline: float, probes: int) -> list[float]:
    """Import time of spinodalkit.cli in fresh processes, in seconds."""
    probe = ("import time; t = time.perf_counter(); import spinodalkit.cli; "
             "t = time.perf_counter() - t; import spinodalkit; "
             "print(repr(t)); print(spinodalkit.__file__)")
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"cannot import spinodalkit.cli:\n{proc.stderr[-2000:]}")
        seconds, where = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"spinodalkit imported from {where}, not from {SRC}")
        times.append(float(seconds))
    return times


def run_worker(env: dict, work: Path, args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--work", str(work), "--seconds", repr(float(args.seconds)),
           "--trace", str(args.trace)]
    with open(work / "worker.out", "wb") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker exceeded the run's deadline and was stopped")
    if code != 0:
        tail = (work / "worker.out").read_text(errors="replace")[-3000:]
        raise BenchError(f"worker exited with code {code}:\n{tail}")
    return json.loads((work / "result.json").read_text())


def machine_facts(result: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(),
            **result["versions"], "blas_threads": 1}


def summarize(name: str, seed: int, facts: dict, result: dict, verdict,
              pipeline_s: float, e2e: dict, layers: dict | None) -> str:
    passes = result["passes"]
    walls = [q["wall_s"] for q in passes]
    lines = [f"workload {name}, seed {seed}: {len(passes)} passes "
             f"(min {min(walls):.4f} s, median {statistics.median(walls):.4f} s, "
             f"max {max(walls):.4f} s)",
             "machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()),
             f"checks: {verdict.attempted - verdict.failed}/{verdict.attempted} "
             f"operations passed, failed_ratio "
             f"{verdict.failed / max(verdict.attempted, 1):.4g}"]
    lines += [f"  FAILED {f}" for f in verdict.failures[:20]]
    if "reff_max_rel_err" in verdict.extra:
        lines.append(f"reff_max_rel_err {verdict.extra['reff_max_rel_err']:.3e} "
                     "(R_eff vs a scipy.sparse direct solve)")
    phases = {p: [q["phases"][p] for q in passes if p in q["phases"] and not q["traced"]]
              for p in PHASES}
    for p, vals in phases.items():
        if vals:
            lines.append(f"{p}_s {statistics.median(vals):.4f} s (median of {len(vals)})")
    cmd_ms = sorted(c[3] * 1e3 for q in passes if not q["traced"] for c in q["commands"])
    if len(cmd_ms) >= 110:
        p90 = statistics.quantiles(cmd_ms, n=10)[-1]
        lines.append(f"per-command latency: median {statistics.median(cmd_ms):.3f} ms, "
                     f"p90 {p90:.3f} ms over {len(cmd_ms)} commands")
    lines.append(f"pipeline_s {pipeline_s:.6g} s")
    for k, (v, unit) in e2e.items():
        lines.append(f"{k} {v:.6g} {unit}")
    for k, (v, unit) in (layers or {}).items():
        lines.append(f"  {k} {v:.6g} {unit}")
    if result.get("missing_hooks"):
        lines.append(f"hook points not found: {result['missing_hooks']}")
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload untraced then traced, one after another; the result
    carries every metric as "<workload>.<metric>"."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", repr(float(args.seconds)), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help='a workload, or "all" to run each untraced and traced')
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "spinodalkit" / "cli.py").is_file():
        print(f"run.py: no package at {SRC / 'spinodalkit'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _env()
    try:
        setup = measure_setup(env, deadline, SETUP_PROBES[0])
        spec, truth = wl.make_inputs(work, args.seed, small=False)
        (work / "spec.json").write_text(json.dumps(spec))
        result = run_worker(env, work, args, deadline)
        setup += measure_setup(env, deadline, SETUP_PROBES[1])
        verdict = verify(args.workload, work, spec, truth, result)
        spans = read_spans(work / "spans.jsonl") if args.trace else []
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        if (work / "spans.jsonl").is_file():
            shutil.copyfile(work / "spans.jsonl",
                            OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    untraced = [q for q in passes if not q["traced"]]
    pipeline_s = statistics.median(q["wall_s"] for q in untraced)
    e2e = {"pipeline_ref": (statistics.median(q["wall_s"] / q["ref_s"] for q in untraced),
                            "ratio"),
           "setup_s": (statistics.median(setup), "s"),
           "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    layers = None
    if args.trace:
        traced = [q["wall_s"] for q in passes if q["traced"]]
        m = layer_metrics(spans, traced, [q["wall_s"] for q in untraced])
        for ph in PHASES:
            vals = [q["phases"].get(ph, 0.0) for q in untraced]
            m[f"{ph}_s"] = statistics.median(vals)
        m["pipeline_s"] = pipeline_s
        m["analysis.reff_max_rel_err"] = verdict.extra.get("reff_max_rel_err", 0.0)
        m["fitting.converged_ratio"] = verdict.extra.get("fits_useful_ratio", 0.0)
        m["failed_ratio"] = verdict.failed / max(verdict.attempted, 1)
        layers = {k: (m[k], unit) for k, unit in LAYER_UNITS.items()}

    facts = machine_facts(result)
    print(summarize(args.workload, args.seed, facts, result, verdict, pipeline_s,
                    e2e, layers), file=sys.stderr)
    shown = layers if args.trace else e2e
    out = {"correct": verdict.failed == 0, "attempted": verdict.attempted,
           "failed": verdict.failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    record = {"args": vars(args), "machine": facts, "setup_s": setup,
              "failures": verdict.failures, "extra": verdict.extra,
              "passes": [{k: q[k] for k in ("k", "traced", "wall_s", "ref_s", "phases")}
                         for q in passes],
              "missing_hooks": result.get("missing_hooks", []), **out,
              "end_to_end": {k: v for k, (v, _) in e2e.items()}, "pipeline_s": pipeline_s}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, default=float))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
