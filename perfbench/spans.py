"""In-memory spans around calls into the package's layers.

Worker side: `Tracer.install()` replaces the hook points in `HOOKS` with
wrappers that record one span per call (name, start, end, parent, pass id,
and an optional note such as bytes or fit iterations); `uninstall()` puts
the originals back.  Each hook is the name a caller looks up at call time,
so patching the attribute is enough to see the call.  Spans stay in memory
until `write()` at the end of the run.

Parent side: `layer_metrics()` turns the written spans into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from time import perf_counter_ns


def _nbytes_in(a, kw, out):
    return {"bytes": 2 * int(a[0].nbytes)}   # read the field once, write once


def _file_bytes(index):
    def note(a, kw, out):
        path = a[index] if len(a) > index else kw.get("path")
        try:
            return {"bytes": os.path.getsize(path)}
        except (OSError, TypeError):
            return None
    return note


def _sim_counts(a, kw, out):
    return {"steps": int(out.n_steps), "diag": len(out.diagnostics)}


def _fit_note(a, kw, out):
    return {"n_iter": int(out.n_iter)}


def _clusters(a, kw, out):
    return {"n_clusters": int(out.n_clusters)}


def _trials(a, kw, out):
    return {"trials": int(a[1] if len(a) > 1 else kw["trials"])}


def _axis_name(base):
    def name(a, kw):
        return f"{base}_{a[1] if len(a) > 1 else kw.get('axis')}"
    return name


# (module, attribute looked up by the caller, span name, note)
# A span name is "<layer>.<function>"; the layer is the module it measures.
HOOKS = [
    ("spinodalkit.cli", "load_config", "config.load_config", None),
    ("spinodalkit.cli", "gaussian_field", "fields.gaussian_field", None),
    ("spinodalkit.cli", "write_snapshot_csv", "fields.write_snapshot_csv", _file_bytes(1)),
    ("spinodalkit.cli", "read_snapshot_csv", "fields.read_snapshot_csv", _file_bytes(0)),
    ("spinodalkit.solver", "run", "solver.run", _sim_counts),
    ("spinodalkit.solver", "_euler_step", "solver.run_step", None),
    ("spinodalkit.solver", "_laplacian_values", "fields.laplacian_periodic", _nbytes_in),
    ("spinodalkit.solver", "dgibbs", "thermo.dgibbs", None),
    ("spinodalkit.solver", "free_energy", "thermo.free_energy", None),
    ("spinodalkit.solver", "write_diagnostics_csv", "solver.write_diagnostics_csv", None),
    ("spinodalkit.analysis", "analyze_field", "analysis.analyze_field", None),
    ("spinodalkit.analysis", "characteristic_length", "analysis.characteristic_length", None),
    ("spinodalkit.analysis", "label_clusters", "analysis.label_clusters", _clusters),
    ("spinodalkit.analysis", "effective_sheet_resistance",
     _axis_name("analysis.effective_sheet_resistance"), None),
    ("spinodalkit.analysis", "percolation_threshold_mc",
     "analysis.percolation_threshold_mc", _trials),
    ("spinodalkit.analysis", "write_report_csv", "analysis.write_report_csv", None),
    ("spinodalkit.render", "render_ppm", "render.render_ppm", None),
    ("spinodalkit.transport", "read_transport_csv", "transport.read_transport_csv", None),
    ("spinodalkit.transport", "derive_transport", "transport.derive_transport", None),
    ("spinodalkit.transport", "write_transport_report_csv",
     "transport.write_transport_report_csv", None),
    ("spinodalkit.fitting", "read_xy_csv", "fitting.read_xy_csv", None),
    ("spinodalkit.fitting", "read_s21_csv", "fitting.read_s21_csv", None),
    ("spinodalkit.fitting", "fit_gl_hc2", "fitting.fit_gl_hc2", _fit_note),
    ("spinodalkit.fitting", "fit_powerlaw_hc2", "fitting.fit_powerlaw_hc2", _fit_note),
    ("spinodalkit.fitting", "fit_resonance", "fitting.fit_resonance", _fit_note),
    ("spinodalkit.fitting", "fit_conductivity_regimes",
     "fitting.fit_conductivity_regimes", None),
    ("spinodalkit.fitting", "write_fit_csv", "fitting.write_fit_csv", None),
]


class Tracer:
    """Span recorder.  A span is [name, start_ns, end_ns, parent, pass, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.pass_id = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.pass_id, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            idx = tracer.begin(name(a, kw) if callable(name) else name)
            try:
                out = fn(*a, **kw)
            finally:
                tracer.end(idx)
            if note is not None:
                tracer.spans[idx][5] = note(a, kw, out)
            return out
        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, note in HOOKS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                if f"{mod_name}.{attr}" not in self.missing:
                    self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, note))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# Per-call mean time, in ms, of each span name reported as "<name>_ms".
TIMED = [
    "config.load_config", "fields.gaussian_field", "fields.laplacian_periodic",
    "fields.write_snapshot_csv", "fields.read_snapshot_csv", "thermo.dgibbs",
    "thermo.free_energy", "solver.run_step", "analysis.analyze_field",
    "analysis.characteristic_length", "analysis.label_clusters",
    "analysis.effective_sheet_resistance_x", "analysis.effective_sheet_resistance_y",
    "render.render_ppm", "transport.derive_transport", "fitting.fit_gl_hc2",
    "fitting.fit_powerlaw_hc2", "fitting.fit_resonance",
    "fitting.fit_conductivity_regimes",
]


# Unit of every per-layer metric, in the order they are reported.
UNITS = {
    **{f"{name}_ms": "ms" for name in TIMED},
    "fields.laplacian_periodic_gbps_computed": "GB/s",
    "solver.steps": "count", "solver.diag_records": "count",
    "fields.snapshot_bytes": "bytes", "analysis.n_clusters": "count",
    "analysis.percolation_trial_ms": "ms", "fitting.n_iter": "count",
    "cli.command_overhead_ms": "ms", "trace.coverage": "ratio",
    "trace.overhead_s": "s", "pipeline_s": "s", "simulate_s": "s", "analyze_s": "s",
    "render_s": "s", "percolation_s": "s", "fits_s": "s",
    "analysis.reff_max_rel_err": "ratio",
    "fitting.converged_ratio": "ratio", "failed_ratio": "ratio",
}


def layer_metrics(spans: list[list], traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes.

    A layer the workload never calls reports 0 for its time and counts.
    """
    by_name: dict[str, list[list]] = {}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(s)
        children.setdefault(s[3], []).append(i)

    def total_ms(name):
        return sum(s[2] - s[1] for s in by_name.get(name, ())) / 1e6

    def mean_ms(name):
        n = len(by_name.get(name, ()))
        return total_ms(name) / n if n else 0.0

    def notes(name, key):
        return [s[5][key] for s in by_name.get(name, ()) if s[5] and key in s[5]]

    m = {f"{name}_ms": mean_ms(name) for name in TIMED}
    lap_ms = total_ms("fields.laplacian_periodic")
    m["fields.laplacian_periodic_gbps_computed"] = (
        sum(notes("fields.laplacian_periodic", "bytes")) / (lap_ms * 1e6)
        if lap_ms else 0.0)
    runs = len(by_name.get("solver.run", ()))
    m["solver.steps"] = sum(notes("solver.run", "steps")) / runs if runs else 0.0
    m["solver.diag_records"] = sum(notes("solver.run", "diag")) / runs if runs else 0.0
    snap_bytes = (notes("fields.read_snapshot_csv", "bytes")
                  + notes("fields.write_snapshot_csv", "bytes"))
    m["fields.snapshot_bytes"] = statistics.fmean(snap_bytes) if snap_bytes else 0.0
    passes = max(len(traced_walls), 1)
    m["analysis.n_clusters"] = (sum(notes("analysis.label_clusters", "n_clusters"))
                                / passes)
    trials = sum(notes("analysis.percolation_threshold_mc", "trials"))
    m["analysis.percolation_trial_ms"] = (
        total_ms("analysis.percolation_threshold_mc") / trials if trials else 0.0)
    fits = [s[5] for name in ("fitting.fit_gl_hc2", "fitting.fit_powerlaw_hc2",
                              "fitting.fit_resonance")
            for s in by_name.get(name, ()) if s[5]]
    m["fitting.n_iter"] = statistics.fmean(f["n_iter"] for f in fits) if fits else 0.0

    # cli layer: a command's own time, outside every layer it calls
    own = []
    for i, s in enumerate(spans):
        if s[0].startswith("cmd."):
            kids = sum(spans[c][2] - spans[c][1] for c in children.get(i, ()))
            own.append((s[2] - s[1] - kids) / 1e6)
    m["cli.command_overhead_ms"] = statistics.fmean(own) if own else 0.0

    # coverage: time inside layer spans (outermost below the pass and
    # command spans) over the traced passes' wall time
    covered = 0
    for s in spans:
        if s[0] == "pass" or s[0].startswith("cmd."):
            continue
        parent = spans[s[3]][0] if s[3] >= 0 else "pass"
        if parent == "pass" or parent.startswith("cmd."):
            covered += s[2] - s[1]
    pass_ns = sum(s[2] - s[1] for s in by_name.get("pass", ()))
    m["trace.coverage"] = covered / pass_ns if pass_ns else 0.0
    m["trace.overhead_s"] = (statistics.median(traced_walls)
                             - statistics.median(untraced_walls)
                             if traced_walls and untraced_walls else 0.0)
    return m
