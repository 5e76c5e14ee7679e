"""Self-test of the benchmark's verifiers.

    python3 perfbench/selftest.py

1. Checks the oracles on cases with known answers.
2. Runs every workload at a small size through the real worker (two or
   three passes) and requires every check to pass.
3. Feeds each verifier outputs with one corruption at a time (a flipped
   spans_x, R_eff off by 1e-3, one byte changed in a snapshot, ...) and
   requires the verifier to reject each one.

Exit code 0 when every step holds, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import verify as V  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def check_oracles() -> None:
    uniform = np.full((16, 16), 2.0)
    expect(abs(V.sheet_resistance(uniform) - 0.5) < 1e-12, "R_eff of a uniform map is 1/sigma")
    strips = np.empty((16, 16))
    strips[:, 0::2], strips[:, 1::2] = 1.0, 1e-2
    expect(abs(V.sheet_resistance(strips) / (0.5 * (1 + 1e2)) - 1) < 1e-10,
           "R_eff across strips is the series sum")
    expect(abs(V.sheet_resistance(strips.T) / (2 / 1.01) - 1) < 1e-10,
           "R_eff along strips is the parallel sum")
    x = np.arange(64)
    wave = np.tile(np.sin(2 * np.pi * x / 8), (64, 1))
    expect(abs(V.char_length(wave) - 8) < 1e-9, "spectral length of a sinusoid is its wavelength")
    mask = np.zeros((6, 6), bool)
    mask[:, 2] = True
    mask[0, 4] = True
    got = V.clusters(mask)
    expect(got == {"n_clusters": 2, "largest_cluster": 6, "spans_x": False, "spans_y": True},
           f"clusters of a column and a dot: {got}")


def run_small(name: str, root: Path) -> tuple[Path, dict, object, dict]:
    work = root / name
    work.mkdir()
    spec, truth = WORKLOADS[name].make_inputs(work, 7, small=True)
    (work / "spec.json").write_text(json.dumps(spec))
    worker.main(["--workload", name, "--work", str(work), "--seconds", "0"])
    return work, spec, truth, json.loads((work / "result.json").read_text())


def rejects(name, work, spec, truth, result, what, corrupt) -> None:
    """Apply `corrupt(work_copy, result_copy)` and require a failed check."""
    bad_work = work.parent / f"{work.name}-corrupt"
    shutil.copytree(work, bad_work)
    bad_result = copy.deepcopy(result)
    try:
        corrupt(bad_work, bad_result)
        v = V.verify(name, bad_work, spec, truth, bad_result)
        expect(v.failed > 0, f"{name}: rejects {what}"
               + (f" ({v.failures[0]})" if v.failures else ""))
    finally:
        shutil.rmtree(bad_work)


def flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] = ord("3") if data[offset] != ord("3") else ord("4")
    path.write_bytes(bytes(data))


def edit_csv(path: Path, row: int, col: int, fn) -> None:
    rows = [ln.split(",") for ln in path.read_text().splitlines()]
    rows[row][col] = fn(rows[row][col])
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def first_digit(path: Path, line: int) -> int:
    text = path.read_bytes()
    start = 0
    for _ in range(line):
        start = text.index(b"\n", start) + 1
    return next(i for i in range(start, len(text)) if text[i:i + 1].isdigit() and
                text[i + 1:i + 2].isdigit())


COARSEN_CASES = [
    ("one byte changed in a later pass's snapshot",
     lambda w, r: flip_byte(w / "pass1" / "snap_t5.csv",
                            first_digit(w / "pass1" / "snap_t5.csv", 5))),
    ("one byte changed in the t=0 snapshot of every pass",
     lambda w, r: [flip_byte(w / q["dir"] / "snap_t0.csv",
                             first_digit(w / q["dir"] / "snap_t0.csv", 3))
                   for q in r["passes"]]),
    ("mass drift in diagnostics.csv",
     lambda w, r: [edit_csv(w / q["dir"] / "diagnostics.csv", 2, 2,
                            lambda s: repr(float(s) * (1 + 1e-9)))
                   for q in r["passes"]]),
    ("a non-zero exit code",
     lambda w, r: r["passes"][0]["commands"][0].__setitem__(2, 3)),
]


MICRO_CASES = [
    ("a flipped spans_x",
     lambda w, r: edit_csv(w / "pass0" / "r0" / "report.csv", 3, 5,
                           lambda s: "0" if s == "1" else "1")),
    ("R_eff_x perturbed by 1e-3",
     lambda w, r: edit_csv(w / "pass0" / "r1" / "report.csv", 2, 7,
                           lambda s: repr(float(s) * (1 + 1e-3)))),
    ("n_clusters off by one",
     lambda w, r: edit_csv(w / "pass1" / "r2" / "report.csv", 1, 3, lambda s: str(int(s) + 1))),
    ("char_length off by 1e-6",
     lambda w, r: edit_csv(w / "pass0" / "r3" / "report.csv", 2, 1,
                           lambda s: repr(float(s) * (1 + 1e-6)))),
    ("one byte changed in an input snapshot",
     lambda w, r: flip_byte(w / "snaps" / "r1" / "snap_t2.csv",
                            first_digit(w / "snaps" / "r1" / "snap_t2.csv", 4))),
    ("one pixel changed in a rendered image",
     lambda w, r: flip_byte(w / "pass1" / "r0" / "img" / "snap_t5.ppm", 40)),
]

PERC_CASES = [
    ("p_hat outside 0.593 +/- 0.02",
     lambda w, r: [q["values"].__setitem__(0, [0.62, q["values"][0][1]]) for q in r["passes"]]),
    ("unequal estimates for equal seeds",
     lambda w, r: r["passes"][1]["values"].__setitem__(0, [r["passes"][1]["values"][0][0] + 1e-9,
                                                           r["passes"][1]["values"][0][1]])),
]


def _set_param(path: Path, name: str, fn) -> None:
    rows = [ln.split(",") for ln in path.read_text().splitlines()]
    for r in rows:
        if r[0] == name:
            r[1] = fn(r[1])
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


FIT_CASES = [
    ("GL xi off by 5%",
     lambda w, r: _set_param(w / "pass0" / "set001" / "fit_hc2_gl.csv", "xi_m",
                             lambda s: repr(float(s) * 1.05))),
    ("power-law alpha off by 10%",
     lambda w, r: _set_param(w / "pass2" / "set000" / "fit_hc2_powerlaw.csv", "alpha",
                             lambda s: repr(float(s) * 1.1))),
    ("a resonance fit reported as not converged",
     lambda w, r: _set_param(w / "pass1" / "set002" / "fit_resonance.csv", "converged",
                             lambda s: "0")),
    ("n_e off by 1e-6 in the transport report",
     lambda w, r: edit_csv(w / "pass0" / "set003" / "transport_report.csv", 2, 4,
                           lambda s: repr(float(s) * (1 + 1e-6)))),
    ("a missing fit-sigma report",
     lambda w, r: (w / "pass1" / "set000" / "fit_sigma.csv").unlink()),
]


def main() -> int:
    check_oracles()
    root = HERE.parent / ".perfbench" / f"selftest-{os.getpid()}"
    root.mkdir(parents=True)
    try:
        cases = {"coarsen": COARSEN_CASES, "microstructure": MICRO_CASES,
                 "percolation": PERC_CASES, "film_fits": FIT_CASES}
        for name, corruptions in cases.items():
            work, spec, truth, result = run_small(name, root)
            v = V.verify(name, work, spec, truth, result)
            expect(v.failed == 0 and v.attempted > 0,
                   f"{name}: {v.attempted} clean operations pass"
                   + (f" ({v.failures[0]})" if v.failures else ""))
            for what, corrupt in corruptions:
                rejects(name, work, spec, truth, result, what, corrupt)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
