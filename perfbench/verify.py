"""Output checks, run in the parent after the worker exits.

Every oracle here is independent of the package: numpy's FFT for the
spectral length, `scipy.ndimage.label` for clusters and spanning, a
`scipy.sparse` direct solve of the Kirchhoff system for R_eff, the PPM
colour map recomputed from the snapshot, the Philox initial field
recomputed from the seed, and the generating parameters of every fit input.

`verify(name, work, spec, truth, result)` returns a `Verdict`: one operation
per command run (plus one per cross-pass check), each failing on a non-zero
exit code or on any failed check of its outputs.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy import ndimage
from scipy.sparse.linalg import spsolve
from scipy.special import ndtri

from workloads import BCS_GAP_RATIO, E_CHARGE, HBAR, K_B

CHAR_LENGTH_RTOL = 1e-9     # FFT round-off between two transforms
REFF_RTOL = 1e-4            # R_eff vs direct solve; rejects a 1e-3 error
TRANSPORT_RTOL = 1e-9       # closed forms, round-off only
MASS_DRIFT = 1e-12          # c02
ENERGY_SLACK = 1e-9         # c03
DT = 0.005                  # the default step h^4/(200 D kappa) at h=D=kappa=1


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def op(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems[:3])}")
        return not problems


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_snapshot(path: Path) -> np.ndarray:
    with open(path) as fh:
        nx, ny, _h = fh.readline().split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if values.shape != (int(ny), int(nx)):
        raise ValueError(f"{path.name}: shape {values.shape}, header {nx}x{ny}")
    return values


def snapshot_name(t: float) -> str:
    return f"snap_t{t:g}.csv"


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def initial_field(n: int, mean: float, variance: float, seed: int) -> np.ndarray:
    """The documented initial field: cell (i, j) takes element i*n + j of the
    Philox(key=seed) uniform stream through the normal quantile."""
    u = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(n * n)
    u = np.maximum(u, np.finfo(np.float64).tiny)
    return (mean + math.sqrt(variance) * ndtri(u)).reshape(n, n)


def char_length(v: np.ndarray, h: float = 1.0) -> float:
    """2 pi sum S(k) / sum |k| S(k) over k != 0, with numpy's FFT."""
    s = np.abs(np.fft.fft2(v - v.mean())) ** 2
    ky = 2 * np.pi * np.fft.fftfreq(v.shape[0], d=h)
    kx = 2 * np.pi * np.fft.fftfreq(v.shape[1], d=h)
    k = np.hypot(ky[:, None], kx[None, :])
    mask = k > 0
    return float(2 * np.pi * s[mask].sum() / (k[mask] * s[mask]).sum())


def clusters(mask: np.ndarray) -> dict:
    labels, n = ndimage.label(mask)   # 4-connectivity, open boundaries
    sizes = np.bincount(labels.ravel())[1:]

    def spans(a, b):
        common = np.intersect1d(a, b)
        return bool((common > 0).any())

    return {"n_clusters": int(n), "largest_cluster": int(sizes.max()) if n else 0,
            "spans_x": spans(labels[:, 0], labels[:, -1]),
            "spans_y": spans(labels[0, :], labels[-1, :])}


def sheet_resistance(sigma: np.ndarray) -> float:
    """Unit voltage across the left/right edges of a resistor network with
    harmonic-mean bonds 2 s1 s2/(s1+s2) and half-cell electrode bonds 2 s;
    direct sparse solve; returns R per square."""
    ny, nx = sigma.shape
    idx = np.arange(nx * ny).reshape(ny, nx)
    gh = 2 * sigma[:, :-1] * sigma[:, 1:] / (sigma[:, :-1] + sigma[:, 1:])
    gv = 2 * sigma[:-1, :] * sigma[1:, :] / (sigma[:-1, :] + sigma[1:, :])
    gl, gr = 2 * sigma[:, 0], 2 * sigma[:, -1]
    a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    g = np.concatenate([gh.ravel(), gv.ravel()])
    diag = np.bincount(a, g, nx * ny) + np.bincount(b, g, nx * ny)
    diag[idx[:, 0]] += gl
    diag[idx[:, -1]] += gr
    A = sp.coo_matrix((np.concatenate([-g, -g, diag]),
                       (np.concatenate([a, b, np.arange(nx * ny)]),
                        np.concatenate([b, a, np.arange(nx * ny)]))),
                      shape=(nx * ny, nx * ny)).tocsc()
    rhs = np.zeros(nx * ny)
    rhs[idx[:, 0]] = gl
    V = spsolve(A, rhs).reshape(ny, nx)
    current = float((gl * (1.0 - V[:, 0])).sum())
    return (1.0 / current) * (ny / nx)


def ppm_bytes(v: np.ndarray) -> bytes:
    x = np.clip(v, 0.0, 1.0)
    px = np.zeros(v.shape + (3,), dtype=np.uint8)
    px[..., 0] = np.floor(255.0 * (1.0 - x) + 0.5)
    px[..., 1] = np.floor(255.0 * x + 0.5)
    ny, nx = v.shape
    return f"P6\n{nx} {ny}\n255\n".encode("ascii") + px.tobytes()


def snapshot_oracle(v: np.ndarray, x_c: float, sigma_ti: float, sigma_al: float) -> dict:
    mask = v >= x_c
    sigma = np.where(mask, sigma_ti, sigma_al)
    return {"char_length": char_length(v), "ti_fraction": float(mask.mean()),
            **clusters(mask), "R_eff_x": sheet_resistance(sigma),
            "R_eff_y": sheet_resistance(sigma.T), "ppm": ppm_bytes(v)}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------

def check_coarsen_outputs(out: Path, truth: dict) -> list[str]:
    """Content checks of one simulate output directory."""
    bad = []
    times = truth["times"]
    try:
        snaps = {t: read_snapshot(out / snapshot_name(t)) for t in times}
        diag = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    n = truth["n"]
    if any(v.shape != (n, n) for v in snaps.values()):
        bad.append("snapshot grid size")
        return bad
    init = initial_field(n, truth["mean"], truth["variance"], truth["seed"])
    if not np.array_equal(snaps[times[0]], init):
        bad.append("t=0 snapshot differs from the seeded initial field")
    mass = diag[:, 2]
    drift = float(np.abs(mass - mass[0]).max() / abs(mass[0]))
    if not drift <= MASS_DRIFT:
        bad.append(f"mass drift {drift:.3e} > {MASS_DRIFT:g}")
    energy = diag[:, 3]
    if not (np.diff(energy) <= ENERGY_SLACK * np.abs(energy[:-1])).all():
        bad.append("free energy increased")
    steps = int(math.ceil(times[-1] / DT - 1e-9))
    if int(diag[-1, 0]) != steps:
        bad.append(f"last diagnostics step {int(diag[-1, 0])}, expected {steps}")
    lengths = [char_length(snaps[t]) for t in times[1:]]
    if not all(a < b for a, b in zip(lengths, lengths[1:])):
        bad.append(f"characteristic length not increasing: {lengths}")
    return bad


def _verify_coarsen(v: Verdict, work: Path, spec, truth, result) -> None:
    names = [snapshot_name(t) for t in truth["times"]] + ["diagnostics.csv"]
    hashes = []
    for q in result["passes"]:
        out = work / q["dir"]
        (_, label, code, _), = q["commands"]
        bad = [] if code == 0 else [f"exit code {code}"]
        try:
            hashes.append(tuple(sha256_file(out / name) for name in names))
        except OSError as exc:
            bad.append(f"missing output: {exc}")
        if not bad and len(hashes) == 1:
            bad += check_coarsen_outputs(out, truth)
        v.op(f"pass {q['k']} {label}", bad)
    # identical bytes across passes, which alternate --threads 1 and 2
    v.op("byte identity across passes and --threads",
         [] if len(set(hashes)) == 1 else ["snapshot or diagnostics sha256 differ"])


def check_report(rows: list[list[str]], oracles: dict, times) -> tuple[list[str], float]:
    """Compare report.csv rows with per-snapshot oracles; returns problems and
    the largest relative R_eff gap (0 when the report cannot be compared,
    which is a failure already)."""
    bad, worst = [], 0.0
    if not rows or rows[0] != ["time", "char_length", "ti_fraction", "n_clusters",
                               "largest_cluster", "spans_x", "spans_y",
                               "R_eff_x", "R_eff_y"]:
        return ["report header"], 0.0
    body = rows[1:]
    if [float(r[0]) for r in body] != list(times):
        return [f"report times {[r[0] for r in body]}"], 0.0
    for r, t in zip(body, times):
        o = oracles[t]
        if _rel(float(r[1]), o["char_length"]) > CHAR_LENGTH_RTOL:
            bad.append(f"t={t:g} char_length {r[1]} vs {o['char_length']!r}")
        if float(r[2]) != o["ti_fraction"]:
            bad.append(f"t={t:g} ti_fraction {r[2]} vs {o['ti_fraction']!r}")
        got = {"n_clusters": int(r[3]), "largest_cluster": int(r[4]),
               "spans_x": r[5] == "1", "spans_y": r[6] == "1"}
        for key, val in got.items():
            if val != o[key]:
                bad.append(f"t={t:g} {key} {val} vs {o[key]}")
        for col, key in ((7, "R_eff_x"), (8, "R_eff_y")):
            err = _rel(float(r[col]), o[key])
            worst = max(worst, err)
            if not err <= REFF_RTOL:
                bad.append(f"t={t:g} {key} off by {err:.3e} relative")
    return bad, worst


def _verify_microstructure(v: Verdict, work: Path, spec, truth, result) -> None:
    times = truth["times"]
    recorded = result["prepare"]["state"] or {}
    names = {snaps: [f"{snaps}/{snapshot_name(t)}" for t in times] for snaps in spec["runs"]}
    for (_, label, code, _), snaps in zip(result["prepare"]["commands"], spec["runs"]):
        bad = [] if code == 0 else [f"exit code {code}"]
        bad += [f"{name} not made" for name in names[snaps] if name not in recorded]
        v.op(f"prepare simulate {snaps}", bad)
    if v.failed:
        return
    # the inputs every pass read are the ones made before the first pass
    v.op("snapshot sha256 unchanged by analyze/render",
         [f"{name} changed" for name in recorded
          if sha256_file(work / name) != recorded[name]])
    oracles, worst = {}, 0.0
    for snaps, seed in spec["runs"].items():
        fields = {t: read_snapshot(work / snaps / snapshot_name(t)) for t in times}
        init = initial_field(truth["n"], truth["mean"], truth["variance"], seed)
        v.op(f"{snaps} t=0 snapshot is the seeded initial field",
             [] if np.array_equal(fields[times[0]], init) else ["differs"])
        oracles[snaps] = {t: snapshot_oracle(f, truth["x_c"], truth["sigma_ti"],
                                             truth["sigma_al"]) for t, f in fields.items()}
    for q in result["passes"]:
        labels = [c[1] for c in q["commands"]]
        expected = ["cmd.analyze", "cmd.render"] * len(spec["runs"])
        if labels != expected:
            v.op(f"pass {q['k']}", [f"ran {labels}"])
            continue
        for i, snaps in enumerate(spec["runs"]):
            out = work / q["dir"] / Path(snaps).name
            for _, label, code, _ in q["commands"][2 * i:2 * i + 2]:
                bad = [] if code == 0 else [f"exit code {code}"]
                if code == 0 and label == "cmd.analyze":
                    try:
                        probs, err = check_report(_read_csv(out / "report.csv"),
                                                  oracles[snaps], times)
                    except (OSError, ValueError, IndexError) as exc:
                        probs, err = [f"unreadable report: {exc}"], 0.0
                    bad += probs
                    worst = max(worst, err)
                elif code == 0:
                    for t in times:
                        ppm = out / "img" / snapshot_name(t).replace(".csv", ".ppm")
                        if not ppm.is_file() or ppm.read_bytes() != oracles[snaps][t]["ppm"]:
                            bad.append(f"{ppm.name} differs from the colour map")
                v.op(f"pass {q['k']} {snaps} {label}", bad)
    v.extra["reff_max_rel_err"] = worst
    v.extra["oracle"] = {snaps: {f"{t:g}": {k: o[k] for k in o if k != "ppm"}
                                 for t, o in per_t.items()}
                         for snaps, per_t in oracles.items()}


def _verify_percolation(v: Verdict, work: Path, spec, truth, result) -> None:
    values = []
    for q in result["passes"]:
        (_, label, code, _), = q["commands"]
        val = q["values"][0] if q["values"] else None
        bad = [] if code == 0 else [f"exit code {code}: {val}"]
        if code == 0:
            p_hat, se = val
            values.append((p_hat, se))
            if not abs(p_hat - truth["p_c"]) <= truth["tol"]:
                bad.append(f"p_hat {p_hat:.4f} outside {truth['p_c']} +/- {truth['tol']}")
            if not 0.0 < se < truth["tol"]:
                bad.append(f"standard error {se!r}")
        v.op(f"pass {q['k']} {label}", bad)
    v.op("equal seeds give equal estimates",
         [] if len(set(map(tuple, values))) == 1 else [f"estimates {values}"])
    v.extra["p_hat"] = values[0][0] if values else None


def _fit_params(path: Path) -> dict[str, float]:
    return {r[0]: float(r[1]) for r in _read_csv(path)[1:] if r}


def check_fit_outputs(kind: str, out: Path, case: dict) -> list[str]:
    """Recovered parameters of one command against the generating ones
    (tolerances of acceptance criteria c07-c11)."""
    bad = []
    if kind == "transport":
        rows = _read_csv(out / "transport_report.csv")[1:]
        if len(rows) != len(case["films"]):
            return [f"{len(rows)} report rows for {len(case['films'])} films"]
        for r, f in zip(rows, case["films"]):
            n_e = f["n_e"]
            k_f = (3 * math.pi ** 2 * n_e) ** (1 / 3)
            # l = v_F tau with v_F = hbar k_F / m and tau = m / (n e^2 R_s d)
            l_mfp = HBAR * k_f / (n_e * E_CHARGE ** 2 * f["R_s"] * f["d"])
            expect = {"n_e_m3": n_e, "l_m": l_mfp, "kF_l": k_f * l_mfp,
                      "Lk_H_sq": HBAR * f["R_s"] / (math.pi * BCS_GAP_RATIO * K_B * f["T_c"])}
            got = dict(zip(("n_e_m3", "Lk_H_sq", "l_m", "kF_l"), map(float, r[4:8])))
            if r[0] != f["label"]:
                bad.append(f"label {r[0]}")
            for key, val in expect.items():
                if _rel(got[key], val) > TRANSPORT_RTOL:
                    bad.append(f"{f['label']} {key} {got[key]!r} vs {val!r}")
        return bad
    if kind == "sigma":
        rows = {r[0]: r for r in _read_csv(out / "fit_sigma.csv")[1:] if r}
        want = case["sigma"]
        for window, key, tol in (("high_T", "high_slope", 0.02), ("low_T", "low_slope", 0.05)):
            _, _, slope, _, r2 = rows[window]
            if float(r2) < 0.997:
                bad.append(f"{window} R^2 {r2}")
            if _rel(float(slope), want[key]) > tol:
                bad.append(f"{window} slope {slope} vs {want[key]!r}")
        return bad
    file, want, tols = {
        "gl": ("fit_hc2_gl.csv", case["gl"], {"xi_m": 0.03}),
        "powerlaw": ("fit_hc2_powerlaw.csv", case["powerlaw"],
                     {"alpha": 0.05, "beta": 0.05}),
        "resonance": ("fit_resonance.csv", case["resonance"], {"Q_i": 0.02}),
    }[kind]
    got = _fit_params(out / file)
    if got.get("converged") != 1.0:
        bad.append("not converged")
    for key, tol in tols.items():
        err = _rel(got[key], want[key])
        if err > tol:
            bad.append(f"{key} {got[key]!r} vs {want[key]!r} ({err:.2%} > {tol:.0%})")
    return bad


FIT_KINDS = ("transport", "gl", "powerlaw", "resonance", "sigma")


def _verify_film_fits(v: Verdict, work: Path, spec, cases, result) -> None:
    useful = attempts = 0
    for q in result["passes"]:
        out = work / q["dir"]
        if len(q["commands"]) != len(FIT_KINDS) * len(cases):
            v.op(f"pass {q['k']}", [f"{len(q['commands'])} commands run"])
            continue
        for i, (_, label, code, _) in enumerate(q["commands"]):
            case = cases[i // len(FIT_KINDS)]
            kind = FIT_KINDS[i % len(FIT_KINDS)]
            bad = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                try:
                    bad += check_fit_outputs(kind, out / case["dir"], case)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    bad.append(f"unreadable output: {exc!r}")
            ok = v.op(f"pass {q['k']} {case['dir']} {kind}", bad)
            if kind != "transport":
                attempts += 1
                useful += ok
    v.extra["fits_useful_ratio"] = useful / attempts if attempts else 0.0


VERIFIERS = {"coarsen": _verify_coarsen, "microstructure": _verify_microstructure,
             "percolation": _verify_percolation, "film_fits": _verify_film_fits}


def verify(name: str, work: Path, spec, truth, result) -> Verdict:
    v = Verdict()
    VERIFIERS[name](v, work, spec, truth, result)
    return v
