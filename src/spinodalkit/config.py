"""Run configuration: INI-style text with `[section]` headers and
`key = value` lines.

The parser is intentionally strict — unknown sections or keys, non-finite
numbers and out-of-range values are rejected with the offending line
number, so a typo'd key can never silently fall back to a default.
Full-line comments start with '#' or ';'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import MIN_GRID, SEED_LIMIT

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config",
           "serialize_config", "section", "DEFAULT_SNAPSHOT_TIMES"]

DEFAULT_SNAPSHOT_TIMES = (0.0, 10.0, 50.0, 500.0)


class ConfigError(ValueError):
    """Configuration text failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class RunConfig:
    # [grid]
    nx: int = 256
    ny: int = 256
    h: float = 1.0
    # [init]
    mean: float = 0.48
    variance: float = 1e-3
    seed: int = 1
    # [solver]
    D: float = 1.0
    kappa: float = 1.0
    dt: float | None = None          # None means "auto"
    n_steps: int | None = None       # None means "run to last snapshot"
    snapshot_times: tuple[float, ...] = DEFAULT_SNAPSHOT_TIMES
    diag_stride: int = 100
    # [analysis]
    x_c: float = 0.5
    sigma_ti: float = 1.0
    sigma_al: float = 1e-4
    # [paths]
    out_dir: str = "out"


def _parse_int(s: str) -> int:
    return int(s, 10)


def _parse_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {s!r}")
    return v


def _parse_auto_float(s: str):
    return None if s.strip().lower() == "auto" else _parse_float(s)


def _parse_opt_int(s: str):
    return None if s.strip().lower() in ("none", "auto") else int(s, 10)


def _parse_times(s: str) -> tuple[float, ...]:
    parts = [p for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty time list")
    return tuple(sorted(_parse_float(p) for p in parts))


# section -> key -> (parser, validator or None, constraint text).  Each key
# is a RunConfig attribute and the keyword its section's call takes (see
# section()).
_SCHEMA = {
    "grid": {
        "nx": (_parse_int, lambda v: v >= MIN_GRID, f">= {MIN_GRID}"),
        "ny": (_parse_int, lambda v: v >= MIN_GRID, f">= {MIN_GRID}"),
        "h": (_parse_float, lambda v: v > 0, "> 0"),
    },
    "init": {
        "mean": (_parse_float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
        "variance": (_parse_float, lambda v: v >= 0, ">= 0"),
        "seed": (_parse_int, lambda v: 0 <= v < SEED_LIMIT, "in [0, 2**64)"),
    },
    "solver": {
        "D": (_parse_float, lambda v: v > 0, "> 0"),
        "kappa": (_parse_float, lambda v: v > 0, "> 0"),
        "dt": (_parse_auto_float, lambda v: v is None or v > 0, "'auto' or > 0"),
        "n_steps": (_parse_opt_int, lambda v: v is None or v >= 0, "'none' or >= 0"),
        "snapshot_times": (_parse_times, lambda v: all(t >= 0 for t in v), "times >= 0"),
        "diag_stride": (_parse_int, lambda v: v >= 1, ">= 1"),
    },
    "analysis": {
        "x_c": (_parse_float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
        "sigma_ti": (_parse_float, lambda v: v > 0, "> 0"),
        "sigma_al": (_parse_float, lambda v: v > 0, "> 0"),
    },
    "paths": {
        "out_dir": (str, None, ""),
    },
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate; an empty document yields the full default config.
    A key given twice is an error, not an override."""
    cfg = RunConfig()
    section: str | None = None
    set_on: dict[str, int] = {}   # key -> the line that set it
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", ln)
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", ln)
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", ln)
        if section is None:
            raise ConfigError("key outside any [section]", ln)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        entry = _SCHEMA[section].get(key)
        if entry is None:
            raise ConfigError(f"unknown key '{section}.{key}'", ln)
        if key in set_on:
            raise ConfigError(f"'{section}.{key}' is set twice, on lines "
                              f"{set_on[key]} and {ln}", ln)
        set_on[key] = ln
        parse, check, constraint = entry
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{section}.{key}': {value!r}", ln) from exc
        if check is not None and not check(parsed):
            raise ConfigError(f"'{section}.{key}' must be {constraint}, got {value}", ln)
        setattr(cfg, key, parsed)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format_value(v) -> str:
    if v is None:
        return "auto"
    if isinstance(v, tuple):
        return ",".join(repr(float(t)) for t in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: RunConfig) -> str:
    """Emit every section/key; parse(serialize(cfg)) reproduces cfg exactly."""
    lines = []
    for name, entries in _SCHEMA.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {_format_value(getattr(cfg, key))}" for key in entries]
        lines.append("")
    return "\n".join(lines)


def section(cfg: RunConfig, name: str) -> dict:
    """The values of section `name` by key, e.g. the keywords of
    GridSpec (`grid`), gaussian_field (`init`), SolverParams (`solver`)
    or analyze_fields (`analysis`)."""
    return {key: getattr(cfg, key) for key in _SCHEMA[name]}
