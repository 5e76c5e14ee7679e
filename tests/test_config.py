import pytest

from spinodalkit.config import (ConfigError, RunConfig, load_config,
                                parse_config, serialize_config)

SAMPLE = """
# spinodal run
[grid]
nx = 128
ny = 64
h = 0.5

[init]
mean = 0.4
variance = 2e-3
seed = 9

[solver]
dt = auto
n_steps = none
snapshot_times = 0, 5, 25
diag_stride = 10

[analysis]
x_c = 0.45

[paths]
out_dir = results
"""


def test_empty_document_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.nx == 256 and cfg.mean == 0.48 and cfg.dt is None
    assert cfg.snapshot_times == (0.0, 10.0, 50.0, 500.0)


def test_parse_sample():
    cfg = parse_config(SAMPLE)
    assert (cfg.nx, cfg.ny, cfg.h) == (128, 64, 0.5)
    assert cfg.mean == 0.4 and cfg.seed == 9
    assert cfg.dt is None and cfg.n_steps is None
    assert cfg.snapshot_times == (0.0, 5.0, 25.0)
    assert cfg.diag_stride == 10
    assert cfg.x_c == 0.45
    assert cfg.out_dir == "results"
    # untouched keys keep their defaults
    assert cfg.kappa == 1.0 and cfg.sigma_al == 1e-4


def test_explicit_dt_and_n_steps():
    cfg = parse_config("[solver]\ndt = 0.002\nn_steps = 500\n")
    assert cfg.dt == 0.002 and cfg.n_steps == 500


def test_snapshot_times_are_sorted():
    cfg = parse_config("[solver]\nsnapshot_times = 50, 0, 10\n")
    assert cfg.snapshot_times == (0.0, 10.0, 50.0)


@pytest.mark.parametrize("text,lineno", [
    ("[grid]\nnx = 2\n", 2),
    ("[grid]\nnx = abc\n", 2),
    ("[grid]\nwidth = 5\n", 2),
    ("[mesh]\nnx = 8\n", 1),
    ("nx = 8\n", 1),
    ("[grid\nnx = 8\n", 1),
    ("[grid]\njust a line\n", 2),
    ("[init]\nmean = 1.5\n", 2),
    ("[solver]\ndt = -1\n", 2),
    ("[solver]\nsnapshot_times = ,\n", 2),
    ("[analysis]\nx_c = 0\n", 2),
    ("[solver]\ndt = 0.001\n[grid]\nnx = 8\n[solver]\ndt = auto\n", 6),
])
def test_rejects_with_line_number(text, lineno):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.line == lineno
    assert str(info.value).startswith(f"line {lineno}:")


FLOAT_KEYS = [("grid", "h"), ("init", "mean"), ("init", "variance"),
              ("solver", "D"), ("solver", "kappa"), ("solver", "dt"),
              ("solver", "snapshot_times"), ("analysis", "x_c"),
              ("analysis", "sigma_ti"), ("analysis", "sigma_al")]


@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS, ids=[k for _, k in FLOAT_KEYS])
def test_rejects_non_finite_floats(section, key, value):
    if key == "snapshot_times":
        value = f"0, {value}"
    with pytest.raises(ConfigError) as info:
        parse_config(f"[{section}]\n\n{key} = {value}\n")
    assert info.value.line == 3


def test_serialize_round_trip():
    cfg = parse_config(SAMPLE)
    assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config(serialize_config(RunConfig())) == RunConfig()


def test_serialize_spells_sentinels():
    text = serialize_config(RunConfig())
    assert "dt = auto" in text
    assert "n_steps = auto" in text


def test_load_config(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(SAMPLE)
    assert load_config(p) == parse_config(SAMPLE)
