import argparse
import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from spinodalkit import analysis, cli
from spinodalkit.cli import build_parser
from spinodalkit.config import _SCHEMA, RunConfig, parse_config

MODULES = ["spinodalkit"] + [f"spinodalkit.{m}" for m in (
    "analysis", "config", "fields", "fitting", "render", "solver", "thermo",
    "transport")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from <module> import *`
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


ROOT = Path(__file__).resolve().parents[1]


def _perfbench_spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_hook_points_exist():
    # the tracer wraps each (module, attribute) its callers look up; one
    # that no longer exists makes its per-layer metrics read 0
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in _perfbench_spans().HOOKS
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_benchmark_tracer_notes_and_names_come_from_real_calls(tmp_path):
    # the tracer's notes read return values (n_clusters, n_steps) and its
    # span names read arguments (the R_eff axis), which attribute checks
    # alone do not pin
    ini = tmp_path / "run.ini"
    ini.write_text("[grid]\nnx = 16\nny = 16\n[solver]\nsnapshot_times = 0, 1\n")
    out = str(tmp_path / "out")
    tracer = _perfbench_spans().Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in (
            ["simulate", "--config", str(ini), "--out", out],
            ["analyze", "--config", str(ini), "--in", out, "--out", out,
             "--threads", "2"],
            ["render", "--in", out, "--out", out])]
        analysis.effective_sheet_resistance(np.ones((4, 4)), "y")
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    assert tracer.missing == []
    notes = {}
    for name, *_, note in tracer.spans:
        notes.setdefault(name, []).append(note)
    assert len(notes["analysis.label_clusters"]) == 2
    assert all("n_clusters" in note for note in notes["analysis.label_clusters"])
    assert "analysis.effective_sheet_resistance_y" in notes
    assert [note["steps"] for note in notes["solver.run"]] == [200]


def _readme_block(heading: str, lang: str) -> str:
    section = (ROOT / "README.md").read_text().split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_matches_the_api():
    # the example is not run (its 256^2 solve to t=500 takes a minute), so
    # its imports and the argument count of each call into the package are
    # checked against the code instead
    tree = ast.parse(_readme_block("Library use", "python"))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("spinodalkit"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names:
            inspect.signature(names[node.func.id]).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})
            called.add(node.func.id)
    assert "run" in called


def test_readme_config_example_is_the_default_config():
    text = _readme_block("Configuration", "ini")
    assert parse_config(text) == RunConfig()
    keys = {line.partition("=")[0].strip() for line in text.splitlines()
            if "=" in line and not line.startswith(("#", ";"))}
    assert keys == {key for entries in _SCHEMA.values() for key in entries}


def test_readme_command_flags_are_options_of_their_subcommand():
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    lines = [line.split() for line in _readme_block("Command line", "sh").splitlines()
             if line.startswith("spinodalkit ")]
    unknown = [(words[1], flag) for words in lines
               for flag in re.findall(r"--[\w-]+", " ".join(words[2:]))
               if flag not in subcommands[words[1]]._option_string_actions]
    assert len(lines) == 8 and unknown == []


def _calls_by_function(path):
    """(enclosing function, call node) for every call in a module."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield scope, child
            yield from walk(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)
    return walk(ast.parse(path.read_text()), "<module>")


def _opens_for_writing(call) -> bool:
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(file, mode), io.open(file, mode) and os.open(path, flags), but
    # Path.open(mode)
    method = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) not in ("io", "os")
    args = call.args if method else call.args[1:]
    mode = args[0] if args else next(
        (k.value for k in call.keywords if k.arg in ("mode", "flags")), None)
    # a mode that is not a literal (os.open's flags among them) counts as writing
    return mode is not None and not (isinstance(mode, ast.Constant)
                                     and not set(str(mode.value)) & set("wax+"))


def test_one_writer_and_one_body_parser():
    # every output is written whole or not at all by fields._write_whole,
    # and every numeric body is parsed by the one np.loadtxt in fields._loadtxt
    writes, loads = [], []
    for path in sorted((ROOT / "src" / "spinodalkit").glob("*.py")):
        for scope, call in _calls_by_function(path):
            where = (path.name, scope)
            if _opens_for_writing(call):
                writes.append(where)
            if getattr(call.func, "attr", None) == "loadtxt":
                loads.append(where)
    assert writes == [("fields.py", "_write_whole")]
    assert loads == [("fields.py", "_loadtxt")]
