"""The package root's public surface, the README example, the no-assert rule,
and the names the benchmark's tracer binds."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import structctrl

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "PatternFormatError",
    "StructPattern",
    "brute_force_minimum",
    "build_digraph",
    "design_inputs",
    "design_outputs",
    "emit_input_matrix",
    "emit_output_matrix",
    "enumerate_configurations",
    "gen_random",
    "generate_configuration",
    "is_structurally_controllable",
    "min_dedicated_inputs",
    "natural_partitions",
    "numeric_cross_check",
    "parse_pattern",
    "write_pattern",
]


def test_package_root_exports_exactly_the_public_names():
    assert sorted(structctrl.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(structctrl, name) is not None


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise real errors.
    for path in sorted((ROOT / "src" / "structctrl").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert found == [], f"{path.name}: assert on lines {found}"


def test_cli_startup_does_not_import_numpy():
    code = (
        "import sys\n"
        "from structctrl.cli import run_cli\n"
        "run_cli(['--version'])\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "False"


def test_benchmark_tracer_binds_names_the_library_still_has(monkeypatch, capsys):
    # perfbench/tracer.py wraps library functions and methods by name; a
    # library edit that drops one of those names must fail here.  The
    # tracer is loaded from its file, and no bytecode is written beside it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    from structctrl import cli, graph_core

    owners = [structctrl] + [
        importlib.import_module(f"structctrl.{name}") for name in tracer_module.MODULES
    ]
    owners += [getattr(graph_core, name) for name in tracer_module.METHODS]
    attrs = {a for names in (*tracer_module.FUNCTIONS.values(), *tracer_module.METHODS.values())
             for a in names}

    def bindings():
        return {(owner, a): vars(owner)[a] for owner in owners for a in attrs if a in vars(owner)}

    before = bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        sync6 = str(ROOT / "tests" / "golden" / "sync6.el")
        assert cli.run_cli(["design-inputs", sync6, "--all", "--format", "json"]) == 0
        _, roots, problems = tracer.end_pass()
    finally:
        tracer.uninstall()
    json.loads(capsys.readouterr().out)
    assert problems == [] and roots > 0
    spans = {tracer.names[i] for i in tracer.name_ids}
    assert {"graph_core.build_digraph", "graph_core.SystemDigraph.__init__",
            "matching.solve_matching"} <= spans
    assert bindings() == before  # functions compare by identity
