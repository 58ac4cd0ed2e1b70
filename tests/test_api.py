"""The package root's public surface, the README example, and the no-assert rule."""

import ast
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
