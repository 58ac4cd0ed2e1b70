"""The package root's public surface, the README example, the no-assert rule,
the modules a CLI start imports, the records' semantics, and the names the
benchmark's tracer binds."""

import ast
import copy
import importlib.util
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import structctrl
from structctrl import build_digraph, design_inputs, is_structurally_controllable
from structctrl.graph_core import Condensation, StructPattern, SystemDigraph
from structctrl.oracle import OracleVerdict
from structctrl.placement import EnumerationResult, PlacementDesign, PlacementSummary

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
    # -S keeps site hooks (.pth files) from importing modules the CLI would
    # then seem to import itself.
    heavy = ["numpy", "dataclasses", "inspect", "statistics", "typing"]
    code = (
        "import sys\n"
        "from structctrl.cli import run_cli\n"
        "run_cli(['--version'])\n"
        f"print([m for m in {heavy!r} if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[]"


def test_records_are_frozen_and_compare_on_their_fields():
    sync6 = structctrl.parse_pattern(ROOT / "tests" / "golden" / "sync6.el")
    design = design_inputs(sync6)
    summary, enum = design.summary, design.enumeration
    g = build_digraph(sync6)
    b = structctrl.emit_input_matrix(enum.configurations[0], sync6.n_rows)
    verdict = is_structurally_controllable(sync6, b)
    records = [sync6, g, summary.condensation, summary, enum, design, verdict]

    for record in records:
        field = type(record).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = None
        for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and hash(twin) == hash(record)

    # Equality and the hash ignore the absorbed matching and the state sets.
    fields = {f: getattr(summary, f) for f in PlacementSummary.__slots__}
    other = PlacementSummary(**{**fields, "absorbed": ((), ())})
    assert other == summary and hash(other) == hash(summary)
    assert PlacementSummary(**{**fields, "witness": ((), ())}) != summary
    other = EnumerationResult(enum.configurations, enum.truncated, frozenset())
    assert other == enum and hash(other) == hash(enum)
    assert EnumerationResult(enum.configurations, not enum.truncated, enum.state_sets()) != enum

    # Equal patterns and equal digraphs hash equal; a digraph compares its
    # successor lists, not its predecessor lists.
    same = StructPattern(sync6.n_rows, sync6.n_cols, sync6.nonzeros)
    assert same == sync6 and hash(same) == hash(sync6) and same is not sync6
    assert build_digraph(same) == g and hash(build_digraph(same)) == hash(g)
    assert SystemDigraph(g.n, g.successors(), []) == g
    assert g.reversed() != g and hash(g.reversed()) == hash(g)
    assert sync6 != g

    # The repr lists these fields, in field order.
    shown = {
        StructPattern: ["n_rows", "n_cols", "columns"],
        SystemDigraph: ["n"],
        Condensation: ["scc_of", "scc_members", "non_top_linked"],
        PlacementSummary: ["m", "beta", "alpha", "p", "assignable_vertices", "open_sccs",
                           "condensation"],
        EnumerationResult: ["configurations", "truncated", "oracle_rejections"],
        PlacementDesign: ["summary", "enumeration"],
        OracleVerdict: ["controllable", "accessibility_ok", "dilation_free", "numeric_rank"],
    }
    for record in records:
        listed = ", ".join(f"{f}={getattr(record, f)!r}" for f in shown[type(record)])
        assert repr(record) == f"{type(record).__name__}({listed})"

    # The digraph's constructor takes what the generated one took.
    assert inspect.signature(SystemDigraph, eval_str=True) == inspect.Signature(
        [inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=kind)
         for name, kind in [("n", int), ("_succ", list[tuple[int, ...]]),
                            ("_pred", list[tuple[int, ...]])]],
        return_annotation=None,
    )


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
