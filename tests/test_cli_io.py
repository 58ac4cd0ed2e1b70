import json
import random
import re

import pytest

from structctrl import (
    PatternFormatError,
    StructPattern,
    build_digraph,
    gen_random,
    min_dedicated_inputs,
    parse_pattern,
    write_pattern,
)
from structctrl import cli
from structctrl.cli import run_cli
from brute import random_pattern

SYNC6_EDGELIST = """\
# 6-agent synchronization example
n 6
1 1
2 2
3 1
3 2
3 4
4 3
4 5
4 6
5 4
6 4
"""


@pytest.fixture
def sync6_file(tmp_path):
    path = tmp_path / "sync6.el"
    path.write_text(SYNC6_EDGELIST)
    return path


def test_parse_edgelist_worked_example(sync6_file, sync6_pattern):
    assert parse_pattern(sync6_file) == sync6_pattern


def test_parse_edgelist_empty_with_declared_size(tmp_path):
    path = tmp_path / "empty.el"
    path.write_text("n 1\n")
    assert parse_pattern(path) == StructPattern(1, 1, frozenset())


def test_parse_edgelist_out_of_range(tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("n 6\n1 1\n7 1\n")
    with pytest.raises(PatternFormatError, match="line 3"):
        parse_pattern(path)


def test_parse_edgelist_malformed_line(tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("1 2\nfoo bar baz\n")
    with pytest.raises(PatternFormatError, match="line 2"):
        parse_pattern(path)


def test_parse_edgelist_warns_on_duplicates(tmp_path):
    path = tmp_path / "dup.el"
    path.write_text("2 1\n2 1\n")
    with pytest.warns(UserWarning, match="duplicate"):
        pattern = parse_pattern(path)
    assert pattern == StructPattern(2, 2, {(1, 0)})


def test_parse_edgelist_infers_square_hull(tmp_path):
    path = tmp_path / "nohdr.el"
    path.write_text("1 3\n2 1\n")
    assert parse_pattern(path).n_rows == 3


def test_parse_rectangular_shape_directive(tmp_path):
    path = tmp_path / "b.el"
    path.write_text("shape 6 3\n1 1\n2 2\n5 3\n")
    p = parse_pattern(path)
    assert (p.n_rows, p.n_cols) == (6, 3)
    assert p.nonzeros == frozenset({(0, 0), (1, 1), (4, 2)})


def test_parse_json(tmp_path, sync6_pattern):
    path = tmp_path / "sync6.json"
    write_pattern(sync6_pattern, path)
    assert parse_pattern(path) == sync6_pattern


def test_parse_json_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{不valid")
    with pytest.raises(PatternFormatError, match="JSON"):
        parse_pattern(path)
    path.write_text(json.dumps({"n": 2, "nonzeros": [[0, 1]]}))
    with pytest.raises(PatternFormatError, match="one-based"):
        parse_pattern(path)


@pytest.mark.parametrize(
    "payload, where",
    [
        ({"n": "3", "nonzeros": []}, "n:"),
        ({"n_rows": 3, "n_cols": 2.0, "nonzeros": []}, "n_cols:"),
        ({"n_rows": True, "n_cols": 3, "nonzeros": []}, "n_rows:"),
        ({"n": 3, "nonzeros": {"1": 2}}, "nonzeros:"),
        ({"n": 3, "nonzeros": [[True, 1]]}, "nonzeros[0]:"),
        ({"n": 3, "nonzeros": [[1, 2], [2, True]]}, "nonzeros[1]:"),
    ],
)
def test_parse_json_rejects_wrong_types(tmp_path, capsys, payload, where):
    a = tmp_path / "bad.json"
    a.write_text(json.dumps(payload))
    with pytest.raises(PatternFormatError, match=re.escape(where)):
        parse_pattern(a)
    b = tmp_path / "b.el"
    b.write_text("shape 3 1\n1 1\n")
    assert run_cli(["verify", str(a), str(b)]) == 2
    assert f"error: {where}" in capsys.readouterr().err


def test_parse_mtx(tmp_path, sync6_pattern):
    path = tmp_path / "sync6.mtx"
    write_pattern(sync6_pattern, path)
    text = path.read_text()
    assert text.startswith("%%MatrixMarket matrix coordinate pattern general")
    assert parse_pattern(path) == sync6_pattern


def test_parse_mtx_values_ignored(tmp_path):
    path = tmp_path / "real.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n2 1 -1.0\n"
    )
    assert parse_pattern(path) == StructPattern(2, 2, {(0, 0), (1, 0)})


def test_parse_mtx_symmetric(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n")
    assert parse_pattern(path) == StructPattern(3, 3, {(1, 0), (0, 1), (2, 2)})


def test_parse_mtx_entry_count_must_match_size_line(tmp_path):
    path = tmp_path / "count.mtx"
    for declared in (5, 0):
        path.write_text(
            f"%%MatrixMarket matrix coordinate pattern general\n3 3 {declared}\n1 1\n"
        )
        with pytest.raises(PatternFormatError, match=f"line 2: .*declares {declared}"):
            parse_pattern(path)


def test_parse_mtx_bad_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
    with pytest.raises(PatternFormatError):
        parse_pattern(path)


def test_round_trip_all_formats(tmp_path):
    rng = random.Random(9)
    for fmt, name in (("edgelist", "a.el"), ("pattern-json", "a.json"), ("mtx-pattern", "a.mtx")):
        for _ in range(20):
            p = random_pattern(rng, rng.randint(1, 8), rng.random())
            path = tmp_path / name
            write_pattern(p, path, fmt)
            assert parse_pattern(path, fmt) == p


def test_format_autodetect_by_content(tmp_path):
    path = tmp_path / "mystery"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
    assert parse_pattern(path) == StructPattern(1, 1, {(0, 0)})


def test_gen_erdos_deterministic():
    p1, prov1 = gen_random(6, "erdos", seed=42, p_edge=0.3)
    p2, prov2 = gen_random(6, "erdos", seed=42, p_edge=0.3)
    assert p1 == p2 and prov1 == prov2
    p3, _ = gen_random(6, "erdos", seed=43, p_edge=0.3)
    assert p3 != p1  # overwhelmingly likely and fixed by the seeds above


def test_gen_single_vertex():
    for model in ("erdos", "scalefree", "banded"):
        p, _ = gen_random(1, model, seed=0, p_edge=1.0)
        assert p.n_rows == 1
        assert p.nonzeros <= {(0, 0)}


def test_gen_complete_graph_is_one_scc_with_perfect_match():
    p, _ = gen_random(8, "erdos", seed=1, p_edge=1.0)
    assert p.nnz == 64
    s = min_dedicated_inputs(build_digraph(p))
    assert (s.m, s.beta, s.p) == (0, 1, 1)


def test_gen_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_random(0, "erdos")
    with pytest.raises(ValueError):
        gen_random(3, "erdos", p_edge=1.5)
    with pytest.raises(ValueError):
        gen_random(3, "banded", fill=-0.1)
    with pytest.raises(ValueError):
        gen_random(3, "scalefree", attach=0)
    with pytest.raises(ValueError):
        gen_random(3, "smallworld")


def test_gen_models_produce_valid_patterns():
    p, _ = gen_random(12, "scalefree", seed=5, attach=2)
    assert p.n_rows == 12
    p, _ = gen_random(10, "banded", seed=5, band=2, fill=0.7)
    assert all(abs(i - j) <= 2 for i, j in p.nonzeros)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_analyze_text(sync6_file, capsys):
    assert run_cli(["analyze", str(sync6_file)]) == 0
    out = capsys.readouterr().out
    assert "m=2 beta=2 alpha=1 p=3" in out


def test_cli_analyze_json_schema(sync6_file, capsys):
    assert run_cli(["analyze", str(sync6_file), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timings_ms")
    assert report == {
        "schema_version": 1,
        "command": "analyze",
        "instance": {
            "n": 6,
            "edge_count": 10,
            "scc_count": 3,
            "non_top_linked_count": 2,
        },
        "summary": {
            "m": 2,
            "beta": 2,
            "alpha": 1,
            "p": 3,
            "assignable_vertices": [1],
            "assignment_edges": [[1, 1]],
        },
    }


def test_cli_verify_feasible(sync6_file, tmp_path, capsys):
    b = tmp_path / "b135.el"
    b.write_text("shape 6 3\n1 1\n2 2\n5 3\n")
    assert run_cli(["verify", str(sync6_file), str(b)]) == 0
    assert "controllable: true" in capsys.readouterr().out


def test_cli_verify_infeasible_exits_1(sync6_file, tmp_path, capsys):
    b = tmp_path / "b123.el"
    b.write_text("shape 6 3\n1 1\n2 2\n3 3\n")
    assert run_cli(["verify", str(sync6_file), str(b)]) == 1
    assert "controllable: false" in capsys.readouterr().out


def test_cli_verify_negative_trials_exits_2(sync6_file, tmp_path, capsys):
    b = tmp_path / "b.el"
    b.write_text("shape 6 3\n1 1\n2 2\n5 3\n")
    assert run_cli(["verify", str(sync6_file), str(b), "--trials", "-1"]) == 2
    assert "--trials" in capsys.readouterr().err


def test_cli_design_inputs_all(sync6_file, capsys):
    assert run_cli(["design-inputs", str(sync6_file), "--all", "--emit-b"]) == 0
    out = capsys.readouterr().out
    assert "configuration: 1 2 5" in out
    assert "configuration: 1 2 6" in out
    assert out.count("configuration:") == 2
    assert "B pattern (6x3)" in out


def test_cli_design_inputs_single(sync6_file, capsys):
    assert run_cli(["design-inputs", str(sync6_file)]) == 0
    out = capsys.readouterr().out
    assert out.count("configuration:") == 1


def test_cli_default_designs_worked_example(sync6_file, capsys):
    assert run_cli(["design-inputs", str(sync6_file)]) == 0
    assert "configuration: 1 2 6\n" in capsys.readouterr().out
    assert run_cli(["design-outputs", str(sync6_file)]) == 0
    assert "configuration: 5 6\n" in capsys.readouterr().out


def test_cli_design_outputs(sync6_file, capsys):
    assert run_cli(["design-outputs", str(sync6_file), "--all", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["p"] == 2
    assert sorted(report["configurations"]) == [[3, 5], [3, 6], [5, 6]]


def test_cli_enumerate_limit(sync6_file, capsys):
    assert run_cli(["enumerate", str(sync6_file), "--limit", "1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["configurations"]) == 1
    assert report["truncated"] is True


def test_cli_gen_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gen.el"
    assert run_cli(["gen", "erdos", "6", "--seed", "42", "--p-edge", "0.3",
                    "-o", str(out_file)]) == 0
    p = parse_pattern(out_file)
    expected, _ = gen_random(6, "erdos", seed=42, p_edge=0.3)
    assert p == expected
    assert "# gen model=erdos" in out_file.read_text()


def test_cli_unknown_flag_exits_2(sync6_file, capsys):
    assert run_cli(["analyze", str(sync6_file), "--frobnicate"]) == 2


def test_cli_unknown_command_exits_2(capsys):
    assert run_cli(["transmogrify"]) == 2


def test_cli_missing_file_exits_2(capsys):
    assert run_cli(["analyze", "/no/such/file.el"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_internal_error_exits_3(sync6_file, monkeypatch, capsys):
    def broken(g, matching=None):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "min_dedicated_inputs", broken)
    assert run_cli(["analyze", str(sync6_file)]) == 3
    assert capsys.readouterr().err == "internal error: broken invariant\n"


def test_cli_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_text("n 2\n5 5\n")
    assert run_cli(["analyze", str(path)]) == 2


@pytest.mark.parametrize(
    "name, text",
    [
        ("super.el", "n ²\n1 1\n"),
        ("shape.el", "shape 3 ³\n1 1\n"),
        ("negative.mtx", "%%MatrixMarket matrix coordinate pattern general\n-3 -3 0\n"),
    ],
)
def test_cli_bad_size_line_exits_2_with_line(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert run_cli(["analyze", str(path)]) == 2
    assert "line " in capsys.readouterr().err


def test_cli_bench_small(capsys):
    assert run_cli(["bench", "--sizes", "30,60", "--degree", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in report["runs"]] == [30, 60]
    assert report["fitted_exponent"] is not None
