import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structctrl

from structctrl import (
    PatternFormatError,
    StructPattern,
    build_digraph,
    gen_random,
    min_dedicated_inputs,
    parse_pattern,
    write_pattern,
)
from structctrl import cli, fileio
from structctrl.cli import run_cli
from structctrl.oracle import OracleVerdict
from brute import random_pattern, reference_parse_edgelist

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


def _parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: the pattern and its warnings, or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            pattern = parse(text)
        except PatternFormatError as exc:
            return "error", str(exc)
    return "pattern", pattern, [str(w.message) for w in caught]


EDGELIST_PIECES = [*"0123456789", " ", "\t", "\n", "#", "n", "shape", "\u00b2", "\u0663", "_", "-"]
# Short lines over the same pieces, so that texts of several entry and size lines are common.
_LINE = st.lists(st.sampled_from([p for p in EDGELIST_PIECES if p != "\n"]), max_size=6)
EDGELIST_TEXTS = st.one_of(
    st.lists(st.sampled_from(EDGELIST_PIECES), max_size=40).map("".join),
    st.lists(_LINE.map("".join), max_size=8).map("\n".join),
)


@settings(max_examples=1000, deadline=None)
@given(EDGELIST_TEXTS)
def test_edgelist_parser_agrees_with_reference(text):
    assert _parse_outcome(fileio._parse_edgelist, text) == _parse_outcome(
        reference_parse_edgelist, text
    )


# File name -> (contents, where the error must point).
OVERSIZED = {
    "n.el": ("n 10000001\n", "line 1:"),
    "shape.el": ("# wide\nshape 3 10000001\n", "line 2:"),
    "hull.el": ("1 1\n10000001 2\n", "line 2:"),
    "n.json": ('{"n": 10000001, "nonzeros": []}', "n:"),
    "cols.json": ('{"n_rows": 3, "n_cols": 10000001, "nonzeros": []}', "n_cols:"),
    "size.mtx": ("%%MatrixMarket matrix coordinate pattern general\n10000001 3 0\n", "line 2:"),
}


# Edgelist text -> a fragment of the error or warning it must give (None: it parses cleanly).
EDGELIST_CASES = {
    "later bad line beats earlier range error": ("n 2\n5 5\nfoo bar baz\n", "line 3: expected 'i j'"),
    "first bad line wins": ("1 1\n0 2\n1 x\n", "line 2: indices are one-based, got (0, 2)"),
    "bad line beats hull limit": ("10000001 1\n1 1 1\n", "line 2: expected 'i j'"),
    "size after entries": ("1 1\n3 3\nn 2\n", "line 2: entry (3, 3) outside declared 2x2"),
    "last size directive counts": ("n 9\n1 1\n2 9\n1 5\nshape 3 4\n",
                                   "line 3: entry (2, 9) outside declared 3x4"),
    "size after entries fits": ("5 5\nn 6\n", None),
    "range error skips border entries": ("n 3\n3 3\n4 1\n", "line 3: entry (4, 1) outside declared 3x3"),
    "non-ASCII comment": ("n 3\n1 2 # \u00b2 \u0663 \u00e9\n3 3\n", None),
    "non-ASCII index": ("n 3\n1 \u0663\n", "line 2: indices must be ASCII digits"),
    "non-ASCII space between known indices": ("n 3\n1 2\n1\u00a02\n",
                                              "line 3: indices must be ASCII digits"),
    "non-ASCII space stripped": ("n 3\n1 2\n\u00a01 2\n", "1 duplicate edgelist entry"),
    "hull limit": (OVERSIZED["hull.el"][0], "line 2: dimension 10000001 exceeds"),
    "one duplicate": ("2 1\n2 1\n", "1 duplicate edgelist entry ignored"),
    "three duplicates": ("1 1\n1 1\n2 2\n1 1\n01 1\n", "3 duplicate edgelist entries ignored"),
    # Lines whose tokens are seen for the first time.
    "first-seen zero index": ("n 3\n0 1\n", "line 2: indices are one-based, got (0, 1)"),
    "first-seen zeros index": ("n 3\n00 1\n", "line 2: indices are one-based, got (0, 1)"),
    "first-seen letter": ("n 3\n2 x\n", "line 2: indices must be ASCII digits"),
    "first-seen padded duplicate": ("1 1\n001 1\n", "1 duplicate edgelist entry ignored"),
    "first-seen with comment": ("n 3\n1 1 # c\n2 3\n", None),
    # int() refuses over 4300 digits on recent Pythons; the letter must be named first.
    "first-seen long token before a letter": ("n 3\n" + "1" * 5000 + " x\n",
                                              "line 2: indices must be ASCII digits"),
    # More significant digits than MAX_STATES: refused at their line, before int().
    "first-seen long token": ("n 3\n" + "1" * 5000 + " 1\n", "line 2: dimension 1111"),
    "long token after a known one": ("1 1\n1 123456789\n",
                                     "line 2: dimension 123456789 exceeds the limit"),
    "long token beats a later bad line": ("n 3\n123456789 1\nfoo\n", "line 2: dimension"),
    "long size directive": ("n " + "9" * 5000 + "\n", "line 1: dimension 9999"),
    "long shape directive": ("shape 3 123456789\n", "line 1: dimension 123456789"),
    "zero-padded index": ("n 3\n" + "0" * 20 + "3 1\n3 " + "0" * 9 + "2\n", None),
}


@pytest.mark.parametrize("case", sorted(EDGELIST_CASES))
def test_edgelist_parser_fixed_cases(case):
    text, fragment = EDGELIST_CASES[case]
    outcome = _parse_outcome(fileio._parse_edgelist, text)
    assert outcome == _parse_outcome(reference_parse_edgelist, text)
    if fragment is None:
        assert outcome[0] == "pattern" and outcome[2] == []
    else:
        assert fragment in (outcome[1] if outcome[0] == "error" else " ".join(outcome[2]))


def _one_int_per_index(pattern):
    values = [v for entry in pattern.nonzeros for v in entry]
    return len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize("fmt", ["edgelist", "pattern-json", "mtx-pattern"])
def test_parsers_keep_one_int_per_index(tmp_path, fmt):
    # Indices above 256, which CPython does not cache, so sharing is the parser's.
    rng = random.Random(41)
    n = 3000
    pattern = StructPattern(n, n, {(rng.randrange(n), rng.randrange(n)) for _ in range(4000)})
    path = tmp_path / "p.txt"
    write_pattern(pattern, path, fmt)
    parsed = parse_pattern(path, fmt)
    assert parsed == pattern and _one_int_per_index(parsed)


@pytest.mark.parametrize(
    "name, text, indices",
    [
        ("zeros.el", "n 400\n300 0300\n00300 7\n7 300 # again\n", {299, 6}),
        ("sym.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n400 400 3\n"
                    "300 7\n7 7\n399 300\n", {299, 6, 398}),
    ],
)
def test_parsers_share_ints_across_spellings_and_mirrors(tmp_path, name, text, indices):
    path = tmp_path / name
    path.write_text(text)
    parsed = parse_pattern(path)
    assert {v for entry in parsed.nonzeros for v in entry} == indices
    assert _one_int_per_index(parsed)


@pytest.mark.parametrize(
    "name, text",
    [
        ("big.el", "n 10000000\n1 2\n9999999 10000000\n"),
        ("big.json", '{"n": 10000000, "nonzeros": [[1, 2], [9999999, 10000000]]}'),
        ("big.mtx", "%%MatrixMarket matrix coordinate pattern general\n"
                    "10000000 10000000 2\n1 2\n9999999 10000000\n"),
    ],
)
def test_parse_allocates_nothing_per_declared_state(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    tracemalloc.start()
    try:
        pattern = parse_pattern(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pattern.n_rows == 10_000_000 and pattern.nnz == 2
    assert peak < 1_000_000  # one pointer per declared state would be 80 MB


@pytest.fixture(scope="module")
def erdos_20k_files(tmp_path_factory):
    """The erdos instance of 2*10**4 states and mean degree 5, in each format."""
    pattern, _ = gen_random(20_000, "erdos", seed=5, p_edge=5 / 20_000)
    folder = tmp_path_factory.mktemp("erdos-20k")
    files = {}
    for fmt, name in (("edgelist", "a.el"), ("pattern-json", "a.json"), ("mtx-pattern", "a.mtx")):
        files[fmt] = folder / name
        write_pattern(pattern, files[fmt], fmt)
    return files


def _traced(fn):
    """fn()'s result, the traced memory it leaves held, and the peak while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


# Parse peak over the size of the parsed pattern.  With each parser's
# scaffolding dropped before the entry set is built, the instance above reads
# 1.35 (edgelist), 2.08 (JSON) and 1.35 (mtx); kept to the end, 1.55, 3.10 and 2.05.
PARSE_PEAK_OVER_PATTERN = {"edgelist": 1.45, "pattern-json": 2.5, "mtx-pattern": 1.45}


@pytest.mark.parametrize("fmt", sorted(PARSE_PEAK_OVER_PATTERN))
def test_parse_drops_its_scaffolding_before_the_entry_set(erdos_20k_files, fmt):
    pattern, size, peak = _traced(lambda: parse_pattern(erdos_20k_files[fmt]))
    assert pattern.n_rows == 20_000 and pattern.nnz > 90_000
    assert peak <= PARSE_PEAK_OVER_PATTERN[fmt] * size, peak / size


def test_cli_analyze_peaks_at_pattern_plus_digraph(erdos_20k_files, capsys):
    # analyze drops the pattern once the digraph exists, so the later stages
    # allocate into the room it leaves.
    path = erdos_20k_files["edgelist"]

    def pattern_and_digraph():
        pattern = parse_pattern(path)
        return pattern, build_digraph(pattern)

    held, both, _ = _traced(pattern_and_digraph)
    del held
    code, _, peak = _traced(lambda: run_cli(["analyze", str(path), "--format", "json"]))
    assert code == 0 and json.loads(capsys.readouterr().out)["instance"]["n"] == 20_000
    assert peak <= 1.05 * both, (peak, both)


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


def test_cli_prints_library_warnings_as_one_line(tmp_path, capsys):
    # Every call shows the warning, without the library's file and source
    # line; the report is the one the file without the repeat gives.
    clean = tmp_path / "clean.el"
    clean.write_text("n 3\n1 2\n2 3\n")
    dup = tmp_path / "dup.el"
    dup.write_text("n 3\n1 2\n1 2\n2 3\n")
    assert run_cli(["analyze", str(clean)]) == 0
    expected = capsys.readouterr().out
    for _ in range(2):
        assert run_cli(["analyze", str(dup)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: 1 duplicate edgelist entry ignored\n"
        assert captured.out == expected
    # Both files of one call warn from the same line of the library.
    b = tmp_path / "b.el"
    b.write_text("shape 3 1\n3 1\n3 1\n")
    assert run_cli(["verify", str(dup), str(b)]) == 0
    assert capsys.readouterr().err == "warning: 1 duplicate edgelist entry ignored\n" * 2
    with pytest.warns(UserWarning, match="1 duplicate edgelist entry ignored"):
        parse_pattern(dup)


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


def _oracle_stub(calls):
    def stub(a, b, trials=0, seed=0):
        calls.append((a.n_rows, trials))
        return OracleVerdict(True, True, True, a.n_rows if trials else None)

    return stub


def test_cli_verify_refuses_too_many_trials_before_any_work(sync6_file, tmp_path,
                                                            monkeypatch, capsys):
    b = tmp_path / "b.el"
    b.write_text("shape 6 3\n1 1\n2 2\n5 3\n")
    calls = []
    monkeypatch.setattr(cli, "is_structurally_controllable", _oracle_stub(calls))
    argv = ["verify", str(sync6_file), str(b), "--trials"]
    assert run_cli(argv + [str(cli.MAX_TRIALS + 1)]) == 2
    assert f"--trials must be between 0 and {cli.MAX_TRIALS}" in capsys.readouterr().err
    assert calls == []
    assert run_cli(argv + [str(cli.MAX_TRIALS)]) == 0
    assert calls == [(6, cli.MAX_TRIALS)]


def test_cli_verify_refuses_trials_above_the_state_limit(tmp_path, monkeypatch, capsys):
    # A pattern one state over the limit: refused before any trial runs,
    # while the same pair without --trials gets the graph verdict.
    def files(n):
        a, b = tmp_path / f"a{n}.el", tmp_path / f"b{n}.el"
        a.write_text(f"n {n}\n1 1\n")
        b.write_text(f"shape {n} 1\n1 1\n")
        return [str(a), str(b)]

    over = files(cli.MAX_TRIAL_STATES + 1)
    calls = []
    monkeypatch.setattr(cli, "is_structurally_controllable", _oracle_stub(calls))
    assert run_cli(["verify", *over, "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert f"--trials needs at most {cli.MAX_TRIAL_STATES} states" in err
    assert calls == []
    assert run_cli(["verify", *files(cli.MAX_TRIAL_STATES), "--trials", "1"]) == 0
    assert calls == [(cli.MAX_TRIAL_STATES, 1)]
    monkeypatch.undo()
    assert run_cli(["verify", *over]) == 1
    assert "controllable: false" in capsys.readouterr().out


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


def _json_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(argv + ["--format", "json"]) == 0
    report = json.loads(out.getvalue())
    report.pop("timings_ms")
    return report


SQUARE_PATTERNS = st.integers(1, 7).flatmap(
    lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)
    .map(lambda entries: StructPattern(n, n, entries))
)


@settings(max_examples=200, deadline=None)
@given(SQUARE_PATTERNS)
def test_cli_design_outputs_is_design_inputs_on_the_transpose(pattern):
    with tempfile.TemporaryDirectory() as folder:
        a, a_t = Path(folder) / "a.el", Path(folder) / "a_t.el"
        write_pattern(pattern, a)
        write_pattern(pattern.transpose(), a_t)
        outputs = _json_report(["design-outputs", str(a), "--all", "--emit-c"])
        inputs = _json_report(["design-inputs", str(a_t), "--all", "--emit-b"])
    assert (outputs.pop("command"), inputs.pop("command")) == ("design-outputs", "design-inputs")
    outputs["matrices"] = [
        {"n_rows": c["n_cols"], "n_cols": c["n_rows"],
         "nonzeros": sorted([j, i] for i, j in c["nonzeros"])}
        for c in outputs["matrices"]
    ]
    assert outputs == inputs


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


def test_cli_reuses_one_parser(sync6_file, monkeypatch, capsys):
    assert run_cli(["analyze", str(sync6_file), "--format", "json"]) == 0
    expected = json.loads(capsys.readouterr().out)
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert run_cli(["analyze"]) == 2
        assert run_cli(["--version"]) == 0
        assert capsys.readouterr().out == f"structctrl {structctrl.__version__}\n"
        assert run_cli(["analyze", str(sync6_file), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    for r in (report, expected):
        r.pop("timings_ms")
    assert report == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "A"],
        ["design-inputs", "A", "--all", "--emit-b"],
        ["design-outputs", "A", "--all", "--emit-c"],
        ["enumerate", "A"],
        ["verify", "A", "B"],
        ["bench", "--sizes", "30,60"],
    ],
)
def test_cli_json_report_is_one_compact_line(sync6_file, tmp_path, capsys, argv):
    b = tmp_path / "b.el"
    b.write_text("shape 6 3\n1 1\n2 2\n5 3\n")
    files = {"A": str(sync6_file), "B": str(b)}
    assert run_cli([files.get(a, a) for a in argv] + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.dumps(json.loads(out), sort_keys=True) == out[:-1]


def test_cli_text_design_skips_the_json_only_partitions(sync6_file, monkeypatch, capsys):
    calls = []

    def counted(g, summary):
        calls.append(1)
        return natural_partitions(g, summary)

    natural_partitions = cli.natural_partitions
    monkeypatch.setattr(cli, "natural_partitions", counted)
    assert run_cli(["design-inputs", str(sync6_file)]) == 0
    assert capsys.readouterr().out == "m=2 beta=2 alpha=1 p=3\nconfiguration: 1 2 6\n"
    assert calls == []
    assert run_cli(["design-outputs", str(sync6_file), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["partitions"]
    assert calls == [1]


def test_cli_names_the_line_of_bytes_that_are_not_utf8(sync6_file, tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_bytes(b"n 3\n1 1\n2 \xff\n")
    assert run_cli(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: byte 0xff is not UTF-8 (invalid start byte)\n"
    )
    b = tmp_path / "b.el"
    b.write_bytes(b"# \xc3\xa9 is fine\nshape 6 3\n1 1\n\r\n5 \xe9\n")
    assert run_cli(["verify", str(sync6_file), str(b)]) == 2
    assert capsys.readouterr().err == (
        "error: line 5: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"
    )


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


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_parse_refuses_dimensions_above_the_limit(tmp_path, name):
    text, where = OVERSIZED[name]
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(PatternFormatError, match=re.escape(where) + ".* 10000000 states"):
        parse_pattern(path)
    path.write_text(text.replace("10000001", "10000000"))
    at_limit = parse_pattern(path)
    assert 10_000_000 in (at_limit.n_rows, at_limit.n_cols)


def test_cli_oversized_pattern_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.el"
    path.write_text("n 100000000\n")
    assert run_cli(["analyze", str(path)]) == 2
    assert "line 1: dimension 100000000 exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["gen", "erdos", "100000000"], ["bench", "--sizes", "100000000"]]
)
def test_cli_gen_refuses_sizes_above_the_limit(capsys, argv):
    # Refused before anything is drawn: erdos would fill about 3e15 cells.
    assert run_cli(argv) == 2
    assert "n=100000000 exceeds the limit of 10000000 states" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["1_0", "+1", "\u0661"])
@pytest.mark.parametrize("fmt", ["el", "mtx"])
def test_cli_bad_entry_index_exits_2_with_line(tmp_path, capsys, index, fmt):
    # int() would read these as 10, 1 and 1.
    path = tmp_path / f"bad.{fmt}"
    if fmt == "el":
        path.write_text(f"n 12\n{index} 2\n", encoding="utf-8")
    else:
        path.write_text(
            f"%%MatrixMarket matrix coordinate pattern general\n12 12 1\n{index} 2\n",
            encoding="utf-8",
        )
    assert run_cli(["analyze", str(path)]) == 2
    assert "line " in capsys.readouterr().err


LONG = "1" * 5000


# File name -> (contents, where the error must point), each holding a number
# too long for int() on any Python with its default digit limit.
LONG_NUMBERS = {
    "entry.el": (f"n 3\n1 1\n2 {LONG}\n", "line 3: dimension 1111"),
    "first-seen.el": (f"1 1\n{LONG} 1\n", "line 2: dimension 1111"),
    "size.el": (f"# wide\nn {LONG}\n", "line 2: dimension 1111"),
    "entry.mtx": (f"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 {LONG}\n",
                  "line 3: dimension 1111"),
    "size.mtx": (f"%%MatrixMarket matrix coordinate pattern general\n3 {LONG} 0\n",
                 "line 2: dimension 1111"),
    "count.mtx": (f"%%MatrixMarket matrix coordinate pattern general\n3 3 {LONG}\n1 1\n",
                  "line 2: size line declares 1111"),
    "entry.json": (f'{{"n": 3,\n "nonzeros": [[1, {LONG}]]}}', "invalid JSON: line 2:"),
    "size.json": (f'{{"n": {LONG}, "nonzeros": []}}', "invalid JSON: line 1:"),
}


@pytest.mark.parametrize("name", sorted(LONG_NUMBERS))
def test_cli_names_the_line_of_a_number_too_long_for_int(tmp_path, capsys, name):
    text, where = LONG_NUMBERS[name]
    path = tmp_path / name
    path.write_text(text)
    assert run_cli(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert where in err and "Exceeds the limit" not in err


@pytest.mark.parametrize("name", ["entry.el", "entry.mtx"])
def test_cli_long_number_error_is_one_short_line(tmp_path, capsys, name):
    text, where = LONG_NUMBERS[name]
    path = tmp_path / name
    path.write_text(text)
    assert run_cli(["analyze", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200, lines
    assert where.split(":")[0] in lines[0] and "(5000 digits)" in lines[0]


PARSE_PIECES = [
    *"0123456789", " ", "\t", "\n", "#", "%", "-", ".", "e", "n", "shape", "x", "\u00b2",
    "\u0663", "9" * 9, LONG, "%%MatrixMarket matrix coordinate pattern general\n",
    "%%MatrixMarket matrix coordinate integer symmetric\n",
    '{"n": ', '{"n_rows": ', ', "n_cols": ', ', "nonzeros": [', "[", "]", "}", ", ", "true",
]


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from(PARSE_PIECES), max_size=30).map("".join),
    st.sampled_from(fileio.FORMATS),
)
def test_parse_pattern_raises_only_pattern_format_errors(tmp_path_factory, text, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            parse_pattern(path, fmt)
        except PatternFormatError:
            pass


def _run_module(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(structctrl.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_python_dash_m_runs_the_cli(sync6_file, tmp_path):
    done = _run_module("structctrl", "analyze", str(sync6_file))
    assert done.returncode == 0
    assert "m=2 beta=2 alpha=1 p=3" in done.stdout
    bad = tmp_path / "bad.el"
    bad.write_text("n 2\n5 5\n")
    done = _run_module("structctrl.cli", "analyze", str(bad))
    assert done.returncode == 2
    assert "line 2" in done.stderr


def test_cli_bench_small(capsys):
    assert run_cli(["bench", "--sizes", "30,60", "--degree", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in report["runs"]] == [30, 60]
    assert report["fitted_exponent"] is not None


def test_cli_bench_refuses_sizes_above_the_limit_before_running(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("bench ran an analysis before checking --sizes")

    monkeypatch.setattr(cli, "min_dedicated_inputs", never)
    assert run_cli(["bench", "--sizes", "20000,100000000"]) == 2
    assert "n=100000000 exceeds the limit of 10000000 states" in capsys.readouterr().err
