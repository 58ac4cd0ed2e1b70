"""The root-set enumeration: exact on small patterns, equivariant under
relabelling, additive over disjoint unions, and fast on known blow-ups.

The blow-up instances are ones on which a slot-by-slot search over the
partition sets backtracked for half a minute or more before it found its
first placement.
"""

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structctrl import (
    InputConfiguration,
    StructPattern,
    brute_force_minimum,
    build_digraph,
    design_inputs,
    emit_input_matrix,
    enumerate_configurations,
    is_structurally_controllable,
    min_dedicated_inputs,
    parse_pattern,
)
from structctrl.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
WALL_CLOCK_S = 10.0


@st.composite
def patterns(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return StructPattern(n, n, frozenset(draw(st.sets(cells, max_size=n * n))))


@settings(max_examples=300, deadline=None)
@given(patterns())
def test_enumeration_equals_brute_force(a):
    g = build_digraph(a)
    s = min_dedicated_inputs(g)
    enum = enumerate_configurations(g, s, limit=10**6)
    k, subsets = brute_force_minimum(a)
    assert s.p == k
    assert enum.state_sets() == set(subsets)
    assert len(enum) == len(subsets)
    assert not enum.truncated
    assert enum.oracle_rejections == 0


@st.composite
def relabelled(draw):
    a = draw(patterns())
    perm = draw(st.permutations(range(a.n_rows)))
    b = StructPattern(a.n_rows, a.n_cols, {(perm[i], perm[j]) for i, j in a.nonzeros})
    return a, b, perm


def _counts(s):
    return s.m, s.beta, s.alpha, s.p


@settings(max_examples=100, deadline=None)
@given(relabelled())
def test_relabelling_permutes_the_placements(case):
    a, b, perm = case
    da, db = design_inputs(a, limit=10**6), design_inputs(b, limit=10**6)
    assert _counts(da.summary) == _counts(db.summary)
    assert not da.enumeration.truncated and not db.enumeration.truncated
    moved = {frozenset(perm[v] for v in states) for states in da.enumeration.state_sets()}
    assert moved == db.enumeration.state_sets()


@settings(max_examples=100, deadline=None)
@given(patterns(), patterns())
def test_disjoint_union_adds_the_counts(a, b):
    n = a.n_rows
    union = StructPattern(
        n + b.n_rows, n + b.n_cols,
        a.nonzeros | {(i + n, j + n) for i, j in b.nonzeros},
    )
    sa, sb, su = (min_dedicated_inputs(build_digraph(x)) for x in (a, b, union))
    assert _counts(su) == tuple(x + y for x, y in zip(_counts(sa), _counts(sb)))


@pytest.mark.parametrize(
    "path, args",
    [
        (ROOT / "perfbench" / "banded-100-backtrack.el", ["enumerate", "--limit", "10"]),
        (ROOT / "tests" / "golden" / "scalefree-500.el",
         ["design-outputs", "--all", "--limit", "5"]),
        (ROOT / "tests" / "golden" / "banded-500.el",
         ["design-outputs", "--all", "--limit", "5"]),
    ],
    ids=lambda v: v.name if isinstance(v, Path) else " ".join(v),
)
def test_known_blowups_finish_fast(path, args, capsys):
    start = time.perf_counter()
    assert run_cli([args[0], str(path), *args[1:], "--format", "json"]) == 0
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    placements = [frozenset(s - 1 for s in c) for c in report["configurations"]]
    limit = int(args[-1])
    assert report["truncated"] and len(placements) == limit
    assert len(set(placements)) == len(placements)
    a = parse_pattern(path)
    if args[0] == "design-outputs":
        a = a.transpose()
    for states in placements:
        assert len(states) == report["summary"]["p"]
        b = emit_input_matrix(InputConfiguration(states), a.n_rows)
        assert is_structurally_controllable(a, b).controllable
    assert elapsed < WALL_CLOCK_S
