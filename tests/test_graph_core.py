import inspect
import random

import pytest

from structctrl import (
    StructPattern,
    build_digraph,
    design_inputs,
    design_outputs,
    emit_output_matrix,
    parse_pattern,
    write_pattern,
)
from structctrl.graph_core import SystemDigraph, pattern_of, strongly_connected_components
from structctrl.oracle import is_structurally_controllable
from structctrl.placement import (
    emit_input_matrix,
    enumerate_configurations,
    generate_configuration,
    min_dedicated_inputs,
)
from brute import brute_condensation, digraph, random_pattern


def test_build_digraph_worked_example(sync6_graph):
    # edges 0->0, 1->1, 0->2, 1->2, 3->2, 2->3, 4->3, 5->3, 3->4, 3->5
    assert sync6_graph.n == 6
    assert sync6_graph.successors() == [(0, 2), (1, 2), (3,), (2, 4, 5), (3,), (3,)]
    assert sync6_graph.predecessors() == [(0,), (1,), (0, 1, 3), (2, 4, 5), (3,), (3,)]


def test_build_digraph_empty_single_vertex():
    g = build_digraph(StructPattern(1, 1, frozenset()))
    assert g.n == 1 and g.successors() == [()] and g.predecessors() == [()]


def test_build_digraph_shift_pattern_is_path():
    # entries (2,1) and (3,2) one-based: x1 -> x2 -> x3
    g = build_digraph(StructPattern(3, 3, {(1, 0), (2, 1)}))
    assert g.successors() == [(1,), (2,), ()]
    assert g.predecessors() == [(), (0,), (1,)]


def test_digraph_keeps_only_its_adjacency():
    g = digraph(3, iter([(1, 2), (0, 1), (1, 2), (0, 0)]))
    assert not hasattr(g, "edges")
    assert g.successors() == [(0, 1), (2,), ()]
    assert g.predecessors() == [(0,), (0,), (1,)]
    assert g == digraph(3, {(0, 0), (0, 1), (1, 2)})
    assert g != digraph(3, {(0, 0), (0, 1)})
    assert hash(g) == hash(digraph(3, {(0, 0), (0, 1), (1, 2)}))


def test_direct_build_equals_checked_constructor():
    rng = random.Random(23)
    patterns = [StructPattern(0, 0, frozenset())]
    patterns += [random_pattern(rng, rng.randint(1, 30), rng.random() * 0.4) for _ in range(200)]
    for p in patterns:
        g = build_digraph(p)
        checked = digraph(p.n_rows, ((j, i) for i, j in p.nonzeros))
        assert g == checked
        assert g.successors() == checked.successors()
        assert g.predecessors() == checked.predecessors()


def test_build_digraph_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        build_digraph(StructPattern(2, 3, {(0, 0)}))


def test_pattern_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        p = random_pattern(rng, rng.randint(1, 7), 0.4)
        assert pattern_of(build_digraph(p)) == p


def test_pattern_validates_indices():
    with pytest.raises(ValueError):
        StructPattern(2, 2, {(2, 0)})
    with pytest.raises(ValueError):
        StructPattern(2, 2, {(0, -1)})


def test_library_built_patterns_equal_checked_ones(tmp_path):
    # transpose, pattern_of and the parsers skip the repeat range check;
    # what they build must be indistinguishable from a checked pattern.
    rng = random.Random(8)
    for _ in range(30):
        p = random_pattern(rng, rng.randint(1, 6), 0.4)
        t = p.transpose()
        checked_t = StructPattern(p.n_cols, p.n_rows, {(j, i) for i, j in p.nonzeros})
        path = tmp_path / "p.el"
        write_pattern(p, path)
        for built, checked in ((t, checked_t), (pattern_of(build_digraph(p)), p),
                               (parse_pattern(path), p)):
            assert built == checked and hash(built) == hash(checked)
            assert type(built.nonzeros) is frozenset


def test_scc_worked_example(sync6_graph):
    cond = strongly_connected_components(sync6_graph)
    assert cond.scc_members == ((0,), (1,), (2, 3, 4, 5))
    assert cond.non_top_linked == frozenset({0, 1})
    assert cond.beta == 2
    assert _cross_scc_edges(sync6_graph, cond) == {(0, 2), (1, 2)}


def test_scc_single_vertex_self_loop():
    g = build_digraph(StructPattern(1, 1, {(0, 0)}))
    cond = strongly_connected_components(g)
    assert cond.scc_members == ((0,),)
    assert cond.non_top_linked == frozenset({0})
    assert cond.beta == 1


def test_scc_path_three_singletons():
    g = digraph(3, {(0, 1), (1, 2)})
    cond = strongly_connected_components(g)
    assert cond.scc_members == ((0,), (1,), (2,))
    assert cond.non_top_linked == frozenset({0})
    assert cond.beta == 1


def _cross_scc_edges(g, cond):
    """The condensation DAG's edges, read off the successor lists."""
    return {
        (cond.scc_of[u], cond.scc_of[v])
        for u in range(g.n)
        for v in g.successors()[u]
        if cond.scc_of[u] != cond.scc_of[v]
    }


def _toposort_ok(n_sccs, dag_edges):
    # Kahn's algorithm must consume every node if the DAG is acyclic.
    indeg = [0] * n_sccs
    succ = [[] for _ in range(n_sccs)]
    for a, b in dag_edges:
        indeg[b] += 1
        succ[a].append(b)
    ready = [c for c in range(n_sccs) if indeg[c] == 0]
    seen = 0
    while ready:
        c = ready.pop()
        seen += 1
        for d in succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
    return seen == n_sccs


def test_condensation_properties_random():
    rng = random.Random(11)
    for _ in range(120):
        g = build_digraph(random_pattern(rng, rng.randint(1, 9), rng.random()))
        cond = strongly_connected_components(g)
        # partition of the vertices
        flat = sorted(v for members in cond.scc_members for v in members)
        assert flat == list(range(g.n))
        assert all(v in cond.scc_members[cond.scc_of[v]] for v in range(g.n))
        dag_edges = _cross_scc_edges(g, cond)
        assert _toposort_ok(cond.n_sccs, dag_edges)
        # non-top-linked == DAG in-degree zero
        with_incoming = {b for _, b in dag_edges}
        assert cond.non_top_linked == frozenset(range(cond.n_sccs)) - with_incoming


def test_scc_matches_mutual_reachability():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 12)
        density = rng.choice((0.05, 0.1, 0.2, 0.3, 0.5))
        g = digraph(n, [(u, v) for u in range(n) for v in range(n) if rng.random() < density])
        cond = strongly_connected_components(g)
        scc_of, sources = brute_condensation(n, g.successors())
        assert cond.scc_of == scc_of
        assert cond.non_top_linked == sources
        assert cond.scc_members == tuple(
            tuple(v for v in range(n) if scc_of[v] == c) for c in range(max(scc_of) + 1)
        )


@pytest.mark.parametrize("shape", ["cycle", "path"])
def test_scc_deep_search_needs_no_recursion(shape):
    n = 100_000
    edges = [(v, v + 1) for v in range(n - 1)]
    if shape == "cycle":
        edges.append((n - 1, 0))
    cond = strongly_connected_components(digraph(n, edges))
    assert cond.non_top_linked == frozenset({0})
    if shape == "cycle":
        assert cond.scc_members == (tuple(range(n)),)
    else:
        assert cond.scc_of == tuple(range(n))


def test_strongly_connected_graph_single_scc():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {(perm[k], perm[(k + 1) % n]) for k in range(n)}
        edges |= {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
        cond = strongly_connected_components(digraph(n, edges))
        assert cond.n_sccs == 1
        assert cond.beta == 1


def _sorted_lists(n, pairs):
    lists = [[] for _ in range(n)]
    for u, v in pairs:
        lists[u].append(v)
    return [tuple(sorted(lst)) for lst in lists]


def test_adjacency_is_built_once_and_never_mutated():
    rng = random.Random(17)
    for _ in range(60):
        pattern = random_pattern(rng, rng.randint(1, 9), rng.random() * 0.5)
        g = build_digraph(pattern)
        assert g.successors() is g.successors()
        assert g.predecessors() is g.predecessors()
        # Entry (i, j) is the edge j -> i.
        succ = _sorted_lists(g.n, ((j, i) for i, j in pattern.nonzeros))
        pred = _sorted_lists(g.n, pattern.nonzeros)
        assert g.successors() == succ and g.predecessors() == pred
        summary = min_dedicated_inputs(g)
        config = generate_configuration(g, summary)
        enumerate_configurations(g, summary, limit=50)
        is_structurally_controllable(pattern_of(g), emit_input_matrix(config, g.n))
        assert g.successors() == succ and g.predecessors() == pred


def test_no_stage_mutates_the_parsed_column_lists(tmp_path):
    # The digraph's successor tuples are the pattern's column tuples, so
    # every stage that reads them must leave the parsed pattern as a fresh
    # parse of its file gives it.
    rng = random.Random(29)
    for k in range(60):
        n = rng.randint(1, 9)
        path = tmp_path / "a.el"
        write_pattern(random_pattern(rng, n, rng.random() * 0.5), path)
        pattern, fresh = parse_pattern(path), parse_pattern(path)
        design_inputs(pattern)
        assert pattern == fresh
        design = design_outputs(pattern)
        assert pattern == fresh
        g = build_digraph(pattern)
        configs = list(enumerate_configurations(g, min_dedicated_inputs(g), limit=20))
        assert pattern == fresh
        for config in configs:
            is_structurally_controllable(pattern, emit_input_matrix(config, n))
        b_path = tmp_path / "b.el"
        write_pattern(emit_output_matrix(next(iter(design.enumeration)), n).transpose(), b_path)
        b = parse_pattern(b_path)
        is_structurally_controllable(pattern, b, trials=1, seed=k)
        assert pattern == fresh and b == parse_pattern(b_path)


def test_reversed_is_the_digraph_of_the_transpose():
    # Turning every edge round swaps the shared lists; nothing is rebuilt.
    rng = random.Random(23)
    patterns = [
        StructPattern(0, 0, frozenset()),
        StructPattern(4, 4, frozenset()),
        StructPattern(3, 3, {(0, 0), (1, 1), (2, 2)}),
    ]
    while len(patterns) < 500:
        patterns.append(random_pattern(rng, rng.randint(1, 9), rng.random()))
    for pattern in patterns:
        g = build_digraph(pattern)
        r = g.reversed()
        t = build_digraph(pattern.transpose())
        assert r.n == t.n == g.n
        assert r.successors() == t.successors() and r.predecessors() == t.predecessors()
        assert r.successors() is g.predecessors() and r.predecessors() is g.successors()
        assert r.reversed() == g


def test_digraph_helper_rejects_out_of_range_edges():
    # The library builds digraphs from patterns only; the tests' own
    # constructor keeps the range checks that pairs need.
    for edge in [(0, 3), (3, 0), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="outside vertex range"):
            digraph(3, {edge})
    with pytest.raises(ValueError, match="non-negative"):
        digraph(-1, set())


def test_digraph_has_one_constructor(monkeypatch):
    # The generated __init__ takes the vertex count and the two lists, and
    # both build_digraph and reversed() call it.
    params = list(inspect.signature(SystemDigraph).parameters)
    assert params == ["n", "_succ", "_pred"]
    for name in ("_from_successors", "_set_adjacency", "__post_init__"):
        assert not hasattr(SystemDigraph, name)
    calls = []
    init = SystemDigraph.__init__

    def counting(self, n, succ, pred):
        calls.append((n, succ, pred))
        init(self, n, succ, pred)

    monkeypatch.setattr(SystemDigraph, "__init__", counting)
    g = build_digraph(StructPattern(2, 2, {(1, 0)}))
    g.reversed()
    assert calls == [(2, [(1,), ()], [(), (0,)]), (2, [(), (0,)], [(1,), ()])]
