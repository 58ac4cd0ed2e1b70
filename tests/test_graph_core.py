import random

import pytest

from structctrl import StructPattern, build_digraph
from structctrl.graph_core import SystemDigraph, pattern_of, strongly_connected_components
from brute import random_pattern


def test_build_digraph_worked_example(sync6_graph):
    assert sync6_graph.n == 6
    assert sync6_graph.edges == frozenset(
        {(0, 0), (1, 1), (0, 2), (1, 2), (3, 2), (2, 3), (4, 3), (5, 3), (3, 4), (3, 5)}
    )


def test_build_digraph_empty_single_vertex():
    g = build_digraph(StructPattern(1, 1, frozenset()))
    assert g.n == 1 and g.edges == frozenset()


def test_build_digraph_shift_pattern_is_path():
    # entries (2,1) and (3,2) one-based: x1 -> x2 -> x3
    g = build_digraph(StructPattern(3, 3, {(1, 0), (2, 1)}))
    assert g.edges == frozenset({(0, 1), (1, 2)})


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


def test_scc_worked_example(sync6_graph):
    cond = strongly_connected_components(sync6_graph)
    assert cond.scc_members == ((0,), (1,), (2, 3, 4, 5))
    assert cond.non_top_linked == frozenset({0, 1})
    assert cond.beta == 2
    assert cond.dag_edges == frozenset({(0, 2), (1, 2)})


def test_scc_single_vertex_self_loop():
    g = build_digraph(StructPattern(1, 1, {(0, 0)}))
    cond = strongly_connected_components(g)
    assert cond.scc_members == ((0,),)
    assert cond.non_top_linked == frozenset({0})
    assert cond.beta == 1


def test_scc_path_three_singletons():
    g = SystemDigraph(3, {(0, 1), (1, 2)})
    cond = strongly_connected_components(g)
    assert cond.scc_members == ((0,), (1,), (2,))
    assert cond.non_top_linked == frozenset({0})
    assert cond.beta == 1


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
        assert _toposort_ok(cond.n_sccs, cond.dag_edges)
        # non-top-linked == DAG in-degree zero
        with_incoming = {b for _, b in cond.dag_edges}
        assert cond.non_top_linked == frozenset(range(cond.n_sccs)) - with_incoming


def test_strongly_connected_graph_single_scc():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {(perm[k], perm[(k + 1) % n]) for k in range(n)}
        edges |= {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
        cond = strongly_connected_components(SystemDigraph(n, edges))
        assert cond.n_sccs == 1
        assert cond.beta == 1
