import random

import pytest

from structctrl import (
    build_digraph,
    matching_from_pairs,
    maximum_matching,
    stem_cycle_decomposition,
    to_state_bipartite,
)
from structctrl.graph_core import SystemDigraph
from structctrl.matching import BipartiteGraph, Matching, solve_matching
from structctrl.placement import _avoidable
from brute import (
    all_matchings,
    all_unmatched_sets,
    brute_max_matching_size,
    random_pattern,
)


def _random_bipartite(rng, n, density):
    return to_state_bipartite(build_digraph(random_pattern(rng, n, density)))


def test_to_state_bipartite_worked_example(sync6_graph):
    bg = to_state_bipartite(sync6_graph)
    assert bg.left_size == bg.right_size == 6
    assert len(bg.edges) == 10


def test_to_state_bipartite_edgeless():
    bg = to_state_bipartite(SystemDigraph(3, frozenset()))
    assert bg.edges == frozenset()


def test_to_state_bipartite_self_loop():
    bg = to_state_bipartite(SystemDigraph(1, {(0, 0)}))
    assert bg.edges == frozenset({(0, 0)})


def test_matching_rejects_shared_vertices():
    with pytest.raises(ValueError):
        Matching(frozenset({(0, 0), (0, 1)}), ())
    with pytest.raises(ValueError):
        Matching(frozenset({(0, 1), (2, 1)}), ())


def test_maximum_matching_worked_example(sync6_graph):
    bg = to_state_bipartite(sync6_graph)
    m = maximum_matching(bg)
    assert m.size == 4
    assert len(m.right_unmatched) == 2
    assert m.pairs <= bg.edges
    # deterministic for a fixed input
    assert maximum_matching(bg) == m


def test_maximum_matching_empty_edges():
    m = maximum_matching(BipartiteGraph(3, 3, frozenset()))
    assert m.size == 0
    assert m.right_unmatched == (0, 1, 2)


def test_maximum_matching_path():
    bg = BipartiteGraph(3, 3, {(0, 1), (1, 2)})
    m = maximum_matching(bg)
    assert m.pairs == frozenset({(0, 1), (1, 2)})
    assert m.right_unmatched == (0,)


def test_maximum_matching_agrees_with_exhaustive_search():
    rng = random.Random(21)
    for _ in range(80):
        bg = _random_bipartite(rng, rng.randint(1, 6), rng.random())
        m = maximum_matching(bg)
        assert m.size == brute_max_matching_size(bg)
        covered = {r for _, r in m.pairs}
        assert set(m.right_unmatched) == set(range(bg.right_size)) - covered


@pytest.mark.parametrize("seed", ["match_l", "match_r"])
def test_solve_matching_rejects_half_a_seed(seed):
    with pytest.raises(ValueError, match="both match_l and match_r"):
        solve_matching([[0], [1]], 2, **{seed: [-1, -1]})


def test_solve_matching_banned_right_properties():
    # Banning a right vertex's in-edges (as placement._repin does) leaves a
    # maximum-size matching exactly when some maximum matching misses it.
    rng = random.Random(33)
    for _ in range(60):
        bg = _random_bipartite(rng, rng.randint(1, 6), rng.random())
        best = brute_max_matching_size(bg)
        avoidable = {v for s in all_unmatched_sets(bg) for v in s}
        for v in range(bg.right_size):
            _, mr, size = solve_matching(
                bg.left_adjacency(), bg.right_size, banned_rights=frozenset({v})
            )
            assert mr[v] == -1
            assert size in (best, best - 1)
            assert (size == best) == (v in avoidable)


def test_avoidable_right_vertices_matches_exhaustive():
    rng = random.Random(55)
    for _ in range(60):
        g = build_digraph(random_pattern(rng, rng.randint(1, 6), rng.random()))
        bg = to_state_bipartite(g)
        ml, mr, _ = solve_matching(g.successors(), g.n)
        expected = {v for s in all_unmatched_sets(bg) for v in s}
        assert _avoidable(g.predecessors(), g.n, ml, mr) == expected


def test_stem_cycle_worked_example(sync6_graph, sync6_witness):
    d = stem_cycle_decomposition(sync6_graph, sync6_witness)
    assert d.cycles == ((0,), (1,))
    assert d.stems == ((2, 3, 4), (5,))


def test_stem_cycle_perfect_match_two_cycle():
    g = SystemDigraph(2, {(0, 1), (1, 0)})
    m = matching_from_pairs({(0, 1), (1, 0)}, 2)
    d = stem_cycle_decomposition(g, m)
    assert d.stems == ()
    assert d.cycles == ((0, 1),)


def test_stem_cycle_edgeless_graph():
    g = SystemDigraph(3, frozenset())
    d = stem_cycle_decomposition(g, matching_from_pairs(set(), 3))
    assert d.stems == ((0,), (1,), (2,))
    assert d.cycles == ()


def test_stem_cycle_rejects_foreign_edge():
    g = SystemDigraph(2, {(0, 1)})
    with pytest.raises(ValueError):
        stem_cycle_decomposition(g, matching_from_pairs({(1, 0)}, 2))


def _assert_decomposition_ok(g, m, d):
    pieces = list(d.stems) + list(d.cycles)
    flat = [v for piece in pieces for v in piece]
    assert sorted(flat) == list(range(g.n))  # disjoint and spanning
    for stem in d.stems:
        for a, b in zip(stem, stem[1:]):
            assert (a, b) in g.edges
    for cyc in d.cycles:
        ring = list(cyc) + [cyc[0]]
        for a, b in zip(ring, ring[1:]):
            assert (a, b) in g.edges
    covered = {r for _, r in m.pairs}
    roots = {stem[0] for stem in d.stems}
    assert roots == set(range(g.n)) - covered
    assert len(d.stems) == g.n - len(m.pairs)


def test_stem_cycle_properties_random_matchings():
    rng = random.Random(66)
    for _ in range(80):
        g = build_digraph(random_pattern(rng, rng.randint(1, 6), rng.random()))
        bg = to_state_bipartite(g)
        _assert_decomposition_ok(g, maximum_matching(bg), stem_cycle_decomposition(g, maximum_matching(bg)))
        # also non-maximum matchings
        candidates = all_matchings(bg)
        for pairs in rng.sample(candidates, min(5, len(candidates))):
            m = matching_from_pairs(pairs, g.n)
            _assert_decomposition_ok(g, m, stem_cycle_decomposition(g, m))


def test_no_spanning_decomposition_has_fewer_stems():
    # Every spanning stem/cycle decomposition corresponds to a matching, so
    # enumerating all matchings enumerates all decompositions.
    rng = random.Random(77)
    for _ in range(40):
        g = build_digraph(random_pattern(rng, rng.randint(1, 5), rng.random()))
        bg = to_state_bipartite(g)
        m_star = maximum_matching(bg)
        min_stems = g.n - m_star.size
        for pairs in all_matchings(bg):
            d = stem_cycle_decomposition(g, matching_from_pairs(pairs, g.n))
            assert len(d.stems) >= min_stems
