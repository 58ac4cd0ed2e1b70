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
from structctrl.matching import BipartiteGraph, Matching, karp_sipser, solve_matching
from structctrl.placement import _avoidable, min_dedicated_inputs
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


def _random_rectangular(rng):
    n_left, n_right = rng.randint(0, 6), rng.randint(0, 6)
    density = rng.choice((0.15, 0.3, rng.random()))
    return BipartiteGraph(n_left, n_right, {
        (l, r) for l in range(n_left) for r in range(n_right) if rng.random() < density
    })


def _right_adjacency(bg):
    pred = [[] for _ in range(bg.right_size)]
    for l, r in sorted(bg.edges):
        pred[r].append(l)
    return pred


def test_karp_sipser_is_a_maximal_matching_that_seeds_a_maximum_one():
    rng = random.Random(88)
    for _ in range(300):
        bg = _random_rectangular(rng)
        adj, pred = bg.left_adjacency(), _right_adjacency(bg)
        ml, mr = karp_sipser(adj, pred)
        assert (len(ml), len(mr)) == (bg.left_size, bg.right_size)
        pairs = {(l, r) for l, r in enumerate(ml) if r != -1}
        assert pairs <= bg.edges
        assert pairs == {(l, r) for r, l in enumerate(mr) if l != -1}
        # Maximal: a free left vertex has only matched right neighbours.
        for l, row in enumerate(adj):
            if ml[l] == -1:
                assert all(mr[r] != -1 for r in row)
        assert karp_sipser(adj, pred) == (ml, mr)  # deterministic
        _, _, size = solve_matching(adj, bg.right_size, ml, mr)
        assert size == brute_max_matching_size(bg)


def test_karp_sipser_matches_degree_one_vertices_first():
    # Left 0 has two neighbours, left 1 only right 0: a greedy pass from
    # left 0 would take right 0 and strand left 1.
    ml, mr = karp_sipser([[0, 1], [0]], [[0, 1], [0]])
    assert ml == [1, 0] and mr == [1, 0]
    # No left vertex has degree 1, but right 1 has only left 0; a greedy
    # pass would give left 0 right 0 and leave left 2 unmatched.
    succ = [[0, 1], [0, 2], [0, 2]]
    pred = [[0, 1, 2], [0], [1, 2]]
    assert karp_sipser(succ, pred) == ([1, 0, 2], [1, 0, 2])


def test_karp_sipser_seed_keeps_the_counts_of_an_unseeded_witness():
    # The default analysis starts HK from Karp-Sipser; a witness from cold
    # HK must give the same (m, beta, alpha, p).
    rng = random.Random(99)
    for _ in range(200):
        g = build_digraph(random_pattern(rng, rng.randint(1, 9), rng.random() * 0.5))
        ks = min_dedicated_inputs(g)
        hk = min_dedicated_inputs(g, matching=maximum_matching(to_state_bipartite(g)))
        assert (ks.m, ks.beta, ks.alpha, ks.p) == (hk.m, hk.beta, hk.alpha, hk.p)


@pytest.mark.parametrize("seed", ["match_l", "match_r"])
def test_solve_matching_rejects_half_a_seed(seed):
    with pytest.raises(ValueError, match="both match_l and match_r"):
        solve_matching([[0], [1]], 2, **{seed: [-1, -1]})


def test_solve_matching_banned_right_properties():
    # Deleting a right vertex's in-edges leaves a maximum-size matching
    # exactly when some maximum matching misses it.
    rng = random.Random(33)
    for _ in range(60):
        bg = _random_bipartite(rng, rng.randint(1, 6), rng.random())
        best = brute_max_matching_size(bg)
        avoidable = {v for s in all_unmatched_sets(bg) for v in s}
        for v in range(bg.right_size):
            rows = [[r for r in row if r != v] for row in bg.left_adjacency()]
            _, mr, size = solve_matching(rows, bg.right_size)
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
        unmatched = [r for r in range(g.n) if mr[r] == -1]
        assert _avoidable(g.predecessors(), ml, unmatched) == expected


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
            assert b in g.successors()[a]
    for cyc in d.cycles:
        ring = list(cyc) + [cyc[0]]
        for a, b in zip(ring, ring[1:]):
            assert b in g.successors()[a]
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
