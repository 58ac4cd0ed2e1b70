import random
import tracemalloc
from pathlib import Path

import pytest

from structctrl import (
    StructPattern,
    brute_force_minimum,
    build_digraph,
    design_inputs,
    design_outputs,
    emit_input_matrix,
    emit_output_matrix,
    enumerate_configurations,
    gen_random,
    generate_configuration,
    is_structurally_controllable,
    min_dedicated_inputs,
    natural_partitions,
    parse_pattern,
    write_pattern,
)
from structctrl.graph_core import strongly_connected_components
from structctrl import placement
from structctrl.matching import solve_matching
from structctrl.placement import max_assignability_index
from brute import (
    BipartiteGraph,
    all_maximum_matchings,
    all_unmatched_sets,
    brute_alpha,
    brute_max_matching_size,
    digraph,
    matching_from_pairs,
    maximum_matching,
    random_pattern,
    random_strongly_connected_pattern,
    stem_cycle_decomposition,
    to_state_bipartite,
)

STAR = StructPattern(3, 3, {(1, 0), (2, 0)})  # x1 -> x2, x1 -> x3
SELF_LOOP = StructPattern(1, 1, {(0, 0)})
EDGELESS2 = StructPattern(2, 2, frozenset())
PATH3 = StructPattern(3, 3, {(1, 0), (2, 1)})  # x1 -> x2 -> x3


def test_min_inputs_worked_example(sync6_graph):
    s = min_dedicated_inputs(sync6_graph)
    assert (s.m, s.beta, s.alpha, s.p) == (2, 2, 1, 3)


def test_min_inputs_single_self_loop():
    s = min_dedicated_inputs(build_digraph(SELF_LOOP))
    assert (s.m, s.beta, s.alpha, s.p) == (0, 1, 0, 1)


def test_min_inputs_star():
    s = min_dedicated_inputs(build_digraph(STAR))
    assert (s.m, s.beta, s.alpha, s.p) == (2, 1, 1, 2)


def test_min_inputs_edgeless_pair():
    s = min_dedicated_inputs(build_digraph(EDGELESS2))
    assert (s.m, s.beta, s.alpha, s.p) == (2, 2, 2, 2)


def test_min_inputs_rejects_empty_graph():
    with pytest.raises(ValueError):
        min_dedicated_inputs(digraph(0, frozenset()))


def test_min_inputs_rejects_non_maximum_seed(sync6_graph):
    with pytest.raises(ValueError, match="not maximum"):
        min_dedicated_inputs(sync6_graph, matching={(0, 0)})


@pytest.mark.parametrize(
    "bad_pair",
    [
        (4, 2),  # not an edge
        (-1, 3),  # adj[-1] is state 5's list, which holds 3
        (6, 3),  # left vertex n
    ],
)
def test_witness_pairs_must_be_digraph_edges(sync6_graph, bad_pair):
    m = matching_from_pairs({(0, 0), (1, 1), bad_pair}, 6)
    with pytest.raises(ValueError, match="not a digraph edge"):
        min_dedicated_inputs(sync6_graph, matching=m.pairs)
    with pytest.raises(ValueError, match="not a digraph edge"):
        stem_cycle_decomposition(sync6_graph, m)


def _v1_assignment_edges(s):
    """Schema-v1 slot/SCC pairs of a summary: slot i, the i-th smallest
    assignable vertex, serves its own source SCC and every open one."""
    scc_of = s.condensation.scc_of
    slots = enumerate(sorted(s.assignable_vertices))
    return frozenset((i, j) for i, v in slots for j in {scc_of[v], *s.open_sccs})


def test_summary_invariants_random():
    rng = random.Random(101)
    for _ in range(150):
        a = random_pattern(rng, rng.randint(1, 7), rng.random())
        g = build_digraph(a)
        s = min_dedicated_inputs(g)
        assert s.p == s.m + s.beta - s.alpha
        assert 0 <= s.alpha <= min(max(s.m, 1), s.beta)
        assert s.open_sccs <= s.condensation.non_top_linked
        # alpha is the maximum matching size of the reported assignment
        # graph, found by exhaustive search, and p is the true minimum.
        bg = BipartiteGraph(
            len(s.assignable_vertices), s.condensation.n_sccs, _v1_assignment_edges(s)
        )
        assert s.alpha == brute_max_matching_size(bg)
        assert s.p == brute_force_minimum(a)[0]


def test_assignable_vertices_worked_example(sync6_graph):
    m0 = maximum_matching(sync6_graph)
    s = min_dedicated_inputs(sync6_graph, matching=m0.pairs)
    assert s.assignable_vertices == frozenset({0})


def test_assignable_vertices_path():
    g = build_digraph(PATH3)
    m0 = maximum_matching(g)
    assert min_dedicated_inputs(g, matching=m0.pairs).assignable_vertices == frozenset({0})


def test_assignable_vertices_two_cycle_perfect_match():
    g = digraph(2, {(0, 1), (1, 0)})
    m0 = maximum_matching(g)
    assert min_dedicated_inputs(g, matching=m0.pairs).assignable_vertices == frozenset()


def test_assignment_edges_worked_example(sync6_graph):
    # Slot 0 is vertex 1 (one-based), which can only live in its own SCC:
    # pinning it and forcing vertex 2 unmatched shrinks the matching.
    s = min_dedicated_inputs(sync6_graph)
    assert s.open_sccs == frozenset()
    assert _v1_assignment_edges(s) == frozenset({(0, 0)})


def test_assignment_edges_empty():
    g = digraph(2, {(0, 1), (1, 0)})
    s = min_dedicated_inputs(g)
    assert s.open_sccs == frozenset()
    assert _v1_assignment_edges(s) == frozenset()


def test_assignment_edges_edgeless_pair():
    s = min_dedicated_inputs(build_digraph(EDGELESS2))
    assert s.assignable_vertices == frozenset({0, 1})
    assert s.open_sccs == frozenset()
    assert _v1_assignment_edges(s) == frozenset({(0, 0), (1, 1)})


def test_max_assignability_trivial():
    assert max_assignability_index([], set()) == 0
    assert max_assignability_index([], {0, 1}) == 0
    assert max_assignability_index([0, 1], set()) == 2
    assert max_assignability_index([0, 0], set()) == 1
    assert max_assignability_index([0, 0], {1}) == 2
    assert max_assignability_index([0], {1, 2}) == 1


def test_unseeded_analysis_runs_two_matchings(sync6_graph, monkeypatch):
    # One for the witness and one for the source-SCC absorption; alpha's
    # cross-check is closed-form.
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return solve_matching(*args, **kwargs)

    monkeypatch.setattr(placement, "solve_matching", counting)
    for g in (sync6_graph, build_digraph(gen_random(200, "banded", seed=3, band=2)[0])):
        calls.clear()
        min_dedicated_inputs(g)
        assert len(calls) == 2


def test_analysis_memory_stays_linear_on_banded_patterns():
    # Banded patterns open many source SCCs to many assignable roots; a
    # slot-by-SCC pair set of them grows quadratically.
    g = build_digraph(gen_random(20_000, "banded", seed=3, band=2, fill=0.5)[0])
    tracemalloc.start()
    try:
        s = min_dedicated_inputs(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (s.m, s.beta, s.alpha, s.p) == (1456, 1779, 1186, 2049)
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_alpha_matches_exhaustive_maximum():
    # The assignability index over every maximum matching, by brute force.
    rng = random.Random(202)
    for _ in range(150):
        g = build_digraph(random_pattern(rng, rng.randint(1, 6), rng.random()))
        bg = to_state_bipartite(g)
        cond = strongly_connected_components(g)
        s = min_dedicated_inputs(g)
        assert s.alpha == brute_alpha(bg, cond)


def test_partitions_worked_example_with_textbook_witness(sync6_graph, sync6_witness):
    s = min_dedicated_inputs(sync6_graph, matching=sync6_witness.pairs)
    parts = natural_partitions(sync6_graph, s)
    assert s.m == 2
    assert parts == (
        frozenset({0, 1, 2, 4}),
        frozenset({4, 5}),
        frozenset({0, 1}),
    )


def test_partitions_single_self_loop():
    g = build_digraph(SELF_LOOP)
    s = min_dedicated_inputs(g)
    parts = natural_partitions(g, s)
    assert s.m == 0
    assert parts == (frozenset({0}),)


def test_partitions_star():
    g = build_digraph(STAR)
    s = min_dedicated_inputs(g)
    parts = natural_partitions(g, s)
    assert set(parts) == {frozenset({0}), frozenset({1, 2})}


def test_partition_membership_matches_exhaustive_swaps():
    # x belongs to slot j iff swapping x for the slot's vertex, keeping the
    # other unmatched vertices, yields the unmatched set of some maximum
    # matching.  Checked against full maximum-matching enumeration.
    rng = random.Random(303)
    for _ in range(60):
        g = build_digraph(random_pattern(rng, rng.randint(1, 5), rng.random()))
        bg = to_state_bipartite(g)
        s = min_dedicated_inputs(g)
        parts = natural_partitions(g, s)
        unmatched_sets = all_unmatched_sets(bg)
        slots = tuple(r for r, l in enumerate(s.witness[1]) if l == -1)
        for j, vj in enumerate(slots):
            pinned = frozenset(slots) - {vj}
            for x in range(g.n):
                if x in pinned:
                    assert x not in parts[j]
                    continue
                swapped_ok = (pinned | {x}) in unmatched_sets
                assert swapped_ok == (x in parts[j])
                rows = [
                    [r for r in row if r not in pinned and r != x]
                    for row in bg.left_adjacency()
                ]
                _, _, forced = solve_matching(rows, g.n, [-1] * g.n, [-1] * g.n)
                assert (forced == sum(r != -1 for r in s.witness[0])) == swapped_ok


def test_witness_is_the_matching_the_counts_were_read_off():
    # A given maximum matching is kept as the witness unchanged, and its
    # unmatched states are the partition slots, in ascending order; without
    # one, the witness is a maximum matching of size n - m.
    rng = random.Random(1010)
    for _ in range(40):
        g = build_digraph(random_pattern(rng, rng.randint(1, 5), rng.random()))
        bg = to_state_bipartite(g)
        for pairs in all_maximum_matchings(bg):
            m = matching_from_pairs(pairs, g.n)
            s = min_dedicated_inputs(g, matching=m.pairs)
            ml, mr = s.witness
            assert len(ml) == len(mr) == g.n
            assert {(l, r) for l, r in enumerate(ml) if r != -1} == m.pairs
            assert {(l, r) for r, l in enumerate(mr) if l != -1} == m.pairs
            parts = natural_partitions(g, s)
            assert s.m == len(m.right_unmatched)
            for vj, theta in zip(m.right_unmatched, parts):
                assert theta & set(m.right_unmatched) == {vj}
        s = min_dedicated_inputs(g)
        ml, mr = s.witness
        pairs = {(l, r) for l, r in enumerate(ml) if r != -1}
        assert pairs == {(l, r) for r, l in enumerate(mr) if l != -1}
        assert pairs <= bg.edges
        assert len(pairs) == g.n - s.m == brute_max_matching_size(bg)


def test_generate_worked_example_lowest_index(sync6_graph, sync6_witness):
    # The witness (edges 0->0, 1->1, 2->3, 3->4) leaves states 2 and 5
    # unmatched; the source SCCs are the self-loops {0} and {1}.  Absorbing
    # SCC {0} frees state 0 by moving 0->0 to 0->2, the only free state
    # either SCC can reach.  SCC {1} would then have to move 1->1 to 1->2,
    # which 0 now holds, and 0's other edge leads back to the absorbed
    # state 0.  So the unmatched states {0, 5} hit one source SCC, and the
    # lowest member of the other, state 1, is added: {0, 1, 5}.  (Taking
    # SCC {1} first leaves {1, 5} unmatched and adds state 0: the same set.)
    s = min_dedicated_inputs(sync6_graph, matching=sync6_witness.pairs)
    config = generate_configuration(sync6_graph, s)
    assert config == frozenset({0, 1, 5})


def test_generate_single_self_loop():
    g = build_digraph(SELF_LOOP)
    s = min_dedicated_inputs(g)
    config = generate_configuration(g, s)
    assert config == frozenset({0})


def test_generate_is_the_first_enumerated_placement():
    rng = random.Random(909)
    for _ in range(150):
        g = build_digraph(random_pattern(rng, rng.randint(1, 7), rng.random()))
        s = min_dedicated_inputs(g)
        config = generate_configuration(g, s)
        first = enumerate_configurations(g, s, limit=1).configurations[0]
        assert config == first
        full = enumerate_configurations(g, s)
        assert not full.truncated
        assert config in full.state_sets()


def test_generate_runs_no_matching(sync6_graph, sync6_witness, monkeypatch):
    # The summary keeps the absorbed matching, so the default placement is
    # read off it without another matching run.
    s = min_dedicated_inputs(sync6_graph, matching=sync6_witness.pairs)

    def broken(*args, **kwargs):
        raise AssertionError("solve_matching called")

    monkeypatch.setattr("structctrl.placement.solve_matching", broken)
    assert generate_configuration(sync6_graph, s) == frozenset({0, 1, 5})


def test_enumerate_worked_example(sync6_pattern, sync6_graph):
    s = min_dedicated_inputs(sync6_graph)
    enum = enumerate_configurations(sync6_graph, s, limit=100)
    assert enum.state_sets() == {frozenset({0, 1, 4}), frozenset({0, 1, 5})}
    assert not enum.truncated
    for c in enum:
        assert is_structurally_controllable(sync6_pattern, emit_input_matrix(c, 6)).controllable


def test_enumeration_runs_no_oracle(sync6_pattern, monkeypatch):
    # Listed placements are controllable by construction; the oracle checks
    # them only in the tests.
    def broken(*args, **kwargs):
        raise AssertionError("oracle called")

    monkeypatch.setattr("structctrl.oracle.is_structurally_controllable", broken)
    monkeypatch.setattr("structctrl.graph_core.pattern_of", broken)
    assert "oracle" not in vars(placement)
    assert "pattern_of" not in vars(placement)
    rng = random.Random(1717)
    cases = [sync6_pattern] + [
        random_pattern(rng, rng.randint(1, 7), rng.random()) for _ in range(200)
    ]
    for a in cases:
        design = design_inputs(a)
        g = build_digraph(a)
        enum = enumerate_configurations(g, min_dedicated_inputs(g))
        assert enum.state_sets() == design.enumeration.state_sets()
        assert len(enum) >= 1


def test_enumerate_single_self_loop():
    g = build_digraph(SELF_LOOP)
    s = min_dedicated_inputs(g)
    enum = enumerate_configurations(g, s)
    assert enum.state_sets() == {frozenset({0})}


def test_enumerate_star():
    g = build_digraph(STAR)
    s = min_dedicated_inputs(g)
    enum = enumerate_configurations(g, s)
    assert enum.state_sets() == {frozenset({0, 1}), frozenset({0, 2})}


def test_enumerate_limit_flag(sync6_graph):
    s = min_dedicated_inputs(sync6_graph)
    enum = enumerate_configurations(sync6_graph, s, limit=1)
    assert len(enum) == 1
    assert enum.truncated
    with pytest.raises(ValueError):
        enumerate_configurations(sync6_graph, s, limit=0)


def test_emit_input_matrix_goldens():
    b = emit_input_matrix(frozenset({0, 1, 4}), 6)
    assert (b.n_rows, b.n_cols) == (6, 3)
    assert b.nonzeros == frozenset({(0, 0), (1, 1), (4, 2)})
    b = emit_input_matrix(frozenset({0, 1, 5}), 6)
    assert b.nonzeros == frozenset({(0, 0), (1, 1), (5, 2)})
    b = emit_input_matrix(frozenset({0}), 1)
    assert (b.n_rows, b.n_cols, b.nonzeros) == (1, 1, frozenset({(0, 0)}))


def test_emitted_b_equals_the_built_pattern_and_its_round_trip(tmp_path):
    b = emit_input_matrix({0, 2}, 4)
    assert b == StructPattern(4, 2, {(0, 0), (2, 1)})
    assert all(type(rows) is tuple for rows in b.columns.values())
    for name in ("b.el", "b.json", "b.mtx"):
        write_pattern(b, tmp_path / name)
        assert parse_pattern(tmp_path / name) == b


def test_emit_input_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        emit_input_matrix(frozenset({3}), 3)


def test_fast_path_matches_brute_force_random():
    rng = random.Random(404)
    for _ in range(200):
        a = random_pattern(rng, rng.randint(1, 7), rng.choice([0.1, 0.25, 0.4, 0.7]))
        s = min_dedicated_inputs(build_digraph(a))
        assert s.p == brute_force_minimum(a)[0]


def test_enumeration_matches_brute_force_random():
    rng = random.Random(505)
    for _ in range(80):
        a = random_pattern(rng, rng.randint(1, 5), rng.random())
        g = build_digraph(a)
        s = min_dedicated_inputs(g)
        enum = enumerate_configurations(g, s, limit=100000)
        k, subsets = brute_force_minimum(a)
        assert s.p == k
        assert enum.state_sets() == set(subsets)
        for c in enum:
            assert is_structurally_controllable(a, emit_input_matrix(c, g.n)).controllable


def test_pipeline_is_witness_independent():
    rng = random.Random(606)
    for _ in range(30):
        a = random_pattern(rng, rng.randint(2, 5), rng.choice([0.2, 0.4, 0.6]))
        g = build_digraph(a)
        bg = to_state_bipartite(g)
        base = min_dedicated_inputs(g)
        truth = enumerate_configurations(g, base, limit=100000).state_sets()
        for pairs in all_maximum_matchings(bg):
            s = min_dedicated_inputs(g, matching=pairs)
            assert (s.m, s.beta, s.alpha, s.p) == (base.m, base.beta, base.alpha, base.p)
            enum = enumerate_configurations(g, s, limit=100000)
            assert enum.state_sets() == truth


def _root_part(bg, summary, config):
    """A size-m subset of the configuration that some maximum matching misses."""
    import itertools

    unmatched_sets = all_unmatched_sets(bg)
    for combo in itertools.combinations(sorted(config), summary.m):
        if frozenset(combo) in unmatched_sets:
            return frozenset(combo)
    return None


def test_generated_configs_satisfy_structure():
    # Every generated placement passes the oracle; m of its states are the
    # roots of distinct stems of some witness decomposition; every source
    # SCC holds at least one chosen state.
    rng = random.Random(707)
    for _ in range(60):
        a = random_pattern(rng, rng.randint(1, 6), rng.random())
        g = build_digraph(a)
        bg = to_state_bipartite(g)
        s = min_dedicated_inputs(g)
        config = generate_configuration(g, s)
        assert len(config) == s.p
        assert is_structurally_controllable(a, emit_input_matrix(config, g.n)).controllable
        for j in s.condensation.non_top_linked:
            assert config & set(s.condensation.scc_members[j])
        roots = _root_part(bg, s, config)
        assert roots is not None
        witness = next(
            pairs
            for pairs in all_maximum_matchings(bg)
            if {r for _, r in pairs}.isdisjoint(roots)
        )
        forced = matching_from_pairs(witness, g.n)
        stem_roots = {stem[0] for stem in stem_cycle_decomposition(g, forced).stems}
        assert stem_roots == roots


def test_strongly_connected_shortcut():
    rng = random.Random(808)
    for _ in range(60):
        a = random_strongly_connected_pattern(rng, rng.randint(1, 8), rng.random() * 0.4)
        g = build_digraph(a)
        s = min_dedicated_inputs(g)
        assert s.beta == 1
        m_star = maximum_matching(g)
        if m_star.size == g.n:
            assert s.p == 1
        else:
            assert s.p == s.m == g.n - m_star.size


def test_design_outputs_worked_example(sync6_pattern):
    # Derived with the observability oracle: the transposed system has a
    # single source SCC, so two dedicated sensors suffice.
    d = design_outputs(sync6_pattern)
    assert d.summary.p == 2
    assert d.enumeration.state_sets() == {
        frozenset({2, 4}),
        frozenset({2, 5}),
        frozenset({4, 5}),
    }
    for c in d.enumeration:
        cpat = emit_output_matrix(c, 6)
        assert (cpat.n_rows, cpat.n_cols) == (2, 6)
        dual = is_structurally_controllable(sync6_pattern.transpose(), cpat.transpose())
        assert dual.controllable


def test_design_outputs_symmetric_pattern_matches_inputs():
    sym = StructPattern(4, 4, {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)})
    assert design_inputs(sym).summary.p == design_outputs(sym).summary.p


def test_design_outputs_path_places_sensor_at_sink():
    d = design_outputs(PATH3)
    assert d.enumeration.state_sets() == {frozenset({2})}


def test_design_outputs_equals_inputs_on_transpose():
    rng = random.Random(909)
    for _ in range(40):
        a = random_pattern(rng, rng.randint(1, 6), rng.random())
        out = design_outputs(a)
        inp = design_inputs(a.transpose())
        assert out.summary.p == inp.summary.p
        assert out.enumeration.state_sets() == inp.enumeration.state_sets()


def test_design_outputs_rejects_non_square():
    with pytest.raises(ValueError):
        design_outputs(StructPattern(2, 3, frozenset()))


def test_absorption_searches_from_auxiliary_vertices_only(monkeypatch):
    # A free real vertex cannot start an augmenting path while the real part
    # is maximum, so absorbing with searches rooted at the auxiliary vertices
    # only must leave exactly the arrays that searches from every free vertex
    # leave: in the analysis and in every enumeration child, on both sides.
    firsts = []

    def both_ways(adj, n_right, match_l, match_r, first=0):
        if not first:
            return solve_matching(adj, n_right, match_l, match_r)
        everywhere = solve_matching(adj, n_right, list(match_l), list(match_r))
        result = solve_matching(adj, n_right, match_l, match_r, first)
        assert result == everywhere
        firsts.append(first)
        return result

    monkeypatch.setattr(placement, "solve_matching", both_ways)
    rng = random.Random(1994)
    graphs = 0
    while graphs < 2000:
        n = rng.randint(1, 40)
        model = rng.choice(("erdos", "scalefree", "banded"))
        a, _ = gen_random(n, model, seed=rng.randrange(10**6),
                          p_edge=min(1.0, rng.uniform(0.5, 3.0) / n))
        g = build_digraph(a)
        for side in (g, g.reversed()):
            enumerate_configurations(side, min_dedicated_inputs(side), limit=20)
            graphs += 1
    assert len(firsts) > graphs  # children re-absorbed too


def test_open_sccs_skip_rule_equals_full_search(monkeypatch):
    # The exchange search is skipped when every assignable root's own source
    # SCC is a singleton; the open SCCs must be those of the full search.
    golden = Path(__file__).parent / "golden"
    cases = [parse_pattern(p) for p in sorted(golden.glob("*.el")) if ".b" not in p.name]
    rng = random.Random(4242)
    for _ in range(3000):
        n = rng.randint(1, 40)
        model = rng.choice(("erdos", "scalefree", "banded"))
        cases.append(gen_random(n, model, seed=rng.randrange(10**6),
                                p_edge=min(1.0, rng.uniform(0.5, 3.0) / n))[0])
    avoidable = placement._avoidable
    searches = []
    monkeypatch.setattr(placement, "_avoidable", lambda *a: searches.append(1) or avoidable(*a))
    skipped = opened = 0
    for a in cases:
        g = build_digraph(a)
        before = len(searches)
        summary = min_dedicated_inputs(g)
        skipped += len(searches) == before
        opened += bool(summary.open_sccs)
        cond = summary.condensation
        roots = placement._roots(summary.absorbed[1], g.n)
        others = [v for v in roots if cond.scc_of[v] not in cond.non_top_linked]
        reached = avoidable(g.predecessors(), summary.absorbed[0], others)
        assert summary.open_sccs == {cond.scc_of[w] for w in reached} & cond.non_top_linked
    assert 0 < skipped < len(cases) and opened > 0
