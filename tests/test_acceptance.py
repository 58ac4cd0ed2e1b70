"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest -v -s tests/test_acceptance.py`` to see them).

Random sweeps are seeded, so every run checks the same instances.
"""

import random
import time

import numpy as np

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
    is_structurally_controllable,
    min_dedicated_inputs,
    natural_partitions,
    numeric_cross_check,
)
from brute import (
    all_matchings,
    matching_from_pairs,
    maximum_matching,
    random_pattern,
    random_strongly_connected_pattern,
    stem_cycle_decomposition,
    to_state_bipartite,
)

SYNC6 = StructPattern(
    6, 6,
    {(0, 0), (1, 1), (2, 0), (2, 1), (2, 3), (3, 2), (3, 4), (3, 5), (4, 3), (5, 3)},
)
SYNC6_WITNESS_PAIRS = {(0, 0), (1, 1), (2, 3), (3, 4)}


def _report(k: int, message: str) -> None:
    print(f"ACCEPTANCE {k} PASS: {message}")


def test_criterion_1_worked_example_counts_and_runtime():
    g = build_digraph(SYNC6)
    min_dedicated_inputs(g)  # warm-up so imports/JIT-free timing is honest
    t0 = time.perf_counter()
    s = min_dedicated_inputs(g)
    elapsed_ms = 1000 * (time.perf_counter() - t0)
    assert (s.m, s.beta, s.alpha, s.p) == (2, 2, 1, 3)
    assert elapsed_ms < 10.0
    _report(1, f"m=2 beta=2 alpha=1 p=3 in {elapsed_ms:.2f} ms (< 10 ms)")


def test_criterion_2_worked_example_partitions_and_configurations():
    g = build_digraph(SYNC6)
    s = min_dedicated_inputs(g, matching=SYNC6_WITNESS_PAIRS)
    parts = natural_partitions(g, s)
    assert parts == (
        frozenset({0, 1, 2, 4}),  # alternatives for slot of vertex 3 (one-based)
        frozenset({4, 5}),        # alternatives for slot of vertex 6
        frozenset({0, 1}),        # source-SCC coverage slot
    )
    enum = enumerate_configurations(g, s, limit=100)
    assert enum.state_sets() == {frozenset({0, 1, 4}), frozenset({0, 1, 5})}
    assert not enum.truncated
    # canonical input patterns, entry for entry (one-based (1,1),(2,2),(5,3) / (6,3))
    mats = {
        frozenset({0, 1, 4}): frozenset({(0, 0), (1, 1), (4, 2)}),
        frozenset({0, 1, 5}): frozenset({(0, 0), (1, 1), (5, 2)}),
    }
    for config in enum:
        b = emit_input_matrix(config, 6)
        assert (b.n_rows, b.n_cols) == (6, 3)
        assert b.nonzeros == mats[config]
    # the same two configurations fall out without the textbook witness
    s_default = min_dedicated_inputs(g)
    enum_default = enumerate_configurations(g, s_default, limit=100)
    assert enum_default.state_sets() == enum.state_sets()
    _report(2, "partition sets and both configurations match exactly")


def test_criterion_3_fast_path_equals_brute_force():
    densities = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    reps = 65
    rng = random.Random(20240001)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(reps):
        for n in range(2, 9):
            for d in densities:
                a = random_pattern(rng, n, d)
                p_fast = min_dedicated_inputs(build_digraph(a)).p
                p_brute = brute_force_minimum(a)[0]
                assert p_fast == p_brute, (sorted(a.nonzeros), p_fast, p_brute)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 5000
    assert elapsed < 300.0
    _report(3, f"{checked} random digraphs, 100% agreement, {elapsed:.1f} s (< 300 s)")


def test_criterion_4_configuration_sets_equal_brute_force():
    rng = random.Random(20240002)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 6)
        a = random_pattern(rng, n, rng.uniform(0.05, 1.0))
        g = build_digraph(a)
        s = min_dedicated_inputs(g)
        enum = enumerate_configurations(g, s, limit=10**6)
        k, subsets = brute_force_minimum(a)
        assert s.p == k
        assert not enum.truncated
        for c in enum:
            assert is_structurally_controllable(a, emit_input_matrix(c, n)).controllable
        assert enum.state_sets() == set(subsets), sorted(a.nonzeros)
        checked += 1
    _report(4, f"{checked} random digraphs, configuration sets identical")


def test_criterion_5_strongly_connected_shortcut():
    rng = random.Random(20240003)
    checked = perfect = deficient = 0
    while checked < 500:
        n = rng.randint(1, 8)
        a = random_strongly_connected_pattern(rng, n, rng.uniform(0.0, 0.4))
        g = build_digraph(a)
        s = min_dedicated_inputs(g)
        assert s.beta == 1
        m_star = maximum_matching(g)
        if m_star.size == g.n:
            assert s.p == 1
            perfect += 1
        else:
            assert s.p == s.m == g.n - m_star.size
            deficient += 1
        assert s.p == brute_force_minimum(a)[0]
        checked += 1
    assert perfect > 0 and deficient > 0  # both branches exercised
    _report(
        5,
        f"{checked} strongly connected digraphs "
        f"({perfect} perfect-match, {deficient} deficient)",
    )


def test_criterion_6_stem_cycle_decompositions():
    rng = random.Random(20240004)
    for _ in range(1000):
        n = rng.randint(1, 8)
        g = build_digraph(random_pattern(rng, n, rng.uniform(0.05, 1.0)))
        m = maximum_matching(g)
        d = stem_cycle_decomposition(g, m)
        pieces = list(d.stems) + list(d.cycles)
        flat = [v for piece in pieces for v in piece]
        assert sorted(flat) == list(range(n))  # disjoint and spanning
        assert {stem[0] for stem in d.stems} == set(m.right_unmatched)
        assert len(d.stems) == len(m.right_unmatched)
    # exhaustive minimality: every spanning stem/cycle decomposition is the
    # decomposition of some matching, so enumerating all matchings covers all
    for _ in range(120):
        n = rng.randint(1, 5)
        g = build_digraph(random_pattern(rng, n, rng.uniform(0.1, 1.0)))
        bg = to_state_bipartite(g)
        min_stems = n - maximum_matching(g).size
        for pairs in all_matchings(bg):
            d = stem_cycle_decomposition(g, matching_from_pairs(pairs, n))
            assert len(d.stems) >= min_stems
    _report(6, "1000 random + 120 exhaustive instances, decomposition laws hold")


def test_criterion_7_duality():
    rng = random.Random(20240005)
    for _ in range(500):
        n = rng.randint(1, 7)
        a = random_pattern(rng, n, rng.uniform(0.05, 0.9))
        out = design_outputs(a)
        inp = design_inputs(a.transpose())
        assert out.summary.p == inp.summary.p
        assert out.enumeration.state_sets() == inp.enumeration.state_sets()
        assert not out.enumeration.truncated
        for config in out.enumeration:
            cpat = emit_output_matrix(config, n)
            dual = is_structurally_controllable(a.transpose(), cpat.transpose())
            assert dual.controllable
    _report(7, "500 instances: output design == input design on the transpose")


def test_criterion_8_polynomial_scaling():
    sizes = [1000, 10_000, 50_000]
    seconds = []
    for k, n in enumerate(sizes):
        pattern, _ = gen_random(n, "erdos", seed=20240006 + k, p_edge=5.0 / n)
        g = build_digraph(pattern)
        t0 = time.perf_counter()
        min_dedicated_inputs(g)
        seconds.append(time.perf_counter() - t0)
    assert seconds[-1] < 60.0
    exponent = float(np.polyfit(np.log10(sizes), np.log10(seconds), 1)[0])
    assert exponent <= 2.0
    _report(
        8,
        "analyze at n=50000 took "
        f"{seconds[-1]:.2f} s (< 60 s), fitted exponent {exponent:.2f} (<= 2.0)",
    )


def test_criterion_9_numeric_cross_check():
    rng = random.Random(20240007)
    checked = indeterminate = 0
    while checked < 200:
        n = rng.randint(1, 10)
        a = random_pattern(rng, n, rng.uniform(0.1, 0.9))
        states = frozenset(rng.sample(range(n), rng.randint(1, n)))
        b = emit_input_matrix(states, n)
        graph_verdict = is_structurally_controllable(a, b).controllable
        label, rank = numeric_cross_check(a, b, trials=5, seed=rng.randrange(10**6))
        if label == "indeterminate":
            indeterminate += 1
        else:
            assert (label == "controllable") == graph_verdict
            assert (rank == n) == graph_verdict
        checked += 1
    assert indeterminate <= checked // 10  # the numeric check must stay useful
    _report(
        9,
        f"{checked} instances, graph and numeric verdicts agree "
        f"({indeterminate} indeterminate)",
    )
