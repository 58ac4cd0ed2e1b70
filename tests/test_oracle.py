import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from structctrl import (
    InputConfiguration,
    StructPattern,
    brute_force_minimum,
    build_digraph,
    emit_input_matrix,
    gen_random,
    generate_configuration,
    is_structurally_controllable,
    min_dedicated_inputs,
    numeric_cross_check,
    parse_pattern,
)
from structctrl.matching import solve_matching
from structctrl.oracle import _augmenting_matcher
from brute import brute_max_matching_size, random_pattern

GOLDEN = Path(__file__).parent / "golden"


def _dedicated(states, n):
    return emit_input_matrix(InputConfiguration(frozenset(states)), n)


def test_verdict_worked_example_feasible(sync6_pattern):
    v = is_structurally_controllable(sync6_pattern, _dedicated({0, 1, 4}, 6))
    assert v.controllable and v.accessibility_ok and v.dilation_free


def test_verdict_worked_example_dilation(sync6_pattern):
    # inputs at vertices 1, 2, 3: vertices 5 and 6 hang off vertex 4 alone
    v = is_structurally_controllable(sync6_pattern, _dedicated({0, 1, 2}, 6))
    assert not v.controllable
    assert v.accessibility_ok
    assert not v.dilation_free


def test_verdict_identity_input():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 6)
        a = random_pattern(rng, n, rng.random())
        eye = StructPattern(n, n, {(i, i) for i in range(n)})
        assert is_structurally_controllable(a, eye).controllable


def test_verdict_rejects_dimension_mismatch(sync6_pattern):
    with pytest.raises(ValueError):
        is_structurally_controllable(sync6_pattern, _dedicated({0}, 4))
    with pytest.raises(ValueError):
        is_structurally_controllable(StructPattern(2, 3, frozenset()), _dedicated({0}, 2))


def test_verdict_attaches_numeric_rank(sync6_pattern):
    v = is_structurally_controllable(sync6_pattern, _dedicated({0, 1, 4}, 6), trials=3, seed=9)
    assert v.numeric_rank == 6


def test_numeric_rank_worked_example(sync6_pattern):
    assert numeric_cross_check(sync6_pattern, _dedicated({0, 1, 4}, 6), trials=5, seed=2)[1] == 6
    assert numeric_cross_check(sync6_pattern, _dedicated({0, 1, 2}, 6), trials=5, seed=2)[1] <= 5


def test_numeric_rank_single_state():
    a = StructPattern(1, 1, {(0, 0)})
    assert numeric_cross_check(a, _dedicated({0}, 1), trials=1, seed=0)[1] == 1


def test_numeric_rank_validates_trials(sync6_pattern):
    with pytest.raises(ValueError):
        numeric_cross_check(sync6_pattern, _dedicated({0}, 6), trials=0)[1]


def test_numeric_agrees_with_graph_verdict():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 8)
        a = random_pattern(rng, n, rng.random())
        states = set(rng.sample(range(n), rng.randint(1, n)))
        b = _dedicated(states, n)
        verdict = is_structurally_controllable(a, b)
        label, rank = numeric_cross_check(a, b, trials=5, seed=rng.randrange(10**6))
        assert label != "indeterminate"
        assert (label == "controllable") == verdict.controllable
        assert (rank == n) == verdict.controllable


@pytest.mark.parametrize("b_path", sorted(GOLDEN.glob("*.b*.el")), ids=lambda p: p.name)
def test_numeric_agrees_with_graph_verdict_on_golden_pairs(b_path):
    a = parse_pattern(GOLDEN / (b_path.name.split(".")[0] + ".el"))
    b = parse_pattern(b_path)
    controllable = is_structurally_controllable(a, b).controllable
    label, rank = numeric_cross_check(a, b, trials=2, seed=0)
    assert label == ("controllable" if controllable else "uncontrollable")
    assert (rank == a.n_rows) == controllable
    assert controllable == (".b-short." not in b_path.name)


def test_numeric_rank_stops_at_the_first_full_rank_trial(sync6_pattern, monkeypatch):
    from structctrl import oracle

    calls = []
    krylov_rank = oracle._krylov_rank
    monkeypatch.setattr(
        oracle, "_krylov_rank", lambda *args: calls.append(1) or krylov_rank(*args)
    )
    full = numeric_cross_check(sync6_pattern, _dedicated({0, 1, 4}, 6), trials=5)
    assert (full, len(calls)) == (("controllable", 6), 1)
    short = numeric_cross_check(sync6_pattern, _dedicated({0, 1, 2}, 6), trials=5)
    assert (short, len(calls)) == (("uncontrollable", 5), 6)


def test_numeric_rank_without_inputs():
    a = StructPattern(3, 3, {(1, 0)})
    assert numeric_cross_check(a, StructPattern(3, 0, frozenset()), 1) == ("uncontrollable", 0)
    empty = StructPattern(0, 0, frozenset())
    assert numeric_cross_check(empty, empty, 1) == ("controllable", 0)


def test_adding_input_columns_is_monotone():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 7)
        a = random_pattern(rng, n, rng.random())
        states = set(rng.sample(range(n), rng.randint(1, n)))
        if not is_structurally_controllable(a, _dedicated(states, n)).controllable:
            continue
        extra = states | {rng.randrange(n)}
        assert is_structurally_controllable(a, _dedicated(extra, n)).controllable


def test_brute_force_worked_example(sync6_pattern):
    count, configs = brute_force_minimum(sync6_pattern)
    assert count == 3
    assert configs == [frozenset({0, 1, 4}), frozenset({0, 1, 5})]


def test_brute_force_edgeless_pair():
    assert brute_force_minimum(StructPattern(2, 2, frozenset())) == (
        2,
        [frozenset({0, 1})],
    )


def test_brute_force_path():
    a = StructPattern(3, 3, {(1, 0), (2, 1)})
    assert brute_force_minimum(a) == (1, [frozenset({0})])


def test_brute_force_rejects_large_instances():
    a = StructPattern(13, 13, frozenset())
    with pytest.raises(ValueError, match="min_dedicated_inputs"):
        brute_force_minimum(a)


def test_brute_force_agrees_with_per_subset_oracle():
    # The subset search uses the same criteria as the pairwise verdict;
    # confirm that explicitly on small instances.
    from itertools import combinations

    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = random_pattern(rng, n, rng.random())
        count, configs = brute_force_minimum(a)
        for k in range(1, count + 1):
            for c in combinations(range(n), k):
                feasible = is_structurally_controllable(a, _dedicated(set(c), n)).controllable
                if k < count:
                    assert not feasible
                else:
                    assert feasible == (frozenset(c) in set(configs))


def test_observability_via_transposes():
    # A dedicated sensor set is an observability design for A exactly when
    # it is a controllability design for A^T; check against the numeric
    # rank of the observability matrix [C; CA; ...].
    import numpy as np

    rng = random.Random(123)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = random_pattern(rng, n, rng.random())
        states = set(rng.sample(range(n), rng.randint(1, n)))
        c = _dedicated(states, n).transpose()  # p x n measurement pattern
        graph_obs = is_structurally_controllable(a.transpose(), c.transpose()).controllable
        # numeric observability rank with random entries
        gen = np.random.default_rng(rng.randrange(10**6))
        amat = np.zeros((n, n))
        for i, j in a.nonzeros:
            amat[i, j] = gen.uniform(0.5, 1.5)
        cmat = np.zeros((c.n_rows, n))
        for i, j in c.nonzeros:
            cmat[i, j] = gen.uniform(0.5, 1.5)
        blocks = [cmat]
        for _ in range(n - 1):
            blocks.append(blocks[-1] @ amat)
        obs_rank = int(np.linalg.matrix_rank(np.vstack(blocks)))
        if graph_obs:
            assert obs_rank == n
        else:
            # structural deficiency holds for every realization
            assert obs_rank < n



def _random_rows(rng, n_left, n_right):
    """Sorted rows with some empty rows and some rights that no row reaches."""
    density = rng.random()
    dead = set(rng.sample(range(n_right), min(n_right, rng.randint(0, 2))))
    rows = []
    for _ in range(n_left):
        if rng.random() < 0.2:
            rows.append([])
        else:
            rows.append([r for r in range(n_right) if r not in dead and rng.random() < density])
    return rows


def test_augmenting_matcher_is_maximum_on_small_bipartite_graphs():
    rng = random.Random(2024)
    more_lefts = 0
    for _ in range(400):
        n_right = rng.randint(0, 7)
        n_left = rng.randint(0, 7)
        more_lefts += n_left > n_right
        rows = _random_rows(rng, n_left, n_right)
        match_r = _augmenting_matcher(rows, n_right)
        assert len(match_r) == n_right
        pairs = [(l, r) for r, l in enumerate(match_r) if l != -1]
        assert all(r in rows[l] for l, r in pairs)
        assert len({l for l, _ in pairs}) == len(pairs)
        edges = frozenset((l, r) for l, row in enumerate(rows) for r in row)
        assert len(pairs) == brute_max_matching_size(SimpleNamespace(edges=edges))
    assert more_lefts > 50


def test_oracle_dilation_agrees_with_hopcroft_karp_at_medium_size():
    # Two independent engines: the oracle's matcher and solve_matching.
    n = 2000
    a, _ = gen_random(n, "erdos", seed=11, p_edge=5 / n)
    g = build_digraph(a)
    states = sorted(generate_configuration(g, min_dedicated_inputs(g)).states)
    verdicts = []
    for chosen in (states, states[1:], states[:-1]):
        b = emit_input_matrix(InputConfiguration(frozenset(chosen)), n)
        rows = g.successors() + [[v] for v in chosen]
        _, _, size = solve_matching(rows, n)
        verdict = is_structurally_controllable(a, b)
        assert verdict.dilation_free == (size == n)
        verdicts.append(verdict.dilation_free)
    assert verdicts[0] and not all(verdicts)


def _column_side_dilation_free(a, b):
    """The dilation test with states and inputs on the left, states on the right."""
    n = a.n_rows
    cols = [[] for _ in range(n + b.n_cols)]
    for i, j in a.nonzeros:
        cols[j].append(i)
    for i, k in b.nonzeros:
        cols[n + k].append(i)
    return all(owner != -1 for owner in _augmenting_matcher(cols, n))


def test_state_side_dilation_equals_column_side():
    # Inputs from none to three more than states: surplus and missing columns.
    rng = random.Random(3131)
    seen = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
    for _ in range(3000):
        n = rng.randint(1, 9)
        a = random_pattern(rng, n, rng.random() * 0.6)
        n_inputs = rng.randint(0, n + 3)
        b_density = rng.random() * 0.5
        b = StructPattern(n, n_inputs, {
            (i, k) for i in range(n) for k in range(n_inputs) if rng.random() < b_density
        })
        got = is_structurally_controllable(a, b).dilation_free
        assert got == _column_side_dilation_free(a, b), (a, b)
        seen[got, n_inputs > n] += 1
    assert min(seen.values()) > 50, seen
