"""Independent verification of structural controllability.

The primary verdict is purely graph-theoretic and exact: a structured pair
(A, B) is structurally controllable iff every state is reachable from some
input (accessibility) and the bipartite graph of state-and-input vertices
versus states has a matching covering every state (no dilation).  An
exact Kalman rank of random realizations over the prime field GF(2^61 - 1)
cross-validates the combinatorial verdict, and a subset search provides
ground truth for the fast placement path.

The matcher here is deliberately separate from ``matching.py`` so that the
oracle shares no matching code with the placement pipeline it is meant to
check; for the same reason the oracle reads the patterns' column tuples,
not a digraph, and transposes them itself.  The matcher is a phase-based
augmenting-path matcher with lookahead in the style of Pothen and Fan (see
Duff, Kaya and Ucar, ACM TOMS 38(2), 2011): a greedy start, then phases of
one depth-first search per free left vertex with one visited stamp per
right vertex for the whole call, until a phase augments nothing.  For the dilation test the states
are its left vertices, each adjacent to the states and inputs that feed
it, so every search starts at an unmatched state and inputs beyond what
the states need start none.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import combinations

from .graph_core import StructPattern, _Record, build_digraph, strongly_connected_components

_PRIME = (1 << 61) - 1  # a Mersenne prime


class OracleVerdict(_Record):
    """Verdict of :func:`is_structurally_controllable`."""

    __slots__ = ("controllable", "accessibility_ok", "dilation_free", "numeric_rank")

    def __init__(
        self,
        controllable: bool,
        accessibility_ok: bool,
        dilation_free: bool,
        numeric_rank: int | None = None,
    ) -> None:
        object.__setattr__(self, "controllable", controllable)
        object.__setattr__(self, "accessibility_ok", accessibility_ok)
        object.__setattr__(self, "dilation_free", dilation_free)
        object.__setattr__(self, "numeric_rank", numeric_rank)


def _augmenting_matcher(adj: Sequence[Sequence[int]], n_right: int) -> list[int]:
    """Maximum matching by phased DFS with lookahead; returns owner per right (-1 free).

    A greedy pass gives each left vertex its first free right neighbour.
    Each phase then runs one DFS from every still-free left vertex; a
    right vertex is visited at most once per phase (``stamp`` holds the
    phase that last visited it).  Before a left vertex is descended from,
    its lookahead pointer looks for a free right neighbour to take at
    once.  Matched rights never become free again, so everything before
    ``look[l]`` in ``adj[l]`` stays matched and the pointer never moves
    back: all lookahead scans of one call cost O(E) together.  A phase
    that augments nothing proves the matching maximum: all its searches
    failed against one unchanged matching, so a right stamped by an
    earlier search of the phase leads to no free right.
    """
    match_r = [-1] * n_right
    look = [0] * len(adj)
    free: list[int] = []
    for l, row in enumerate(adj):
        for k, r in enumerate(row):
            if match_r[r] == -1:
                match_r[r] = l
                look[l] = k + 1
                break
        else:
            look[l] = len(row)
            free.append(l)

    # Every right next to a left on a DFS path is matched: a free left's
    # neighbours were all taken by the greedy pass, and a pushed left's
    # lookahead found none of its own free.
    stamp = [0] * n_right
    phase = 0
    while free:
        phase += 1
        still_free: list[int] = []
        for root in free:
            path_l = [root]
            path_r: list[int] = []
            pos = [0]
            augmented = False
            while path_l and not augmented:
                l = path_l[-1]
                row = adj[l]
                i = pos[-1]
                while i < len(row):
                    r = row[i]
                    i += 1
                    if stamp[r] == phase:
                        continue
                    stamp[r] = phase
                    w = match_r[r]
                    wrow = adj[w]
                    k = look[w]
                    while k < len(wrow) and match_r[wrow[k]] != -1:
                        k += 1
                    if k < len(wrow):
                        # w takes its free neighbour, l takes r, and every
                        # earlier left on the path takes the right it chose.
                        look[w] = k + 1
                        match_r[wrow[k]] = w
                        match_r[r] = l
                        for ll, rr in zip(path_l, path_r):
                            match_r[rr] = ll
                        augmented = True
                        break
                    look[w] = k
                    pos[-1] = i
                    path_l.append(w)
                    path_r.append(r)
                    pos.append(0)
                    break
                else:
                    path_l.pop()
                    pos.pop()
                    if path_r:
                        path_r.pop()
            if not augmented:
                still_free.append(root)
        if len(still_free) == len(free):
            break
        free = still_free
    return match_r


def _check_dims(a: StructPattern, b: StructPattern) -> None:
    if not a.is_square:
        raise ValueError(f"state pattern must be square, got {a.n_rows}x{a.n_cols}")
    if b.n_rows != a.n_rows:
        raise ValueError(
            f"input pattern has {b.n_rows} rows, expected {a.n_rows}"
        )


def is_structurally_controllable(
    a: StructPattern,
    b: StructPattern,
    trials: int = 0,
    seed: int = 0,
) -> OracleVerdict:
    """Exact structural-controllability test for a structured pair (A, B).

    ``accessibility_ok``: every state lies on a directed path from some
    input-connected state.  ``dilation_free``: each state can be matched to
    its own state or input among those that feed it (a matching of the
    states and inputs versus the states that covers all n states).  With
    ``trials`` > 0 the best rank found by :func:`numeric_cross_check` is
    attached as ``numeric_rank``.
    """
    _check_dims(a, b)
    n = a.n_rows

    # Vertex j < n is state j (entry (i, j) is edge j -> i); n + k is input k.
    # adj[u] lists what u feeds (accessibility): column j of A, or column k
    # of B, read as it is.  rows[i] lists what feeds state i, transposed here.
    adj = [a.columns.get(j, ()) for j in range(n)] + [b.columns.get(k, ()) for k in range(b.n_cols)]
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, targets in enumerate(adj):
        for i in targets:
            rows[i].append(u)
    seen: set[int] = set()
    stack = list(range(n, n + b.n_cols))
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    accessibility_ok = len(seen) == n

    match_r = _augmenting_matcher(rows, n + b.n_cols)
    dilation_free = len(match_r) - match_r.count(-1) == n

    rank = numeric_cross_check(a, b, trials, seed)[1] if trials > 0 else None
    return OracleVerdict(
        controllable=accessibility_ok and dilation_free,
        accessibility_ok=accessibility_ok,
        dilation_free=dilation_free,
        numeric_rank=rank,
    )


def _krylov_rank(rows: list[list[tuple[int, int]]], block: list[list[int]], n: int) -> int:
    """Rank modulo ``_PRIME`` of span{A^k B : k >= 0}, capped at n.

    ``rows[i]`` holds the (column, value) pairs of row i of A; ``block``
    holds B's columns.  A basis vector is 1 at its pivot and 0 at every
    earlier pivot, so one pass in insertion order clears all pivots.  The
    next block is A times the vectors that were independent.
    """
    basis: list[tuple[int, list[int]]] = []
    while block:
        fresh = []
        for v in block:
            # Reduced modulo p once at the end: entries stay below n * p^2.
            for piv, w in basis:
                c = v[piv] % _PRIME
                if c:
                    v = [x - c * y for x, y in zip(v, w)]
            v = [x % _PRIME for x in v]
            piv = next((i for i, x in enumerate(v) if x), -1)
            if piv < 0:
                continue
            inv = pow(v[piv], -1, _PRIME)
            v = [x * inv % _PRIME for x in v]
            basis.append((piv, v))
            if len(basis) == n:
                return n
            fresh.append(v)
        block = [[sum(val * v[j] for j, val in row) % _PRIME for row in rows] for v in fresh]
    return len(basis)


def numeric_cross_check(
    a: StructPattern, b: StructPattern, trials: int = 5, seed: int = 0
) -> tuple[str, int]:
    """Exact Kalman rank of random realizations of (A, B) over GF(2^61 - 1).

    Returns ("controllable" or "uncontrollable", best rank).  Each trial
    draws every nonzero of A and then of B, in sorted entry order,
    uniformly from 1..p-1 with ``random.Random(seed)``, and computes the
    rank of [B, AB, ..., A^(n-1) B] modulo p exactly, in O(n^3 + n * nnz).
    Trials stop at the first one of full rank.  The error is one-sided:
    rank n modulo p implies rank n over the rationals, so it proves
    structural controllability, and an uncontrollable pair never reaches
    it.  A controllable pair falls short with probability at most about
    n^2 / 2^61 per trial (Schwartz, JACM 27(4), 1980).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_dims(a, b)
    n = a.n_rows
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, j in sorted(a.nonzeros):
            rows[i].append((j, rng.randint(1, _PRIME - 1)))
        block = [[0] * n for _ in range(b.n_cols)]
        for i, k in sorted(b.nonzeros):
            block[k][i] = rng.randint(1, _PRIME - 1)
        best = max(best, _krylov_rank(rows, block, n))
        if best == n:
            return "controllable", n
    return "uncontrollable", best


def brute_force_minimum(
    a: StructPattern, max_n: int = 12
) -> tuple[int, list[frozenset[int]]]:
    """Smallest dedicated-input set size by exhaustive subset search.

    Scans cardinalities k = 1..n; for each k-subset checks the same two
    structural criteria as :func:`is_structurally_controllable` for the
    dedicated pattern (accessibility reduces to covering every source SCC,
    checked first because it is cheap).  Returns the minimal k together
    with every feasible k-subset, in lexicographic order.
    """
    if not a.is_square:
        raise ValueError(f"state pattern must be square, got {a.n_rows}x{a.n_cols}")
    n = a.n_rows
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the brute-force cap {max_n}; "
            "use placement.min_dedicated_inputs for larger systems"
        )
    g = build_digraph(a)
    cond = strongly_connected_components(g)
    sources = set(cond.non_top_linked)
    scc_of = cond.scc_of
    adj = g.successors()

    def feasible(subset: tuple[int, ...]) -> bool:
        covered_sources = {scc_of[v] for v in subset if scc_of[v] in sources}
        if len(covered_sources) != len(sources):
            return False
        # Dilation check: the states outside the subset must be matchable.
        chosen = set(subset)
        restricted = [[r for r in row if r not in chosen] for row in adj]
        match_r = _augmenting_matcher(restricted, n)
        needed = n - len(chosen)
        got = sum(1 for r in range(n) if r not in chosen and match_r[r] != -1)
        return got == needed

    for k in range(1, n + 1):
        found = [frozenset(c) for c in combinations(range(n), k) if feasible(c)]
        if found:
            return k, found
    raise AssertionError("actuating every state is always feasible")
