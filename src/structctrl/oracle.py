"""Independent verification of structural controllability.

The primary verdict is purely graph-theoretic and exact: a structured pair
(A, B) is structurally controllable iff every state is reachable from some
input (accessibility) and the bipartite graph of state-and-input vertices
versus states has a matching covering every state (no dilation).  A
randomized numeric rank check cross-validates the combinatorial verdict on
small systems, and a subset search provides ground truth for the fast
placement path.

The matcher here is deliberately separate from ``matching.py`` so that the
oracle shares no matching code with the placement pipeline it is meant to
check.  It is a phase-based augmenting-path matcher with lookahead in the
style of Pothen and Fan (see Duff, Kaya and Ucar, ACM TOMS 38(2), 2011): a
greedy start, then phases of one depth-first search per free left vertex
with one visited stamp per right vertex for the whole call, until a phase
augments nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .graph_core import StructPattern, build_digraph, strongly_connected_components


@dataclass(frozen=True)
class OracleVerdict:
    controllable: bool
    accessibility_ok: bool
    dilation_free: bool
    numeric_rank: int | None = None


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
    input-connected state.  ``dilation_free``: the states and inputs on the
    left versus the states on the right admit a matching covering all n
    states.  With ``trials`` > 0 a randomized Kalman rank is attached as
    advisory cross-validation.
    """
    _check_dims(a, b)
    n = a.n_rows

    g = build_digraph(a)
    adj = g.successors()
    input_states = sorted({i for i, _ in b.nonzeros})
    seen = set(input_states)
    stack = list(input_states)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    accessibility_ok = len(seen) == n

    # Left side: the n states followed by one vertex per input column.
    per_input: dict[int, list[int]] = {}
    for i, j in b.nonzeros:
        per_input.setdefault(j, []).append(i)
    for j in range(b.n_cols):
        adj.append(sorted(per_input.get(j, [])))
    match_r = _augmenting_matcher(adj, n)
    dilation_free = all(owner != -1 for owner in match_r)

    rank = numeric_rank_check(a, b, trials, seed) if trials > 0 else None
    return OracleVerdict(
        controllable=accessibility_ok and dilation_free,
        accessibility_ok=accessibility_ok,
        dilation_free=dilation_free,
        numeric_rank=rank,
    )


def _random_realization(
    pattern: StructPattern, rng: np.random.Generator
) -> np.ndarray:
    mat = np.zeros((pattern.n_rows, pattern.n_cols))
    for i, j in sorted(pattern.nonzeros):
        mat[i, j] = rng.uniform(0.5, 1.5)
    return mat


def _controllability_matrix(amat: np.ndarray, bmat: np.ndarray) -> np.ndarray:
    n = amat.shape[0]
    blocks = [bmat]
    for _ in range(n - 1):
        blocks.append(amat @ blocks[-1])
    return np.hstack(blocks)


def numeric_rank_check(
    a: StructPattern, b: StructPattern, trials: int, seed: int = 0
) -> int:
    """Best Kalman-matrix rank over random realizations of the patterns.

    Non-zero entries are drawn uniformly from [0.5, 1.5] (bounded away from
    zero to avoid accidental cancellations).  Rank uses the standard
    numerical convention: singular values above
    max(matrix dims) * machine epsilon * largest singular value count.
    The draws and the rank are those of :func:`numeric_cross_check`.
    """
    return numeric_cross_check(a, b, trials, seed)[1]


def numeric_cross_check(
    a: StructPattern, b: StructPattern, trials: int = 5, seed: int = 0
) -> tuple[str, int]:
    """Classify the randomized rank evidence for (A, B).

    Returns (verdict, best rank) with verdict one of "controllable",
    "uncontrollable", "indeterminate".  A trial is decisive for full rank
    when its smallest kept singular value clears the rank tolerance by a
    factor of 10; a rank-deficient trial is decisive when the kept and
    dropped singular values are separated by at least six orders of
    magnitude.  Anything borderline is reported as indeterminate rather
    than guessed.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_dims(a, b)
    n = a.n_rows
    if b.n_cols == 0:
        return ("uncontrollable" if n > 0 else "controllable"), 0
    rng = np.random.default_rng(seed)
    best = 0
    any_full = False
    all_clean_deficient = True
    for _ in range(trials):
        ctrb = _controllability_matrix(
            _random_realization(a, rng), _random_realization(b, rng)
        )
        svals = np.linalg.svd(ctrb, compute_uv=False)
        if svals.size == 0 or svals[0] == 0.0:
            best = max(best, 0)
            continue
        tol = max(ctrb.shape) * np.finfo(float).eps * svals[0]
        rank = int(np.count_nonzero(svals > tol))
        best = max(best, rank)
        if rank == n and svals[n - 1] > 10 * tol:
            any_full = True
        elif rank < n:
            dropped = svals[rank] if rank < svals.size else 0.0
            kept = svals[rank - 1] if rank > 0 else np.inf
            if dropped > 0 and kept / dropped < 1e6:
                all_clean_deficient = False
        else:
            all_clean_deficient = False  # full rank but barely
    if any_full:
        return "controllable", best
    if best < n and all_clean_deficient:
        return "uncontrollable", best
    return "indeterminate", best


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
