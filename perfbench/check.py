"""Independent checker for the program's answers.

Nothing here imports the program.  Large instances are checked with
``scipy.sparse.csgraph`` (matching, strong components, breadth-first
search); tiny instances are checked by exhaustive subset search over
bitmasks.  An entry (i, j) of a pattern means state j influences state i,
i.e. the influence edge j -> i.  A set S of states, each with its own
dedicated input, makes the pair structurally controllable iff every state
is reachable from S and the states outside S can be matched to distinct
columns of A.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    maximum_bipartite_matching,
)


def _csr(n_rows: int, n_cols: int, rows, cols) -> csr_matrix:
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    return csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n_rows, n_cols))


def _matched_rows(mat: csr_matrix) -> int:
    if mat.shape[1] == 0:
        return 0
    return int((maximum_bipartite_matching(mat, perm_type="column") >= 0).sum())


class Pattern:
    """Square state pattern given by zero-based entries."""

    def __init__(self, n: int, entries: list[tuple[int, int]]):
        self.n = n
        arr = np.asarray(entries, dtype=np.int64).reshape(-1, 2)
        self.rows, self.cols = arr[:, 0], arr[:, 1]
        self.a = _csr(n, n, self.rows, self.cols)

    def counts(self) -> tuple[int, int, int, int]:
        """(m, beta, alpha, p) computed from scratch.

        alpha is the number of auxiliary columns, one per source SCC and
        adjacent to its members, that a cold maximum matching of the
        augmented pattern covers beyond a maximum matching of A: augmenting
        paths never unmatch a row, so some optimum keeps A's part maximum.
        """
        n = self.n
        size = _matched_rows(self.a)
        n_comp, labels = connected_components(
            self.a.T.tocsr(), directed=True, connection="strong"
        )
        fed = np.zeros(n_comp, dtype=bool)
        cross = labels[self.rows] != labels[self.cols]
        fed[labels[self.rows[cross]]] = True
        source_ids = np.flatnonzero(~fed)
        aux_col = np.full(n_comp, -1, dtype=np.int64)
        aux_col[source_ids] = n + np.arange(len(source_ids))
        members = np.flatnonzero(aux_col[labels] >= 0)
        aug = _csr(
            n,
            n + len(source_ids),
            np.concatenate([self.rows, members]),
            np.concatenate([self.cols, aux_col[labels[members]]]),
        )
        m = n - size
        beta = len(source_ids)
        alpha = _matched_rows(aug) - size
        return m, beta, alpha, m + beta - alpha

    def controllable(self, states) -> bool:
        """Accessibility from ``states`` plus a full matching of [A | B]."""
        n = self.n
        states = np.asarray(sorted(states), dtype=np.int64)
        k = len(states)
        # Influence digraph plus a super-source (vertex n) feeding every input state.
        g = _csr(
            n + 1,
            n + 1,
            np.concatenate([self.cols, np.full(k, n)]),
            np.concatenate([self.rows, states]),
        )
        if len(breadth_first_order(g, n, directed=True, return_predecessors=False)) != n + 1:
            return False
        ab = _csr(
            n,
            n + k,
            np.concatenate([self.rows, states]),
            np.concatenate([self.cols, n + np.arange(k)]),
        )
        return _matched_rows(ab) == n


def exhaustive_placements(n: int, entries: list[tuple[int, int]]) -> tuple[int, set[frozenset[int]]]:
    """Minimum dedicated-input count and every placement of that size, by search.

    Bitmask version for tiny patterns: reach[v] holds the states v
    influences directly or indirectly (v included); row_cols[i] holds the
    columns of A with a non-zero in row i.
    """
    succ = [0] * n
    row_cols = [0] * n
    for i, j in entries:
        succ[j] |= 1 << i
        row_cols[i] |= 1 << j
    reach = []
    for v in range(n):
        seen = frontier = 1 << v
        while frontier:
            nxt = 0
            for u in range(n):
                if frontier >> u & 1:
                    nxt |= succ[u]
            frontier = nxt & ~seen
            seen |= frontier
        reach.append(seen)
    full = (1 << n) - 1
    memo: dict[int, int] = {}

    def matched(rows: int) -> int:
        """Size of a maximum matching of the given rows into A's columns."""
        if rows not in memo:
            owner = [-1] * n  # column -> row

            def augment(i: int, used: list[int]) -> bool:
                free = row_cols[i] & ~used[0]
                while free:
                    low = free & -free
                    j = low.bit_length() - 1
                    used[0] |= low
                    if owner[j] == -1 or augment(owner[j], used):
                        owner[j] = i
                        return True
                    free &= ~low
                return False

            memo[rows] = sum(augment(i, [0]) for i in range(n) if rows >> i & 1)
        return memo[rows]

    # Lower bound max(m, beta): m rows stay unmatched in every matching, and
    # every source SCC needs an input state of its own.
    m = n - matched(full)
    source_sccs = {
        sum(1 << u for u in range(n) if reach[v] >> u & 1 and reach[u] >> v & 1)
        for v in range(n)
        if all(reach[v] >> u & 1 for u in range(n) if reach[u] >> v & 1)
    }
    for k in range(max(m, len(source_sccs)), n + 1):
        found = set()
        for combo in combinations(range(n), k):
            mask = covered = 0
            for s in combo:
                mask |= 1 << s
                covered |= reach[s]
            rest = full & ~mask
            if covered == full and matched(rest) == n - k:
                found.add(frozenset(combo))
        if found:
            return k, found
    raise RuntimeError("the full state set is always a placement")
