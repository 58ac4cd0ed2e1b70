"""Bipartite matching over the state-to-state edge set.

The influence digraph induces a bipartite graph with one left copy and one
right copy of the state vertices; digraph edge u -> v becomes bipartite
edge (u, v).  Right vertices missed by a maximum matching are the roots of
the state stems in the stem/cycle decomposition, and their count drives
the input-placement arithmetic in :mod:`structctrl.placement`.

Everything here is deterministic: adjacency lists are sorted and
augmenting-path searches visit vertices in ascending index order, so a
fixed input always yields the same matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph_core import SystemDigraph

_INF = float("inf")


@dataclass(frozen=True)
class BipartiteGraph:
    left_size: int
    right_size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.left_size < 0 or self.right_size < 0:
            raise ValueError("partition sizes must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < self.left_size and 0 <= v < self.right_size):
                raise ValueError(f"edge ({u}, {v}) outside bipartite vertex ranges")

    def left_adjacency(self) -> list[list[int]]:
        """Sorted left adjacency lists."""
        adj: list[list[int]] = [[] for _ in range(self.left_size)]
        for u, v in self.edges:
            adj[u].append(v)
        for lst in adj:
            lst.sort()
        return adj


@dataclass(frozen=True)
class Matching:
    """A conflict-free set of bipartite edges plus the uncovered right vertices."""

    pairs: frozenset[tuple[int, int]]
    right_unmatched: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        object.__setattr__(self, "right_unmatched", tuple(sorted(self.right_unmatched)))
        lefts = [u for u, _ in self.pairs]
        rights = [v for _, v in self.pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("matching edges share a vertex")
        if set(rights) & set(self.right_unmatched):
            raise ValueError("right_unmatched overlaps matched right vertices")

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class StemCycleDecomposition:
    """Vertex-disjoint stems and cycles spanning the digraph.

    Each stem is a directed path whose first vertex is its root; each cycle
    is listed starting from its smallest vertex.  Isolated or uncovered
    vertices appear as length-1 stems.
    """

    stems: tuple[tuple[int, ...], ...]
    cycles: tuple[tuple[int, ...], ...]


def matching_from_pairs(pairs: Iterable[tuple[int, int]], right_size: int) -> Matching:
    """Build a Matching, deriving the uncovered right vertices from ``right_size``."""
    pairs = frozenset(pairs)
    covered = {v for _, v in pairs}
    return Matching(pairs, tuple(v for v in range(right_size) if v not in covered))


def to_state_bipartite(g: SystemDigraph) -> BipartiteGraph:
    """Left and right copies of the state set; digraph edge u -> v becomes (u, v)."""
    return BipartiteGraph(g.n, g.n, g.edges)


# ---------------------------------------------------------------------------
# Hopcroft-Karp engine.  Shared by maximum_matching and by the placement
# pipeline (which seeds it with an existing matching, adds extra left
# vertices, and bans right vertices when re-pinning stem roots).
# match_l / match_r use -1 for "unmatched".
# ---------------------------------------------------------------------------


def solve_matching(
    adj: Sequence[Sequence[int]],
    n_right: int,
    match_l: list[int] | None = None,
    match_r: list[int] | None = None,
    banned_rights: frozenset[int] = frozenset(),
) -> tuple[list[int], list[int], int]:
    """Maximum bipartite matching via Hopcroft-Karp, optionally seeded.

    ``adj`` holds sorted right-neighbor lists per left vertex.  Edges into
    ``banned_rights`` are skipped, which matches deleting those vertices'
    in-edges without copying the adjacency.  Seed arrays come as a pair
    (one alone raises ``ValueError``) and must describe a valid matching
    of the restricted graph; the
    engine only augments, so any seed edge that is never on an augmenting
    path stays.  Returns the match arrays and the matching size.
    """
    n_left = len(adj)
    if (match_l is None) != (match_r is None):
        raise ValueError("seed matching needs both match_l and match_r")
    if match_l is None or match_r is None:
        match_l = [-1] * n_left
        match_r = [-1] * n_right
    dist: list[float] = [0.0] * n_left

    while True:
        # BFS phase: layer the free left vertices, stop at the first layer
        # containing a free right vertex.
        queue: deque[int] = deque()
        for l in range(n_left):
            if match_l[l] == -1:
                dist[l] = 0.0
                queue.append(l)
            else:
                dist[l] = _INF
        dist_free = _INF
        while queue:
            l = queue.popleft()
            if dist[l] >= dist_free:
                continue
            for r in adj[l]:
                if banned_rights and r in banned_rights:
                    continue
                w = match_r[r]
                if w == -1:
                    if dist_free == _INF:
                        dist_free = dist[l] + 1
                elif dist[w] == _INF:
                    dist[w] = dist[l] + 1
                    queue.append(w)
        if dist_free == _INF:
            break
        # DFS phase: vertex-disjoint shortest augmenting paths.
        ptr = [0] * n_left
        for root in range(n_left):
            if match_l[root] == -1:
                _augment(root, adj, match_l, match_r, dist, dist_free, ptr, banned_rights)

    size = sum(1 for r in match_l if r != -1)
    return match_l, match_r, size


def _augment(root, adj, match_l, match_r, dist, dist_free, ptr, banned_rights) -> bool:
    stack = [root]
    chosen: list[int] = []
    while stack:
        l = stack[-1]
        moved = False
        neighbors = adj[l]
        while ptr[l] < len(neighbors):
            r = neighbors[ptr[l]]
            ptr[l] += 1
            if banned_rights and r in banned_rights:
                continue
            w = match_r[r]
            if w == -1:
                if dist[l] + 1 == dist_free:
                    chosen.append(r)
                    for ll, rr in zip(stack, chosen):
                        match_l[ll] = rr
                        match_r[rr] = ll
                    return True
            elif dist[w] == dist[l] + 1:
                chosen.append(r)
                stack.append(w)
                moved = True
                break
        if not moved:
            dist[l] = _INF
            stack.pop()
            if chosen:
                chosen.pop()
    return False


def _arrays_to_matching(match_l: Sequence[int], match_r: Sequence[int]) -> Matching:
    pairs = frozenset((l, r) for l, r in enumerate(match_l) if r != -1)
    unmatched = tuple(r for r, l in enumerate(match_r) if l == -1)
    return Matching(pairs, unmatched)


def maximum_matching(bg: BipartiteGraph) -> Matching:
    """Deterministic maximum matching of ``bg``."""
    ml, mr, _ = solve_matching(bg.left_adjacency(), bg.right_size)
    return _arrays_to_matching(ml, mr)


def stem_cycle_decomposition(g: SystemDigraph, m: Matching) -> StemCycleDecomposition:
    """Split a matching of the state bipartite graph into stems and cycles.

    Matching edges chain into maximal paths; a chain starting at an
    uncovered right vertex is a stem rooted there, a closed chain is a
    cycle.  Vertices touched by no matching edge become length-1 stems.
    The pieces are vertex-disjoint and jointly cover every vertex, and the
    number of stems always equals the number of uncovered right vertices.
    """
    successor: dict[int, int] = {}
    for u, v in m.pairs:
        if (u, v) not in g.edges:
            raise ValueError(f"matching edge ({u}, {v}) is not a digraph edge")
        successor[u] = v

    covered_right = {v for _, v in m.pairs}
    roots = [v for v in range(g.n) if v not in covered_right]

    visited = [False] * g.n
    stems = []
    for root in roots:
        path = [root]
        visited[root] = True
        cur = root
        while cur in successor:
            cur = successor[cur]
            path.append(cur)
            visited[cur] = True
        stems.append(tuple(path))

    cycles = []
    for v in range(g.n):
        if visited[v]:
            continue
        # Anything left is right-covered with an outgoing matched edge, so
        # following successors from v must close a cycle.
        cycle = [v]
        visited[v] = True
        cur = successor[v]
        while cur != v:
            cycle.append(cur)
            visited[cur] = True
            cur = successor[cur]
        cycles.append(tuple(cycle))

    return StemCycleDecomposition(tuple(stems), tuple(cycles))
