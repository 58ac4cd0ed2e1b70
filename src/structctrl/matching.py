"""Bipartite matching over the state-to-state edge set.

The influence digraph induces a bipartite graph with one left copy and one
right copy of the state vertices; digraph edge u -> v becomes bipartite
edge (u, v).  Right vertices missed by a maximum matching are the roots of
the state stems in the stem/cycle decomposition, and their count drives
the input-placement arithmetic in :mod:`structctrl.placement`.

Maximum matchings come from one Hopcroft-Karp engine, ``solve_matching``,
which can be seeded with any valid matching and only augments it.  The
placement pipeline seeds it with ``karp_sipser``: vertices with one free
neighbour are matched first, then the lowest free left vertex takes its
first free neighbour.  On sparse systems that start is maximum or a few
augmentations short, so Hopcroft-Karp needs a few short phases instead
of many long ones from an empty matching.

Everything here is deterministic: adjacency lists are sorted, the
Karp-Sipser queue is first in first out, and augmenting-path searches
visit vertices in ascending index order, so a fixed input always yields
the same matching.
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
    return BipartiteGraph(g.n, g.n, ((u, v) for u, vs in enumerate(g.successors()) for v in vs))


# ---------------------------------------------------------------------------
# Hopcroft-Karp engine.  Shared by maximum_matching and by the placement
# pipeline (which seeds it with a Karp-Sipser start or an existing
# matching, and adds auxiliary left vertices).
# match_l / match_r use -1 for "unmatched".
# ---------------------------------------------------------------------------


def solve_matching(
    adj: Sequence[Sequence[int]],
    n_right: int,
    match_l: list[int] | None = None,
    match_r: list[int] | None = None,
) -> tuple[list[int], list[int], int]:
    """Maximum bipartite matching via Hopcroft-Karp, optionally seeded.

    ``adj`` holds sorted right-neighbor lists per left vertex.  Seed arrays
    come as a pair (one alone raises ``ValueError``) and must describe a
    valid matching of ``adj``; the engine only augments, so any seed edge
    that is never on an augmenting path stays.  Returns the match arrays
    and the matching size.
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
                _augment(root, adj, match_l, match_r, dist, dist_free, ptr)

    size = sum(1 for r in match_l if r != -1)
    return match_l, match_r, size


def karp_sipser(
    succ: Sequence[Sequence[int]], pred: Sequence[Sequence[int]]
) -> tuple[list[int], list[int]]:
    """Maximal matching by the Karp-Sipser heuristic, as a seed for HK.

    ``succ`` holds each left vertex's right neighbours and ``pred`` each
    right vertex's left neighbours (the same edges, transposed).  A vertex
    on either side with exactly one free neighbour is matched to it first,
    since some maximum matching does so.  When no such vertex is left, the
    lowest-index free left vertex takes its first free right neighbour.
    Every match costs one pass over the two endpoints' lists to update the
    free-neighbour counts, so the whole start is O(V + E).  Karp and
    Sipser, FOCS 1981; Duff, Kaya and Ucar, ACM TOMS 38(2), 2011.
    """
    match_l = [-1] * len(succ)
    match_r = [-1] * len(pred)
    deg_l = [len(row) for row in succ]  # free right neighbours
    deg_r = [len(col) for col in pred]  # free left neighbours
    # Vertices to match to their first free neighbour, left l as l and
    # right r as ~r: the degree-1 ones, first in first out, and when none
    # is left the lowest-index free left vertex with a free neighbour.
    queue = [l for l, d in enumerate(deg_l) if d == 1]
    queue += [~r for r, d in enumerate(deg_r) if d == 1]
    greedy = 0
    while True:
        for x in queue:  # also visits what the loop appends
            if x >= 0:
                l = x
                if match_l[l] != -1 or not deg_l[l]:
                    continue
                for r in succ[l]:
                    if match_r[r] == -1:
                        break
            else:
                r = ~x
                if match_r[r] != -1 or not deg_r[r]:
                    continue
                for l in pred[r]:
                    if match_l[l] == -1:
                        break
            match_l[l] = r
            match_r[r] = l
            for w in succ[l]:
                if match_r[w] == -1:
                    deg_r[w] -= 1
                    if deg_r[w] == 1:
                        queue.append(~w)
            for w in pred[r]:
                if match_l[w] == -1:
                    deg_l[w] -= 1
                    if deg_l[w] == 1:
                        queue.append(w)
        while greedy < len(succ) and (match_l[greedy] != -1 or not deg_l[greedy]):
            greedy += 1
        if greedy == len(succ):
            return match_l, match_r
        queue = [greedy]


def _augment(root, adj, match_l, match_r, dist, dist_free, ptr) -> bool:
    stack = [root]
    chosen: list[int] = []
    while stack:
        l = stack[-1]
        moved = False
        neighbors = adj[l]
        while ptr[l] < len(neighbors):
            r = neighbors[ptr[l]]
            ptr[l] += 1
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


def maximum_matching(bg: BipartiteGraph) -> Matching:
    """Deterministic maximum matching of ``bg``."""
    ml, mr, _ = solve_matching(bg.left_adjacency(), bg.right_size)
    pairs = frozenset((l, r) for l, r in enumerate(ml) if r != -1)
    return Matching(pairs, tuple(r for r, l in enumerate(mr) if l == -1))


def stem_cycle_decomposition(g: SystemDigraph, m: Matching) -> StemCycleDecomposition:
    """Split a matching of the state bipartite graph into stems and cycles.

    Matching edges chain into maximal paths; a chain starting at an
    uncovered right vertex is a stem rooted there, a closed chain is a
    cycle.  Vertices touched by no matching edge become length-1 stems.
    The pieces are vertex-disjoint and jointly cover every vertex, and the
    number of stems always equals the number of uncovered right vertices.
    """
    adj = g.successors()
    successor: dict[int, int] = {}
    for u, v in m.pairs:
        if not (0 <= u < g.n and v in adj[u]):
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
