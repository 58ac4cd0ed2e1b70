"""Bipartite matching over the state-to-state edge set.

The influence digraph induces a bipartite graph with one left copy and one
right copy of the state vertices; digraph edge u -> v becomes bipartite
edge (u, v).  That graph is never built: the digraph's successor lists
are its left adjacency lists, so every matcher here reads them directly.
The number of right vertices a maximum matching misses drives the
input-placement arithmetic in :mod:`structctrl.placement`.

Maximum matchings come from one Hopcroft-Karp engine, ``solve_matching``,
which always starts from a seed matching that its caller passes and only
augments it.  The placement pipeline seeds it with ``karp_sipser``:
vertices with one free neighbour are matched first, then the lowest free
left vertex takes its first free neighbour.  On sparse systems that
start is maximum or a few augmentations short, so Hopcroft-Karp needs a
few short phases instead of many long ones from an empty matching.

Everything here is deterministic: adjacency lists are sorted, the
Karp-Sipser queue is first in first out, and augmenting-path searches
visit vertices in ascending index order, so a fixed input always yields
the same matching.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

_INF = float("inf")


# ---------------------------------------------------------------------------
# Hopcroft-Karp engine.  The placement pipeline seeds it with a
# Karp-Sipser start or a caller's witness, and again with the witness plus
# one auxiliary left vertex per source SCC to absorb.
# match_l / match_r use -1 for "unmatched".
# ---------------------------------------------------------------------------


def solve_matching(
    adj: Sequence[Sequence[int]],
    n_right: int,
    match_l: list[int],
    match_r: list[int],
    first: int = 0,
) -> tuple[list[int], list[int], int]:
    """Maximum bipartite matching via Hopcroft-Karp, grown from a seed.

    ``adj`` holds sorted right-neighbor lists per left vertex.  The seed
    arrays, of lengths ``len(adj)`` and ``n_right``, must describe a valid
    matching of ``adj`` (all ``-1`` is the empty one).  They are augmented
    in place, so any seed edge that is never on an augmenting path stays.
    Searches start only at free left vertices ``first`` and later; the
    result is maximum when no augmenting path starts before ``first``.
    Returns the match arrays and the matching size.
    """
    n_left = len(adj)
    dist: list[float] = [0.0] * n_left

    while True:
        # BFS phase: layer the free left vertices, stop at the first layer
        # containing a free right vertex.
        queue: deque[int] = deque()
        for l in range(n_left):
            if match_l[l] == -1 and l >= first:
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
        for root in range(first, n_left):
            if match_l[root] == -1:
                _augment(root, adj, match_l, match_r, dist, dist_free, ptr)

    return match_l, match_r, len(match_l) - match_l.count(-1)


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
    deg_l = list(map(len, succ))  # free right neighbours
    deg_r = list(map(len, pred))  # free left neighbours
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
