"""Minimal dedicated-input placement.

Given the influence digraph of a structured system, the minimum number of
dedicated inputs that make it structurally controllable is

    p = m + beta - alpha

where m is the number of right-unmatched vertices of a maximum matching of
the state bipartite graph, beta is the number of non-top-linked (source)
SCCs, and alpha is the assignability index: the largest number of distinct
source SCCs that can simultaneously host right-unmatched vertices over all
maximum matchings.

alpha is computed by augmentation rather than by trial and error: seed the
solver with a maximum matching, add one auxiliary left vertex per source
SCC adjacent to exactly that SCC's members, and count how many auxiliary
vertices an optimal matching can absorb.  Each absorbed auxiliary vertex
marks one right-unmatched vertex parked in a distinct source SCC, and a
counting argument over augmenting paths shows the count is exactly the
maximum -- greedy per-vertex probing can undershoot it.  A closed form
(:func:`max_assignability_index`) checks the count; no second matching runs.

The same machinery characterizes every minimum placement: a state set C of
size p works if and only if some maximum matching misses exactly C's
"root" part and the rest of C covers the source SCCs the roots miss.
Enumeration lists those root sets by Lawler's partition scheme, repairing
each search node's absorbed matching from its parent's with one exchange
search and at most one re-absorption.  So it has polynomial delay: at most
m + 1 witness calls per root set, and each placement meets Lin's conditions.

``min_dedicated_inputs`` finds its witness by Hopcroft-Karp seeded with a
Karp-Sipser start over the digraph's shared successor and predecessor
lists, absorbs the source SCCs once, and keeps both the witness and the
absorbed matching as match arrays; the partitions read the witness, and
the default placement is the first completion the enumeration lists for
the absorbed matching's roots.  A placement is a plain frozenset of
states.  The sensor design is the same pipeline on the digraph with every
edge turned round (``SystemDigraph.reversed``), since the output problem
on A is the input problem on A^T.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Collection, Iterable, Iterator, Sequence

from .graph_core import (
    Condensation,
    StructPattern,
    SystemDigraph,
    _Record,
    build_digraph,
    strongly_connected_components,
)
from .matching import karp_sipser, solve_matching


class PlacementSummary(_Record, not_compared=("absorbed",), not_shown=("witness", "absorbed")):
    """Result of the fast placement analysis.

    ``witness`` is the maximum matching the counts were read off, as
    ``(match_l, match_r)`` with -1 for unmatched; its unmatched rights are
    the partition slots.  ``assignable_vertices`` are the right-unmatched
    vertices an optimal matching parks inside source SCCs; each serves its
    own source SCC and every one in ``open_sccs``, the source SCCs the other
    roots can hand their freedom to.  ``absorbed`` is the witness with its
    source SCCs absorbed: the real and auxiliary ``match_l`` (auxiliary k is
    left vertex n + k) and ``match_r``.  Equality and the hash ignore
    ``absorbed``, and the repr lists neither matching.
    """

    __slots__ = (
        "m", "beta", "alpha", "p", "witness", "assignable_vertices", "open_sccs",
        "condensation", "absorbed",
    )

    def __init__(
        self,
        m: int,
        beta: int,
        alpha: int,
        p: int,
        witness: tuple[tuple[int, ...], tuple[int, ...]],
        assignable_vertices: frozenset[int],
        open_sccs: frozenset[int],
        condensation: Condensation,
        absorbed: tuple[tuple[int, ...], tuple[int, ...]],
    ) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "assignable_vertices", assignable_vertices)
        object.__setattr__(self, "open_sccs", open_sccs)
        object.__setattr__(self, "condensation", condensation)
        object.__setattr__(self, "absorbed", absorbed)


class EnumerationResult(_Record, not_compared=("_state_sets",), not_shown=("_state_sets",)):
    """Placements listed, each the set of states that get a dedicated input,
    and whether ``limit`` cut the list short.  The placements are
    controllable by construction, so ``oracle_rejections`` is always 0; it
    stays only because ``perfbench/workloads.py`` and ``perfbench/tracer.py``
    read it.  Equality, the hash and the repr ignore ``_state_sets``."""

    __slots__ = ("configurations", "truncated", "_state_sets", "oracle_rejections")

    def __init__(
        self,
        configurations: tuple[frozenset[int], ...],
        truncated: bool,
        _state_sets: frozenset[frozenset[int]],
        oracle_rejections: int = 0,
    ) -> None:
        object.__setattr__(self, "configurations", configurations)
        object.__setattr__(self, "truncated", truncated)
        object.__setattr__(self, "_state_sets", _state_sets)
        object.__setattr__(self, "oracle_rejections", oracle_rejections)

    def __iter__(self):
        return iter(self.configurations)

    def __len__(self) -> int:
        return len(self.configurations)

    def state_sets(self) -> frozenset[frozenset[int]]:
        """The placements' state sets, kept from the enumeration's de-duplication."""
        return self._state_sets


class PlacementDesign(_Record):
    """Bundle returned by the end-to-end design helpers."""

    __slots__ = ("summary", "enumeration")

    def __init__(self, summary: PlacementSummary, enumeration: EnumerationResult) -> None:
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "enumeration", enumeration)


# ---------------------------------------------------------------------------
# Internal helpers on raw adjacency arrays.  The public operations read the
# digraph's lists and the summary's match tuples once and stay on arrays
# afterwards.
# ---------------------------------------------------------------------------


def _avoidable(
    in_lefts: Sequence[Sequence[int]],
    match_l: Sequence[int],
    sources: Sequence[int],
) -> set[int]:
    """``sources`` plus every right they can hand their freedom to.

    ``match_l`` must describe a maximum matching that leaves ``sources``
    unmatched.  BFS over exchange steps: a left vertex matched to r'' and
    adjacent to a freeable r' can release r''.  Every step lands on a right
    that a real left vertex matches, so the other unmatched rights are
    never reached.
    """
    seen = set(sources)
    queue = deque(sorted(seen))
    while queue:
        r = queue.popleft()
        for l in in_lefts[r]:
            nxt = match_l[l]
            if nxt != -1 and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _absorb_source_sccs(
    adj: Sequence[Sequence[int]],
    n: int,
    aux_rows: Sequence[Sequence[int]],
    match_l: list[int],
    match_r: list[int],
) -> int:
    """Augment a matching in place with one auxiliary left vertex per SCC.

    Auxiliary vertex k is left vertex n + k, adjacent to ``aux_rows[k]``
    (the members of source SCC k that it may take); ``match_l`` holds the
    real and the auxiliary vertices.  Returns how many auxiliary vertices
    the optimal matching absorbs.  Augmenting paths never unmatch a left
    vertex, so a real part that starts maximum stays maximum, and the
    absorbed count is the number of distinct SCCs that simultaneously hold
    right-unmatched vertices.  Searches start at auxiliary vertices only: an
    augmenting path from a free real vertex would match it and keep every
    other left vertex matched, a real matching one larger than the maximum.
    """
    solve_matching(list(adj) + list(aux_rows), n, match_l, match_r, n)
    return sum(1 for l in range(n, len(match_l)) if match_l[l] != -1)


def _roots(match_r: Sequence[int], n: int) -> list[int]:
    """Rights no real left vertex matches (auxiliary owners count as none)."""
    return [r for r in range(n) if not 0 <= match_r[r] < n]


def _validate_witness(
    g: SystemDigraph, pairs: Iterable[tuple[int, int]]
) -> tuple[list[int], list[int], int]:
    """Match arrays of a caller's (left, right) pairs, checked to be a
    maximum matching of ``g``; its size is the number of pairs."""
    adj = g.successors()
    ml = [-1] * g.n
    mr = [-1] * g.n
    size = 0
    for l, r in pairs:
        if not (0 <= l < g.n and r in adj[l]):
            raise ValueError(f"witness matching edge ({l}, {r}) is not a digraph edge")
        if ml[l] != -1 or mr[r] != -1:
            raise ValueError(f"witness matching edge ({l}, {r}) shares a vertex with another")
        ml[l] = r
        mr[r] = l
        size += 1
    _, _, after = solve_matching(adj, g.n, list(ml), list(mr))
    if after != size:
        raise ValueError("witness matching is not maximum")
    return ml, mr, size


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def min_dedicated_inputs(
    g: SystemDigraph, matching: Iterable[tuple[int, int]] | None = None
) -> PlacementSummary:
    """Minimum number of dedicated inputs for structural controllability.

    Optionally seeded with a specific maximum matching as ``(left, right)``
    pairs (a non-edge, a shared vertex or a non-maximum set raises
    ``ValueError``); without one, the witness is Hopcroft-Karp started from
    :func:`karp_sipser`.  The counts (m, beta, alpha, p) do not depend on
    the witness, but the witness-relative artifacts (assignable vertices,
    slot order of the partitions, the default placement) do.
    """
    if g.n == 0:
        raise ValueError("the system must have at least one state vertex")

    adj = g.successors()
    if matching is None:
        ml, mr, size = solve_matching(adj, g.n, *karp_sipser(adj, g.predecessors()))
    else:
        ml, mr, size = _validate_witness(g, matching)
    witness = (tuple(ml), tuple(mr))  # copied before absorption changes mr

    m = g.n - size
    cond = strongly_connected_components(g)
    source_ids = sorted(cond.non_top_linked)
    members = [cond.scc_members[j] for j in source_ids]

    ml = ml + [-1] * len(members)
    absorbed = _absorb_source_sccs(adj, g.n, members, ml, mr)
    basis = _roots(mr, g.n)
    assignable = sorted(v for v in basis if cond.scc_of[v] in cond.non_top_linked)

    ext: set[int] = set()
    # Slot i keeps its own SCC; any SCC with a vertex that can join the
    # whole assignable set in one maximum matching is open to every slot.
    # Those vertices are the ones the other roots can hand their freedom
    # to, and no exchange step lands on an assignable root.  Only the roots'
    # own SCCs can be open (a free auxiliary vertex next to a reached state
    # would augment), and a reached state is not the root, so the search
    # runs only when one of those SCCs has more than one member.
    if any(len(cond.scc_members[cond.scc_of[v]]) > 1 for v in assignable):
        others = [v for v in basis if cond.scc_of[v] not in cond.non_top_linked]
        avoid = _avoidable(g.predecessors(), ml, others)
        ext = {cond.scc_of[w] for w in avoid} & cond.non_top_linked
    alpha = max_assignability_index([cond.scc_of[v] for v in assignable], ext)
    if alpha != absorbed:
        raise RuntimeError(
            f"assignability index is {alpha}, augmentation absorbed {absorbed}"
        )
    p = m + cond.beta - alpha

    return PlacementSummary(
        m=m,
        beta=cond.beta,
        alpha=alpha,
        p=p,
        witness=witness,
        assignable_vertices=frozenset(assignable),
        open_sccs=frozenset(ext),
        condensation=cond,
        absorbed=(tuple(ml), tuple(mr)),
    )


def max_assignability_index(slot_sccs: Sequence[int], open_sccs: Collection[int]) -> int:
    """Maximum matching size of the graph joining slot i to its own source
    SCC ``slot_sccs[i]`` and to every SCC in ``open_sccs``: min(k, |D ∪ open|)
    for k slots with own SCCs D.  By Hall's theorem it is k minus the largest
    deficiency |S| - |N(S)| over slot sets S (0 for S empty).  A non-empty S
    has N(S) = (own SCCs of S) ∪ open, and each added slot adds at most one
    SCC, so all k slots have the largest deficiency.  Both sets hold source
    SCCs, so the size never exceeds beta.
    """
    return min(len(slot_sccs), len(set(slot_sccs).union(open_sccs)))


def natural_partitions(
    g: SystemDigraph, summary: PlacementSummary
) -> tuple[frozenset[int], ...]:
    """Per-slot candidate sets relative to the summary's witness matching;
    their constrained product spans all placements.

    Slot j < m belongs to the j-th right-unmatched vertex v_j of the witness,
    in ascending order, and holds every state x such that swapping v_j for x
    (keeping the other unmatched vertices pinned) still admits a maximum
    matching.  That is v_j plus its exchange closure under the witness, one
    BFS from v_j alone.  The remaining p - m slots share one set, the union
    of the source-SCC vertex sets.
    """
    in_lefts = g.predecessors()
    ml, mr = summary.witness
    thetas = [frozenset(_avoidable(in_lefts, ml, [vj])) for vj in _roots(mr, g.n)]
    cond = summary.condensation
    union_sources = frozenset(
        v for j in cond.non_top_linked for v in cond.scc_members[j]
    )
    thetas.extend([union_sources] * (summary.p - summary.m))
    return tuple(thetas)


def _completions(
    summary: PlacementSummary, roots: Sequence[int]
) -> Iterator[frozenset[int]]:
    """The placements of a root set: ``roots`` plus one member of every
    source SCC they miss, lowest-index members first."""
    cond = summary.condensation
    hit = {cond.scc_of[r] for r in roots}
    pools = [cond.scc_members[j] for j in sorted(cond.non_top_linked) if j not in hit]
    size = len(roots) + len(pools)
    if size != summary.p:
        raise RuntimeError(f"placement has {size} states, expected p={summary.p}")
    base = frozenset(roots)
    for extra in itertools.product(*pools):
        yield base.union(extra)


def generate_configuration(
    g: SystemDigraph, summary: PlacementSummary
) -> frozenset[int]:
    """One minimum placement: the first completion the enumeration lists.

    The summary's absorbed matching is maximum and leaves its m unmatched
    states in alpha distinct source SCCs.  Those states, plus the
    lowest-index member of every source SCC they miss, are a placement of
    size m + beta - alpha = p.
    """
    roots = _roots(summary.absorbed[1], g.n)
    return next(_completions(summary, roots))


# Role of a state in a search node of the enumeration: forced into the
# root set (IN) or out of it (OUT); 0 leaves it free.
_IN, _OUT = 1, 2


def _exchange_out(
    in_lefts: Sequence[Sequence[int]],
    role: Sequence[int],
    match_l: Sequence[int],
    match_r: Sequence[int],
    s: int,
) -> tuple[list[int], list[int], int] | None:
    """Cover root ``s`` by a real left vertex and free the first non-OUT
    state that a BFS over exchange steps through OUT states reaches.

    Returns copies of the match arrays with that path applied (an auxiliary
    vertex that held ``s`` is left unmatched) and the freed state, or None.
    """
    prev = {s: (-1, -1)}
    queue = [s]
    for r in queue:
        for l in in_lefts[r]:
            nxt = match_l[l]
            if nxt == -1 or nxt in prev:
                continue
            prev[nxt] = (l, r)
            if role[nxt] == _OUT:
                queue.append(nxt)
                continue
            ml, mr = list(match_l), list(match_r)
            if mr[s] != -1:
                ml[mr[s]] = -1
            mr[nxt] = -1
            cur = nxt
            while cur != s:
                left, cur = prev[cur]
                ml[left] = cur
                mr[cur] = left
            return ml, mr, nxt
    return None


def _child_witness(
    adj: Sequence[Sequence[int]],
    in_lefts: Sequence[Sequence[int]],
    members: Sequence[Sequence[int]],
    role: Sequence[int],
    parent: tuple[Sequence[int], Sequence[int], list[int]],
    s: int,
    alpha: int,
) -> tuple[list[int], list[int], list[int]] | None:
    """Absorbed matching and sorted root set of the child whose OUT gained
    the parent's root ``s``, or None; ``role`` marks the child's IN and OUT.

    If an auxiliary vertex held ``s``, the source SCCs are re-absorbed from
    the repaired matching: real left vertices may not take IN states,
    auxiliary ones may not take OUT states, and alpha must be absorbed.
    """
    n = len(adj)
    found = _exchange_out(in_lefts, role, parent[0], parent[1], s)
    if found is None:
        return None
    ml, mr, freed = found
    roots = [r for r in parent[2] if r != s] + [freed]
    if parent[1][s] >= n:
        rows = list(adj)
        for r in roots:
            if role[r] == _IN:
                for l in in_lefts[r]:
                    rows[l] = [x for x in adj[l] if role[x] != _IN]
        aux_rows = [[v for v in mem if role[v] != _OUT] for mem in members]
        if _absorb_source_sccs(rows, n, aux_rows, ml, mr) < alpha:
            return None
        # Augmenting from auxiliary vertices only hands real-matched states
        # to auxiliary vertices and real vertices onto free roots.
        roots.extend(ml[n:])
        roots = [r for r in set(roots) if r != -1 and not 0 <= mr[r] < n]
    return ml, mr, sorted(roots)


def enumerate_configurations(
    g: SystemDigraph,
    summary: PlacementSummary,
    limit: int = 10_000,
) -> EnumerationResult:
    """All minimum placements as sets, up to ``limit``.

    A minimum placement is a root set R (the m states some maximum matching
    leaves unmatched, hitting alpha source SCCs) plus one member of each
    source SCC that R misses.  Root sets are listed depth first by Lawler's
    partition scheme (Management Science 18(7), 1972; Uno, ISAAC 1997, for
    matchings): node (IN, OUT) holds the root sets containing IN and
    avoiding OUT, its witness R is one of them, and with free =
    sorted(R - IN) child t is (IN + free[:t], OUT + {free[t]}).  A child's
    witness is repaired exactly from its parent's, so enumeration has
    polynomial delay: at most m + 1 witness calls per root set.  Repeated
    placements are dropped.  A root set with one state in each source SCC it
    misses meets Lin's two conditions, so every placement listed is
    structurally controllable by construction.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    n, alpha = g.n, summary.alpha
    cond = summary.condensation
    adj = g.successors()
    in_lefts = g.predecessors()
    members = [cond.scc_members[j] for j in sorted(cond.non_top_linked)]

    configs: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()

    def emit(roots: list[int]) -> bool:
        """Add R's completions; False once a placement past ``limit`` appears."""
        for states in _completions(summary, roots):
            if states in seen:
                continue
            if len(configs) >= limit:
                return False
            seen.add(states)
            configs.append(states)
        return True

    ml, mr = summary.absorbed
    roots = _roots(mr, n)
    truncated = not emit(roots)
    role = [0] * n
    # One frame per node on the DFS path: its free roots, the next child
    # to try, and its witness (matching and root set).
    stack = [[roots, 0, (ml, mr, roots)]]
    while stack and not truncated:
        frame = stack[-1]
        free, t, witness = frame
        if t:
            role[free[t - 1]] = _IN
        if t == len(free):
            for r in free:
                role[r] = 0
            stack.pop()
            continue
        frame[1] = t + 1
        role[free[t]] = _OUT
        child = _child_witness(adj, in_lefts, members, role, witness, free[t], alpha)
        if child is not None:
            truncated = not emit(child[2])
            stack.append([[r for r in child[2] if not role[r]], 0, child])

    return EnumerationResult(tuple(configs), truncated, frozenset(seen))


def emit_input_matrix(states: Collection[int], n: int) -> StructPattern:
    """Canonical n x p input pattern: column k actuates the k-th smallest of
    the p distinct states."""
    ordered = sorted(set(states))
    for s in ordered:
        if not (0 <= s < n):
            raise ValueError(f"state {s} outside range 0..{n - 1}")
    return StructPattern._prechecked(n, len(ordered), {k: (s,) for k, s in enumerate(ordered)})


def emit_output_matrix(states: Collection[int], n: int) -> StructPattern:
    """Canonical p x n output pattern: row k measures the k-th smallest state."""
    return emit_input_matrix(states, n).transpose()


def design_inputs(pattern: StructPattern, limit: int = 10_000) -> PlacementDesign:
    """Full input-design pipeline on a square state pattern."""
    return _design(build_digraph(pattern), limit)


def design_outputs(pattern: StructPattern, limit: int = 10_000) -> PlacementDesign:
    """Dedicated-sensor placement: the input pipeline on the digraph with
    every edge turned round, which is the transposed pattern's digraph.

    The returned configurations are states to measure; pair them with
    :func:`emit_output_matrix` for the canonical output pattern.
    """
    return _design(build_digraph(pattern).reversed(), limit)


def _design(g: SystemDigraph, limit: int) -> PlacementDesign:
    summary = min_dedicated_inputs(g)
    return PlacementDesign(summary, enumerate_configurations(g, summary, limit=limit))
