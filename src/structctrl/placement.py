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
maximum -- greedy per-vertex probing can undershoot it.

The same machinery characterizes every minimum placement: a state set C of
size p works if and only if some maximum matching misses exactly C's
"root" part and the rest of C covers the source SCCs the roots miss.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from . import oracle
from .graph_core import (
    Condensation,
    StructPattern,
    SystemDigraph,
    build_digraph,
    pattern_of,
    strongly_connected_components,
)
from .matching import Matching, matching_from_pairs, solve_matching


@dataclass(frozen=True)
class PlacementSummary:
    """Result of the fast placement analysis.

    ``assignable_vertices`` are the right-unmatched vertices an optimal
    matching parks inside source SCCs; ``assignment_edges`` pairs each of
    them (by ascending-index slot) with the source-SCC ids it can serve.
    """

    m: int
    beta: int
    alpha: int
    p: int
    witness_matching: Matching
    assignable_vertices: frozenset[int]
    assignment_edges: frozenset[tuple[int, int]]
    condensation: Condensation


@dataclass(frozen=True)
class PartitionSet:
    """Per-slot candidate sets whose constrained product spans all placements.

    The first ``split`` sets hold, for each right-unmatched vertex of the
    witness matching, every state that could take over its slot in some
    maximum matching.  The remaining sets are all identical: the union of
    the source-SCC vertex sets, from which the SCC-covering states are drawn.
    """

    thetas: tuple[frozenset[int], ...]
    split: int


@dataclass(frozen=True)
class InputConfiguration:
    """A set of states, each of which receives its own dedicated input."""

    states: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", frozenset(self.states))

    def sorted_states(self) -> tuple[int, ...]:
        return tuple(sorted(self.states))


@dataclass(frozen=True)
class EnumerationResult:
    configurations: tuple[InputConfiguration, ...]
    truncated: bool
    oracle_rejections: int

    def __iter__(self):
        return iter(self.configurations)

    def __len__(self) -> int:
        return len(self.configurations)

    def state_sets(self) -> set[frozenset[int]]:
        return {c.states for c in self.configurations}


@dataclass(frozen=True)
class PlacementDesign:
    """Bundle returned by the end-to-end design helpers."""

    summary: PlacementSummary
    partitions: PartitionSet
    enumeration: EnumerationResult


# ---------------------------------------------------------------------------
# Internal helpers on raw adjacency arrays.  The public operations convert
# the immutable dataclasses once and stay on arrays afterwards.
# ---------------------------------------------------------------------------


def _in_lefts(adj: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Per right vertex, the left vertices with an edge into it."""
    out: list[list[int]] = [[] for _ in range(n)]
    for l, row in enumerate(adj):
        for r in row:
            out[r].append(l)
    return out


def _avoidable(
    in_lefts: Sequence[Sequence[int]],
    n: int,
    match_l: Sequence[int],
    match_r: Sequence[int],
    banned: frozenset[int] = frozenset(),
) -> set[int]:
    """Rights missed by some maximum matching of the banned-edge graph.

    ``match_l``/``match_r`` must describe a maximum matching of that graph.
    BFS over exchange steps: a left vertex matched to r'' and adjacent to a
    freeable r' can release r''.  Banned rights have no in-edges in the
    restricted graph, so nothing propagates out of them.
    """
    seen = {r for r in range(n) if match_r[r] == -1}
    queue = deque(sorted(seen))
    while queue:
        r = queue.popleft()
        if banned and r in banned:
            continue
        for l in in_lefts[r]:
            nxt = match_l[l]
            if nxt != -1 and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _absorb_source_sccs(
    adj: Sequence[Sequence[int]],
    n: int,
    scc_members: Sequence[Sequence[int]],
    match_l: Sequence[int],
    match_r: Sequence[int],
) -> tuple[int, list[int], list[int]]:
    """Augment a maximum matching with one auxiliary left vertex per SCC.

    Auxiliary vertex k is adjacent to exactly the members of
    ``scc_members[k]``.  Returns how many auxiliary vertices the optimal
    matching absorbs plus the real match arrays afterwards (auxiliary
    coverage stripped back to "unmatched").  The real part stays a maximum
    matching throughout, so the absorbed count is the number of distinct
    SCCs that simultaneously hold right-unmatched vertices.
    """
    aug_adj = list(adj) + [sorted(members) for members in scc_members]
    ml = list(match_l) + [-1] * len(scc_members)
    mr = list(match_r)
    solve_matching(aug_adj, n, ml, mr)
    absorbed = sum(1 for k in range(len(scc_members)) if ml[n + k] != -1)
    real_l = ml[:n]
    real_r = [(-1 if owner >= n else owner) for owner in mr]
    return absorbed, real_l, real_r


def _matching_to_arrays(m: Matching, n: int) -> tuple[list[int], list[int]]:
    ml = [-1] * n
    mr = [-1] * n
    for l, r in m.pairs:
        ml[l] = r
        mr[r] = l
    return ml, mr


def _validate_witness(g: SystemDigraph, m: Matching) -> tuple[list[int], list[int], int]:
    for l, r in m.pairs:
        if (l, r) not in g.edges:
            raise ValueError(f"witness matching edge ({l}, {r}) is not a digraph edge")
    ml, mr = _matching_to_arrays(m, g.n)
    before = m.size
    _, _, after = solve_matching(g.successors(), g.n, list(ml), list(mr))
    if after != before:
        raise ValueError("witness matching is not maximum")
    return ml, mr, before


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def min_dedicated_inputs(
    g: SystemDigraph, matching: Matching | None = None
) -> PlacementSummary:
    """Minimum number of dedicated inputs for structural controllability.

    Optionally seeded with a specific maximum matching; the counts
    (m, beta, alpha, p) do not depend on the seed, but the witness-relative
    artifacts (slot order of the partitions) do.
    """
    if g.n == 0:
        raise ValueError("the system must have at least one state vertex")

    adj = g.successors()
    if matching is None:
        ml, mr, size = solve_matching(adj, g.n)
        witness = matching_from_pairs(
            ((l, r) for l, r in enumerate(ml) if r != -1), g.n
        )
    else:
        ml, mr, size = _validate_witness(g, matching)
        witness = matching_from_pairs(matching.pairs, g.n)

    m = g.n - size
    cond = strongly_connected_components(g)
    source_ids = sorted(cond.non_top_linked)
    members = [cond.scc_members[j] for j in source_ids]

    absorbed, real_l, real_r = _absorb_source_sccs(adj, g.n, members, ml, mr)
    source_set = set(source_ids)
    basis = [r for r in range(g.n) if real_r[r] == -1]
    assignable = sorted(v for v in basis if cond.scc_of[v] in source_set)

    edges: set[tuple[int, int]] = set()
    if assignable:
        # Slot i keeps its own SCC; any SCC with a vertex that can join the
        # whole assignable set in one maximum matching is open to every slot.
        avoid = _avoidable(
            _in_lefts(adj, g.n), g.n, real_l, real_r, banned=frozenset(assignable)
        )
        assignable_set = set(assignable)
        ext = {
            cond.scc_of[w]
            for w in avoid
            if w not in assignable_set and cond.scc_of[w] in source_set
        }
        for i, v in enumerate(assignable):
            edges.add((i, cond.scc_of[v]))
            for j in ext:
                edges.add((i, j))

    alpha = max_assignability_index(edges, len(assignable), cond.beta)
    if alpha != absorbed:
        raise RuntimeError(
            f"assignability matching gives {alpha}, augmentation absorbed {absorbed}"
        )
    p = m + cond.beta - alpha

    return PlacementSummary(
        m=m,
        beta=cond.beta,
        alpha=alpha,
        p=p,
        witness_matching=witness,
        assignable_vertices=frozenset(assignable),
        assignment_edges=frozenset(edges),
        condensation=cond,
    )


def max_assignability_index(
    edges: frozenset[tuple[int, int]] | set[tuple[int, int]],
    n_slots: int,
    beta: int,
) -> int:
    """Size of a maximum matching of the slot/SCC assignment graph."""
    scc_ids = sorted({j for _, j in edges})
    col_of = {j: k for k, j in enumerate(scc_ids)}
    adj: list[list[int]] = [[] for _ in range(n_slots)]
    for i, j in edges:
        adj[i].append(col_of[j])
    for row in adj:
        row.sort()
    _, _, size = solve_matching(adj, len(scc_ids))
    if size > beta:
        raise RuntimeError(f"assignability index {size} exceeds beta={beta}")
    return size


def natural_partitions(g: SystemDigraph, summary: PlacementSummary) -> PartitionSet:
    """Per-slot candidate sets relative to the summary's witness matching.

    For slot j of a right-unmatched vertex v_j: every state x such that
    swapping v_j for x (keeping the other unmatched vertices pinned) still
    admits a maximum matching.  The remaining p - m slots share the union
    of the source-SCC vertex sets.
    """
    witness = summary.witness_matching
    slots = list(witness.right_unmatched)
    adj = g.successors()
    in_lefts = _in_lefts(adj, g.n)
    ml, mr = _matching_to_arrays(witness, g.n)

    thetas: list[frozenset[int]] = []
    for j, vj in enumerate(slots):
        pinned = frozenset(v for v in slots if v != vj)
        # The witness itself is a maximum matching of the graph with the
        # pinned in-edges removed, so it can seed the exchange search.
        avoid = _avoidable(in_lefts, g.n, ml, mr, banned=pinned)
        thetas.append(frozenset(avoid - pinned))

    cond = summary.condensation
    union_sources = frozenset(
        v for j in cond.non_top_linked for v in cond.scc_members[j]
    )
    thetas.extend([union_sources] * (summary.p - summary.m))
    return PartitionSet(tuple(thetas), split=summary.m)


def _repin(
    adj: Sequence[Sequence[int]],
    n: int,
    banned: frozenset[int],
    ml: Sequence[int],
    mr: Sequence[int],
) -> tuple[list[int], list[int], int]:
    """Maximum matching of the graph minus the banned rights' in-edges,
    seeded with a matching of the unrestricted graph.

    Seed edges into newly banned rights are dropped first; only those few
    vertices can need re-augmenting, so this is far cheaper than matching
    from scratch when the seed was already maximum.
    """
    ml = list(ml)
    mr = list(mr)
    for r in banned:
        l = mr[r]
        if l != -1:
            mr[r] = -1
            ml[l] = -1
    return solve_matching(adj, n, ml, mr, banned_rights=banned)


def generate_configuration(
    g: SystemDigraph, summary: PlacementSummary
) -> InputConfiguration:
    """One minimum placement, read off the absorbed matching.

    Absorbing the source SCCs into the witness matching leaves a maximum
    matching whose m unmatched states lie in alpha distinct source SCCs.
    Those states, plus the lowest-index member of every source SCC they
    miss, are a placement of size m + beta - alpha = p.
    """
    cond = summary.condensation
    source_ids = sorted(cond.non_top_linked)
    ml, mr = _matching_to_arrays(summary.witness_matching, g.n)
    _, _, real_r = _absorb_source_sccs(
        g.successors(), g.n, [cond.scc_members[j] for j in source_ids], ml, mr
    )
    states = {r for r in range(g.n) if real_r[r] == -1}
    covered = {cond.scc_of[v] for v in states}
    states.update(cond.scc_members[j][0] for j in source_ids if j not in covered)
    if len(states) != summary.p:
        raise RuntimeError(f"placement has {len(states)} states, expected p={summary.p}")
    return InputConfiguration(frozenset(states))


def enumerate_configurations(
    g: SystemDigraph,
    summary: PlacementSummary,
    partitions: PartitionSet,
    limit: int = 10_000,
) -> EnumerationResult:
    """All minimum placements as sets, up to ``limit``.

    Depth-first search over the per-slot candidate sets with two prunes:
    partial root picks must stay simultaneously unmatchable, and enough
    slots must remain to reach alpha distinct source SCCs.  Completed
    candidates pass through the structural-controllability oracle as a
    safety net; the rejection counter should stay at zero.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    cond = summary.condensation
    adj = g.successors()
    a_pattern = pattern_of(g)
    m, alpha, p = summary.m, summary.alpha, summary.p
    source_ids = sorted(cond.non_top_linked)
    source_set = set(source_ids)

    configs: list[InputConfiguration] = []
    seen: set[frozenset[int]] = set()
    seen_bases: set[frozenset[int]] = set()
    rejections = 0
    truncated = False

    class _Stop(Exception):
        pass

    def emit(states: frozenset[int]) -> None:
        nonlocal rejections, truncated
        if states in seen:
            return
        seen.add(states)
        b = emit_input_matrix(InputConfiguration(states), g.n)
        if not oracle.is_structurally_controllable(a_pattern, b).controllable:
            rejections += 1
            return
        if len(configs) >= limit:
            truncated = True
            raise _Stop
        configs.append(InputConfiguration(states))

    def complete_roots(picks: frozenset[int], hit: frozenset[int]) -> None:
        if len(hit) != alpha or picks in seen_bases:
            return
        seen_bases.add(picks)
        uncovered = [j for j in source_ids if j not in hit]
        pools = [sorted(cond.scc_members[j]) for j in uncovered]
        for extra in itertools.product(*pools):
            emit(picks | frozenset(extra))

    in_lefts = _in_lefts(adj, g.n)

    def slot_candidates(slot, picks, seed_ml, seed_mr):
        ml, mr, _ = _repin(adj, g.n, picks, seed_ml, seed_mr)
        avoid = _avoidable(in_lefts, g.n, ml, mr, banned=picks)
        return sorted(partitions.thetas[slot] & (avoid - picks)), ml, mr

    base_ml, base_mr = _matching_to_arrays(summary.witness_matching, g.n)

    # Explicit DFS stack: one candidate iterator per slot; each frame keeps
    # the maximum matching missing its picks so children re-augment cheaply.
    try:
        if m == 0:
            complete_roots(frozenset(), frozenset())
        else:
            first, ml0, mr0 = slot_candidates(0, frozenset(), base_ml, base_mr)
            stack = [(iter(first), frozenset(), frozenset(), ml0, mr0)]
            while stack:
                candidates, picks, hit, ml, mr = stack[-1]
                x = next(candidates, None)
                if x is None:
                    stack.pop()
                    continue
                j = cond.scc_of[x]
                new_hit = hit | {j} if j in source_set else hit
                slot = len(stack)  # next slot index after picking x
                if len(new_hit) + (m - slot) < alpha:
                    continue
                new_picks = picks | {x}
                if slot == m:
                    complete_roots(new_picks, new_hit)
                else:
                    cands, cml, cmr = slot_candidates(slot, new_picks, ml, mr)
                    stack.append((iter(cands), new_picks, new_hit, cml, cmr))
    except _Stop:
        pass

    return EnumerationResult(tuple(configs), truncated, rejections)


def emit_input_matrix(config: InputConfiguration, n: int) -> StructPattern:
    """Canonical n x p input pattern: column k actuates the k-th chosen state."""
    states = config.sorted_states()
    for s in states:
        if not (0 <= s < n):
            raise ValueError(f"state {s} outside range 0..{n - 1}")
    return StructPattern(
        n, len(states), frozenset((s, k) for k, s in enumerate(states))
    )


def emit_output_matrix(config: InputConfiguration, n: int) -> StructPattern:
    """Canonical p x n output pattern: row k measures the k-th chosen state."""
    return emit_input_matrix(config, n).transpose()


def design_inputs(
    pattern: StructPattern,
    limit: int = 10_000,
    matching: Matching | None = None,
) -> PlacementDesign:
    """Full input-design pipeline on a square state pattern."""
    g = build_digraph(pattern)
    summary = min_dedicated_inputs(g, matching=matching)
    partitions = natural_partitions(g, summary)
    enumeration = enumerate_configurations(g, summary, partitions, limit=limit)
    return PlacementDesign(summary, partitions, enumeration)


def design_outputs(pattern: StructPattern, limit: int = 10_000) -> PlacementDesign:
    """Dedicated-sensor placement: the input pipeline on the transposed pattern.

    The returned configurations are states to measure; pair them with
    :func:`emit_output_matrix` for the canonical output pattern.
    """
    if not pattern.is_square:
        raise ValueError(
            f"state pattern must be square, got {pattern.n_rows}x{pattern.n_cols}"
        )
    return design_inputs(pattern.transpose(), limit=limit)
