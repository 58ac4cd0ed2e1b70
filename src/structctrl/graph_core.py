"""Digraph layer for structured-system analysis.

A structured LTI system is known only through the zero/non-zero pattern of
its state matrix.  A non-zero entry at (i, j) means state j influences
state i, encoded as the directed edge j -> i (influencer to influenced).
Everything downstream -- strongly connected components and the source
components that no other state feeds into -- is computed on that
influence digraph, which keeps its edges only as adjacency lists.

All indices are zero-based.  File formats are one-based; the translation
happens at the I/O boundary only.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class StructPattern:
    """Sparsity pattern of a matrix: only non-zero positions are kept."""

    n_rows: int
    n_cols: int
    nonzeros: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nonzeros", frozenset(self.nonzeros))
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("pattern dimensions must be non-negative")
        for i, j in self.nonzeros:
            if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
                raise ValueError(
                    f"entry ({i}, {j}) outside a {self.n_rows}x{self.n_cols} pattern"
                )

    @classmethod
    def _prechecked(
        cls, n_rows: int, n_cols: int, nonzeros: frozenset[tuple[int, int]]
    ) -> "StructPattern":
        """A pattern from entries the caller has already range-checked.

        The parsers check each entry against the declared size as they read
        it, and the library's own builders make in-range entries only, so
        they skip the repeat check; patterns built by users keep it.
        """
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "n_rows", n_rows)
        object.__setattr__(pattern, "n_cols", n_cols)
        object.__setattr__(pattern, "nonzeros", nonzeros)
        return pattern

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def nnz(self) -> int:
        return len(self.nonzeros)

    def transpose(self) -> "StructPattern":
        return StructPattern._prechecked(
            self.n_cols, self.n_rows, frozenset((j, i) for i, j in self.nonzeros)
        )


@dataclass(frozen=True)
class SystemDigraph:
    """Influence digraph over the state vertices 0..n-1.

    ``edges``, any iterable of (u, v) pairs, is read once into sorted
    successor and predecessor lists; no other copy of it is kept.
    Self-loops are allowed; a repeated pair is one edge.
    """

    n: int
    edges: InitVar[Iterable[tuple[int, int]]]
    _succ: list[list[int]] = field(init=False, repr=False, hash=False)
    _pred: list[list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self, edges: Iterable[tuple[int, int]]) -> None:
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        succ: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            succ[u].append(v)
        # Deduplicated successors, walked in order, give sorted predecessors.
        pred: list[list[int]] = [[] for _ in range(n)]
        for u, targets in enumerate(succ):
            if len(targets) > 1:
                targets = succ[u] = sorted(set(targets))
            for v in targets:
                pred[v].append(u)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)

    def successors(self) -> list[list[int]]:
        """Successor lists (ascending), built once and shared: callers must not mutate them."""
        return self._succ

    def predecessors(self) -> list[list[int]]:
        """In-neighbour lists (ascending), built once and shared: callers must not mutate them."""
        return self._pred


@dataclass(frozen=True)
class Condensation:
    """SCC partition of a digraph and its source components.

    Component ids are renumbered so that component k has the k-th smallest
    minimum member; this keeps ids stable across runs.  ``non_top_linked``
    holds the ids of components with no incoming edge from another
    component -- the source components that nothing else in the system can
    influence.
    """

    scc_of: tuple[int, ...]
    scc_members: tuple[tuple[int, ...], ...]
    non_top_linked: frozenset[int]

    @property
    def n_sccs(self) -> int:
        return len(self.scc_members)

    @property
    def beta(self) -> int:
        """Number of non-top-linked (source) components."""
        return len(self.non_top_linked)


def build_digraph(pattern: StructPattern) -> SystemDigraph:
    """Influence digraph of a square pattern: entry (i, j) becomes edge j -> i.

    Raises ValueError for non-square patterns.
    """
    if not pattern.is_square:
        raise ValueError(
            f"state pattern must be square, got {pattern.n_rows}x{pattern.n_cols}"
        )
    return SystemDigraph(pattern.n_rows, ((j, i) for i, j in pattern.nonzeros))


def pattern_of(g: SystemDigraph) -> StructPattern:
    """Inverse of build_digraph: row v holds the predecessors of v."""
    rows = g.predecessors()
    return StructPattern._prechecked(
        g.n, g.n, frozenset((v, u) for v in range(g.n) for u in rows[v])
    )


def strongly_connected_components(g: SystemDigraph) -> Condensation:
    """Tarjan's algorithm (iterative) plus the source components.

    Vertices with no edges at all form singleton components.  A component
    is non-top-linked exactly when no edge enters it from another component.
    """
    n = g.n
    adj = g.successors()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            neighbors = adj[v]
            while ptr < len(neighbors):
                w = neighbors[ptr]
                ptr += 1
                if index[w] == -1:
                    work[-1] = (v, ptr)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    # Stable ids: sort components by smallest member.
    ordered = sorted((tuple(sorted(c)) for c in comps), key=lambda c: c[0])
    scc_of = [0] * n
    for cid, members in enumerate(ordered):
        for v in members:
            scc_of[v] = cid

    has_incoming = [False] * len(ordered)
    for u, targets in enumerate(adj):
        for v in targets:
            if scc_of[v] != scc_of[u]:
                has_incoming[scc_of[v]] = True
    non_top = frozenset(c for c in range(len(ordered)) if not has_incoming[c])

    return Condensation(
        scc_of=tuple(scc_of),
        scc_members=tuple(ordered),
        non_top_linked=non_top,
    )

