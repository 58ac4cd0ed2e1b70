"""Digraph layer for structured-system analysis.

A structured LTI system is known only through the zero/non-zero pattern of
its state matrix.  A non-zero entry at (i, j) means state j influences
state i, encoded as the directed edge j -> i (influencer to influenced).
Everything downstream -- strongly connected components, the condensation
DAG, the source components that no other state feeds into -- is computed
on that influence digraph.

All indices are zero-based.  File formats are one-based; the translation
happens at the I/O boundary only.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def nnz(self) -> int:
        return len(self.nonzeros)

    def transpose(self) -> "StructPattern":
        return StructPattern(
            self.n_cols, self.n_rows, frozenset((j, i) for i, j in self.nonzeros)
        )


@dataclass(frozen=True)
class SystemDigraph:
    """Influence digraph over the state vertices 0..n-1.

    Self-loops are allowed (a state feeding back on itself); parallel
    duplicate edges cannot exist because edges form a set.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{self.n - 1}")

    def successors(self) -> list[list[int]]:
        """Adjacency lists (ascending), rebuilt on each call."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
        for lst in adj:
            lst.sort()
        return adj

    def predecessors(self) -> list[list[int]]:
        """In-neighbour lists (ascending), rebuilt on each call."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj


@dataclass(frozen=True)
class Condensation:
    """SCC partition of a digraph plus the quotient DAG.

    Component ids are renumbered so that component k has the k-th smallest
    minimum member; this keeps ids stable across runs.  ``non_top_linked``
    holds the ids of components with no incoming DAG edge -- the source
    components that nothing else in the system can influence.
    """

    scc_of: tuple[int, ...]
    scc_members: tuple[tuple[int, ...], ...]
    dag_edges: frozenset[tuple[int, int]]
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
    return SystemDigraph(
        pattern.n_rows, frozenset((j, i) for i, j in pattern.nonzeros)
    )


def pattern_of(g: SystemDigraph) -> StructPattern:
    """Inverse of build_digraph: edge u -> v becomes entry (v, u)."""
    return StructPattern(g.n, g.n, frozenset((v, u) for u, v in g.edges))


def strongly_connected_components(g: SystemDigraph) -> Condensation:
    """Tarjan's algorithm (iterative) plus the condensation DAG.

    Vertices with no edges at all form singleton components.  A component
    is non-top-linked exactly when its DAG in-degree is zero.
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

    dag_edges = set()
    has_incoming = [False] * len(ordered)
    for u, v in g.edges:
        cu, cv = scc_of[u], scc_of[v]
        if cu != cv:
            dag_edges.add((cu, cv))
            has_incoming[cv] = True
    non_top = frozenset(c for c in range(len(ordered)) if not has_incoming[c])

    return Condensation(
        scc_of=tuple(scc_of),
        scc_members=tuple(ordered),
        dag_edges=frozenset(dag_edges),
        non_top_linked=non_top,
    )

