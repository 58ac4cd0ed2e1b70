"""Digraph layer for structured-system analysis.

A structured LTI system is known only through the zero/non-zero pattern of
its state matrix.  A non-zero entry at (i, j) means state j influences
state i, encoded as the directed edge j -> i (influencer to influenced).
Everything downstream -- strongly connected components and the source
components that no other state feeds into -- is computed on that
influence digraph, which keeps its edges only as adjacency lists.

``build_digraph`` fills the successor lists straight from a pattern's
entries in one pass, so they share the pattern's int objects, and derives
the predecessor lists from them.  ``strongly_connected_components`` is one
iterative Tarjan pass that also finds the source components.

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
        for u, targets in enumerate(succ):
            if len(targets) > 1:
                succ[u] = sorted(set(targets))
        self._set_adjacency(succ)

    @classmethod
    def _from_successors(cls, n: int, succ: list[list[int]]) -> "SystemDigraph":
        """A digraph from successor lists that are already ascending,
        duplicate-free and in range.

        ``build_digraph`` makes such lists straight from a pattern, whose
        entries are unique and in range, so it skips the checks that the
        public constructor makes on arbitrary pairs.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        g._set_adjacency(succ)
        return g

    def _set_adjacency(self, succ: list[list[int]]) -> None:
        """Keep ``succ`` and derive the predecessor lists from it.

        Walking ascending, duplicate-free successor lists in vertex order
        gives ascending, duplicate-free predecessor lists.
        """
        pred: list[list[int]] = [[] for _ in range(self.n)]
        for u, targets in enumerate(succ):
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
    n = pattern.n_rows
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in pattern.nonzeros:
        succ[j].append(i)
    for targets in succ:
        targets.sort()
    return SystemDigraph._from_successors(n, succ)


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
    Each vertex on the DFS path keeps one iterator over its successors, so
    the depth is bounded by memory, not by the recursion limit.
    """
    n = g.n
    adj = g.successors()
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # pop-order component id; -1 while unvisited or on the stack
    # By pop-order id: whether an edge from another component enters it.  An
    # edge to a popped vertex crosses components, and so does the tree edge
    # into a component's root.
    entered: list[bool] = []
    stack: list[int] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        path = [root]
        frames = [iter(adj[root])]
        while frames:
            v = path[-1]
            for w in frames[-1]:
                k = index[w]
                if k == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    path.append(w)
                    frames.append(iter(adj[w]))
                    break
                c = comp[w]
                if c != -1:
                    entered[c] = True
                elif k < low[v]:
                    low[v] = k
            else:
                frames.pop()
                path.pop()
                lv = low[v]
                if lv == index[v]:
                    c = len(entered)
                    entered.append(bool(path))
                    while True:
                        w = stack.pop()
                        comp[w] = c
                        if w == v:
                            break
                elif lv < low[path[-1]]:
                    low[path[-1]] = lv

    # Stable ids: components numbered in the order of their smallest member.
    renumber = [-1] * len(entered)
    scc_of = [0] * n
    members: list[list[int]] = []
    for v, c in enumerate(comp):
        k = renumber[c]
        if k == -1:
            k = renumber[c] = len(members)
            members.append([v])
        else:
            members[k].append(v)
        scc_of[v] = k
    non_top = frozenset(renumber[c] for c, crossed in enumerate(entered) if not crossed)

    return Condensation(
        scc_of=tuple(scc_of),
        scc_members=tuple(map(tuple, members)),
        non_top_linked=non_top,
    )
