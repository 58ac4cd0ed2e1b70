"""Digraph layer for structured-system analysis.

A structured LTI system is known only through the zero/non-zero pattern of
its state matrix.  A non-zero entry at (i, j) means state j influences
state i, encoded as the directed edge j -> i (influencer to influenced).
Everything downstream -- strongly connected components and the source
components that no other state feeds into -- is computed on that
influence digraph, which keeps its edges only as adjacency tuples.

A pattern holds its entries once, as column tuples, and of a square
pattern those are the digraph's successor tuples: ``build_digraph`` takes
them without copying and derives the predecessor tuples from them.
``SystemDigraph`` only holds the two lists of tuples, and ``reversed``
swaps them to give the transposed pattern's digraph.
``strongly_connected_components`` is one iterative Tarjan pass that also
finds the source components.

All indices are zero-based.  File formats are one-based; the translation
happens at the I/O boundary only.
"""

from __future__ import annotations

from collections.abc import Iterable


class _Record:
    """Base of the library's immutable records.

    A record lists its fields in ``__slots__`` and its own ``__init__`` sets
    each once with ``object.__setattr__``; assigning to or deleting a field
    afterwards raises ``AttributeError``.  Two records are equal when they
    are of the same class and their compared fields are equal, the hash
    reads the compared fields and the repr lists the fields in order.  The
    class keywords ``not_compared``, ``not_hashed`` and ``not_shown`` leave
    fields out of each.
    """

    __slots__ = ()

    def __init_subclass__(cls, not_compared=(), not_hashed=(), not_shown=()) -> None:
        super().__init_subclass__()
        cls._compare = tuple(f for f in cls.__slots__ if f not in not_compared)
        cls._hashed = tuple(f for f in cls._compare if f not in not_hashed)
        cls._shown = tuple(f for f in cls.__slots__ if f not in not_shown)

    def _values(self, names: tuple[str, ...]) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._compare) == other._values(self._compare)

    def __hash__(self) -> int:
        return hash(self._values(self._hashed))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return _rebuild, (self.__class__, self._values(self.__slots__))


def _rebuild(cls: type, values: tuple) -> _Record:
    """A record of class ``cls`` holding ``values`` in its field order, made
    without calling its ``__init__``: for ``StructPattern._prechecked`` and
    for the pickle and copy modules."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record


class StructPattern(_Record, not_hashed=("columns",)):
    """Sparsity pattern of a matrix, held once as its column tuples.

    ``columns`` maps each column that has entries to a tuple of its rows,
    ascending and duplicate-free: compressed sparse columns (Duff, Erisman
    and Reid, *Direct Methods for Sparse Matrices*, ch. 2), O(entries)
    however many columns are declared.  Of a square pattern, column j's
    rows are the successors of j, and ``build_digraph`` takes the tuples as
    they are.  ``nonzeros`` derives the entry pairs.  The hash reads the
    dimensions only.
    """

    __slots__ = ("n_rows", "n_cols", "columns")

    def __init__(self, n_rows: int, n_cols: int, pairs: Iterable[tuple[int, int]]) -> None:
        if n_rows < 0 or n_cols < 0:
            raise ValueError("pattern dimensions must be non-negative")
        columns: dict[int, list[int]] = {}
        for i, j in sorted(set(pairs)):  # each column's rows come in ascending order
            if not (0 <= i < n_rows and 0 <= j < n_cols):
                raise ValueError(f"entry ({i}, {j}) outside a {n_rows}x{n_cols} pattern")
            columns.setdefault(j, []).append(i)
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "columns", {j: tuple(rows) for j, rows in columns.items()})

    @classmethod
    def _prechecked(cls, n_rows: int, n_cols: int, columns: dict) -> "StructPattern":
        """A pattern of column tuples that the parsers and the library's own
        builders have range-checked, sorted and deduplicated."""
        return _rebuild(cls, (n_rows, n_cols, columns))

    @property
    def nonzeros(self) -> frozenset[tuple[int, int]]:
        """The (row, col) entries, derived from the column tuples on each read."""
        return frozenset((i, j) for j, rows in self.columns.items() for i in rows)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns.values()))

    def transpose(self) -> "StructPattern":
        entries = ((j, i) for j, rows in self.columns.items() for i in rows)
        return StructPattern(self.n_cols, self.n_rows, entries)


class SystemDigraph(
    _Record, not_compared=("_pred",), not_hashed=("_succ",), not_shown=("_succ", "_pred")
):
    """Influence digraph over the state vertices 0..n-1, as its adjacency tuples.

    ``_succ[u]`` is the tuple of the successors of u and ``_pred[v]`` that
    of the predecessors of v, each ascending and duplicate-free; a
    self-loop is allowed.  The two lists hold the same edges, and nothing
    else keeps a copy of them.  ``build_digraph`` makes them from a pattern
    and ``reversed`` swaps them; this class only holds them.  Equality
    reads ``n`` and the successor lists, the hash and the repr ``n`` only.
    """

    __slots__ = ("n", "_succ", "_pred")

    def __init__(
        self, n: int, _succ: list[tuple[int, ...]], _pred: list[tuple[int, ...]]
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_succ", _succ)
        object.__setattr__(self, "_pred", _pred)

    def successors(self) -> list[tuple[int, ...]]:
        """Successor tuples (ascending), built once and shared: do not mutate the list."""
        return self._succ

    def predecessors(self) -> list[tuple[int, ...]]:
        """In-neighbour tuples (ascending), built once and shared: do not mutate the list."""
        return self._pred

    def reversed(self) -> "SystemDigraph":
        """This digraph with every edge turned round, which is the digraph of
        the transposed pattern: the two lists swap, shared, with no pass over
        the edges."""
        return SystemDigraph(self.n, self._pred, self._succ)


class Condensation(_Record):
    """SCC partition of a digraph and its source components.

    Component ids are renumbered so that component k has the k-th smallest
    minimum member; this keeps ids stable across runs.  ``non_top_linked``
    holds the ids of components with no incoming edge from another
    component -- the source components that nothing else in the system can
    influence.
    """

    __slots__ = ("scc_of", "scc_members", "non_top_linked")

    def __init__(
        self,
        scc_of: tuple[int, ...],
        scc_members: tuple[tuple[int, ...], ...],
        non_top_linked: frozenset[int],
    ) -> None:
        object.__setattr__(self, "scc_of", scc_of)
        object.__setattr__(self, "scc_members", scc_members)
        object.__setattr__(self, "non_top_linked", non_top_linked)

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
    # The successors of j are column j's rows, taken as they are.
    succ = [pattern.columns.get(j, ()) for j in range(n)]
    # Walking the sorted successors in vertex order appends each
    # predecessor list in ascending order; each becomes a tuple at the end.
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, targets in enumerate(succ):
        for v in targets:
            pred[v].append(u)
    return SystemDigraph(n, succ, list(map(tuple, pred)))


def pattern_of(g: SystemDigraph) -> StructPattern:
    """Inverse of build_digraph: column u holds the successors of u, shared."""
    return StructPattern._prechecked(g.n, g.n, {u: s for u, s in enumerate(g.successors()) if s})


def strongly_connected_components(g: SystemDigraph) -> Condensation:
    """Tarjan's algorithm (iterative) plus the source components.

    Vertices with no edges at all form singleton components.  A component
    is non-top-linked exactly when no edge enters it from another component.
    Each vertex on the DFS path keeps one iterator over its successors, so
    the depth is bounded by memory, not by the recursion limit.
    """
    n = g.n
    adj = g.successors()
    # index[v]: None while v is unvisited, its DFS index while it is on the
    # stack, and ~c once it belongs to the c-th component popped.
    index: list[int | None] = [None] * n
    low = [0] * n
    # By pop-order id: whether an edge from another component enters it.  An
    # edge to a popped vertex crosses components, and so does the tree edge
    # into a component's root.
    entered: list[bool] = []
    stack: list[int] = []
    counter = 0

    for root in range(n):
        if index[root] is not None:
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
                if k is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    path.append(w)
                    frames.append(iter(adj[w]))
                    break
                if k < 0:
                    entered[~k] = True
                elif k < low[v]:
                    low[v] = k
            else:
                frames.pop()
                path.pop()
                lv = low[v]
                if lv == index[v]:
                    c = ~len(entered)
                    entered.append(bool(path))
                    while True:
                        w = stack.pop()
                        index[w] = c
                        if w == v:
                            break
                elif lv < low[path[-1]]:
                    low[path[-1]] = lv

    # Stable ids: components numbered in the order of their smallest member.
    renumber = [-1] * len(entered)
    scc_of = [0] * n
    members: list[list[int]] = []
    for v, c in enumerate(index):
        k = renumber[~c]
        if k == -1:
            k = renumber[~c] = len(members)
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
