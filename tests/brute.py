"""Reference implementations and helpers used by the tests.

The searches below enumerate exhaustively and are independent of the
library's augmenting-path machinery: matchings are built edge subset by
edge subset.  Small n only.  ``Matching``, ``maximum_matching`` and Lin's
stem/cycle decomposition are not brute force: they give the tests a
matching as a pair set and the stems and cycles it splits into, which
no pipeline stage needs.
"""

import random
import warnings
from dataclasses import dataclass
from typing import Iterable

from structctrl import StructPattern
from structctrl.fileio import MAX_STATES, PatternFormatError
from structctrl.graph_core import SystemDigraph
from structctrl.matching import solve_matching


class BipartiteGraph:
    """An explicit bipartite edge set, for the exhaustive searches below."""

    def __init__(self, left_size, right_size, edges):
        self.left_size, self.right_size = left_size, right_size
        self.edges = frozenset(edges)

    def left_adjacency(self):
        """Sorted right-neighbour tuples per left vertex, as the digraph holds them."""
        adj = [[] for _ in range(self.left_size)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
        return list(map(tuple, adj))


def digraph(n, edges):
    """The SystemDigraph on vertices 0..n-1 with the (u, v) pairs ``edges``.

    Built without ``build_digraph``, so tests can hold the library's
    digraphs against it: each pair is range-checked, a repeated pair is one
    edge, and both adjacency lists come out as ascending tuples.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    # Sorting by (u, v) fills every successor and predecessor list in order.
    for u, v in sorted(set(edges)):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        succ[u].append(v)
        pred[v].append(u)
    return SystemDigraph(n, list(map(tuple, succ)), list(map(tuple, pred)))


def to_state_bipartite(g):
    """Left and right copies of the state set; digraph edge u -> v becomes (u, v)."""
    return BipartiteGraph(g.n, g.n, ((u, v) for u, vs in enumerate(g.successors()) for v in vs))


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


def maximum_matching(g: SystemDigraph) -> Matching:
    """Deterministic maximum matching of the state bipartite graph of ``g``."""
    ml, mr, _ = solve_matching(g.successors(), g.n, [-1] * g.n, [-1] * g.n)
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


def bip_edges(bg):
    return sorted(bg.edges)


def all_matchings(bg):
    """Every matching (including the empty one) as a frozenset of pairs."""
    edges = bip_edges(bg)
    out = []

    def rec(i, pairs, used_l, used_r):
        if i == len(edges):
            out.append(frozenset(pairs))
            return
        rec(i + 1, pairs, used_l, used_r)
        l, r = edges[i]
        if l not in used_l and r not in used_r:
            rec(i + 1, pairs + [(l, r)], used_l | {l}, used_r | {r})

    rec(0, [], frozenset(), frozenset())
    return out


def brute_max_matching_size(bg):
    return max(len(m) for m in all_matchings(bg))


def all_maximum_matchings(bg):
    best = brute_max_matching_size(bg)
    return [m for m in all_matchings(bg) if len(m) == best]


def all_unmatched_sets(bg):
    """Right-unmatched vertex sets over all maximum matchings."""
    rights = frozenset(range(bg.right_size))
    return {rights - frozenset(r for _, r in m) for m in all_maximum_matchings(bg)}


def brute_alpha(bg, cond):
    """Most distinct non-top-linked SCCs simultaneously holding unmatched vertices."""
    sources = set(cond.non_top_linked)
    best = 0
    for unmatched in all_unmatched_sets(bg):
        hit = {cond.scc_of[v] for v in unmatched if cond.scc_of[v] in sources}
        best = max(best, len(hit))
    return best


def scalefree_entries(n, attach, seed):
    """The entries of ``gen_random(n, "scalefree", seed=seed, attach=attach)``,
    each target drawn with ``rng.choices`` over the whole weight list: O(n)
    per draw, the way the model was first written."""
    rng = random.Random(seed)
    entries = set()
    indeg = [1] * n
    for v in range(1, n):
        targets = set()
        want = min(attach, v)
        while len(targets) < want:
            targets.add(rng.choices(range(v), weights=indeg[:v], k=1)[0])
        for t in targets:
            entries.add((t, v))
            indeg[t] += 1
    return entries


def random_pattern(rng, n, density):
    nz = {(i, j) for i in range(n) for j in range(n) if rng.random() < density}
    return StructPattern(n, n, nz)


def random_strongly_connected_pattern(rng, n, extra_density=0.2):
    """Random strongly connected pattern in one of three shapes.

    ``cycle`` graphs always carry a perfect matching; ``hub`` graphs (a
    bidirectional star) usually do not, so both branches of the
    strongly-connected shortcut get exercised.  ``er`` rejection-samples
    plain random digraphs.
    """
    from structctrl.graph_core import strongly_connected_components

    style = rng.choice(("cycle", "hub", "er"))
    for _ in range(300):
        if style == "cycle":
            perm = list(range(n))
            rng.shuffle(perm)
            nz = {(perm[(k + 1) % n], perm[k]) for k in range(n)}
        elif style == "hub":
            h = rng.randrange(n)
            nz = {(v, h) for v in range(n) if v != h}
            nz |= {(h, v) for v in range(n) if v != h}
        else:
            d = rng.uniform(max(0.25, 1.5 / n), 0.8)
            nz = set()
            for i in range(n):
                for j in range(n):
                    if rng.random() < d:
                        nz.add((i, j))
        nz |= {(i, j) for i in range(n) for j in range(n) if rng.random() < extra_density}
        g = digraph(n, {(j, i) for i, j in nz})
        if strongly_connected_components(g).n_sccs == 1:
            return StructPattern(n, n, nz)
        style = "er"
    raise AssertionError("failed to sample a strongly connected pattern")


def brute_condensation(n, succ):
    """(scc_of, non_top_linked) from mutual reachability, by transitive closure.

    Components are numbered in the order of their smallest member, as
    ``strongly_connected_components`` numbers them.
    """
    reach = [[v == w or w in succ[v] for w in range(n)] for v in range(n)]
    for k in range(n):
        for v in range(n):
            if reach[v][k]:
                reach[v] = [a or b for a, b in zip(reach[v], reach[k])]
    scc_of = [-1] * n
    count = 0
    for v in range(n):
        if scc_of[v] == -1:
            for w in range(n):
                if reach[v][w] and reach[w][v]:
                    scc_of[w] = count
            count += 1
    entered = {scc_of[w] for v in range(n) for w in succ[v] if scc_of[v] != scc_of[w]}
    return tuple(scc_of), frozenset(range(count)) - entered


# The edgelist parser as it was before it was rewritten for speed: the same
# checks, in the same order, with the same messages.  Its replacement must
# agree with it, message for message.


def reference_parse_edgelist(text):
    entries = []  # (line_no, row, col) one-based
    declared = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2 or not _is_digits(parts[1]):
                raise PatternFormatError(f"line {line_no}: malformed size directive {raw!r}")
            size = _check_size(_long_checked_int(parts[1], line_no), f"line {line_no}")
            declared = (size, size)
            continue
        if parts[0] == "shape":
            if len(parts) != 3 or not all(_is_digits(p) for p in parts[1:]):
                raise PatternFormatError(f"line {line_no}: malformed shape directive {raw!r}")
            declared = (
                _check_size(_long_checked_int(parts[1], line_no), f"line {line_no}"),
                _check_size(_long_checked_int(parts[2], line_no), f"line {line_no}"),
            )
            continue
        if len(parts) != 2:
            raise PatternFormatError(f"line {line_no}: expected 'i j', got {raw!r}")
        a, b = parts
        if not (line.isascii() and a.isdigit() and b.isdigit()):
            raise PatternFormatError(f"line {line_no}: indices must be ASCII digits, got {raw!r}")
        i, j = _long_checked_int(a, line_no), _long_checked_int(b, line_no)
        if i < 1 or j < 1:
            raise PatternFormatError(f"line {line_no}: indices are one-based, got ({i}, {j})")
        entries.append((line_no, i, j))

    if declared is None:
        line_no, i, j = max(entries, key=lambda e: max(e[1], e[2]), default=(0, 0, 0))
        size = _check_size(max(i, j), f"line {line_no}")
        declared = (size, size)
    n_rows, n_cols = declared
    for line_no, i, j in entries:
        if i > n_rows or j > n_cols:
            raise PatternFormatError(
                f"line {line_no}: entry ({i}, {j}) outside declared {n_rows}x{n_cols} pattern"
            )
    return StructPattern(n_rows, n_cols, _dedup(entries, "edgelist"))


def _dedup(entries, what):
    nonzeros = frozenset((i - 1, j - 1) for _, i, j in entries)
    dupes = len(entries) - len(nonzeros)
    if dupes:
        warnings.warn(f"{dupes} duplicate {what} entr{'y' if dupes == 1 else 'ies'} ignored")
    return nonzeros


def _check_size(value, where):
    if value > MAX_STATES:
        raise PatternFormatError(
            f"{where}: dimension {value} exceeds the limit of {MAX_STATES} states"
        )
    return value


def _long_checked_int(token, line_no):
    """A number with more significant digits than MAX_STATES is refused at its line."""
    significant = token.lstrip("0")
    if len(significant) > len(str(MAX_STATES)):
        if len(significant) > 20:
            significant = f"{significant[:12]}... ({len(significant)} digits)"
        raise PatternFormatError(
            f"line {line_no}: dimension {significant} exceeds the limit of {MAX_STATES} states"
        )
    return int(token)


def _is_digits(token):
    return token.isascii() and token.isdigit()
