"""Brute-force reference implementations used as test oracles.

Everything here enumerates exhaustively and is independent of the library's
augmenting-path machinery: matchings are built edge subset by edge subset.
Small n only.
"""

import warnings

from structctrl import StructPattern
from structctrl.fileio import MAX_STATES, PatternFormatError


class BipartiteGraph:
    """An explicit bipartite edge set, for the exhaustive searches below."""

    def __init__(self, left_size, right_size, edges):
        self.left_size, self.right_size = left_size, right_size
        self.edges = frozenset(edges)

    def left_adjacency(self):
        """Sorted right-neighbour lists per left vertex."""
        adj = [[] for _ in range(self.left_size)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
        return adj


def to_state_bipartite(g):
    """Left and right copies of the state set; digraph edge u -> v becomes (u, v)."""
    return BipartiteGraph(g.n, g.n, ((u, v) for u, vs in enumerate(g.successors()) for v in vs))


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
    from structctrl.graph_core import SystemDigraph, strongly_connected_components

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
        g = SystemDigraph(n, {(j, i) for i, j in nz})
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
