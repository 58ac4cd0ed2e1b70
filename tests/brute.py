"""Brute-force reference implementations used as test oracles.

Everything here enumerates exhaustively and is independent of the library's
augmenting-path machinery: matchings are built edge subset by edge subset.
Small n only.
"""

from structctrl import StructPattern


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
