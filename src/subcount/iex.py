"""Inclusion-exclusion transfers between counting problems.

Two reductions, each written against an injected #Sub oracle(pattern, host)
so the caller decides what actually does the counting:

* color-preserving pattern copies from counts of the uncolored pattern, by
  signed summation over color classes of the host;
* edge-colorful matchings from counts of the k-edge matching, by signed
  summation over color subsets.

Both make exactly 2^(number of colors) oracle calls, including the empty set,
and refuse before the first call when that is above WORK_LIMIT.
"""

from itertools import combinations

from .brute import is_colorful
from .graphs import Graph, InconsistencyError, PreconditionError, refuse_over_limit


def prune_useless_edges(h: Graph, g: Graph) -> Graph:
    """Drop host edges whose endpoint color pair is not an edge color pair of
    the colorful pattern.

    No color-preserving copy can use such an edge.  The payoff is sharper:
    after pruning, any copy of the pattern with pairwise-distinct colors is
    automatically color-preserving (reading colors back through the copy
    gives an injective endomorphism of the pattern, which on a finite graph
    is an automorphism), which is what lets a colorblind subgraph oracle
    count colored objects.
    """
    if not is_colorful(h):
        raise PreconditionError("pattern must carry pairwise-distinct vertex colors")
    if g.vcolors is None:
        raise PreconditionError("host must be vertex-colored")
    good = {frozenset((h.vcolors[u], h.vcolors[v])) for (u, v) in h.edges}
    bad = [(u, v) for (u, v) in g.edges
           if frozenset((g.vcolors[u], g.vcolors[v])) not in good]
    return g.without_edges(bad)


def signed_subset_sum(colors, term) -> int:
    """sum over subsets S of ``colors`` of (-1)^(|colors| - |S|) term(S),
    which keeps what meets every color.  The 2^|colors| calls of ``term``
    are counted first and refused above WORK_LIMIT; a negative sum means the
    oracle behind ``term`` contradicts itself."""
    calls = 1 << len(colors)
    refuse_over_limit(calls, f"inclusion-exclusion over {len(colors)} colors would "
                             f"make {calls} oracle calls")
    total = 0
    for r in range(len(colors) + 1):
        for sub in combinations(colors, r):
            value = term(set(sub))
            total += value if (len(colors) - r) % 2 == 0 else -value
    if total < 0:
        raise InconsistencyError("oracle is inconsistent: negative signed sum")
    return total


def subpart_via_sub_oracle(h: Graph, g: Graph, oracle) -> int:
    """#color-preserving copies of the colorful pattern h in the colored host
    g, using only an uncolored subgraph-count oracle(pattern, host).

    Standard color inclusion-exclusion: for each color subset S, count copies
    inside the S-colored part of the (pruned) host; the signed sum keeps the
    copies whose vertex set meets every color, i.e. the rainbow ones, and
    pruning upgrades rainbow to color-preserving.
    """
    gp = prune_useless_edges(h, g)
    plain_h = Graph(h.n, h.edges)

    def term(keep):
        part = gp.induced([v for v in range(gp.n) if gp.vcolors[v] in keep])
        return oracle(plain_h, Graph(part.n, part.edges))

    return signed_subset_sum(sorted(set(h.vcolors)), term)


def colmatch_via_match_oracle(g: Graph, colors, oracle) -> int:
    """#matchings picking exactly one edge of each color in ``colors``, using
    only an uncolored subgraph-count oracle(pattern, host).

    For each color subset S, count |colors|-edge matchings among S-colored
    edges; inclusion-exclusion keeps the matchings hitting every color.
    """
    if g.ecolors is None:
        raise PreconditionError("host must be edge-colored")
    want = sorted(set(colors))
    if len(want) != len(list(colors)):
        raise PreconditionError("color set has repeats")
    pattern = Graph.matching(len(want))

    def term(keep):
        ed = [e for e, c in zip(g.edges, g.ecolors) if c in keep]
        return oracle(pattern, Graph(g.n, ed))

    return signed_subset_sum(want, term)
