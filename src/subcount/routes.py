"""Route choice: the one place that decides how a (pattern, host) count is made.

Four routes count #Sub(h -> g) and #Emb(h -> g):

* ``brute``: the exhaustive search (brute.count_subgraphs / count_embeddings);
* ``vc``: the vertex-cover counter (vc.count_sub_vc / count_emb_vc);
* ``matchings``: h is kK2 with no isolated vertex, brute.count_matchings(g, k);
* ``cycles``: h is C_k with k >= 3, brute.count_walk_patterns(g, "cycle", k);
  on a directed host, h the directed k-cycle (k >= 2), the directed copies.

The last two count copies; #Emb = #Sub * |Aut h| with the closed forms
|Aut kK2| = 2^k k! and |Aut C_k| = 2k.

Every reduction asks ``oracle(pattern, host)`` for #Sub, and every oracle
in the package, default or built by the command line, is ``count_sub``.

``_estimate(route, h, host)`` bounds a route's work (#Emb for brute and vc,
#Sub for matchings and cycles) from h and from g's degree sequence (for
cycles, its walk counts) before any counting starts.
``choose`` takes the applicable route of least estimated seconds,
CALL_SECONDS + SECONDS_PER_UNIT * estimate.  Nothing is timed at run time,
so the choice is a function of (h, g) alone.
"""

from functools import lru_cache
from math import comb, factorial, inf

from . import brute, vc
from .graphs import WORK_LIMIT, Graph, iter_bits

# A count by a route is estimated to take CALL_SECONDS[route] +
# SECONDS_PER_UNIT[route] * estimate seconds, and a #Sub count by brute or vc
# adds brute's estimate for #Aut.  The eight constants and _NODE are a fit of
# log(seconds), least squares per route, over 1296 timed counts with
# |V(h)| <= |V(g)| and the #Aut searches of their patterns (2-core x86-64 VM,
# CPython 3.11, best of up to 7 in-process runs of brute.count_embeddings,
# vc.count_emb_vc and count_sub below): every applicable route on the
# instances below, on the 500 pairs of criteria 2 and 3
# (tests/test_acceptance.py), on 16 patterns of 2-6 vertices in 5 random
# hosts of 16-48 vertices, and on kK2 (k <= 4) and C_k (k <= 7) in 36 hosts
# of 4-12 vertices.  Fitted / measured seconds has median 0.95 for brute,
# 0.89 vc, 0.90 matchings and 1.00 cycles, with quartiles in 0.65-1.45.
# g120, g60, g26 and g25 are the bench hosts at seed 1, G_2(bip10) the gadget
# read-out's K4 probe host at padding 2, G(n, p) s is tests/helpers.rand_graph
# at seed s, and "-" was not timed (estimated above 4 s).  The matchings and
# cycles columns were timed before those counters masked their last two
# levels, which made them faster (C7 in g60 about 18 ms, M4 in g26 about
# 31 ms in-process); the constants were kept, so no route choice moved.
# * brute now counts a pendant last pair (M3's last K2) by degree bit planes,
# which took M3 in g26 to about 0.45 of the time above; _search_nodes still
# charges one popcount per candidate, so it overstates such patterns.
# * brute also counts a last pair that is a component of the pattern (M3's
# last K2 again) once per used set, which took M3 in g26 to 23-31 ms
# in-process, and count_matchings counts its last two edges by vertex
# degrees, M4 in g26 about 22 ms; the constants were kept again.
# + brute now places twins (brute._twins) in rising order, one embedding per
# orbit of their swaps, so the rows marked + are stale for brute: star5 in
# g60 about 1.1 ms and M3 in g26 about 8 ms in-process, #Sub included.
# The constants were kept, and _search_work still charges every ordering of
# twins for #Emb, so brute is overstated there.
# # brute's floors now come from a stabilizer chain, one embedding per
# automorphism that keeps each component, so the rows marked # are stale
# for brute: C6 in g25 about 4 ms and P4 in g120 about 0.7 ms in-process.
# _search_work still charges the twin walk, and _aut_seconds prices #Aut
# by the chains, K_{1,300} at 64 us.
#
#   instance (ms)        brute      vc  matchings  cycles
#   triangle in g120     0.86+    1.79               0.94
#   P4 in g120           3.01#    3.73
#   star5 in g120         409+    0.57
#   star5 in g60         21.3+    0.33
#   M3 in g26            222*+    22.5       2.44
#   M4 in g26                -     301       58.4
#   C6 in g25            24.7#    7.79               7.03
#   C7 in g60             219#       -               56.2
#   K4 in g60            0.79+    0.58
#   P5 in g60            4.07#    4.86
#   K4 in G_2(bip10)     0.40+    0.44
#   C4 in pruned g40v4   0.77#    1.19               0.45
#   4K2 G(30, .25) s3        -     527       66.2
#   5K2 G(30, .25) s3        -       -        878
#   C8 G(40, .2) s1          -       -                554
#   C10 G(60, .1) s2         -       -               1532
CALL_SECONDS = {"brute": 1.75e-5, "vc": 4.32e-5, "matchings": 1.5e-6,
                "cycles": 4.7e-6}
SECONDS_PER_UNIT = {"brute": 0.78e-7, "vc": 0.93e-7, "matchings": 2.99e-7,
                    "cycles": 0.40e-7}


def shape(h: Graph):
    """The special route h fits, "matchings" or "cycles", or None."""
    if h.directed:
        return None
    degrees = {h.degree(v) for v in range(h.n)}
    if degrees <= {1}:
        return "matchings"
    if degrees == {2} and h.n >= 3 and len(h.components()) == 1:
        return "cycles"
    return None


def applicable(h: Graph):
    """The routes that can count h, in the order ties are broken."""
    special = shape(h)
    return ("brute", "vc") if special is None else (special, "brute", "vc")


def count_sub(route: str, h: Graph, g: Graph) -> int:
    """#Sub(h -> g) by ``route``.  Backends are looked up when called."""
    if route == "brute":
        return brute.count_subgraphs(h, g)
    if route == "vc":
        return vc.count_sub_vc(h, g)
    if route == "matchings":
        return brute.count_matchings(g, h.m)
    return brute.count_walk_patterns(g, "cycle", h.n)


def count_emb(route: str, h: Graph, g: Graph) -> int:
    """#Emb(h -> g) by ``route``."""
    if route == "brute":
        return brute.count_embeddings(h, g)
    if route == "vc":
        return vc.count_emb_vc(h, g)
    k = h.m
    aut = 2 ** k * factorial(k) if route == "matchings" else 2 * k
    return count_sub(route, h, g) * aut


# ---------------------------------------------------------------------------
# work estimates, in units of one popcount in a loop

def _f(x) -> float:
    """x as a float; inf where x is too large for one.  The estimates are
    floats, so a pattern or host of any size gets an estimate."""
    return float(x) if x < 1e300 else inf


def _times(a: float, b: float) -> float:
    """a * b, where a bound of 0 stays 0 even against inf."""
    return a * b if a and b else 0.0


# a search node, a function call with its candidate loop, in popcounts: the
# value that fits brute's and vc's times best (see CALL_SECONDS); the rms
# error of the fitted log(seconds) is 0.543 at 8 and within 0.002 of that
# from 6 to 12
_NODE = 8


class _Host:
    """What the estimates read of a host: its order and size, its degree
    histogram with the power sums sum_v d(v)^e, and its path bounds."""

    def __init__(self, g: Graph):
        self.g, self.n, self.m = g, g.n, g.m
        self.hist = {}
        for v in range(g.n):
            d = g.degree(v)
            self.hist[d] = self.hist.get(d, 0) + 1
        self.moments = [float(g.n)]

    def moment(self, e: int) -> float:
        while len(self.moments) <= e:
            k = len(self.moments)
            self.moments.append(inf if self.moments[-1] == inf else
                                _f(sum(c * d ** k for d, c in self.hist.items())))
        return self.moments[e]

    def at_least(self, d: int) -> int:
        return sum(c for x, c in self.hist.items() if x >= d)

    def paths(self, longest: int) -> float:
        """W_1 + ... + W_longest, W_L the number of non-backtracking walks
        with L edges, which bounds the simple paths with L edges.  With w_L
        the vector of those walks by end vertex, w_0 = 1, w_1 = d,
        w_2 = A w_1 - D w_0 and w_(L+1) = A w_L - (D - I) w_(L-1)."""
        if longest <= 2:  # W_1 = sum d and W_2 = sum d (d - 1)
            return self.moment(longest)
        neighbours = [list(iter_bits(self.g.adj_mask(v))) for v in range(self.n)]
        degree = [len(nb) for nb in neighbours]
        before, ending = [1] * self.n, degree
        total = sum(ending)
        for step in range(longest - 1):
            if total > 1e300:
                return inf
            back = [d - (step > 0) for d in degree]
            before, ending = ending, [sum(map(ending.__getitem__, nb)) - b * w
                                      for nb, b, w in zip(neighbours, back, before)]
            total += sum(ending)
        return _f(total)


def _tree_levels(h: Graph, order, host: _Host, roots=None, prev=None):
    """Upper bounds on the injective partial maps of each prefix of ``order``
    into the host that keep, for every position, the edge to its first
    placed neighbour.

    Those edges make each prefix a forest.  A position with no placed
    neighbour starts a tree and takes one of ``roots`` vertices (default
    all n); by Sidorenko's theorem a tree with e edges has at most
    sum_v d(v)^e homomorphisms into the host, as many as its star.
    Injectivity caps prefix i at n (n-1) ... (n-i).  With ``prev``, the
    previous member of each position's twin class (brute._twin_chain), the
    images rise along each class, which divides each bound by the
    orderings of the members placed so far; the division is made at each
    position, so a bound too large for a float before it need not be."""
    n = host.n
    roots = n if roots is None else roots
    position = {v: i for i, v in enumerate(order)}
    root, edges, levels, rank = [], {}, [], []
    forest, falling = 1.0, 1.0
    for i, v in enumerate(order):
        placed = [position[u] for u in h.neighbors(v) if position[u] < i]
        if placed:
            r = root[min(placed)]
            e = edges[r] = edges[r] + 1
            before = host.moment(e - 1) if e > 1 else roots
            # M_(e-1) = inf makes M_e = inf, and the forest bound inf already
            grow = 0.0 if not before else host.moment(e) / before if before < inf else inf
            forest = _times(forest, grow)
        else:
            r = i
            edges[r] = 0
            forest = _times(forest, roots)
        falling = _times(falling, max(n - i, 0))
        rank.append(rank[prev[i]] + 1 if prev and prev[i] >= 0 else 1)
        forest, falling = forest / rank[i], falling / rank[i]
        root.append(r)
        levels.append(min(forest, falling))
    return levels


def _search_nodes(h: Graph, order, levels) -> float:
    """brute.count_embeddings' work, given upper bounds on the partial maps
    of each prefix of its search order: one node per partial map above the
    last two positions, which are counted by one popcount per candidate of
    the last but one when they are adjacent, and by one product when not.
    brute counts a pendant last pair by degree bit planes when that is
    cheaper, and a last pair that is a component of h (kK2 and anything
    ending in a K2 or 2K1 component) once per distinct used set, not once
    per partial map; this ignores both and still charges one node per
    partial map and one popcount per candidate, so it overstates such
    patterns."""
    joined = h.n >= 2 and h.has_edge(order[-1], order[-2])
    return _NODE * (sum(levels[:-2]) + 1) + (levels[-2] if joined else 0)


def _search_work(h: Graph, host: _Host, rising=False) -> float:
    """brute.count_embeddings' work; ``rising`` divides its levels by the
    orderings of the twins placed so far (brute._twins).  The search's
    stabilizer chain cuts its walk further, but building the chain runs
    searches, and an estimate counts nothing, so the twins' bound stands."""
    order = brute._search_order(h)
    levels = _tree_levels(h, order, host, prev=brute._twins(h, order)[0] if rising else None)
    return host.n + _search_nodes(h, order, levels)


def _vc_work(h: Graph, host: _Host) -> float:
    """vc.count_emb_vc: the anchor loop, one anchor per orbit of the twin
    swaps, with Hall's cut taken only as "an anchor image has a neighbour";
    then per anchor one popcount chain per block key and the placement
    recurrence's steps, counted exactly by vc._lattice_work.  inf when vc
    refuses h's cover search or steps.  The per-anchor constants were fitted
    to the placement terms that the steps replaced, so they overstate vc."""
    plan = vc._plan(h)
    if isinstance(plan, str) or plan[4] is None:
        return inf
    core, cover, demand, steps, (prev, _weight) = plan
    keys = 1 if len(demand) == 1 else _f(2 ** min(len(demand), len(cover)) - 1)
    # images rise along each twin class, which divides the anchors at each
    # level by the orderings of the members placed so far
    levels = _tree_levels(core.induced(cover), range(len(cover)), host,
                          roots=host.at_least(1), prev=prev)
    work, above = 0.0, 1.0
    for i, level in enumerate(levels):
        # a position with no earlier cover neighbour scans every free vertex
        if not any(core.has_edge(cover[i], cover[j]) for j in range(i)):
            work += above * host.n
        above = level
        work += _NODE * above
    per_anchor = _NODE + (keys + steps) * max(len(cover), len(demand))
    return host.n + work + _times(above, per_anchor) + steps * len(demand)


def _estimate(route: str, h: Graph, host: _Host) -> float:
    if h.n > host.n:  # every route answers 0 at once
        return 0.0
    if route == "matchings":
        # one branch per j-matching, j < k; the last two levels are masked,
        # so a (k-1)-matching is one popcount, not a call, and this still
        # bounds the search
        return host.m + _f(sum(comb(host.m, j) for j in range(h.m)))
    if route == "cycles":
        # one node per start vertex and per path walked from it, which is
        # the path's least vertex: one of a path and its reverse at most.
        # The last two levels are masked, so a path of k - 2 edges is one
        # popcount, not a call, and this still bounds the search
        return _NODE * (host.n + host.paths(h.n - 2) / 2)
    return _search_work(h, host) if route == "brute" else _vc_work(h, host)


@lru_cache(maxsize=64)
def _aut_seconds(h: Graph) -> float:
    """brute.automorphism_count, which #Sub by brute or vc adds to #Emb; the
    same for every host, so computed once per pattern.  It reads h and
    builds each component's stabilizer chain (brute._chain) with no walk.
    The chain's anchored searches are priced at the first position of each
    component C: one search per vertex of C of the first vertex's shape
    (brute._shapes) that is not its twin, |C| nodes each; later positions'
    candidates lie among a placed vertex's neighbours.  Searches past
    WORK_LIMIT nodes cut the chain short, and brute then walks C in itself,
    priced as that search with its twin floors."""
    shape = brute._shapes(h)
    work = float(h.n + h.m)
    for comp in h.components():
        first = max(comp, key=h.degree)  # the least vertex of the top degree
        tried = len(comp) * sum(shape[v] == shape[first] and h.adj_mask(v) & ~(1 << first)
                                != h.adj_mask(first) & ~(1 << v) for v in comp)
        if tried > WORK_LIMIT:
            c = h.induced(comp)
            work += _NODE * WORK_LIMIT + _search_work(c, _Host(c), rising=True)
        else:
            work += _NODE * tried
    return CALL_SECONDS["brute"] + SECONDS_PER_UNIT["brute"] * work


def _fixed(route: str, h: Graph, sub: bool) -> float:
    """The seconds of a count by ``route`` before its search starts."""
    aut = sub and route in ("brute", "vc")
    return CALL_SECONDS[route] + (_aut_seconds(h) if aut else 0.0)


def _seconds(route: str, h: Graph, host: _Host, sub: bool) -> float:
    return _fixed(route, h, sub) + SECONDS_PER_UNIT[route] * _estimate(route, h, host)


def cost(route: str, h: Graph, g: Graph, calls: int = 1, sub: bool = True) -> float:
    """Estimated seconds for ``calls`` counts of h in g by ``route``: #Sub
    counts, or #Emb counts when ``sub`` is false."""
    return calls * _seconds(route, h, _Host(g), sub)


def choose(h: Graph, g: Graph, sub: bool = True) -> str:
    """The applicable route of least estimated cost for #Sub(h -> g), or for
    #Emb(h -> g) when ``sub`` is false.  A directed pattern or host goes to
    brute, whose error names the problem."""
    if h.directed or g.directed:
        return "brute"
    host = _Host(g)  # read g once for every route
    best, least = applicable(h)[0], inf
    for route in applicable(h):
        # a route whose fixed cost alone reaches the least so far cannot win,
        # so its estimate (vc's takes a minimum vertex cover) is not made
        if _fixed(route, h, sub) < least:
            seconds = _seconds(route, h, host, sub)
            if seconds < least:
                best, least = route, seconds
    return best


def colored_search_cost(h: Graph, g: Graph) -> float:
    """Estimated seconds of brute's color-respecting search for the colorful
    h in the vertex-colored g (brute.count_colorpreserving_subgraphs).  A
    position takes a vertex of its color class, and one with placed
    neighbours at most the most neighbours of its color that a vertex of
    their colors has."""
    size, reach = {}, {}
    for x in range(g.n):
        c = g.vcolors[x]
        size[c] = size.get(c, 0) + 1
        near = {}
        for y in g.neighbors(x):
            near[g.vcolors[y]] = near.get(g.vcolors[y], 0) + 1
        for c2, d in near.items():
            reach[c, c2] = max(reach.get((c, c2), 0), d)
    order = brute._search_order(h)
    position = {v: i for i, v in enumerate(order)}
    levels, bound = [], 1.0
    for i, v in enumerate(order):
        c = h.vcolors[v]
        placed = [u for u in h.neighbors(v) if position[u] < i]
        bound = _times(bound, min(reach.get((h.vcolors[u], c), 0) for u in placed)
                       if placed else size.get(c, 0))
        levels.append(bound)
    return CALL_SECONDS["brute"] + SECONDS_PER_UNIT["brute"] * (g.n + _search_nodes(h, order, levels))
