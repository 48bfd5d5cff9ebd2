"""Reference counters by exhaustive search.

These are the ground-truth oracles everything else in the package is checked
against, so they favor obviousness over speed: plain backtracking over
adjacency bitmasks, no clever algebra.  Every count is an exhaustive search;
only its last two levels are not walked one candidate at a time but counted
by masks: the last by one popcount of its candidate mask, the pair by one
popcount per candidate of the last-but-one position.  That holds for the
embedding search (where, when the last two pattern vertices are not
adjacent, the pair is a product of popcounts less their overlap) and for
the special counters of matchings, colorful matchings, paths and cycles;
the matching counter takes its last two edges as the pairs of available
edges less those sharing an endpoint, one popcount per vertex with edges,
when there are more available edges than such vertices.  In the embedding
search a pendant last pair (the last vertex's only earlier neighbor is the
last-but-one, as in every kK2) is the sum of d(x) = |N(x) & allowed| over
the candidates x, one popcount per bit plane of d, less the pairs whose
second vertex is used, whenever that takes fewer popcounts than one per
candidate.  When the last pair is a K2 or 2K1 component of the pattern
(as in every kK2), its count depends on nothing but the set of host
vertices already used, so it is counted once per distinct used set and
looked up for every other placement that yields that set; at most
WORK_LIMIT such counts are stored, and every placement of the earlier
positions is still walked.  The walk keeps its partial maps on an explicit
stack, so no pattern is too deep for it.  The counters are fast enough for
the graph sizes the test corpus and the reductions feed them (a couple
dozen vertices).

Counting conventions
--------------------
* embeddings: injective maps preserving adjacency (images of non-edges are
  unconstrained).
* subgraph copies: embeddings divided by automorphisms; the division must be
  exact or something is deeply wrong.
* color-preserving copies: the pattern carries pairwise-distinct vertex
  colors, so copies and color-respecting embeddings are the same thing.
* paths/cycles are counted as subgraphs, once each; see count_walk_patterns.
"""

from __future__ import annotations

from .graphs import (WORK_LIMIT, Graph, InconsistencyError, PreconditionError,
                     iter_bits)


def _search_order(h: Graph, pinned=()):
    """Vertex order for backtracking: pinned first, then greedily prefer
    vertices with many already-placed neighbors (ties: higher degree)."""
    order = list(pinned)
    back = [0] * h.n  # placed neighbors, kept up to date as vertices are placed
    for v in order:
        for u in h.neighbors(v):
            back[u] += 1
    rest = set(range(h.n)).difference(order)
    while rest:
        best = max(rest, key=lambda v: (back[v], h.degree(v), -v))
        rest.remove(best)
        order.append(best)
        for u in h.neighbors(best):
            back[u] += 1
    return order


def _search_plan(h: Graph, g: Graph, respect_colors, pinned=()):
    """The search order, and two functions over it.

    ``candidates(i, image, used)`` is the host vertices allowed for pattern
    vertex ``order[i]`` (its color class under ``respect_colors``), not in
    ``used`` and adjacent to the images ``image[j]`` of its pattern neighbors
    at earlier positions j.  ``count_last_two(image, used)``, for a pattern
    of at least two vertices, is the number of ways to place the last two
    positions once all earlier ones are placed; a pendant last pair is
    counted by the bit planes of its degrees into the last position's
    allowed mask when that is cheaper than one popcount per candidate."""
    if respect_colors and (h.vcolors is None or g.vcolors is None):
        raise PreconditionError("respect_colors needs vertex colors on both graphs")
    order = _search_order(h, pinned)
    position = {v: i for i, v in enumerate(order)}
    back = [[position[u] for u in h.neighbors(v) if position[u] < i]
            for i, v in enumerate(order)]
    if respect_colors:
        by_color: dict[int, int] = {}
        for gv, c in enumerate(g.vcolors):
            by_color[c] = by_color.get(c, 0) | 1 << gv
        allowed = [by_color.get(h.vcolors[v], 0) for v in order]
    else:
        allowed = [(1 << g.n) - 1] * h.n
    adj = [g.adj_mask(v) for v in range(g.n)]

    def candidates(i, image, used):
        cand = allowed[i] & ~used
        for j in back[i]:
            cand &= adj[image[j]]
        return cand

    last = h.n - 1
    tail = back[last] if h.n else []
    joined = last - 1 in tail
    before = [j for j in tail if j != last - 1]
    pendant = tail == [last - 1]
    if pendant:
        # bit plane k: the host vertices x whose d(x) = |adj[x] & allowed[last]|
        # has bit k set, so the sum of d over a mask is one popcount per plane
        d = [(a & allowed[last]).bit_count() for a in adj]
        planes = [sum(1 << x for x in range(g.n) if d[x] >> k & 1)
                  for k in range(max(d, default=0).bit_length())]
        cutoff = len(planes) + h.n - 2  # the plane sum's popcounts, at most

    def count_last_two(image, used):
        cand = candidates(last - 1, image, used)
        if pendant and cand.bit_count() > cutoff:
            # the sum of d(x) over cand, less the pairs (x, u) with u in used
            total = 0
            for k, plane in enumerate(planes):
                total += (cand & plane).bit_count() << k
            ends = used & allowed[last]
            while ends:
                low = ends & -ends
                total -= (adj[low.bit_length() - 1] & cand).bit_count()
                ends ^= low
            return total
        # the last position's candidates before position last - 1 is placed
        base = allowed[last] & ~used
        for j in before:
            base &= adj[image[j]]
        if joined:  # x is never in adj[x], since Graph rejects loops
            total = 0
            while cand:
                low = cand & -cand
                total += (base & adj[low.bit_length() - 1]).bit_count()
                cand ^= low
            return total
        # every pair (x, y) from cand x base with x != y
        return cand.bit_count() * base.bit_count() - (cand & base).bit_count()

    return order, candidates, count_last_two


def count_embeddings(h: Graph, g: Graph, *, respect_colors=False, anchor=None) -> int:
    """Number of injective adjacency-preserving maps V(h) -> V(g).

    ``anchor`` optionally pins pattern vertices to host vertices ({h_v: g_v});
    ``respect_colors`` additionally demands vcolor(h_v) == vcolor(map(h_v)).
    """
    if h.directed or g.directed:
        raise PreconditionError("embedding counting is for undirected graphs")
    if h.n > g.n:
        return 0
    anchor = dict(anchor or {})
    order, candidates, count_last_two = _search_plan(h, g, respect_colors,
                                                     pinned=sorted(anchor))
    for hv, gv in anchor.items():
        if respect_colors and h.vcolors[hv] != g.vcolors[gv]:
            return 0
    if len(set(anchor.values())) != len(anchor):
        return 0
    # image[i] is the host vertex at search position i; anchors come first
    image = [anchor.get(v, 0) for v in order]
    used = 0
    for i in range(len(anchor)):  # each anchor must be a candidate at its position
        if not candidates(i, image, used) >> image[i] & 1:
            return 0
        used |= 1 << image[i]
    start, last = len(anchor), h.n - 1
    if start > last - 2:  # two positions free or fewer: no walk
        if start == h.n:
            return 1
        if start == last:
            return candidates(last, image, used).bit_count()
        return count_last_two(image, used)
    placements = _placements(candidates, image, used, start, last - 2)
    pair = 1 << order[-2] | 1 << order[-1]
    if (h.adj_mask(order[-2]) | h.adj_mask(order[-1])) & ~pair:
        return sum(count_last_two(image, placed) for placed in placements)
    # the last pair is a K2 or 2K1 component of h, so its count reads only the
    # used set: count each distinct set once, storing at most WORK_LIMIT
    counted: dict[int, int] = {}
    total = 0
    for placed in placements:
        ways = counted.get(placed)
        if ways is None:
            ways = count_last_two(image, placed)
            if len(counted) < WORK_LIMIT:
                counted[placed] = ways
        total += ways
    return total


def _placements(candidates, image, used, start, stop):
    """Walk every placement of search positions start..stop, writing each
    into ``image`` and yielding its used mask.  ``used`` holds the images of
    the positions before start.  The walk keeps one candidate mask per
    position on an explicit stack, so its depth is not bounded by Python's
    recursion limit."""
    stack = [0] * (stop + 1)
    stack[start] = candidates(start, image, used)
    i = start
    while True:
        cand = stack[i]
        if not cand:
            if i == start:
                return
            i -= 1
            used ^= 1 << image[i]  # used holds the images before position i
            continue
        low = cand & -cand
        stack[i] = cand ^ low
        image[i] = low.bit_length() - 1
        if i == stop:
            yield used | low
        else:
            used |= low
            i += 1
            stack[i] = candidates(i, image, used)


def find_embedding(h: Graph, g: Graph, *, respect_colors=False):
    """One embedding as a tuple image[h_v] = g_v, or None."""
    if h.directed or g.directed:
        raise PreconditionError("embedding search is for undirected graphs")
    if h.n > g.n:
        return None
    order, candidates, _ = _search_plan(h, g, respect_colors)
    image = [0] * h.n
    if h.n and next(_placements(candidates, image, 0, 0, h.n - 1), None) is None:
        return None
    found = [0] * h.n
    for i, v in enumerate(order):
        found[v] = image[i]
    return tuple(found)


def automorphism_count(h: Graph) -> int:
    """|Aut(h)|.  An injective self-homomorphism of a finite graph is forced
    to be edge-surjective, hence an automorphism, so this equals #Emb(h, h)."""
    return count_embeddings(h, h)


def copies_from_embeddings(h: Graph, emb: int) -> int:
    """#Sub = #Emb / #Aut for the pattern h, given its embedding count."""
    if not emb:
        return 0  # Aut(h) can be huge (a k-matching has 2^k k! of them)
    aut = automorphism_count(h)
    if emb % aut:
        raise InconsistencyError(f"#Emb={emb} not divisible by #Aut={aut}")
    return emb // aut


def count_subgraphs(h: Graph, g: Graph) -> int:
    """Number of subgraphs of g isomorphic to h (copies, not embeddings)."""
    return copies_from_embeddings(h, count_embeddings(h, g))


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(a.degree(v) for v in range(a.n)) != sorted(b.degree(v) for v in range(b.n)):
        return False
    # an injective hom between graphs of equal order and size is an isomorphism
    return find_embedding(a, b) is not None


def is_colorful(h: Graph) -> bool:
    """All vertex colors present and pairwise distinct."""
    return h.vcolors is not None and len(set(h.vcolors)) == h.n


def count_colorpreserving_subgraphs(h: Graph, g: Graph) -> int:
    """Copies of a colorful pattern in a vertex-colored host, where the copy
    isomorphism must preserve colors.

    Distinct colors kill all nontrivial color-preserving automorphisms, so
    copies are in bijection with color-respecting embeddings.
    """
    if not is_colorful(h):
        raise PreconditionError("pattern must carry pairwise-distinct vertex colors")
    if g.vcolors is None:
        raise PreconditionError("host must be vertex-colored")
    return count_embeddings(h, g, respect_colors=True)


def _incidence(g: Graph) -> list[int]:
    """Per vertex, the bitmask of edge indices at it."""
    incident = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    return incident


def _edge_clashes(g: Graph) -> list[int]:
    """Per edge index, the bitmask of edge indices sharing an endpoint with
    it (itself included)."""
    incident = _incidence(g)
    return [incident[u] | incident[v] for (u, v) in g.edges]


def count_colorful_matchings(g: Graph, colors) -> int:
    """Edge subsets that are matchings and hit each color of ``colors``
    exactly once.  Edges of other colors are simply not usable.

    The search takes one edge per color, smallest color class first; the
    last two classes are counted by one popcount per edge of the
    last-but-one."""
    if g.ecolors is None:
        raise PreconditionError("host must be edge-colored")
    want = list(colors)
    if len(set(want)) != len(want):
        raise PreconditionError("color set has repeats")
    if not want:
        return 1
    by_color = dict.fromkeys(want, 0)
    for i, c in enumerate(g.ecolors):
        if c in by_color:
            by_color[c] |= 1 << i
    groups = sorted(by_color.values(), key=int.bit_count)
    clash = _edge_clashes(g)
    last = len(groups) - 1

    def branch(i, blocked):
        cand = groups[i] & ~blocked
        if i == last:
            return cand.bit_count()
        if i == last - 1:
            # the last two groups: per edge x of this one, one popcount of
            # the last group's edges that avoid blocked | clash[x]
            tail = groups[last] & ~blocked
            total = 0
            while cand:
                low = cand & -cand
                cand ^= low
                total += (tail & ~clash[low.bit_length() - 1]).bit_count()
            return total
        total = 0
        for e in iter_bits(cand):
            total += branch(i + 1, blocked | clash[e])
        return total

    return branch(0, 0)


def count_matchings(g: Graph, k: int) -> int:
    """Number of k-edge matchings (equivalently #Sub of a k-matching).

    The search takes edges in rising index order.  The last two edges are
    the pairs of available edges less those sharing an endpoint, one
    popcount per vertex with edges, when there are more available edges
    than such vertices; otherwise one popcount per candidate for the
    last-but-one."""
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    if k == 0:
        return 1
    if 2 * k > g.n:
        return 0
    clash = _edge_clashes(g)
    busy = [inc for inc in _incidence(g) if inc]
    # a digraph's antiparallel arcs share both endpoints
    index = {e: i for i, e in enumerate(g.edges)}
    twins = [1 << i | 1 << index[v, u] for i, (u, v) in enumerate(g.edges)
             if index.get((v, u), -1) > i]
    cutoff = len(busy) + len(twins)

    def branch(avail, need):
        # edges are taken in rising index order, so each matching once
        if need == 1:
            return avail.bit_count()
        total = 0
        if need == 2:
            a = avail.bit_count()
            if a > cutoff:
                # each clashing pair is counted at each endpoint it shares, so
                # the twins, subtracted twice, are added back once
                for inc in busy:
                    c = (avail & inc).bit_count()
                    total += c * (c - 1)
                return (a * (a - 1) - total) // 2 + sum(avail & t == t for t in twins)
            # per edge x, one popcount of the edges above x that avoid clash[x]
            while avail:
                low = avail & -avail
                avail ^= low
                total += (avail & ~clash[low.bit_length() - 1]).bit_count()
            return total
        # too few edges left: cut here, above the hot need == 2 level
        if avail.bit_count() < need:
            return 0
        while avail:
            low = avail & -avail
            avail ^= low
            total += branch(avail & ~clash[low.bit_length() - 1], need - 1)
        return total

    return branch((1 << g.m) - 1, k)


def count_walk_patterns(g: Graph, kind: str, k: int) -> int:
    """Exact number of path/cycle subgraphs with k edges.

    Undirected paths need k >= 1, undirected cycles k >= 3, directed paths
    k >= 1, directed cycles k >= 2.  Each subgraph is counted once: paths by
    orienting from the smaller endpoint, cycles by anchoring at their minimum
    vertex (and, undirected, walking toward its smaller neighbor first).
    The last two steps of a walk are counted by one popcount per candidate
    for the last-but-one vertex.
    """
    if kind not in ("path", "cycle"):
        raise PreconditionError(f"unknown walk pattern kind {kind!r}")
    if kind == "path" and k < 1:
        raise PreconditionError("paths need k >= 1")
    if kind == "cycle":
        if g.directed and k < 2:
            raise PreconditionError("directed cycles need k >= 2")
        if not g.directed and k < 3:
            raise PreconditionError("undirected cycles need k >= 3")
    if (k if kind == "cycle" else k + 1) > g.n:
        return 0  # more vertices than the host has

    step = [g.out_mask(v) for v in range(g.n)]

    def walk(v, seen, left, last_ok):
        """Number of ``left``-step walks from v through vertices not in
        ``seen``, visiting none twice, that end in ``last_ok``."""
        nxt = step[v] & ~seen
        if left == 1:
            return (nxt & last_ok).bit_count()
        total = 0
        if left == 2:
            # the last two steps: per next vertex x, one popcount of
            # step[x] & ~(seen | x) & last_ok; x is never in step[x], since
            # Graph rejects loops
            ok = last_ok & ~seen
            while nxt:
                low = nxt & -nxt
                nxt ^= low
                total += (step[low.bit_length() - 1] & ok).bit_count()
            return total
        for w in iter_bits(nxt):
            total += walk(w, seen | 1 << w, left - 1, last_ok)
        return total

    if kind == "path":
        # undirected: the last vertex lies above the first
        return sum(walk(s, 1 << s, k, -1 if g.directed else -1 << (s + 1))
                   for s in range(g.n))

    # cycles: s is the minimum vertex, so every vertex up to s counts as seen,
    # and the last vertex must step back into s
    total = 0
    for s in range(g.n):
        below = (1 << (s + 1)) - 1
        if g.directed:
            total += walk(s, below, k - 1, g.in_mask(s))
            continue
        # undirected: the last vertex lies above the second, so each cycle
        # is walked in one direction only
        for w in iter_bits(step[s] & ~below):
            total += walk(w, below | 1 << w, k - 2, g.adj_mask(s) & (-1 << (w + 1)))
    return total
