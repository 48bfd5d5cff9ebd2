"""Reference counters by exhaustive search.

These are the ground-truth oracles everything else in the package is checked
against, so they favor obviousness over speed: plain backtracking over
adjacency bitmasks, no clever algebra.  The search is exhaustive; only its
last two levels are not walked one candidate at a time but counted by masks:
the last by one popcount of its candidate mask, the pair by one popcount per
candidate of the last-but-one position (or, when the two pattern vertices
are not adjacent, by a product of popcounts less their overlap).  They are
fast enough for the graph sizes the test corpus and the reductions feed them
(a couple dozen vertices).

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

from .graphs import Graph, InconsistencyError, PreconditionError, iter_bits


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
    positions once all earlier ones are placed."""
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

    def count_last_two(image, used):
        cand = candidates(last - 1, image, used)
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
    last = h.n - 1

    def extend(i, used):
        if i == last - 1:
            return count_last_two(image, used)
        cand = candidates(i, image, used)
        if i == last:
            return cand.bit_count()
        total = 0
        for gv in iter_bits(cand):
            image[i] = gv
            total += extend(i + 1, used | 1 << gv)
        return total

    return extend(len(anchor), used) if len(anchor) < h.n else 1


def find_embedding(h: Graph, g: Graph, *, respect_colors=False):
    """One embedding as a tuple image[h_v] = g_v, or None."""
    if h.directed or g.directed:
        raise PreconditionError("embedding search is for undirected graphs")
    if h.n > g.n:
        return None
    order, candidates, _ = _search_plan(h, g, respect_colors)
    image = [0] * h.n

    def extend(i, used):
        if i == h.n:
            return True
        for gv in iter_bits(candidates(i, image, used)):
            image[i] = gv
            if extend(i + 1, used | 1 << gv):
                return True
        return False

    if not extend(0, 0):
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


def _edge_clashes(g: Graph) -> list[int]:
    """Per edge index, the bitmask of edge indices sharing an endpoint with
    it (itself included)."""
    incident = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    return [incident[u] | incident[v] for (u, v) in g.edges]


def count_colorful_matchings(g: Graph, colors) -> int:
    """Edge subsets that are matchings and hit each color of ``colors``
    exactly once.  Edges of other colors are simply not usable."""
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
        total = 0
        for e in iter_bits(cand):
            total += branch(i + 1, blocked | clash[e])
        return total

    return branch(0, 0)


def count_matchings(g: Graph, k: int) -> int:
    """Number of k-edge matchings (equivalently #Sub of a k-matching)."""
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    if k == 0:
        return 1
    if 2 * k > g.n:
        return 0
    clash = _edge_clashes(g)

    def branch(avail, need):
        # edges are taken in rising index order, so each matching once
        if need == 1:
            return avail.bit_count()
        # too few edges left: cut here, above the hot need == 2 level
        if need > 2 and avail.bit_count() < need:
            return 0
        total = 0
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
