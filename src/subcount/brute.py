"""Reference counters by exhaustive search.

These are the ground-truth oracles everything else in the package is checked
against, so they favor obviousness over speed: plain backtracking over
adjacency bitmasks, no clever algebra.  Every counter (embeddings, matchings,
colorful matchings, paths and cycles) walks its placements on one explicit
stack, _placements, so no pattern is too deep for it; so do the clique and
gadget searches.  Walks of k rising items take candidates from _rising, which
leaves out the top k - i - 1 items at position i, by _without_top.

The embedding search breaks the pattern's symmetry by a stabilizer chain
along its search order (Grochow-Kellis, RECOMB 2007).  G is the group of
automorphisms of the pattern that fix the pinned vertices, keep colors
under respect_colors and map every component with an edge to itself (the
isolated vertices are one pool).  At each unpinned position i, O_i is the
orbit of order[i] under the members of G that also fix order[:i]
pointwise, and every later member of O_i takes only images above image[i]:
one embedding per orbit of G is walked, and the count is that times
|G| = prod |O_i|.  A twin of order[i] (swapping them is an automorphism,
N(u) - v = N(v) - u, as for the leaves of a star, the sides of K_{a,b},
the vertices of K_n and the two ends of each K2 of a kK2) is a member for
free, and also leaves out the top items of its mask that the twins after
it need; every other candidate of equal color, degree, neighbour degrees
and placed neighbours is tried by one anchored existence search of its
component in itself.  Once those searches have taken WORK_LIMIT steps,
the orbits from there on are the twin swaps' alone.  So C_k walks one
embedding in 2k and P_k one in 2, and automorphism_count reads |Aut| from
the chains of the pattern's components with no walk; swaps of whole
isomorphic components are still walked, and #Aut counts them by
multiplicity factorials.

Only the last two positions are not walked one candidate at a time but
counted by masks: the last by one popcount of its candidate mask, the pair
by one popcount per candidate of the last-but-one position, in _pair_count,
or of the last position when the relation is symmetric and that side is
smaller.  In the embedding search a non-adjacent last pair is a product of
popcounts less their overlap, and two twins are counted as ordered pairs
above their floor and halved.  The matching counter takes its last two
edges as the pairs of available edges less those sharing an endpoint, one
popcount per vertex with edges, when there are more available edges than
such vertices.  In the embedding search a pendant last pair (the last
vertex's only earlier neighbor is the last-but-one, as in every kK2) is the
sum of d(x) = |N(x) & allowed| over the candidates x, one popcount per bit
plane of d, less the pairs whose second vertex is used, whenever that takes
fewer popcounts than one per candidate.
When the last pair is a K2 or 2K1 component of the pattern (as in every kK2)
with no earlier floor to rise above, its count depends on nothing but the set
of host vertices already used, so it is counted once per distinct used set
and looked up for every other placement that yields that set; at most
WORK_LIMIT such counts are stored, and every placement of the earlier
positions is still walked.  The counters are fast enough for the graph sizes
the test corpus and the reductions feed them (a couple dozen vertices).

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

from functools import lru_cache
from itertools import islice
from math import factorial

from .graphs import (WORK_LIMIT, Graph, InconsistencyError, PreconditionError,
                     iter_bits)


def _search_order(h: Graph, pinned=()):
    """Vertex order for backtracking: pinned first, then greedily prefer
    vertices with many already-placed neighbors (ties: higher degree, then
    lower index).  The unplaced vertices sit in one bitmask of their ranks
    by (-degree, index) per placed-neighbor count, and each step takes the
    lowest rank of the highest count."""
    order = list(pinned)
    by_rank = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    bit = [0] * h.n
    for r, v in enumerate(by_rank):
        bit[v] = 1 << r
    back = [0] * h.n  # placed neighbors, kept up to date as vertices are placed
    rest = (1 << h.n) - 1  # the unplaced vertices
    for v in order:
        rest &= ~(1 << v)
        for u in h.neighbors(v):
            back[u] += 1
    buckets = [0] * (h.n + 1)
    for v in iter_bits(rest):
        buckets[back[v]] |= bit[v]
    top = h.n
    while rest:
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        v = by_rank[low.bit_length() - 1]
        order.append(v)
        rest ^= 1 << v
        for u in iter_bits(h.adj_mask(v) & rest):
            buckets[back[u]] ^= bit[u]
            back[u] += 1
            buckets[back[u]] |= bit[u]
            top = max(top, back[u])
    return order


def _twin_chain(labels):
    """Per position, the previous position with its label (-1 for none), and
    the product over labels of (positions with it)!: the weight of a walk
    whose images rise along each class of equally labelled positions, when
    the permutations within the classes act freely on the maps walked."""
    prev, weight, last, size = [], 1, {}, {}
    for i, c in enumerate(labels):
        prev.append(last.get(c, -1))
        last[c] = i
        size[c] = size.get(c, 0) + 1
        weight *= size[c]
    return prev, weight


def _twins(h: Graph, order, colors=None, start=0):
    """_twin_chain over the search positions, the vertices at positions from
    ``start`` on (the pinned ones come first) labelled by twin class: u and v
    are twins when swapping them is an automorphism of h (keeping
    ``colors``, when given), that is N(u) - v = N(v) - u.  False twins share
    N(v) and true twins N[v]; no vertex has twins of both kinds, and no
    N(u) is an N[v], since v in N[v] = N(u) would put u in N(v), so in N(u)."""
    keys = [(colors[v] if colors else 0, h.adj_mask(v)) for v in order]
    shared: dict = {}  # N(v), with v's color: shared by another vertex?
    for k in keys[start:]:
        shared[k] = k in shared
    return _twin_chain([i if i < start else k if shared[k] else (k[0], k[1] | 1 << v)
                        for i, (k, v) in enumerate(zip(keys, order))])


def _plain_plan(h: Graph, pinned=()):
    """A search plan with no floors: the search order, each position's
    earlier neighbours as positions, prev all -1, weight 1, later all 0."""
    order = _search_order(h, pinned)
    position = {v: i for i, v in enumerate(order)}
    back = tuple(tuple(position[u] for u in h.neighbors(v) if position[u] < i)
                 for i, v in enumerate(order))
    return tuple(order), back, (-1,) * h.n, 1, (0,) * h.n, False


@lru_cache(maxsize=64)
def _pattern_plan(h: Graph, respect_colors, pinned: tuple):
    """The plain plan with the floors of the stabilizer chain (_chain):
    prev, weight, later and exact.  Cached per pattern, since a reduction's
    oracle and #Aut ask about one pattern many times; tuples, since every
    caller shares them."""
    order, back, *_ = _plain_plan(h, pinned)
    return (order, back) + _chain(h, order, h.vcolors if respect_colors else None, len(pinned))


def _shapes(h: Graph, colors=None):
    """Per vertex what every automorphism of h (keeping ``colors``, when
    given) keeps: its color, its degree and its neighbours' degrees."""
    degree = [h.degree(v) for v in range(h.n)]
    return [(colors[v] if colors else 0, degree[v],
             sorted(map(degree.__getitem__, h.neighbors(v)))) for v in range(h.n)]


def _split(h: Graph):
    """The components of h: their vertices, ascending, and each as a
    graph of its own, relabelled along them, with h's vertex colors."""
    parts = h.components()
    which, label = [0] * h.n, [0] * h.n
    for k, part in enumerate(parts):
        for j, v in enumerate(part):
            which[v], label[v] = k, j
    edges = [[] for _ in parts]
    for u, v in h.edges:
        edges[which[u]].append((label[u], label[v]))
    return [(part, Graph(len(part), e, vcolors=h.vcolors and [h.vcolors[v] for v in part]))
            for part, e in zip(parts, edges)]


def _chain(h: Graph, order, colors=None, start=0):
    """The stabilizer chain along ``order`` from position ``start`` (the
    pinned positions come first): O_i is the orbit of order[i] under the
    automorphisms of h that fix order[:i], keep ``colors`` (when given) and
    map each component with an edge to itself (the isolated vertices are
    one pool).  O_i is a union of twin
    classes, as a swap of unplaced twins fixes order[:i]: order[i]'s own is
    in it for free, and another is tried once, when it keeps order[i]'s
    shape (_shapes) and placed neighbours, by an anchored find_embedding of
    the component in itself, charged the component's order for its set-up
    and a step per search node.  Once WORK_LIMIT steps are spent, the
    orbits from there on are the twin classes.  Returns per position the
    last j with order[i] in O_j (-1 for none), prod |O_i|, the number of
    order[i]'s twins after it, and whether no search was cut short."""
    adj, color = [h.adj_mask(v) for v in range(h.n)], colors or [0] * h.n
    shape = _shapes(h, colors)
    # u and v are twins when they share N(v) or N[v], and their color
    keys = [((color[v], adj[v]), (color[v], adj[v] | 1 << v)) for v in range(h.n)]
    classes: dict = {}
    for v, pair in enumerate(keys):
        for key in pair:
            classes[key] = classes.get(key, 0) | 1 << v
    twins = [classes[a] | classes[b] for a, b in keys]
    part = [sum(1 << v for v in range(h.n) if not adj[v])] * h.n  # v's component
    view = [None] * h.n  # v's component as a graph, and the labels there
    for members, graph in _split(h):
        if graph.m:
            mask, label = sum(1 << v for v in members), {v: j for j, v in enumerate(members)}
            for v in members:
                part[v], view[v] = mask, (graph, label)
    steps, exact = iter(range(WORK_LIMIT)), True
    placed = sum(1 << v for v in order[:start])

    def moves(v, w):  # an automorphism fixes placed, v -> w? None when out of steps
        graph, label = view[v]
        anchor = {label[u]: label[u] for u in iter_bits(placed & part[v])}
        anchor[label[v]] = label[w]
        try:
            if next(islice(steps, graph.n, None), None) is None:
                return None
            return find_embedding(graph, graph, respect_colors=bool(colors),
                                  anchor=anchor, steps=steps) is not None
        except PreconditionError:
            return None

    orbits, later = [], [0] * h.n
    for i in range(start, h.n):
        v = order[i]
        key = adj[v] & placed
        cand = part[v] & ~placed
        if key:  # the orbit keeps v's placed neighbours
            cand &= adj[(key & -key).bit_length() - 1]
        own = orbit = twins[v] & cand
        later[i] = own.bit_count() - 1
        cand ^= own
        while cand and exact:
            w = (cand & -cand).bit_length() - 1
            block = twins[w] & cand
            cand ^= block
            if shape[w] == shape[v] and adj[w] & placed == key:
                found = moves(v, w)
                if found is None:  # from here on, the twins' orbits
                    exact, orbit = False, own
                elif found:
                    orbit |= block
        orbits.append(orbit ^ 1 << v)
        placed |= 1 << v
    prev, weight, seen = [-1] * h.n, 1, 0
    position = {v: i for i, v in enumerate(order)}
    for i in range(h.n - 1, start - 1, -1):
        orbit = orbits[i - start]
        weight *= orbit.bit_count() + 1
        for w in iter_bits(orbit & ~seen):
            prev[position[w]] = i
        seen |= orbit
    return tuple(prev), weight, tuple(later), exact


def _search_plan(h: Graph, g: Graph, respect_colors, pinned=(), plan=None):
    """The search order, and two functions over it, on ``plan`` (by default
    the cached _pattern_plan; _plain_plan for a search with no floors).

    ``candidates(i, image, used)`` is the host vertices allowed for pattern
    vertex ``order[i]`` (its color class under ``respect_colors``), not in
    ``used`` and adjacent to the images ``image[j]`` of its pattern neighbors
    at earlier positions j.  A position i with a floor prev[i] (the last
    j with order[i] in the orbit O_j of the stabilizer chain) also takes
    only vertices above image[prev[i]], and one with twins after it leaves
    out the top vertices they need; a plan with no floor keeps the plain
    mask.
    ``count_last_two(image, used)``, for a pattern of at least two vertices,
    is the number of ways to place the last two positions once all earlier
    ones are placed; twins there are counted as ordered pairs above their
    floor and halved, and a pendant last pair with no floor of its own is
    counted by the bit planes of its degrees into the last position's
    allowed mask when that is cheaper than one popcount per candidate."""
    if respect_colors and (h.vcolors is None or g.vcolors is None):
        raise PreconditionError("respect_colors needs vertex colors on both graphs")
    order, back, prev, _, later, _ = plan or _pattern_plan(h, bool(respect_colors),
                                                           tuple(pinned))
    if respect_colors:
        by_color: dict[int, int] = {}
        for gv, c in enumerate(g.vcolors):
            by_color[c] = by_color.get(c, 0) | 1 << gv
        allowed = [by_color.get(h.vcolors[v], 0) for v in order]
    else:
        allowed = [(1 << g.n) - 1] * h.n
    adj = [g.adj_mask(v) for v in range(g.n)]

    def reach(i, image, used):
        cand = allowed[i] & ~used
        for j in back[i]:
            cand &= adj[image[j]]
        return cand & -2 << image[prev[i]] if prev[i] >= 0 else cand

    candidates = reach
    if any(later):
        # each of the later[i] members of i's twin class after position i
        # takes a vertex of i's mask above i's image
        def candidates(i, image, used):
            cand = reach(i, image, used)
            return _without_top(cand, later[i]) if later[i] else cand

    last = h.n - 1
    tail = back[last] if h.n else ()
    joined = last - 1 in tail
    before = [j for j in tail if j != last - 1]
    # the positions whose images the last two rise above; when the two are
    # twins (only a swap fixes every other vertex), their ordered pairs
    # above the last but one's floor, halved
    floor_a, floor_b = ((-1, -1) + prev)[-2:]
    halve = 0 <= floor_b == last - 1
    if halve:
        floor_b = floor_a
    # a pendant last position has no floor but the last but one: an orbit
    # holding it at an earlier position would hold another leaf placed
    # before its neighbour, which the search order places only as the
    # first vertex of a K2 component
    pendant = tail == (last - 1,)
    if pendant:
        # bit plane k: the host vertices x whose d(x) = |adj[x] & allowed[last]|
        # has bit k set, so the sum of d over a mask is one popcount per plane
        d = [(a & allowed[last]).bit_count() for a in adj]
        planes = [sum(1 << x for x in range(g.n) if d[x] >> k & 1)
                  for k in range(max(d, default=0).bit_length())]
        cutoff = len(planes) + h.n - 2  # the plane sum's popcounts, at most

    def count_last_two(image, used):
        cand = reach(last - 1, image, used)  # above image[floor_a]
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
            return total >> halve
        # the last position's candidates before position last - 1 is placed
        base = allowed[last] & ~used
        for j in before:
            base &= adj[image[j]]
        if floor_b >= 0:
            base &= -2 << image[floor_b]
        if joined:  # x is never in adj[x], since Graph rejects loops
            return _pair_count(cand, base, adj, symmetric=True) >> halve
        # every pair (x, y) from cand x base with x != y
        return cand.bit_count() * base.bit_count() - (cand & base).bit_count() >> halve

    return order, candidates, count_last_two


def count_embeddings(h: Graph, g: Graph, *, respect_colors=False, anchor=None) -> int:
    """Number of injective adjacency-preserving maps V(h) -> V(g).

    ``anchor`` optionally pins pattern vertices to host vertices ({h_v: g_v});
    ``respect_colors`` additionally demands vcolor(h_v) == vcolor(map(h_v)).
    The search walks one map per orbit of the group whose stabilizer chain
    _chain gives, which fixes the anchors and acts freely on injective
    maps, so the count is theirs times the chain's weight, the group order.
    """
    if h.directed or g.directed:
        raise PreconditionError("embedding counting is for undirected graphs")
    if h.n > g.n:
        return 0
    anchor = dict(anchor or {})
    pinned = tuple(sorted(anchor))
    order, candidates, count_last_two = _search_plan(h, g, respect_colors, pinned=pinned)
    # image[i] is the host vertex at search position i; anchors come first
    image = [anchor.get(v, 0) for v in order]
    used = _pin(candidates, image, len(anchor))
    if used is None:
        return 0
    start, last = len(anchor), h.n - 1
    if start >= last:  # one position free or none: no pair to count
        if start == h.n:
            return 1
        return candidates(last, image, used).bit_count()
    _, _, prev, weight, _, _ = _pattern_plan(h, bool(respect_colors), pinned)
    placements = _placements(candidates, image, used, start, last - 2)
    pair = 1 << order[-2] | 1 << order[-1]
    if ((h.adj_mask(order[-2]) | h.adj_mask(order[-1])) & ~pair
            or prev[-2] >= 0 or prev[-1] not in (-1, last - 1)):
        return weight * sum(count_last_two(image, placed) for placed in placements)
    # the last pair is a K2 or 2K1 component of h with no earlier floor to
    # rise above, so its count reads only the used set: count each distinct
    # set once, storing at most WORK_LIMIT
    counted: dict[int, int] = {}
    total = 0
    for placed in placements:
        ways = counted.get(placed)
        if ways is None:
            ways = count_last_two(image, placed)
            if len(counted) < WORK_LIMIT:
                counted[placed] = ways
        total += ways
    return weight * total


def _pin(candidates, image, k):
    """The used mask of the first k positions, placed at image[:k], or None
    when one of them is not a candidate at its position."""
    used = 0
    for i in range(k):
        if not candidates(i, image, used) >> image[i] & 1:
            return None
        used |= 1 << image[i]
    return used


def _placements(candidates, image, used, start, stop):
    """Walk every placement of search positions start..stop, writing each
    into ``image`` and yielding its used mask; with no position (start =
    stop + 1) the one placement is empty, and ``used`` is yielded.  ``used``
    holds the images of the positions before start.  The walk keeps one
    candidate mask per position on an explicit stack, so its depth is not
    bounded by Python's recursion limit."""
    if start > stop:
        yield used
        return
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


def _rising(masks, full, k):
    """``candidates`` for a walk of k items of ``full`` in rising order, each in
    masks[x] of every item x before it (masks[x] holds items above x only), and
    ``free``: free[i] = free[i-1] & masks[image[i-1]].  candidates(i) is free[i]
    less its top k - i - 1 items, none of which has k - i - 1 items above it."""
    free = [full] * k

    def candidates(i, image, used):
        if i:
            free[i] = free[i - 1] & masks[image[i - 1]]
        return _without_top(free[i], k - i - 1)

    return candidates, free


def _without_top(mask, r):
    """``mask`` less its top r items, in min(r, items kept) steps: the kept
    items are taken from the bottom when there are fewer of them."""
    keep = mask.bit_count() - r
    if keep < r:
        kept = 0
        for _ in range(keep):
            low = mask & -mask
            kept |= low
            mask ^= low
        return kept
    for _ in range(r):
        mask ^= 1 << mask.bit_length() >> 1
    return mask


def _pair_count(cand, base, masks, symmetric=False):
    """The sum over x in ``cand`` of |base & masks[x]|: one popcount per
    candidate of the last-but-one position.  When y in masks[x] exactly
    when x in masks[y], it is also the sum over y in ``base`` of
    |cand & masks[y]|, and the smaller of the two masks is walked."""
    if symmetric and base.bit_count() < cand.bit_count():
        cand, base = base, cand
    total = 0
    while cand:
        low = cand & -cand
        total += (base & masks[low.bit_length() - 1]).bit_count()
        cand ^= low
    return total


def find_embedding(h: Graph, g: Graph, *, respect_colors=False, anchor=None, steps=None):
    """One embedding as a tuple image[h_v] = g_v, or None.

    ``anchor`` optionally pins pattern vertices to host vertices
    ({h_v: g_v}); an anchored search walks the plain masks of a plan built
    afresh, so it neither needs nor evicts a cached plan.  ``steps``, when
    given, is an iterator that each search node advances, and the search
    raises PreconditionError when it runs out."""
    if h.directed or g.directed:
        raise PreconditionError("embedding search is for undirected graphs")
    if h.n > g.n:
        return None
    anchor = dict(anchor or {})
    pinned = tuple(sorted(anchor))
    order, reach, _ = _search_plan(h, g, respect_colors, pinned,
                                   _plain_plan(h, pinned) if anchor else None)
    candidates = reach
    if steps is not None:
        def candidates(i, image, used):
            if next(steps, None) is None:
                raise PreconditionError("the embedding search ran out of steps")
            return reach(i, image, used)

    image = [anchor.get(v, 0) for v in order]
    used = _pin(candidates, image, len(anchor))
    if used is None or next(_placements(candidates, image, used, len(anchor), h.n - 1),
                            None) is None:
        return None
    found = [0] * h.n
    for i, v in enumerate(order):
        found[v] = image[i]
    return tuple(found)


def automorphism_count(h: Graph) -> int:
    """|Aut(h)|.  Automorphisms permute isomorphic components, so |Aut h| is
    the product over the isomorphism classes of h's components (the
    isolated vertices are one class) of mult! |Aut C|^mult.  |Aut C| is the
    product of the orbit sizes along C's stabilizer chain, or, when the
    chain's searches were cut short, #Emb(C, C): an injective
    self-homomorphism of a finite graph is edge-surjective, hence an
    automorphism."""
    if h.directed:
        raise PreconditionError("automorphism counting is for undirected graphs")
    classes: list[list] = []  # [a component, the components isomorphic to it]
    for _, c in _split(h):
        for entry in classes:
            if is_isomorphic(entry[0], c):
                entry[1] += 1
                break
        else:
            classes.append([c, 1])
    total = 1
    for c, k in classes:
        _, _, _, weight, _, exact = _pattern_plan(c, False, ())
        total *= factorial(k) * (weight if exact else count_embeddings(c, c)) ** k
    return total


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

    The placement walk takes one edge per color, smallest color class
    first, from the edges that clash with no earlier choice; the last two
    classes are counted by one popcount per edge of the last-but-one."""
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
    last = len(groups) - 1
    if not last:
        return groups[0].bit_count()
    full = (1 << g.m) - 1
    avoid = [full ^ c for c in _edge_clashes(g)]
    free = [full] * last  # free[i]: the edges that clash with no choice before i

    def candidates(i, image, used):
        if i:
            free[i] = free[i - 1] & avoid[image[i - 1]]
        return groups[i] & free[i]

    def last_two(used):
        rest = free[last - 2] & avoid[image[last - 2]] if last > 1 else full
        return _pair_count(groups[last - 1] & rest, groups[last] & rest, avoid,
                           symmetric=True)

    image = [0] * last
    return sum(map(last_two, _placements(candidates, image, 0, 0, last - 2)))


def count_matchings(g: Graph, k: int) -> int:
    """Number of k-edge matchings (equivalently #Sub of a k-matching).

    The rising walk (_rising) takes edges in rising index order, each from
    the edges that clash with no earlier choice.  The last two edges are the
    pairs of available edges less those sharing an endpoint, one popcount
    per vertex with edges, when there are more available edges than such
    vertices; otherwise one popcount per available edge."""
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    if k == 0:
        return 1
    if 2 * k > g.n:
        return 0
    if k == 1:
        return g.m
    # the edges above e that share no endpoint with it: edges rise along the
    # positions, so each matching is taken once
    full = (1 << g.m) - 1
    later = [full & ~c & -2 << e for e, c in enumerate(_edge_clashes(g))]
    busy = [inc for inc in _incidence(g) if inc]
    # a digraph's antiparallel arcs share both endpoints
    index = {e: i for i, e in enumerate(g.edges)}
    twins = [1 << i | 1 << index[v, u] for i, (u, v) in enumerate(g.edges)
             if index.get((v, u), -1) > i]
    cutoff = len(busy) + len(twins)
    last = k - 1
    candidates, free = _rising(later, full, k)

    def last_two(used):
        avail = free[last - 2] & later[image[last - 2]] if last > 1 else full
        a = avail.bit_count()
        if a <= cutoff:
            return _pair_count(avail, avail, later)
        # each clashing pair is counted at each endpoint it shares, so the
        # twins, subtracted twice, are added back once
        total = 0
        for inc in busy:
            c = (avail & inc).bit_count()
            total += c * (c - 1)
        return (a * (a - 1) - total) // 2 + sum(avail & t == t for t in twins)

    image = [0] * last
    return sum(map(last_two, _placements(candidates, image, 0, 0, last - 2)))


def count_walk_patterns(g: Graph, kind: str, k: int) -> int:
    """Exact number of path/cycle subgraphs with k edges.

    Undirected paths need k >= 1, undirected cycles k >= 3, directed paths
    k >= 1, directed cycles k >= 2.  Each subgraph is counted once: paths by
    orienting from the smaller endpoint, cycles by anchoring at their minimum
    vertex (and, undirected, walking toward its smaller neighbor first).
    The walk's vertices are placed by the placement walk, and its last two
    are counted by one popcount per candidate for the last-but-one.
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
    last = k if kind == "path" else k - 1  # the position of the walk's last vertex
    image = [0] * (last + 1)

    def candidates(i, image, used):
        return step[image[i - 1]] & ~used

    def last_two(used):  # x is never in step[x], since Graph rejects loops
        return _pair_count(step[image[last - 2]] & ~used, ok & ~used, step,
                           symmetric=not g.directed)

    def walks(first, used):  # on from image[first - 1], avoiding used
        if first == last:
            return (step[image[last - 1]] & ok & ~used).bit_count()
        return sum(map(last_two, _placements(candidates, image, used, first, last - 2)))

    total = 0
    for s in range(g.n):  # ok: where the walk's last vertex may lie
        image[0] = s
        # cycles: s is the minimum vertex, so every vertex up to s counts as
        # seen, and the last vertex must step back into s
        below = (1 << (s + 1)) - 1
        if kind == "path":  # undirected: the last vertex lies above the first
            ok = (1 << g.n) - (1 if g.directed else 2 << s)
            total += walks(1, 1 << s)
        elif g.directed:
            ok = g.in_mask(s)
            total += walks(1, below)
        else:
            # undirected: the last vertex lies above the second, so each
            # cycle is walked in one direction only
            for w in iter_bits(step[s] & ~below):
                image[1] = w
                ok = g.adj_mask(s) & -2 << w
                total += walks(2, below | 1 << w)
    return total
