"""Structural helpers: clique, biclique or induced-matching extraction, tree
decompositions and the instance-lifting constructions.

Everything in here is constructive and self-auditing.  Procedures that search
for a witness either return one that has been re-verified from first
principles or return ``None``; a witness is never wrong, and the searches
are exhaustive, so ``None`` means that no witness exists.  Procedures that are
backed by a counting identity validate their own output and raise
``InconsistencyError`` when an internal guarantee fails, which indicates a bug
rather than bad input.
"""

from itertools import combinations
from math import comb

from .graphs import (WORK_LIMIT, Graph, InconsistencyError, PreconditionError,
                     refuse_over_limit)
from .gadgets import is_edge_of, validate_induced_matching
from .brute import is_colorful


# -- monochromatic cliques by an exact search --------------------------------

def ramsey_monochromatic_clique(n, color, r):
    """Find r vertices of K_n whose pairwise edge colors all agree.

    ``color(u, v)`` is called once per pair, with u < v, and may return any
    mutually orderable hashable.  The color classes with at least C(r, 2)
    edges, as forward adjacency masks, are searched in sorted color order
    for the lexicographically least r-clique.  Returns a sorted vertex
    tuple, or None when no monochromatic r-set exists; r <= 2 returns
    range(r) unread.  Refused before the first ``color`` call when the
    C(n, 2) reads exceed WORK_LIMIT, and by ``_least_clique`` past
    WORK_LIMIT steps in a class.
    """
    if r < 0:
        raise PreconditionError("clique size must be nonnegative")
    if n < r:
        return None
    if r <= 2:
        return tuple(range(r))
    reads = comb(n, 2)
    refuse_over_limit(reads, f"the monochromatic {r}-clique search over {n} items "
                             f"would take {reads} steps")

    classes = {}
    for u in range(n):
        for v in range(u + 1, n):
            classes.setdefault(color(u, v), []).append((u, v))
    # a class with fewer than C(r, 2) edges holds no r-clique
    found = (_least_clique(_forward_masks(n, classes[c]), r) for c in sorted(classes)
             if len(classes[c]) >= comb(r, 2))
    witness = next((w for w in found if w), None)
    if witness is None:
        return None
    ref = color(witness[0], witness[1])
    for u, v in combinations(witness, 2):
        if color(u, v) != ref:
            raise InconsistencyError("search produced a non-monochromatic set")
    return witness


def _forward_masks(n, edges):
    """Per vertex of range(n), the mask of its higher neighbours."""
    up = [0] * n
    for u, v in edges:
        up[u] |= 1 << v
    return up


def _least_clique(up, r):
    """The lexicographically least r-clique under forward masks ``up``.

    Cliques grow by rising index from each vertex with at least r - 1
    forward neighbours, one candidates mask per prefix on an explicit
    stack, and a prefix is dropped when fewer candidates are left than it
    still needs.  Each prefix entered is one step, and the search is
    refused past WORK_LIMIT steps.  Returns a tuple, or None.
    """
    steps = 0
    for root, fwd in enumerate(up):
        if fwd.bit_count() < r - 1:
            continue
        clique, stack = [root], [fwd]
        while clique:
            steps += 1
            if steps > WORK_LIMIT:  # so the message is built only on refusal
                refuse_over_limit(steps, f"the {r}-clique search would take {steps} steps")
            if len(clique) == r:
                return tuple(clique)
            while stack and stack[-1].bit_count() < r - len(clique):
                stack.pop()
                clique.pop()
            if stack:
                cand = stack[-1]
                low = cand & -cand
                stack[-1] = cand ^ low
                clique.append(low.bit_length() - 1)
                stack.append(cand & up[clique[-1]])
    return None


def _check_clique(g, verts):
    for u, v in combinations(verts, 2):
        if not g.has_edge(u, v):
            raise InconsistencyError(f"claimed clique misses edge ({u},{v})")


def _check_biclique(g, left, right):
    if set(left) & set(right):
        raise InconsistencyError("biclique sides overlap")
    for u in left:
        for v in right:
            if not g.has_edge(u, v):
                raise InconsistencyError(f"biclique misses edge ({u},{v})")
    for side in (left, right):
        for u, v in combinations(side, 2):
            if g.has_edge(u, v):
                raise InconsistencyError("biclique side is not independent")


def extract_clique_biclique_or_matching(g, k, matching):
    """From a plain matching in g, distill one of three clean structures.

    Matching edges are oriented as (min, max) and pairs of them get a 4-bit
    color recording which of the four cross adjacencies are present.  A
    monochromatic 2k-set of edge indices then collapses: any adjacency bit
    set yields a 2k-clique (trimmed to k) or a k+k-biclique with independent
    sides, and the all-zero color means the edges form an induced matching.

    The 2k-set is the lexicographically least one of the least color that
    has one (at k = 1 simply the first two edges), so the verdict is
    deterministic.  Returns ("clique", vertices),
    ("biclique", (left, right)) or ("matching", edges), all independently
    re-verified, or None when no pairwise-monochromatic 2k-set of matching
    edges exists.  The search is refused above WORK_LIMIT, as
    ramsey_monochromatic_clique says.
    """
    if k < 1:
        raise PreconditionError("need k >= 1")
    pairs = []
    used = set()
    for (u, v) in matching:
        if not is_edge_of(g, u, v):
            raise PreconditionError(f"({u},{v}) is not an edge of the graph")
        if u in used or v in used:
            raise PreconditionError("matching edges overlap")
        used.update((u, v))
        pairs.append((min(u, v), max(u, v)))

    def pair_color(i, j):
        xi, yi = pairs[i]
        xj, yj = pairs[j]
        return (int(g.has_edge(xi, xj)), int(g.has_edge(xi, yj)),
                int(g.has_edge(yi, xj)), int(g.has_edge(yi, yj)))

    picked = ramsey_monochromatic_clique(len(pairs), pair_color, 2 * k)
    if picked is None:
        return None
    xx, xy, yx, yy = pair_color(picked[0], picked[1])
    if xx or yy:
        side = 0 if xx else 1
        verts = tuple(pairs[i][side] for i in picked[:k])
        _check_clique(g, verts)
        return ("clique", verts)
    if xy or yx:
        # indices ascend, so every low index is "i" against every high "j"
        low, high = picked[:k], picked[k:]
        if xy:
            left = tuple(pairs[i][0] for i in low)
            right = tuple(pairs[j][1] for j in high)
        else:
            left = tuple(pairs[i][1] for i in low)
            right = tuple(pairs[j][0] for j in high)
        _check_biclique(g, left, right)
        return ("biclique", (left, right))
    edges = tuple(pairs[i] for i in picked[:k])
    validate_induced_matching(g, edges)
    return ("matching", edges)


# -- tree decompositions -----------------------------------------------------

class TreeDecomposition:
    """A rooted tree decomposition.

    ``parent[t]`` is the parent node id (-1 at the unique root) and
    ``bags[t]`` the sorted vertex bag of node t.  The constructor checks only
    tree shape; ``validate_for`` checks the three decomposition conditions
    against a concrete graph.
    """

    __slots__ = ("parent", "bags")

    def __init__(self, parent, bags):
        parent = tuple(int(p) for p in parent)
        bags = tuple(tuple(sorted(set(b))) for b in bags)
        if len(parent) != len(bags):
            raise PreconditionError("parent and bag lists disagree in length")
        if not parent:
            raise PreconditionError("a decomposition needs at least one node")
        roots = [t for t, p in enumerate(parent) if p == -1]
        if len(roots) != 1:
            raise PreconditionError(f"expected one root, found {len(roots)}")
        for t, p in enumerate(parent):
            if p != -1 and not (0 <= p < len(parent)):
                raise PreconditionError(f"node {t} has bad parent {p}")
            if p == t:
                raise PreconditionError(f"node {t} is its own parent")
        for t in range(len(parent)):
            seen = set()
            cur = t
            while cur != -1:
                if cur in seen:
                    raise PreconditionError("parent pointers form a cycle")
                seen.add(cur)
                cur = parent[cur]
        self.parent = parent
        self.bags = bags

    def __len__(self):
        return len(self.bags)

    def __repr__(self):
        return (f"TreeDecomposition(nodes={len(self.bags)}, "
                f"width={self.width})")

    @property
    def width(self):
        return max(len(b) for b in self.bags) - 1

    @property
    def root(self):
        return self.parent.index(-1)

    def children(self, t):
        return tuple(s for s, p in enumerate(self.parent) if p == t)

    def validate_for(self, h):
        covered = set()
        for b in self.bags:
            for v in b:
                if not 0 <= v < h.n:
                    raise PreconditionError(f"bag vertex {v} out of range")
            covered.update(b)
        if covered != set(range(h.n)):
            raise PreconditionError("bags do not cover the vertex set")
        for (u, v) in h.edges:
            if not any(u in b and v in b for b in self.bags):
                raise PreconditionError(f"edge ({u},{v}) lies in no bag")
        for v in range(h.n):
            holders = {t for t, b in enumerate(self.bags) if v in b}
            tops = sum(1 for t in holders if self.parent[t] not in holders)
            if tops != 1:
                raise PreconditionError(
                    f"bags containing vertex {v} are not connected")


def exact_tree_decomposition(h):
    """Optimal-width rooted decomposition of a small graph.

    Dynamic programming over elimination prefixes: the back degree of v
    eliminated after the set T is the number of vertices outside T union {v}
    reachable from v through T, which is order-independent.  Exponential in
    h.n, so this refuses graphs beyond a dozen vertices.
    """
    n = h.n
    if n > 12:
        raise PreconditionError("exhaustive treewidth only runs up to n=12")
    if n == 0:
        return TreeDecomposition((-1,), ((),))

    nbr = [h.adj_mask(v) for v in range(n)]

    def back_degree(t_mask, v):
        seen = 1 << v
        frontier = 1 << v
        while frontier:
            grown = 0
            m = frontier
            while m:
                low = m & -m
                grown |= nbr[low.bit_length() - 1]
                m ^= low
            grown &= ~seen
            seen |= grown
            frontier = grown & t_mask
        return (seen & ~t_mask & ~(1 << v)).bit_count()

    full = (1 << n) - 1
    cost = [0] * (full + 1)
    last = [0] * (full + 1)
    for s in range(1, full + 1):
        best = n + 1
        pick = -1
        m = s
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            c = max(cost[s ^ low], back_degree(s ^ low, v))
            if c < best:
                best, pick = c, v
        cost[s] = best
        last[s] = pick

    order = [0] * n
    s = full
    while s:
        v = last[s]
        order[s.bit_count() - 1] = v
        s ^= 1 << v

    # replay the elimination, collecting one bag per vertex
    adj = [set(h.neighbors(v)) for v in range(n)]
    alive = set(range(n))
    position = {v: i for i, v in enumerate(order)}
    bags = []
    parent = []
    for i, v in enumerate(order):
        around = sorted(adj[v] & alive, key=position.get)
        bags.append((v, *around))
        if around:
            parent.append(position[around[0]])
        elif i + 1 < n:
            parent.append(i + 1)
        else:
            parent.append(-1)
        for a, b in combinations(around, 2):
            adj[a].add(b)
            adj[b].add(a)
        alive.discard(v)

    td = TreeDecomposition(parent, bags)
    td.validate_for(h)
    if td.width != cost[full]:
        raise InconsistencyError(
            f"rebuilt width {td.width} != programmed width {cost[full]}")
    return td


# -- minor models and the bicubic rebuild ------------------------------------

class MinorModel:
    """Branch sets witnessing a minor: ``branch_sets[v]`` hosts pattern
    vertex v, ``discard`` holds the leftovers.  Validity (disjoint, connected,
    every pattern edge crossed) is checked by ``validate_for``; contraction
    may legitimately create extra adjacencies beyond the pattern.
    """

    __slots__ = ("branch_sets", "discard")

    def __init__(self, branch_sets, discard=()):
        self.branch_sets = tuple(tuple(sorted(set(b))) for b in branch_sets)
        self.discard = tuple(sorted(set(discard)))

    def __repr__(self):
        return (f"MinorModel(parts={len(self.branch_sets)}, "
                f"discard={len(self.discard)})")

    def validate_for(self, pattern, host):
        if len(self.branch_sets) != pattern.n:
            raise PreconditionError("one branch set per pattern vertex")
        used = set()
        for v, part in enumerate(self.branch_sets):
            if not part:
                raise PreconditionError(f"branch set {v} is empty")
            for x in part:
                if not 0 <= x < host.n:
                    raise PreconditionError(f"branch vertex {x} out of range")
                if x in used:
                    raise PreconditionError(f"host vertex {x} used twice")
                used.add(x)
            if len(host.induced(part).components()) != 1:
                raise PreconditionError(f"branch set {v} is disconnected")
        for x in self.discard:
            if not 0 <= x < host.n:
                raise PreconditionError(f"discard vertex {x} out of range")
            if x in used:
                raise PreconditionError(f"host vertex {x} used twice")
            used.add(x)
        owner = self._owner_map(host)
        for (a, b) in pattern.edges:
            if not any(owner.get(y) == b
                       for x in self.branch_sets[a]
                       for y in host.neighbors(x)):
                raise PreconditionError(f"pattern edge ({a},{b}) not crossed")

    def _owner_map(self, host):
        owner = {}
        for v, part in enumerate(self.branch_sets):
            for x in part:
                owner[x] = v
        return owner

    def contracted(self, host):
        """Contract each branch set to a point, dropping the discard set."""
        owner = self._owner_map(host)
        edges = set()
        for (x, y) in host.edges:
            a, b = owner.get(x), owner.get(y)
            if a is not None and b is not None and a != b:
                edges.add((min(a, b), max(a, b)))
        return Graph(len(self.branch_sets), sorted(edges))


def _filler_block(deficit):
    """A little graph with ``deficit`` degree-2 slots and all else degree 3."""
    if deficit == 1:
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)]
        return 5, edges, [0]
    if deficit == 2:
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
        return 4, edges, [0, 2]
    edges = [(i, (i + 1) % deficit) for i in range(deficit)]
    return deficit, edges, list(range(deficit))


def make_bicubic(h):
    """Rebuild a graph as a 3-regular bipartite one containing it as a minor.

    Degrees below 3 are raised by wiring deficient vertices into a small
    filler block, degrees above 3 are spread around a cycle, every edge is
    subdivided (which forces the bipartition), and the degree-2 subdivision
    vertices are topped up by fresh vertices adopting them in triples by
    ascending id.  Returns the rebuilt graph plus a minor model mapping each
    original vertex to its cycle (or itself) with the adopted subdividers;
    3-regularity, bipartiteness, the 20*|E| size bound and an exact
    contraction replay are all asserted before returning.
    """
    if h.isolated_vertices():
        raise PreconditionError("isolated vertices cannot reach degree 3")
    if h.n == 0:
        return Graph(0), MinorModel(())

    deficits = [max(0, 3 - h.degree(v)) for v in range(h.n)]
    total_deficit = sum(deficits)
    base_edges = list(h.edges)
    filler_lo = h.n
    slot_edges = []
    if total_deficit:
        fn, fe, slots = _filler_block(total_deficit)
        base_edges += [(filler_lo + a, filler_lo + b) for (a, b) in fe]
        queue = [filler_lo + s for s in slots]
        for v in range(h.n):
            for _ in range(deficits[v]):
                slot_edges.append((v, queue.pop(0)))
    else:
        fn = 0
    base_edges += slot_edges
    base = Graph(h.n + fn, base_edges)

    # spread high degrees around cycles; port(v, u) is where the edge
    # toward u now attaches
    ids = {}
    port = {}
    ring_edges = []
    nxt = 0
    for v in range(base.n):
        nbs = sorted(base.neighbors(v))
        if len(nbs) <= 3:
            ids[v] = (nxt,)
            for u in nbs:
                port[(v, u)] = nxt
            nxt += 1
        else:
            ring = tuple(range(nxt, nxt + len(nbs)))
            ids[v] = ring
            for i, u in enumerate(nbs):
                port[(v, u)] = ring[i]
            ring_edges += [(ring[i], ring[(i + 1) % len(ring)])
                           for i in range(len(ring))]
            nxt += len(nbs)
    cubic_edges = sorted(
        {(min(a, b), max(a, b)) for a, b in ring_edges}
        | {(min(port[(u, v)], port[(v, u)]), max(port[(u, v)], port[(v, u)]))
           for (u, v) in base.edges})
    v3 = nxt
    if any(sum(1 for e in cubic_edges if x in e) != 3 for x in range(v3)):
        raise InconsistencyError("cycle spreading missed degree 3")

    sub_of = {}
    final_edges = []
    for e in cubic_edges:
        s = nxt
        sub_of[e] = s
        nxt += 1
        final_edges += [(e[0], s), (s, e[1])]
    subdividers = [sub_of[e] for e in cubic_edges]
    groupers = []
    for i in range(0, len(subdividers), 3):
        gv = nxt
        nxt += 1
        groupers.append(gv)
        final_edges += [(gv, s) for s in subdividers[i:i + 3]]
    dagger = Graph(nxt, final_edges)

    if any(dagger.degree(x) != 3 for x in range(dagger.n)):
        raise InconsistencyError("rebuilt graph is not 3-regular")
    if not dagger.is_bipartite():
        raise InconsistencyError("rebuilt graph is not bipartite")
    if dagger.n > 20 * h.m:
        raise InconsistencyError(
            f"size bound broken: {dagger.n} > 20*{h.m}")

    branch = []
    for v in range(h.n):
        part = set(ids[v])
        for (a, b) in cubic_edges:
            if a in part and b in part:      # ring edge of v
                part.add(sub_of[(a, b)])
        branch.append(part)
    # each original edge's subdivider goes to its smaller endpoint
    for (u, v) in h.edges:
        a, b = port[(u, v)], port[(v, u)]
        branch[min(u, v)].add(sub_of[(min(a, b), max(a, b))])
    assigned = set().union(*branch)
    discard = [x for x in range(dagger.n) if x not in assigned]
    model = MinorModel(branch, discard)
    model.validate_for(h, dagger)
    if model.contracted(dagger) != Graph(h.n, h.edges):
        raise InconsistencyError("contraction replay does not give H back")
    return dagger, model


def minor_lift_instance(h, dagger, model, g):
    """Transfer color-preserving pattern counting across a minor model.

    h must be colorful; g carries colors from the same palette.  Every
    g-vertex of color i is replaced by a copy of the branch set hosting the
    i-colored pattern vertex, copies are fully joined when their g-vertices
    are adjacent (or when the pattern lacks that edge entirely, in which
    case adjacency in g is irrelevant), and one copy of the discard block is
    joined to everything.  Output vertices are colored by their originating
    dagger vertex, so counting dagger (colored by identity) in the result
    equals counting h in g.
    """
    if not is_colorful(h):
        raise PreconditionError("pattern must be colorful")
    if g.vcolors is None:
        raise PreconditionError("host carries no vertex colors")
    model.validate_for(h, dagger)
    covered = {x for part in model.branch_sets for x in part}
    covered.update(model.discard)
    if covered != set(range(dagger.n)):
        raise PreconditionError("model must partition the rebuilt graph")

    owner_vertex = {h.vcolors[v]: v for v in range(h.n)}
    blocks = []               # (g vertex or None, dagger vertex list)
    for u in range(g.n):
        c = g.vcolors[u]
        if c not in owner_vertex:
            raise PreconditionError(f"host color {c} unknown to the pattern")
        blocks.append((u, list(model.branch_sets[owner_vertex[c]])))
    blocks.append((None, list(model.discard)))

    offset = []
    nxt = 0
    for _, part in blocks:
        offset.append(nxt)
        nxt += len(part)
    colors = [x for _, part in blocks for x in part]

    index = []               # per block: dagger vertex -> lifted id
    for bi, (_, part) in enumerate(blocks):
        index.append({x: offset[bi] + i for i, x in enumerate(part)})

    edges = []
    for bi, (_, part) in enumerate(blocks):
        for (x, y) in dagger.edges:
            if x in index[bi] and y in index[bi]:
                edges.append((index[bi][x], index[bi][y]))

    pat_edge = {(min(a, b), max(a, b)) for (a, b) in h.edges}
    for bi in range(g.n):
        for bj in range(bi + 1, g.n):
            ci = owner_vertex[g.vcolors[bi]]
            cj = owner_vertex[g.vcolors[bj]]
            if ci == cj:
                continue
            e = (min(ci, cj), max(ci, cj))
            if e in pat_edge and not g.has_edge(bi, bj):
                continue
            for x in index[bi].values():
                for y in index[bj].values():
                    edges.append((x, y))
    b0 = len(blocks) - 1
    for x in index[b0].values():
        for bi in range(g.n):
            for y in index[bi].values():
                edges.append((x, y))

    return Graph(nxt, edges, vcolors=colors)


# -- grid instances -----------------------------------------------------------

def grid_pattern(k):
    """The k-by-k grid, colored so every vertex is its own color class."""
    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append((i * k + j, i * k + j + 1))
            if i + 1 < k:
                edges.append((i * k + j, (i + 1) * k + j))
    return Graph(k * k, edges, vcolors=range(k * k))


def build_grid_instance(g, k):
    """Encode k-clique counting as colored grid counting.

    The host gets a diagonal vertex (i,i,x,x) for every graph vertex x and
    an off-diagonal (i,j,x,y) for every edge {x,y}, oriented so x < y
    exactly when i < j (one orientation per cell; keeping both would count
    every clique k! times).  Rows chain vertices that agree in (i,x),
    columns those that agree in (j,y), so a color-faithful grid copy pins
    down one increasing vertex tuple whose pairs are all adjacent.  Returns
    (colored grid, colored host).
    """
    if k < 2:
        raise PreconditionError("grid instances need k >= 2")
    ids = {}
    colors = []
    for i in range(k):
        for x in range(g.n):
            ids[(i, i, x, x)] = len(colors)
            colors.append(i * k + i)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for (x, y) in g.edges:
                key = (i, j, x, y) if (i < j) == (x < y) else (i, j, y, x)
                ids[key] = len(colors)
                colors.append(i * k + j)

    edges = []
    for (i, j, x, y), a in ids.items():
        right = [(i, j + 1, x, yy) for yy in range(g.n)]
        down = [(i + 1, j, xx, y) for xx in range(g.n)]
        for key in right + down:
            b = ids.get(key)
            if b is not None:
                edges.append((a, b))
    host = Graph(len(colors), edges, vcolors=colors)
    return grid_pattern(k), host
