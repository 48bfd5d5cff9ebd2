"""Shared instance generators and reference code for the test suite.

All randomness flows through an explicit random.Random so every test is
reproducible from its seed.  Besides the naive reference enumerators and
the matching number, which is taken from networkx, this file also holds the
paper's proof checks, which no command runs: the gadget no-common
condition, restriction, strong sets and residue identity, the normal-form
residue graphs and the list-based answer table of the colmatch reduction,
the anchored placement count of the vc counter, and star numbers.
"""

import random
from collections import namedtuple
from itertools import combinations
from math import comb

from subcount.brute import count_embeddings, count_subgraphs, is_isomorphic
from subcount.gadgets import (MatchingGadget, _candidate_cores,
                              _completion_count, _core_view, _impostor_cores)
from subcount.graphs import Graph, InconsistencyError, PreconditionError
from subcount.hardness import TYPE_DAMAGE, _kron_step, _type_index, gadget_graph
from subcount.vc import _demand, _placement_counter


def rand_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def rand_digraph(rng: random.Random, n: int, p: float) -> Graph:
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return Graph(n, arcs, directed=True)


def rand_bipartite(rng: random.Random, a: int, b: int, p: float) -> Graph:
    edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
    return Graph(a + b, edges)


def rand_vertex_colored(rng: random.Random, n: int, p: float, ncolors: int) -> Graph:
    g = rand_graph(rng, n, p)
    return g.with_vertex_colors([rng.randrange(1, ncolors + 1) for _ in range(n)])


def rand_edge_colored(rng: random.Random, n: int, p: float, ncolors: int) -> Graph:
    g = rand_graph(rng, n, p)
    return g.with_edge_colors([rng.randrange(ncolors) for _ in g.edges])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def colorful(g: Graph) -> Graph:
    """Color vertex v with color v+1 (pairwise distinct)."""
    return g.with_vertex_colors(list(range(1, g.n + 1)))


def matching_number(g: Graph) -> int:
    """Size of a maximum matching of g, from networkx's blossom algorithm."""
    import networkx as nx
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return len(nx.max_weight_matching(G, maxcardinality=True))


def iter_embeddings(h: Graph, g: Graph):
    """Yield every injective adjacency-preserving map V(h) -> V(g).

    Test-side reference enumerator, deliberately naive.
    """
    used = [False] * g.n
    image = []

    def place(i):
        if i == h.n:
            yield tuple(image)
            return
        for w in range(g.n):
            if used[w]:
                continue
            if all(not h.has_edge(i, j) or g.has_edge(w, image[j]) for j in range(i)):
                image.append(w)
                used[w] = True
                yield from place(i + 1)
                used[w] = False
                image.pop()

    yield from place(0)


def subgraph_copies(h: Graph, g: Graph):
    """Distinct subgraph copies of h in g as (vertex frozenset, edge frozenset)."""
    seen = set()
    for image in iter_embeddings(h, g):
        verts = frozenset(image)
        edges = frozenset(
            (min(image[u], image[v]), max(image[u], image[v])) for u, v in h.edges
        )
        seen.add((verts, edges))
    return seen


def iter_colorful_matchings(g: Graph, colors):
    """Yield each colorful matching of the edge-colored g as a tuple of
    edges, one per color of ``colors`` in sorted color order.

    Test-side reference enumerator, one edge per color at a time.
    """
    want = sorted(set(colors))
    groups = [[e for e, c in zip(g.edges, g.ecolors) if c == col] for col in want]

    def branch(i, used, acc):
        if i == len(groups):
            yield tuple(acc)
            return
        for (u, v) in groups[i]:
            mask = (1 << u) | (1 << v)
            if used & mask == 0:
                acc.append((u, v))
                yield from branch(i + 1, used | mask, acc)
                acc.pop()

    yield from branch(0, 0, [])


def monochromatic_sets(n: int, color, r: int):
    """Yield every r-subset of range(n), in lexicographic order, whose pairs
    all get one color under ``color(u, v)`` with u < v.

    Test-side reference enumerator, a scan of all C(n, r) subsets.
    """
    for verts in combinations(range(n), r):
        if len({color(u, v) for u, v in combinations(verts, 2)}) <= 1:
            yield verts


# -- gadgets: no-common condition, restriction, strong sets, residues -----

def nocommon_sufficient(h, matching):
    """Cheap one-way test: every core vertex adjacent to at most one matched
    vertex.  True here implies the full gadget property; False says nothing.
    """
    gadget = matching if isinstance(matching, MatchingGadget) else MatchingGadget(h, matching)
    covered = {v for e in gadget.matching for v in e}
    for c in gadget.core:
        hits = sum(1 for u in gadget.h.neighbors(c) if u in covered)
        if hits > 1:
            return False
    return True


def restrict_gadget(gadget, sub_matching):
    """Shrink a gadget's matching to a subset of its edges.

    Any sub-matching of a verified gadget's matching yields a gadget on the
    same graph (the defining property transfers: an impostor core for the
    smaller matching extends to one for the larger by appending the dropped
    edges).  No re-verification is performed, so the caller should hand in
    a gadget that was actually checked or trusted.
    """
    sub = tuple(sorted((min(u, v), max(u, v)) for u, v in sub_matching))
    have = set(gadget.matching)
    for e in sub:
        if e not in have:
            raise PreconditionError(f"edge {e} is not part of the gadget matching")
    if len(set(sub)) != len(sub):
        raise PreconditionError("duplicate edges in sub-matching")
    return MatchingGadget(gadget.h, sub)


def is_strong_set(h, core, x):
    """Whether x is fixed setwise by every boundary-preserving isomorphism
    from H[core] to H[C'], over all candidate cores C'.

    Such an isomorphism fixes x exactly when it keeps membership in x, so
    per candidate the isomorphisms keeping membership must be all of them.
    """
    xset = set(x)
    cset = set(core)
    if not xset <= cset:
        raise PreconditionError("x must be a subset of core")
    if not cset <= set(range(h.n)):
        raise PreconditionError("core out of range")
    if not xset:
        return True
    plain, marked = _core_view(h, core), _core_view(h, core, xset)
    for cand in _candidate_cores(h, len(core)):
        view = _core_view(h, cand)
        if view.m != plain.m:
            continue
        isos = count_embeddings(plain, view, respect_colors=True)
        if isos != count_embeddings(marked, _core_view(h, cand, xset), respect_colors=True):
            return False
    return True


class ResidueClass(namedtuple("ResidueClass", "graph isolated pure alpha")):
    """Isomorphism class of a possible host-side trace of a gadget copy."""

    __slots__ = ()


def residue_classes_and_alphas(gadget):
    """All isomorphism types the host side of a gadget copy can take, with
    their completion multiplicities.

    Candidate cores here only need a boundary-preserving isomorphism and a
    bipartite rest; rests with isolated vertices are kept (the interpolation
    step absorbs them).  A rest with no isolated vertex must come out
    isomorphic to the gadget matching, otherwise the gadget was never valid
    and we refuse to continue.
    """
    k = gadget.k
    reps = []
    for _i, _cand, rest in _impostor_cores(gadget):
        if rest.n != 2 * k:
            raise InconsistencyError("residue does not have 2k vertices")
        if not any(is_isomorphic(rest, r) for r in reps):
            reps.append(rest)

    matching_graph = Graph.matching(k)
    classes = []
    for r in reps:
        iso_verts = r.isolated_vertices()
        if not iso_verts and not is_isomorphic(r, matching_graph):
            raise InconsistencyError(
                "isolated-free residue is not a matching; gadget property fails"
            )
        pure = r.without_vertices(iso_verts) if iso_verts else r
        alpha = _completion_count(gadget, r)
        classes.append(ResidueClass(graph=r, isolated=tuple(iso_verts), pure=pure, alpha=alpha))
    classes.sort(key=lambda c: (len(c.isolated), c.graph.m))
    for c in classes:
        if not c.isolated and c.alpha <= 0:
            raise InconsistencyError("matching residue has zero completions")
    return classes


def residue_count_identity(gadget, g, ell):
    """Right-hand side of the residue decomposition of the constrained count:
    sum over residue classes of alpha * #Sub(pure -> g) * C(n+ell-2k+i, i)
    with i the number of isolated vertices.  Equals count_T_ell on valid
    gadgets; exposed for cross-checking.
    """
    n = g.n
    k = gadget.k
    total = 0
    for cls in residue_classes_and_alphas(gadget):
        i = len(cls.isolated)
        pure_count = count_subgraphs(cls.pure, g)
        if pure_count:
            # a nonzero pure count forces n >= 2k - i, so the argument is fine
            total += cls.alpha * pure_count * comb(n + ell - 2 * k + i, i)
    return total


# -- colmatch: the normal-form residue graphs -----------------------------

def residue_graph(s: int) -> Graph:
    """The 15-vertex normal form of alignment type s: its damaged gadgets
    padded with intact six-cycles to three gadgets total."""
    parts = [gadget_graph(d) for d in TYPE_DAMAGE[s]]
    while len(parts) < 3:
        parts.append(gadget_graph())
    g = parts[0]
    for p in parts[1:]:
        g = g.disjoint_union(p)
    return g


def kron_chain(census: dict, rows, k: int) -> list[int]:
    """The colmatch answer table as k list mode products of the dense
    census: the reference for the packed products."""
    vec = [0] * 5 ** k
    for theta, cnt in census.items():
        vec[_type_index(theta)] += cnt
    for _ in range(k):
        vec = _kron_step(vec, rows)
    return vec

# -- vc: the placement count at one anchor --------------------------------

def anchored_embedding_count(h: Graph, cover: tuple[int, ...], g: Graph,
                             image: tuple[int, ...]) -> int:
    """Embeddings of h into g that send cover[i] to image[i].

    The cover must touch every edge of h; the non-cover remainder is then
    placed by the partition-lattice sum of the ``subcount.vc`` docstring.
    """
    cset = set(cover)
    for (u, v) in h.edges:
        if u not in cset and v not in cset:
            raise PreconditionError("given set is not a vertex cover of the pattern")
    if len(set(image)) != len(image):
        return 0
    pos = {c: i for i, c in enumerate(cover)}
    # edges inside the cover must be honored by the anchor itself
    for (u, v) in h.edges:
        if u in cset and v in cset:
            if not g.has_edge(image[pos[u]], image[pos[v]]):
                return 0
    free = (1 << g.n) - 1 - sum(1 << v for v in image)
    return _placement_counter(_demand(h, cover))(
        free, [g.adj_mask(v) for v in image])


# -- subdivided stars ------------------------------------------------------

def psi(g, v):
    """Largest number of length-2 paths leaving v that share nothing but v.

    Each path v-u-w consumes two distinct vertices, and paths may not touch
    each other outside v, so this is a maximum matching among the edges of
    g - v that have at least one endpoint next to v.
    """
    if not 0 <= v < g.n:
        raise PreconditionError(f"vertex {v} out of range")
    nb = set(g.neighbors(v))
    edges = [e for e in g.edges
             if v not in e and (e[0] in nb or e[1] in nb)]
    return matching_number(Graph(g.n, edges))


def psi_max(g):
    """max over all vertices of psi(g, v); 0 for the empty graph."""
    return max((psi(g, v) for v in range(g.n)), default=0)
