"""Matching-gadget machinery.

A pattern graph H together with an induced k-matching M is a *k-matching
gadget* when every "impostor" core works out: for each vertex set C' such
that H[C'] is isomorphic to H[C] (C = V(H) minus V(M)) via an isomorphism
that preserves the boundary, and such that the rest H - C' is bipartite
with no isolated vertex, the rest is again a k-matching.  Verified gadgets
let us recover k-matching counts of an arbitrary bipartite host from
subgraph-count queries alone: pad the host, glue on a copy of H[C] joined
completely to the host side, and interpolate away the padding.

Everything here is exhaustive and meant for small H: the checker
enumerates candidate cores directly, and the check, the search and the
read-out each refuse work above WORK_LIMIT.  Every isomorphism
question runs on brute's embedding search, with the boundary carried as
vertex colors.
"""

from collections import namedtuple
from itertools import combinations
from math import comb

from .brute import count_subgraphs, find_embedding, is_isomorphic
from .graphs import Graph, InconsistencyError, PreconditionError, iter_bits, refuse_over_limit
from .iex import signed_subset_sum
from .polynomials import binomial_basis_from_values


def boundary(h, verts):
    """Vertices of `verts` with at least one neighbor outside `verts`."""
    inside = set(verts)
    if not inside <= set(range(h.n)):
        raise PreconditionError("boundary: vertex set out of range")
    return tuple(
        v for v in sorted(inside) if any(u not in inside for u in h.neighbors(v))
    )


def is_edge_of(h, u, v):
    """Whether u and v are adjacent vertices of h; out of range is absent."""
    return 0 <= u < h.n and 0 <= v < h.n and h.has_edge(u, v)


def validate_induced_matching(h, edges):
    """Check that `edges` is an induced matching of h; return it normalized.

    Normalized form: tuple of (min, max) pairs sorted ascending.  Raises
    PreconditionError when the edges are absent, overlap, or when the
    covered vertices span extra edges of h.
    """
    norm = []
    for e in edges:
        u, v = e
        if not is_edge_of(h, u, v):
            raise PreconditionError(f"matching edge {e} not in graph")
        norm.append((min(u, v), max(u, v)))
    norm = tuple(sorted(set(norm)))
    if len(norm) != len(list(edges)):
        raise PreconditionError("duplicate matching edges")
    covered = [v for e in norm for v in e]
    if len(set(covered)) != 2 * len(norm):
        raise PreconditionError("matching edges share a vertex")
    induced_edges = h.induced(sorted(covered)).m
    if induced_edges != len(norm):
        raise PreconditionError("matching is not induced: extra edges inside V(M)")
    return norm


class MatchingGadget:
    """A graph with a designated induced matching, for the counting reduction.

    Construction validates the induced-matching property only; it does not
    run the expensive full check (see check_matching_gadget / search_gadget).
    """

    __slots__ = ("h", "matching", "core", "core_boundary")

    def __init__(self, h, matching):
        self.h = h
        self.matching = validate_induced_matching(h, matching)
        covered = {v for e in self.matching for v in e}
        self.core = tuple(v for v in range(h.n) if v not in covered)
        self.core_boundary = boundary(h, self.core)

    @property
    def k(self):
        return len(self.matching)

    @property
    def t(self):
        return self.h.n

    def __repr__(self):
        return f"MatchingGadget(t={self.t}, k={self.k}, matching={self.matching})"


def _core_view(h, verts, marked=()):
    """H[verts] in sorted order, v colored 2 * (v on the boundary) + (v in
    marked).  Between two views of equal order and size, a color-respecting
    embedding is an isomorphism keeping the boundary and the marked set."""
    if h.directed:
        raise PreconditionError("matching gadgets are undirected graphs")
    cs = sorted(verts)
    bset = set(boundary(h, cs))
    return h.induced(cs).with_vertex_colors(
        [2 * (v in bset) + (v in marked) for v in cs])


def _candidate_cores(h, size):
    """Every vertex set of h of the given size, in lexicographic order;
    refused before the scan when there are more than WORK_LIMIT."""
    count = comb(h.n, size)
    refuse_over_limit(count, f"the gadget check would scan {count} candidate cores")
    return combinations(range(h.n), size)


def _impostor_cores(gadget, wanted=lambda rest: True):
    """Yield (i, C', H - C') for every candidate core C', the i-th in
    lexicographic order, whose rest is bipartite and passes `wanted`, and
    onto which H[C] maps by a boundary-preserving isomorphism.  The tests on
    the rest run first, as they are cheaper than the isomorphism search."""
    h = gadget.h
    core = _core_view(h, gadget.core)
    for i, cand in enumerate(_candidate_cores(h, len(gadget.core)), 1):
        rest = h.without_vertices(cand)
        if not wanted(rest) or not rest.is_bipartite():
            continue
        view = _core_view(h, cand)
        # an empty core embeds as (), so test against None
        if view.m == core.m and find_embedding(core, view, respect_colors=True) is not None:
            yield i, cand, rest


def _counterexample_rest(rest):
    # isolated-free, so all degrees are one (a perfect matching) iff 2m == n
    return not rest.isolated_vertices() and 2 * rest.m != rest.n


def check_matching_gadget(h, matching):
    """Full gadget check.  Returns None if (h, matching) is a k-matching
    gadget, otherwise a counterexample core C' (sorted vertex tuple) whose
    rest is bipartite and isolated-vertex-free yet not a k-matching.
    """
    gadget = matching if isinstance(matching, MatchingGadget) else MatchingGadget(h, matching)
    found = _first_counterexample(gadget)
    return None if found is None else found[1]


def _first_counterexample(gadget):
    """(i, C'): the full check's first counterexample C', found as the i-th
    candidate core it scanned; None when the gadget passes."""
    return next(((i, cand) for i, cand, _ in _impostor_cores(gadget, _counterexample_rest)),
                None)


class ReductionInstance(namedtuple("ReductionInstance", "graph host_vertices "
                                   "core_vertices boundary_vertices join_edges")):
    """Host graph padded and glued to a copy of the gadget core.

    graph: the assembled instance
    host_vertices: ids of the host copy followed by the padding isolates
    core_vertices: ids of the core copy, parallel to sorted gadget core
    boundary_vertices: the core-copy ids carrying the complete join
    join_edges: the boundary-to-host edges
    """

    __slots__ = ()


def build_G_ell(gadget, g, ell):
    """Assemble the padded instance: g, `ell` isolated vertices, a copy of
    the gadget core, and all edges between the core boundary and the host
    side.
    """
    if ell < 0:
        raise PreconditionError("padding must be nonnegative")
    n_host = g.n + ell
    cs = sorted(gadget.core)
    pos = {v: n_host + i for i, v in enumerate(cs)}
    edges = list(g.edges)
    for u, v in gadget.h.edges:
        if u in pos and v in pos:
            edges.append((pos[u], pos[v]))
    join = []
    for b in gadget.core_boundary:
        for w in range(n_host):
            join.append((pos[b], w))
    edges.extend(join)
    graph = Graph(n_host + len(cs), edges)
    return ReductionInstance(
        graph=graph,
        host_vertices=tuple(range(n_host)),
        core_vertices=tuple(pos[v] for v in cs),
        boundary_vertices=tuple(pos[v] for v in gadget.core_boundary),
        join_edges=tuple(sorted((min(a, b), max(a, b)) for a, b in join)),
    )


def _requirement_families(gadget):
    """The core edges, the core vertices on no core edge, and the core
    boundary, in gadget vertex ids: count_T_ell makes one query per choice
    of a subset of each."""
    core = set(gadget.core)
    core_edges = [(u, v) for u, v in gadget.h.edges if u in core and v in core]
    inner = {v for e in core_edges for v in e}
    return core_edges, [v for v in gadget.core if v not in inner], gadget.core_boundary


def count_T_ell(gadget, g, ell, oracle=None):
    """Number of copies of H in the padded instance that use the whole core
    copy and give every boundary vertex a neighbor on the host side.

    Computed by inclusion-exclusion over the requirements, each a set of
    edges and at most one vertex that a copy must use: a core edge, the
    join edges of a boundary vertex, or a core vertex on no core edge.
    Each term is one #Sub(H -> G') query on the instance without the
    dropped requirements.
    """
    if oracle is None:
        oracle = count_subgraphs
    inst = build_G_ell(gadget, g, ell)
    pos = dict(zip(sorted(gadget.core), inst.core_vertices))
    edges, lone, boundary_ids = _requirement_families(gadget)
    needs = [([(pos[u], pos[v])], None) for u, v in edges]
    needs += [([e for e in inst.join_edges if pos[b] in e], None) for b in boundary_ids]
    needs += [([], pos[v]) for v in lone]

    def term(keep):
        dropped = [needs[i] for i in range(len(needs)) if i not in keep]
        probe = inst.graph.without_edges(e for es, _ in dropped for e in es)
        dead = [v for _, v in dropped if v is not None]
        return oracle(gadget.h, probe.without_vertices(dead) if dead else probe)

    # by index: on an empty host two boundary vertices need the same edges
    return signed_subset_sum(range(len(needs)), term)


def _completion_count(gadget, residue):
    """Ways to add boundary-to-residue edges so that core + residue becomes
    the gadget graph again, by one isomorphism test per candidate edge set.
    """
    h = gadget.h
    cs = sorted(gadget.core)
    core_sub = h.induced(cs)
    base = core_sub.disjoint_union(residue)
    bidx = [cs.index(b) for b in gadget.core_boundary]
    candidates = [(b, len(cs) + r) for b in bidx for r in range(residue.n)]
    need = h.m - core_sub.m - residue.m
    if need < 0 or need > len(candidates):
        return 0
    trials = comb(len(candidates), need)
    refuse_over_limit(trials, f"the completion count would try {trials} edge sets")
    count = 0
    for extra in combinations(candidates, need):
        trial = Graph(base.n, list(base.edges) + list(extra))
        if is_isomorphic(trial, h):
            count += 1
    return count


def matching_alpha(gadget):
    """Completion multiplicity of the pure matching residue."""
    alpha = _completion_count(gadget, Graph.matching(gadget.k))
    if alpha <= 0:
        raise InconsistencyError("matching residue has zero completions")
    return alpha


def count_matchings_via_gadget(g, k, gadget, oracle=None):
    """Count k-matchings of a bipartite host through subgraph-count queries.

    Evaluates the constrained-copy count at paddings 0..2k, a polynomial of
    degree at most 2k in x = n + padding - 2k, reads its coefficients over
    the basis C(x+i, i) from integer differences of those 2k+1 values, and
    takes the constant one; dividing by the matching's completion
    multiplicity gives the answer exactly.  A host with fewer than 2k
    vertices starts at a negative x and comes out 0.  The 2k+1 paddings
    take 2^(core edges + lone core vertices + boundary) queries each; above
    2^16 in all, or when the multiplicity count refuses, no query is made.
    """
    if gadget.k != k:
        raise PreconditionError(f"gadget is for k={gadget.k}, asked for k={k}")
    if not g.is_bipartite():
        raise PreconditionError("host graph must be bipartite")
    queries = (2 * k + 1) << sum(map(len, _requirement_families(gadget)))
    refuse_over_limit(
        queries, f"the gadget read-out would make {queries} subgraph-count queries")
    alpha = matching_alpha(gadget)
    values = [count_T_ell(gadget, g, ell, oracle) for ell in range(2 * k + 1)]
    coeffs = binomial_basis_from_values(g.n - 2 * k, values)
    if any(c < 0 for c in coeffs):
        raise InconsistencyError(f"negative binomial-basis coefficient: {coeffs}")
    c0 = coeffs[0]
    if c0 % alpha:
        raise InconsistencyError(
            f"constant coefficient {c0} not divisible by completion count {alpha}"
        )
    return c0 // alpha


def search_gadget(h, k):
    """First induced k-matching of h that passes the full gadget check, in
    lexicographic edge order; None when none qualifies.  Matchings grow by
    rising edge index, an edge dropping out once it shares or touches an
    endpoint of a chosen one.  Each partial matching entered is one step and
    each failed check as many as the candidate cores it scanned; past
    WORK_LIMIT steps the search is refused.  A check with more than
    WORK_LIMIT candidate cores refuses itself before its scan."""
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    incident = [0] * h.n
    for i, (u, v) in enumerate(h.edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    # stack: (chosen edge index, untried candidates at its level); cand: edges that may join
    stack, cand, steps = [], (1 << h.m) - 1, 0
    while True:
        steps += 1
        refuse_over_limit(steps, f"the gadget search would take {steps} steps (one per "
                                 "partial matching and per candidate core scanned)")
        if len(stack) == k:
            gadget = MatchingGadget(h, [h.edges[i] for i, _ in stack])
            found = _first_counterexample(gadget)
            if found is None:
                return gadget
            steps += found[0]
            cand = 0
        while cand.bit_count() < max(k - len(stack), 1):
            if not stack:
                return None
            cand = stack.pop()[1]
        i = (cand & -cand).bit_length() - 1
        stack.append((i, cand ^ 1 << i))
        # the ends of edge i are adjacent, so their neighborhoods hold both
        for w in iter_bits(h.adj_mask(h.edges[i][0]) | h.adj_mask(h.edges[i][1])):
            cand &= ~incident[w]
