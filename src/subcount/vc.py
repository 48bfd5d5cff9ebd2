"""Embedding counts driven by a minimum vertex cover of the pattern.

Outside a minimum vertex cover the pattern H is an independent set U, so once
the cover's image (the anchor) is pinned, an embedding is an injective
placement of U sending each u to a free host vertex adjacent to the images of
K(u), its cover neighbours.  Per anchor, Moebius inversion over the partition
lattice of U (Curticapean, Dell, Marx, "Homomorphisms are a good basis for
counting small subgraphs", STOC 2017) counts those placements as

    sum over partitions pi of U of  mu(pi) * prod over blocks B of N(K(B))

with mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)!, K(B) the union of K(u) over B,
and N(S) the number of free host vertices adjacent to the images of all of S:
one popcount of the free mask ANDed with their adjacency masks.

The terms depend on H alone and are built once per count.  Vertices with
equal K(u) form a demand class, so the terms come from partitions of the
demand multiset, not from the Bell(|U|) set partitions of U, and terms with
equal key multisets are merged: K_{1,12} gets 12 terms, not 4.2 million.

Anchors are enumerated by backtracking over the cover positions, each taking
a free vertex adjacent to the images of its earlier cover neighbours; a branch
is cut once Hall's condition fails for a demand class whose K(u) is placed.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress, product
from math import comb, factorial, prod
from operator import or_
from typing import Callable

from .brute import automorphism_count
from .graphs import (Graph, InconsistencyError, PreconditionError, iter_bits,
                     min_vertex_cover)
from .polynomials import falling_factorial


def _demand(h: Graph, cover: tuple[int, ...]) -> dict[int, int]:
    """Demand classes: {K(u) as a bitmask of cover positions: class size}."""
    pos = {c: i for i, c in enumerate(cover)}
    demand: dict[int, int] = {}
    for u in range(h.n):
        if u not in pos:
            key = sum(1 << pos[w] for w in h.neighbors(u))
            demand[key] = demand.get(key, 0) + 1
    return demand


def _placement_counter(demand: dict[int, int]) -> Callable[[int, list[int]], int]:
    """The placement count as a function of the free-vertex mask and the
    anchor images' adjacency masks (by cover position)."""
    classes = list(demand)
    # a monomial prod N(S)^e_S is one int with a field of ``width`` bits per
    # S holding e_S; e_S <= |U| < 2**width, so fields never carry and
    # multiplying two monomials is adding their ints
    width = sum(demand.values()).bit_length()
    unit: dict[int, int] = {}  # S as a bitmask -> 1 in its field
    memo: dict[tuple[int, ...], dict[int, int]] = {}

    def expand(d):
        """{monomial: coefficient} over the set partitions of demand vector
        d.  The block of one fixed vertex of the first non-empty class j0
        takes b_j of each class j, in prod_j C(d_j, b_j) * b_j0 / d_j0 ways."""
        if d in memo:
            return memo[d]
        live = [j for j, x in enumerate(d) if x]
        if not live:
            return {0: 1}
        j0 = live[0]
        out = memo[d] = {}
        for b in product(*(range(j == j0, x + 1) for j, x in enumerate(d))):
            size = sum(b)
            weight = ((-1) ** (size - 1) * factorial(size - 1)
                      * prod(map(comb, d, b)) * b[j0] // d[j0])
            key = reduce(or_, compress(classes, b))
            one = unit.setdefault(key, 1 << width * len(unit))
            for mono, coef in expand(tuple(x - y for x, y in zip(d, b))).items():
                out[mono + one] = out.get(mono + one, 0) + weight * coef
        return out

    poly = expand(tuple(demand.values()))
    keys = [tuple(iter_bits(s)) for s in unit]
    terms = [(c, [i for i in range(len(keys))
                  for _ in range(mono >> width * i & (1 << width) - 1)])
             for mono, c in poly.items() if c]

    # anchors with equal N(S) tuples are common (every anchor in a complete
    # host), so a bounded memo skips re-summing the terms
    @lru_cache(maxsize=4096)
    def evaluate(sizes):
        return sum(c * prod(map(sizes.__getitem__, idx)) for c, idx in terms)

    def placements(free, images):
        sizes = []
        for positions in keys:
            mask = free
            for p in positions:
                mask &= images[p]
            sizes.append(mask.bit_count())
        return evaluate(tuple(sizes))

    return placements


def anchored_embedding_count(h: Graph, cover: tuple[int, ...], g: Graph,
                             image: tuple[int, ...]) -> int:
    """Embeddings of h into g that send cover[i] to image[i].

    The cover must touch every edge of h; the non-cover remainder is then
    placed by the partition-lattice sum of the module docstring.
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


def count_emb_vc(h: Graph, g: Graph) -> int:
    """#Emb(h -> g) by summing anchored counts over the injective images of
    a minimum vertex cover of h that keep the cover's internal edges."""
    if h.directed or g.directed:
        raise PreconditionError("embedding counting is for undirected graphs")
    if h.n > g.n:
        return 0
    # isolated pattern vertices go injectively to whatever host vertices the
    # rest leaves free: one falling factorial, outside the plan
    core = [u for u in range(h.n) if h.degree(u)]
    loose = falling_factorial(g.n - len(core), h.n - len(core))
    h = h.induced(core)
    _tau, cover = min_vertex_cover(h)
    demand = _demand(h, cover)
    placements = _placement_counter(demand)
    # cover positions j < i adjacent to position i in h
    earlier = [[j for j in range(i) if h.has_edge(cover[i], cover[j])]
               for i in range(len(cover))]
    # Hall's condition, checked once position max(K) is placed: the vertices
    # u with K(u) >= K need distinct free common neighbours of K's images,
    # and later positions only take free vertices away
    halls: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in cover]
    for key in demand:
        need = sum(d for k, d in demand.items() if k & key == key)
        halls[key.bit_length() - 1].append((tuple(iter_bits(key)), need))
    adj = [g.adj_mask(v) for v in range(g.n)]
    images: list[int] = []

    def extend(free):
        i = len(images)
        if i == len(cover):
            return placements(free, images)
        cand = free
        for j in earlier[i]:
            cand &= images[j]
        total = 0
        for v in iter_bits(cand):
            images.append(adj[v])
            rest = free & ~(1 << v)
            for positions, need in halls[i]:
                mask = rest
                for p in positions:
                    mask &= images[p]
                if mask.bit_count() < need:
                    break
            else:
                total += extend(rest)
            images.pop()
        return total

    return loose * extend((1 << g.n) - 1)


def count_sub_vc(h: Graph, g: Graph) -> int:
    """#Sub(h -> g) via the cover-driven embedding count."""
    emb = count_emb_vc(h, g)
    aut = automorphism_count(h)
    if emb % aut:
        raise InconsistencyError(f"#Emb={emb} not divisible by #Aut={aut}")
    return emb // aut
