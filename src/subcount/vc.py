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

Vertices with equal K(u) form a demand class.  Per anchor the sum is one
numeric recurrence over the sub-vectors of the demand vector, whose steps
depend on H alone and are built once per count, not a sum over the Bell(|U|)
set partitions of U: K_{1,12} takes 12 steps, the falling factorial (N)_12,
not 4.2 million terms.

Anchors are walked by brute's placement walk, on its explicit stack, over
the cover positions, each taking a free vertex adjacent to the images of its
earlier cover neighbours; a vertex is not taken at the last position of a
demand class's K(u) when Hall's condition then fails for that class.
H is first relabelled by descending degree, so the lexicographically least
minimum cover takes hubs, whose internal edges tie anchors to host edges.
Cover positions are twins when swapping them keeps those edges and the
demand multiset (a matching, an even cycle).  Twin swaps keep the anchored
count and act freely on injective anchors, so only anchors whose images
rise along each twin class are visited, and the sum is scaled by prod |class|!.

The recurrence's steps are counted exactly from the demand class sizes
before any is built, and a pattern with more than WORK_LIMIT of them (a path
of 24 vertices has 12 singleton classes and (3^12 - 1)/2 = 265,720 steps) is
refused with PreconditionError, before the twin cut and before any step.
"""

from collections.abc import Callable
from functools import lru_cache, reduce
from itertools import compress, product
from math import comb, factorial, inf, prod
from operator import or_, sub

from .brute import _placements, _twin_chain, copies_from_embeddings
from .graphs import (WORK_LIMIT, Graph, PreconditionError, iter_bits, min_vertex_cover,
                     refuse_over_limit)
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


def _lattice_work(sizes) -> float:
    """The number of steps in _steps for demand classes of ``sizes``, in
    ascending order, as a float, or inf past 1e300.  The states whose first
    non-empty class i is not the last take one step per block, d_i(d_i+1)/2
    * prod_{j>i} (d_j+1)(d_j+2)/2 in all; the last class alone takes d_last."""
    if not sizes:
        return 0.0
    work, scale = sizes[-1], 1
    for i in range(len(sizes) - 1, 0, -1):
        scale *= (sizes[i] + 1) * (sizes[i] + 2) // 2
        work += sizes[i - 1] * (sizes[i - 1] + 1) // 2 * scale
    return float(work) if work <= 1e300 else inf


def _steps(demand: dict[int, int]):
    """The placement sum as one recurrence over the sub-vectors x of the
    demand vector: (block keys as cover positions, steps, number of states).

    p[x], the Moebius sum over the set partitions of x's vertices, sums over
    the block of one fixed vertex of the first non-empty class j0: taking b_j
    of each class j, it is one of prod_j C(x_j, b_j) * b_j0 / x_j0 blocks,
    each of weight (-1)^(s-1) (s-1)! with s = sum b, and leaves p[x - b].
    A step (x, x - b, weight, key) adds weight * N[key] * p[x - b] to p[x].
    The classes go smallest first, so the last class alone is the falling
    factorial (N_last)_x, one factor per step: N_last is N[0], and N[-x] is
    N_last - x + 1."""
    classes = sorted(demand, key=demand.get)
    states = list(product(*(range(demand[k] + 1) for k in classes)))
    where = {x: i for i, x in enumerate(states)}  # rising mixed-radix order
    index = {classes[-1]: 0} if classes else {}  # block key -> place in N
    steps: list[tuple[int, int, int, int]] = []
    for x in states[1:]:
        j0 = next(j for j, d in enumerate(x) if d)
        if j0 == len(x) - 1:
            steps.append((where[x], where[x[:-1] + (x[-1] - 1,)], 1, -x[-1]))
            continue
        for b in product(*(range(j == j0, d + 1) for j, d in enumerate(x))):
            s = sum(b)
            weight = ((-1) ** (s - 1) * factorial(s - 1) * comb(x[j0] - 1, b[j0] - 1)
                      * prod(map(comb, x[j0 + 1:], b[j0 + 1:])))
            key = index.setdefault(reduce(or_, compress(classes, b)), len(index))
            steps.append((where[x], where[tuple(map(sub, x, b))], weight, key))
    return [tuple(iter_bits(s)) for s in index], steps, len(states)


def _placement_counter(demand: dict[int, int]) -> Callable[[int, list[int], list[int]], int]:
    """The placement count as a function of the free-vertex mask, the anchor
    (the host vertex at each cover position) and the host's adjacency
    masks."""
    keys, steps, states = _steps(demand)
    top = max(demand.values(), default=0)

    # anchors with equal N(S) tuples are common (every anchor in a complete
    # host), so a bounded memo skips re-running the steps
    @lru_cache(maxsize=4096)
    def evaluate(n):
        if top:
            n += tuple(range(n[0] - top + 1, n[0] + 1))
        p = [1] + [0] * (states - 1)
        for state, rest, weight, key in steps:
            p[state] += weight * n[key] * p[rest]
        return p[-1]

    def placements(free, image, adj):
        sizes = []
        for positions in keys:
            mask = free
            for p in positions:
                mask &= adj[image[p]]
            sizes.append(mask.bit_count())
        return evaluate(tuple(sizes))

    return placements


def _degree_first_core(h: Graph) -> Graph:
    """h without its isolated vertices, relabelled by descending degree."""
    core = sorted((u for u in range(h.n) if h.degree(u)), key=h.degree,
                  reverse=True)  # stable: ties keep their order
    idx = {u: i for i, u in enumerate(core)}
    return Graph(len(core), [(idx[u], idx[v]) for u, v in h.edges])


def _twin_cut(h: Graph, cover: tuple[int, ...],
             demand: dict[int, int]) -> tuple[list[int], int]:
    """Per cover position, the previous member of its twin class (-1 for
    none), and prod |class|!, by brute's _twin_chain.  Twinship is an
    equivalence (a swap conjugated by a swap is a swap), so each class is
    tested against its first member."""
    pos = {c: i for i, c in enumerate(cover)}
    inner = [sum(1 << pos[w] for w in h.neighbors(c) if w in pos) for c in cover]

    def twins(i, j):
        flip = 1 << i | 1 << j
        return (inner[i] & ~flip == inner[j] & ~flip and all(
            demand.get(k ^ flip if (k >> i ^ k >> j) & 1 else k) == d
            for k, d in demand.items()))

    labels: list[int] = []  # per position, the first member of its class
    for i in range(len(cover)):
        labels.append(next((r for r, c in enumerate(labels) if r == c and twins(r, i)), i))
    return _twin_chain(labels)


@lru_cache(maxsize=64)
def _plan(h: Graph):
    """vc's plan for h, made here only: h's degree-first core, the core's
    minimum vertex cover, its demand classes, the placement recurrence's
    steps per anchor, and the twin cut (prev, weight), which is None when
    the steps are above WORK_LIMIT, since such a count is refused.  When the
    cover search is refused, its message, returned rather than raised so
    that the refusal is cached too.  Cached per pattern, so estimating a
    route and counting by it take one cover search."""
    core = _degree_first_core(h)
    try:
        _tau, cover = min_vertex_cover(core)
    except PreconditionError as refused:
        return str(refused)
    demand = _demand(core, cover)
    steps = _lattice_work(sorted(demand.values()))
    twins = None if steps > WORK_LIMIT else _twin_cut(core, cover, demand)
    return core, cover, demand, steps, twins


def count_emb_vc(h: Graph, g: Graph) -> int:
    """#Emb(h -> g) by summing anchored counts over the injective images of
    a minimum vertex cover of h that keep the cover's internal edges, one
    image per orbit of the twin swaps, times the orbit size.  Refused with
    PreconditionError when the placement recurrence runs more than
    WORK_LIMIT steps per anchor."""
    if h.directed or g.directed:
        raise PreconditionError("embedding counting is for undirected graphs")
    if h.n > g.n:
        return 0
    plan = _plan(h)
    if isinstance(plan, str):
        raise PreconditionError(plan)
    core, cover, demand, steps, twins = plan
    size = f"{steps:.3g}" if steps < inf else "more than 1e300"
    refuse_over_limit(steps, f"the vertex-cover count would run {size} recurrence "
                             f"steps per anchor over {len(demand)} demand classes")
    # isolated pattern vertices go injectively to whatever host vertices the
    # rest leaves free: one falling factorial, outside the plan
    loose = falling_factorial(g.n - core.n, h.n - core.n)
    placements = _placement_counter(demand)
    adj = [g.adj_mask(v) for v in range(g.n)]
    full = (1 << g.n) - 1
    # cover positions j < i adjacent to position i in the core
    earlier = [[j for j in range(i) if core.has_edge(cover[i], cover[j])]
               for i in range(len(cover))]
    # one anchor per orbit of the twin swaps: images rise along each class
    prev, weight = twins
    # Hall's condition, checked at position max(K): the vertices u with
    # K(u) >= K need distinct free common neighbours of K's images, and
    # later positions only take free vertices away
    halls: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in cover]
    for key in demand:
        need = sum(d for k, d in demand.items() if k & key == key)
        *before, last = iter_bits(key)
        halls[last].append((tuple(before), need))

    def candidates(i, image, used):
        free = full & ~used
        cand = free if prev[i] < 0 else free & -2 << image[prev[i]]
        for j in earlier[i]:
            cand &= adj[image[j]]
        for before, need in halls[i]:
            common = free
            for p in before:
                common &= adj[image[p]]
            for v in iter_bits(cand):
                if (common & adj[v]).bit_count() < need:
                    cand ^= 1 << v
        return cand

    image = [0] * len(cover)
    total = sum(placements(full & ~used, image, adj)
                for used in _placements(candidates, image, 0, 0, len(cover) - 1))
    return weight * loose * total


def count_sub_vc(h: Graph, g: Graph) -> int:
    """#Sub(h -> g) via the cover-driven embedding count."""
    return copies_from_embeddings(h, count_emb_vc(h, g))
