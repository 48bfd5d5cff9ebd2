"""Shared instance generators for the test suite.

All randomness flows through an explicit random.Random so every test is
reproducible from its seed.
"""

import random

from subcount.graphs import Graph


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
