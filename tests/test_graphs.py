import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from subcount import graphs
from subcount.graphs import Graph, PreconditionError, min_vertex_cover
from helpers import matching_number, petersen, rand_bipartite, rand_cubic, rand_graph


def test_rejects_loops_and_duplicates():
    with pytest.raises(PreconditionError):
        Graph(3, [(0, 0)])
    with pytest.raises(PreconditionError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(PreconditionError):
        Graph(2, [(0, 3)])


def test_undirected_edges_normalized():
    g = Graph(4, [(2, 0), (3, 1)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.has_edge(0, 2) and g.has_edge(2, 0)


def test_undirected_out_and_in_masks_are_the_adjacency():
    p3 = Graph.path(3)
    assert p3.out_mask(1) == p3.in_mask(1) == p3.adj_mask(1) == 0b101
    # a directed graph keeps them apart
    d = Graph(3, [(2, 0), (0, 1)], directed=True)
    assert (d.out_mask(0), d.in_mask(0), d.adj_mask(0)) == (0b010, 0b100, 0b110)


def test_directed_keeps_orientation():
    d = Graph(3, [(2, 0), (0, 1)], directed=True)
    assert d.has_edge(2, 0) and not d.has_edge(0, 2)
    assert set(d.neighbors(0)) == {1, 2}


def test_induced_relabels_and_keeps_colors():
    g = Graph(5, [(0, 1), (1, 3), (3, 4)], vcolors=[9, 8, 7, 6, 5],
              ecolors=[1, 2, 3])
    h = g.induced([1, 3, 4])
    assert h.n == 3
    assert h.edges == ((0, 1), (1, 2))
    assert h.vcolors == (8, 6, 5)
    assert h.ecolors == (2, 3)


def test_without_edges_keeps_vertex_set():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = g.without_edges([(2, 1)])
    assert h.n == 4
    assert h.edges == ((0, 1), (2, 3))


def test_components_and_isolated():
    g = Graph(6, [(0, 1), (2, 3)])
    assert g.components() == [[0, 1], [2, 3], [4], [5]]
    assert g.isolated_vertices() == [4, 5]


def test_bipartition_convention():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.bipartition() == ([0, 2], [1, 3])
    assert Graph.cycle(5).bipartition() is None
    assert Graph.cycle(6).is_bipartite()


def test_stock_graphs():
    assert Graph.complete(4).m == 6
    assert Graph.path(4).edges == ((0, 1), (1, 2), (2, 3))
    assert Graph.star(3).degree(0) == 3
    assert Graph.matching(3).m == 3
    assert Graph.complete_bipartite(2, 3).m == 6


# -- vertex cover -------------------------------------------------------

def test_cover_basics():
    assert min_vertex_cover(Graph.empty(4)) == (0, ())
    assert min_vertex_cover(Graph.star(5)) == (1, (0,))
    size, w = min_vertex_cover(Graph.complete(4))
    assert size == 3 and w == (0, 1, 2)
    assert min_vertex_cover(Graph.cycle(5))[0] == 3
    assert min_vertex_cover(petersen())[0] == 6


def test_cover_witness_is_lex_least():
    # P4 has optimum covers {0,2}, {1,2}, {1,3}; (0,2) sorts first.
    size, w = min_vertex_cover(Graph.path(4))
    assert (size, w) == (2, (0, 2))


def _is_cover(g, w):
    s = set(w)
    return all(u in s or v in s for (u, v) in g.edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 28 - 1))
def test_cover_witness_valid_and_minimal(seed):
    rng = random.Random(seed)
    g = rand_graph(rng, rng.randint(1, 9), rng.random())
    size, w = min_vertex_cover(g)
    assert len(w) == size
    assert _is_cover(g, w)
    # no strictly smaller cover exists
    from itertools import combinations
    for small in combinations(range(g.n), size - 1) if size else ():
        assert not _is_cover(g, small)
    # and the witness is the first optimum cover in lexicographic order
    assert w == next(c for c in combinations(range(g.n), size) if _is_cover(g, c))


def test_cover_of_long_paths_and_cycles():
    # a degree-1 vertex's neighbour is taken without branching, so paths and
    # (after one branch) cycles are peeled in a loop
    t0 = time.perf_counter()
    assert min_vertex_cover(Graph.path(60)) == (30, tuple(range(0, 60, 2)))
    assert time.perf_counter() - t0 < 1
    assert min_vertex_cover(Graph.cycle(300))[0] == 150


def test_cover_of_paths_and_cycles_longer_than_the_recursion_limit():
    # the peel takes one pendant step per loop turn, not per stack frame
    assert min_vertex_cover(Graph.path(2100)) == (1050, tuple(range(0, 2100, 2)))
    assert min_vertex_cover(Graph.cycle(2101)) == (1051, (0, *range(1, 2100, 2)))


def _restart_cover_size(adj, active, memo):
    # the cover search whose peel scan restarts from the lowest vertex after
    # every peel: the reference for the peel that looks again only at the
    # peeled neighbour's neighbours
    cached = memo.get(active)
    if cached is not None:
        return cached
    start, peeled = active, 0
    best_v, best_deg, m = -1, 0, active
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        nv = adj[v] & active
        d = nv.bit_count()
        if d == 1:
            peeled += 1
            active &= ~(nv | low)
            best_v, best_deg, m = -1, 0, active
        elif d == 0:
            active ^= low
        elif d > best_deg:
            best_v, best_deg = v, d
    res = memo.get(active) if best_deg else 0
    if res is None:
        nv = adj[best_v] & active
        take_v = 1 + _restart_cover_size(adj, active & ~(1 << best_v), memo)
        take_nb = best_deg + _restart_cover_size(adj, active & ~(nv | (1 << best_v)), memo)
        res = memo[active] = min(take_v, take_nb)
    memo[start] = peeled + res
    return peeled + res


def test_cover_peel_matches_the_restarting_scan():
    # the same size and the same memo, state by state, as the restarting
    # scan on 2,000 seeded graphs, random cubic graphs and long paths, cycles
    # and stars, so the search stores the same states and is refused at the
    # same point
    rng = random.Random(3030)
    corpus = [rand_graph(rng, rng.randint(0, 20), rng.choice([0.05, 0.1, 0.2, 0.4, 0.7]))
              for _ in range(2000)]
    corpus += [rand_cubic(rng, n) for n in (10, 20, 30, 40)]
    corpus += [Graph.path(300), Graph.cycle(301), Graph.star(60), Graph.matching(80)]
    for g in corpus:
        full = (1 << g.n) - 1
        adj = [g.adj_mask(v) for v in range(g.n)]
        want, got = {}, {}
        assert (graphs._cover_size(adj, full, got)
                == _restart_cover_size(adj, full, want))
        assert got == want


# -- cover against matching ----------------------------------------------
# nu, the maximum matching size, comes from networkx, since the package
# searches tau only; nu <= tau <= 2 nu, with equality on bipartite graphs
# (Koenig)

def test_matching_basics():
    for g, nu, tau in ((Graph.empty(3), 0, 0), (Graph.path(4), 2, 2),
                       (Graph.cycle(6), 3, 3), (Graph.star(4), 1, 1),
                       (petersen(), 5, 6)):
        assert matching_number(g) == nu
        assert min_vertex_cover(g)[0] == tau
        assert nu <= tau <= 2 * nu


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 28 - 1))
def test_matching_vs_cover_bounds(seed):
    rng = random.Random(seed)
    g = rand_graph(rng, rng.randint(1, 9), rng.random())
    nu = matching_number(g)
    tau = min_vertex_cover(g)[0]
    assert nu <= tau <= 2 * nu
    if g.is_bipartite():
        assert nu == tau  # Koenig


def test_koenig_on_sparse_bipartite_graphs_and_trees():
    # tau == nu on bipartite graphs of up to 40 vertices, where exhaustive
    # cover checks are out of reach; trees and sparse hosts are full of
    # degree-1 vertices
    rng = random.Random(2024)
    for i in range(200):
        n = rng.randint(2, 40)
        if i % 2:
            g = Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
        else:
            a = rng.randint(1, n - 1)
            g = rand_bipartite(rng, a, n - a, rng.uniform(0.02, 3 / max(a, n - a)))
        assert min_vertex_cover(g)[0] == matching_number(g)


def test_koenig_on_dense_bipartite_graphs():
    # dense hosts, out of reach of an exhaustive matching search: networkx's
    # blossom algorithm gives nu, and the cover search takes a few ms on the
    # 20+20 host at p = .4
    g = rand_bipartite(random.Random(1), 20, 20, 0.4)
    t0 = time.perf_counter()
    assert min_vertex_cover(g)[0] == 20
    assert time.perf_counter() - t0 < 1
    assert matching_number(g) == 20
    rng = random.Random(20)
    for _ in range(60):
        a, b = rng.randint(10, 20), rng.randint(10, 20)
        g = rand_bipartite(rng, a, b, rng.uniform(0.1, 0.6))
        assert min_vertex_cover(g)[0] == matching_number(g)
