import math
import random
import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from subcount import brute
from subcount.brute import (_search_order, automorphism_count,
                            count_colorful_matchings,
                            count_colorpreserving_subgraphs, count_embeddings,
                            count_matchings, count_subgraphs,
                            count_walk_patterns, find_embedding, is_isomorphic)
from subcount.graphs import Graph, PreconditionError
from helpers import (colorful, petersen, rand_cubic, rand_digraph, rand_edge_colored,
                     rand_graph, rand_vertex_colored)


def test_automorphisms_of_standard_graphs():
    assert automorphism_count(Graph.complete(4)) == 24
    assert automorphism_count(Graph.cycle(5)) == 10
    assert automorphism_count(Graph.path(4)) == 2
    for k in range(7):  # the last two positions are one matching edge,
        # counted once per used set
        assert automorphism_count(Graph.matching(k)) == 2 ** k * math.factorial(k)
    assert automorphism_count(petersen()) == 120


def test_embeddings_and_subgraphs():
    k3, k4 = Graph.complete(3), Graph.complete(4)
    assert count_embeddings(k3, k4) == 24
    assert count_subgraphs(k3, k4) == 4
    assert count_subgraphs(Graph.cycle(4), k4) == 3
    assert count_subgraphs(Graph.path(3), k4) == 12
    assert count_subgraphs(Graph.cycle(5), petersen()) == 12
    assert count_subgraphs(Graph.cycle(6), petersen()) == 10
    assert count_embeddings(k4, k3) == 0


def test_anchored_embeddings():
    k4 = Graph.complete(4)
    p3 = Graph.path(3)
    total = count_embeddings(p3, k4)
    split = sum(count_embeddings(p3, k4, anchor={1: v}) for v in range(4))
    assert total == split
    assert count_embeddings(p3, k4, anchor={0: 2, 2: 2}) == 0


def test_embedding_is_not_induced():
    # P3 embeds into K3 even though K3 has the extra closing edge.
    assert count_embeddings(Graph.path(3), Graph.complete(3)) == 6


def _reference_search_order(h, pinned=()):
    # the direct formula: rescan every unplaced vertex's neighbors per step
    order = list(pinned)
    placed = set(order)
    while len(order) < h.n:
        best = max((v for v in range(h.n) if v not in placed),
                   key=lambda v: (sum(1 for u in h.neighbors(v) if u in placed),
                                  h.degree(v), -v))
        order.append(best)
        placed.add(best)
    return order


def test_search_order_matches_direct_formula():
    rng = random.Random(606)
    for _ in range(300):
        n = rng.randint(1, 10)
        h = rand_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.9]))
        assert _search_order(h) == _reference_search_order(h)
        pinned = rng.sample(range(n), rng.randint(0, n))
        assert _search_order(h, pinned) == _reference_search_order(h, pinned)


def _scan_search_order(h, pinned=()):
    # the greedy order by a max over every unplaced vertex at each step,
    # quadratic in |V(h)|: the reference for brute's bucket order
    order = list(pinned)
    back = [0] * h.n
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


def test_search_order_heap_matches_the_max_scan():
    rng = random.Random(2929)
    for _ in range(3000):
        n = rng.randint(1, 14)
        h = rand_graph(rng, n, rng.choice([0.1, 0.25, 0.5, 0.8]))
        pinned = rng.sample(range(n), min(n, rng.randint(0, 3)))
        assert _search_order(h, pinned) == _scan_search_order(h, pinned)
    for h in (Graph.matching(300), Graph.path(400), Graph.cycle(300), Graph.star(300),
              Graph.complete_bipartite(20, 30), petersen()):
        assert _search_order(h) == _scan_search_order(h)
        assert _search_order(h, [h.n - 1]) == _scan_search_order(h, [h.n - 1])


def test_find_embedding_and_isomorphism():
    assert find_embedding(Graph.cycle(4), Graph.complete_bipartite(2, 2)) is not None
    assert is_isomorphic(Graph.cycle(4), Graph.complete_bipartite(2, 2))
    assert not is_isomorphic(Graph.cycle(6), Graph.matching(3))
    assert not is_isomorphic(Graph.path(4), Graph.star(3))
    a = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph(4, [(2, 0), (0, 3), (3, 1)])
    assert is_isomorphic(a, b)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # a path of 1200 vertices places 1198 positions before its last pair
    p = Graph.path(1200)
    assert count_embeddings(p, p) == 2
    assert find_embedding(p, p) in (tuple(range(1200)), tuple(range(1199, -1, -1)))
    assert is_isomorphic(p, p)
    # the special counters walk the same stack: one level per matching
    # edge, colour class or walk vertex
    assert count_matchings(Graph.matching(1000), 1000) == 1
    assert count_walk_patterns(Graph.cycle(1100), "cycle", 1100) == 1
    ring = Graph(1100, [(i, (i + 1) % 1100) for i in range(1100)], directed=True)
    assert count_walk_patterns(ring, "cycle", 1100) == 1
    assert count_walk_patterns(Graph.path(1100), "path", 1099) == 1
    perfect = Graph.matching(1000).with_edge_colors(list(range(1000)))
    assert count_colorful_matchings(perfect, range(1000)) == 1


def test_colorpreserving_copies():
    h = colorful(Graph.complete(3))  # triangle colored 1,2,3
    g1 = Graph.complete(3).with_vertex_colors([1, 2, 3])
    g2 = Graph.complete(3).with_vertex_colors([1, 1, 2])
    g3 = Graph.complete(4).with_vertex_colors([1, 2, 3, 3])
    assert count_colorpreserving_subgraphs(h, g1) == 1
    assert count_colorpreserving_subgraphs(h, g2) == 0
    assert count_colorpreserving_subgraphs(h, g3) == 2
    with pytest.raises(PreconditionError):
        count_colorpreserving_subgraphs(Graph.complete(3).with_vertex_colors([1, 1, 2]), g1)


def test_colorful_matchings_small():
    g = Graph.path(4).with_edge_colors([1, 2, 1])
    assert count_colorful_matchings(g, [1]) == 2
    assert count_colorful_matchings(g, [2]) == 1
    assert count_colorful_matchings(g, [1, 2]) == 0  # color-2 edge blocks both
    assert count_colorful_matchings(g, []) == 1
    assert count_colorful_matchings(g, [5]) == 0
    star = Graph.star(3).with_edge_colors([0, 1, 2])
    assert count_colorful_matchings(star, [0, 1]) == 0
    assert count_colorful_matchings(star, [2]) == 1


def test_count_matchings_values():
    assert count_matchings(Graph.cycle(6), 3) == 2
    assert count_matchings(Graph.cycle(5), 2) == 5
    assert count_matchings(Graph.complete(4), 2) == 3
    assert count_matchings(Graph.empty(5), 0) == 1
    assert count_matchings(Graph.empty(5), 1) == 0
    assert count_matchings(petersen(), 5) == 6  # perfect matchings of Petersen
    assert count_matchings(petersen(), 6) == 0  # 12 vertices > 10


def test_walk_pattern_counts():
    k4 = Graph.complete(4)
    assert count_walk_patterns(k4, "path", 1) == 6
    assert count_walk_patterns(k4, "path", 2) == 12
    assert count_walk_patterns(k4, "cycle", 3) == 4
    assert count_walk_patterns(k4, "cycle", 4) == 3
    assert count_walk_patterns(k4, "cycle", 5) == 0  # more vertices than k4
    assert count_walk_patterns(k4, "path", 3) == 12
    assert count_walk_patterns(k4, "path", 4) == 0
    assert count_walk_patterns(Graph.path(4), "path", 3) == 1
    assert count_walk_patterns(Graph.cycle(5), "cycle", 5) == 1
    with pytest.raises(PreconditionError):
        count_walk_patterns(k4, "cycle", 2)
    with pytest.raises(PreconditionError):
        count_walk_patterns(k4, "trail", 2)


def test_directed_walk_patterns():
    two = Graph(2, [(0, 1), (1, 0)], directed=True)
    assert count_walk_patterns(two, "cycle", 2) == 1
    assert count_walk_patterns(two, "path", 1) == 2
    tri = Graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    assert count_walk_patterns(tri, "cycle", 3) == 1
    assert count_walk_patterns(tri, "cycle", 2) == 0
    # complete digraph on 3 vertices: both 3-cycles, three 2-cycles
    full = Graph(3, [(i, j) for i in range(3) for j in range(3) if i != j],
                 directed=True)
    assert count_walk_patterns(full, "cycle", 3) == 2
    assert count_walk_patterns(full, "cycle", 2) == 3
    assert count_walk_patterns(full, "cycle", 4) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 28 - 1))
def test_paths_and_cycles_agree_with_subgraph_counts(seed):
    rng = random.Random(seed)
    g = rand_graph(rng, rng.randint(2, 8), rng.random())
    for k in (1, 2, 3):
        assert count_walk_patterns(g, "path", k) == count_subgraphs(Graph.path(k + 1), g)
    for k in (3, 4, 5):
        assert count_walk_patterns(g, "cycle", k) == count_subgraphs(Graph.cycle(k), g)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 28 - 1))
def test_matchings_agree_with_subgraph_counts(seed):
    rng = random.Random(seed)
    g = rand_graph(rng, rng.randint(2, 8), rng.random())
    for k in (1, 2, 3):
        assert count_matchings(g, k) == count_subgraphs(Graph.matching(k), g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 28 - 1))
def test_colorful_matchings_vs_direct_enumeration(seed):
    from itertools import combinations
    rng = random.Random(seed)
    g = rand_edge_colored(rng, rng.randint(2, 7), rng.random(), 3)
    want = sorted(rng.sample([0, 1, 2], rng.randint(0, 3)))
    direct = 0
    for size in [len(want)]:
        for combo in combinations(range(g.m), size):
            used = set()
            ok = True
            cols = []
            for ei in combo:
                (u, v) = g.edges[ei]
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
                cols.append(g.ecolors[ei])
            if ok and sorted(cols) == want:
                direct += 1
    assert count_colorful_matchings(g, want) == direct


def test_embedding_color_respect_requires_colors():
    with pytest.raises(PreconditionError):
        count_embeddings(Graph.path(2), Graph.path(3), respect_colors=True)


# -- edge cases of the last search level ---------------------------------------


def test_empty_and_one_vertex_patterns():
    g = Graph.path(4).with_vertex_colors([1, 2, 2, 3])
    assert count_embeddings(Graph.empty(0), g) == 1
    assert count_embeddings(Graph.empty(0), Graph.empty(0)) == 1
    # position 0 is also the last level
    assert count_embeddings(Graph.empty(1), g) == 4
    assert count_embeddings(Graph.empty(1).with_vertex_colors([2]), g,
                            respect_colors=True) == 2
    assert count_embeddings(Graph.empty(1), g, anchor={0: 3}) == 1


def test_two_vertex_patterns():
    # positions 0 and 1 are the last two, so the pair step is the whole search
    k2, two = Graph.path(2), Graph.empty(2)
    g = Graph.path(4).with_vertex_colors([1, 2, 2, 3])
    assert count_embeddings(k2, g) == 6  # 3 edges, both directions
    assert count_embeddings(two, g) == 12  # 4 * 3 ordered pairs
    assert count_embeddings(k2, Graph.empty(5)) == 0
    assert count_embeddings(two, Graph.empty(1)) == 0
    assert count_embeddings(k2.with_vertex_colors([1, 2]), g, respect_colors=True) == 1
    assert count_embeddings(two.with_vertex_colors([2, 3]), g, respect_colors=True) == 2
    assert count_embeddings(two.with_vertex_colors([2, 2]), g, respect_colors=True) == 2
    assert count_embeddings(k2.with_vertex_colors([2, 2]), g, respect_colors=True) == 2


def test_non_adjacent_last_pair_in_a_one_vertex_class():
    # the last two positions are non-adjacent and both may only go to host
    # vertex 3: the product 1 * 1 must lose the shared vertex, leaving 0
    h = Graph(4, [(0, 1)]).with_vertex_colors([1, 2, 3, 3])
    g = Graph.complete(5).with_vertex_colors([1, 2, 1, 3, 2])
    order = _search_order(h)
    assert {order[-2], order[-1]} == {2, 3}
    assert count_embeddings(h, g, respect_colors=True) == 0
    assert count_embeddings(h, g, respect_colors=True, anchor={0: 0}) == 0
    assert count_embeddings(h, g, respect_colors=True, anchor={0: 0, 1: 1}) == 0
    # with a second vertex in the class the two can be placed both ways
    g2 = g.with_vertex_colors([1, 2, 3, 3, 2])
    assert count_embeddings(h, g2, respect_colors=True) == 2 * 2


def test_fully_anchored_pattern():
    # every search position is pinned, so the last one is anchored too
    p3, k4 = Graph.path(3), Graph.complete(4)
    assert count_embeddings(p3, k4, anchor={0: 3, 1: 0, 2: 2}) == 1
    assert count_embeddings(p3, Graph.path(4), anchor={0: 0, 1: 1, 2: 2}) == 1
    assert count_embeddings(p3, Graph.path(4), anchor={0: 0, 1: 1, 2: 3}) == 0
    assert count_embeddings(p3, Graph.path(4), anchor={0: 0, 1: 2, 2: 3}) == 0


def test_pattern_color_missing_from_host():
    g = Graph.complete(4).with_vertex_colors([1, 1, 2, 2])
    h = Graph.path(3).with_vertex_colors([1, 3, 2])
    assert count_embeddings(h, g, respect_colors=True) == 0
    assert count_embeddings(h.with_vertex_colors([1, 2, 1]), g, respect_colors=True) == 4
    assert find_embedding(h, g, respect_colors=True) is None


def test_matching_sizes_at_the_ends():
    for g in (Graph.cycle(6), petersen(), Graph.empty(3), Graph.complete(5)):
        assert count_matchings(g, 0) == 1
        assert count_matchings(g, g.n // 2 + 1) == 0
    assert count_matchings(Graph.complete(5), 3) == 0  # above the maximum of 2
    with pytest.raises(PreconditionError):
        count_matchings(Graph.cycle(4), -1)


def test_colorful_matchings_with_an_edgeless_color():
    g = Graph.cycle(6).with_edge_colors([0, 1, 0, 1, 0, 2])
    assert count_colorful_matchings(g, [0, 1]) == 2
    assert count_colorful_matchings(g, [0, 1, 7]) == 0
    assert count_colorful_matchings(g, [7, 0]) == 0
    with pytest.raises(PreconditionError):
        count_colorful_matchings(g, [0, 0])


def test_walk_pattern_leaf_bounds():
    # the closing step of a directed 2-cycle is the first step
    one_way = Graph(2, [(0, 1)], directed=True)
    assert count_walk_patterns(one_way, "cycle", 2) == 0
    mixed = Graph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)], directed=True)
    assert count_walk_patterns(mixed, "cycle", 2) == 2
    assert count_walk_patterns(mixed, "cycle", 3) == 1
    # an undirected triangle is counted once, not once per direction
    assert count_walk_patterns(Graph.complete(3), "cycle", 3) == 1
    assert count_walk_patterns(Graph.complete(3), "path", 2) == 3


# -- an outside oracle: networkx -------------------------------------------------


def _to_nx(nx, g):
    G = nx.DiGraph() if g.directed else nx.Graph()
    G.add_nodes_from(range(g.n))
    for v, c in enumerate(g.vcolors or ()):
        G.nodes[v]["color"] = c
    G.add_edges_from(g.edges)
    return G


def test_embeddings_agree_with_networkx_monomorphisms():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    same_color = lambda a, b: a["color"] == b["color"]
    rng = random.Random(2024)
    for _ in range(80):
        g = rand_vertex_colored(rng, rng.randint(3, 9), rng.uniform(0.2, 0.8), 3)
        h = rand_vertex_colored(rng, rng.randint(1, 5), rng.uniform(0.3, 0.9), 3)
        G, H = _to_nx(nx, g), _to_nx(nx, h)
        plain = sum(1 for _ in GraphMatcher(G, H).subgraph_monomorphisms_iter())
        colored = sum(1 for _ in GraphMatcher(G, H, node_match=same_color)
                      .subgraph_monomorphisms_iter())
        assert count_embeddings(h, g) == plain
        assert count_embeddings(h, g, respect_colors=True) == colored
        assert (find_embedding(h, g) is not None) == (plain > 0)
        hv = rng.randrange(h.n)
        for respect in (False, True):
            split = sum(count_embeddings(h, g, respect_colors=respect, anchor={hv: gv})
                        for gv in range(g.n))
            assert split == (colored if respect else plain)


def test_last_two_levels_agree_with_networkx_monomorphisms():
    # the last two search positions are counted by masks; check them against
    # an outside enumerator on patterns whose last pair is adjacent and on
    # patterns whose last pair is not, unanchored and with anchors leaving
    # exactly two positions free or one
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    rng = random.Random(1515)
    named = [Graph.matching(2), Graph.matching(3), Graph(3, [(0, 1)]),
             Graph(5, [(0, 1), (1, 2), (3, 4)]), Graph.path(2), Graph.empty(2)]
    patterns = named + [rand_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.9))
                        for _ in range(30)]
    last_pairs = set()
    for h in patterns:
        h = h.with_vertex_colors([rng.randint(1, 3) for _ in range(h.n)])
        g = rand_vertex_colored(rng, rng.randint(h.n, 10), rng.uniform(0.3, 0.8), 3)
        # every monomorphism as the image tuple image[h_v] = g_v
        maps = [tuple(sorted(m, key=m.get)) for m in
                GraphMatcher(_to_nx(nx, g), _to_nx(nx, h)).subgraph_monomorphisms_iter()]
        colored = [im for im in maps
                   if all(h.vcolors[v] == g.vcolors[im[v]] for v in range(h.n))]
        assert count_embeddings(h, g) == len(maps)
        assert count_embeddings(h, g, respect_colors=True) == len(colored)
        order = _search_order(h)
        last_pairs.add(h.has_edge(order[-2], order[-1]))
        for free in (2, 1):
            for _ in range(4):
                pinned = rng.sample(range(h.n), h.n - free)
                # half the anchors come from a monomorphism, so some are nonzero
                image = (rng.choice(maps) if maps and rng.random() < 0.5
                         else rng.sample(range(g.n), h.n))
                anchor = {v: image[v] for v in pinned}
                for respect, pool in ((False, maps), (True, colored)):
                    want = sum(1 for im in pool if all(im[v] == gv for v, gv in anchor.items()))
                    assert count_embeddings(h, g, respect_colors=respect,
                                            anchor=anchor) == want
                if free == 2:
                    order = _search_order(h, sorted(anchor))
                    last_pairs.add(h.has_edge(order[-2], order[-1]))
    assert last_pairs == {True, False}


def _planted_host(rng, h, n):
    """A host on n vertices coloured 1 or 2: a copy of the coloured h on
    random vertices, and n/3 to n/2 more random edges, sparse enough that
    networkx lists every monomorphism of a 3-matching in under a second.
    Raises ValueError when n vertices cannot hold that many edges."""
    at = rng.sample(range(n), h.n)
    edges = {tuple(sorted((at[u], at[v]))) for u, v in h.edges}
    extra = rng.randint(n // 3, n // 2)
    if h.m + extra > math.comb(n, 2):
        raise ValueError(f"{n} vertices cannot hold {h.m} + {extra} edges")
    while len(edges) < h.m + extra:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    colors = [rng.randint(1, 2) for _ in range(n)]
    for v in range(h.n):
        colors[at[v]] = h.vcolors[v]
    return Graph(n, sorted(edges)).with_vertex_colors(colors)


def test_planted_host_refuses_a_host_too_small_for_its_edges():
    # K3 on 3 vertices and K4 on 4 leave no room for the n // 3 extra edges:
    # each raises at once, seed for seed, where the edge loop would never end
    for k in (3, 4):
        h = Graph.complete(k).with_vertex_colors([1] * k)
        for seed in range(20):
            with pytest.raises(ValueError, match="cannot hold"):
                _planted_host(random.Random(seed), h, k)
    # with room to spare the host holds the copy and its extra edges
    h = Graph.complete(3).with_vertex_colors([1, 2, 2])
    g = _planted_host(random.Random(0), h, 12)
    assert 3 + 4 <= g.m <= 3 + 6 and count_embeddings(h, g, respect_colors=True) >= 2


def _last_pair_shape(h, pinned):
    """How the search ends: in a K2 or 2K1 component of h, in a pendant pair
    (the last vertex's only neighbor is the last-but-one) that is not a
    component, or otherwise."""
    a, b = _search_order(h, pinned)[-2:]
    if not (h.adj_mask(a) | h.adj_mask(b)) & ~(1 << a | 1 << b):
        return "component"
    return "pendant" if h.adj_mask(b) == 1 << a else "other"


def test_pendant_last_pair_agrees_with_networkx_monomorphisms(monkeypatch):
    # a search ending in a K2 component counts its last pair by the degree
    # bit planes when the last-but-one position has more candidates than the
    # plane sum costs, and by one popcount per candidate otherwise; and a
    # last pair that is a K2 or 2K1 component of h is counted once per used
    # set.  A pendant pair that is not a component reads the image of an
    # earlier position, so counting it once per used set would be wrong for
    # the tadpole (K3 with a 2-vertex tail) and for P5 anchored at an end;
    # P4 and K_{1,3} end in such a pair only when anchored, with too few
    # positions walked for two placements to share a used set.  Check all
    # of them against an outside enumerator, plain, coloured and anchored
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    k2, k3 = Graph.path(2), Graph.complete(3)
    tadpole = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])
    patterns = [Graph.matching(2), Graph.matching(3),
                k3.disjoint_union(k2), Graph.path(3).disjoint_union(k2),
                Graph.star(3).disjoint_union(k2),
                Graph.cycle(4).disjoint_union(Graph.matching(2)),
                Graph.cycle(4).disjoint_union(Graph.empty(2)),
                k3.disjoint_union(Graph.empty(2)),
                Graph.path(4), Graph.star(3), Graph.path(5), tadpole]
    branches = Counter()  # plane sum chosen: True / False
    shapes = Counter()
    search_plan = brute._search_plan

    def spy(h, g, respect_colors, pinned=(), plan=None):
        order, candidates, count_last_two = search_plan(h, g, respect_colors, pinned, plan)
        if h.n < 2 or set(h.neighbors(order[-1])) != {order[-2]}:  # not pendant
            return order, candidates, count_last_two
        ends = [x for x in range(g.n) if not respect_colors
                or g.vcolors[x] == h.vcolors[order[-1]]]
        d = max(sum(g.has_edge(x, y) for y in ends) for x in range(g.n))
        cutoff = d.bit_length() + h.n - 2

        def counted(image, used):
            branches[candidates(h.n - 2, image, used).bit_count() > cutoff] += 1
            return count_last_two(image, used)
        return order, candidates, counted

    monkeypatch.setattr(brute, "_search_plan", spy)
    rng = random.Random(2317)
    for pattern in patterns:
        for _ in range(3):
            h = pattern.with_vertex_colors([rng.randint(1, 2) for _ in range(pattern.n)])
            g = _planted_host(rng, h, rng.randint(12, 22))
            maps = [tuple(sorted(m, key=m.get)) for m in
                    GraphMatcher(_to_nx(nx, g), _to_nx(nx, h)).subgraph_monomorphisms_iter()]
            colored = [im for im in maps
                       if all(h.vcolors[v] == g.vcolors[im[v]] for v in range(h.n))]
            shapes[_last_pair_shape(h, ())] += 1
            assert count_embeddings(h, g) == len(maps)
            assert count_embeddings(h, g, respect_colors=True) == len(colored)
            for pool in (maps, colored):
                for _ in range(3):
                    # one or two anchors, from a monomorphism when there is one
                    image = rng.choice(pool) if pool else rng.sample(range(g.n), h.n)
                    pinned = rng.sample(range(h.n), rng.randint(1, 2))
                    anchor = {v: image[v] for v in pinned}
                    if len(pinned) <= h.n - 3:  # positions are left to walk
                        shapes[_last_pair_shape(h, sorted(pinned))] += 1
                    for respect, among in ((False, maps), (True, colored)):
                        want = sum(1 for im in among
                                   if all(im[v] == gv for v, gv in anchor.items()))
                        assert count_embeddings(h, g, respect_colors=respect,
                                                anchor=anchor) == want
        # in #Aut(h) the last-but-one position has only two candidates left
        H = _to_nx(nx, pattern)
        assert count_embeddings(pattern, pattern) == sum(
            1 for _ in GraphMatcher(H, H).isomorphisms_iter())
    assert branches[True] and branches[False]
    assert shapes.keys() == {"component", "pendant", "other"}


def test_component_last_pair_store_is_capped(monkeypatch):
    # 3K2 in G(26, .3) ends in a K2 component; with the store of per-set
    # counts capped at 8, the first 8 used sets are counted once and every
    # later set at each placement that yields it, and the count stays put
    g = rand_graph(random.Random(26), 26, 0.3)
    h = Graph.matching(3)
    order, candidates, _ = brute._search_plan(h, g, False)
    sets = Counter(brute._placements(candidates, [0] * h.n, 0, 0, h.n - 3))
    calls = []
    search_plan = brute._search_plan

    def spy(h, g, respect_colors, pinned=(), plan=None):
        order, candidates, count_last_two = search_plan(h, g, respect_colors, pinned, plan)

        def counted(image, used):
            calls.append(used)
            return count_last_two(image, used)
        return order, candidates, counted

    monkeypatch.setattr(brute, "_search_plan", spy)
    want = 48 * count_matchings(g, 3)
    assert count_embeddings(h, g) == want
    assert len(calls) == len(sets) > 8
    calls.clear()
    monkeypatch.setattr(brute, "WORK_LIMIT", 8)
    assert count_embeddings(h, g) == want
    assert len(calls) == 8 + sum(list(sets.values())[8:])


def test_pendant_planes_count_a_dense_last_pair(monkeypatch):
    # M3 in G(26, .3): the last-but-one position always has more candidates
    # than the plane sum costs, so no last pair is counted one candidate at
    # a time, and the count stays put
    g = rand_graph(random.Random(26), 26, 0.3)
    want = 48 * count_matchings(g, 3)

    def never(*args):
        raise AssertionError("a pendant last pair must be counted by its bit planes")

    monkeypatch.setattr(brute, "_pair_count", never)
    assert count_embeddings(Graph.matching(3), g) == want


def test_cycles_agree_with_networkx_simple_cycles():
    nx = pytest.importorskip("networkx")
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 8)
        for g, ks in ((rand_graph(rng, n, rng.uniform(0.3, 0.9)), range(3, 8)),
                      (rand_digraph(rng, n, rng.uniform(0.2, 0.6)), range(2, 7))):
            lengths = Counter(len(c) for c in nx.simple_cycles(_to_nx(nx, g),
                                                               length_bound=max(ks)))
            for k in ks:
                assert count_walk_patterns(g, "cycle", k) == lengths[k]


def test_matchings_agree_with_direct_enumeration():
    # count_matchings counts its last two edges by vertex degrees when the
    # available edges outnumber the vertices with edges plus a digraph's
    # antiparallel pairs, and per edge otherwise; at k = 2 every edge is
    # available, so the corpus reaches both rules on graphs and digraphs
    rng = random.Random(5)
    by_degrees = set()
    for trial in range(60):
        n = rng.randint(2, 9)
        g = (rand_digraph(rng, n, rng.uniform(0.2, 0.6)) if trial % 2
             else rand_graph(rng, n, rng.uniform(0.2, 0.8)))
        busy = sum(1 for v in range(n) if g.adj_mask(v))
        twins = sum(1 for u, v in g.edges if g.directed and u < v and g.has_edge(v, u))
        by_degrees.add((g.directed, g.m > busy + twins))
        for k in range(5):
            direct = sum(1 for combo in combinations(g.edges, k)
                         if len({v for e in combo for v in e}) == 2 * k)
            assert count_matchings(g, k) == direct
    assert by_degrees == {(False, True), (False, False), (True, True), (True, False)}
    # antiparallel arcs share both endpoints
    assert count_matchings(Graph(2, [(0, 1), (1, 0)], directed=True), 1) == 2
    assert count_matchings(Graph(4, [(0, 1), (1, 0), (2, 3)], directed=True), 2) == 2


# -- the special counters' masked last two levels ---------------------------------
# count_matchings, count_walk_patterns and count_colorful_matchings count their
# last two levels by masks.  Each check below starts at the k where the masked
# level is the search's first (2-matchings, 2-edge paths, 4-cycles undirected,
# 3-cycles directed, colourful matchings of 2 colours) and goes up to k = n
# (paths and cycles) or n/2 (matchings).  References: the embedding search,
# on the host itself or on a vertex-coloured gadget that carries arc
# directions or edge colours, and networkx for cycles.

_VERTEX, _TAIL, _HEAD = -1, -2, -3


def _arc_gadget(g):
    """The digraph g as an undirected vertex-coloured graph: each arc u -> v
    becomes a path u - t - h - v, with t coloured _TAIL and h _HEAD, and g's
    own vertices coloured _VERTEX.  Colour-respecting embeddings of one
    digraph's gadget into another's are the embeddings of the digraphs."""
    edges = []
    for i, (u, v) in enumerate(g.edges):
        t, h = g.n + 2 * i, g.n + 2 * i + 1
        edges += [(u, t), (t, h), (h, v)]
    return Graph(g.n + 2 * g.m, edges,
                 vcolors=[_VERTEX] * g.n + [_TAIL, _HEAD] * g.m)


def _edge_colour_gadget(g):
    """The edge-coloured g with each edge subdivided by a vertex of the
    edge's colour, and g's own vertices coloured _VERTEX."""
    edges = []
    for i, (u, v) in enumerate(g.edges):
        edges += [(u, g.n + i), (g.n + i, v)]
    return Graph(g.n + g.m, edges, vcolors=[_VERTEX] * g.n + list(g.ecolors))


def _cycle_lengths(nx, g):
    return Counter(len(c) for c in nx.simple_cycles(_to_nx(nx, g), length_bound=g.n))


def test_masked_counters_agree_with_subgraph_counts_and_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2222)
    for _ in range(300):
        n = rng.randint(2, 8)
        g = rand_graph(rng, n, rng.uniform(0.2, 0.9))
        for k in range(2, n + 1):
            assert count_walk_patterns(g, "path", k) == count_subgraphs(Graph.path(k + 1), g)
        lengths = _cycle_lengths(nx, g)
        for k in range(4, n + 1):
            cycles = count_walk_patterns(g, "cycle", k)
            assert cycles == count_subgraphs(Graph.cycle(k), g) == lengths[k]
        for k in range(2, n // 2 + 1):
            assert count_matchings(g, k) == count_subgraphs(Graph.matching(k), g)


def test_masked_directed_counters_agree_with_arc_gadgets_and_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3333)
    for _ in range(300):
        n = rng.randint(2, 7)
        g = rand_digraph(rng, n, rng.uniform(0.1, 0.5))
        host = _arc_gadget(g)

        def embeddings(arcs, size):
            pattern = _arc_gadget(Graph(size, arcs, directed=True))
            return count_embeddings(pattern, host, respect_colors=True)

        for k in range(2, n + 1):
            path = [(i, i + 1) for i in range(k)]
            assert count_walk_patterns(g, "path", k) == embeddings(path, k + 1)
        lengths = _cycle_lengths(nx, g)
        for k in range(3, n + 1):
            cycle = [(i, (i + 1) % k) for i in range(k)]
            cycles = count_walk_patterns(g, "cycle", k)
            # a directed k-cycle has k rotations
            assert cycles * k == embeddings(cycle, k) and cycles == lengths[k]
        for k in range(2, n // 2 + 1):
            matching = [(2 * i, 2 * i + 1) for i in range(k)]
            # k! orders of a matching's arcs
            assert count_matchings(g, k) * math.factorial(k) == embeddings(matching, 2 * k)


def test_masked_colorful_matchings_agree_with_subdivided_embeddings():
    rng = random.Random(4444)
    for _ in range(300):
        n = rng.randint(4, 8)
        ncolors = rng.randint(2, 4)
        g = rand_edge_colored(rng, n, rng.uniform(0.2, 0.9), ncolors)
        host = _edge_colour_gadget(g)
        for r in range(2, min(ncolors, n // 2) + 1):
            want = rng.sample(range(ncolors), r)
            pattern = _edge_colour_gadget(Graph.matching(r).with_edge_colors(want))
            # each colourful matching, with each edge's two ends either way
            assert (count_colorful_matchings(g, want) * 2 ** r
                    == count_embeddings(pattern, host, respect_colors=True))


# -- twin classes: images rise along each class ------------------------------


def _spider(legs):
    """A centre with a path of each length in ``legs`` hanging from it."""
    edges, n = [], 1
    for length in legs:
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(length)]
        n += length
    return Graph(n, edges)


def _with_twins(rng, h, k):
    """h with k more vertices, each a false or a true twin of an existing one."""
    edges, n = list(h.edges), h.n
    for _ in range(k):
        v = rng.randrange(n)
        edges += [(u, n) for u in range(n) if (u, v) in edges or (v, u) in edges]
        if rng.random() < 0.5:
            edges.append((v, n))
        n += 1
    return Graph(n, edges)


def _twin_pattern(rng):
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    return rng.choice([
        Graph.star(rng.randint(1, 5)), Graph.complete(rng.randint(2, 5)),
        Graph.complete_bipartite(a, b), Graph.matching(rng.randint(1, 3)),
        _spider([rng.randint(1, 2) for _ in range(rng.randint(2, 4))]),
        Graph.matching(a % 2 + 1).disjoint_union(Graph.empty(2 - a % 2)),
        _with_twins(rng, rand_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.8)),
                    rng.randint(1, 2))])


def test_twin_rising_counts_agree_with_networkx_monomorphisms():
    # stars, K_n, K_{a,b}, kK2, spiders, kK2 with isolated vertices and
    # random graphs with planted twins, coloured from two colours so that
    # twins of equal colour stay twins under respect_colors: plain,
    # coloured and anchored counts, and find_embedding, against an outside
    # enumerator
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    rng = random.Random(3131)
    pairs = twins = 0
    while pairs < 2000:
        h = _twin_pattern(rng)
        if h.n > 6:  # small hosts keep the enumeration short
            continue
        h = h.with_vertex_colors([rng.randint(1, 2) for _ in range(h.n)])
        g = rand_vertex_colored(rng, rng.randint(h.n, h.n + (1 if h.n > 4 else 2)),
                                rng.uniform(0.2, 0.7), 2)
        maps = [tuple(sorted(m, key=m.get)) for m in
                GraphMatcher(_to_nx(nx, g), _to_nx(nx, h)).subgraph_monomorphisms_iter()]
        colored = [im for im in maps
                   if all(h.vcolors[v] == g.vcolors[im[v]] for v in range(h.n))]
        pairs += 1
        twins += brute._twins(h, _search_order(h))[1] > 1
        assert count_embeddings(h, g) == len(maps)
        assert count_embeddings(h, g, respect_colors=True) == len(colored)
        found = find_embedding(h, g)
        assert found in maps if maps else found is None
        pinned = rng.sample(range(h.n), rng.randint(1, min(2, h.n)))
        image = rng.choice(maps) if maps else rng.sample(range(g.n), h.n)
        anchor = {v: image[v] for v in pinned}
        for respect, pool in ((False, maps), (True, colored)):
            want = sum(1 for im in pool if all(im[v] == gv for v, gv in anchor.items()))
            assert count_embeddings(h, g, respect_colors=respect, anchor=anchor) == want
    assert twins > 1500


def test_automorphism_count_agrees_with_networkx_isomorphisms():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    # #Aut is read from the components' stabilizer chains; #Emb(h, h), a
    # walk, stays the reference beside networkx
    rng = random.Random(909)
    for _ in range(500):
        h = rand_graph(rng, rng.randint(2, 9), rng.uniform(0.15, 0.85))
        H = _to_nx(nx, h)
        assert automorphism_count(h) == sum(1 for _ in GraphMatcher(H, H).isomorphisms_iter())
        assert automorphism_count(h) == count_embeddings(h, h)


# -- the stabilizer chain: one embedding per automorphism --------------------


def _tadpole(k, tail):
    """C_k with a path of ``tail`` more vertices hanging from vertex 0."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(0 if i == 0 else k + i - 1, k + i) for i in range(tail)]
    return Graph(k + tail, edges)


def _chain_pattern(rng):
    if rng.random() < 0.02:  # networkx takes about 70 ms per Petersen host
        return petersen()
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    return rng.choice([
        Graph.cycle(rng.randint(3, 7)), Graph.path(rng.randint(2, 6)), prism,
        _tadpole(rng.randint(3, 4), rng.randint(1, 2)),
        Graph.cycle(4).disjoint_union(Graph.empty(2)), Graph.matching(rng.randint(1, 3))])


def test_chain_counts_agree_with_networkx_monomorphisms():
    # C_k, P_k, the Petersen graph, the prism, tadpoles, C4+2K1 and kK2,
    # coloured from two colours so that orbits under respect_colors are cut
    # by repeated colours, in random and planted hosts: plain, coloured and
    # anchored counts against an outside enumerator
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    rng = random.Random(3333)
    pairs = chained = 0
    while pairs < 2000:
        pattern = _chain_pattern(rng)
        h = pattern.with_vertex_colors([rng.randint(1, 2) for _ in range(pattern.n)])
        n = h.n + rng.randint(0, 1 if h.n > 5 else 2)  # small hosts keep networkx quick
        if h.n > 7 or h.n >= 5 and rng.random() < 0.5:  # room for the extra edges
            g = _planted_host(rng, h, n)
        else:
            g = rand_vertex_colored(rng, n, rng.uniform(0.2, 0.5), 2)
        maps = [tuple(sorted(m, key=m.get)) for m in
                GraphMatcher(_to_nx(nx, g), _to_nx(nx, h)).subgraph_monomorphisms_iter()]
        colored = [im for im in maps
                   if all(h.vcolors[v] == g.vcolors[im[v]] for v in range(h.n))]
        pairs += 1
        plan = brute._pattern_plan(h, False, ())
        chained += plan[5] and plan[3] > brute._twins(h, plan[0])[1]
        assert count_embeddings(h, g) == len(maps)
        assert count_embeddings(h, g, respect_colors=True) == len(colored)
        pinned = rng.sample(range(h.n), rng.randint(1, min(2, h.n)))
        image = rng.choice(maps) if maps else rng.sample(range(g.n), h.n)
        anchor = {v: image[v] for v in pinned}
        for respect, pool in ((False, maps), (True, colored)):
            want = sum(1 for im in pool if all(im[v] == gv for v, gv in anchor.items()))
            assert count_embeddings(h, g, respect_colors=respect, anchor=anchor) == want
            found = find_embedding(h, g, respect_colors=respect, anchor=anchor)
            assert found in pool if want else found is None
    assert chained > 1000


def test_a_chain_cut_short_keeps_the_counts(monkeypatch):
    # with WORK_LIMIT shrunk, the chain's searches run out at some position,
    # after some orbit members there may already have been found; from that
    # position on the orbits are the twin classes, and every count stays put
    rng = random.Random(44)
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    cases = []
    for h in (Graph.cycle(6), prism, petersen(), _tadpole(4, 1), Graph.path(5)):
        g = _planted_host(rng, h.with_vertex_colors([1] * h.n), h.n + 2)
        cases.append((h, g, count_embeddings(h, g), automorphism_count(h)))
    cut = set()
    for limit in range(0, 160, 3):
        monkeypatch.setattr(brute, "WORK_LIMIT", limit)
        brute._pattern_plan.cache_clear()
        for h, g, emb, aut in cases:
            assert count_embeddings(h, g) == emb and automorphism_count(h) == aut
            plan = brute._pattern_plan(h, False, ())
            if not plan[5]:
                cut.add(plan[3] > brute._twins(h, plan[0])[1])
    brute._pattern_plan.cache_clear()
    # some chains were cut at their first position, and some after it
    assert cut == {False, True}


def test_automorphism_count_of_repeated_components():
    # |Aut| is mult! |Aut C|^mult per isomorphism class of components: 3C4,
    # 2K3+K2 and C4+2K1 against networkx, M9 against its closed form, each
    # also against #Emb(h, h), and M9 well under a tenth of a second
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    k3, c4 = Graph.complete(3), Graph.cycle(4)
    for h in (c4.disjoint_union(c4).disjoint_union(c4),
              k3.disjoint_union(k3).disjoint_union(Graph.path(2)),
              c4.disjoint_union(Graph.empty(2)), Graph.matching(4)):
        H = _to_nx(nx, h)
        want = sum(1 for _ in GraphMatcher(H, H).isomorphisms_iter())
        assert automorphism_count(h) == count_embeddings(h, h) == want
    m9 = Graph.matching(9)
    brute._pattern_plan.cache_clear()
    t0 = time.perf_counter()
    assert automorphism_count(m9) == 2 ** 9 * math.factorial(9)
    assert time.perf_counter() - t0 < 0.1
    assert count_embeddings(m9, m9) == 2 ** 9 * math.factorial(9)


def test_stabilizer_chain_stops_within_its_bound(monkeypatch):
    # P1200 (only its two ends' neighbours share a shape, so one search),
    # M1000 (one twin pair per component, no search) and a random cubic
    # graph on 200 vertices (one shape, so its anchored searches run out of
    # their WORK_LIMIT steps, and the plan falls back to the twin floors):
    # each chain stops within its bound, and the counts stay put
    searches = []
    find = brute.find_embedding

    def spy(*args, **kwargs):
        if kwargs.get("steps"):  # a search of the chain
            searches.append(kwargs["steps"])
        return find(*args, **kwargs)

    monkeypatch.setattr(brute, "find_embedding", spy)
    p, m, c = Graph.path(1200), Graph.matching(1000), rand_cubic(random.Random(1), 200)
    for h, exact, weight, tried in ((p, True, 2, 1), (m, True, 2 ** 1000, 0),
                                    (c, False, None, None)):
        searches.clear()
        brute._pattern_plan.cache_clear()
        t0 = time.perf_counter()
        order, _, prev, plan_weight, _, plan_exact = brute._pattern_plan(h, False, ())
        assert time.perf_counter() - t0 < 2
        assert plan_exact == exact
        if exact:
            assert plan_weight == weight and len(searches) == tried
        else:
            # every step was spent, and the walk keeps the twin floors
            assert searches and next(searches[-1], None) is None
            assert (list(prev), plan_weight) == brute._twins(h, order)
    assert automorphism_count(p) == 2
    assert count_embeddings(p, p, anchor={0: 1199}) == 1
    assert automorphism_count(m) == 2 ** 1000 * math.factorial(1000)
    assert count_embeddings(c, Graph.cycle(200)) == 0
    # its one twin pair, 93 and 95, is its only symmetry: fixing the even
    # vertices leaves the identity and their swap
    assert c.adj_mask(93) == c.adj_mask(95)
    assert count_embeddings(c, c, anchor={v: v for v in range(0, 200, 2)}) == 2


def test_twin_free_patterns_keep_the_plain_candidates():
    # C6, P4, the Petersen graph, an asymmetric graph and colourful patterns
    # have no twins, so every position's candidates are the plain mask
    # (allowed, unused and adjacent to the images of the placed neighbours)
    # above the images of its floors: the earlier positions j whose orbit
    # O_j, under the automorphisms fixing the positions before j, holds it.
    # The floors are recomputed here from every automorphism networkx
    # lists; the asymmetric and the colourful patterns have none
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    same_color = lambda a, b: a["color"] == b["color"]
    asymmetric = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (3, 5)])
    rng = random.Random(66)
    g = rand_vertex_colored(rng, 11, 0.5, 3)
    floored = 0
    for h, respect in [(Graph.cycle(6), False), (Graph.path(4), False), (petersen(), False),
                       (asymmetric, False),
                       (colorful(Graph.complete(3)).with_vertex_colors([1, 2, 3]), True),
                       (colorful(Graph.star(2)).with_vertex_colors([1, 2, 3]), True)]:
        order, candidates, _ = brute._search_plan(h, g, respect)
        assert brute._twins(h, order, h.vcolors if respect else None)[1] == 1
        position = {v: i for i, v in enumerate(order)}
        H = _to_nx(nx, h)
        autos = list(GraphMatcher(H, H, node_match=same_color if respect else None)
                     .isomorphisms_iter())
        assert (len(autos) == 1) == (respect or h is asymmetric)
        floors = [[j for j in range(i) if any(
            s[order[j]] == order[i] and all(s[order[k]] == order[k] for k in range(j))
            for s in autos)] for i in range(h.n)]
        floored += any(floors)
        checked = 0

        def plain(i, image, used):
            nonlocal checked
            mask = sum(1 << x for x in range(g.n) if not used >> x & 1
                       and (not respect or g.vcolors[x] == h.vcolors[order[i]])
                       and all(g.has_edge(x, image[position[u]]) for u in h.neighbors(order[i])
                               if position[u] < i)
                       and all(x > image[j] for j in floors[i]))
            assert candidates(i, image, used) == mask
            checked += 1
            return mask

        for _ in brute._placements(plain, [0] * h.n, 0, 0, h.n - 1):
            pass
        assert checked > h.n
    assert floored == 3  # C6, P4 and the Petersen graph


def test_without_top_matches_the_one_at_a_time_trim():
    def reference(mask, r):
        for _ in range(r):
            mask ^= 1 << mask.bit_length() >> 1
        return mask

    rng = random.Random(12)
    for _ in range(3000):
        mask = rng.getrandbits(rng.randint(0, 90))
        r = rng.randint(0, mask.bit_count() + 2)
        assert brute._without_top(mask, r) == reference(mask, r)
