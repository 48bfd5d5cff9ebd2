import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from subcount.brute import count_embeddings, count_subgraphs
from subcount.graphs import Graph, PreconditionError, min_vertex_cover
from subcount.polynomials import falling_factorial
from subcount.vc import (_degree_first_core, _demand, _twin_cut, count_emb_vc,
                         count_sub_vc)
from helpers import anchored_embedding_count, petersen, rand_graph


def test_anchored_count_requires_a_cover():
    h = Graph.path(3)
    with pytest.raises(PreconditionError):
        anchored_embedding_count(h, (0,), Graph.complete(3), (0,))


def test_anchored_count_matches_brute():
    h = Graph.path(3)  # cover is the middle vertex
    g = Graph.complete(4)
    _, cover = min_vertex_cover(h)
    assert cover == (1,)
    for v in range(4):
        assert anchored_embedding_count(h, cover, g, (v,)) == \
            count_embeddings(h, g, anchor={1: v})


def test_multinomial_is_required():
    """The instance where counting a demand class without its labels
    undercounts: pattern = one edge plus two isolated vertices, host = P3
    plus an isolated vertex, cover image = the path's center.  The two
    isolated pattern vertices share a path end and the isolated host vertex
    in either order, so 4, not 2."""
    h = Graph(4, [(0, 1)])
    g = Graph(4, [(0, 1), (1, 2)])
    direct = count_embeddings(h, g, anchor={0: 1})
    assert direct == 4
    assert anchored_embedding_count(h, (0,), g, (1,)) == 4


def test_demand_class_splits_across_supply_classes():
    """Leaves 2, 3 of cover vertex 0 may land on host vertices that also see
    the image of cover vertex 1 (x1, x2) or only the image of 0 (y1, y2);
    vertex 4 sees both cover vertices and must take an x."""
    h = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 4)])
    a, b, x1, x2, y1, y2 = range(6)
    g = Graph(6, [(a, b), (a, x1), (a, x2), (b, x1), (b, x2), (a, y1), (a, y2)])
    # 4 takes one of 2 x's, the leaves take 2 of the other 3 in order
    assert anchored_embedding_count(h, (0, 1), g, (a, b)) == 2 * 3 * 2
    assert count_embeddings(h, g, anchor={0: a, 1: b}) == 12
    for image in permutations(range(6), 2):
        assert anchored_embedding_count(h, (0, 1), g, image) == \
            count_embeddings(h, g, anchor={0: image[0], 1: image[1]})
    assert count_emb_vc(h, g) == count_embeddings(h, g)


def test_many_non_cover_vertices():
    """12 non-cover vertices: partitions of one demand class of size 12,
    not the 4.2 million set partitions of 12 labeled vertices."""
    g = rand_graph(random.Random(12), 30, 0.3)
    assert count_emb_vc(Graph.star(12), g) == \
        sum(falling_factorial(g.degree(v), 12) for v in range(g.n))
    assert count_emb_vc(Graph.empty(12), g) == falling_factorial(30, 12)
    assert anchored_embedding_count(Graph.empty(12), (), g, ()) == \
        falling_factorial(30, 12)


def test_complete_host_closed_form():
    """Every injective map into K_n is an embedding, so #Emb = (n)_{h.n}.
    The 8 non-cover vertices see 8 different sets of the 4 cover vertices
    (the path 0-1-2-3), so every demand class is a singleton."""
    subsets = [(0, 1, 2, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
               (0, 1), (0, 2), (1, 3)]
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += [(c, 4 + j) for j, s in enumerate(subsets) for c in s]
    h = Graph(12, edges)
    assert min_vertex_cover(h)[0] == 4
    assert count_emb_vc(h, Graph.complete(12)) == falling_factorial(12, 12)
    assert count_emb_vc(h, Graph.complete(13)) == falling_factorial(13, 12)


def test_counts_on_standard_graphs():
    assert count_emb_vc(Graph.complete(3), Graph.complete(5)) == 60
    assert count_sub_vc(Graph.complete(3), Graph.complete(5)) == 10
    assert count_sub_vc(Graph.cycle(5), petersen()) == 12
    assert count_sub_vc(Graph.star(3), Graph.complete_bipartite(3, 3)) == 6
    assert count_emb_vc(Graph.complete(4), Graph.complete(3)) == 0
    assert count_sub_vc(Graph.matching(2), Graph.cycle(5)) == 5


def test_pattern_with_isolated_vertices():
    h = Graph(5, [(0, 1), (1, 2)])  # P3 plus two isolated vertices
    g = petersen()
    assert count_emb_vc(h, g) == count_embeddings(h, g)


def test_edgeless_pattern():
    h = Graph.empty(3)
    g = Graph.path(4)
    assert count_emb_vc(h, g) == falling_factorial(4, 3)
    assert count_sub_vc(h, g) == 4  # choose 3 of 4 vertices


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 28 - 1))
def test_vc_count_equals_brute(seed):
    rng = random.Random(seed)
    h = rand_graph(rng, rng.randint(1, 6), rng.random())
    g = rand_graph(rng, rng.randint(1, 9), rng.random())
    assert count_emb_vc(h, g) == count_embeddings(h, g)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 28 - 1))
def test_sub_vc_equals_brute(seed):
    rng = random.Random(seed)
    h = rand_graph(rng, rng.randint(1, 5), rng.random())
    g = rand_graph(rng, rng.randint(1, 8), rng.random())
    assert count_sub_vc(h, g) == count_subgraphs(h, g)


def test_vc_count_equals_networkx_monomorphisms():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    rng = random.Random(1407)
    for _ in range(30):
        h = rand_graph(rng, rng.randint(1, 6), rng.random())
        g = rand_graph(rng, rng.randint(1, 14), rng.random())
        nh, ng = nx.Graph(), nx.Graph()
        nh.add_nodes_from(range(h.n))
        nh.add_edges_from(h.edges)
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges)
        monos = sum(1 for _ in GraphMatcher(ng, nh).subgraph_monomorphisms_iter())
        assert count_emb_vc(h, g) == monos


# -- the degree-first cover and the twin cut ---------------------------------

BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
# cover path b-a-c-d (after the degree-first relabel) with one private leaf
# per cover vertex: every swap keeps the demand, no swap keeps the cover edges
COMB = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)])
# cover {a, b}, no cover edges, two demand classes of size 2: a's private
# leaves {a} and the common neighbours {a, b}; a swap keeps the cover edges
# and the class sizes but not the keys
LEAVES_AND_SQUARE = Graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5)])


def twin_plan(h):
    core = _degree_first_core(h)
    _, cover = min_vertex_cover(core)
    prev, weight = _twin_cut(core, cover, _demand(core, cover))
    return core, cover, prev, weight


def test_degree_first_cover_takes_hubs():
    core, cover, _, _ = twin_plan(Graph.path(4))
    assert [core.degree(c) for c in cover] == [2, 2]
    assert core.has_edge(*cover)


@pytest.mark.parametrize("h, weight", [
    (Graph.matching(3), 6), (Graph.cycle(6), 6), (Graph.path(4), 2),
    (Graph.star(5), 1), (Graph.complete(3), 2),
    (COMB, 1), (LEAVES_AND_SQUARE, 1)])
def test_twin_weight(h, weight):
    assert twin_plan(h)[3] == weight


PLAN_PATTERNS = [Graph.matching(3), Graph.cycle(6), Graph.path(4),
                 Graph.complete(3), Graph.complete_bipartite(2, 3), BOWTIE,
                 COMB, LEAVES_AND_SQUARE]


def test_anchored_count_is_constant_under_twin_swaps():
    rng = random.Random(7)
    patterns = PLAN_PATTERNS + [rand_graph(rng, rng.randint(2, 7), 0.5)
                                for _ in range(20)]
    for h in patterns:
        core, cover, prev, _ = twin_plan(h)
        g = rand_graph(rng, 8, 0.6)
        for _ in range(40):
            image = rng.sample(range(g.n), len(cover))
            for j, i in enumerate(prev):
                if i < 0:
                    continue
                swapped = list(image)
                swapped[i], swapped[j] = image[j], image[i]
                assert anchored_embedding_count(core, cover, g, tuple(image)) == \
                    anchored_embedding_count(core, cover, g, tuple(swapped))


def test_count_is_invariant_under_pattern_relabelling():
    rng = random.Random(29)
    patterns = PLAN_PATTERNS + [rand_graph(rng, rng.randint(2, 7), 0.5)
                                for _ in range(10)]
    for h in patterns:
        g = rand_graph(rng, 9, 0.5)
        want = count_embeddings(h, g)
        for _ in range(4):
            perm = rng.sample(range(h.n), h.n)
            relabelled = Graph(h.n, [(perm[u], perm[v]) for u, v in h.edges])
            assert count_emb_vc(relabelled, g) == want


def test_twin_patterns_equal_networkx_monomorphisms():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    g = rand_graph(random.Random(2), 9, 0.4)
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges)
    patterns = ([Graph.matching(k) for k in (2, 3, 4)]
                + [Graph.cycle(k) for k in range(4, 9)]
                + [Graph.complete_bipartite(2, 3), BOWTIE])
    for h in patterns:
        nh = nx.Graph(h.edges)
        monos = sum(1 for _ in GraphMatcher(ng, nh).subgraph_monomorphisms_iter())
        assert monos > 0 and count_emb_vc(h, g) == monos
