import math
import random
from itertools import product

import pytest

from subcount.brute import (count_colorful_matchings,
                            count_colorpreserving_subgraphs,
                            count_matchings, count_walk_patterns)
from subcount.graphs import Graph, InconsistencyError, PreconditionError
from subcount.hardness import (A_SETS, CYCLE_LAYOUT, TYPE_DAMAGE, TYPES,
                               _mode_products, _type_index,
                               build_triangle_graph,
                               directed_cycles_via_undirected, gadget_graph,
                               matchings_via_directed_cycles,
                               solve_theta_star, state_matrix,
                               subpart_via_colmatch_oracle)
from subcount.polynomials import (binomial_basis_from_values, determinant,
                                  forward_differences)
from helpers import (iter_colorful_matchings, kron_chain, rand_bipartite,
                     rand_digraph, rand_graph, residue_graph)

# the published evaluation matrix at argument 0: rows are query sets t=1..5,
# columns alignment types s=1..5
PUBLISHED_MATRIX = [
    [2, 2, 3, 3, 3],
    [2, 3, 2, 3, 3],
    [2, 3, 3, 2, 3],
    [2, 3, 3, 4, 5],
    [2, 2, 2, 2, 4],
]


# D(x) = det state_matrix(x), by its coefficients in ascending degree
DET = (12, 30, 36, 36, 28, 12, 2)


def colorful_k33():
    return Graph.complete_bipartite(3, 3).with_vertex_colors([1, 2, 3, 4, 5, 6])


# -- layout and polynomial layer -----------------------------------------


def test_gadget_layout_sanity():
    g = gadget_graph()
    assert g.n == 6 and g.m == 6
    assert sorted(g.ecolors) == [1, 2, 3, 4, 5, 6]
    # the two cycle colors at each z-offset are exactly the small query sets
    at = {v: set() for v in range(6)}
    for (u, v, c) in CYCLE_LAYOUT:
        at[u].add(c)
        at[v].add(c)
    assert at[1] == A_SETS[2] and at[3] == A_SETS[1] and at[5] == A_SETS[3]
    # w-offsets carry the consecutive pairs
    assert at[0] == {1, 2} and at[2] == {3, 4} and at[4] == {5, 6}


def test_residue_graphs_have_fifteen_vertices():
    for s in TYPES:
        r = residue_graph(s)
        assert r.n == 15
        # each deleted w kills two cycle edges
        assert r.m == 18 - 2 * sum(len(d) for d in TYPE_DAMAGE[s])
    # spot shapes: type 1 leaves three isolated z's, type 5 three 5-paths
    assert len(residue_graph(1).isolated_vertices()) == 3
    assert len(residue_graph(5).isolated_vertices()) == 0


def test_state_matrix_matches_published_values():
    assert state_matrix(0) == PUBLISHED_MATRIX


def test_state_matrix_rejects_negative_padding():
    # p_{s,t}(x) counts R_s plus x intact six-cycles; x < 0 means nothing
    with pytest.raises(PreconditionError):
        state_matrix(-1)


def test_determinant_is_certified():
    # the entries have degree at most six, so D has degree at most 30 and
    # its values at the 31 points 0..30 make it DET; all coefficients are
    # positive, so the state matrix is nonsingular at every padding n >= 3
    for x in range(31):
        assert determinant(state_matrix(x)) == sum(c * x**i for i, c in enumerate(DET))
    assert all(c > 0 for c in DET)


def test_state_matrix_equals_the_polynomials():
    # every entry's values at 0..6, read over the basis C(x+i, i), give the
    # entry at every padding: the p_{s,t} have degree at most six
    samples = [state_matrix(x) for x in range(7)]
    bases = [[binomial_basis_from_values(0, [m[t][s] for m in samples])
              for s in range(5)] for t in range(5)]
    for x in range(41):
        assert state_matrix(x) == [[sum(c * math.comb(x + i, i) for i, c in enumerate(cs))
                                    for cs in row] for row in bases]


def test_determinant_polynomial_agrees_with_sympy():
    # an outside oracle: sympy interpolates the 25 p_{s,t} through their
    # values at 0..6 and expands the determinant
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    samples = [state_matrix(m) for m in range(7)]
    entries = [[sympy.interpolate([(m, samples[m][t][s]) for m in range(7)], x)
                for s in range(5)] for t in range(5)]
    det = sympy.Poly(sympy.Matrix(entries).det(), x)
    assert det.all_coeffs()[::-1] == list(DET)


def test_pst_polynomials_extrapolate():
    # the state matrix comes from the extension tables; brute counts on R_s
    # plus m intact cycles check each p_{s,t} at m = 0..8, and its values
    # there lie on one polynomial of degree at most six
    rows = [state_matrix(m) for m in range(9)]
    for s in TYPES:
        for t in TYPES:
            values = [r[t - 1][s - 1] for r in rows]
            assert forward_differences(values)[7:] == [0, 0]
            g = residue_graph(s)
            for m in range(9):
                assert values[m] == count_colorful_matchings(g, A_SETS[t])
                g = g.disjoint_union(gadget_graph())


# -- gadget host construction ---------------------------------------------


def test_build_rejects_bad_patterns():
    g = Graph.complete(3).with_vertex_colors([1, 2, 3])
    with pytest.raises(PreconditionError):  # not 3-regular
        build_triangle_graph(Graph.complete(3).with_vertex_colors([1, 2, 3]), g)
    with pytest.raises(PreconditionError):  # cubic but odd cycle inside
        k4 = Graph.complete(4).with_vertex_colors([1, 2, 3, 4])
        build_triangle_graph(k4, g)
    with pytest.raises(PreconditionError):  # not colorful
        build_triangle_graph(Graph.complete_bipartite(3, 3).with_vertex_colors([1] * 6), g)
    with pytest.raises(PreconditionError):  # host without colors
        build_triangle_graph(colorful_k33(), Graph.complete(3))
    with pytest.raises(PreconditionError):  # padding below class size
        host = Graph.empty(5).with_vertex_colors([1, 1, 1, 1, 2])
        build_triangle_graph(colorful_k33(), host, padding=3)


def test_default_padding_is_the_smallest_valid_one():
    # one gadget per class member, and never fewer than three
    assert build_triangle_graph(colorful_k33(), colorful_k33()).n == 3
    host = Graph.empty(10).with_vertex_colors([1, 1, 1, 1, 1, 2, 3, 4, 5, 6])
    assert build_triangle_graph(colorful_k33(), host).n == 5


def test_triangle_graph_shape():
    h = colorful_k33()
    host = colorful_k33()  # host = the pattern itself
    tg = build_triangle_graph(h, host, padding=3)
    assert tg.k == 6 and tg.m == 9 and tg.n == 3
    g = tg.graph
    assert g.n == 6 * 6 * 3
    # 6 delta edges per gadget, 18 gadgets, plus one link edge per pattern edge
    assert g.m == 6 * 18 + 9
    assert all(len(r) == 1 for r in tg.realizations)


def test_theta_census_matches_brute_classification():
    h = colorful_k33()
    # host: pattern plus one duplicated color-6 vertex with the same neighbors
    host = Graph(7, list(Graph.complete_bipartite(3, 3).edges) + [(0, 6), (1, 6), (2, 6)],
                 vcolors=[1, 2, 3, 4, 5, 6, 6])
    tg = build_triangle_graph(h, host, padding=3)
    census = tg.theta_counts()
    assert sum(census.values()) == 2 ** 3  # three pattern edges have 2 choices
    brute = {}
    for edges in iter_colorful_matchings(tg.graph, tg.link_colors()):
        theta = tg.classify_link_matching(edges)
        brute[theta] = brute.get(theta, 0) + 1
    assert brute == census
    # the aligned vector appears twice: the exact copy and the duplicate copy
    assert census.get((1, 1, 1, 1, 1, 1)) == 2


def test_structured_counter_agrees_with_generic():
    h = colorful_k33()
    host = Graph(7, list(Graph.complete_bipartite(3, 3).edges) + [(0, 6), (1, 6), (2, 6)],
                 vcolors=[1, 2, 3, 4, 5, 6, 6])
    # two host vertices per class, so every split alignment type occurs
    doubled = colorful_k33().disjoint_union(colorful_k33())
    for g in (host, doubled):
        tg = build_triangle_graph(h, g, padding=3)
        rng = random.Random(11)
        # all five query sets appear, at most two of the big ones per vector
        vectors = [(1,) * 6, (2,) * 6, (3, 2, 1, 3, 2, 1)]
        for _ in range(8):
            t = [rng.choice((1, 2, 3)) for _ in range(6)]
            spots = rng.sample(range(6), 2)
            t[spots[0]] = rng.choice((4, 5))
            if rng.random() < 0.5:
                t[spots[1]] = rng.choice((4, 5))
            vectors.append(tuple(t))
        for t in vectors:
            assert tg.answer_table()[_type_index(t)] == \
                count_colorful_matchings(tg.graph, tg.query_colors(t))


def test_query_identity_term_by_term():
    """b[t] must equal sum over theta of N[theta] * prod p_{theta_i, t_i}(n-3),
    with N[theta] enumerated by brute force."""
    h = colorful_k33()
    host = Graph(7, list(Graph.complete_bipartite(3, 3).edges) + [(0, 6), (1, 6), (2, 6)],
                 vcolors=[1, 2, 3, 4, 5, 6, 6])
    tg = build_triangle_graph(h, host, padding=3)
    brute_census = {}
    for edges in iter_colorful_matchings(tg.graph, tg.link_colors()):
        theta = tg.classify_link_matching(edges)
        brute_census[theta] = brute_census.get(theta, 0) + 1
    m = state_matrix(tg.n - 3)
    for t in product(TYPES, repeat=6):
        lhs = tg.answer_table()[_type_index(t)]
        rhs = 0
        for theta, cnt in brute_census.items():
            term = cnt
            for ti, si in zip(t, theta):
                term *= m[ti - 1][si - 1]
            rhs += term
        assert lhs == rhs


def test_solve_theta_star_roundtrip():
    """Push seeded censuses through the forward map and solve them back, at
    the smallest paddings, at the default one and beyond it."""
    rng = random.Random(3)
    for n in (3, 4, 5, 23, 40):
        m = state_matrix(n - 3)
        for k in (1, 2, 3):
            types = list(product(TYPES, repeat=k))
            census = {theta: rng.randrange(0, 5) for theta in types}
            b = [sum(cnt * math.prod(m[ti - 1][si - 1] for ti, si in zip(t, theta))
                     for theta, cnt in census.items())
                 for t in types]
            assert solve_theta_star(b, n, k) == census[(1,) * k]


def test_solve_theta_star_rejects_inconsistent_values():
    n, x = 5, 2
    aligned = [row[0] for row in state_matrix(x)]  # one aligned copy
    assert solve_theta_star(aligned, n, 1) == 1
    # one more on the first query adds y[1] = 425/61 to the aligned count
    off = list(aligned)
    off[0] += 1
    with pytest.raises(InconsistencyError):
        solve_theta_star(off, n, 1)
    # the negated values solve to -1 copies
    negative = [-v for v in aligned]
    with pytest.raises(InconsistencyError):
        solve_theta_star(negative, n, 1)


def test_solve_theta_star_refuses_incomplete_queries():
    with pytest.raises(PreconditionError):
        solve_theta_star([], 5, 1)
    with pytest.raises(PreconditionError):
        solve_theta_star([0] * 24, 5, 2)
    with pytest.raises(PreconditionError):
        solve_theta_star([0] * 5, 2, 1)


@pytest.mark.parametrize("padding", [3, 4, 8, 23, 40, 100])
def test_packed_mode_products_match_the_list_chain(padding):
    """Empty, single-type and dense seeded censuses at k = 1..4: the field
    widths run from one byte (the empty census) to four 8-byte words (the
    dense census at padding 100).  The single-type censuses at padding 3
    and 4 take the per-byte write-back: one nonzero 1-byte case (k = 1 at
    padding 3) and 2-byte cases holding entries above 255, so a swapped
    byte order fails here."""
    rows = state_matrix(padding - 3)
    rng = random.Random(padding)
    widest = 0
    for k in (1, 2, 3, 4):
        types = list(product(TYPES, repeat=k))
        for census in ({}, {rng.choice(types): rng.randrange(1, 50)},
                       {theta: rng.randrange(2 ** 30) for theta in types}):
            got = _mode_products(census, rows, k)
            assert got == kron_chain(census, rows, k)
            widest = max(widest, *got)
    if padding == 100:
        assert widest.bit_length() > 192


# -- the full pipeline -----------------------------------------------------


def test_pipeline_counts_the_pattern_itself():
    h = colorful_k33()
    assert subpart_via_colmatch_oracle(h, colorful_k33(), padding=3) == 1


def test_pipeline_counts_zero_when_an_edge_is_missing():
    h = colorful_k33()
    host = colorful_k33().without_edges([(0, 3)])
    assert subpart_via_colmatch_oracle(h, host, padding=3) == 0


def test_pipeline_counts_two_copies():
    h = colorful_k33()
    host = Graph(7, list(Graph.complete_bipartite(3, 3).edges) + [(0, 6), (1, 6), (2, 6)],
                 vcolors=[1, 2, 3, 4, 5, 6, 6])
    assert subpart_via_colmatch_oracle(h, host, padding=3) == 2
    assert count_colorpreserving_subgraphs(h, host) == 2


def test_pipeline_default_padding():
    h = colorful_k33()
    assert subpart_via_colmatch_oracle(h, colorful_k33()) == 1
    # a padding far above the class sizes solves to the same count
    assert subpart_via_colmatch_oracle(h, colorful_k33(), padding=23) == 1


def test_pipeline_matches_brute_on_random_hosts():
    rng = random.Random(20250814)
    h = colorful_k33()
    hosts = []
    for _ in range(6):
        host = rand_graph(rng, rng.randint(6, 9), 0.35)
        hosts.append(host.with_vertex_colors([rng.randint(1, 6) for _ in range(host.n)]))
    # the random hosts above all count 0: add one and two planted copies,
    # each with two extra colored vertices and four seeded noise edges
    for base in (colorful_k33(), colorful_k33().disjoint_union(colorful_k33())):
        n = base.n + 2
        edges = set(base.edges)
        while len(edges) < base.m + 4:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        hosts.append(Graph(n, sorted(edges), vcolors=list(base.vcolors)
                           + [rng.randint(1, 6) for _ in range(2)]))
    hits = 0
    for host in hosts:
        want = count_colorpreserving_subgraphs(h, host)
        got = subpart_via_colmatch_oracle(h, host, padding=max(3, host.n))
        assert got == want
        hits += want
    # the corpus should not be all-zero for the comparison to mean much
    assert hits > 0


def test_pipeline_with_injected_generic_oracle():
    h = colorful_k33()
    calls = []

    def oracle(host, colors):
        calls.append(type(host))
        return count_colorful_matchings(host, colors)

    got = subpart_via_colmatch_oracle(h, colorful_k33(), oracle=oracle, padding=3)
    assert got == 1
    # a plain edge-colored graph per query, as every other oracle gets
    assert calls == [Graph] * 5 ** 6


# -- matchings via cycles ---------------------------------------------------


def test_matchings_via_directed_cycles_small():
    g = Graph.complete_bipartite(2, 2)
    assert matchings_via_directed_cycles(g, 1) == 4
    assert matchings_via_directed_cycles(g, 2) == 2
    path = Graph.path(4)
    assert matchings_via_directed_cycles(path, 2) == count_matchings(path, 2)
    with pytest.raises(PreconditionError):
        matchings_via_directed_cycles(Graph.complete(3), 1)


def test_matchings_via_directed_cycles_random():
    rng = random.Random(71)
    for _ in range(25):
        g = rand_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4), 0.6)
        for k in (1, 2, 3):
            assert matchings_via_directed_cycles(g, k) == count_matchings(g, k)


def test_directed_cycles_via_undirected_small():
    two = Graph(2, [(0, 1), (1, 0)], directed=True)
    assert directed_cycles_via_undirected(two, 2) == 1
    tri = Graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    assert directed_cycles_via_undirected(tri, 3) == 1
    assert directed_cycles_via_undirected(tri, 2) == 0
    with pytest.raises(PreconditionError):
        directed_cycles_via_undirected(Graph.path(3), 2)
    with pytest.raises(PreconditionError):
        directed_cycles_via_undirected(two, 1)


def test_directed_cycles_via_undirected_random():
    rng = random.Random(5150)
    for _ in range(12):
        d = rand_digraph(rng, rng.randint(3, 6), 0.4)
        for k in (2, 3):
            want = count_walk_patterns(d, "cycle", k)
            assert directed_cycles_via_undirected(d, k) == want


def test_full_matching_chain_composes():
    # matchings -> directed 2k-cycles -> undirected cycle counts
    rng = random.Random(9)
    for _ in range(5):
        g = rand_bipartite(rng, 3, 3, 0.5)
        via = matchings_via_directed_cycles(
            g, 2, oracle=lambda dg, length: directed_cycles_via_undirected(dg, length))
        assert via == count_matchings(g, 2)
