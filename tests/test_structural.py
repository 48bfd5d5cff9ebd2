"""Tests for the structural toolkit."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as hst

from subcount.graphs import Graph, PreconditionError, refuse_over_limit
from subcount.brute import (count_colorpreserving_subgraphs, count_subgraphs,
                            is_colorful)
from subcount.structural import (MinorModel, TreeDecomposition,
                                 build_grid_instance, exact_tree_decomposition,
                                 extract_clique_biclique_or_matching,
                                 grid_pattern, make_bicubic,
                                 minor_lift_instance,
                                 ramsey_monochromatic_clique, _least_clique)
from helpers import monochromatic_sets, psi, psi_max, rand_graph


def subdivided_star(arms):
    edges = []
    for a in range(arms):
        edges.append((0, 1 + 2 * a))
        edges.append((1 + 2 * a, 2 + 2 * a))
    return Graph(1 + 2 * arms, edges)


# -- psi ---------------------------------------------------------------------


def test_psi_subdivided_star_center():
    assert psi(subdivided_star(3), 0) == 3
    assert psi(subdivided_star(5), 0) == 5


def test_psi_star_center_has_no_second_step():
    assert psi(Graph.star(3), 0) == 0
    assert psi(Graph.star(7), 0) == 0


def test_psi_cycle_six():
    c6 = Graph.cycle(6)
    assert [psi(c6, v) for v in range(6)] == [2] * 6


def test_psi_leaf_of_star_sees_other_leaves():
    # from a leaf, the center is the only neighbor and it has 2 spare leaves,
    # but the paths through it share the center, so only one fits
    assert psi(Graph.star(3), 1) == 1


def test_psi_complete_graph():
    assert psi(Graph.complete(5), 0) == 2
    assert psi(Graph.complete(4), 2) == 1


def test_psi_range_check():
    with pytest.raises(PreconditionError):
        psi(Graph.path(3), 3)


def test_psi_max_empty():
    assert psi_max(Graph.empty(0)) == 0
    assert psi_max(Graph.empty(4)) == 0


@settings(max_examples=120, deadline=None)
@given(hst.integers(1, 9), hst.randoms(use_true_random=False))
def test_psi_bounded_by_degree(n, rng):
    g = rand_graph(rng, n, 0.5)
    for v in range(n):
        assert 0 <= psi(g, v) <= g.degree(v)


# -- monochromatic cliques ---------------------------------------------------


def test_ramsey_single_color_takes_first_vertices():
    assert ramsey_monochromatic_clique(9, lambda u, v: 0, 4) == (0, 1, 2, 3)


def test_ramsey_tiny_requests():
    assert ramsey_monochromatic_clique(5, lambda u, v: u + v, 0) == ()
    assert ramsey_monochromatic_clique(5, lambda u, v: u + v, 1) == (0,)
    assert ramsey_monochromatic_clique(0, lambda u, v: 0, 1) is None
    assert ramsey_monochromatic_clique(3, lambda u, v: 0, 4) is None


def test_ramsey_every_two_coloring_of_k6_has_triangle():
    # Ramsey number R(3,3) = 6, so every one of the 2^15 colorings must give
    # a witness.
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    for mask in range(1 << 15):
        colors = {e: (mask >> i) & 1 for i, e in enumerate(pairs)}
        got = ramsey_monochromatic_clique(6, lambda u, v: colors[(u, v)], 3)
        assert got is not None, f"missed witness for mask {mask}"


def test_ramsey_adversarial_tie_coloring():
    # the least monochromatic triangle of this coloring is (0, 1, 3)
    colmap = {(0, 1): 0, (0, 2): 0, (0, 3): 0, (0, 4): 1, (0, 5): 1,
              (1, 2): 1, (1, 3): 0, (1, 4): 1, (1, 5): 1,
              (2, 3): 0, (2, 4): 0, (2, 5): 1,
              (3, 4): 1, (3, 5): 0, (4, 5): 0}
    got = ramsey_monochromatic_clique(6, lambda u, v: colmap[(u, v)], 3)
    assert got == (0, 1, 3)


def test_ramsey_pentagon_coloring_fails_honestly():
    # the pentagon/pentagram split of K5 has no monochromatic triangle at
    # all, so the only correct answer is None
    ring = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    color = lambda u, v: 0 if (u, v) in ring else 1
    assert ramsey_monochromatic_clique(5, color, 3) is None


def test_ramsey_threshold_r2_c2():
    # r = 2 just means one monochromatic edge, so any coloring of 81 items
    # has one
    import random
    rng = random.Random(20260814)
    for _ in range(25):
        bits = {}
        got = ramsey_monochromatic_clique(
            81,
            lambda u, v: bits.setdefault((u, v), rng.randrange(2)),
            2)
        assert got is not None and len(got) == 2


@settings(max_examples=60, deadline=None)
@given(hst.integers(7, 40), hst.integers(0, 10 ** 9))
def test_ramsey_witness_is_verified_when_found(n, seed):
    import random
    rng = random.Random(seed)
    bits = {}
    color = lambda u, v: bits.setdefault((u, v), rng.randrange(3))
    got = ramsey_monochromatic_clique(n, color, 3)
    # the function re-verifies internally; check again from outside
    if got is not None:
        assert len(got) == 3 and len(set(got)) == 3
        ref = color(got[0], got[1])
        assert color(got[0], got[2]) == ref and color(got[1], got[2]) == ref


def test_ramsey_search_is_exact():
    # None exactly when a scan of every r-subset finds no monochromatic one
    rng = random.Random(18)
    found = 0
    for _ in range(2000):
        n, c, r = rng.randint(0, 12), rng.randint(1, 4), rng.randint(0, 4)
        coloring = {pair: rng.randrange(c) for pair in combinations(range(n), 2)}
        color = lambda u, v: coloring[(u, v)]
        got = ramsey_monochromatic_clique(n, color, r)
        first = next(monochromatic_sets(n, color, r), None)
        assert (got is None) == (first is None), (n, c, r)
        if got is not None:
            assert got in set(monochromatic_sets(n, color, r))
            found += 1
    assert found == 1494


def test_ramsey_refused_above_work_limit_before_any_color_call():
    # C(363, 2) = 65703 color reads are above WORK_LIMIT = 65536; the
    # search is bounded by the prefixes it enters, not by C(n, 3), so n = 75
    # is answered though C(75, 3) = 67525 is above the limit
    calls = []
    color = lambda u, v: calls.append((u, v)) or 0
    with pytest.raises(PreconditionError, match="65703"):
        ramsey_monochromatic_clique(363, color, 4)
    assert calls == []
    assert ramsey_monochromatic_clique(75, color, 4) == (0, 1, 2, 3)
    # each pair is read once, then the witness is re-verified
    assert calls[:-7] == list(combinations(range(75), 2))


def test_ramsey_work_counts_the_color_reads():
    # r = n = 1200 has C(1200, 1199) = 1200 vertex sets but C(1200, 2) reads
    calls = []
    color = lambda u, v: calls.append((u, v)) or 0
    with pytest.raises(PreconditionError, match="719400 steps"):
        ramsey_monochromatic_clique(1200, color, 1200)
    assert ramsey_monochromatic_clique(362, color, 362) == tuple(range(362))
    with pytest.raises(PreconditionError):
        ramsey_monochromatic_clique(363, color, 363)
    # any pair is monochromatic, so r = 2 reads no color at any n
    calls.clear()
    assert ramsey_monochromatic_clique(70000, color, 2) == (0, 1)
    assert calls == []


def test_ramsey_bounds_the_prefixes_entered():
    # color 0 joins vertices in different classes mod 3, so it has no
    # 4-clique: on 120 vertices its search enters 64000 prefixes before
    # color 1 gives the answer, on 150 it passes WORK_LIMIT
    color = lambda u, v: int(u % 3 == v % 3)
    assert ramsey_monochromatic_clique(120, color, 4) == (0, 3, 6, 9)
    with pytest.raises(PreconditionError, match="clique search would take 65537 steps"):
        ramsey_monochromatic_clique(150, color, 4)


def test_ramsey_skips_classes_too_small_for_a_clique():
    # with every pair in its own colour no class has the C(3, 2) edges a
    # triangle needs, so no class is searched, at the largest n whose
    # colour reads are within WORK_LIMIT
    calls = []
    color = lambda u, v: calls.append((u, v)) or (u, v)
    t0 = time.perf_counter()
    assert ramsey_monochromatic_clique(362, color, 3) is None
    assert time.perf_counter() - t0 < 1
    assert calls == list(combinations(range(362), 2))


def test_least_clique_is_not_bounded_by_the_recursion_limit():
    n = 1200
    up = [((1 << n) - 1) ^ ((1 << (v + 1)) - 1) for v in range(n)]
    assert _least_clique(up, n) == tuple(range(n))
    assert _least_clique(up, n + 1) is None


def _stack_least_clique(up, r):
    # the search on its own explicit stack of candidate masks, popped while
    # fewer candidates are left than the prefix still needs: the reference
    # for the rising placement walk
    steps = 0
    for root, fwd in enumerate(up):
        if fwd.bit_count() < r - 1:
            continue
        clique, stack = [root], [fwd]
        while clique:
            steps += 1
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


def _clique_outcome(search, up, r):
    try:
        return search(up, r)
    except PreconditionError as e:
        return str(e).partition(" would")[0]  # its step count may differ


def test_least_clique_walk_matches_the_stack_search():
    # the same clique or None as the stack search on 2,000 seeded forward
    # masks, and the same answer or refusal on complete m-partite classes,
    # which hold no (m+1)-clique.  The walk's step count can exceed the
    # stack's by a few: it also enters the empty prefix, and each root below
    # the top r - 1 that has fewer than r - 1 forward neighbours
    rng = random.Random(3030)
    found = 0
    for _ in range(2000):
        n, r, p = rng.randint(0, 12), rng.randint(1, 5), rng.random()
        up = [sum(1 << v for v in range(u + 1, n) if rng.random() < p) for u in range(n)]
        got = _least_clique(up, r)
        assert got == _stack_least_clique(up, r)
        found += got is not None
    assert 700 < found < 1300
    refused = 0
    for m, n in ((3, 120), (3, 150), (4, 60), (4, 90), (5, 40), (5, 60)):
        up = [sum(1 << v for v in range(u + 1, n) if u % m != v % m) for u in range(n)]
        got = _clique_outcome(_least_clique, up, m + 1)
        assert got == _clique_outcome(_stack_least_clique, up, m + 1)
        refused += got is not None
    assert refused == 3


# -- clique / biclique / matching extraction ---------------------------------


def test_extract_complete_graph_yields_clique():
    g = Graph.complete(10)
    tag, verts = extract_clique_biclique_or_matching(
        g, 2, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
    assert tag == "clique" and len(verts) == 2
    assert g.has_edge(*verts)


def test_extract_plain_matching_yields_matching():
    g = Graph.matching(8)
    tag, edges = extract_clique_biclique_or_matching(
        g, 2, [(2 * i, 2 * i + 1) for i in range(8)])
    assert tag == "matching"
    assert edges == ((0, 1), (2, 3))


def test_extract_biclique_from_complete_bipartite():
    n = 8
    g = Graph.complete_bipartite(n, n)
    matching = [(i, n + i) for i in range(n)]
    got = extract_clique_biclique_or_matching(g, 2, matching)
    assert got is not None
    tag, payload = got
    assert tag == "biclique"
    left, right = payload
    assert len(left) == 2 and len(right) == 2
    for u in left:
        for v in right:
            assert g.has_edge(u, v)
    assert not g.has_edge(*left) and not g.has_edge(*right)


def test_extract_answers_sparse_matchings():
    # the lexicographic maximal matching of a G(200, .05) host has 93 edges;
    # C(93, 3) = 129766 prefixes is above WORK_LIMIT, but the search enters
    # far fewer
    g = rand_graph(random.Random(11), 200, 0.05)
    taken, matching = set(), []
    for (u, v) in sorted(g.edges):
        if u not in taken and v not in taken:
            matching.append((u, v))
            taken.update((u, v))
    assert len(matching) == 93
    assert extract_clique_biclique_or_matching(g, 2, matching) == (
        "matching", ((0, 16), (1, 8)))


def test_extract_too_small_returns_none():
    g = Graph.matching(2)
    assert extract_clique_biclique_or_matching(g, 3, [(0, 1), (2, 3)]) is None


def test_extract_rejects_bad_matchings():
    g = Graph.complete(4)
    with pytest.raises(PreconditionError):
        extract_clique_biclique_or_matching(g, 1, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionError):
        extract_clique_biclique_or_matching(Graph.matching(2), 1, [(0, 2)])
    with pytest.raises(PreconditionError):
        extract_clique_biclique_or_matching(g, 0, [(0, 1)])


@settings(max_examples=80, deadline=None)
@given(hst.integers(4, 11), hst.randoms(use_true_random=False))
def test_extract_verdicts_are_sound(n, rng):
    g = rand_graph(rng, n, 0.45)
    taken, matching = set(), []
    for (u, v) in sorted(g.edges):
        if u not in taken and v not in taken:
            matching.append((u, v))
            taken.update((u, v))
    if not matching:
        return
    got = extract_clique_biclique_or_matching(g, 1, matching)
    # with k = 1 any two matching edges form a monochromatic pair, and every
    # verdict collapses to something directly checkable
    if got is None:
        assert len(matching) < 2
        return
    tag, payload = got
    if tag == "clique":
        assert len(payload) == 1
    elif tag == "biclique":
        (l,), (r,) = payload
        assert g.has_edge(l, r)
    else:
        assert len(payload) == 1 and g.has_edge(*payload[0])


# -- tree decompositions --------------------------------------------------------


def path_decomposition(n):
    """Bags {i, i+1} chained along a path graph on n vertices."""
    bags = [(i, i + 1) for i in range(n - 1)]
    parent = [-1] + list(range(n - 2))
    return TreeDecomposition(parent, bags)


def test_td_constructor_rejections():
    with pytest.raises(PreconditionError):
        TreeDecomposition([], [])
    with pytest.raises(PreconditionError):
        TreeDecomposition([-1, -1], [(0,), (1,)])
    with pytest.raises(PreconditionError):
        TreeDecomposition([1, 0], [(0,), (1,)])
    with pytest.raises(PreconditionError):
        TreeDecomposition([-1, 1], [(0,), (1,)])
    with pytest.raises(PreconditionError):
        TreeDecomposition([-1], [(0,), (1,)])


def test_td_navigation():
    td = TreeDecomposition([-1, 0, 0, 1], [(0,), (0, 1), (0, 2), (1, 3)])
    assert td.root == 0
    assert td.width == 1
    assert td.children(0) == (1, 2)


def test_td_validation_rules():
    p4 = Graph.path(4)
    path_decomposition(4).validate_for(p4)
    with pytest.raises(PreconditionError):   # vertex 3 uncovered
        TreeDecomposition([-1, 0], [(0, 1), (1, 2)]).validate_for(p4)
    with pytest.raises(PreconditionError):   # edge (1,2) in no bag
        TreeDecomposition([-1, 0], [(0, 1), (2, 3)]).validate_for(p4)
    with pytest.raises(PreconditionError):   # vertex 0 occurrences split
        TreeDecomposition([-1, 0, 1],
                          [(0, 1), (1, 2, 3), (0, 3)]).validate_for(p4)
    with pytest.raises(PreconditionError):   # bag vertex out of range
        TreeDecomposition([-1], [(0, 4)]).validate_for(p4)


def test_exact_treewidth_on_known_graphs():
    for g, want in [(Graph.path(6), 1), (Graph.cycle(6), 2),
                    (Graph.complete(5), 4), (Graph.matching(3), 1),
                    (Graph.complete_bipartite(3, 3), 3),
                    (Graph.star(5), 1), (Graph(1), 0)]:
        td = exact_tree_decomposition(g)
        td.validate_for(g)
        assert td.width == want


def test_exact_treewidth_grid_three_by_three():
    pat = grid_pattern(3)
    g = Graph(pat.n, pat.edges)
    assert exact_tree_decomposition(g).width == 3


def test_exact_treewidth_empty_and_size_guard():
    td = exact_tree_decomposition(Graph(0))
    assert len(td) == 1 and td.bags == ((),)
    with pytest.raises(PreconditionError):
        exact_tree_decomposition(Graph.empty(13))


@settings(max_examples=60, deadline=None)
@given(hst.integers(1, 8), hst.randoms(use_true_random=False))
def test_exact_treewidth_outputs_validate(n, rng):
    g = rand_graph(rng, n, 0.4)
    td = exact_tree_decomposition(g)
    td.validate_for(g)
    assert td.width <= n - 1


# -- minor models -----------------------------------------------------------------


def test_minor_model_validation():
    host = Graph.path(4)
    pattern = Graph(2, [(0, 1)])
    MinorModel([(0, 1), (2, 3)]).validate_for(pattern, host)
    with pytest.raises(PreconditionError):   # empty branch set
        MinorModel([(), (2, 3)]).validate_for(pattern, host)
    with pytest.raises(PreconditionError):   # overlap
        MinorModel([(0, 1), (1, 2)]).validate_for(pattern, host)
    with pytest.raises(PreconditionError):   # disconnected branch set
        MinorModel([(0, 2), (1, 3)]).validate_for(pattern, host)
    with pytest.raises(PreconditionError):   # missing crossing edge
        MinorModel([(0,), (3,)]).validate_for(pattern, host)
    with pytest.raises(PreconditionError):   # out of range
        MinorModel([(0,), (7,)]).validate_for(pattern, host)


def test_minor_model_contraction():
    host = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    model = MinorModel([(0, 1), (2,), (3, 4)])
    got = model.contracted(host)
    assert got == Graph(3, [(0, 1), (1, 2), (0, 2)])


# -- bicubic rebuilding -------------------------------------------------------------


def test_make_bicubic_single_edge_frozen_size():
    h = Graph(2, [(0, 1)])
    dag, model = make_bicubic(h)
    assert dag.n == 18
    assert model.contracted(dag) == h


def test_make_bicubic_frozen_sizes():
    sizes = {}
    for name, h in [("P3", Graph.path(3)), ("K4", Graph.complete(4)),
                    ("K5", Graph.complete(5)), ("C6", Graph.cycle(6)),
                    ("M3", Graph.matching(3))]:
        dag, _ = make_bicubic(h)
        sizes[name] = dag.n
    assert sizes == {"P3": 24, "K4": 12, "K5": 60, "C6": 36, "M3": 54}


def test_make_bicubic_rejects_isolated_vertices():
    with pytest.raises(PreconditionError):
        make_bicubic(Graph(3, [(0, 1)]))


def test_make_bicubic_empty_graph():
    dag, model = make_bicubic(Graph(0))
    assert dag.n == 0 and model.branch_sets == ()


@settings(max_examples=60, deadline=None)
@given(hst.integers(2, 9), hst.randoms(use_true_random=False))
def test_make_bicubic_properties_on_randoms(n, rng):
    g = rand_graph(rng, n, 0.5)
    g = g.without_vertices(g.isolated_vertices())
    if g.n == 0:
        return
    dag, model = make_bicubic(g)
    # the constructor asserts regularity, bipartiteness, the size bound and
    # the contraction replay; re-check the headline facts here
    assert all(dag.degree(v) == 3 for v in range(dag.n))
    assert dag.is_bipartite()
    assert dag.n <= 20 * g.m
    assert model.contracted(dag) == Graph(g.n, g.edges)


# -- instance lifting ----------------------------------------------------------------


def colored_by_identity(g):
    return g.with_vertex_colors(range(g.n))


def test_minor_lift_identity_model_counts():
    import random
    rng = random.Random(11)
    h = Graph(3, [(0, 1), (1, 2)], vcolors=[0, 1, 2])
    dagger = Graph(3, [(0, 1), (1, 2)])
    model = MinorModel([(0,), (1,), (2,)])
    for _ in range(6):
        n = rng.randint(3, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        host = Graph(n, edges, vcolors=[rng.randrange(3) for _ in range(n)])
        direct = count_colorpreserving_subgraphs(h, host)
        lifted = minor_lift_instance(h, dagger, model, host)
        via = count_colorpreserving_subgraphs(colored_by_identity(dagger),
                                              lifted)
        assert direct == via


def test_minor_lift_edge_into_path_counts_and_size():
    import random
    rng = random.Random(5)
    h = Graph(2, [(0, 1)], vcolors=[0, 1])
    dagger = Graph.path(3)
    model = MinorModel([(0,), (1, 2)])
    for _ in range(6):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        vc = [rng.randrange(2) for _ in range(n)]
        host = Graph(n, edges, vcolors=vc)
        lifted = minor_lift_instance(h, dagger, model, host)
        want_n = sum(1 for c in vc if c == 0) + 2 * sum(1 for c in vc if c == 1)
        assert lifted.n == want_n
        direct = count_colorpreserving_subgraphs(h, host)
        via = count_colorpreserving_subgraphs(colored_by_identity(dagger),
                                              lifted)
        assert direct == via


def test_minor_lift_rejections():
    h = Graph(2, [(0, 1)], vcolors=[0, 0])      # not colorful
    dagger = Graph.path(3)
    model = MinorModel([(0,), (1, 2)])
    with pytest.raises(PreconditionError):
        minor_lift_instance(h, dagger, model, Graph(1, vcolors=[0]))
    h = Graph(2, [(0, 1)], vcolors=[0, 1])
    with pytest.raises(PreconditionError):      # host has no colors
        minor_lift_instance(h, dagger, model, Graph(1))
    with pytest.raises(PreconditionError):      # unknown host color
        minor_lift_instance(h, dagger, model, Graph(1, vcolors=[9]))
    sloppy = MinorModel([(0,), (1,)])           # vertex 2 unassigned
    with pytest.raises(PreconditionError):
        minor_lift_instance(h, dagger, sloppy, Graph(1, vcolors=[0]))


def test_minor_lift_discard_block_size():
    h = Graph(2, [(0, 1)], vcolors=[0, 1])
    dagger = Graph.path(4)
    model = MinorModel([(0,), (1, 2)], discard=(3,))
    host = Graph(3, [(0, 1), (1, 2)], vcolors=[0, 1, 0])
    lifted = minor_lift_instance(h, dagger, model, host)
    assert lifted.n == 1 + 2 + 1 + 1   # two color-0 copies, one color-1, B0


def test_full_rebuild_chain_preserves_counts():
    # the whole route: H -> (H-dagger, model) -> lifted instance, checked
    # against directly counting H in the host
    import random
    rng = random.Random(99)
    for h_plain in (Graph(2, [(0, 1)]), Graph.path(3), Graph.complete(3)):
        h = colored_by_identity(h_plain)
        dagger, model = make_bicubic(h_plain)
        for _ in range(3):
            n = rng.randint(h_plain.n, 6)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            host = Graph(n, edges,
                         vcolors=[rng.randrange(h_plain.n) for _ in range(n)])
            direct = count_colorpreserving_subgraphs(h, host)
            lifted = minor_lift_instance(h, dagger, model, host)
            via = count_colorpreserving_subgraphs(colored_by_identity(dagger),
                                                  lifted)
            assert direct == via


# -- grid instances --------------------------------------------------------------------


def test_grid_pattern_shape():
    pat = grid_pattern(3)
    assert pat.n == 9 and pat.m == 12
    assert is_colorful(pat)
    degs = sorted(pat.degree(v) for v in range(9))
    assert degs == [2, 2, 2, 2, 3, 3, 3, 3, 4]


def test_grid_instance_k4_counts_triangles():
    pat, host = build_grid_instance(Graph.complete(4), 3)
    assert host.n == 3 * 4 + 3 * 2 * 6
    assert count_colorpreserving_subgraphs(pat, host) == 4


def test_grid_instance_k2_counts_edges():
    g = Graph.complete(4)
    pat, host = build_grid_instance(g, 2)
    assert count_colorpreserving_subgraphs(pat, host) == g.m


def test_grid_instance_edgeless():
    pat, host = build_grid_instance(Graph.empty(5), 3)
    assert count_colorpreserving_subgraphs(pat, host) == 0


def test_grid_instance_size_arithmetic():
    g = Graph.cycle(5)
    _, host = build_grid_instance(g, 3)
    assert host.n == 3 * 5 + 3 * 2 * 5


def test_grid_instance_rejects_small_k():
    with pytest.raises(PreconditionError):
        build_grid_instance(Graph.path(3), 1)


@settings(max_examples=40, deadline=None)
@given(hst.integers(3, 7), hst.randoms(use_true_random=False))
def test_grid_instance_matches_triangle_count(n, rng):
    g = rand_graph(rng, n, 0.5)
    pat, host = build_grid_instance(g, 3)
    assert count_colorpreserving_subgraphs(pat, host) == \
        count_subgraphs(Graph.complete(3), g)
