"""Gadget verification, residues, and the matching-count reduction."""

import random
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (is_strong_set, nocommon_sufficient, rand_bipartite,
                     rand_graph, residue_classes_and_alphas,
                     residue_count_identity, restrict_gadget, subgraph_copies)
from subcount import gadgets
from subcount.brute import count_matchings, count_subgraphs, is_isomorphic
from subcount.gadgets import (
    MatchingGadget,
    boundary,
    build_G_ell,
    check_matching_gadget,
    count_T_ell,
    count_matchings_via_gadget,
    matching_alpha,
    search_gadget,
    validate_induced_matching,
)
from subcount.graphs import Graph, InconsistencyError, PreconditionError


def k4_minus_edge():
    # vertices a=0 b=1 c=2 d=3, every pair joined except a-d
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def five_vertex_non_gadget():
    # two matched edges a-b, c-d plus a hub adjacent to a and c
    return Graph(5, [(0, 1), (2, 3), (4, 0), (4, 2)])


def degree_gap_graph():
    # matched edge a-b; a also sees c2; hub 7 sees every core vertex c2..c6
    return Graph(8, [(0, 1), (0, 2), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6)])


# -- boundary and matching validation ------------------------------------


def test_boundary_whole_vertex_set():
    assert boundary(Graph.cycle(5), range(5)) == ()


def test_boundary_p3():
    assert boundary(Graph.path(3), [0, 1]) == (1,)


def test_boundary_range_check():
    with pytest.raises(PreconditionError):
        boundary(Graph.path(3), [0, 7])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_boundary_interior_monotone(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = rand_graph(rng, data.draw(st.integers(2, 8)), 0.4)
    verts = list(range(g.n))
    y = data.draw(st.sets(st.sampled_from(verts), min_size=1))
    x = data.draw(st.sets(st.sampled_from(sorted(y))))
    interior_x = x - set(boundary(g, x))
    interior_y = y - set(boundary(g, y))
    # a vertex with no neighbor outside x keeps that property in any superset
    assert interior_x <= interior_y


def test_validate_matching_rejects_missing_edge():
    with pytest.raises(PreconditionError):
        validate_induced_matching(Graph.path(3), [(0, 2)])


def test_validate_matching_rejects_shared_vertex():
    with pytest.raises(PreconditionError):
        validate_induced_matching(Graph.path(3), [(0, 1), (1, 2)])


def test_validate_matching_rejects_non_induced():
    with pytest.raises(PreconditionError):
        validate_induced_matching(Graph.path(4), [(0, 1), (2, 3)])


def test_gadget_fields():
    g = MatchingGadget(Graph.path(4), [(2, 3)])
    assert g.k == 1 and g.t == 4
    assert g.core == (0, 1)
    assert g.core_boundary == (1,)


# -- the full gadget check ------------------------------------------------


def test_pure_matchings_are_gadgets():
    for k in (1, 2, 3):
        assert check_matching_gadget(Graph.matching(k), Graph.matching(k).edges) is None


def test_k4_single_edge_is_gadget():
    assert check_matching_gadget(Graph.complete(4), [(0, 1)]) is None


def test_triangle_single_edge_is_gadget():
    # the rest is a single edge for every one-vertex core choice
    assert check_matching_gadget(Graph.complete(3), [(0, 1)]) is None


def test_k4_minus_edge_verdict_and_partition_story():
    h = k4_minus_edge()
    assert check_matching_gadget(h, [(2, 3)]) is None
    # the classic partition trap: {b,c} induces an edge just like the core
    # {a,b}, yet its complement {a,d} is edgeless; the no-isolated-vertex
    # condition is what rules this candidate out rather than any matching
    # structure.
    assert is_isomorphic(h.induced([1, 2]), h.induced([0, 1]))
    assert h.induced([0, 3]).m == 0


def test_non_gadget_counterexample():
    h = five_vertex_non_gadget()
    bad = check_matching_gadget(h, [(0, 1), (2, 3)])
    assert bad == (1,)
    # the reported core leaves a bipartite, isolated-free rest that is not
    # a 2-matching (the hub keeps degree two)
    rest = h.induced([v for v in range(5) if v != 1])
    assert rest.is_bipartite()
    assert not rest.isolated_vertices()
    assert sorted(rest.degree(v) for v in range(rest.n)) != [1, 1, 1, 1]


def test_check_accepts_gadget_object():
    g = MatchingGadget(Graph.complete(4), [(0, 1)])
    assert check_matching_gadget(g.h, g) is None


def test_check_reports_the_cores_it_scanned(monkeypatch):
    # search_gadget charges a failed check the count it reports; that must
    # be the number of candidate cores read up to the counterexample
    read = []
    scan = gadgets._candidate_cores
    monkeypatch.setattr(gadgets, "_candidate_cores",
                        lambda h, size: (read.append(c) or c for c in scan(h, size)))
    rng = random.Random(7)
    failed = 0
    for _ in range(60):
        h = rand_graph(rng, rng.randint(4, 9), rng.random())
        for k in (1, 2):
            for m in _induced_matchings(h, k):
                read.clear()
                found = gadgets._first_counterexample(MatchingGadget(h, m))
                if found is not None:
                    assert found == (len(read), read[-1])
                    failed += 1
    assert failed == 32


# -- the cheap sufficient condition ---------------------------------------


def test_nocommon_p4():
    assert nocommon_sufficient(Graph.path(4), [(2, 3)])


def test_nocommon_triangle():
    assert not nocommon_sufficient(Graph.complete(3), [(0, 1)])


def test_nocommon_rejects_hub():
    assert not nocommon_sufficient(five_vertex_non_gadget(), [(0, 1), (2, 3)])


def _induced_matchings(h, k):
    for combo in combinations(h.edges, k):
        verts = [v for e in combo for v in e]
        if len(set(verts)) == 2 * k and h.induced(sorted(verts)).m == k:
            yield combo


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 7))
def test_nocommon_implies_gadget(seed, n):
    rng = random.Random(seed)
    h = rand_graph(rng, n, 0.35)
    hits = 0
    for k in (1, 2):
        for m in _induced_matchings(h, k):
            if nocommon_sufficient(h, m):
                assert check_matching_gadget(h, m) is None
                hits += 1
                if hits >= 3:
                    return


# -- restriction ----------------------------------------------------------


def test_restrict_identity_and_empty():
    g = MatchingGadget(Graph.matching(3), Graph.matching(3).edges)
    same = restrict_gadget(g, g.matching)
    assert same.matching == g.matching
    empty = restrict_gadget(g, [])
    assert empty.k == 0 and empty.core == tuple(range(6))


def test_restrict_rejects_foreign_edge():
    g = MatchingGadget(Graph.matching(2), Graph.matching(2).edges)
    with pytest.raises(PreconditionError):
        restrict_gadget(g, [(0, 2)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_restriction_keeps_gadget_property(seed):
    rng = random.Random(seed)
    h = rand_graph(rng, rng.randrange(4, 7), 0.4)
    for m in _induced_matchings(h, 2):
        if check_matching_gadget(h, m) is None:
            g = MatchingGadget(h, m)
            for sub_size in (0, 1, 2):
                for sub in combinations(m, sub_size):
                    shrunk = restrict_gadget(g, sub)
                    assert check_matching_gadget(h, shrunk.matching) is None
            return


def test_candidate_core_scans_are_bounded():
    # a 20-vertex core of a 40-vertex graph has C(40, 20) candidate cores;
    # the check, the residue census and the strong-set test refuse them all
    rng = random.Random(40)
    core = rand_graph(rng, 20, 0.3)
    h = Graph(40, [(2 * i, 2 * i + 1) for i in range(10)]
              + [(2 * i, 20 + i) for i in range(10)]
              + [(20 + u, 20 + v) for u, v in core.edges])
    gadget = MatchingGadget(h, [(2 * i, 2 * i + 1) for i in range(10)])
    assert comb(40, 20) == 137846528820
    for run in (lambda: check_matching_gadget(h, gadget),
                lambda: residue_classes_and_alphas(gadget),
                lambda: is_strong_set(h, gadget.core, [20])):
        with pytest.raises(PreconditionError, match="137846528820 candidate cores"):
            run()


# -- strong sets ----------------------------------------------------------


def test_strong_empty_set():
    assert is_strong_set(Graph.complete(4), [0, 1], [])


def test_strong_set_requires_subset():
    with pytest.raises(PreconditionError):
        is_strong_set(Graph.complete(4), [0, 1], [2])


def test_swappable_endpoint_is_not_strong():
    # both endpoints of a lone edge are interchangeable
    assert not is_strong_set(Graph.complete(2), [0, 1], [0])


def test_degree_gap_hub_is_strong():
    h = degree_gap_graph()
    core = [2, 3, 4, 5, 6, 7]
    assert is_strong_set(h, core, [7])
    # a single degree-one leaf is interchangeable with the other leaves
    assert not is_strong_set(h, core, [3])


def test_removing_strong_set_preserves_gadget():
    # checker agrees on H and on H minus the strong hub, as predicted
    h = degree_gap_graph()
    assert is_strong_set(h, [2, 3, 4, 5, 6, 7], [7])
    trimmed = h.without_vertices([7])
    assert check_matching_gadget(trimmed, [(0, 1)]) is None
    assert check_matching_gadget(h, [(0, 1)]) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_remove_strong_property_sampled(seed):
    rng = random.Random(seed)
    h = rand_graph(rng, rng.randrange(4, 7), 0.45)
    matchings = list(_induced_matchings(h, 1))
    if not matchings:
        return
    m = matchings[0]
    covered = set(m[0])
    core = [v for v in range(h.n) if v not in covered]
    for size in (1, 2):
        for x in combinations(core, size):
            if not is_strong_set(h, core, x):
                continue
            trimmed = h.without_vertices(x)
            shift = sorted(v for v in range(h.n) if v not in set(x))
            relabel = {v: i for i, v in enumerate(shift)}
            m_shift = [tuple(sorted((relabel[a], relabel[b]))) for a, b in m]
            if check_matching_gadget(trimmed, m_shift) is None:
                assert check_matching_gadget(h, m) is None
            return


def test_end_edge_of_p6_is_no_impostor():
    # the core {2,3} and the end edge {0,1} induce one edge each and leave a
    # P4, but 0 has no neighbor outside {0,1}, so no isomorphism between
    # them keeps the boundary
    assert check_matching_gadget(Graph.path(6), [(0, 1), (4, 5)]) is None


def test_isolated_core_vertex_cannot_map_to_boundary():
    # {0} has an empty boundary, {1} and {2} do not
    assert is_strong_set(Graph(3, [(1, 2)]), [0], [0])


def test_strong_set_ignores_candidates_with_more_edges():
    # H[{0,1}] is edgeless; the candidates {1,2} and {1,3} fix 1, and {0,2},
    # {0,3} carry an edge, so none of their maps is an isomorphism
    assert is_strong_set(Graph(4, [(0, 2), (0, 3)]), [0, 1], [1])


# -- the isomorphism checks against outside references ---------------------


def _bijection_isomorphisms(h, core, cand):
    """Boundary-preserving isomorphisms H[core] -> H[cand] as dicts, by
    trying every bijection."""
    cs = sorted(core)
    bc, bd = set(boundary(h, core)), set(boundary(h, cand))
    for image in permutations(sorted(cand)):
        f = dict(zip(cs, image))
        if all((f[v] in bd) == (v in bc) for v in cs) and all(
                h.has_edge(u, v) == h.has_edge(f[u], f[v]) for u, v in combinations(cs, 2)):
            yield f


def _networkx_isomorphisms(h, core, cand):
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    def view(verts):
        bset = set(boundary(h, verts))
        g = nx.Graph()
        g.add_nodes_from((v, {"boundary": v in bset}) for v in verts)
        g.add_edges_from(e for e in combinations(verts, 2) if h.has_edge(*e))
        return g

    same_side = lambda a, b: a["boundary"] == b["boundary"]
    yield from GraphMatcher(view(core), view(cand), node_match=same_side).isomorphisms_iter()


def _strong_reference(h, core, x, isomorphisms):
    return all({f[v] for v in x} == set(x)
               for cand in combinations(range(h.n), len(core))
               for f in isomorphisms(h, core, cand))


def _counterexample_reference(h, matching, isomorphisms):
    core = MatchingGadget(h, matching).core
    for cand in combinations(range(h.n), len(core)):
        rest = h.without_vertices(cand)
        if (rest.is_bipartite() and not rest.isolated_vertices()
                and any(rest.degree(v) != 1 for v in range(rest.n))
                and next(isomorphisms(h, core, cand), None) is not None):
            return cand
    return None


def _check_against(isomorphisms, seed):
    rng = random.Random(seed)
    strong = []
    for _ in range(150):
        n = rng.randrange(4, 8)
        h = rand_graph(rng, n, rng.choice((0.3, 0.45, 0.6)))
        core = sorted(rng.sample(range(n), rng.randrange(1, n)))
        x = sorted(rng.sample(core, rng.randrange(1, len(core) + 1)))
        expect = _strong_reference(h, core, x, isomorphisms)
        assert is_strong_set(h, core, x) == expect
        strong.append(expect)
    bad = []
    for _ in range(40):
        h = rand_graph(rng, rng.randrange(4, 8), rng.choice((0.3, 0.45, 0.6)))
        for k in (1, 2):
            for m in _induced_matchings(h, k):
                expect = _counterexample_reference(h, m, isomorphisms)
                assert check_matching_gadget(h, m) == expect
                bad.append(expect is not None)
    # both verdicts occur, so neither check passes by always saying one thing
    assert set(strong) == {True, False} and set(bad) == {True, False}


def test_isomorphism_checks_match_bijection_reference():
    _check_against(_bijection_isomorphisms, 11)


def test_isomorphism_checks_match_networkx():
    pytest.importorskip("networkx")
    _check_against(_networkx_isomorphisms, 12)


def test_gadgets_refuse_directed_graphs():
    h = Graph(4, [(0, 1), (1, 2), (2, 3)], directed=True)
    with pytest.raises(PreconditionError):
        check_matching_gadget(h, [(0, 1)])
    with pytest.raises(PreconditionError):
        is_strong_set(h, [2, 3], [2])


# -- instance assembly and the constrained count ---------------------------


def test_build_instance_shapes():
    g = MatchingGadget(Graph.complete(4), [(0, 1)])
    host = Graph.cycle(4)
    for ell in (0, 1, 3):
        inst = build_G_ell(g, host, ell)
        assert inst.graph.n == host.n + ell + 2
        assert len(inst.join_edges) == 2 * (host.n + ell)
        assert set(inst.boundary_vertices) <= set(inst.core_vertices)


def test_build_instance_empty_core():
    g = MatchingGadget(Graph.matching(2), Graph.matching(2).edges)
    inst = build_G_ell(g, Graph.path(3), 2)
    assert inst.core_vertices == ()
    assert inst.graph.n == 5
    assert inst.graph.m == 2


def test_count_T_empty_core_is_plain_count():
    g = MatchingGadget(Graph.matching(2), Graph.matching(2).edges)
    host = Graph.cycle(6)
    for ell in (0, 2):
        padded = Graph(host.n + ell, host.edges)
        assert count_T_ell(g, host, ell) == count_subgraphs(g.h, padded)


def test_count_T_matches_direct_filter():
    g = MatchingGadget(Graph.complete(4), [(0, 1)])
    host = Graph.cycle(4)
    inst = build_G_ell(g, host, 0)
    core = set(inst.core_vertices)
    core_edges = {
        e for e in inst.graph.edges if e[0] in core and e[1] in core
    }
    join = set(inst.join_edges)
    direct = 0
    for verts, edges in subgraph_copies(g.h, inst.graph):
        if not core <= verts or not core_edges <= edges:
            continue
        if all(any(b in e and e in join for e in edges) for b in inst.boundary_vertices):
            direct += 1
    assert count_T_ell(g, host, 0) == direct


def test_count_T_monotone_in_padding():
    g = MatchingGadget(k4_minus_edge(), [(2, 3)])
    host = Graph.path(4)
    values = [count_T_ell(g, host, ell) for ell in range(4)]
    assert values == sorted(values)


def test_count_T_oracle_budget():
    calls = []

    def oracle(h, g):
        calls.append(1)
        return count_subgraphs(h, g)

    g = MatchingGadget(Graph.complete(4), [(0, 1)])
    count_T_ell(g, Graph.cycle(4), 0, oracle)
    # one core edge, no lone core vertices, two boundary vertices
    assert len(calls) == 8


# -- residue classes -------------------------------------------------------


def test_residues_pure_matching():
    g = MatchingGadget(Graph.matching(2), Graph.matching(2).edges)
    classes = residue_classes_and_alphas(g)
    assert len(classes) == 1
    assert classes[0].alpha == 1
    assert classes[0].isolated == ()
    assert is_isomorphic(classes[0].graph, Graph.matching(2))


def test_residues_k4():
    g = MatchingGadget(Graph.complete(4), [(0, 1)])
    classes = residue_classes_and_alphas(g)
    assert len(classes) == 1
    assert classes[0].alpha == 1
    assert is_isomorphic(classes[0].graph, Graph.matching(1))


def test_residues_k4_minus_edge():
    g = MatchingGadget(k4_minus_edge(), [(2, 3)])
    classes = residue_classes_and_alphas(g)
    assert [len(c.isolated) for c in classes] == [0, 2]
    assert classes[0].alpha == 4
    assert classes[1].alpha == 1
    assert classes[1].pure.n == 0
    assert matching_alpha(g) == 4


def test_residues_reject_invalid_gadget():
    bad = MatchingGadget(five_vertex_non_gadget(), [(0, 1), (2, 3)])
    with pytest.raises(InconsistencyError):
        residue_classes_and_alphas(bad)


def test_residue_identity_term_by_term():
    hosts = [
        Graph.path(3),
        Graph.cycle(4),
        rand_bipartite(random.Random(5), 3, 3, 0.6),
    ]
    gadgets = [
        MatchingGadget(Graph.complete(4), [(0, 1)]),
        MatchingGadget(k4_minus_edge(), [(2, 3)]),
        MatchingGadget(Graph.complete(3), [(0, 1)]),
        MatchingGadget(Graph.matching(2), Graph.matching(2).edges),
    ]
    for g in gadgets:
        for host in hosts:
            for ell in range(2 * g.k + 1):
                assert count_T_ell(g, host, ell) == residue_count_identity(g, host, ell)


def test_k4_minus_edge_closed_form():
    # with residues M1 (alpha 4) and two isolates (alpha 1) the constrained
    # count is 4*m + C(n+ell, 2)
    g = MatchingGadget(k4_minus_edge(), [(2, 3)])
    host = rand_bipartite(random.Random(9), 3, 4, 0.5)
    for ell in range(3):
        expect = 4 * host.m + comb(host.n + ell, 2)
        assert count_T_ell(g, host, ell) == expect


# -- the counting pipeline -------------------------------------------------


def test_pipeline_single_edge_gadget_counts_edges():
    g = MatchingGadget(Graph.matching(1), [(0, 1)])
    host = Graph.cycle(6)
    assert count_matchings_via_gadget(host, 1, g) == 6


def test_pipeline_k4_on_c4():
    g = MatchingGadget(Graph.complete(4), [(0, 1)])
    assert count_matchings_via_gadget(Graph.cycle(4), 1, g) == 4


def test_pipeline_rejects_mismatched_k():
    g = MatchingGadget(Graph.complete(4), [(0, 1)])
    with pytest.raises(PreconditionError):
        count_matchings_via_gadget(Graph.cycle(4), 2, g)


def test_pipeline_rejects_odd_cycle_host():
    g = MatchingGadget(Graph.complete(4), [(0, 1)])
    with pytest.raises(PreconditionError):
        count_matchings_via_gadget(Graph.cycle(5), 1, g)


def test_pipeline_tiny_host():
    # fewer host vertices than 2k: zero matchings, and the read-out starts
    # at the negative point x0 = n - 2k, down to -2k for the empty host
    g = MatchingGadget(Graph.matching(2), Graph.matching(2).edges)
    assert count_matchings_via_gadget(Graph.path(3), 2, g) == 0
    rng = random.Random(14)
    for k, g in ((1, MatchingGadget(Graph.complete(4), [(0, 1)])),
                 (2, MatchingGadget(Graph.matching(2), Graph.matching(2).edges)),
                 (3, MatchingGadget(Graph.matching(3), Graph.matching(3).edges))):
        for n in range(2 * k):
            a = rng.randint(0, n)
            host = rand_bipartite(rng, a, n - a, 0.6)
            assert count_matchings_via_gadget(host, k, g) == count_matchings(host, k) == 0


def test_pipeline_oracle_budget():
    calls = []

    def oracle(h, g):
        calls.append(1)
        return count_subgraphs(h, g)

    g = MatchingGadget(Graph.complete(4), [(0, 1)])
    count_matchings_via_gadget(Graph.cycle(4), 1, g, oracle)
    # three paddings, eight inclusion-exclusion terms each
    assert len(calls) == 24


def test_pipeline_refuses_gadgets_above_the_query_limit():
    # K6 on 0..5 plus the path 5-6-7 is a gadget for the matching 6-7, but
    # its read-out needs 3 * 2^(15 core edges + 1 boundary vertex) = 196608
    # queries; the refusal comes before the first
    h = Graph(8, [*combinations(range(6), 2), (5, 6), (6, 7)])
    assert check_matching_gadget(h, [(6, 7)]) is None
    calls = []

    def oracle(h, g):
        calls.append(1)
        return count_subgraphs(h, g)

    host = Graph(4, [(0, 2), (1, 3), (0, 3)])
    with pytest.raises(PreconditionError, match="196608"):
        count_matchings_via_gadget(host, 1, MatchingGadget(h, [(6, 7)]), oracle)
    assert calls == []


def test_pipeline_agrees_with_brute():
    rng = random.Random(77)
    gadgets = [
        (1, MatchingGadget(Graph.complete(4), [(0, 1)])),
        (1, MatchingGadget(Graph.complete(3), [(0, 1)])),
        (1, MatchingGadget(k4_minus_edge(), [(2, 3)])),
        (2, MatchingGadget(Graph.matching(2), Graph.matching(2).edges)),
    ]
    for _ in range(6):
        host = rand_bipartite(rng, rng.randrange(2, 5), rng.randrange(2, 5), 0.5)
        for k, g in gadgets:
            assert count_matchings_via_gadget(host, k, g) == count_matchings(host, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_pipeline_m3_gadget(seed):
    rng = random.Random(seed)
    host = rand_bipartite(rng, rng.randrange(3, 6), rng.randrange(3, 6), 0.55)
    g = MatchingGadget(Graph.matching(3), Graph.matching(3).edges)
    assert count_matchings_via_gadget(host, 3, g) == count_matchings(host, 3)


# -- search ---------------------------------------------------------------


def test_search_matching_graph():
    found = search_gadget(Graph.matching(2), 2)
    assert found is not None
    assert found.matching == ((0, 1), (2, 3))


def test_search_k4():
    found = search_gadget(Graph.complete(4), 1)
    assert found is not None
    assert found.matching == ((0, 1),)


def test_search_triangle_finds_gadget():
    # every single-vertex core leaves an edge, so the check passes
    found = search_gadget(Graph.complete(3), 1)
    assert found is not None
    assert found.matching == ((0, 1),)


def test_search_c6_two_matching():
    found = search_gadget(Graph.cycle(6), 2)
    assert found is not None
    assert check_matching_gadget(Graph.cycle(6), found.matching) is None


def test_search_exhausts_to_none():
    # the hub construction spoils both induced 2-matchings
    assert search_gadget(five_vertex_non_gadget(), 2) is None


def test_search_grows_matchings_in_combinations_order(monkeypatch):
    # with every check failing, the search visits each induced k-matching,
    # in the order of the filtered combinations of the edge list
    checked = []
    monkeypatch.setattr("subcount.gadgets._first_counterexample",
                        lambda g: checked.append(g.matching) or (1, (0,)))
    rng = random.Random(19)
    for _ in range(300):
        n, k = rng.randint(0, 12), rng.randint(0, 4)
        h = rand_graph(rng, n, rng.random())
        want = [c for c in combinations(h.edges, k)
                if len({v for e in c for v in e}) == 2 * k
                and h.induced({v for e in c for v in e}).m == k]
        checked.clear()
        assert search_gadget(h, k) is None
        assert checked == want


def test_search_respects_k_zero():
    found = search_gadget(Graph.path(3), 0)
    assert found is not None and found.k == 0
