"""The acceptance gate: one test per numbered criterion, in order.

Each test finishes by printing a single [acceptance] PASS line (visible with
pytest -s or -rP); a failing criterion fails its test the usual way.  All
corpora are seeded, so reruns see the same instances.
"""

import random
import time
from collections import Counter
from functools import partial
from itertools import combinations, product

import pytest

from subcount import brute, gadgets, hardness, iex, routes, structural, vc
from subcount.brute import (automorphism_count, count_colorful_matchings,
                            count_colorpreserving_subgraphs, count_embeddings,
                            count_matchings, count_subgraphs,
                            count_walk_patterns)
from subcount.gadgets import (MatchingGadget, check_matching_gadget,
                              count_matchings_via_gadget, search_gadget)
from subcount.graphs import Graph, min_vertex_cover
from subcount.hardness import (TYPES, build_triangle_graph,
                               directed_cycles_via_undirected,
                               matchings_via_directed_cycles, state_matrix,
                               subpart_via_colmatch_oracle)
from subcount.polynomials import determinant
from subcount.structural import (build_grid_instance,
                                 exact_tree_decomposition,
                                 extract_clique_biclique_or_matching,
                                 make_bicubic, minor_lift_instance)

from helpers import (is_strong_set, iter_colorful_matchings,
                     nocommon_sufficient, rand_bipartite, rand_digraph,
                     rand_graph, residue_graph, restrict_gadget)

APPENDIX_MATRIX = [[2, 2, 3, 3, 3],
                   [2, 3, 2, 3, 3],
                   [2, 3, 3, 2, 3],
                   [2, 3, 3, 4, 5],
                   [2, 2, 2, 2, 4]]


def _report(line):
    print(f"[acceptance] {line}", flush=True)


def _colorful_k33():
    return Graph.complete_bipartite(3, 3).with_vertex_colors(range(6))


# -- criterion 1: published state matrix ------------------------------------


def test_c01_state_matrix_reproduction():
    t0 = time.perf_counter()
    rows = state_matrix(0)
    assert rows == APPENDIX_MATRIX
    det = determinant(state_matrix(0))
    assert det == 12
    # every entry independently reproduced by a brute colorful-matching
    # count on the corresponding structured graph
    for si, s in enumerate(TYPES):
        g = residue_graph(s)
        for ti, t in enumerate(TYPES):
            assert rows[ti][si] == count_colorful_matchings(
                g, hardness.A_SETS[t])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(f"criterion 1 PASS: state matrix matches the published table, "
            f"det(0)=12, brute-reverified in {elapsed:.2f}s")


# -- criteria 2 and 3: cover counter vs brute, and the Emb/Aut/Sub identity --


@pytest.fixture(scope="module")
def vc_corpus():
    """500 seeded (pattern, host) pairs with |V(H)| <= 7, tau(H) <= 3,
    |V(G)| <= 12 and both densities swept; all four counts per pair."""
    rng = random.Random(20260814)
    densities = (0.15, 0.3, 0.5, 0.7, 0.85)
    rows = []
    while len(rows) < 500:
        h = rand_graph(rng, rng.randint(2, 7), rng.choice(densities))
        if min_vertex_cover(h)[0] > 3:
            continue
        g = rand_graph(rng, rng.randint(4, 12),
                       densities[len(rows) % len(densities)])
        rows.append((count_subgraphs(h, g), vc.count_sub_vc(h, g),
                     count_embeddings(h, g), vc.count_emb_vc(h, g),
                     automorphism_count(h)))
    return rows


def test_c02_vc_counter_equals_brute(vc_corpus):
    t0 = time.perf_counter()
    assert all(sub_b == sub_v for sub_b, sub_v, _, _, _ in vc_corpus)
    _report(f"criterion 2 PASS: cover counter agreed with brute on "
            f"{len(vc_corpus)} pairs (checked in {time.perf_counter() - t0:.2f}s "
            f"after corpus generation)")


def test_c03_emb_aut_sub_identity(vc_corpus):
    # cross the algorithms so neither side derives from the other
    for sub_b, sub_v, emb_b, emb_v, aut in vc_corpus:
        assert emb_b == aut * sub_v
        assert emb_v == aut * sub_b
    _report(f"criterion 3 PASS: #Emb = #Aut * #Sub held across algorithms on "
            f"{len(vc_corpus)} pairs")


# -- criterion 4: color-to-plain transfers -----------------------------------


def _all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs))
                        if mask >> i & 1])


def test_c04_colorful_to_uncolored_transfers():
    # the matching transfer asks #Sub(M_k -> host), here of the matchings route
    by_matchings = partial(routes.count_sub, "matchings")
    t0 = time.perf_counter()
    rng = random.Random(404)
    checked = 0

    # exhaustive, palettes up to size 4: every colorful pattern on <= 4
    # vertices against seeded hosts
    for n in range(1, 5):
        for h_plain in _all_graphs(n):
            h = h_plain.with_vertex_colors(range(n))
            for _ in range(2):
                ng = rng.randint(n, 8)
                g = rand_graph(rng, ng, 0.5).with_vertex_colors(
                    [rng.randrange(n) for _ in range(ng)])
                got = iex.subpart_via_sub_oracle(h, g, count_subgraphs)
                assert got == count_colorpreserving_subgraphs(h, g)
                checked += 1

    # exhaustive matching transfer: every host on 4 vertices under every
    # edge coloring with palette {0..3}
    for g_plain in _all_graphs(4):
        if g_plain.m == 0:
            continue
        for coloring in product(range(4), repeat=g_plain.m):
            g = g_plain.with_edge_colors(coloring)
            colors = sorted(set(coloring))
            got = iex.colmatch_via_match_oracle(g, colors, by_matchings)
            assert got == count_colorful_matchings(g, colors)
            checked += 1

    # randomized, palettes up to size 8
    for _ in range(20):
        n = rng.randint(5, 8)
        h = rand_graph(rng, n, rng.uniform(0.3, 0.8)).with_vertex_colors(range(n))
        ng = rng.randint(n, 10)
        g = rand_graph(rng, ng, 0.45).with_vertex_colors(
            [rng.randrange(n) for _ in range(ng)])
        got = iex.subpart_via_sub_oracle(h, g, count_subgraphs)
        assert got == count_colorpreserving_subgraphs(h, g)
        checked += 1
    for _ in range(40):
        g = rand_graph(rng, rng.randint(4, 10), 0.5)
        if g.m == 0:
            continue
        palette = rng.randint(1, 8)
        g = g.with_edge_colors([rng.randrange(palette) for _ in range(g.m)])
        colors = sorted(set(g.ecolors))
        got = iex.colmatch_via_match_oracle(g, colors, by_matchings)
        assert got == count_colorful_matchings(g, colors)
        checked += 1

    _report(f"criterion 4 PASS: both transfers matched brute counts on "
            f"{checked} instances ({time.perf_counter() - t0:.1f}s)")


# -- criterion 5: the colorful K33 oracle pipeline ---------------------------


def _sparse_colored(rng, n, extra_edges):
    verts = list(range(n))
    edges = set()
    while len(edges) < extra_edges:
        u, v = rng.sample(verts, 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges),
                 vcolors=[rng.randrange(6) for _ in range(n)])


def test_c05_colmatch_pipeline_on_k33():
    h = _colorful_k33()
    rng = random.Random(5150)
    instances = []
    # planted instance: two disjoint color-preserving copies plus noise,
    # guaranteeing a count of at least 2
    planted = _colorful_k33().disjoint_union(_colorful_k33())
    extra = list(planted.edges)
    while len(extra) < planted.m + 8:
        u, v = rng.sample(range(12), 2)
        e = (min(u, v), max(u, v))
        if e not in extra:
            extra.append(e)
    planted = Graph(12, extra, vcolors=planted.vcolors)
    instances.append(planted)
    # sparse random instances on up to 30 vertices
    instances.append(_sparse_colored(rng, 30, 36))
    instances.append(_sparse_colored(rng, 26, 34))
    instances.append(_sparse_colored(rng, 22, 30))
    instances.append(_sparse_colored(rng, 30, 45))

    seen_zero = seen_two = False
    for g in instances:
        t0 = time.perf_counter()
        want = count_colorpreserving_subgraphs(h, g)
        got = subpart_via_colmatch_oracle(h, g)
        elapsed = time.perf_counter() - t0
        assert got == want
        assert elapsed < 900
        seen_zero = seen_zero or want == 0
        seen_two = seen_two or want >= 2
    assert seen_zero, "corpus never produced a zero count"
    assert seen_two, "corpus never produced a count of two or more"
    _report(f"criterion 5 PASS: 5^6-query pipeline matched brute on "
            f"{len(instances)} hosts including zero and >=2 counts")


# -- criterion 6: the Kronecker combination identity --------------------------


def _brute_census(tg):
    census = {}
    for edges in iter_colorful_matchings(tg.graph, tg.link_colors()):
        theta = tg.classify_link_matching(edges)
        census[theta] = census.get(theta, 0) + 1
    return census


def _kron_rhs(census, t, x):
    m = state_matrix(x)
    total = 0
    for theta, cnt in census.items():
        term = cnt
        for ti, si in zip(t, theta):
            term *= m[ti - 1][si - 1]
        total += term
    return total


def test_c06_kron_identity_term_by_term():
    t0 = time.perf_counter()
    h = _colorful_k33()

    # desk instance: the pattern itself as host, three gadgets per class;
    # every one of the 5^6 query values reproduced by brute counting
    tg = build_triangle_graph(h, _colorful_k33(), padding=3)
    census = _brute_census(tg)
    x = tg.n - 3
    for t in product(TYPES, repeat=6):
        lhs = count_colorful_matchings(tg.graph, tg.query_colors(t))
        assert lhs == _kron_rhs(census, t, x)

    # a richer census (two host vertices per class, all split types) on a
    # seeded sample of query vectors
    doubled = _colorful_k33().disjoint_union(_colorful_k33())
    tg2 = build_triangle_graph(h, doubled, padding=3)
    census2 = _brute_census(tg2)
    rng = random.Random(606)
    for _ in range(25):
        t = tuple(rng.choice(TYPES) for _ in range(6))
        lhs = count_colorful_matchings(tg2.graph, tg2.query_colors(t))
        assert lhs == _kron_rhs(census2, t, tg2.n - 3)

    _report(f"criterion 6 PASS: query identity held term-by-term on the desk "
            f"instance (all 15625 vectors) plus 25 sampled vectors on a "
            f"doubled host ({time.perf_counter() - t0:.1f}s)")


# -- criterion 7: the cycle chain ---------------------------------------------


def test_c07_cycle_chain():
    t0 = time.perf_counter()
    rng = random.Random(707)
    matchings_checked = 0
    while matchings_checked < 50:
        a = rng.randint(1, 5)
        b = rng.randint(1, 5)
        g = rand_bipartite(rng, a, b, rng.choice((0.3, 0.5, 0.8)))
        k = rng.randint(1, 4)
        assert matchings_via_directed_cycles(g, k) == count_matchings(g, k)
        matchings_checked += 1

    cycles_checked = 0
    while cycles_checked < 50:
        n = rng.randint(3, 10)
        d = rand_digraph(rng, n, rng.uniform(0.08, 0.3))
        k = rng.randint(2, 4)
        assert (directed_cycles_via_undirected(d, k)
                == count_walk_patterns(d, "cycle", k))
        cycles_checked += 1
    _report(f"criterion 7 PASS: both cycle-chain links matched brute on "
            f"{matchings_checked}+{cycles_checked} instances with integer "
            f"factors throughout ({time.perf_counter() - t0:.1f}s)")


# -- criterion 8: the gadget reduction ----------------------------------------


def test_c08_gadget_reduction_pipeline():
    t0 = time.perf_counter()
    rng = random.Random(808)
    configs = [(Graph.matching(1), Graph.matching(1).edges, 1),
               (Graph.matching(2), Graph.matching(2).edges, 2),
               (Graph.matching(3), Graph.matching(3).edges, 3),
               (Graph.complete(4), ((0, 1),), 1)]
    checked = 0
    for hg, matching, k in configs:
        assert check_matching_gadget(hg, matching) is None
        gadget = MatchingGadget(hg, matching)
        for _ in range(25):
            a = rng.randint(1, 6)
            b = rng.randint(1, 6)
            g = rand_bipartite(rng, a, b, rng.uniform(0.3, 0.9))
            assert (count_matchings_via_gadget(g, k, gadget)
                    == count_matchings(g, k))
            checked += 1
    _report(f"criterion 8 PASS: gadget pipeline matched brute k-matching "
            f"counts on {checked} bipartite hosts "
            f"({time.perf_counter() - t0:.1f}s)")


# -- criterion 9: the grid instance -------------------------------------------


def test_c09_grid_instance_counts_triangles():
    t0 = time.perf_counter()
    rng = random.Random(909)
    for i in range(50):
        n = rng.randint(3, 8)
        g = rand_graph(rng, n, rng.uniform(0.25, 0.9))
        pattern, host = build_grid_instance(g, 3)
        triangles = count_walk_patterns(g, "cycle", 3) if g.m else 0
        assert count_colorpreserving_subgraphs(pattern, host) == triangles
    _report(f"criterion 9 PASS: grid instance reproduced the triangle count "
            f"on 50 hosts ({time.perf_counter() - t0:.1f}s)")


# -- criterion 10: bicubic rebuild and the minor lift --------------------------


def test_c10_bicubic_rebuild_and_minor_lift():
    t0 = time.perf_counter()
    rng = random.Random(1010)
    built = 0
    while built < 120:
        n = rng.randint(1, 8)
        g = rand_graph(rng, n, rng.uniform(0.4, 0.9))
        if g.m == 0 or g.isolated_vertices():
            continue
        dagger, model = make_bicubic(g)
        assert all(dagger.degree(v) == 3 for v in range(dagger.n))
        assert dagger.is_bipartite()
        assert dagger.n <= 20 * g.m
        model.validate_for(g, dagger)
        assert model.contracted(dagger) == Graph(g.n, g.edges)
        built += 1

    lifted_checked = 0
    patterns = [Graph.matching(1), Graph.path(3), Graph.cycle(3)]
    for base in patterns:
        h = base.with_vertex_colors(range(base.n))
        dagger, model = make_bicubic(base)
        ident = dagger.with_vertex_colors(range(dagger.n))
        for _ in range(10):
            ng = rng.randint(base.n, 5)
            g = rand_graph(rng, ng, 0.6).with_vertex_colors(
                [rng.randrange(base.n) for _ in range(ng)])
            lifted = minor_lift_instance(h, dagger, model, g)
            assert (count_colorpreserving_subgraphs(ident, lifted)
                    == count_colorpreserving_subgraphs(h, g))
            lifted_checked += 1
    _report(f"criterion 10 PASS: {built} bicubic rebuilds kept every "
            f"structural promise and {lifted_checked} minor lifts preserved "
            f"counts ({time.perf_counter() - t0:.1f}s)")


# -- criterion 11: aggregated property suites ----------------------------------


def _induced_matchings_of(h, k):
    for combo in combinations(h.edges, k):
        verts = [v for e in combo for v in e]
        if len(set(verts)) != 2 * k:
            continue
        if h.induced(sorted(verts)).m == k:
            yield combo


def test_c11_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(1111)
    cases = 0

    # monochromatic-clique search: every returned witness is re-verified
    # inside the function; None answers are exercised too
    for _ in range(5000):
        n = rng.randint(1, 25)
        c = rng.randint(1, 3)
        r = rng.randint(0, 3)
        coloring = {}
        for u in range(n):
            for v in range(u + 1, n):
                coloring[(u, v)] = rng.randrange(c)
        structural.ramsey_monochromatic_clique(
            n, lambda u, v: coloring[(u, v)], r)
        cases += 1

    # extraction witnesses from the lexicographic maximal matching, whose
    # cross edges let every verdict occur (each is re-verified inside)
    verdicts = Counter()
    while sum(verdicts.values()) < 1400:
        g = rand_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8))
        if g.m == 0:
            continue
        taken, matching = set(), []
        for (u, v) in sorted(g.edges):
            if u not in taken and v not in taken:
                matching.append((u, v))
                taken.update((u, v))
        got = extract_clique_biclique_or_matching(g, rng.randint(1, 2),
                                                  matching)
        verdicts[got and got[0]] += 1
        cases += 1
    assert all(verdicts[tag] for tag in ("clique", "biclique", "matching"))

    # tree decompositions
    for _ in range(300):
        g = rand_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.6))
        td = exact_tree_decomposition(g)
        td.validate_for(g)
        cases += 1

    # subgadget closure: every restriction of a verified gadget verifies
    closures = 0
    base_gadgets = [MatchingGadget(Graph.matching(k), Graph.matching(k).edges)
                    for k in (1, 2, 3)]
    base_gadgets.append(MatchingGadget(Graph.complete(4), ((0, 1),)))
    seen = 0
    while seen < 60:
        g = rand_graph(rng, rng.randint(4, 6), rng.uniform(0.3, 0.7))
        found = search_gadget(g, 2)
        seen += 1
        if found is not None:
            base_gadgets.append(found)
    for gadget in base_gadgets:
        for size in range(gadget.k + 1):
            for sub in combinations(gadget.matching, size):
                shrunk = restrict_gadget(gadget, sub)
                assert check_matching_gadget(shrunk.h, shrunk.matching) is None
                closures += 1
                cases += 1

    # strong-set removal transfers the gadget property upward
    strong_checked = 0
    for _ in range(260):
        h = rand_graph(rng, rng.randint(4, 6), rng.uniform(0.3, 0.6))
        ms = list(_induced_matchings_of(h, 1))
        if not ms:
            cases += 1
            continue
        m = ms[0]
        covered = set(m[0])
        core = [v for v in range(h.n) if v not in covered]
        for x in list(combinations(core, 1))[:3]:
            cases += 1
            if not is_strong_set(h, core, x):
                continue
            strong_checked += 1
            trimmed = h.without_vertices(x)
            keep = sorted(v for v in range(h.n) if v not in set(x))
            relabel = {v: i for i, v in enumerate(keep)}
            m_shift = [tuple(sorted((relabel[a], relabel[b]))) for a, b in m]
            if check_matching_gadget(trimmed, m_shift) is None:
                assert check_matching_gadget(h, m) is None

    # the cheap one-way condition never overclaims
    nocommon_hits = 0
    for _ in range(3000):
        h = rand_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.7))
        ms = list(_induced_matchings_of(h, 1)) + list(_induced_matchings_of(h, 2))
        cases += 1
        if not ms:
            continue
        m = ms[rng.randrange(len(ms))]
        if nocommon_sufficient(h, m):
            assert check_matching_gadget(h, m) is None
            nocommon_hits += 1

    assert cases >= 10_000
    assert strong_checked > 0 and nocommon_hits > 0 and closures > 0
    _report(f"criterion 11 PASS: zero violations across {cases} fuzz cases "
            f"({verdicts['clique']} clique, {verdicts['biclique']} biclique, "
            f"{verdicts['matching']} matching and {verdicts[None]} empty "
            f"extractions, {closures} gadget restrictions, "
            f"{strong_checked} strong-set transfers, {nocommon_hits} sufficient-condition hits, "
            f"{time.perf_counter() - t0:.1f}s)")
