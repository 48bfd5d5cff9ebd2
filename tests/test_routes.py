"""Route choice: which route auto takes, and that every route counts right.

The choice table is deterministic: ``choose`` reads the pattern and the
host's degrees or walk counts and times nothing, so each row names the route
it must return.
"""

import json
import random
import time

import pytest

from subcount import brute, gadgets, hardness, iex, routes, vc
from subcount.cli import main
from subcount.fileio import write_graph
from subcount.graphs import Graph, PreconditionError

from helpers import (colorful, rand_bipartite, rand_cubic, rand_digraph,
                     rand_edge_colored, rand_graph, rand_vertex_colored)


def _bench_host(name, n, p, seed=1):
    """A benchmark host as bench/workloads.py draws it: exactly
    round(p * C(n, 2)) edges sampled from ``random.Random(f"{seed}:{name}")``."""
    rng = random.Random(f"{seed}:{name}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, sorted(rng.sample(pairs, round(p * len(pairs)))))


G120 = _bench_host("g120", 120, 0.1)
G26 = _bench_host("g26", 26, 0.3)


def _rand(n, p, seed):
    return rand_graph(random.Random(seed), n, p)


@pytest.mark.parametrize("h, g, allowed", [
    (Graph.cycle(3), G120, {"cycles", "brute"}),
    (Graph.path(4), G120, {"vc", "brute"}),
    (Graph.star(5), G120, {"vc"}),
    (Graph.matching(3), G26, {"matchings"}),
    # vc takes 245 ms here, count_matchings 46 ms
    (Graph.matching(4), G26, {"matchings"}),
    (Graph.matching(4), _rand(30, 0.25, 3), {"matchings"}),
    (Graph.matching(5), _rand(30, 0.25, 3), {"matchings"}),
    (Graph.cycle(8), _rand(40, 0.2, 1), {"cycles"}),
    (Graph.cycle(10), _rand(60, 0.1, 2), {"cycles"}),
], ids=["triangle-g120", "p4-g120", "star5-g120", "m3-g26", "m4-g26",
        "4K2-G30", "5K2-G30", "C8-G40", "C10-G60"])
def test_route_table(h, g, allowed):
    assert routes.choose(h, g) in allowed


def test_shapes():
    assert routes.shape(Graph.matching(4)) == "matchings"
    assert routes.shape(Graph.cycle(7)) == "cycles"
    # an isolated vertex, two disjoint triangles, a path and a star fit no
    # special counter
    for h in (Graph(3, [(0, 1)]), Graph.cycle(3).disjoint_union(Graph.cycle(3)),
              Graph.path(4), Graph.star(3)):
        assert routes.shape(h) is None
        assert routes.applicable(h) == ("brute", "vc")


def _corpus(shapes):
    rng = random.Random(16)
    for h in shapes:
        for _ in range(6):
            yield h, rand_graph(rng, rng.randrange(4, 13), rng.choice((0.3, 0.5, 0.7)))


def test_matchings_route_agrees_with_brute():
    for h, g in _corpus([Graph.matching(k) for k in range(1, 5)]):
        assert routes.count_sub("matchings", h, g) == brute.count_subgraphs(h, g)
        assert routes.count_emb("matchings", h, g) == brute.count_embeddings(h, g)


def test_cycles_route_agrees_with_brute_and_networkx():
    nx = pytest.importorskip("networkx")
    for h, g in _corpus([Graph.cycle(k) for k in range(3, 8)]):
        count = routes.count_sub("cycles", h, g)
        assert count == brute.count_subgraphs(h, g)
        assert routes.count_emb("cycles", h, g) == brute.count_embeddings(h, g)
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(g.n))
        assert count == sum(len(c) == h.n for c in nx.simple_cycles(nxg, length_bound=h.n))


def test_closed_form_automorphism_counts():
    # a pattern has one copy in itself, so #Emb(h, h) is the closed form
    for h in [Graph.matching(k) for k in range(1, 6)] + [Graph.cycle(k) for k in range(3, 10)]:
        route = routes.shape(h)
        assert routes.count_emb(route, h, h) == brute.automorphism_count(h)


def test_choose_makes_no_count(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("choose must not count")

    for module, name in [(brute, "count_embeddings"), (brute, "count_subgraphs"),
                         (brute, "automorphism_count"), (brute, "count_matchings"),
                         (brute, "count_walk_patterns"), (brute, "find_embedding"),
                         (vc, "count_emb_vc"), (vc, "count_sub_vc"),
                         (vc, "_placement_counter")]:
        monkeypatch.setattr(module, name, refuse)
    for h, g in [(Graph.cycle(3), G120), (Graph.star(5), G120), (Graph.matching(5), G26),
                 (Graph.cycle(10), _rand(60, 0.1, 2)), (Graph.complete(4), G26),
                 (Graph.matching(14), G26)]:
        assert routes.choose(h, g) in routes.applicable(h)


def test_vc_estimate_of_a_refused_pattern_skips_the_twin_cut(monkeypatch):
    # P1100 has 550 singleton demand classes: vc refuses it, so its estimate
    # is inf before the twin cut, which takes seconds on such a cover
    def never(*args):
        raise AssertionError("the twin cut of a refused pattern must not run")

    monkeypatch.setattr(vc, "_twin_cut", never)
    vc._plan.cache_clear()
    p = Graph.path(1100)
    assert routes._estimate("vc", p, routes._Host(p)) == float("inf")


def test_vc_is_priced_at_inf_when_its_cover_search_is_refused(capsys, tmp_path):
    # a random cubic pattern on 200 vertices: its vertex cover search passes
    # WORK_LIMIT stored states in seconds (unbounded, it did not finish in
    # 100 s), so auto prices vc at inf and --algo vc exits 2
    c200 = rand_cubic(random.Random(1), 200)
    t0 = time.perf_counter()
    assert routes.cost("vc", c200, c200) == float("inf")
    assert time.perf_counter() - t0 < 5
    path = tmp_path / "c200.g"
    write_graph(c200, path)
    t0 = time.perf_counter()
    code = main(["count-emb", "-p", str(path), "-H", str(path), "--algo", "vc"])
    assert time.perf_counter() - t0 < 5
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "vertex cover search" in err


def test_estimates_past_the_float_range():
    # exact counts past the float range end as inf, never as an error or
    # nan: vc refuses a 171-matching, whose 171 singleton demand classes
    # take (3^171 - 1)/2 recurrence steps per anchor, the tree
    # bounds of a 250-leaf star, the walks of a 150-cycle in K150 and the
    # edge subsets of a 171-matching in K342
    ring = Graph(342, [(i, (i + 1) % 342) for i in range(342)])
    big = [("vc", Graph.matching(171), ring),
           ("brute", Graph.star(250), _rand(300, 0.1, 1)),
           ("cycles", Graph.cycle(150), Graph.complete(150)),
           ("matchings", Graph.matching(171), Graph.complete(342))]
    for route, h, g in big:
        assert routes._estimate(route, h, routes._Host(g)) == float("inf")
    # no anchor image and orderings past the float range: 0 anchors, not nan
    # (K_{171,171}: a 171-position twin class, one demand class of 171)
    work = routes._estimate("vc", Graph.complete_bipartite(171, 171),
                            routes._Host(Graph(342)))
    assert 0 <= work < float("inf")
    assert routes.choose(Graph.matching(200), Graph(400)) == "matchings"
    assert routes.choose(Graph.matching(171), ring, sub=False) == "matchings"


def test_tree_levels_bound_the_search_tree():
    # every prefix of brute's search order has at most as many injective
    # maps keeping all its edges as the forest bound allows
    rng = random.Random(7)
    for _ in range(40):
        h = rand_graph(rng, rng.randrange(2, 7), 0.5)
        g = rand_graph(rng, rng.randrange(6, 12), rng.choice((0.3, 0.6)))
        order = brute._search_order(h)
        levels = routes._tree_levels(h, order, routes._Host(g))
        for i, bound in enumerate(levels):
            prefix = h.induced(order[:i + 1])
            assert brute.count_embeddings(prefix, g) <= bound + 1e-9


def test_rising_tree_levels_bound_the_rising_walk():
    # brute's search places twins in rising order: each prefix of its walk
    # has at most as many placements as the forest bound divided by the
    # orderings of the twins placed so far, in the pattern itself (the #Aut
    # search) and in a random host
    rng = random.Random(8)
    named = [Graph.star(4), Graph.complete(4), Graph.complete_bipartite(2, 3),
             Graph.matching(3), Graph.matching(2).disjoint_union(Graph.empty(2))]
    for h in named + [rand_graph(rng, rng.randrange(2, 7), 0.5) for _ in range(30)]:
        for g in (h, rand_graph(rng, rng.randrange(h.n, 12), rng.choice((0.3, 0.6)))):
            order, candidates, _ = brute._search_plan(h, g, False)
            prev, _ = brute._twins(h, order)
            levels = routes._tree_levels(h, order, routes._Host(g), prev=prev)
            for i, bound in enumerate(levels):
                walked = sum(1 for _ in brute._placements(candidates, [0] * h.n, 0, 0, i))
                assert walked <= bound * (1 + 1e-9)
    # the 300-leaf star's #Aut search is priced below the float range, where
    # its bound before the division is not, so auto counts it by vc
    star = Graph.star(300)
    assert routes._aut_seconds(star) < float("inf")
    assert routes.choose(star, star) == "vc"


def test_a_refused_cover_search_runs_once(monkeypatch):
    # vc._plan keeps the refusal of the cubic-200 pattern's cover search, so
    # pricing vc again and counting by it refuse without a second search
    calls = []
    search = vc.min_vertex_cover

    def spy(g):
        calls.append(g)
        return search(g)

    monkeypatch.setattr(vc, "min_vertex_cover", spy)
    vc._plan.cache_clear()
    c200 = rand_cubic(random.Random(1), 200)
    for _ in range(2):
        assert routes.cost("vc", c200, c200) == float("inf")
        with pytest.raises(PreconditionError, match="vertex cover search"):
            vc.count_emb_vc(c200, c200)
    assert len(calls) == 1


def test_matchings_estimate_bounds_the_branches():
    # count_matchings branches once per j-matching, j < k
    g = _rand(14, 0.4, 5)
    for k in range(1, 5):
        nodes = sum(brute.count_matchings(g, j) for j in range(k))
        assert nodes <= routes._estimate("matchings", Graph.matching(k), routes._Host(g))


def test_five_matching_counts_under_auto(capsys, tmp_path):
    # brute runs for minutes on this row; auto must take count_matchings
    write_graph(Graph.matching(5), tmp_path / "m5.g")
    write_graph(_rand(30, 0.25, 3), tmp_path / "g.g")
    code = main(["count-sub", "-p", str(tmp_path / "m5.g"), "-H", str(tmp_path / "g.g")])
    record = json.loads(capsys.readouterr().out)
    assert code == 0 and record["count"] == "17791796"
    assert record["algorithm"] == "matchings"


class _Recording:
    """A #Sub oracle by ``routes.count_sub`` on one route that keeps every
    call's arguments."""

    def __init__(self, route):
        self.route, self.calls = route, []

    def __call__(self, *args):
        self.calls.append(args)
        return routes.count_sub(self.route, *args)


def test_every_reduction_asks_sub_of_a_pattern_in_a_host():
    # each reduction calls its oracle as oracle(pattern, host), two Graphs,
    # with the pattern it reduces to; routes.count_sub on the route the
    # command passes gives the default's count (or, where the reduction has
    # no default, brute's direct count)
    rng = random.Random(2929)
    checked = []

    def run(reduce, route, pattern_ok, want):
        oracle = _Recording(route)
        assert reduce(oracle) == want
        assert oracle.calls and all(
            len(args) == 2 and all(type(x) is Graph for x in args)
            and pattern_ok(args[0]) for args in oracle.calls)
        checked.append(len(oracle.calls))

    for _ in range(4):
        g = rand_edge_colored(rng, 8, 0.5, 3)
        colors = sorted(set(g.ecolors))
        run(lambda o: iex.colmatch_via_match_oracle(g, colors, o), "matchings",
            lambda p: p == Graph.matching(len(colors)),
            brute.count_colorful_matchings(g, colors))
        h = colorful(Graph.path(3))
        host = rand_vertex_colored(rng, 9, 0.5, 3)
        for route in ("brute", "vc"):
            run(lambda o: iex.subpart_via_sub_oracle(h, host, o), route,
                lambda p: p == Graph(h.n, h.edges),
                brute.count_colorpreserving_subgraphs(h, host))
        b = rand_bipartite(rng, 3, 4, 0.6)
        for k in (1, 2, 3):
            run(lambda o: hardness.matchings_via_directed_cycles(b, k, o), "cycles",
                lambda p: p == Graph(2 * k, [(i, (i + 1) % (2 * k)) for i in range(2 * k)],
                                     directed=True),
                hardness.matchings_via_directed_cycles(b, k))
        d = rand_digraph(rng, 4, 0.4)
        for k in (2, 3):
            run(lambda o: hardness.directed_cycles_via_undirected(d, k, o), "cycles",
                lambda p: p == Graph.cycle(4 * k),
                hardness.directed_cycles_via_undirected(d, k))
        for hg, matching in ((Graph.complete(4), ((0, 1),)),
                             (Graph.matching(2), Graph.matching(2).edges)):
            gadget = gadgets.MatchingGadget(hg, matching)
            host = rand_bipartite(rng, 3, 3, 0.6)
            for route in ("brute", "vc"):
                run(lambda o: gadgets.count_matchings_via_gadget(host, gadget.k, gadget, o),
                    route, lambda p: p == hg,
                    gadgets.count_matchings_via_gadget(host, gadget.k, gadget))
    assert len(checked) == 4 * 12
