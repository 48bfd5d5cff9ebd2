"""Route choice: which route auto takes, and that every route counts right.

The choice table is deterministic: ``choose`` reads the pattern and the
host's degrees or walk counts and times nothing, so each row names the route
it must return.
"""

import json
import random

import pytest

from subcount import brute, routes, vc
from subcount.cli import main
from subcount.fileio import write_graph
from subcount.graphs import Graph

from helpers import rand_graph


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


def test_estimates_past_the_float_range():
    # exact counts past the float range end as inf, never as an error or
    # nan: the orderings of a 171-vertex twin class of vc's cover, the tree
    # bounds of a 250-leaf star, the walks of a 150-cycle in K150 and the
    # edge subsets of a 171-matching in K342
    ring = Graph(342, [(i, (i + 1) % 342) for i in range(342)])
    big = [("vc", Graph.matching(171), ring),
           ("brute", Graph.star(250), _rand(300, 0.1, 1)),
           ("cycles", Graph.cycle(150), Graph.complete(150)),
           ("matchings", Graph.matching(171), Graph.complete(342))]
    for route, h, g in big:
        assert routes.estimate(route, h, g) == float("inf")
    # no anchor image and orderings past the float range: 0 anchors, not nan
    work = routes.estimate("vc", Graph.matching(171), Graph(342))
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


def test_matchings_estimate_bounds_the_branches():
    # count_matchings branches once per j-matching, j < k
    g = _rand(14, 0.4, 5)
    for k in range(1, 5):
        nodes = sum(brute.count_matchings(g, j) for j in range(k))
        assert nodes <= routes.estimate("matchings", Graph.matching(k), g)


def test_five_matching_counts_under_auto(capsys, tmp_path):
    # brute runs for minutes on this row; auto must take count_matchings
    write_graph(Graph.matching(5), tmp_path / "m5.g")
    write_graph(_rand(30, 0.25, 3), tmp_path / "g.g")
    code = main(["count-sub", "-p", str(tmp_path / "m5.g"), "-H", str(tmp_path / "g.g")])
    record = json.loads(capsys.readouterr().out)
    assert code == 0 and record["count"] == "17791796"
    assert record["algorithm"] == "matchings"
