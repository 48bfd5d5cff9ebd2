"""End-to-end checks of the command line tool, driven through cli.main."""

import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from subcount import brute, gadgets, hardness, routes, structural, vc
from subcount.cli import COMMANDS, _parse, main
from subcount.fileio import read_graph, save_model, write_graph
from subcount.graphs import Graph
from subcount.polynomials import determinant

from helpers import colorful, kron_chain, rand_bipartite, rand_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


@pytest.fixture
def files(tmp_path):
    def save(name, g):
        path = tmp_path / name
        write_graph(g, path)
        return str(path)
    return save


def test_count_sub_triangle_in_k4(capsys, files):
    tri = files("tri.g", Graph.cycle(3))
    k4 = files("k4.g", Graph.complete(4))
    code, rec = run(capsys, "count-sub", "-p", tri, "-H", k4)
    assert code == 0 and rec["count"] == "4"


def test_count_matchings_c5(capsys, files):
    c5 = files("c5.g", Graph.cycle(5))
    code, rec = run(capsys, "count-matchings", "-H", c5, "-k", "2",
                    "--algo", "brute")
    assert code == 0 and rec["count"] == "5" and rec["algorithm"] == "brute"


def test_count_matchings_negative_k_same_error_on_every_route(capsys, files):
    c5 = files("c5.g", Graph.cycle(5))
    errors = set()
    for route in (["--algo", "brute"], ["--algo", "vc"], ["--algo", "auto"],
                  ["--verify"]):
        code = main(["count-matchings", "-H", c5, "-k", "-1", *route])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        errors.add(captured.err)
    assert errors == {"subcount: error: k must be nonnegative\n"}


def test_state_matrix_published_values(capsys):
    code, rec = run(capsys, "state-matrix", "--n", "0")
    assert code == 0
    assert rec["matrix"] == [[2, 2, 3, 3, 3], [2, 3, 2, 3, 3], [2, 3, 3, 2, 3],
                             [2, 3, 3, 4, 5], [2, 2, 2, 2, 4]]
    assert rec["det"] == "12"


def test_state_matrix_other_padding(capsys):
    code, rec = run(capsys, "state-matrix", "--n", "3")
    assert code == 0
    assert int(rec["det"]) == determinant(hardness.state_matrix(3))


def test_state_matrix_disagreement_exits_3(capsys, monkeypatch):
    # one entry off by one at the asked padding: the determinant of the
    # entries extrapolated from paddings 0..6 no longer matches the
    # permutation expansion of the rows
    real = hardness.state_matrix

    def skewed(x):
        rows = real(x)
        if x == 17:
            rows[0][0] += 1
        return rows

    monkeypatch.setattr(hardness, "state_matrix", skewed)
    assert main(["state-matrix", "--n", "17"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "direct expansion disagrees" in err


def test_state_matrix_rejects_negative_padding(capsys):
    assert main(["state-matrix", "--n", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "padding" in err


def test_count_emb(capsys, files):
    tri = files("tri.g", Graph.cycle(3))
    k4 = files("k4.g", Graph.complete(4))
    code, rec = run(capsys, "count-emb", "-p", tri, "-H", k4)
    assert code == 0 and rec["count"] == "24"


def test_algo_selection_and_agreement(capsys, files):
    rng = random.Random(11)
    h = rand_graph(rng, 4, 0.6)
    g = rand_graph(rng, 8, 0.5)
    hp = files("h.g", h)
    gp = files("g.g", g)
    counts = set()
    for algo in ("brute", "vc", "auto"):
        code, rec = run(capsys, "count-sub", "-p", hp, "-H", gp, "--algo", algo)
        assert code == 0
        counts.add(rec["count"])
    assert len(counts) == 1
    # K4 less an edge has no matching or cycle route, and in 8 vertices
    # brute's estimated search is below vc's fixed cost
    code, rec = run(capsys, "count-sub", "-p", hp, "-H", gp)
    assert rec["algorithm"] == "brute" == routes.choose(h, g)


def test_verify_mode(capsys, files):
    tri = files("tri.g", Graph.cycle(3))
    k4 = files("k4.g", Graph.complete(4))
    code, rec = run(capsys, "count-sub", "-p", tri, "-H", k4, "--verify")
    assert code == 0 and rec["count"] == "4"
    assert rec["algorithm"] == "brute+vc" and rec["oracle_calls"] == 2


def test_count_subpart_routes_agree(capsys, files):
    rng = random.Random(5)
    h = Graph.cycle(4).with_vertex_colors([0, 1, 2, 3])
    g = rand_graph(rng, 9, 0.5).with_vertex_colors(
        [rng.randrange(4) for _ in range(9)])
    hp = files("h.g", h)
    gp = files("g.g", g)
    recs = {}
    for algo in ("brute", "vc"):
        code, rec = run(capsys, "count-subpart", "-p", hp, "-H", gp,
                        "--algo", algo)
        assert code == 0
        recs[algo] = rec
    assert recs["brute"]["count"] == recs["vc"]["count"]
    assert recs["vc"]["oracle_calls"] == 2 ** 4
    code, rec = run(capsys, "count-subpart", "-p", hp, "-H", gp, "--verify")
    assert code == 0 and rec["count"] == recs["brute"]["count"]


def test_count_subpart_requires_colorful_pattern(capsys, files):
    h = Graph.cycle(3).with_vertex_colors([0, 0, 1])
    g = Graph.complete(5).with_vertex_colors([0, 0, 1, 1, 0])
    hp = files("h.g", h)
    gp = files("g.g", g)
    for algo in ("brute", "vc", "auto"):
        code, _ = run(capsys, "count-subpart", "-p", hp, "-H", gp,
                      "--algo", algo)
        assert code == 2


def test_count_subpart_auto_weighs_the_transfer_calls(capsys, files):
    # a colourful 18-vertex star has cover number 1, but its vc route is a
    # transfer over 2^18 colour subsets: auto takes brute, --algo vc refuses
    star = colorful(Graph.star(17))
    path = files("star17.g", star)
    code, rec = run(capsys, "count-subpart", "-p", path, "-H", path)
    assert code == 0 and rec["count"] == "1" and rec["algorithm"] == "brute"
    t0 = time.perf_counter()
    code = main(["count-subpart", "-p", path, "-H", path, "--algo", "vc"])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "262144" in err and elapsed < 1
    # four colours make 16 transfer calls, but one colour-respecting search
    # of a 4-cycle is cheaper: auto takes brute, --algo vc the transfer
    c4 = files("c4.g", colorful(Graph.cycle(4)))
    code, rec = run(capsys, "count-subpart", "-p", c4, "-H", c4)
    assert code == 0 and rec["count"] == "1"
    assert rec["algorithm"] == "brute" and rec["oracle_calls"] == 1
    code, rec = run(capsys, "count-subpart", "-p", c4, "-H", c4, "--algo", "vc")
    assert code == 0 and rec["count"] == "1"
    assert rec["algorithm"] == "vc" and rec["oracle_calls"] == 16
    # a colourful 6-leaf star in the complete 7-partite graph with 14
    # vertices per colour: brute's search grows as 14^5, the vc transfer's
    # 128 calls as the host, so auto takes the transfer
    classes = [v % 7 for v in range(98)]
    host = files("k7x14.g", Graph(98, [(u, v) for u, v in combinations(range(98), 2)
                                      if classes[u] != classes[v]], vcolors=classes))
    star6 = files("star6.g", Graph.star(6).with_vertex_colors(range(7)))
    code, rec = run(capsys, "count-subpart", "-p", star6, "-H", host)
    assert code == 0 and rec["count"] == str(14 ** 7)
    assert rec["algorithm"] == "vc" and rec["oracle_calls"] == 128
    # the same star and host with every edge directed: the transfer would
    # count their undirected shadow, so auto takes brute, which refuses
    host = files("k7x14d.g", Graph(98, [(u, v) for u, v in combinations(range(98), 2)
                                       if classes[u] != classes[v]],
                                   directed=True, vcolors=classes))
    star6 = files("star6d.g", Graph(7, Graph.star(6).edges, directed=True,
                                    vcolors=range(7)))
    code = main(["count-subpart", "-p", star6, "-H", host])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "undirected" in err


def test_count_colorful_matchings_routes(capsys, files):
    rng = random.Random(23)
    g = rand_graph(rng, 8, 0.5)
    g = g.with_edge_colors([rng.randrange(3) for _ in range(g.m)])
    gp = files("g.g", g)
    code, direct = run(capsys, "count-colorful-matchings", "-H", gp)
    assert code == 0
    code, via = run(capsys, "count-colorful-matchings", "-H", gp,
                    "--via", "matchings")
    assert code == 0
    assert direct["count"] == via["count"]
    assert via["oracle_calls"] == 2 ** 3


def test_count_colorful_matchings_needs_colors(capsys, files):
    gp = files("g.g", Graph.cycle(4))
    code, _ = run(capsys, "count-colorful-matchings", "-H", gp)
    assert code == 2


def test_count_matchings_auto_on_a_large_k(capsys, files):
    # a 171-matching: vc's twin class of 171 cover vertices alone has an
    # orbit size past the float range; auto still answers at once
    gp = files("g.g", Graph(342))
    t0 = time.perf_counter()
    code, rec = run(capsys, "count-matchings", "-H", gp, "-k", "171")
    assert time.perf_counter() - t0 < 1
    assert code == 0 and rec["count"] == "0" and rec["algorithm"] == "matchings"


def test_count_matchings_perfect_matching_of_a_large_host(capsys, files):
    # the one 171-matching of a 171-edge host: brute's matching search cuts
    # each branch with fewer edges left than it still needs
    gp = files("g.g", Graph.matching(171))
    for route in ([], ["--algo", "brute"]):
        t0 = time.perf_counter()
        code, rec = run(capsys, "count-matchings", "-H", gp, "-k", "171", *route)
        assert time.perf_counter() - t0 < 1
        assert code == 0 and rec["count"] == "1"


def test_count_matchings_vc_route(capsys, files):
    gp = files("g.g", Graph.complete_bipartite(3, 3))
    code, rec = run(capsys, "count-matchings", "-H", gp, "-k", "2",
                    "--algo", "vc")
    assert code == 0 and rec["count"] == "18"
    code, rec = run(capsys, "count-matchings", "-H", gp, "-k", "2", "--verify")
    assert code == 0 and rec["count"] == "18"


def test_count_cycles(capsys, files):
    gp = files("g.g", Graph.complete(4))
    code, rec = run(capsys, "count-cycles", "-H", gp, "-k", "3")
    assert code == 0 and rec["count"] == "4"
    dg = files("d.g", Graph(3, [(0, 1), (1, 2), (2, 0)], directed=True))
    code, rec = run(capsys, "count-cycles", "-H", dg, "-k", "3")
    assert code == 0 and rec["count"] == "1"


def _hub_non_gadget():
    # two matched edges plus a hub adjacent to one endpoint of each; the
    # full check rejects this pair with counterexample core (1,)
    return Graph(5, [(0, 1), (2, 3), (4, 0), (4, 2)])


def test_verify_gadget_matches_library(capsys, files):
    m1 = files("m1.g", Graph.matching(1))
    code, rec = run(capsys, "verify-gadget", "-H", m1, "--matching", "0-1")
    assert code == 0 and rec["gadget"] is True
    hub = _hub_non_gadget()
    expected = gadgets.check_matching_gadget(hub, ((0, 1), (2, 3)))
    assert expected is not None
    path = files("hub.g", hub)
    code, rec = run(capsys, "verify-gadget", "-H", path,
                    "--matching", "0-1,2-3")
    assert code == 0 and rec["gadget"] is False
    assert rec["counterexample"] == list(expected)


def test_verify_gadget_rejects_non_induced(capsys, files):
    p3 = files("p3.g", Graph.path(3))
    code, _ = run(capsys, "verify-gadget", "-H", p3, "--matching", "0-1,1-2")
    assert code == 2


def test_search_gadget(capsys, files):
    m2 = files("m2.g", Graph.matching(2))
    code, rec = run(capsys, "search-gadget", "-H", m2, "-k", "2")
    assert code == 0 and rec["found"] is True
    assert rec["matching"] == "0-1,2-3"
    tri = files("tri.g", Graph.cycle(3))
    code, rec = run(capsys, "search-gadget", "-H", tri, "-k", "2")
    assert code == 0 and rec["found"] is False


def test_search_gadget_has_no_size_gate(capsys, files):
    # 14 vertices; the search is bounded by its own steps, not by n
    big = files("big.g", Graph.matching(7))
    code, rec = run(capsys, "search-gadget", "-H", big, "-k", "1")
    assert code == 0 and rec["matching"] == "0-1"
    code, rec = run(capsys, "search-gadget", "-H", big, "-k", "3")
    assert code == 0 and rec["matching"] == "0-1,2-3,4-5"


def test_search_gadget_k12_has_no_induced_matching(capsys, files):
    # every edge of K12 touches every other, so no candidate is checked
    k12 = files("k12.g", Graph.complete(12))
    for k in (3, 6):
        t0 = time.perf_counter()
        code, rec = run(capsys, "search-gadget", "-H", k12, "-k", str(k))
        assert code == 0 and rec["found"] is False
        assert time.perf_counter() - t0 < 1


def test_search_gadget_charges_the_cores_scanned(capsys, files):
    # a failed check is charged the candidate cores it scanned up to its
    # counterexample, not all C(16, 6) = 8008 of them: the ten checks that
    # fail before the path's first 3-matching gadget scan 13821 in all
    path = files("p16.g", Graph.path(16))
    t0 = time.perf_counter()
    code, rec = run(capsys, "search-gadget", "-H", path, "-k", "3")
    assert code == 0 and rec["found"] is True and rec["matching"] == "0-1,4-5,8-9"
    assert time.perf_counter() - t0 < 5


def test_search_gadget_step_limit_exits_2(capsys, files):
    # the path 0-1-...-19 has many induced 3-matchings before its first
    # gadget, and its failed checks scan more than 2^16 cores in all
    path = files("p20.g", Graph.path(20))
    t0 = time.perf_counter()
    code = main(["search-gadget", "-H", path, "-k", "3"])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and elapsed < 5
    assert "per candidate core scanned), above the limit of 65536" in err


def test_reduce_matchings_via_gadget(capsys, files):
    rng = random.Random(3)
    g = rand_bipartite(rng, 4, 4, 0.6)
    gp = files("g.g", g)
    m2 = files("m2.g", Graph.matching(2))
    code, rec = run(capsys, "reduce-matchings-via-gadget", "-H", gp,
                    "--gadget", m2, "--matching", "0-1,2-3", "-k", "2")
    assert code == 0
    assert int(rec["count"]) == brute.count_matchings(g, 2)
    assert rec["oracle_calls"] >= 5


def test_reduce_matchings_via_gadget_verify_runs_both_oracles(capsys, files):
    c6 = files("c6.g", Graph.cycle(6))
    k4 = files("k4.g", Graph.complete(4))
    argv = ["reduce-matchings-via-gadget", "-H", c6, "--gadget", k4,
            "--matching", "0-1", "-k", "1"]
    recs = {}
    for route in ("brute", "vc"):
        code, recs[route] = run(capsys, *argv, "--algo", route)
        assert code == 0 and recs[route]["algorithm"] == f"gadget+{route}"
    code, rec = run(capsys, *argv, "--verify")
    assert code == 0 and rec["count"] == "6"
    assert rec["algorithm"] == "gadget+brute+vc"
    assert rec["oracle_calls"] == (recs["brute"]["oracle_calls"]
                                   + recs["vc"]["oracle_calls"])


@pytest.mark.parametrize("command", ["count-sub", "reduce-matchings-via-gadget"])
def test_verify_disagreement_exits_3(capsys, files, monkeypatch, command):
    c6 = files("c6.g", Graph.cycle(6))
    k4 = files("k4.g", Graph.complete(4))
    edge = files("edge.g", Graph.matching(1))
    argv = {"count-sub": ["count-sub", "-p", edge, "-H", c6],
            "reduce-matchings-via-gadget": [
                "reduce-matchings-via-gadget", "-H", c6, "--gadget", k4,
                "--matching", "0-1", "-k", "1"]}[command]
    # a vc oracle that doubles every count: the gadget read-out would cancel
    # a constant offset in its differences and reject an offset on a single
    # query by itself, but a doubled count passes its checks and doubles
    count_sub_vc = vc.count_sub_vc
    monkeypatch.setattr(vc, "count_sub_vc", lambda h, g: 2 * count_sub_vc(h, g))
    assert main([*argv, "--verify"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "cross-check failed" in err


# the commands with a brute and a vc route, each on a tiny input
_TWO_ROUTE_ARGV = {
    "count-sub": ["-p", "@tri", "-H", "@k4"],
    "count-emb": ["-p", "@tri", "-H", "@k4"],
    "count-subpart": ["-p", "@tricol", "-H", "@k4col"],
    "count-matchings": ["-H", "@k4", "-k", "2"],
    "reduce-matchings-via-gadget": ["-H", "@c6", "--gadget", "@m2",
                                    "--matching", "0-1,2-3", "-k", "2"],
}


def _help(capsys, *argv):
    """The help text that ``argv --help`` prints, after checking it exits 0."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    return captured.out


@pytest.mark.parametrize("command", sorted(_TWO_ROUTE_ARGV))
def test_every_verify_flag_runs_both_routes(capsys, files, command):
    # a command that offers --verify must honour it
    offered = {name for name in COMMANDS if "--verify" in _help(capsys, name)}
    assert offered == set(_TWO_ROUTE_ARGV)
    paths = {"@tri": files("tri.g", Graph.cycle(3)),
             "@k4": files("k4.g", Graph.complete(4)),
             "@tricol": files("tricol.g", Graph.cycle(3).with_vertex_colors([0, 1, 2])),
             "@k4col": files("k4col.g", Graph.complete(4).with_vertex_colors([0, 1, 2, 0])),
             "@c6": files("c6.g", Graph.cycle(6)),
             "@m2": files("m2.g", Graph.matching(2))}
    argv = [paths.get(a, a) for a in _TWO_ROUTE_ARGV[command]]
    code, rec = run(capsys, command, *argv, "--verify")
    assert code == 0 and rec["algorithm"].endswith("brute+vc")


def test_reduce_matchings_via_gadget_query_limit_exits_2(capsys, files):
    # K6 on 0..5 plus the path 5-6-7 passes the gadget check for 6-7, but its
    # read-out needs 3 * 2^(15 core edges + 1 boundary vertex) = 196608
    # queries
    k6_tail = files("k6tail.g", Graph(8, [*combinations(range(6), 2), (5, 6), (6, 7)]))
    host = files("host.g", Graph(4, [(0, 2), (1, 3), (0, 3)]))
    argv = ["reduce-matchings-via-gadget", "-H", host, "--gadget", k6_tail,
            "--matching", "6-7", "-k", "1"]
    for extra in ([], ["--verify"]):
        t0 = time.perf_counter()
        code = main([*argv, *extra])
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "196608" in err and elapsed < 1


def test_verify_gadget_candidate_bound_exits_2(capsys, files):
    # a 20-vertex core in a 40-vertex graph has C(40, 20) candidate cores;
    # the check refuses them before the scan, and so does the search at
    # its first induced 10-matching
    rng = random.Random(40)
    core = rand_graph(rng, 20, 0.3)
    g = Graph(40, [(2 * i, 2 * i + 1) for i in range(10)]
              + [(2 * i, 20 + i) for i in range(10)]
              + [(20 + u, 20 + v) for u, v in core.edges])
    path = files("g40.g", g)
    spec = ",".join(f"{2 * i}-{2 * i + 1}" for i in range(10))
    for argv in (["verify-gadget", "-H", path, "--matching", spec],
                 ["search-gadget", "-H", path, "-k", "10"]):
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and elapsed < 1
        assert "137846528820 candidate cores" in err


def test_colorful_matchings_via_matchings_bound_exits_2(capsys, files):
    # 24 colours make 2^24 matching-count calls; the direct count answers 0
    # at once, the transfer refuses before its first call
    rng = random.Random(24)
    edges = rng.sample(list(combinations(range(20), 2)), 57)
    path = files("g24.g", Graph(20, edges, ecolors=[i % 24 for i in range(57)]))
    code, rec = run(capsys, "count-colorful-matchings", "-H", path)
    assert code == 0 and rec["count"] == "0"
    t0 = time.perf_counter()
    code = main(["count-colorful-matchings", "-H", path, "--via", "matchings"])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "16777216" in err and elapsed < 1


def test_reduce_matchings_via_gadget_rejects_bad_gadget(capsys, files):
    gp = files("host.g", Graph.complete_bipartite(2, 2))
    bad = files("bad.g", _hub_non_gadget())
    code, _ = run(capsys, "reduce-matchings-via-gadget", "-H", gp,
                  "--gadget", bad, "--matching", "0-1,2-3", "-k", "2")
    assert code == 2


def test_reduce_matchings_via_gadget_checks_every_gadget(capsys, files, monkeypatch):
    host = files("host.g", rand_bipartite(random.Random(2), 8, 8, 0.5))
    # a 14-vertex gadget: the check scans one candidate core
    m7 = files("m7.g", Graph.matching(7))
    code, rec = run(capsys, "reduce-matchings-via-gadget", "-H", host, "--gadget", m7,
                    "--matching", "0-1,2-3,4-5,6-7,8-9,10-11,12-13", "-k", "7")
    assert code == 0 and rec["count"] == "358"
    # a hub 12 on one end of each of six matched edges is no gadget
    spider = files("spider.g", Graph(13, [(12, 2 * i) for i in range(6)]
                                     + [(2 * i, 2 * i + 1) for i in range(6)]))
    code = main(["reduce-matchings-via-gadget", "-H", host, "--gadget", spider,
                 "--matching", "0-1,2-3,4-5,6-7,8-9,10-11", "-k", "6"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "core candidate (1,)" in err
    # a 12-vertex gadget whose read-out fits (28672 queries) but whose
    # matching multiplicity would try C(36, 19) edge sets: refused before
    # the first query
    edges = ("0-5 0-6 0-8 1-8 1-9 2-5 2-6 2-7 2-9 2-10 3-4 3-6 3-11 4-5 4-6 "
             "4-9 4-11 5-7 5-9 5-10 5-11 6-7 6-8 6-9 7-11 8-10 8-11 10-11")
    g12 = files("g12.g", Graph(12, [tuple(map(int, e.split("-"))) for e in edges.split()]))
    code, rec = run(capsys, "search-gadget", "-H", g12, "-k", "3")
    assert code == 0 and rec["matching"] == "0-8,2-7,3-4"

    def no_query(*args):
        raise AssertionError("the oracle was called")

    monkeypatch.setattr(routes, "count_sub", no_query)
    t0 = time.perf_counter()
    code = main(["reduce-matchings-via-gadget", "-H", host, "--gadget", g12,
                 "--matching", "0-8,2-7,3-4", "-k", "3"])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and elapsed < 1
    assert "8597496600 edge sets" in err


def test_reduce_subpart_via_colmatch(capsys, files):
    rng = random.Random(9)
    h = Graph.complete_bipartite(3, 3).with_vertex_colors(range(6))
    g = rand_graph(rng, 8, 0.6).with_vertex_colors(
        [rng.randrange(6) for _ in range(8)])
    hp = files("h.g", h)
    gp = files("g.g", g)
    code, rec = run(capsys, "reduce-subpart-via-colmatch", "-p", hp, "-H", gp)
    assert code == 0
    assert int(rec["count"]) == brute.count_colorpreserving_subgraphs(h, g)
    assert rec["oracle_calls"] == 5 ** 6


def _k33_class_host(c, keep):
    """6c vertices, vertex v coloured v // c; visiting the pairs u < v in
    order, a pair whose colours form an edge (i, 3 + j) of the colourful
    K_{3,3} is joined when ``keep(i, 3 + j)`` says so."""
    edges = [(u, v) for u in range(6 * c) for v in range(u + 1, 6 * c)
             if u // c < 3 <= v // c and keep(u // c, v // c)]
    return Graph(6 * c, edges, vcolors=[v // c for v in range(6 * c)])


def _random_k33_class_host(c, p):
    rng = random.Random(1)
    return _k33_class_host(c, lambda a, b: rng.random() < p)


def test_reduce_subpart_via_colmatch_on_a_random_class_host(capsys, files):
    # c = 3, p = .3: a census of 3,072 link matchings
    h = _K33
    g = _random_k33_class_host(3, 0.3)
    code, rec = run(capsys, "reduce-subpart-via-colmatch", "-p", files("h.g", h),
                    "-H", files("g.g", g))
    assert code == 0
    assert rec["count"] == str(brute.count_colorpreserving_subgraphs(h, g))


def test_reduce_subpart_empty_census_is_not_refused(capsys, files):
    # every pattern colour pair but (2, 5) is complete between its classes of
    # 8: the census is 64^8 * 0 combinations, none to enumerate
    h = _K33
    g = _k33_class_host(8, lambda a, b: (a, b) != (2, 5))
    code, rec = run(capsys, "reduce-subpart-via-colmatch", "-p", files("h.g", h),
                    "-H", files("g.g", g))
    assert code == 0 and rec["count"] == "0" and rec["oracle_calls"] == 5 ** 6
    assert brute.count_colorpreserving_subgraphs(h, g) == 0


def test_reduce_subpart_dense_census_exits_2(capsys, files):
    h = _K33
    g = _random_k33_class_host(5, 0.3)
    code = main(["reduce-subpart-via-colmatch", "-p", files("h.g", h),
                 "-H", files("g.g", g)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "would enumerate 72576000 combinations, above the limit of 20000000" in err


def test_reduce_subpart_round_trip_disagreement_exits_3(capsys, files, monkeypatch):
    # a table of the census plus one aligned copy solves to one copy more
    # than the census holds
    def table_with_one_more_copy(tg):
        census = dict(tg.theta_counts())
        aligned = (1,) * tg.k
        census[aligned] = census.get(aligned, 0) + 1
        return kron_chain(census, hardness.state_matrix(tg.n - 3), tg.k)

    monkeypatch.setattr(hardness.TriangleGraph, "answer_table", table_with_one_more_copy)
    code = main(["reduce-subpart-via-colmatch", "-p", files("h.g", _K33),
                 "-H", files("g.g", _K33_HOST)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "the solve gave 3 aligned copies but the census holds 2" in err


def test_reduce_subpart_colourful_q3_in_itself(capsys, files):
    q3 = Graph(8, [(u, u | 1 << b) for u in range(8) for b in range(3)
                   if not u >> b & 1]).with_vertex_colors(range(8))
    path = files("q3.g", q3)
    code, rec = run(capsys, "reduce-subpart-via-colmatch", "-p", path, "-H", path,
                    "--max-k", "8")
    assert code == 0 and rec["count"] == "1" and rec["oracle_calls"] == 5 ** 8


def test_reduce_subpart_max_k_guard(capsys, files):
    h = Graph.complete_bipartite(3, 3).with_vertex_colors(range(6))
    g = Graph.complete(6).with_vertex_colors(range(6))
    hp = files("h.g", h)
    gp = files("g.g", g)
    code, _ = run(capsys, "reduce-subpart-via-colmatch", "-p", hp, "-H", gp,
                  "--max-k", "5")
    assert code == 2


def test_reduce_matchings_via_cycles(capsys, files):
    rng = random.Random(17)
    g = rand_bipartite(rng, 4, 3, 0.7)
    gp = files("g.g", g)
    for k in (1, 2, 3):
        code, rec = run(capsys, "reduce-matchings-via-cycles", "-H", gp,
                        "-k", str(k))
        assert code == 0
        assert int(rec["count"]) == brute.count_matchings(g, k)


def test_make_bicubic_files(capsys, files, tmp_path):
    hp = files("h.g", Graph.matching(1))
    out = str(tmp_path / "dagger.g")
    model_out = str(tmp_path / "model.json")
    code, rec = run(capsys, "make-bicubic", "-H", hp, "-o", out,
                    "--model-out", model_out)
    assert code == 0 and rec["vertices"] == 18
    dagger = read_graph(out)
    assert all(dagger.degree(v) == 3 for v in range(dagger.n))
    assert dagger.is_bipartite()
    from subcount.fileio import load_model
    from subcount.structural import MinorModel
    model = MinorModel(*load_model(model_out))
    assert model.contracted(dagger) == Graph(2, [(0, 1)])


def test_grid_instance_files(capsys, files, tmp_path):
    hp = files("h.g", Graph.complete(4))
    out = str(tmp_path / "host.g")
    pat = str(tmp_path / "pat.g")
    code, rec = run(capsys, "grid-instance", "-H", hp, "-k", "3", "-o", out,
                    "--pattern-out", pat)
    assert code == 0 and rec["host_vertices"] == 48
    pattern = read_graph(pat)
    host = read_graph(out)
    assert brute.count_colorpreserving_subgraphs(pattern, host) == 4


def test_minor_lift_files(capsys, files, tmp_path):
    hp = files("h.g", Graph.matching(1))
    out = str(tmp_path / "dagger.g")
    model_out = str(tmp_path / "model.json")
    run(capsys, "make-bicubic", "-H", hp, "-o", out, "--model-out", model_out)
    pattern = Graph.matching(1).with_vertex_colors([0, 1])
    host = Graph.path(3).with_vertex_colors([0, 1, 0])
    pp = files("p.g", pattern)
    gp = files("host.g", host)
    lifted_path = str(tmp_path / "lifted.g")
    code, rec = run(capsys, "minor-lift", "-p", pp, "-H", gp, "--dagger", out,
                    "--model", model_out, "-o", lifted_path)
    assert code == 0
    dagger = read_graph(out)
    lifted = read_graph(lifted_path)
    ident = dagger.with_vertex_colors(range(dagger.n))
    assert (brute.count_colorpreserving_subgraphs(ident, lifted)
            == brute.count_colorpreserving_subgraphs(pattern, host))


def test_extract(capsys, files):
    gp = files("g.g", Graph.matching(8))
    spec = ",".join(f"{2 * i}-{2 * i + 1}" for i in range(8))
    code, rec = run(capsys, "extract", "-H", gp, "-k", "2",
                    "--matching", spec)
    assert code == 0 and rec["found"] is True
    assert rec["kind"] == "matching" and rec["edges"] == "0-1,2-3"
    kp = files("k.g", Graph.complete(10))
    code, rec = run(capsys, "extract", "-H", kp, "-k", "2",
                    "--matching", "")
    assert code == 0
    if rec["found"]:
        assert rec["kind"] in ("clique", "biclique", "matching")
    # found is false only when no witness exists: along P8 the pairs of
    # matching edges get two colors, and neither has a monochromatic 4-set
    pp = files("p8.g", Graph.path(8))
    code, rec = run(capsys, "extract", "-H", pp, "-k", "2",
                    "--matching", "0-1,2-3,4-5,6-7")
    assert code == 0 and rec["found"] is False


def test_extract_answers_whenever_a_witness_exists(capsys, files):
    # four of the 14 edges of this host's lexicographic maximal matching
    # have no edge between any two of them, so the exact search must find
    # a witness; the record shows the first k = 2 of those four
    g = rand_graph(random.Random(4), 30, 0.2)
    taken, matching = set(), []
    for (u, v) in sorted(g.edges):
        if u not in taken and v not in taken:
            matching.append(f"{u}-{v}")
            taken.update((u, v))
    assert len(matching) == 14
    code, rec = run(capsys, "extract", "-H", files("g30.g", g), "-k", "2",
                    "--matching", ",".join(matching))
    assert code == 0 and rec["found"] is True
    assert rec["kind"] == "matching" and rec["edges"] == "0-2,22-24"


def test_extract_refuses_a_long_clique_search_cleanly(capsys, files):
    # 2K = 1000 of 1000 induced matching edges: C(1000, 999) is small, but
    # the C(1000, 2) color reads are above the work limit
    gp = files("m.g", Graph.matching(1000))
    spec = ",".join(f"{2 * i}-{2 * i + 1}" for i in range(1000))
    code = main(["extract", "-H", gp, "-k", "500", "--matching", spec])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "above the limit" in err
    assert "Traceback" not in err
    # at K = 1 any two matching edges are a witness, and no search runs
    code, rec = run(capsys, "extract", "-H", gp, "-k", "1", "--matching", spec)
    assert code == 0 and rec["kind"] == "matching" and rec["edges"] == "0-1"


def test_matching_endpoint_out_of_range_exits_2(capsys, files):
    # 9 is no vertex of the 4-vertex graph, as first or as second endpoint
    gp = files("g.g", Graph(4, [(0, 1), (2, 3)]))
    for argv in (["verify-gadget", "-H", gp],
                 ["extract", "-H", gp, "-k", "1"],
                 ["reduce-matchings-via-gadget", "-H", gp, "--gadget", gp,
                  "-k", "1"]):
        for spec in ("9-0", "0-9"):
            code = main([*argv, "--matching", spec])
            out, err = capsys.readouterr()
            assert code == 2 and out == "" and "not" in err, (argv, spec)


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("g 2\ne 0 5\n")
    good = tmp_path / "good.g"
    write_graph(Graph.complete(3), good)
    code, _ = run(capsys, "count-sub", "-p", str(bad), "-H", str(good))
    assert code == 1
    code, _ = run(capsys, "count-sub", "-p", str(tmp_path / "nope.g"),
                  "-H", str(good))
    assert code == 1


def test_files_that_are_not_utf8_exit_1(capsys, files, tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_bytes(b"g 3\ne 0 1\n\xff\n")
    code = main(["count-sub", "-p", str(bad), "-H", str(bad)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("subcount: error: not UTF-8")
    model = tmp_path / "model.json"
    model.write_bytes(b'{"branch_sets": [[0]], "x": "\xff"}')
    edge = files("edge.g", Graph.matching(1))
    code = main(["minor-lift", "-p", edge, "-H", edge, "--dagger", edge,
                 "--model", str(model), "-o", str(tmp_path / "out.g")])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("subcount: error: model file: ")


def test_exit_code_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["count-sub", "-p", "x.g"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    # the colmatch reduction reads its own answer table; there is no oracle
    # to choose
    with pytest.raises(SystemExit) as exc:
        main(["reduce-subpart-via-colmatch", "-p", "h.g", "-H", "g.g",
              "--oracle", "brute"])
    assert exc.value.code == 1


# every form argparse accepted for these options, and the values it gave
@pytest.mark.parametrize("argv, expected", [
    (["count-sub", "--pattern", "a.g", "--host", "b.g"], {"pattern": "a.g", "host": "b.g"}),
    (["count-sub", "--pattern=a.g", "-H", "b.g"], {"pattern": "a.g"}),
    (["count-sub", "-pa.g", "-Hb.g"], {"pattern": "a.g", "host": "b.g"}),
    (["count-sub", "-p=a.g", "-H=b.g"], {"pattern": "a.g", "host": "b.g"}),
    (["count-sub", "--pat", "a.g", "--ho=b.g"], {"pattern": "a.g", "host": "b.g"}),
    (["count-sub", "-p", "a.g", "-H", "b.g", "--al", "vc"], {"algo": "vc"}),
    (["reduce-subpart-via-colmatch", "-p", "a.g", "-H", "b.g", "--max", "-1"],
     {"max_k": -1}),
    (["reduce-subpart-via-colmatch", "-p", "a.g", "-H", "b.g", "--max-k=-2"],
     {"max_k": -2}),
    (["count-sub", "-p", "a.g", "-H", "b.g"],
     {"algo": "auto", "verify": False}),
    (["count-sub", "-p", "a.g", "-p", "c.g", "-H", "b.g", "--algo", "brute",
      "--algo", "vc"], {"pattern": "c.g", "algo": "vc"}),
    (["count-matchings", "-H", "g.g", "-k", "-1"], {"k": -1}),
    (["count-matchings", "-k-3", "-H", "g.g"], {"k": -3}),
    (["state-matrix", "--n", "-1"], {"n": -1}),
    (["extract", "-H", "g.g", "-k", "2", "--matching", ""], {"matching": ""}),
    (["make-bicubic", "-H", "h.g", "-o", "-"], {"out": "-", "model_out": None}),
    (["count-colorful-matchings", "-H", "g.g", "--via", "matchings"], {"via": "matchings"}),
    (["count-sub", "-p", "a.g", "-H", "b.g", "--ver"], {"verify": True}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_option_forms(argv, expected):
    run, args = _parse(argv)
    assert run is COMMANDS[argv[0]][1]
    assert {key: getattr(args, key) for key in expected} == expected


@pytest.mark.parametrize("argv, token", [
    ([], "command"),
    (["no-such-command"], "no-such-command"),
    (["count-sub", "-p", "a.g", "-H", "b.g", "--bogus"], "--bogus"),
    (["count-sub", "--h"], "--h"),
    (["count-sub", "-H", "b.g", "-p"], "-p"),
    (["count-sub", "-p", "--host", "b.g"], "-p"),
    (["count-matchings", "-H", "g.g", "-k", "two"], "two"),
    (["count-sub", "-p", "a.g", "-H", "b.g", "--algo", "fast"], "fast"),
    (["count-sub", "-p", "a.g"], "-H/--host"),
    (["count-sub", "-p", "a.g", "-H", "b.g", "stray"], "stray"),
    (["--"], "--"),
    (["count-sub", "-p", "a.g", "-H", "b.g", "--"], "--"),
    (["count-sub", "-p", "a.g", "-H", "b.g", "--verify=yes"], "yes"),
], ids=["no command", "unknown command", "unknown option",
        "ambiguous option", "missing value", "flag for value", "bad int", "bad choice",
        "missing required", "stray token", "bare -- first", "bare -- last",
        "value for flag"])
def test_usage_errors_exit_1(capsys, argv, token):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    usage, message = err.splitlines()
    assert usage.startswith("usage: subcount")
    assert message.startswith("subcount") and ": error: " in message and token in message


def test_help_lists_every_command_and_option(capsys):
    top = _help(capsys)
    assert len(COMMANDS) == 16 and all(name in top for name in COMMANDS)
    assert _help(capsys, "-h") == top
    for name, (_, _, options) in COMMANDS.items():
        text = _help(capsys, name)
        assert text.startswith(f"usage: subcount {name} ")
        assert all(flag in text for o in options for flag in o.flags)
    # help comes before the check for required options
    assert _help(capsys, "count-sub", "-p", "a.g") == _help(capsys, "count-sub")


def test_readme_names_every_command_and_option():
    # each command as `name ...` and at least one flag of each of its options
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for name, (_, _, options) in COMMANDS.items():
        assert f"`{name}" in readme, name
        for o in options:
            assert any(re.search(rf"(?<![\w-]){re.escape(f)}(?![\w-])", readme)
                       for f in o.flags), (name, o.flags)


_COUNT_KEYS = ["count", "algorithm", "oracle_calls", "elapsed_ms"]

# every command on tiny fixture files ("@x" is the file x in the test's
# directory, written by _record_fixtures or by the command), with the keys of
# the record it prints, in order
_RECORD_SHAPES = {
    "count-sub": (["-p", "@tri.g", "-H", "@k4.g"], _COUNT_KEYS),
    "count-emb": (["-p", "@tri.g", "-H", "@k4.g"], _COUNT_KEYS),
    "count-subpart": (["-p", "@tricol.g", "-H", "@k4col.g"], _COUNT_KEYS),
    "count-colorful-matchings": (["-H", "@m2col.g"], _COUNT_KEYS),
    "count-matchings": (["-H", "@k4.g", "-k", "2"], _COUNT_KEYS),
    "count-cycles": (["-H", "@k4.g", "-k", "3"], _COUNT_KEYS),
    "verify-gadget": (["-H", "@hub.g", "--matching", "0-1,2-3"],
                      ["gadget", "counterexample", "elapsed_ms"]),
    "search-gadget": (["-H", "@m2.g", "-k", "2"], ["found", "matching", "elapsed_ms"]),
    "reduce-matchings-via-gadget": (["-H", "@c6.g", "--gadget", "@m2.g", "--matching",
                                     "0-1,2-3", "-k", "2"], _COUNT_KEYS),
    "reduce-subpart-via-colmatch": (["-p", "@k33.g", "-H", "@k33host.g"], _COUNT_KEYS),
    "reduce-matchings-via-cycles": (["-H", "@c6.g", "-k", "2"], _COUNT_KEYS),
    "make-bicubic": (["-H", "@edge.g", "-o", "@out.g", "--model-out", "@out.json"],
                     ["vertices", "edges", "elapsed_ms"]),
    "grid-instance": (["-H", "@k4.g", "-k", "3", "-o", "@out.g", "--pattern-out", "@pat.g"],
                      ["pattern_vertices", "host_vertices", "host_edges", "elapsed_ms"]),
    "minor-lift": (["-p", "@edgecol.g", "-H", "@p3col.g", "--dagger", "@dagger.g",
                    "--model", "@model.json", "-o", "@out.g"],
                   ["vertices", "edges", "elapsed_ms"]),
    "extract": (["-H", "@m8.g", "-k", "2", "--matching",
                 ",".join(f"{2 * i}-{2 * i + 1}" for i in range(8))],
                ["found", "kind", "edges", "elapsed_ms"]),
    "state-matrix": (["--n", "0"], ["matrix", "det", "elapsed_ms"]),
}


def _record_fixtures(tmp_path):
    graphs = {"tri.g": Graph.cycle(3), "k4.g": Graph.complete(4),
              "tricol.g": Graph.cycle(3).with_vertex_colors([0, 1, 2]),
              "k4col.g": Graph.complete(4).with_vertex_colors([0, 1, 2, 0]),
              "m2col.g": Graph.matching(2).with_edge_colors([0, 1]),
              "hub.g": _hub_non_gadget(), "m2.g": Graph.matching(2),
              "c6.g": Graph.cycle(6), "k33.g": _K33, "k33host.g": _K33_HOST,
              "edge.g": Graph.matching(1), "m8.g": Graph.matching(8),
              "edgecol.g": Graph.matching(1).with_vertex_colors([0, 1]),
              "p3col.g": Graph.path(3).with_vertex_colors([0, 1, 0])}
    for name, g in graphs.items():
        write_graph(g, tmp_path / name)
    dagger, model = structural.make_bicubic(Graph.matching(1))
    write_graph(dagger, tmp_path / "dagger.g")
    save_model(model, tmp_path / "model.json")


def test_record_shapes_cover_every_command():
    assert set(_RECORD_SHAPES) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(_RECORD_SHAPES))
def test_every_command_prints_one_record(capsys, tmp_path, command):
    # handlers return their records; main prints each as one JSON line with
    # the command's wall time appended last
    _record_fixtures(tmp_path)
    argv, keys = _RECORD_SHAPES[command]
    code = main([command, *(str(tmp_path / a[1:]) if a[:1] == "@" else a for a in argv)])
    out = capsys.readouterr().out
    assert code == 0 and out.endswith("\n") and out.count("\n") == 1
    record = json.loads(out)
    assert type(record) is dict and list(record) == keys
    assert type(record["elapsed_ms"]) is int and record["elapsed_ms"] >= 0
    if "count" in record:
        assert type(record["count"]) is str and record["count"].isdigit()


def test_backends_are_looked_up_when_called(capsys, files, monkeypatch):
    # bench/tracer.py wraps backend functions from outside after
    # ``import subcount.cli``; the CLI must reach them through their modules
    # at call time, not through names bound at import
    called = []

    def counting(module, name):
        fun = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: called.append(name) or fun(*args))

    counting(brute, "count_subgraphs")
    counting(vc, "count_sub_vc")
    tri = files("tri.g", Graph.cycle(3))
    k4 = files("k4.g", Graph.complete(4))
    code, rec = run(capsys, "count-sub", "-p", tri, "-H", k4, "--verify")
    assert code == 0 and rec["count"] == "4"
    assert {"count_subgraphs", "count_sub_vc"} <= set(called)


def test_exit_code_precondition(capsys, files):
    gp = files("g.g", Graph.cycle(4))
    code, _ = run(capsys, "count-cycles", "-H", gp, "-k", "2")
    assert code == 2


def test_seed_flag_is_a_usage_error(files):
    # every command is deterministic, so there is no seed to pass
    tri = files("tri.g", Graph.cycle(3))
    k4 = files("k4.g", Graph.complete(4))
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "42", "count-sub", "-p", tri, "-H", k4])
    assert exc.value.code == 1


def test_written_graphs_reparse_identically(capsys, files, tmp_path):
    # every file the tool writes must read back as the same graph
    hp = files("h.g", Graph.path(3))
    out = str(tmp_path / "dagger.g")
    run(capsys, "make-bicubic", "-H", hp, "-o", out)
    d1 = read_graph(out)
    write_graph(d1, tmp_path / "again.g")
    d2 = read_graph(tmp_path / "again.g")
    assert d1.n == d2.n and d1.edges == d2.edges
    assert d1.vcolors == d2.vcolors and d1.ecolors == d2.ecolors


def _modules_after(argv):
    """Run the CLI on argv in a fresh ``python3 -S`` process; return its
    exit code, its JSON record and every module it ended with."""
    script = (
        "import sys, subcount.cli\n"
        f"code = subcount.cli.main({argv!r})\n"
        "loaded = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, loaded]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    record, tail = proc.stdout.strip().splitlines()
    code, loaded = json.loads(tail)
    return code, json.loads(record), set(loaded)


# modules a count must not load: typing, dataclasses (which pulls in inspect),
# fractions (which pulls in decimal), and the argparse and json the front end
# does without (argparse pulls in re, enum and gettext)
_HEAVY = {"typing", "dataclasses", "inspect", "fractions", "decimal",
          "argparse", "json", "re", "gettext", "enum"}


def test_startup_imports_stay_light(files):
    # each CLI command is a fresh ``python3 -S -m subcount.cli`` process, so
    # its import path must stay off _HEAVY; every backend must still be
    # loaded by ``import subcount.cli`` so outside wrappers can find it
    tri = files("tri.g", Graph.cycle(3))
    k4 = files("k4.g", Graph.complete(4))
    code, record, loaded = _modules_after(["count-sub", "-p", tri, "-H", k4])
    assert code == 0 and record["count"] == "4"
    assert _HEAVY.isdisjoint(loaded)
    backends = {f"subcount.{m}" for m in ("brute", "cli", "fileio", "gadgets",
                                          "graphs", "hardness", "iex",
                                          "polynomials", "structural", "vc")}
    assert backends <= loaded


_K33 = Graph.complete_bipartite(3, 3).with_vertex_colors(range(6))
# two colour-preserving copies: vertex 6 stands in for vertex 0
_K33_HOST = Graph(7, list(_K33.edges) + [(6, 3), (6, 4), (6, 5)],
                  vcolors=[0, 1, 2, 3, 4, 5, 0])


@pytest.mark.parametrize("argv, key, expected", [
    (["reduce-matchings-via-gadget", "-H", "@c6", "--gadget", "@m2",
      "--matching", "0-1,2-3", "-k", "2"],
     "count", str(brute.count_matchings(Graph.cycle(6), 2))),
    (["reduce-subpart-via-colmatch", "-p", "@k33", "-H", "@host"],
     "count", str(brute.count_colorpreserving_subgraphs(_K33, _K33_HOST))),
    (["state-matrix", "--n", "0"], "det", "12"),
], ids=["gadget", "colmatch", "state-matrix"])
def test_exact_commands_stay_off_fractions(files, argv, key, expected):
    # the gadget read-out takes integer differences of its 2k+1 values, the
    # state-matrix check extrapolates each p_{s,t} from integer differences
    # of its values at 0..6 and the colmatch solve uses cofactors, so none
    # of these runs loads fractions or decimal, nor any other module of _HEAVY
    paths = {"@c6": files("c6.g", Graph.cycle(6)),
             "@m2": files("m2.g", Graph.matching(2)),
             "@k33": files("k33.g", _K33),
             "@host": files("host.g", _K33_HOST)}
    code, record, loaded = _modules_after([paths.get(a, a) for a in argv])
    assert code == 0 and record[key] == expected
    assert _HEAVY.isdisjoint(loaded)


@pytest.mark.parametrize("argv", [
    ["count-sub", "-p", "@m14", "-H", "@g26", "--algo", "brute"],
    ["count-matchings", "-H", "@g26", "-k", "14", "--algo", "vc"],
    ["count-matchings", "-H", "@g26", "-k", "14"],
    ["count-cycles", "-H", "@g25", "-k", "26"],
])
def test_patterns_larger_than_the_host_count_zero_at_once(files, argv):
    # a pattern with more vertices than the host has no copy, and the answer
    # must come without searching every matching or simple path, or walking
    # the 2^14 14! automorphisms of the 14-matching
    rng = random.Random(26)
    paths = {"@m14": files("m14.g", Graph.matching(14)),
             "@g26": files("g26.g", rand_graph(rng, 26, 0.3)),
             "@g25": files("g25.g", rand_graph(rng, 25, 0.3))}
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "subcount.cli", *(paths.get(a, a) for a in argv)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=5)
    assert proc.returncode == 0 and json.loads(proc.stdout)["count"] == "0"
