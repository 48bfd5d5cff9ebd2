"""End-to-end checks of the command line tool, driven through cli.main."""

import json
import random

import pytest

from subcount import brute, gadgets, hardness
from subcount.cli import main
from subcount.fileio import read_graph, write_graph
from subcount.graphs import Graph

from helpers import rand_bipartite, rand_graph


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


def test_state_matrix_published_values(capsys):
    code, rec = run(capsys, "state-matrix", "--n", "0")
    assert code == 0
    assert rec["matrix"] == [[2, 2, 3, 3, 3], [2, 3, 2, 3, 3], [2, 3, 3, 2, 3],
                             [2, 3, 3, 4, 5], [2, 2, 2, 2, 4]]
    assert rec["det"] == "12"


def test_state_matrix_other_padding(capsys):
    code, rec = run(capsys, "state-matrix", "--n", "3")
    assert code == 0
    assert int(rec["det"]) == hardness.state_determinant_polynomial()(3)


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
    # tau(K4-ish on 4 vertices) <= 3 <= default tau-max, so auto says vc
    code, rec = run(capsys, "count-sub", "-p", hp, "-H", gp)
    assert rec["algorithm"] in ("vc", "brute")
    code, rec = run(capsys, "count-sub", "-p", hp, "-H", gp, "--tau-max", "0")
    assert rec["algorithm"] == "brute"


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


def test_search_gadget_size_gate(capsys, files):
    big = files("big.g", Graph.matching(7))
    code, _ = run(capsys, "search-gadget", "-H", big, "-k", "1")
    assert code == 2
    code, rec = run(capsys, "search-gadget", "-H", big, "-k", "1", "--trust")
    assert code == 0 and rec["found"] is True


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


def test_reduce_matchings_via_gadget_rejects_bad_gadget(capsys, files):
    gp = files("host.g", Graph.complete_bipartite(2, 2))
    bad = files("bad.g", _hub_non_gadget())
    code, _ = run(capsys, "reduce-matchings-via-gadget", "-H", gp,
                  "--gadget", bad, "--matching", "0-1,2-3", "-k", "2")
    assert code == 2


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
    model = load_model(model_out)
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


def test_exit_code_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["count-sub", "-p", "x.g"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_exit_code_precondition(capsys, files):
    gp = files("g.g", Graph.cycle(4))
    code, _ = run(capsys, "count-cycles", "-H", gp, "-k", "2")
    assert code == 2


def test_seed_flag_accepted(capsys, files):
    tri = files("tri.g", Graph.cycle(3))
    k4 = files("k4.g", Graph.complete(4))
    code, rec = run(capsys, "--seed", "42", "count-sub", "-p", tri, "-H", k4)
    assert code == 0 and rec["count"] == "4"


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
