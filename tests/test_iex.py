import random
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from subcount.brute import (count_colorful_matchings,
                            count_colorpreserving_subgraphs,
                            count_subgraphs)
from subcount.graphs import Graph, InconsistencyError, PreconditionError
from subcount.iex import (colmatch_via_match_oracle, prune_useless_edges,
                          subpart_via_sub_oracle)
from subcount.routes import count_sub
from helpers import colorful, rand_edge_colored, rand_graph, rand_vertex_colored

# the #Sub oracle the matching transfer asks, #Sub(M_k -> host), by the
# matchings route
by_matchings = partial(count_sub, "matchings")


class CountingOracle:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_prune_drops_only_foreign_color_pairs():
    h = colorful(Graph.path(3))  # colors 1-2-3, edge pairs {1,2},{2,3}
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).with_vertex_colors([1, 2, 3, 3])
    gp = prune_useless_edges(h, g)
    # {0,3} has colors {1,3}: not a pattern pair, must go; {2,3} is colors {3,3}
    assert set(gp.edges) == {(0, 1), (1, 2)}
    assert gp.n == g.n


def test_subpart_transfer_small_cases():
    h = colorful(Graph.complete(3))
    g = Graph.complete(4).with_vertex_colors([1, 2, 3, 3])
    oracle = CountingOracle(count_subgraphs)
    assert subpart_via_sub_oracle(h, g, oracle) == 2
    assert oracle.calls == 2 ** 3
    # a host with no valid copy at all
    g0 = Graph.complete(3).with_vertex_colors([1, 1, 2])
    assert subpart_via_sub_oracle(h, g0, count_subgraphs) == 0


def test_subpart_transfer_requires_colorful_pattern():
    h = Graph.complete(3).with_vertex_colors([1, 1, 2])
    g = Graph.complete(3).with_vertex_colors([1, 2, 3])
    with pytest.raises(PreconditionError):
        subpart_via_sub_oracle(h, g, count_subgraphs)


def test_subpart_transfer_rejects_lying_oracle():
    # 0 copies in the whole host but 1 in every proper color part: the
    # signed sum is 1 - 1 - 1 + 0 = -1, which no consistent oracle gives
    h = colorful(Graph.path(2))
    g = Graph.path(2).with_vertex_colors([1, 2])
    with pytest.raises(InconsistencyError):
        subpart_via_sub_oracle(h, g, lambda hh, gg: 0 if gg.n == g.n else 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 28 - 1))
def test_subpart_transfer_exhaustive_small(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    h = colorful(rand_graph(rng, k, rng.random()))
    g = rand_vertex_colored(rng, rng.randint(1, 7), rng.random(), k)
    oracle = CountingOracle(count_subgraphs)
    got = subpart_via_sub_oracle(h, g, oracle)
    assert got == count_colorpreserving_subgraphs(h, g)
    assert oracle.calls <= 2 ** k


def test_subpart_transfer_wider_patterns():
    rng = random.Random(20240817)
    for _ in range(12):
        k = rng.randint(5, 8)
        h = colorful(rand_graph(rng, k, 0.5))
        g = rand_vertex_colored(rng, rng.randint(k, 10), 0.45, k)
        oracle = CountingOracle(count_subgraphs)
        got = subpart_via_sub_oracle(h, g, oracle)
        assert got == count_colorpreserving_subgraphs(h, g)
        assert oracle.calls == 2 ** k


def test_colmatch_transfer_small_cases():
    g = Graph.path(4).with_edge_colors([1, 2, 1])
    oracle = CountingOracle(by_matchings)
    assert colmatch_via_match_oracle(g, [1], oracle) == 2
    assert colmatch_via_match_oracle(g, [1, 2], by_matchings) == 0
    assert colmatch_via_match_oracle(g, [], by_matchings) == 1
    assert oracle.calls == 2


def test_colmatch_transfer_rejects_lying_oracle():
    g = Graph.path(3).with_edge_colors([1, 2])
    with pytest.raises(InconsistencyError):
        colmatch_via_match_oracle(g, [1, 2], lambda p, gg: 0 if gg.m == g.m else 1)


def test_colmatch_transfer_call_budget():
    rng = random.Random(5)
    g = rand_edge_colored(rng, 8, 0.5, 4)
    oracle = CountingOracle(by_matchings)
    want = [0, 1, 2, 3]
    got = colmatch_via_match_oracle(g, want, oracle)
    assert got == count_colorful_matchings(g, want)
    assert oracle.calls == 2 ** 4


def test_transfers_refuse_above_the_call_limit_before_any_call():
    # 17 colours would make 2^17 calls, above the 2^16 limit
    oracle = CountingOracle(lambda *args: 0)
    h = Graph.path(17).with_vertex_colors(range(17))
    with pytest.raises(PreconditionError, match="131072"):
        subpart_via_sub_oracle(h, h, oracle)
    g = Graph.matching(17).with_edge_colors(range(17))
    with pytest.raises(PreconditionError, match="131072"):
        colmatch_via_match_oracle(g, range(17), oracle)
    assert oracle.calls == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 28 - 1))
def test_colmatch_transfer_matches_brute(seed):
    rng = random.Random(seed)
    ncol = rng.randint(1, 4)
    g = rand_edge_colored(rng, rng.randint(2, 8), rng.random(), ncol)
    want = sorted(rng.sample(range(ncol), rng.randint(0, ncol)))
    assert colmatch_via_match_oracle(g, want, by_matchings) == \
        count_colorful_matchings(g, want)


def test_colmatch_transfer_wide_color_sets():
    rng = random.Random(99)
    for _ in range(6):
        g = rand_edge_colored(rng, 10, 0.6, 8)
        want = list(range(8))
        oracle = CountingOracle(by_matchings)
        got = colmatch_via_match_oracle(g, want, oracle)
        assert got == count_colorful_matchings(g, want)
        assert oracle.calls == 2 ** 8
