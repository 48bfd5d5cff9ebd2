"""Seeded instances, job lists and expected counts for the benchmark.

Every host is drawn from ``random.Random(f"{seed}:{host}")``, so one seed
gives the same host to every workload that names it, and hosts do not shift
when a job is added elsewhere.  Hosts are plain edge lists written in the
CLI's graph-file format by this module; the program under test only ever
sees the files.

Each job's expected count comes from a route other than the one the job
times: brute enumeration for vc jobs, and for brute jobs either a different
brute function or a closed form computed here.
"""

import math
import random
from typing import NamedTuple

from subcount import brute
from subcount.graphs import Graph


class Host(NamedTuple):
    n: int
    edges: list
    vcolors: list = None
    ecolors: list = None


def graph_text(h):
    """Render a host in the graph-file format read by ``subcount``."""
    lines = [f"g {h.n}"]
    for i, (u, v) in enumerate(h.edges):
        lines.append(f"e {u} {v}" if h.ecolors is None else f"e {u} {v} {h.ecolors[i]}")
    if h.vcolors is not None:
        lines.extend(f"vc {v} {c}" for v, c in enumerate(h.vcolors))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# host generators


def _random_graph(rng, n, p):
    """Uniform graph with exactly round(p * C(n, 2)) edges, i.e. G(n, p)
    conditioned on its expected edge count.  Job times follow the edge
    count, whose spread in plain G(n, p) would make the benchmark measure
    the seed rather than the code."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def _random_bipartite(rng, a, b, p):
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    return sorted(rng.sample(pairs, round(p * len(pairs))))


K33_EDGES = [(i, 3 + j) for i in range(3) for j in range(3)]
# colour pairs {a, b} that are edges of the colourful K_{3,3} (colour = vertex)
_K33_COLOUR_PAIRS = {frozenset(e) for e in K33_EDGES}


def _planted_k33(rng):
    """Two disjoint colourful K_{3,3} copies plus 8 noise edges.

    Noise edges never join a pattern colour pair, so the link census keeps
    its 2^8 types and the count stays 2 at every seed.  Noise on pattern
    colour pairs grew the census to as many as 2336 types, and the job time
    with it.
    """
    vcolors = list(range(6)) * 2
    edges = K33_EDGES + [(6 + u, 6 + v) for u, v in K33_EDGES]
    noise = [(u, v) for u in range(12) for v in range(u + 1, 12)
             if frozenset((vcolors[u], vcolors[v])) not in _K33_COLOUR_PAIRS]
    edges += rng.sample(noise, 8)
    return Host(12, sorted(edges), vcolors=vcolors)


def _sparse_empty_census(rng):
    """30 vertices, 45 random edges, 6 vertex colours, drawn again until some
    pattern colour pair has no host edge, so the census is empty and the
    job measures the per-query cost of the 5^6 loop alone."""
    verts = list(range(30))
    while True:
        edges = set()
        while len(edges) < 45:
            u, v = rng.sample(verts, 2)
            edges.add((min(u, v), max(u, v)))
        vcolors = [rng.randrange(6) for _ in verts]
        used = {frozenset((vcolors[u], vcolors[v])) for u, v in edges}
        if not _K33_COLOUR_PAIRS <= used:
            return Host(30, sorted(edges), vcolors=vcolors)


def _edge_coloured(rng, n, p, ncolours):
    edges = _random_graph(rng, n, p)
    return Host(n, edges, ecolors=[rng.randrange(ncolours) for _ in edges])


HOSTS = {
    "g120": lambda rng: Host(120, _random_graph(rng, 120, 0.1)),
    "g60": lambda rng: Host(60, _random_graph(rng, 60, 0.1)),
    "g26": lambda rng: Host(26, _random_graph(rng, 26, 0.3)),
    "g25": lambda rng: Host(25, _random_graph(rng, 25, 0.3)),
    "g24e5": lambda rng: _edge_coloured(rng, 24, 0.3, 5),
    "g20e4": lambda rng: _edge_coloured(rng, 20, 0.3, 4),
    "g40v4": lambda rng: Host(40, _random_graph(rng, 40, 0.25),
                              vcolors=[rng.randrange(1, 5) for _ in range(40)]),
    "bip6": lambda rng: Host(12, _random_bipartite(rng, 6, 6, 0.5)),
    "bip10": lambda rng: Host(20, _random_bipartite(rng, 10, 10, 0.3)),
    "planted": _planted_k33,
    "sparse30": _sparse_empty_census,
}

PATTERNS = {
    "triangle": Host(3, [(0, 1), (0, 2), (1, 2)]),
    "p4": Host(4, [(0, 1), (1, 2), (2, 3)]),
    "star5": Host(6, [(0, i) for i in range(1, 6)]),
    "c6": Host(6, sorted((min(i, (i + 1) % 6), max(i, (i + 1) % 6)) for i in range(6))),
    "m3": Host(6, [(0, 1), (2, 3), (4, 5)]),
    "m2": Host(4, [(0, 1), (2, 3)]),
    "k4": Host(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    "c4col": Host(4, [(0, 1), (0, 3), (1, 2), (2, 3)], vcolors=[1, 2, 3, 4]),
    "k33col": Host(6, K33_EDGES, vcolors=list(range(6))),
}


# ---------------------------------------------------------------------------
# jobs


class Job(NamedTuple):
    name: str
    args: tuple     # CLI arguments; "@x" names the graph file of host or pattern x
    expect: object  # files -> count, by a route other than the one timed


def _job(name, expect, *args):
    return Job(name, tuple(args), expect)


def _g(h):
    return Graph(h.n, h.edges, vcolors=h.vcolors, ecolors=h.ecolors)


def _colours(h):
    return sorted(set(h.ecolors))


WORKLOADS = {
    # default user path: auto routes every job to vc at the default seed;
    # checked by brute enumeration
    "count-auto": [
        _job("sub-triangle-g120",
             lambda f: brute.count_subgraphs(_g(f["triangle"]), _g(f["g120"])),
             "count-sub", "-p", "@triangle", "-H", "@g120"),
        _job("sub-p4-g120",
             lambda f: brute.count_subgraphs(_g(f["p4"]), _g(f["g120"])),
             "count-sub", "-p", "@p4", "-H", "@g120"),
        _job("sub-star5-g120", lambda f: stars(f["g120"], 5),
             "count-sub", "-p", "@star5", "-H", "@g120"),
        _job("matchings3-g26", lambda f: brute.count_matchings(_g(f["g26"]), 3),
             "count-matchings", "-H", "@g26", "-k", "3"),
        _job("emb-c6-g25",
             lambda f: brute.count_embeddings(_g(f["c6"]), _g(f["g25"])),
             "count-emb", "-p", "@c6", "-H", "@g25"),
    ],
    # the reference route the cross-checks depend on, and no vc work;
    # checked by another brute function or a closed form
    "count-brute": [
        _job("sub-triangle-g120-brute", lambda f: triangles(f["g120"]),
             "count-sub", "-p", "@triangle", "-H", "@g120", "--algo", "brute"),
        _job("sub-p4-g120-brute", lambda f: paths4(f["g120"]),
             "count-sub", "-p", "@p4", "-H", "@g120", "--algo", "brute"),
        _job("sub-star5-g60-brute", lambda f: stars(f["g60"], 5),
             "count-sub", "-p", "@star5", "-H", "@g60", "--algo", "brute"),
        _job("sub-m3-g26-brute", lambda f: brute.count_matchings(_g(f["g26"]), 3),
             "count-sub", "-p", "@m3", "-H", "@g26", "--algo", "brute"),
        _job("matchings4-g26-brute", lambda f: matchings(f["g26"].edges, 4),
             "count-matchings", "-H", "@g26", "-k", "4", "--algo", "brute"),
        # 12 automorphisms of C6 per cycle subgraph
        _job("emb-c6-g25-brute",
             lambda f: 12 * brute.count_walk_patterns(_g(f["g25"]), "cycle", 6),
             "count-emb", "-p", "@c6", "-H", "@g25", "--algo", "brute"),
        _job("cycles7-g60",
             lambda f: brute.count_subgraphs(Graph.cycle(7), _g(f["g60"])),
             "count-cycles", "-H", "@g60", "-k", "7"),
        _job("colorful-matchings-g24", lambda f: colourful_matchings(f["g24e5"]),
             "count-colorful-matchings", "-H", "@g24e5"),
    ],
    # 5^6 colourful-matching queries through the gadget host
    "colmatch": [
        _job("colmatch-planted",
             lambda f: brute.count_colorpreserving_subgraphs(_g(f["k33col"]), _g(f["planted"])),
             "reduce-subpart-via-colmatch", "-p", "@k33col", "-H", "@planted"),
        _job("colmatch-sparse30",
             lambda f: brute.count_colorpreserving_subgraphs(_g(f["k33col"]), _g(f["sparse30"])),
             "reduce-subpart-via-colmatch", "-p", "@k33col", "-H", "@sparse30"),
    ],
    # reductions that make many small oracle calls
    "reduce-oracle": [
        _job("gadget-m3-bip6", lambda f: brute.count_matchings(_g(f["bip6"]), 3),
             "reduce-matchings-via-gadget", "-H", "@bip6", "--gadget", "@m3",
             "--matching", "0-1,2-3,4-5", "-k", "3"),
        _job("gadget-k4-bip10", lambda f: brute.count_matchings(_g(f["bip10"]), 1),
             "reduce-matchings-via-gadget", "-H", "@bip10", "--gadget", "@k4",
             "--matching", "0-1", "-k", "1"),
        _job("gadget-m2-bip10", lambda f: brute.count_matchings(_g(f["bip10"]), 2),
             "reduce-matchings-via-gadget", "-H", "@bip10", "--gadget", "@m2",
             "--matching", "0-1,2-3", "-k", "2"),
        _job("subpart-c4-g40",
             lambda f: brute.count_colorpreserving_subgraphs(_g(f["c4col"]), _g(f["g40v4"])),
             "count-subpart", "-p", "@c4col", "-H", "@g40v4"),
        _job("colorful-matchings-via-g20",
             lambda f: brute.count_colorful_matchings(_g(f["g20e4"]), _colours(f["g20e4"])),
             "count-colorful-matchings", "-H", "@g20e4", "--via", "matchings"),
        _job("cycles-matchings4-bip6", lambda f: brute.count_matchings(_g(f["bip6"]), 4),
             "reduce-matchings-via-cycles", "-H", "@bip6", "-k", "4"),
    ],
}


def files_of(jobs):
    """Names of the hosts and patterns the jobs read."""
    return sorted({a[1:] for job in jobs for a in job.args if a.startswith("@")})


def make_files(seed, names):
    """Hosts drawn from the seed, and the fixed patterns, by @-name."""
    return {name: PATTERNS[name] if name in PATTERNS
            else HOSTS[name](random.Random(f"{seed}:{name}")) for name in names}


# ---------------------------------------------------------------------------
# expected counts


def _masks(h):
    adj = [0] * h.n
    for u, v in h.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def triangles(h):
    adj = _masks(h)
    return sum(bin(adj[u] & adj[v]).count("1") for u, v in h.edges) // 3


def paths4(h):
    """Subgraph copies of P4: each middle edge uv extends on both sides in
    (d(u)-1)(d(v)-1) ways, minus the 3 closures per triangle."""
    adj = _masks(h)
    deg = [bin(a).count("1") for a in adj]
    ends = sum((deg[u] - 1) * (deg[v] - 1) for u, v in h.edges)
    return ends - 3 * triangles(h)


def stars(h, leaves):
    deg = [bin(a).count("1") for a in _masks(h)]
    return sum(math.comb(d, leaves) for d in deg)


def matchings(edges, k):
    """k-matchings by edge removal: each k-matching is found once from each
    of its k edges, with 2-matchings read off the degree sequence."""
    if k == 0:
        return 1
    if k == 1:
        return len(edges)
    if k == 2:
        deg = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        return math.comb(len(edges), 2) - sum(math.comb(d, 2) for d in deg.values())
    total = 0
    for u, v in edges:
        rest = [e for e in edges if u not in e and v not in e]
        total += matchings(rest, k - 1)
    return total // k


def colourful_matchings(h):
    """Matchings with one edge of each colour present, by a dynamic program
    over used-vertex masks, colour by colour."""
    states = {0: 1}
    for c in sorted(set(h.ecolors)):
        nxt = {}
        for (u, v), ec in zip(h.edges, h.ecolors):
            if ec != c:
                continue
            bits = (1 << u) | (1 << v)
            for mask, cnt in states.items():
                if not mask & bits:
                    nxt[mask | bits] = nxt.get(mask | bits, 0) + cnt
        states = nxt
    return sum(states.values())
