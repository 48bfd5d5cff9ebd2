"""Command line front end: one subcommand per library entry point.

Counting commands print a single JSON line with the count as a decimal
string (fileio.result_record); constructive commands write graph files and
print a short JSON summary.  All output is deterministic.

Exit codes: 0 success, 1 malformed input (bad flags, unreadable or
ill-formed files), 2 precondition violation, 3 internal inconsistency
detected by a cross-check.
"""

import argparse
import json
import sys
import time
from itertools import permutations

from . import brute, gadgets, hardness, iex, structural, vc
from .fileio import (GraphParseError, format_matching, load_model,
                     parse_matching, read_graph, result_record, save_model,
                     write_graph)
from .graphs import (Graph, InconsistencyError, PreconditionError,
                     min_vertex_cover)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for precondition
    violations here, so command line mistakes map to exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Counted:
    """Wrap an oracle so the number of queries can be reported."""

    def __init__(self, fun):
        self.fun = fun
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fun(*args)


def _elapsed_ms(t0):
    return int((time.perf_counter() - t0) * 1000)


def _emit(count, algorithm, calls, t0):
    print(result_record(count, algorithm, calls, _elapsed_ms(t0)))
    return 0


def _count(args, tau, run_brute, run_vc, label=""):
    """Run the backend --algo names, or under auto vc when the pattern's
    vertex cover number, computed by ``tau()`` only then, is at most
    --tau-max; under --verify run both and require agreement.  Print the
    record, its algorithm prefixed by ``label``.  Each run returns (count,
    oracle calls)."""
    t0 = time.perf_counter()
    if args.verify:
        nb, cb = run_brute()
        nv, cv = run_vc()
        if nb != nv:
            raise InconsistencyError(f"cross-check failed: brute={nb} vc={nv}")
        return _emit(nb, label + "brute+vc", cb + cv, t0)
    algo = args.algo
    if algo == "auto":
        algo = "vc" if tau() <= args.tau_max else "brute"
    count, calls = run_vc() if algo == "vc" else run_brute()
    return _emit(count, label + algo, calls, t0)


def _pattern_tau(h):
    return lambda: min_vertex_cover(h)[0]


# ---------------------------------------------------------------------------
# counting commands


def _cmd_count_sub(args):
    h = read_graph(args.pattern)
    g = read_graph(args.host)
    return _count(args, _pattern_tau(h), lambda: (brute.count_subgraphs(h, g), 1),
                  lambda: (vc.count_sub_vc(h, g), 1))


def _cmd_count_emb(args):
    h = read_graph(args.pattern)
    g = read_graph(args.host)
    return _count(args, _pattern_tau(h), lambda: (brute.count_embeddings(h, g), 1),
                  lambda: (vc.count_emb_vc(h, g), 1))


def _cmd_count_subpart(args):
    h = read_graph(args.pattern)
    g = read_graph(args.host)

    def run_vc():
        oracle = _Counted(vc.count_sub_vc)
        return iex.subpart_via_sub_oracle(h, g, oracle), oracle.calls

    return _count(args, _pattern_tau(h),
                  lambda: (brute.count_colorpreserving_subgraphs(h, g), 1), run_vc)


def _cmd_count_colorful_matchings(args):
    g = read_graph(args.host)
    if g.ecolors is None:
        raise PreconditionError("host must be edge-colored")
    colors = sorted(set(g.ecolors))
    t0 = time.perf_counter()
    if args.via == "matchings":
        oracle = _Counted(brute.count_matchings)
        count = iex.colmatch_via_match_oracle(g, colors, oracle)
        return _emit(count, "via-matchings", oracle.calls, t0)
    count = brute.count_colorful_matchings(g, colors)
    return _emit(count, "brute", 1, t0)


def _cmd_count_matchings(args):
    g = read_graph(args.host)
    k = args.k
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    # a k-matching is a subgraph copy of the k-edge matching pattern, whose
    # vertex cover number is k
    return _count(args, lambda: k, lambda: (brute.count_matchings(g, k), 1),
                  lambda: (vc.count_sub_vc(Graph.matching(k), g), 1))


def _cmd_count_cycles(args):
    g = read_graph(args.host)
    t0 = time.perf_counter()
    count = brute.count_walk_patterns(g, "cycle", args.k)
    return _emit(count, "brute", 1, t0)


# ---------------------------------------------------------------------------
# gadget commands


def _cmd_verify_gadget(args):
    h = read_graph(args.host)
    matching = parse_matching(args.matching)
    t0 = time.perf_counter()
    bad = gadgets.check_matching_gadget(h, matching)
    out = {"gadget": bad is None}
    if bad is not None:
        out["counterexample"] = list(bad)
    out["elapsed_ms"] = _elapsed_ms(t0)
    print(json.dumps(out))
    return 0


def _cmd_search_gadget(args):
    h = read_graph(args.host)
    if h.n > 12 and not args.trust:
        raise PreconditionError(
            "searching a graph above 12 vertices runs many exhaustive "
            "checks; pass --trust to proceed anyway")
    t0 = time.perf_counter()
    found = gadgets.search_gadget(h, args.k)
    out = {"found": found is not None}
    if found is not None:
        out["matching"] = format_matching(found.matching)
    out["elapsed_ms"] = _elapsed_ms(t0)
    print(json.dumps(out))
    return 0


def _cmd_reduce_matchings_via_gadget(args):
    g = read_graph(args.host)
    hg = read_graph(args.gadget)
    matching = parse_matching(args.matching)
    gadget = gadgets.MatchingGadget(hg, matching)
    if hg.n <= 12:
        bad = gadgets.check_matching_gadget(hg, matching)
        if bad is not None:
            raise PreconditionError(
                f"not a matching gadget: core candidate {bad} breaks the check")
    elif not args.trust:
        raise PreconditionError(
            "gadget too large to verify automatically; pass --trust to use "
            "it unchecked")

    def via(count_sub):
        oracle = _Counted(count_sub)
        count = gadgets.count_matchings_via_gadget(g, args.k, gadget, oracle=oracle)
        return count, oracle.calls

    return _count(args, _pattern_tau(hg), lambda: via(brute.count_subgraphs),
                  lambda: via(vc.count_sub_vc), label="gadget+")


# ---------------------------------------------------------------------------
# reduction pipelines


def _cmd_reduce_subpart_via_colmatch(args):
    h = read_graph(args.pattern)
    g = read_graph(args.host)
    if h.n > args.max_k:
        raise PreconditionError(
            f"pattern has {h.n} vertices, so the reduction makes 5^{h.n} "
            f"oracle queries; raise --max-k (now {args.max_k}) to allow it")
    t0 = time.perf_counter()
    count = hardness.subpart_via_colmatch_oracle(h, g)
    # the solve reads 5^k query values, all from the host's answer table
    return _emit(count, "colmatch-structured", 5 ** h.n, t0)


def _cmd_reduce_matchings_via_cycles(args):
    g = read_graph(args.host)
    oracle = _Counted(lambda dg, length: brute.count_walk_patterns(dg, "cycle", length))
    t0 = time.perf_counter()
    count = hardness.matchings_via_directed_cycles(g, args.k, oracle)
    return _emit(count, "cycles", oracle.calls, t0)


# ---------------------------------------------------------------------------
# constructions


def _cmd_make_bicubic(args):
    h = read_graph(args.host)
    t0 = time.perf_counter()
    dagger, model = structural.make_bicubic(h)
    write_graph(dagger, args.out)
    if args.model_out:
        save_model(model, args.model_out)
    print(json.dumps({"vertices": dagger.n, "edges": dagger.m,
                      "elapsed_ms": _elapsed_ms(t0)}))
    return 0


def _cmd_grid_instance(args):
    g = read_graph(args.host)
    t0 = time.perf_counter()
    pattern, host = structural.build_grid_instance(g, args.k)
    write_graph(host, args.out)
    if args.pattern_out:
        write_graph(pattern, args.pattern_out)
    print(json.dumps({"pattern_vertices": pattern.n, "host_vertices": host.n,
                      "host_edges": host.m, "elapsed_ms": _elapsed_ms(t0)}))
    return 0


def _cmd_minor_lift(args):
    h = read_graph(args.pattern)
    g = read_graph(args.host)
    dagger = read_graph(args.dagger)
    model = structural.MinorModel(*load_model(args.model))
    t0 = time.perf_counter()
    lifted = structural.minor_lift_instance(h, dagger, model, g)
    write_graph(lifted, args.out)
    print(json.dumps({"vertices": lifted.n, "edges": lifted.m,
                      "elapsed_ms": _elapsed_ms(t0)}))
    return 0


def _cmd_extract(args):
    g = read_graph(args.host)
    matching = parse_matching(args.matching)
    t0 = time.perf_counter()
    got = structural.extract_clique_biclique_or_matching(g, args.k, matching)
    out = {"found": got is not None}
    if got is not None:
        kind, witness = got
        out["kind"] = kind
        if kind == "clique":
            out["vertices"] = list(witness)
        elif kind == "biclique":
            out["left"] = list(witness[0])
            out["right"] = list(witness[1])
        else:
            out["edges"] = format_matching(witness)
    out["elapsed_ms"] = _elapsed_ms(t0)
    print(json.dumps(out))
    return 0


def _det5(rows):
    """Permutation-expansion determinant, the independent cross-check for
    the determinant polynomial."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def _cmd_state_matrix(args):
    t0 = time.perf_counter()
    rows = hardness.state_matrix(args.n)
    det = hardness.state_determinant_polynomial()(args.n)
    if det != _det5(rows):
        raise InconsistencyError(
            f"determinant polynomial gives {det} but direct expansion disagrees")
    print(json.dumps({"matrix": rows, "det": str(det),
                      "elapsed_ms": _elapsed_ms(t0)}))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_algo_flags(p):
    p.add_argument("--algo", choices=("brute", "vc", "auto"), default="auto",
                   help="counting backend (auto picks vc for small vertex cover)")
    p.add_argument("--tau-max", type=int, default=4, metavar="T",
                   help="auto uses vc when the pattern cover number is at most T")
    p.add_argument("--verify", action="store_true",
                   help="run brute and vc and require agreement")


def build_parser():
    parser = _Parser(prog="subcount",
                     description="subgraph counting and its hardness toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("count-sub", help="count subgraph copies of a pattern")
    p.add_argument("-p", "--pattern", required=True, metavar="FILE")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    _add_algo_flags(p)
    p.set_defaults(run=_cmd_count_sub)

    p = sub.add_parser("count-emb", help="count injective embeddings of a pattern")
    p.add_argument("-p", "--pattern", required=True, metavar="FILE")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    _add_algo_flags(p)
    p.set_defaults(run=_cmd_count_emb)

    p = sub.add_parser("count-subpart",
                       help="count color-preserving copies of a colored pattern")
    p.add_argument("-p", "--pattern", required=True, metavar="FILE")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    _add_algo_flags(p)
    p.set_defaults(run=_cmd_count_subpart)

    p = sub.add_parser("count-colorful-matchings",
                       help="count matchings using every edge color exactly once")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("--via", choices=("direct", "matchings"), default="direct",
                   help="direct enumeration, or inclusion-exclusion through "
                        "plain matching counts")
    p.set_defaults(run=_cmd_count_colorful_matchings)

    p = sub.add_parser("count-matchings", help="count matchings with k edges")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("-k", type=int, required=True)
    _add_algo_flags(p)
    p.set_defaults(run=_cmd_count_matchings)

    p = sub.add_parser("count-cycles", help="count cycle subgraphs with k edges")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(run=_cmd_count_cycles)

    p = sub.add_parser("verify-gadget",
                       help="exhaustively check the matching-gadget property")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("--matching", required=True, metavar="SPEC",
                   help="induced matching as 'u-v,u-v,...'")
    p.set_defaults(run=_cmd_verify_gadget)

    p = sub.add_parser("search-gadget",
                       help="find an induced k-matching passing the gadget check")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--trust", action="store_true",
                   help="allow searching graphs above 12 vertices")
    p.set_defaults(run=_cmd_search_gadget)

    p = sub.add_parser("reduce-matchings-via-gadget",
                       help="count k-matchings through subgraph-count queries")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("--gadget", required=True, metavar="FILE")
    p.add_argument("--matching", required=True, metavar="SPEC")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--trust", action="store_true",
                   help="skip verification for gadgets above 12 vertices")
    _add_algo_flags(p)
    p.set_defaults(run=_cmd_reduce_matchings_via_gadget)

    p = sub.add_parser("reduce-subpart-via-colmatch",
                       help="count color-preserving copies through colorful-"
                            "matching queries")
    p.add_argument("-p", "--pattern", required=True, metavar="FILE")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("--max-k", type=int, default=6, metavar="K",
                   help="refuse patterns above K vertices (5^K queries)")
    p.set_defaults(run=_cmd_reduce_subpart_via_colmatch)

    p = sub.add_parser("reduce-matchings-via-cycles",
                       help="count k-matchings through one directed-cycle count")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(run=_cmd_reduce_matchings_via_cycles)

    p = sub.add_parser("make-bicubic",
                       help="rebuild a graph as a cubic bipartite minor host")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("-o", "--out", required=True, metavar="FILE")
    p.add_argument("--model-out", metavar="FILE",
                   help="also write the branch-set model as JSON")
    p.set_defaults(run=_cmd_make_bicubic)

    p = sub.add_parser("grid-instance",
                       help="build the colored grid host whose pattern count "
                            "equals the k-clique count")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--out", required=True, metavar="FILE")
    p.add_argument("--pattern-out", metavar="FILE",
                   help="also write the colorful grid pattern")
    p.set_defaults(run=_cmd_grid_instance)

    p = sub.add_parser("minor-lift",
                       help="transfer colored pattern counting across a minor model")
    p.add_argument("-p", "--pattern", required=True, metavar="FILE")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("--dagger", required=True, metavar="FILE",
                   help="the rebuilt pattern graph")
    p.add_argument("--model", required=True, metavar="FILE",
                   help="branch-set model JSON")
    p.add_argument("-o", "--out", required=True, metavar="FILE")
    p.set_defaults(run=_cmd_minor_lift)

    p = sub.add_parser("extract",
                       help="look for a clique, biclique or induced matching "
                            "among the edges of a matching")
    p.add_argument("-H", "--host", required=True, metavar="FILE")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--matching", required=True, metavar="SPEC")
    p.set_defaults(run=_cmd_extract)

    p = sub.add_parser("state-matrix",
                       help="print the query/alignment state matrix and its "
                            "determinant at padding n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_state_matrix)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except GraphParseError as exc:
        print(f"subcount: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"subcount: error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"subcount: error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"subcount: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
