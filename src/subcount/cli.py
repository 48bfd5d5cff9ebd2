"""Command line front end: one subcommand per library entry point.

Counting commands print a single JSON line with the count as a decimal
string (_record); constructive commands write graph files and print a
short JSON summary.  Each handler returns its record and ``main`` prints it.
All output but ``elapsed_ms`` is deterministic.

Exit codes: 0 success, 1 malformed input (bad flags, unreadable or
ill-formed files), 2 precondition violation, 3 internal inconsistency
detected by a cross-check.
"""

import math
import sys
import time
from collections import namedtuple
from itertools import permutations
from types import SimpleNamespace

from . import brute, gadgets, hardness, iex, routes, structural, vc
from .fileio import (GraphParseError, dumps, format_matching, load_model,
                     parse_matching, read_graph, save_model, write_graph)
from .graphs import WORK_LIMIT, Graph, InconsistencyError, PreconditionError
from .polynomials import binomial_basis_from_values, determinant


class _Counted:
    """Wrap an oracle so the number of queries can be reported."""

    def __init__(self, fun):
        self.fun = fun
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fun(*args)


def _record(count, algorithm, calls):
    """The record every counting command returns.  The count is a decimal
    string so arbitrarily large values survive any JSON reader."""
    return {"count": str(count), "algorithm": algorithm, "oracle_calls": calls}


def _count(args, run, pick, label=""):
    """Run the route --algo names, brute or vc, or under auto the route
    ``pick()`` returns; under --verify run brute and vc and require
    agreement.  ``run(route)`` returns (count, oracle calls).  Return the
    record, its algorithm prefixed by ``label``."""
    if args.verify:
        nb, cb = run("brute")
        nv, cv = run("vc")
        if nb != nv:
            raise InconsistencyError(f"cross-check failed: brute={nb} vc={nv}")
        return _record(nb, label + "brute+vc", cb + cv)
    algo = pick() if args.algo == "auto" else args.algo
    count, calls = run(algo)
    return _record(count, label + algo, calls)


# ---------------------------------------------------------------------------
# counting commands


def _cmd_count_sub(args):
    h = read_graph(args.pattern)
    g = read_graph(args.host)
    return _count(args, lambda route: (routes.count_sub(route, h, g), 1),
                  lambda: routes.choose(h, g))


def _cmd_count_emb(args):
    h = read_graph(args.pattern)
    g = read_graph(args.host)
    return _count(args, lambda route: (routes.count_emb(route, h, g), 1),
                  lambda: routes.choose(h, g, sub=False))


def _cmd_count_subpart(args):
    h = read_graph(args.pattern)
    g = read_graph(args.host)
    calls = 1 << len(set(h.vcolors or ()))

    def run(route):
        if route == "brute":
            return brute.count_colorpreserving_subgraphs(h, g), 1
        # the other routes count the plain pattern in 2^colors parts of the
        # pruned host: an inclusion-exclusion transfer
        oracle = _Counted(lambda p, part: routes.count_sub(route, p, part))
        return iex.subpart_via_sub_oracle(h, g, oracle), oracle.calls

    def pick():
        # one color-respecting brute search against the transfer's calls by
        # the best route, which are refused above WORK_LIMIT; the transfer
        # counts the undirected shadow, so a directed graph goes to brute,
        # whose error names the problem
        if calls > WORK_LIMIT or h.directed or g.directed:
            return "brute"
        plain = Graph(h.n, h.edges)
        pruned = iex.prune_useless_edges(h, g)
        pruned = Graph(pruned.n, pruned.edges)
        route = routes.choose(plain, pruned)
        transfer = routes.cost(route, plain, pruned, calls)
        return route if transfer < routes.colored_search_cost(h, g) else "brute"

    return _count(args, run, pick)


def _cmd_count_colorful_matchings(args):
    g = read_graph(args.host)
    if g.ecolors is None:
        raise PreconditionError("host must be edge-colored")
    colors = sorted(set(g.ecolors))
    if args.via == "matchings":
        oracle = _Counted(brute.count_matchings)
        count = iex.colmatch_via_match_oracle(g, colors, oracle)
        return _record(count, "via-matchings", oracle.calls)
    return _record(brute.count_colorful_matchings(g, colors), "brute", 1)


def _cmd_count_matchings(args):
    g = read_graph(args.host)
    k = args.k
    if k < 0:
        raise PreconditionError("k must be nonnegative")

    # a k-matching is a subgraph copy of the k-edge matching pattern; every
    # route but vc is brute's matching counter
    def run(route):
        if route == "vc":
            return vc.count_sub_vc(Graph.matching(k), g), 1
        return brute.count_matchings(g, k), 1

    # a matching with more vertices than the host has none
    return _count(args, run, lambda: "matchings" if 2 * k > g.n
                  else routes.choose(Graph.matching(k), g))


def _cmd_count_cycles(args):
    g = read_graph(args.host)
    return _record(brute.count_walk_patterns(g, "cycle", args.k), "brute", 1)


# ---------------------------------------------------------------------------
# gadget commands


def _cmd_verify_gadget(args):
    h = read_graph(args.host)
    matching = parse_matching(args.matching)
    bad = gadgets.check_matching_gadget(h, matching)
    return {"gadget": True} if bad is None else {"gadget": False, "counterexample": list(bad)}


def _cmd_search_gadget(args):
    found = gadgets.search_gadget(read_graph(args.host), args.k)
    if found is None:
        return {"found": False}
    return {"found": True, "matching": format_matching(found.matching)}


def _cmd_reduce_matchings_via_gadget(args):
    g = read_graph(args.host)
    hg = read_graph(args.gadget)
    matching = parse_matching(args.matching)
    gadget = gadgets.MatchingGadget(hg, matching)
    bad = gadgets.check_matching_gadget(hg, gadget)
    if bad is not None:
        raise PreconditionError(
            f"not a matching gadget: core candidate {bad} breaks the check")

    def run(route):
        oracle = _Counted(lambda p, probe: routes.count_sub(route, p, probe))
        count = gadgets.count_matchings_via_gadget(g, args.k, gadget, oracle=oracle)
        return count, oracle.calls

    # one route for every query, picked on the largest padded instance
    return _count(args, run, lambda: routes.choose(
        hg, gadgets.build_G_ell(gadget, g, 2 * gadget.k).graph), label="gadget+")


# ---------------------------------------------------------------------------
# reduction pipelines


def _cmd_reduce_subpart_via_colmatch(args):
    h = read_graph(args.pattern)
    g = read_graph(args.host)
    if h.n > args.max_k:
        raise PreconditionError(
            f"pattern has {h.n} vertices, so the reduction makes 5^{h.n} "
            f"oracle queries; raise --max-k (now {args.max_k}) to allow it")
    # the solve reads 5^k query values, all from the host's answer table
    return _record(hardness.subpart_via_colmatch_oracle(h, g), "colmatch-structured", 5 ** h.n)


def _cmd_reduce_matchings_via_cycles(args):
    g = read_graph(args.host)
    oracle = _Counted(lambda dg, length: brute.count_walk_patterns(dg, "cycle", length))
    count = hardness.matchings_via_directed_cycles(g, args.k, oracle)
    return _record(count, "cycles", oracle.calls)


# ---------------------------------------------------------------------------
# constructions


def _cmd_make_bicubic(args):
    h = read_graph(args.host)
    dagger, model = structural.make_bicubic(h)
    write_graph(dagger, args.out)
    if args.model_out:
        save_model(model, args.model_out)
    return {"vertices": dagger.n, "edges": dagger.m}


def _cmd_grid_instance(args):
    g = read_graph(args.host)
    pattern, host = structural.build_grid_instance(g, args.k)
    write_graph(host, args.out)
    if args.pattern_out:
        write_graph(pattern, args.pattern_out)
    return {"pattern_vertices": pattern.n, "host_vertices": host.n, "host_edges": host.m}


def _cmd_minor_lift(args):
    h = read_graph(args.pattern)
    g = read_graph(args.host)
    dagger = read_graph(args.dagger)
    model = structural.MinorModel(*load_model(args.model))
    lifted = structural.minor_lift_instance(h, dagger, model, g)
    write_graph(lifted, args.out)
    return {"vertices": lifted.n, "edges": lifted.m}


def _cmd_extract(args):
    g = read_graph(args.host)
    matching = parse_matching(args.matching)
    got = structural.extract_clique_biclique_or_matching(g, args.k, matching)
    if got is None:
        return {"found": False}
    kind, witness = got
    if kind == "clique":
        return {"found": True, "kind": kind, "vertices": list(witness)}
    if kind == "biclique":
        return {"found": True, "kind": kind, "left": list(witness[0]),
                "right": list(witness[1])}
    return {"found": True, "kind": kind, "edges": format_matching(witness)}


def _det5(rows):
    """Permutation-expansion determinant, the independent cross-check for
    the cofactor expansion of the extrapolated matrix."""
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
    n = args.n
    rows = hardness.state_matrix(n)
    # each p_{s,t} has degree at most six, so its values at 0..6 fix it:
    # extrapolate every entry to n as sum_i c_i C(n+i, i)
    samples = [hardness.state_matrix(x) for x in range(7)]
    extrapolated = [[sum(c * math.comb(n + i, i) for i, c in enumerate(
                         binomial_basis_from_values(0, [m[t][s] for m in samples])))
                     for s in range(5)] for t in range(5)]
    det = determinant(extrapolated)
    if det != _det5(rows):
        raise InconsistencyError(
            f"determinant polynomial gives {det} but direct expansion disagrees")
    return {"matrix": rows, "det": str(det)}


# ---------------------------------------------------------------------------
# command table and argv parser

# ``kind`` is str, int, bool (a flag, which takes no value) or a tuple of the
# allowed values; ``dest`` is the attribute the handler reads
_Option = namedtuple("_Option", "flags dest kind required default metavar help")


def _opt(*flags, kind=str, required=False, default=None, metavar=None, help=""):
    dest = flags[-1].lstrip("-").replace("-", "_")
    if kind is bool:
        default = False
    elif metavar is None:
        metavar = "{" + ",".join(kind) + "}" if type(kind) is tuple else dest.upper()
    return _Option(flags, dest, kind, required, default, metavar, help)


_HELP = _opt("-h", "--help", kind=bool, help="show this help message and exit")
_PATTERN = _opt("-p", "--pattern", required=True, metavar="FILE")
_HOST = _opt("-H", "--host", required=True, metavar="FILE")
_K = _opt("-k", kind=int, required=True)
_OUT = _opt("-o", "--out", required=True, metavar="FILE")
_MATCHING = _opt("--matching", required=True, metavar="SPEC",
                 help="induced matching as 'u-v,u-v,...'")
_ALGO_FLAGS = (
    _opt("--algo", kind=("brute", "vc", "auto"), default="auto",
         help="counting backend (auto picks the route with the least "
              "estimated work)"),
    _opt("--verify", kind=bool, help="run brute and vc and require agreement"),
)

# name -> (help line, handler, options)
COMMANDS = {
    "count-sub": ("count subgraph copies of a pattern", _cmd_count_sub,
                  (_PATTERN, _HOST, *_ALGO_FLAGS)),
    "count-emb": ("count injective embeddings of a pattern", _cmd_count_emb,
                  (_PATTERN, _HOST, *_ALGO_FLAGS)),
    "count-subpart": ("count color-preserving copies of a colored pattern",
                      _cmd_count_subpart, (_PATTERN, _HOST, *_ALGO_FLAGS)),
    "count-colorful-matchings": (
        "count matchings using every edge color exactly once",
        _cmd_count_colorful_matchings,
        (_HOST, _opt("--via", kind=("direct", "matchings"), default="direct",
                     help="direct enumeration, or inclusion-exclusion through "
                          "plain matching counts"))),
    "count-matchings": ("count matchings with k edges", _cmd_count_matchings,
                        (_HOST, _K, *_ALGO_FLAGS)),
    "count-cycles": ("count cycle subgraphs with k edges", _cmd_count_cycles,
                     (_HOST, _K)),
    "verify-gadget": ("exhaustively check the matching-gadget property",
                      _cmd_verify_gadget, (_HOST, _MATCHING)),
    "search-gadget": (
        "find an induced k-matching passing the gadget check", _cmd_search_gadget,
        (_HOST, _K)),
    "reduce-matchings-via-gadget": (
        "count k-matchings through subgraph-count queries",
        _cmd_reduce_matchings_via_gadget,
        (_HOST, _opt("--gadget", required=True, metavar="FILE"), _MATCHING, _K,
         *_ALGO_FLAGS)),
    "reduce-subpart-via-colmatch": (
        "count color-preserving copies through colorful-matching queries",
        _cmd_reduce_subpart_via_colmatch,
        (_PATTERN, _HOST, _opt("--max-k", kind=int, default=6, metavar="K",
                               help="refuse patterns above K vertices (5^K queries)"))),
    "reduce-matchings-via-cycles": (
        "count k-matchings through one directed-cycle count",
        _cmd_reduce_matchings_via_cycles, (_HOST, _K)),
    "make-bicubic": (
        "rebuild a graph as a cubic bipartite minor host", _cmd_make_bicubic,
        (_HOST, _OUT, _opt("--model-out", metavar="FILE",
                           help="also write the branch-set model as JSON"))),
    "grid-instance": (
        "build the colored grid host whose pattern count equals the k-clique count",
        _cmd_grid_instance,
        (_HOST, _K, _OUT, _opt("--pattern-out", metavar="FILE",
                               help="also write the colorful grid pattern"))),
    "minor-lift": (
        "transfer colored pattern counting across a minor model", _cmd_minor_lift,
        (_PATTERN, _HOST,
         _opt("--dagger", required=True, metavar="FILE", help="the rebuilt pattern graph"),
         _opt("--model", required=True, metavar="FILE", help="branch-set model JSON"),
         _OUT)),
    "extract": (
        "look for a clique, biclique or induced matching among the edges of a matching",
        _cmd_extract, (_HOST, _K, _MATCHING)),
    "state-matrix": (
        "print the query/alignment state matrix and its determinant at padding n",
        _cmd_state_matrix, (_opt("--n", kind=int, required=True),)),
}


class _UsageError(Exception):
    """A command line mistake: usage line, message, exit 1."""


def _usage(name, options):
    if name is None:
        return "usage: subcount [-h] <command> ..."
    shown = [f"{o.flags[0]} {o.metavar}" if o.metavar else o.flags[0] for o in options]
    return " ".join([f"usage: subcount {name} [-h]"]
                    + [s if o.required else f"[{s}]" for o, s in zip(options, shown)])


def _help(name, options):
    if name is None:
        head = "subgraph counting and its hardness toolkit\n\ncommands:"
        rows = [(n, c[0]) for n, c in COMMANDS.items()]
    else:
        head = f"{COMMANDS[name][0]}\n\noptions:"
        rows = [(", ".join(o.flags) + (f" {o.metavar}" if o.metavar else ""), o.help)
                for o in (_HELP, *options)]
    return "\n".join([_usage(name, options), "", head]
                     + [f"  {left:<28} {text}".rstrip() for left, text in rows])


def _lookup(token, options):
    """The (option, attached value or None) that ``token`` names, or None
    when it is a value.  The rules are argparse's: ``--flag=V``, ``-fV`` and
    ``-f=V`` attach a value, a unique prefix names a long flag, and a
    negative number is a value."""
    if token[:1] != "-" or len(token) == 1:
        return None
    by_flag = {f: o for o in (_HELP, *options) for f in o.flags}
    flag, eq, attached = token.partition("=")
    if token in by_flag:
        return by_flag[token], None
    if eq and flag in by_flag:
        return by_flag[flag], attached
    if token[1] == "-" and flag != "--":
        hits = [f for f in by_flag if f.startswith(flag) and f[1] == "-"]
        if len(hits) > 1:
            raise _UsageError(f"ambiguous option: {flag} could match {', '.join(hits)}")
        if hits:
            return by_flag[hits[0]], attached if eq else None
    elif token[:2] in by_flag:
        return by_flag[token[:2]], token[2:]
    if token[1:].replace(".", "", 1).isdigit() or " " in token:
        return None
    raise _UsageError(f"unrecognized arguments: {token}")


def _parse(argv):
    """Read argv against COMMANDS: the handler and its arguments.  Help
    exits 0 and a usage error exits 1, each after printing."""
    tokens = list(sys.argv[1:] if argv is None else argv)
    name, options, values = None, (), {}
    try:
        while tokens:
            token = tokens.pop(0)
            hit = _lookup(token, options)
            if hit is None:
                if name is not None or token not in COMMANDS:
                    raise _UsageError(f"unrecognized arguments: {token}" if name else
                                      f"invalid command {token!r} (choose from "
                                      f"{', '.join(COMMANDS)})")
                name, options = token, COMMANDS[token][2]
                values = {o.dest: o.default for o in options}
                continue
            opt, value = hit
            where = "argument " + "/".join(opt.flags)
            if opt.kind is bool and value is not None:
                raise _UsageError(f"{where}: ignored explicit argument {value!r}")
            if opt is _HELP:
                print(_help(name, options))
                raise SystemExit(0)
            if opt.kind is not bool and value is None:
                if not tokens or _lookup(tokens[0], options):
                    raise _UsageError(f"{where}: expected one argument")
                value = tokens.pop(0)
            if opt.kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _UsageError(f"{where}: invalid int value: {value!r}") from None
            elif type(opt.kind) is tuple and value not in opt.kind:
                raise _UsageError(f"{where}: invalid choice: {value!r} (choose from "
                                  f"{', '.join(map(repr, opt.kind))})")
            values[opt.dest] = True if opt.kind is bool else value
        missing = ["<command>"] if name is None else [
            "/".join(o.flags) for o in options if o.required and values[o.dest] is None]
        if missing:
            raise _UsageError("the following arguments are required: " + ", ".join(missing))
    except _UsageError as exc:
        print(_usage(name, options), file=sys.stderr)
        print(f"subcount{' ' + name if name else ''}: error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    return COMMANDS[name][1], SimpleNamespace(**values)


def main(argv=None):
    """Run one command: print its record, with the whole command's wall time
    as ``elapsed_ms`` last, and return 0; or print the error and return 1
    (malformed input or unreadable file), 2 (precondition) or 3
    (inconsistency).  Any other exception is a bug and propagates."""
    run, args = _parse(argv)
    t0 = time.perf_counter()
    try:
        record = run(args)
    except (GraphParseError, OSError, PreconditionError, InconsistencyError) as exc:
        print(f"subcount: error: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, PreconditionError) else
                3 if isinstance(exc, InconsistencyError) else 1)
    record["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
    print(dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
