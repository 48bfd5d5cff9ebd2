"""Run one ``subcount`` command with spans around the public functions of
each module, and write the aggregated spans as JSON.

    python3 -S bench/tracer.py OUT.json -- <subcount arguments>

The wrappers are installed from outside: every module attribute (in any
``subcount`` module) that is one of the functions in ``SPANS`` is replaced
by a timing wrapper, so ``from .brute import count_subgraphs`` call sites
are traced too and ``src/`` needs no change.  A function that no longer
exists is skipped, and the metrics built on it read 0.

Spans nest.  For a span name, and for its layer (the part before the first
dot), seconds are counted only in the outermost open span of that name or
layer, so recursion and nested helpers are not counted twice.  Each span
is also counted under ``parent>name``, where parent is the innermost open
span, so a layer can be split by caller.  The CLI's stdout and exit code
pass through unchanged.
"""

import json
import sys
import time

SPANS = {
    "fileio": {"read_graph": "fileio.read_graph"},
    "graphs": {"min_vertex_cover": "graphs.min_vertex_cover"},
    "vc": {"count_emb_vc": "vc.count_emb_vc",
           "anchored_embedding_count": "vc.placement"},
    "brute": {fn: f"brute.{fn}" for fn in (
        "count_embeddings", "count_subgraphs", "automorphism_count",
        "count_matchings", "count_colorful_matchings", "count_walk_patterns",
        "count_colorpreserving_subgraphs", "find_embedding", "is_isomorphic")},
    "iex": {"subpart_via_sub_oracle": "iex.subpart",
            "colmatch_via_match_oracle": "iex.colmatch"},
    "gadgets": {"check_matching_gadget": "gadgets.check",
                "count_T_ell": "gadgets.T_ell",
                "count_matchings_via_gadget": "gadgets.reduce",
                "matching_alpha": "gadgets.alpha",
                "residue_classes_and_alphas": "gadgets.alpha"},
    "hardness": {"pst_polynomial": "hardness.pst",
                 "build_triangle_graph": "hardness.build",
                 "subpart_via_colmatch_oracle": "hardness.colmatch",
                 "solve_theta_star": "hardness.solve",
                 "matchings_via_directed_cycles": "hardness.cycles",
                 "directed_cycles_via_undirected": "hardness.cycles"},
    "polynomials": {"interpolate_int_polynomial": "polynomials.interpolate",
                    "interpolate_fraction_coefficients": "polynomials.interpolate",
                    "binomial_coefficients_from_points": "polynomials.interpolate",
                    "solve_fraction_system": "polynomials.solve",
                    "determinant_polynomial": "polynomials.det"},
}

# spans called many thousand times from one parent and calling nothing
# traced: a lean wrapper keeps their trace overhead near 0.5 us a call
LEAVES = {"vc.placement"}

# span name -> (position of the oracle argument, span name for its calls)
ORACLES = {
    "iex.subpart": (2, "iex.oracle"),
    "iex.colmatch": (2, "iex.oracle"),
    "gadgets.T_ell": (3, "gadgets.oracle"),
    "hardness.colmatch": (2, "hardness.query"),
}


class Recorder:
    def __init__(self):
        self.stack = []
        self.depth = {layer: 0 for layer in SPANS}
        self.calls = {}   # span name, layer or (parent, name) -> calls
        self.secs = {}    # the same keys -> seconds in outermost spans
        self.nonzero = {}  # leaf span name -> calls that returned non-zero
        self.counters = {}
        self._census_seen = set()

    def span(self, name, fn):
        layer = name.split(".", 1)[0]
        oracle = ORACLES.get(name)
        stack, depth, calls, secs = self.stack, self.depth, self.calls, self.secs
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if oracle is not None:
                args, kwargs = self._wrap_oracle(oracle, args, kwargs)
            outer = name not in stack
            outer_layer = not depth[layer]
            pair = (stack[-1] if stack else "cli", name)
            stack.append(name)
            depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[layer] -= 1
                calls[name] = calls.get(name, 0) + 1
                calls[pair] = calls.get(pair, 0) + 1
                if outer:
                    secs[name] = secs.get(name, 0.0) + dt
                    secs[pair] = secs.get(pair, 0.0) + dt
                if outer_layer:
                    calls[layer] = calls.get(layer, 0) + 1
                    secs[layer] = secs.get(layer, 0.0) + dt
            return result

        return traced

    def leaf(self, name, fn):
        calls, secs, nonzero = self.calls, self.secs, self.nonzero
        calls[name], secs[name], nonzero[name] = 0, 0.0, 0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            secs[name] += clock() - t0
            calls[name] += 1
            if result:
                nonzero[name] += 1
            return result

        return traced

    def _wrap_oracle(self, spec, args, kwargs):
        pos, name = spec
        if len(args) > pos and args[pos] is not None:
            args = args[:pos] + (self.span(name, args[pos]),) + args[pos + 1:]
        elif kwargs.get("oracle") is not None:
            kwargs = dict(kwargs, oracle=self.span(name, kwargs["oracle"]))
        return args, kwargs

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def census(self, method):
        """theta_counts is cached per host and called once per query; count
        each census once, by the identity of the dict it returns."""
        traced = self.span("hardness.census", method)

        def wrapper(tg):
            result = traced(tg)
            if id(result) not in self._census_seen:
                self._census_seen.add(id(result))
                self.count("hardness.census_types", len(result))
                self.count("hardness.census_size", sum(result.values()))
            return result

        return wrapper

    def cache_misses(self, name, fn):
        """Count the misses of an lru_cache'd function, i.e. real builds."""
        traced = self.span(name, fn)

        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses
            try:
                return traced(*args, **kwargs)
            finally:
                self.count(f"{name}.misses", fn.cache_info().misses - before)

        return wrapper


def install(rec):
    """Replace the traced functions wherever a subcount module binds them."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "subcount" or name.startswith("subcount.")}
    wrapped = {}
    for mod_name, functions in SPANS.items():
        mod = modules.get(f"subcount.{mod_name}")
        for fn_name, span_name in functions.items():
            fn = getattr(mod, fn_name, None)
            if fn is None:
                continue
            if span_name in LEAVES:
                wrapped[id(fn)] = rec.leaf(span_name, fn)
            elif hasattr(fn, "cache_info"):
                wrapped[id(fn)] = rec.cache_misses(span_name, fn)
            else:
                wrapped[id(fn)] = rec.span(span_name, fn)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if callable(value) and id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    tg_class = getattr(modules.get("subcount.hardness"), "TriangleGraph", None)
    if tg_class is not None and hasattr(tg_class, "theta_counts"):
        tg_class.theta_counts = rec.census(tg_class.theta_counts)


def _keys(table):
    """(parent, name) keys become "parent>name"."""
    return {k if isinstance(k, str) else ">".join(k): v for k, v in table.items()}


def main():
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: tracer.py OUT.json -- <subcount arguments>")
    t0 = time.perf_counter()
    import subcount.cli
    import_s = time.perf_counter() - t0
    rec = Recorder()
    install(rec)
    code = 1
    t1 = time.perf_counter()
    try:
        code = subcount.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "main_s": main_s,
                       "calls": _keys(rec.calls), "secs": _keys(rec.secs),
                       "nonzero": rec.nonzero, "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
