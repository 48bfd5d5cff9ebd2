"""Static checks on the package layout, read from the source with ``ast``.

The modules under ``src/subcount`` must import each other without a cycle,
every name a module imports must be used there or re-exported through its
``__all__``, no module imports ``fractions``, ``decimal``, ``argparse`` or
``re``, ``json`` is imported only inside a function, in ``cli.py`` only
``main`` and ``_parse`` print, no function in ``brute``, ``vc``,
``structural`` or ``gadgets`` calls itself, every oracle goes through
``routes.count_sub``, brute and vc build their twin chains with one helper
and drop the top items of a mask with one other, brute's embedding search
takes its floors from one stabilizer chain with no walk of its own, and
every top-level definition is reached from a command or
``subcount.__all__`` unless an allow-list names it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "subcount"
MODULES = {p.stem: ast.parse(p.read_text(), str(p))
           for p in sorted(PACKAGE.glob("*.py"))}


def _package_imports(name, tree):
    """Names of the sibling modules that ``name`` imports anywhere in its source."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and (node.module or "").startswith("subcount"):
                base = node.module.partition(".")[2] or None
            else:
                continue
            if base is None:
                found.update(a.name for a in node.names if a.name in MODULES)
            else:
                found.add(base.partition(".")[0])
        elif isinstance(node, ast.Import):
            for a in node.names:
                head, _, rest = a.name.partition(".")
                if head == "subcount" and rest:
                    found.add(rest.partition(".")[0])
    found.discard(name)
    return found


def test_module_import_graph_is_acyclic():
    graph = {name: _package_imports(name, tree)
             for name, tree in MODULES.items()}
    done, active = set(), []

    def visit(name):
        if name in active:
            cycle = active[active.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        active.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        active.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_used_or_exported():
    unused = []
    for name, tree in MODULES.items():
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    bound.add(a.asname or a.name.partition(".")[0])
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{name}.{b}" for b in sorted(bound - used - _exported(tree))]
    assert not unused, f"imported but never used: {unused}"


def _imported_heads(nodes):
    """Top-level names of the absolute imports among ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def _outside_functions(node):
    """Every node that runs when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _outside_functions(child)


def test_no_module_imports_fractions_or_decimal():
    # every exact step runs in plain ints; nested imports count too, since
    # one call would load fractions, decimal and numbers into the process
    found = [f"{name} imports {h}" for name, tree in MODULES.items()
             for h in _imported_heads(ast.walk(tree)) if h in ("fractions", "decimal")]
    assert not found, found


def test_front_end_stays_off_argparse_re_and_module_level_json():
    # every count is a fresh process: the CLI reads argv itself and prints
    # through fileio.dumps, so argparse (with the re, enum and gettext it
    # loads) is never imported, and json only where a model file is read
    found = [f"{name} imports {h}" for name, tree in MODULES.items()
             for h in _imported_heads(ast.walk(tree)) if h in ("argparse", "re")]
    found += [f"{name} imports json at module level" for name, tree in MODULES.items()
              if "json" in _imported_heads(_outside_functions(tree))]
    assert not found, found


def test_only_main_and_parse_print_in_cli():
    # command handlers return their records: main prints them and the
    # errors, _parse the help text and usage errors
    def prints(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "print"]

    cli = MODULES["cli"]
    printers = {node.name for node in ast.walk(cli)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and prints(node)}
    assert printers == {"main", "_parse"}
    inside = sum(len(prints(node)) for node in cli.body
                 if isinstance(node, ast.FunctionDef) and node.name in printers)
    assert len(prints(cli)) == inside, "print at module level or in a class"


def test_brute_and_vc_do_not_recurse():
    # their searches, and the clique and gadget searches, run on brute's
    # explicit placement stack, so no pattern is too deep for Python's
    # recursion limit; nested closures count too
    found = [f"{name}.{node.name}" for name in ("brute", "vc", "structural", "gadgets")
             for node in ast.walk(MODULES[name])
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                     and n.func.id == node.name for n in ast.walk(node))]
    assert not found, f"calls itself: {found}"


def test_oracles_go_through_routes():
    # every #Sub answer comes from routes.count_sub: hardness and gadgets
    # import no brute counter for a default oracle, and the CLI builds each
    # oracle as _Counted(route), never hands a reduction a lambda or a bare
    # brute counter
    def stray(arg):
        return isinstance(arg, ast.Lambda) or (
            isinstance(arg, ast.Attribute) and getattr(arg.value, "id", None) == "brute")

    found = [f"{name} imports brute.{a.name}" for name in ("hardness", "gadgets")
             for node in ast.walk(MODULES[name])
             if isinstance(node, ast.ImportFrom) and node.module == "brute"
             for a in node.names if a.name.startswith("count_")]
    for node in ast.walk(MODULES["cli"]):
        if not isinstance(node, ast.Call):
            continue
        args = [*node.args, *(k.value for k in node.keywords)]
        if getattr(node.func, "id", None) == "_Counted":
            found += [f"cli line {node.lineno}: _Counted({ast.unparse(a)})" for a in args
                      if not isinstance(a, (ast.Name, ast.Constant))]
        elif getattr(getattr(node.func, "value", None), "id", None) in ("iex", "gadgets",
                                                                        "hardness"):
            found += [f"cli line {node.lineno}: {ast.unparse(a)} as an oracle" for a in args
                      if stray(a)]
    assert not found, found


# Top-level definitions that no command reaches yet, each kept for the
# ROADMAP item named beside it.  The list may only shrink.
UNREACHED_ALLOWED = {
    "structural.TreeDecomposition",             # item 4: the hom route
    "structural.exact_tree_decomposition",      # item 4: the hom route
    "hardness.directed_cycles_via_undirected",  # item 7: --undirected
}


def _identifiers(node):
    """Every Name.id and Attribute.attr under ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_definition_is_reached():
    # reachability by identifier, so approximate: a name reaches every
    # top-level def or class of that name in any module.  Roots are the
    # definitions of cli.py, subcount.__all__ and what module-level
    # statements use; a reached definition reaches the names in its body.
    defs = {}  # name -> [(module, node)]
    roots = set(_exported(MODULES["__init__"]))
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((name, node))
                if name == "cli":
                    roots.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.update(_identifiers(node))
    reached, todo = set(), [r for r in roots if r in defs]
    while todo:
        ident = todo.pop()
        if ident in reached:
            continue
        reached.add(ident)
        for _module, node in defs[ident]:
            todo += [i for i in _identifiers(node) if i in defs and i not in reached]
    unreached = {f"{module}.{node.name}" for ident, found in defs.items()
                 if ident not in reached for module, node in found}
    assert unreached == UNREACHED_ALLOWED, (
        f"unreached outside the allow-list: {sorted(unreached - UNREACHED_ALLOWED)}; "
        f"allow-listed but reached or gone: {sorted(UNREACHED_ALLOWED - unreached)}")


def test_one_twin_rule_and_one_top_trim():
    # brute's embedding search and vc's anchor walk build their twin chains
    # (prev, weight) with one helper, brute._twin_chain; and the top items of
    # a mask are dropped in brute._without_top alone, which _rising and the
    # twin trim call: no other function shifts by a bit_length
    def calls(node, name):
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name
                   for n in ast.walk(node))

    defs = {(name, node.name): node for name, tree in MODULES.items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert calls(defs["vc", "_twin_cut"], "_twin_chain")
    assert calls(defs["brute", "_twins"], "_twin_chain")
    assert calls(defs["brute", "_rising"], "_without_top")
    assert calls(defs["brute", "_search_plan"], "_without_top")
    trims = set()
    for (name, fn), node in defs.items():
        for n in ast.walk(node):
            if (isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
                    and "bit_length" in ast.unparse(n.right)):
                trims.add(f"{name}.{fn}")
    assert trims == {"brute._without_top"}


def test_one_symmetry_rule_and_no_second_walk():
    # brute's embedding search takes its floors from one rule, the
    # stabilizer chain (brute._chain, built by _pattern_plan alone), and
    # _search_plan's reach alone applies them, as a floor above
    # image[prev[i]].  The chain settles each orbit by find_embedding and
    # walks no placements of its own, and automorphism_count reads the
    # chains: the placement walk is run by the counters and find_embedding
    found = {}  # name -> the innermost functions calling it or shifting by prev

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else fn
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                found.setdefault(child.func.id, set()).add(fn)
            elif (isinstance(child, ast.BinOp) and isinstance(child.op, ast.LShift)
                  and "prev" in ast.unparse(child.right)):
                found.setdefault("<< prev", set()).add(fn)
            visit(child, inner)

    visit(MODULES["brute"], None)
    assert found["_chain"] == {"_pattern_plan"}
    assert found["find_embedding"] == {"moves", "is_isomorphic"}
    assert found["_placements"] == {"count_embeddings", "find_embedding",
                                    "count_colorful_matchings", "count_matchings", "walks"}
    assert found["<< prev"] == {"reach"}
