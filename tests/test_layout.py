"""Static checks on the package layout, read from the source with ``ast``.

The modules under ``src/subcount`` must import each other without a cycle,
every name a module imports must be used there or re-exported through its
``__all__``, no module imports ``fractions``, ``decimal``, ``argparse`` or
``re``, ``json`` is imported only inside a function, in ``cli.py`` only
``main`` and ``_parse`` print, and every top-level definition is reached from
a command or ``subcount.__all__`` unless an allow-list names it.
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


# Top-level definitions that no command reaches yet, each kept for the
# ROADMAP item named beside it.  The list may only shrink.
UNREACHED_ALLOWED = {
    "structural.TreeDecomposition",             # item 4: the hom route
    "structural.exact_tree_decomposition",      # item 4: the hom route
    "hardness.directed_cycles_via_undirected",  # item 7: --undirected
    "routes.estimate",                          # item 2: --budget
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
