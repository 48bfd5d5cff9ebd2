"""Reading and writing the plain-text graph format, plus the small JSON
payloads the command line tool emits.

A graph file is line oriented.  ``#`` starts a comment (whole line or
trailing), blank lines are skipped, and the remaining lines are directives:

    g <n> [directed]     header, exactly one, must come first
    e <u> <v> [color]    an edge; either every edge carries a color or none
    vc <v> <color>       a vertex color; either every vertex gets one or none

Vertices are 0-indexed and must be below n.  Duplicate edges, loops and
out-of-range endpoints are file errors here, not library preconditions, so
they surface as GraphParseError (exit code 1 in the CLI) rather than
PreconditionError.
"""

from .graphs import Graph, PreconditionError


class GraphParseError(ValueError):
    """Raised for malformed input files (graph files, matching specs, model
    files).  The CLI maps this to exit code 1."""


def _int(token, what, lineno):
    try:
        return int(token)
    except ValueError:
        raise GraphParseError(f"line {lineno}: {what} {token!r} is not an integer") from None


def parse_graph(text):
    """Parse graph-file text into a Graph.  Raises GraphParseError."""
    n = None
    directed = False
    edges = []
    ecolors = []
    vcolor_lines = {}
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "g":
            if seen_header:
                raise GraphParseError(f"line {lineno}: duplicate header")
            if len(parts) == 2:
                pass
            elif len(parts) == 3 and parts[2] == "directed":
                directed = True
            else:
                raise GraphParseError(f"line {lineno}: header must be 'g <n> [directed]'")
            n = _int(parts[1], "vertex count", lineno)
            if n < 0:
                raise GraphParseError(f"line {lineno}: vertex count must be nonnegative")
            seen_header = True
        elif tag == "e":
            if not seen_header:
                raise GraphParseError(f"line {lineno}: edge before header")
            if len(parts) not in (3, 4):
                raise GraphParseError(f"line {lineno}: edge must be 'e <u> <v> [color]'")
            u = _int(parts[1], "endpoint", lineno)
            v = _int(parts[2], "endpoint", lineno)
            edges.append((u, v))
            if len(parts) == 4:
                ecolors.append(_int(parts[3], "edge color", lineno))
            elif ecolors:
                raise GraphParseError(f"line {lineno}: edge without color after colored edges")
            if ecolors and len(ecolors) != len(edges):
                raise GraphParseError(f"line {lineno}: colored edge after uncolored edges")
        elif tag == "vc":
            if not seen_header:
                raise GraphParseError(f"line {lineno}: vertex color before header")
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: vertex color must be 'vc <v> <color>'")
            v = _int(parts[1], "vertex", lineno)
            if v in vcolor_lines:
                raise GraphParseError(f"line {lineno}: vertex {v} colored twice")
            vcolor_lines[v] = _int(parts[2], "vertex color", lineno)
        else:
            raise GraphParseError(f"line {lineno}: unknown directive {tag!r}")
    if not seen_header:
        raise GraphParseError("missing 'g <n>' header")
    vcolors = None
    if vcolor_lines:
        missing = [v for v in range(n) if v not in vcolor_lines]
        if missing:
            raise GraphParseError(f"vertex {missing[0]} has no color but others do")
        extra = [v for v in vcolor_lines if not 0 <= v < n]
        if extra:
            raise GraphParseError(f"vertex color for out-of-range vertex {extra[0]}")
        vcolors = [vcolor_lines[v] for v in range(n)]
    try:
        return Graph(n, edges, directed=directed,
                     vcolors=vcolors, ecolors=ecolors or None)
    except PreconditionError as exc:
        raise GraphParseError(str(exc)) from None


def format_graph(g):
    """Render a Graph back into file text.  Inverse of parse_graph: parsing
    the output reproduces the graph exactly."""
    header = f"g {g.n} directed" if g.directed else f"g {g.n}"
    lines = [header]
    for i, (u, v) in enumerate(g.edges):
        if g.ecolors is not None:
            lines.append(f"e {u} {v} {g.ecolors[i]}")
        else:
            lines.append(f"e {u} {v}")
    if g.vcolors is not None:
        for v in range(g.n):
            lines.append(f"vc {v} {g.vcolors[v]}")
    return "\n".join(lines) + "\n"


def read_graph(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"not UTF-8 text: {exc}") from None
    return parse_graph(text)


def write_graph(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))


def parse_matching(spec):
    """Parse a matching given as '0-1,2-3' into a tuple of edge pairs."""
    if not spec.strip():
        return ()
    edges = []
    for chunk in spec.split(","):
        halves = chunk.strip().split("-")
        if len(halves) != 2:
            raise GraphParseError(f"matching edge {chunk.strip()!r} is not 'u-v'")
        try:
            u, v = int(halves[0]), int(halves[1])
        except ValueError:
            raise GraphParseError(f"matching edge {chunk.strip()!r} has non-integer endpoint") from None
        edges.append((u, v))
    return tuple(edges)


def format_matching(edges):
    return ",".join(f"{u}-{v}" for u, v in edges)


def load_model(path):
    """Read a minor model from JSON: {"branch_sets": [[...]], "discard": [...]}.

    Returns the validated ``(branch_sets, discard)`` lists; the caller builds
    the model object from them.
    """
    import json  # here only, so that no count loads it
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise GraphParseError(f"model file: {exc}") from None
    if not isinstance(data, dict) or "branch_sets" not in data:
        raise GraphParseError("model file must be an object with 'branch_sets'")
    branch_sets = data["branch_sets"]
    discard = data.get("discard", [])
    # type() rather than isinstance: JSON true and false load as bools, which
    # are ints to isinstance
    if (not isinstance(branch_sets, list)
            or not all(isinstance(b, list) and all(type(x) is int for x in b)
                       for b in branch_sets)
            or not isinstance(discard, list)
            or not all(type(x) is int for x in discard)):
        raise GraphParseError("model file: branch sets must be lists of integers")
    return branch_sets, discard


def save_model(model, path):
    data = {"branch_sets": [list(b) for b in model.branch_sets],
            "discard": list(model.discard)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(data) + "\n")


def _json_str(s):
    if type(s) is not str or not (s.isascii() and s.isprintable()) or '"' in s or "\\" in s:
        raise ValueError(f"{s!r} is not a string JSON prints as is")
    return f'"{s}"'


def dumps(obj):
    """``json.dumps(obj)`` byte for byte, for the shapes the CLI prints:
    dicts with string keys, ints, bools, lists of these, and printable ASCII
    strings without ``"`` or ``\\``.  Anything else raises."""
    if type(obj) is bool:
        return "true" if obj else "false"
    if type(obj) is int:
        return str(obj)
    if type(obj) is list:
        return "[" + ", ".join(map(dumps, obj)) + "]"
    if type(obj) is dict:
        return "{" + ", ".join(f"{_json_str(k)}: {dumps(v)}" for k, v in obj.items()) + "}"
    return _json_str(obj)
