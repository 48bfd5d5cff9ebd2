"""Counting color-preserving copies of a cubic bipartite pattern through
edge-colorful matchings, plus the matching-to-cycle counting chain.

The centerpiece is a host transformation: every potential pattern vertex
placement becomes a six-cycle gadget, copies of the pattern become matchings
that are "aligned" at every gadget, and a small linear system over alignment
types recovers the aligned count from 5^k colorful-matching queries.

Gadget geometry
---------------
Each gadget is a six-cycle on vertices w1 z1 w2 z2 w3 z3 (local offsets
0..5).  Its edges carry interaction colors ("delta" colors) 1..6, assigned
along the traversal as

    w1-z1:2, z1-w2:3, w2-z2:4, z2-w3:5, w3-z3:6, z3-w1:1

so the two cycle edges at w-slot j are {2j-1, 2j} and the pairs at the
z-slots are exactly the three small query sets below.  This is the rotation
certified by reproducing the published five-by-five evaluation matrix at
argument 0; the test suite freezes that matrix.

Link edges ("gamma" colors, one per pattern edge) run between w-vertices of
different vertex classes.  Removing the matched w-vertices of one class
leaves a disjoint union of damaged six-cycles whose shape depends only on the
coincidence pattern of the three matched slots; those shapes are the five
alignment types:

    type 1: all three slots on one gadget        (the aligned case)
    type 2: slot 1 alone, slots 2,3 together
    type 3: slot 3 alone, slots 1,2 together
    type 4: slot 2 alone, slots 1,3 together
    type 5: three different gadgets

The residue graph R_s normalizes type s to exactly three touched gadgets, so
a class of n gadgets in state s is R_s plus (n-3) intact six-cycles.  Its
count of A_t-colorful matchings, p_{s,t}(n-3), is a polynomial of degree at
most six in the padding; state_matrix holds its 25 values at one padding.

Without an injected oracle the gadget host is never built: per host the
census of link-matching types, folded with the five-by-five class extension
matrix by k mode products on packed integers, gives the table of all 5^k
query values, and the solve reads that table as its query vector.  The
solve must give back the census's own aligned count; a disagreement raises
InconsistencyError.  An injected oracle instead answers each query on the
explicit edge-colored host.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import product

from .brute import count_walk_patterns
from .graphs import Graph, InconsistencyError, PreconditionError
from .polynomials import determinant

# (local u, local v, delta color) along the gadget cycle
CYCLE_LAYOUT = ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 0, 1))
_W_OFFSET = {1: 0, 2: 2, 3: 4}

#: query color sets, indexed by t = 1..5
A_SETS = {
    1: frozenset({4, 5}),
    2: frozenset({2, 3}),
    3: frozenset({1, 6}),
    4: frozenset({2, 3, 4, 5}),
    5: frozenset({1, 2, 3, 4, 5, 6}),
}

#: which w-slots the touched gadgets of each alignment type lose
TYPE_DAMAGE = {
    1: (frozenset({1, 2, 3}),),
    2: (frozenset({1}), frozenset({2, 3})),
    3: (frozenset({3}), frozenset({1, 2})),
    4: (frozenset({2}), frozenset({1, 3})),
    5: (frozenset({1}), frozenset({2}), frozenset({3})),
}

TYPES = (1, 2, 3, 4, 5)

#: A_t as the sorted color tuple the extension tables are keyed by
_A_COLORS = {t: tuple(sorted(A_SETS[t])) for t in TYPES}


def gadget_graph(missing_slots=frozenset()) -> Graph:
    """One six-cycle gadget with the given w-slots deleted, edges colored by
    delta color."""
    dead = {_W_OFFSET[j] for j in missing_slots}
    keep = [v for v in range(6) if v not in dead]
    idx = {v: i for i, v in enumerate(keep)}
    ed, ec = [], []
    for (u, v, c) in CYCLE_LAYOUT:
        if u in idx and v in idx:
            ed.append((idx[u], idx[v]))
            ec.append(c)
    return Graph(len(keep), ed, ecolors=ec)


def state_matrix(x: int) -> list[list[int]]:
    """The five-by-five matrix [t][s] = p_{s,t}(x), read from the extension
    counts of one class of x + 3 gadgets; rows are query sets, columns
    alignment types, matching the published layout at x = 0.  The padding x
    counts intact six-cycles, so it must be nonnegative."""
    if x < 0:
        raise PreconditionError(f"state matrix needs padding x >= 0, got {x}")
    return [[_class_extension_count(s, _A_COLORS[t], x + 3) for s in TYPES]
            for t in TYPES]


# ---------------------------------------------------------------------------
# the transformed host


class TriangleGraph:
    """The gadget host built from a cubic bipartite colorful pattern h and a
    vertex-colored host g, with one class of ``padding`` gadgets per pattern
    vertex.

    Numeric edge colors: link color of pattern edge e = its index in sorted
    edge order (0..m-1); delta color (class i, delta) = m + 6i + delta - 1.
    The materialized graph and the answer table are built lazily; the
    answer table never needs the graph, which only an injected oracle
    queries.
    """

    def __init__(self, h: Graph, g: Graph, padding: int):
        self.h = h
        self.g = g
        self.k = h.n
        self.m = h.m
        self.n = padding
        # slot of edge e at vertex a: 1 + rank of e among a's incident edges
        edges = sorted(h.edges)
        self.edge_list = edges
        incident = {a: [e for e in edges if a in e] for a in range(h.n)}
        self.slot = {}
        for a in range(h.n):
            for r, e in enumerate(incident[a]):
                self.slot[(a, e)] = r + 1
        # class members: host vertices of the class color, in ascending order
        self.members = []
        for a in range(h.n):
            col = h.vcolors[a]
            self.members.append([v for v in range(g.n) if g.vcolors[v] == col])
        # realizations of each pattern edge by host edges, as member indices
        self.realizations = []
        for (a, b) in edges:
            pos_a = {v: i for i, v in enumerate(self.members[a])}
            pos_b = {v: i for i, v in enumerate(self.members[b])}
            pairs = [(pos_a[u], pos_b[v])
                     for u in self.members[a] for v in self.members[b]
                     if g.has_edge(u, v)]
            self.realizations.append(sorted(pairs))
        # query color sets: the link colors, and each class's under each type
        self._link_set = frozenset(self.link_colors())
        self._class_colors = [
            {t: frozenset(self.delta_color(i, d) for d in A_SETS[t]) for t in TYPES}
            for i in range(self.k)]
        self._theta_counts = None
        self._answers = None
        self._graph = None

    # -- color bookkeeping ------------------------------------------------

    def delta_color(self, class_index: int, delta: int) -> int:
        return self.m + 6 * class_index + (delta - 1)

    def link_colors(self) -> range:
        return range(self.m)

    def query_colors(self, t: tuple[int, ...]) -> frozenset:
        """The colorful-matching query for type vector t: every link color
        plus each class's A_{t_i} in that class's delta colors."""
        if len(t) != self.k:
            raise PreconditionError("type vector length must equal the class count")
        return self._link_set.union(
            *[cls[ti] for cls, ti in zip(self._class_colors, t)])

    # -- materialization ---------------------------------------------------

    def gadget_base(self, class_index: int, member_index: int) -> int:
        return 6 * (class_index * self.n + member_index)

    @property
    def graph(self) -> Graph:
        """The explicit gadget host (practical only for small padding)."""
        if self._graph is None:
            ed, ec = [], []
            for i in range(self.k):
                for jj in range(self.n):
                    base = self.gadget_base(i, jj)
                    for (u, v, c) in CYCLE_LAYOUT:
                        ed.append((base + u, base + v))
                        ec.append(self.delta_color(i, c))
            for e_idx, (a, b) in enumerate(self.edge_list):
                sa, sb = self.slot[(a, (a, b))], self.slot[(b, (a, b))]
                for (ia, ib) in self.realizations[e_idx]:
                    ed.append((self.gadget_base(a, ia) + _W_OFFSET[sa],
                               self.gadget_base(b, ib) + _W_OFFSET[sb]))
                    ec.append(e_idx)
            self._graph = Graph(6 * self.k * self.n, ed, ecolors=ec)
        return self._graph

    def classify_link_matching(self, edges) -> tuple[int, ...]:
        """Alignment type vector of a complete link matching, given one edge
        per link color (global vertex ids)."""
        if len(edges) != self.m:
            raise PreconditionError("need exactly one edge per link color")
        hit = [[None, None, None] for _ in range(self.k)]
        for (u, v) in edges:
            for vid in (u, v):
                member = (vid // 6) % self.n
                cls = vid // (6 * self.n)
                offset = vid % 6
                if offset % 2:
                    raise PreconditionError("link matchings touch only w-vertices")
                hit[cls][offset // 2] = member
        if any(x is None for triple in hit for x in triple):
            raise PreconditionError("matching does not cover every slot")
        return tuple(_slot_type(*triple) for triple in hit)

    # -- alignment-type census ----------------------------------------------

    def theta_counts(self) -> dict:
        """How many complete link matchings produce each type vector.

        Link choices are independent across pattern edges (each w-slot
        belongs to exactly one pattern edge), so this enumerates the product
        of the realization lists and classifies each combination.  Cached;
        the answer table reads it once per host.
        """
        if self._theta_counts is not None:
            return self._theta_counts
        total = math.prod(map(len, self.realizations))
        if total > 20_000_000:
            raise PreconditionError(
                f"the link matching census would enumerate {total} combinations, "
                "above the limit of 20000000; this host is too dense for the "
                "structured counter")
        counts: dict = {}
        if total:
            edge_ends = []
            for e_idx, (a, b) in enumerate(self.edge_list):
                sa, sb = self.slot[(a, (a, b))], self.slot[(b, (a, b))]
                edge_ends.append((a, sa, b, sb))
            for combo in product(*self.realizations):
                hit = [[None, None, None] for _ in range(self.k)]
                for (a, sa, b, sb), (ia, ib) in zip(edge_ends, combo):
                    hit[a][sa - 1] = ia
                    hit[b][sb - 1] = ib
                theta = tuple(_slot_type(h1, h2, h3) for (h1, h2, h3) in hit)
                counts[theta] = counts.get(theta, 0) + 1
        self._theta_counts = counts
        return counts

    def answer_table(self) -> list[int]:
        """Every query value, b = (E x ... x E) . census, as one list indexed
        by ``_type_index`` of the query's type vector: entry t is the number
        of colorful matchings of ``graph`` on ``query_colors(t)``.

        E = state_matrix(n - 3) counts the A_t-colorful matchings inside one
        class of n gadgets in state s; it is the same five-by-five matrix for
        every class, so b comes from k mode products of the dense census,
        which ``_mode_products`` computes on packed integers.
        """
        if self._answers is None:
            self._answers = _mode_products(self.theta_counts(),
                                           state_matrix(self.n - 3), self.k)
        return self._answers


def _type_index(types) -> int:
    """A type vector read as a base-5 number, first entry most significant:
    the position of that vector in ``product(TYPES, repeat=k)``."""
    index = 0
    for t in types:
        index = 5 * index + t - 1
    return index


def _kron_step(vec: list[int], rows) -> list[int]:
    """Contract the leading base-5 digit of ``vec``'s index with each row of
    ``rows`` and append the row number as the trailing digit.

    k steps apply the same rows to every digit and leave the digits in their
    original order: with five rows that is one Kronecker mode product per
    axis, with one row a full contraction down to a single entry.
    """
    size = len(vec) // 5
    slices = [vec[j * size:(j + 1) * size] for j in range(5)]
    out = [0] * (size * len(rows))
    for r, (r0, r1, r2, r3, r4) in enumerate(rows):
        out[r::len(rows)] = [r0 * v0 + r1 * v1 + r2 * v2 + r3 * v3 + r4 * v4
                             for v0, v1, v2, v3, v4 in zip(*slices)]
    return out


#: memoryview formats of 1-, 2- and 4-byte fields; wider fields are 8-byte words
_FIELD_FORMATS = {1: "B", 2: "H", 4: "I"}


def _mode_products(census: dict, rows, k: int) -> list[int]:
    """The dense census vector after k ``_kron_step`` mode products with the
    five nonnegative ``rows``, computed on packed unsigned integers.

    No entry, final or intermediate, exceeds sum(census) * max(rows)^k, so
    each gets a field of w bytes (1, 2, 4 or whole 8-byte words) in one
    native-order buffer.  A step reads the five contiguous blocks of the
    leading digit as ints, forms each output row from five scalar
    multiplies, which cannot carry between fields, and writes row r's fields
    back at trailing digit r by strided slice assignment: one per byte on
    the bytearray for 1- and 2-byte fields, one per word on a memoryview
    for wider ones, whichever is faster at that width.
    """
    size = 5 ** k
    bound = sum(census.values()) * max(map(max, rows)) ** k
    w = max(1, (bound.bit_length() + 7) // 8)
    w = w if w < 3 else 4 if w <= 4 else -(-w // 8) * 8
    q = max(1, w // 8)
    # word positions within a field, most significant first
    words = range(q - 1, -1, -1) if sys.byteorder == "little" else range(q)
    buf = bytearray(size * w)
    fields = memoryview(buf).cast(_FIELD_FORMATS.get(w, "Q"))
    for theta, cnt in census.items():
        fields[_type_index(theta) * q + words[-1]] = cnt
    view, blk = memoryview(buf), size // 5 * w
    for _ in range(k):
        xs = [int.from_bytes(view[j * blk:(j + 1) * blk], sys.byteorder)
              for j in range(5)]
        for r, row in enumerate(rows):
            y = sum(e * x for e, x in zip(row, xs)).to_bytes(blk, sys.byteorder)
            if w < 4:
                for i in range(w):
                    buf[r * w + i::5 * w] = y[i::w]
            else:
                y = memoryview(y).cast(fields.format)
                for i in range(q):
                    fields[r * q + i::5 * q] = y[i::q]
    vals = fields[words[0]::q].tolist()
    for j in words[1:]:
        vals = [v << 64 | x for v, x in zip(vals, fields[j::q].tolist())]
    return vals


def _slot_type(u1, u2, u3) -> int:
    if u1 == u2 == u3:
        return 1
    if u2 == u3:
        return 2
    if u1 == u2:
        return 3
    if u1 == u3:
        return 4
    return 5


def build_triangle_graph(h: Graph, g: Graph, padding: int | None = None) -> TriangleGraph:
    """Validate the inputs and assemble the gadget host.

    The pattern must be cubic, bipartite and colorful; the host must be
    vertex-colored (host vertices with colors the pattern does not use are
    simply never placed in a class).  Padding defaults to the smallest valid
    one, max(3, largest class): every class needs a gadget per member and
    the three slots of a type-5 state need three gadgets.  Any such padding
    is safe for the solve, because the determinant of state_matrix(n - 3) is
    a polynomial in n - 3 with positive coefficients, as the test suite
    certifies.
    """
    if h.directed or g.directed:
        raise PreconditionError("the reduction is for undirected graphs")
    if h.vcolors is None or len(set(h.vcolors)) != h.n:
        raise PreconditionError("pattern must carry pairwise-distinct vertex colors")
    if any(h.degree(v) != 3 for v in range(h.n)):
        raise PreconditionError("pattern must be 3-regular")
    if not h.is_bipartite():
        raise PreconditionError("pattern must be bipartite")
    if g.vcolors is None:
        raise PreconditionError("host must be vertex-colored")
    biggest = max((sum(1 for v in range(g.n) if g.vcolors[v] == h.vcolors[a])
                   for a in range(h.n)), default=0)
    floor_n = max(3, biggest)
    if padding is None:
        padding = floor_n
    if padding < floor_n:
        raise PreconditionError(f"padding must be at least {floor_n}")
    return TriangleGraph(h, g, padding)


# ---------------------------------------------------------------------------
# per-class matching counts
#
# One class's matchings depend only on its alignment state and query set, so
# the extension tables below give the state matrix, and through it the
# per-host answer table.  Brute counts on the residue graphs check them in
# the tests.


def _submask_fold(f: list[int], g: list[int]) -> list[int]:
    """Subset convolution h[U] = sum over V <= U of f[V] g[U\\V]."""
    size = len(f)
    out = [0] * size
    for u in range(size):
        v = u
        while True:
            fv = f[v]
            if fv:
                out[u] += fv * g[u ^ v]
            if v == 0:
                break
            v = (v - 1) & u
    return out


def _gadget_table(damage: frozenset, colors: tuple[int, ...]) -> list[int]:
    """Indicator table over subsets of ``colors``: can one damaged gadget
    host a matching using exactly that color subset?"""
    g = gadget_graph(damage)
    pos = {c: i for i, c in enumerate(colors)}
    masks = []
    for (u, v), c in zip(g.edges, g.ecolors):
        if c in pos:
            masks.append((1 << pos[c], (1 << u) | (1 << v)))
    size = 1 << len(colors)
    table = [0] * size
    for pick in range(1 << len(masks)):
        cmask, vmask, ok = 0, 0, True
        for i, (cm, vm) in enumerate(masks):
            if pick >> i & 1:
                if vmask & vm:
                    ok = False
                    break
                cmask |= cm
                vmask |= vm
        if ok:
            table[cmask] += 1
    return table


@lru_cache(maxsize=None)
def _class_extension_count(s: int, colors: tuple[int, ...], n: int) -> int:
    """Matchings inside one class of n gadgets in alignment state s using
    exactly the given delta colors, one edge each: fold the damaged gadgets'
    tables, then the intact table n - (touched) times by binary power."""
    table = None
    for damage in TYPE_DAMAGE[s]:
        t = _gadget_table(damage, colors)
        table = t if table is None else _submask_fold(table, t)
    intact = _gadget_table(frozenset(), colors)
    power = n - len(TYPE_DAMAGE[s])
    if power < 0:
        raise PreconditionError("padding smaller than the touched gadget count")
    acc = [0] * len(table)
    acc[0] = 1
    base = intact
    while power:
        if power & 1:
            acc = _submask_fold(acc, base)
        power >>= 1
        if power:
            base = _submask_fold(base, base)
    table = _submask_fold(table, acc)
    return table[len(table) - 1]


# ---------------------------------------------------------------------------
# solving for the aligned count


def solve_theta_star(b: list, n: int, k: int) -> int:
    """Recover the all-aligned count from the 5^k query values.

    b lists the colorful matching count for each type vector t in {1..5}^k,
    in product(TYPES, repeat=k) order, on a host with class padding n.  The
    count of link matchings of type theta* = (1,...,1) is the theta*-entry
    of the inverse Kronecker system, i.e. sum_t prod_i y[t_i] b[t] where y
    solves M^T y = e_1 for the five-by-five matrix M = state_matrix(n-3).
    By Cramer's rule y[t] = C[t] / det M, with C[t] the cofactor of M[t][0]
    and det M = sum_t M[t][0] C[t].  The cofactors and det M are divided by
    their gcd, so the sum is an integer contraction of the reduced cofactors
    divided by the k-th power of the reduced det M.  The determinant is a
    polynomial in n - 3 with positive coefficients, so det M > 0 for every
    n >= 3; the check below only guards that identity.
    """
    if len(b) != 5 ** k:
        raise PreconditionError(f"need 5^{k} query values, got {len(b)}")
    if n < 3:
        raise PreconditionError("padding must be at least 3")
    matrix = state_matrix(n - 3)
    cofactors = [(-1) ** t * determinant([r[1:] for r in matrix[:t] + matrix[t + 1:]])
                 for t in range(5)]
    det = sum(r[0] * c for r, c in zip(matrix, cofactors))
    if det == 0:
        raise PreconditionError(f"type system singular at padding {n}")
    common = math.gcd(det, *cofactors)
    row, scale = [c // common for c in cofactors], det // common
    vec = b
    for _ in range(k):
        vec = _kron_step(vec, [row])
    num, den = vec[0], scale ** k
    count, rem = divmod(num, den)
    if rem or count < 0:
        g = math.gcd(num, den)
        shown = f"{num // g}/{den // g}" if rem else str(count)
        raise InconsistencyError(
            f"aligned count came out as {shown}; the query values are inconsistent")
    return count


def subpart_via_colmatch_oracle(h: Graph, g: Graph, oracle=None,
                                padding: int | None = None) -> int:
    """#color-preserving copies of the cubic bipartite colorful pattern h in
    the colored host g, from 5^|V(h)| colorful-matching query values.

    Copies correspond exactly to complete link matchings aligned at every
    class (all three slots of each class on a single gadget), and the
    aligned count is solved out of the query values.  Without an oracle
    they are the host's answer table, and the solved count must equal the
    census's aligned entry (InconsistencyError otherwise); an oracle is
    called as ``oracle(graph, colors)`` on the explicit edge-colored gadget
    host.
    """
    tg = build_triangle_graph(h, g, padding)
    if oracle is not None:
        b = [oracle(tg.graph, tg.query_colors(t)) for t in product(TYPES, repeat=tg.k)]
        return solve_theta_star(b, tg.n, tg.k)
    count = solve_theta_star(tg.answer_table(), tg.n, tg.k)
    aligned = tg.theta_counts().get((1,) * tg.k, 0)
    if count != aligned:
        raise InconsistencyError(
            f"the solve gave {count} aligned copies but the census holds {aligned}")
    return count


# ---------------------------------------------------------------------------
# matchings from cycles, directed cycles from undirected cycles


def matchings_via_directed_cycles(g: Graph, k: int, oracle=None) -> int:
    """#k-matchings of a bipartite graph from one directed-cycle count.

    Orient every edge left-to-right, add every right-to-left arc, and each
    k-matching closes into a directed 2k-cycle in exactly (k-1)! ways.
    """
    if g.directed:
        raise PreconditionError("input must be an undirected graph")
    if k < 1:
        raise PreconditionError("k must be at least 1")
    parts = g.bipartition()
    if parts is None:
        raise PreconditionError("matching-to-cycle counting needs a bipartite graph")
    left, right = parts
    lset = set(left)
    arcs = [(u, v) if u in lset else (v, u) for (u, v) in g.edges]
    existing = set(arcs)
    arcs += [(r, l) for r in right for l in left if (r, l) not in existing]
    d = Graph(g.n, arcs, directed=True)
    if oracle is None:
        oracle = lambda dg, length: count_walk_patterns(dg, "cycle", length)
    raw = oracle(d, 2 * k)
    divisor = math.factorial(k - 1)
    if raw % divisor:
        raise InconsistencyError(
            f"cycle count {raw} is not a multiple of (k-1)! = {divisor}")
    return raw // divisor


def directed_cycles_via_undirected(d: Graph, k: int, oracle=None) -> int:
    """#directed k-cycles (k >= 2) from k+1 undirected cycle counts.

    Split each vertex into an in/out pair with k parallel internal
    connections labeled 1..k, turn arcs into out-to-in edges, and subdivide
    everything so the graph is simple.  Directed k-cycles correspond, k!-to-
    one-each, to 4k-cycles using all k internal labels; inclusion-exclusion
    over label subsets extracts those from plain 4k-cycle counts.
    """
    if not d.directed:
        raise PreconditionError("input must be a directed graph")
    if k < 2:
        raise PreconditionError("k must be at least 2")
    if oracle is None:
        oracle = lambda ug, length: count_walk_patterns(ug, "cycle", length)
    n, arcs = d.n, d.edges

    def split_graph(labels: int) -> Graph:
        # v_in = 2v, v_out = 2v+1; then arc subdividers; then one subdivider
        # per (vertex, internal label <= labels)
        ed = []
        base = 2 * n
        for idx, (u, v) in enumerate(arcs):
            s = base + idx
            ed.append((2 * u + 1, s))
            ed.append((s, 2 * v))
        base += len(arcs)
        for lab in range(labels):
            for v in range(n):
                s = base + lab * n + v
                ed.append((2 * v, s))
                ed.append((s, 2 * v + 1))
        return Graph(base + labels * n, ed)

    total = 0
    for j in range(k + 1):
        nj = oracle(split_graph(j), 4 * k)
        sign = 1 if (k - j) % 2 == 0 else -1
        total += sign * math.comb(k, j) * nj
    if total < 0 or total % math.factorial(k):
        raise InconsistencyError(
            f"signed cycle total {total} is not a nonnegative multiple of k!")
    return total // math.factorial(k)
