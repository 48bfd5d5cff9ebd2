"""Small exact-combinatorics graph type and its one NP-hard primitive,
minimum vertex cover, solved by branch and bound.

Vertices are 0..n-1.  Graphs are simple (no loops, no parallel edges) and
immutable by convention: every mutator returns a fresh ``Graph``.  Optional
vertex colors and edge colors ride along untouched through the derived-graph
helpers.
"""

from collections.abc import Iterable, Iterator, Sequence


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the input."""


class InconsistencyError(RuntimeError):
    """An internal cross-check failed; the result would be untrustworthy."""


#: the most queries, candidate checks or search steps one costly run may take;
#: more are refused, before the run starts where the amount is known up front
WORK_LIMIT = 1 << 16


def refuse_over_limit(work: int, what: str) -> None:
    """Refuse ``what`` with PreconditionError when ``work`` is above WORK_LIMIT."""
    if work > WORK_LIMIT:
        raise PreconditionError(f"{what}, above the limit of {WORK_LIMIT}")


Edge = tuple[int, int]


def _norm_edge(u: int, v: int, directed: bool) -> Edge:
    if not directed and u > v:
        u, v = v, u
    return (u, v)


class Graph:
    """A little immutable graph with bitmask adjacency.

    ``vcolors`` is a tuple of length n (or None), ``ecolors`` a tuple aligned
    with ``edges`` (or None).  Directed graphs store arcs as ordered pairs;
    undirected edges are normalized to (min, max).
    """

    __slots__ = ("n", "directed", "edges", "vcolors", "ecolors",
                 "_adj", "_out", "_in")

    def __init__(self, n: int, edges: Iterable[Edge] = (), *,
                 directed: bool = False,
                 vcolors: Sequence[int] | None = None,
                 ecolors: Sequence[int] | None = None):
        if n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        self.n = n
        self.directed = directed
        seen: set[Edge] = set()
        norm: list[Edge] = []
        for (u, v) in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise PreconditionError(f"loop at vertex {u} not allowed")
            e = _norm_edge(u, v, directed)
            if e in seen:
                raise PreconditionError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        self.edges = tuple(norm)
        if vcolors is not None:
            if len(vcolors) != n:
                raise PreconditionError("vcolors length must equal n")
            self.vcolors = tuple(vcolors)
        else:
            self.vcolors = None
        if ecolors is not None:
            if len(tuple(ecolors)) != len(self.edges):
                raise PreconditionError("ecolors must align with edges")
            self.ecolors = tuple(ecolors)
        else:
            self.ecolors = None

        out, inn = [0] * n, [0] * n
        for (u, v) in self.edges:
            out[u] |= 1 << v
            inn[v] |= 1 << u
        self._adj = [o | i for o, i in zip(out, inn)]
        # an undirected graph's out- and in-neighbors are all its neighbors
        self._out, self._in = (out, inn) if directed else (self._adj, self._adj)

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def adj_mask(self, v: int) -> int:
        """Bitmask of neighbors (union of in- and out-neighbors if directed)."""
        return self._adj[v]

    def out_mask(self, v: int) -> int:
        return self._out[v]

    def in_mask(self, v: int) -> int:
        return self._in[v]

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self._adj[v])

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._out[u] & (1 << v))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.directed == other.directed
                and sorted(self.edges) == sorted(other.edges)
                and self.vcolors == other.vcolors
                and self._color_map() == other._color_map())

    def _color_map(self):
        if self.ecolors is None:
            return None
        return dict(zip(self.edges, self.ecolors))

    def __hash__(self) -> int:
        return hash((self.n, self.directed, frozenset(self.edges)))

    def __repr__(self) -> str:
        kind = "digraph" if self.directed else "graph"
        return f"<{kind} n={self.n} m={self.m}>"

    # -- derived graphs ------------------------------------------------

    def induced(self, verts: Iterable[int]) -> "Graph":
        """Induced subgraph, relabeled along sorted(verts)."""
        keep = sorted(set(verts))
        idx = {v: i for i, v in enumerate(keep)}
        ed, ec = [], []
        for k, (u, v) in enumerate(self.edges):
            if u in idx and v in idx:
                ed.append((idx[u], idx[v]))
                if self.ecolors is not None:
                    ec.append(self.ecolors[k])
        vc = None if self.vcolors is None else [self.vcolors[v] for v in keep]
        return Graph(len(keep), ed, directed=self.directed, vcolors=vc,
                     ecolors=ec if self.ecolors is not None else None)

    def without_vertices(self, verts: Iterable[int]) -> "Graph":
        drop = set(verts)
        return self.induced(v for v in range(self.n) if v not in drop)

    def without_edges(self, eset: Iterable[Edge]) -> "Graph":
        """Same vertex set, with the given edges removed."""
        drop = {_norm_edge(u, v, self.directed) for (u, v) in eset}
        ed, ec = [], []
        for k, e in enumerate(self.edges):
            if e not in drop:
                ed.append(e)
                if self.ecolors is not None:
                    ec.append(self.ecolors[k])
        return Graph(self.n, ed, directed=self.directed, vcolors=self.vcolors,
                     ecolors=ec if self.ecolors is not None else None)

    def with_vertex_colors(self, vcolors: Sequence[int]) -> "Graph":
        return Graph(self.n, self.edges, directed=self.directed,
                     vcolors=vcolors, ecolors=self.ecolors)

    def with_edge_colors(self, ecolors: Sequence[int]) -> "Graph":
        return Graph(self.n, self.edges, directed=self.directed,
                     vcolors=self.vcolors, ecolors=ecolors)

    def disjoint_union(self, other: "Graph") -> "Graph":
        """Disjoint union; vertices of ``other`` are shifted by self.n."""
        if self.directed != other.directed:
            raise PreconditionError("cannot union directed with undirected")
        ed = list(self.edges) + [(u + self.n, v + self.n) for (u, v) in other.edges]
        vc = None
        if self.vcolors is not None and other.vcolors is not None:
            vc = list(self.vcolors) + list(other.vcolors)
        ec = None
        if self.ecolors is not None and other.ecolors is not None:
            ec = list(self.ecolors) + list(other.ecolors)
        return Graph(self.n + other.n, ed, directed=self.directed,
                     vcolors=vc, ecolors=ec)

    # -- structure -----------------------------------------------------

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp, stack = [], [s]
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.neighbors(v):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def bipartition(self) -> tuple[list[int], list[int]] | None:
        """(left, right) with the minimum vertex of each component on the
        left, or None if some odd cycle exists.  Arc directions are ignored."""
        side = [-1] * self.n
        for s in range(self.n):
            if side[s] != -1:
                continue
            side[s] = 0
            queue = [s]
            while queue:
                v = queue.pop()
                for w in self.neighbors(v):
                    if side[w] == -1:
                        side[w] = 1 - side[v]
                        queue.append(w)
                    elif side[w] == side[v]:
                        return None
        left = [v for v in range(self.n) if side[v] == 0]
        right = [v for v in range(self.n) if side[v] == 1]
        return left, right

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self._adj[v] == 0]

    # -- stock graphs ----------------------------------------------------

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n)

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise PreconditionError("cycle needs at least 3 vertices")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def star(leaves: int) -> "Graph":
        return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])

    @staticmethod
    def matching(k: int) -> "Graph":
        return Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])

    @staticmethod
    def complete_bipartite(a: int, b: int) -> "Graph":
        return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cover_size(adj: list[int], active: int, memo: dict[int, int]) -> int:
    """Exact vertex cover size of g[active]; refused past WORK_LIMIT memo states."""
    cached = memo.get(active)
    if cached is not None:
        return cached
    refuse_over_limit(len(memo), f"the vertex cover search would store {len(memo)} states")
    # pendant peel: some optimum cover takes the neighbour of a degree-1
    # vertex, and the peel lowers degrees only around it, so m, the vertices
    # to look at (lowest first), takes back just its neighbours
    start, peeled, m = active, 0, active
    while m:
        low = m & -m
        m ^= low
        nv = adj[low.bit_length() - 1] & active
        if not nv:
            active ^= low
        elif not nv & (nv - 1):
            peeled += 1
            active &= ~(nv | low)
            m = (m | adj[nv.bit_length() - 1]) & active
    best_v, best_deg = -1, 0  # the lowest vertex of highest degree
    for v in iter_bits(active):
        d = (adj[v] & active).bit_count()
        if d > best_deg:
            best_v, best_deg = v, d
    res = memo.get(active) if best_deg else 0
    if res is None:
        nv = adj[best_v] & active
        take_v = 1 + _cover_size(adj, active & ~(1 << best_v), memo)
        take_nb = best_deg + _cover_size(adj, active & ~(nv | (1 << best_v)), memo)
        res = memo[active] = min(take_v, take_nb)
    memo[start] = peeled + res
    return peeled + res


def min_vertex_cover(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact minimum vertex cover: (size, witness).

    The witness is the optimum cover whose sorted vertex tuple is
    lexicographically least.  It is grown by self-reduction: scan vertices in
    ascending order and keep v exactly when some optimum cover of the current
    residual graph contains v.  Isolated vertices are never taken.  Refused
    with PreconditionError once the search stores more than WORK_LIMIT states.
    """
    if g.directed:
        raise PreconditionError("vertex cover is defined on undirected graphs")
    adj = list(g._adj)
    memo: dict[int, int] = {}
    full = (1 << g.n) - 1
    budget = _cover_size(adj, full, memo)
    size = budget
    chosen: list[int] = []
    active = full
    for v in range(g.n):
        if budget == 0:
            break
        if adj[v] & active == 0:
            continue
        if _cover_size(adj, active & ~(1 << v), memo) == budget - 1:
            chosen.append(v)
            active &= ~(1 << v)
            budget -= 1
    if budget != 0:
        raise InconsistencyError("cover reconstruction exhausted its budget")
    return size, tuple(chosen)

