"""Immutable small simple graphs with exact isomorphism handling.

Vertices are the integers 0..n-1 and adjacency is stored as per-vertex
bitmasks.  Every graph carries per-vertex labels which downstream modules
use as polynomial variable names, so induced subgraphs keep the labels of
the surviving vertices.

Isomorphism is decided through a canonical form, the least adjacency code
over the vertex orders that respect an iteratively refined colouring, found
by an exact row-by-row search (`_canonical_key`).  Cycles, the Petersen
graph and other regular graphs of a dozen vertices take milliseconds; many
small components, as in seven disjoint edges, take seconds.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

DEFAULT_ENUMERATION_BOUND = 8


class GraphError(ValueError):
    """Malformed graph input: bad edge, bad graph6 text, bound exceeded."""


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n or len(self.labels) != self.n:
            raise GraphError("inconsistent vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise GraphError("adjacency bit out of range")
            if mask >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (self.adj[u] >> v & 1) != (self.adj[v] >> u & 1):
                    raise GraphError("adjacency not symmetric")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def is_edgeless(self) -> bool:
        return not any(self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]],
                   labels: tuple[str, ...] | None = None) -> Graph:
    """Build a graph from an edge list; rejects loops, out-of-range and
    duplicate edges (after orienting each pair as u < v)."""
    adj = [0] * n
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {e} out of range for n={n}")
        if u == v:
            raise GraphError(f"loop edge {e}")
        u, v = min(u, v), max(u, v)
        if (u, v) in seen:
            raise GraphError(f"duplicate edge {(u, v)}")
        seen.add((u, v))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), labels if labels is not None else _default_labels(n))


# ---------------------------------------------------------------------------
# graph6 interchange and JSON input

def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (the <= 62 vertex short form)."""
    text = text.strip()
    if not text:
        raise GraphError("empty graph6 string")
    data = [ord(c) - 63 for c in text]
    if any(b < 0 or b > 63 for b in data):
        raise GraphError(f"graph6 byte out of range in {text!r}")
    if data[0] == 63:
        raise GraphError("graph6 long form (n > 62) not supported")
    n = data[0]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 != need:
        raise GraphError(f"graph6 payload length {len(data) - 1}, expected {need}")
    bits = []
    for b in data[1:]:
        bits.extend((b >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise GraphError("nonzero padding bits in graph6 payload")
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return from_edge_list(n, [e for e, bit in zip(pairs, bits) if bit])


def emit_graph6(g: Graph) -> str:
    if g.n > 62:
        raise GraphError("graph6 long form (n > 62) not supported")
    bits = "".join(str(g.adj[u] >> v & 1) for v in range(1, g.n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    return chr(g.n + 63) + "".join(chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))


def from_json_dict(d: dict) -> Graph:
    """Edge-list schema {"n": int, "edges": [[u, v], ...]}.  `n` and every
    endpoint must be JSON integers: floats, booleans and strings raise
    GraphError."""
    n, edges = d["n"], [tuple(e) for e in d["edges"]]
    if type(n) is not int or any(type(x) is not int for e in edges for x in e):
        raise GraphError(f"n and every edge endpoint must be integers in {d}")
    return from_edge_list(n, edges)


# ---------------------------------------------------------------------------
# basic operations

def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    adj = tuple((full ^ g.adj[v]) & ~(1 << v) for v in range(g.n))
    return Graph(g.n, adj, g.labels)


def induced_subgraph(g: Graph, verts: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on `verts`, compacted to 0..k-1 in increasing old
    order.  Returns the graph and the old->new vertex map; labels of the
    surviving vertices are kept."""
    keep = sorted(set(verts))
    for v in keep:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
    mapping = {old: new for new, old in enumerate(keep)}
    adj = [0] * len(keep)
    for old_u in keep:
        for old_v in _bits(g.adj[old_u]):
            if old_v in mapping:
                adj[mapping[old_u]] |= 1 << mapping[old_v]
    labels = tuple(g.labels[v] for v in keep)
    return Graph(len(keep), tuple(adj), labels), mapping


def delete_vertices(g: Graph, verts: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    drop = set(verts)
    return induced_subgraph(g, (v for v in range(g.n) if v not in drop))


def closed_neighborhood(g: Graph, target) -> frozenset[int]:
    """N[target] for a vertex, an edge (2-tuple), a vertex collection or an
    edge collection; the union of closed neighborhoods of all constituents."""
    verts = _target_vertices(g, target)
    out = 0
    for v in verts:
        out |= g.adj[v] | (1 << v)
    return frozenset(_bits(out))


def _target_vertices(g: Graph, target) -> frozenset[int]:
    if isinstance(target, int):
        verts = {target}
    else:
        verts = set()
        for item in target:
            if isinstance(item, int):
                verts.add(item)
            else:
                verts.update(item)
    for v in verts:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
    return frozenset(verts)


def delete_closed_neighborhood(g: Graph, x: int) -> tuple[Graph, dict[int, int]]:
    if not 0 <= x < g.n:
        raise GraphError(f"vertex {x} out of range")
    return delete_vertices(g, closed_neighborhood(g, x))


# ---------------------------------------------------------------------------
# canonical forms and enumeration

def _refinement_classes(n: int, adj: tuple[int, ...]) -> list[list[int]]:
    """Ordered vertex classes from iterated colour refinement.  The class
    order is derived from sorted, isomorphism-invariant keys, so any
    isomorphism maps the i-th class of one graph onto the i-th class of
    the other."""
    nbrs = [list(_bits(adj[v])) for v in range(n)]
    colors = [len(nb) for nb in nbrs]
    while True:
        keys = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(n)]
        order = {key: i for i, key in enumerate(sorted(set(keys)))}
        stable, colors = len(order) == len(set(colors)), [order[key] for key in keys]
        if stable:
            return [[v for v in range(n) if colors[v] == c] for c in range(len(order))]


@cache
def _canonical_key(n: int, adj: tuple[int, ...]) -> tuple[int, int]:
    """`(n, code)`: `code` is the least adjacency code over the vertex
    orders that list the refinement classes in turn, each in any order.
    The code is rows 0..n-2 in turn (row i: one bit per pair (i, j > i)),
    so it is least when row 0 is least, then row 1, and so on.  A branch
    is a list of cells, vertex sets filling positions i, i+1, ... in turn,
    and all live branches share rows 0..i-1.  Putting v of the first cell
    at position i, row i is least when every remaining cell lists v's
    non-neighbours, then its neighbours, which become the child's cells.
    Children whose row i exceeds the least at depth i are dropped, since
    only larger codes lie below them.  Rows after i read only positions
    after i, so the rest of the code depends on the cell list alone, and
    children with equal cell lists merge (K_n and the edgeless graph keep
    at most 2^n branches, not n! orders).  The result is the least code
    over all those orders, the permutation product's, bit for bit."""
    branches = {tuple(sum(1 << v for v in c) for c in _refinement_classes(n, adj))}
    code = 0
    for i in range(n - 1):
        best, survivors = None, set()
        for head, *rest in branches:
            for v in _bits(head):
                nb = adj[v]
                row, cells = 0, []
                for c in (head ^ (1 << v), *rest):
                    inside = c & nb
                    row = row << c.bit_count() | (1 << inside.bit_count()) - 1
                    if c ^ inside:
                        cells.append(c ^ inside)
                    if inside:
                        cells.append(inside)
                if best is None or row < best:
                    best, survivors = row, {tuple(cells)}
                elif row == best:
                    survivors.add(tuple(cells))
        code = code << (n - 1 - i) | best
        branches = survivors
    return (n, code)


def canonical_key(g: Graph) -> tuple[int, int]:
    """Hashable isomorphism invariant: equal keys iff isomorphic graphs."""
    return _canonical_key(g.n, g.adj)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return canonical_key(g) == canonical_key(h)


@cache
def _canonical_reps(n: int) -> list[Graph]:
    if n == 0:
        return [Graph(0, (), ())]
    found: dict[tuple[int, int], Graph] = {}
    for h in _canonical_reps(n - 1):
        # swapping twins u < w fixes h, so a mask holding w but not u extends
        # h as its swap, a smaller mask met before, does: skip it
        twins = [(1 << u, 1 << w) for u, w in itertools.combinations(range(n - 1), 2)
                 if h.adj[u] & ~(1 << w) == h.adj[w] & ~(1 << u)]
        for mask in range(1 << (n - 1)):
            if any(mask & w and not mask & u for u, w in twins):
                continue
            adj = tuple(a | (mask >> v & 1) << (n - 1) for v, a in enumerate(h.adj)) + (mask,)
            key = _canonical_key(n, adj)
            if key not in found:
                found[key] = Graph(n, adj, _default_labels(n))
    return [found[k] for k in sorted(found, key=lambda k: (k[1].bit_count(), k[1]))]


def enumerate_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of simple graphs on n
    vertices, n <= DEFAULT_ENUMERATION_BOUND, as a fresh list: the classes
    are all built before the call returns, and a caller may change the
    list without touching the cached classes.  Enumeration works by
    extending the (n-1)-vertex classes by one vertex in every way, up to
    swapping twin vertices, and deduplicating canonically."""
    if n > DEFAULT_ENUMERATION_BOUND:
        raise GraphError(f"enumeration bound exceeded: n={n} > {DEFAULT_ENUMERATION_BOUND}")
    return list(_canonical_reps(n))


# ---------------------------------------------------------------------------
# the named graphs of the invariants

def star(k: int) -> Graph:
    """K_{1,k} with the center at vertex 0."""
    return from_edge_list(k + 1, [(0, i) for i in range(1, k + 1)])


def claw() -> Graph:
    return star(3)


def cricket() -> Graph:
    return from_edge_list(5, [(0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
