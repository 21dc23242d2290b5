"""Immutable small simple graphs with exact isomorphism handling.

A graph is its adjacency, `(n, adj)`: vertices 0..n-1, adj[v] the bitmask
of v's neighbours, and no names (`monomials` names its ideals' variables).
Vertex sets are bitmasks too: `closed_neighborhood` takes and returns one,
and `induced_subgraph` keeps the vertices of one, renumbered.

Isomorphism is decided through a canonical form, the least adjacency code
over the vertex orders that respect an iteratively refined colouring, found
by an exact row-by-row search (`_canonical_key`).  Cycles, the Petersen
graph and other regular graphs of a dozen vertices take milliseconds; many
small components, as in seven disjoint edges, take seconds.

Enumeration extends each class on n-1 vertices by a new vertex, in the
order of the parents' (edge count, code), and keys only the extensions
whose new vertex has top degree: any other one deletes, at the busier
vertex, to an earlier parent that already reached its class.  So the
first-found representative of every class, and the order, are those of
the plain extension loop.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

DEFAULT_ENUMERATION_BOUND = 8


class GraphError(ValueError):
    """Malformed graph input: bad edge, bad graph6 text, bound exceeded."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise GraphError("inconsistent vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise GraphError("adjacency bit out of range")
            if mask >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        if any(not self.adj[u] >> v & 1 for v in range(self.n) for u in _bits(self.adj[v])):
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


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
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
    return Graph(n, tuple(adj))


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
    GraphError, and so does n > 62, which graph6 output cannot name."""
    n, edges = d["n"], [tuple(e) for e in d["edges"]]
    if type(n) is not int or any(type(x) is not int for e in edges for x in e):
        raise GraphError(f"n and every edge endpoint must be integers in {d}")
    if n > 62:
        raise GraphError(f"n = {n}: graph6 long form (n > 62) not supported")
    return from_edge_list(n, edges)


# ---------------------------------------------------------------------------
# basic operations

def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    adj = tuple((full ^ g.adj[v]) & ~(1 << v) for v in range(g.n))
    return Graph(g.n, adj)


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Induced subgraph on the vertices of the bitmask `mask`, renumbered
    0..k-1 in increasing old order."""
    if mask < 0 or mask >> g.n:
        raise GraphError(f"vertex mask {mask:#x} out of range for n={g.n}")
    keep = list(_bits(mask))
    adj = tuple(sum(1 << j for j, u in enumerate(keep) if g.adj[v] >> u & 1) for v in keep)
    return Graph(len(keep), adj)


def closed_neighborhood(g: Graph, mask: int) -> int:
    """N[S] as a bitmask, for the vertex set S given as the bitmask `mask`:
    S and every neighbor of a vertex of S."""
    if mask < 0 or mask >> g.n:
        raise GraphError(f"vertex mask {mask:#x} out of range for n={g.n}")
    out = mask
    for v in _bits(mask):
        out |= g.adj[v]
    return out


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
    children with equal cell lists merge.  A cell lies in one refinement
    class; when that class is pairwise twins, swapping two of its vertices
    fixes every placed vertex and every other cell, so only the cell's
    lowest vertex is tried (K_n and K_{1,n-1} keep one branch).  The
    result is the least code over all those orders, the permutation
    product's, bit for bit."""
    classes = _refinement_classes(n, adj)
    twinned = sum(sum(1 << v for v in c) for c in classes
                  if len({adj[v] for v in c}) == 1 or len({adj[v] | 1 << v for v in c}) == 1)
    branches = {tuple(sum(1 << v for v in c) for c in classes)}
    code = 0
    for i in range(n - 1):
        best, survivors = None, set()
        for head, *rest in branches:
            for v in _bits(head & -head if head & twinned else head):
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


@cache
def _canonical_reps(n: int) -> list[Graph]:
    """The classes on n vertices, each as the first extension of an
    (n-1)-vertex class that reaches it, sorted by (edge count, code).

    The parents are met in that order too, and two skips drop only
    extensions whose class an earlier candidate reached, never a class's
    first candidate, so every representative is the one the plain
    extension loop finds:
    - swapping twins u < w fixes the parent, so a mask holding w but not
      u extends it as its swap, a smaller mask met before, does;
    - if an old vertex u has a higher degree than the new one in the
      extension G, then G - u has fewer edges than the parent, so its
      class is an earlier parent, which G extends by u's neighbours (or by
      their smaller twin swap).  With `top` the parent's largest degree
      and `busiest` its vertices of that degree, the new vertex has top
      degree when d > top, or d == top and it has no neighbour in
      `busiest`."""
    if n == 0:
        return [Graph(0, ())]
    found: dict[tuple[int, int], Graph] = {}
    for h in _canonical_reps(n - 1):
        top = max(map(int.bit_count, h.adj), default=0)
        busiest = sum(1 << v for v, a in enumerate(h.adj) if a.bit_count() == top)
        twins = [(1 << u, 1 << w) for u, w in itertools.combinations(range(n - 1), 2)
                 if h.adj[u] & ~(1 << w) == h.adj[w] & ~(1 << u)]
        for mask in range(1 << (n - 1)):
            d = mask.bit_count()
            if d < top or d == top and mask & busiest:
                continue
            if any(mask & w and not mask & u for u, w in twins):
                continue
            adj = tuple(a | (mask >> v & 1) << (n - 1) for v, a in enumerate(h.adj)) + (mask,)
            key = _canonical_key(n, adj)
            if key not in found:
                found[key] = Graph(n, adj)
    return [found[k] for k in sorted(found, key=lambda k: (k[1].bit_count(), k[1]))]


def enumerate_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of simple graphs on n
    vertices, 0 <= n <= DEFAULT_ENUMERATION_BOUND, as a fresh list: the
    classes are all built before the call returns, and a caller may change
    the list without touching the cached classes.  Enumeration works by
    extending the (n-1)-vertex classes by one vertex in every way, up to
    swapping twin vertices and giving the new vertex top degree, and
    deduplicating canonically.  Both skips only drop extensions whose class
    an earlier one reached, so each class keeps its first-found
    representative (`_canonical_reps`)."""
    if not 0 <= n <= DEFAULT_ENUMERATION_BOUND:
        raise GraphError(f"enumeration bound: n={n} is not in 0..{DEFAULT_ENUMERATION_BOUND}")
    return list(_canonical_reps(n))


# ---------------------------------------------------------------------------
# the named graphs of the invariants

def claw() -> Graph:
    """K_{1,3} with the center at vertex 0."""
    return from_edge_list(4, [(0, 1), (0, 2), (0, 3)])


def cricket() -> Graph:
    return from_edge_list(5, [(0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
