"""Graph families, ideal builders and a packed-word helper that only the
tests use.

The package builds graphs from edge lists, graph6 text and enumeration,
and ideals from graphs; these named families, `ideal` (a MonomialIdeal
from exponent dicts) and `packed_degree` (the degree of one packed
exponent word) exist for the test suites, so they live here rather than
in `edgereg`.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from edgereg.graphs import Graph, GraphError, from_edge_list
from edgereg.monomials import LANE, MonomialIdeal, _plane_degree, lane_masks, pack, packed_ideal


def edgeless(n: int) -> Graph:
    return from_edge_list(n, [])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star(k: int) -> Graph:
    """K_{1,k} with the center at vertex 0."""
    return from_edge_list(k + 1, [(0, i) for i in range(1, k + 1)])


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(m: int, n: int) -> Graph:
    return from_edge_list(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def disjoint_edges(k: int) -> Graph:
    return from_edge_list(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return from_edge_list(g.n + h.n, edges)


def graph_join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    edges += [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return from_edge_list(g.n + h.n, edges)


def ideal(gens: Iterable[Mapping[str, int]],
          vars: Iterable[str] | None = None) -> MonomialIdeal:
    """Minimalize `gens` into a MonomialIdeal.  When `vars` is omitted the
    universe is the sorted union of supports; a variable outside `vars`,
    the unit monomial or an exponent above LANE_MAX raises ValueError."""
    monos = [{v: e for v, e in g.items() if e} for g in gens]
    if vars is None:
        vars = sorted(set().union(*monos))
    universe = tuple(vars)
    words = []
    for m in monos:
        if not set(m) <= set(universe):
            raise ValueError(f"{m} has a variable outside the universe")
        words.append(pack(m.get(v, 0) for v in universe))
    if 0 in words:
        raise ValueError("unit generator: the unit ideal is out of scope")
    return packed_ideal(universe, words)


def packed_degree(g: int) -> int:
    """The total degree of a packed exponent word, whatever its width."""
    return _plane_degree(g, lane_masks(-(-g.bit_length() // LANE))[2])
