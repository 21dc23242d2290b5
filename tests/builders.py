"""Graph families and a packed-word helper that only the tests use.

The package builds graphs from edge lists, graph6 text and enumeration;
these named families (and `packed_degree`, the degree of one packed
exponent word) exist for the test suites, so they live here rather than
in `edgereg`.
"""
from __future__ import annotations

import itertools

from edgereg.graphs import Graph, GraphError, from_edge_list
from edgereg.monomials import LANE, _plane_degree, lane_masks


def edgeless(n: int, labels: tuple[str, ...] | None = None) -> Graph:
    return from_edge_list(n, [], labels)


def complete_graph(n: int, labels: tuple[str, ...] | None = None) -> Graph:
    return from_edge_list(n, list(itertools.combinations(range(n), 2)), labels)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


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


def packed_degree(g: int) -> int:
    """The total degree of a packed exponent word, whatever its width."""
    return _plane_degree(g, lane_masks(-(-g.bit_length() // LANE))[2])
