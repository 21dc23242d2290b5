"""Combinatorial graph invariants and class predicates.

Everything here is exact and exhaustive: matching numbers by memoized
branching on vertex subsets, induced matchings by the same recursion with
closed neighborhoods removed.  Gap-free is decided as an induced matching
number nu(G) <= 1 (no induced 2K2), and chordality by deleting simplicial
vertices until none is left (Dirac).  No polynomial-time cleverness is
attempted beyond what keeps ten-vertex graphs instant.

Local regularity, reg (I(G) : x), is the quantity the power bounds are
phrased in.  The colon is (x_u : u in N(x)) + I(G - N[x]), two ideals in
disjoint variables, so it is read off the link G - N[x] of x.  Every
function returns a plain value; the checks built on these invariants,
Froberg's theorem on the links among them, live in `suites`.
"""
from __future__ import annotations

import itertools
from typing import Callable

from . import homology
from .graphs import (Graph, _bits, canonical_key, claw, closed_neighborhood, complement, cricket,
                     induced_subgraph)
from .monomials import edge_ideal


def _cached(g: Graph, name: str, fn: Callable[[], object], *extra):
    # invariants are memoized per isomorphism class in the homology memo
    return homology.memo((name, *canonical_key(g), *extra), fn)


# ---------------------------------------------------------------------------
# matchings

def matching_number(g: Graph) -> int:
    """Maximum number of pairwise disjoint edges."""
    reach = tuple(1 << v for v in range(g.n))
    return int(_cached(g, "beta", lambda: _matching_rec(g, (1 << g.n) - 1, reach, {})))


def induced_matching_number(g: Graph) -> int:
    """Maximum matching whose vertex span induces no extra edge.  Taking an
    edge at v forces the rest of the matching out of N[v] and N[u]."""
    reach = tuple(g.adj[v] | 1 << v for v in range(g.n))
    return int(_cached(g, "nu", lambda: _matching_rec(g, (1 << g.n) - 1, reach, {})))


def _matching_rec(g: Graph, alive: int, reach: tuple[int, ...], memo: dict[int, int]) -> int:
    """Largest matching on the `alive` vertices where an edge uv removes
    reach[u] | reach[v]: {u, v} for beta, N[u] | N[v] for nu."""
    if alive in memo:
        return memo[alive]
    v = next((u for u in range(g.n) if alive >> u & 1 and g.adj[u] & alive), None)
    if v is None:
        memo[alive] = 0
        return 0
    best = _matching_rec(g, alive & ~(1 << v), reach, memo)
    rest = g.adj[v] & alive
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        rest ^= low
        best = max(best, 1 + _matching_rec(g, alive & ~(reach[v] | reach[u]), reach, memo))
    memo[alive] = best
    return best


def is_gap_free(g: Graph) -> bool:
    """No two disjoint edges without a connecting edge between them, that
    is, no induced matching of two edges."""
    return induced_matching_number(g) <= 1


# ---------------------------------------------------------------------------
# induced patterns and chordality

def has_induced_pattern(g: Graph, pattern: Graph) -> bool:
    if pattern.n > g.n:
        return False
    pkey = canonical_key(pattern)
    for verts in itertools.combinations(range(g.n), pattern.n):
        if canonical_key(induced_subgraph(g, sum(1 << v for v in verts))) == pkey:
            return True
    return False


def is_claw_free(g: Graph) -> bool:
    return bool(_cached(g, "claw_free", lambda: not has_induced_pattern(g, claw())))


def is_cricket_free(g: Graph) -> bool:
    return bool(_cached(g, "cricket_free", lambda: not has_induced_pattern(g, cricket())))


def is_chordal(g: Graph) -> bool:
    return bool(_cached(g, "chordal", lambda: _chordal(g)))


def _chordal(g: Graph) -> bool:
    """Dirac (1961): a graph is chordal iff every induced subgraph has a
    simplicial vertex, so deleting simplicial vertices in any order empties
    exactly the chordal graphs."""
    alive = (1 << g.n) - 1
    while alive:
        for v in _bits(alive):
            hood = g.adj[v] & alive
            if all(hood & ~g.adj[u] == 1 << u for u in _bits(hood)):  # N(v) is a clique
                alive ^= 1 << v
                break
        else:
            return False
    return True


def is_co_chordal(g: Graph) -> bool:
    return is_chordal(complement(g))


def is_cameron_walker(g: Graph) -> bool:
    """Graphs whose induced matching number equals the matching number."""
    return induced_matching_number(g) == matching_number(g)


# ---------------------------------------------------------------------------
# local regularity

def link(g: Graph, x: int) -> Graph:
    """G - N[x]: its edge ideal and the variables of N(x) generate (I(G) : x)."""
    return induced_subgraph(g, ((1 << g.n) - 1) ^ closed_neighborhood(g, 1 << x))


def local_regularity(g: Graph, x: int, field: homology.FieldSpec = homology.GF2) -> int:
    """Regularity of the colon ideal (I(G) : x): 0 when G has no edge (the
    colon is zero), 1 when the link of x has none (the colon is generated
    by the variables of N(x)), and otherwise reg I(link), which the
    variables of N(x), unused by the link, do not change.  An isolated x
    has the link G - x, and its colon is I(G) itself."""
    h = link(g, x)  # a vertex out of range raises ValueError
    if h.is_edgeless():
        return 0 if g.is_edgeless() else 1
    return homology.regularity(edge_ideal(h), field)


def local_regularity_max(g: Graph, field: homology.FieldSpec = homology.GF2) -> int:
    """max over non-isolated vertices x of reg (I(G) : x); 0 for edgeless
    graphs.  Isolated vertices are excluded: for such x the colon is I(G)
    itself, which says nothing local (adding an isolated vertex never
    changes the edge ideal, so it must not change this invariant either)."""
    return int(_cached(g, "lrm", lambda: max((local_regularity(g, x, field) for x in range(g.n)
                                              if g.degree(x)), default=0), field.characteristic))


def is_locally_linear(g: Graph, field: homology.FieldSpec = homology.GF2) -> bool:
    """True when reg (I(G) : x) <= 2 for every non-isolated vertex x."""
    return local_regularity_max(g, field) <= 2


# ---------------------------------------------------------------------------
# invariant records

def invariant_record(g: Graph) -> dict:
    """Every invariant of `g`, in the order the CLI prints them."""
    return {
        "beta": matching_number(g),
        "nu": induced_matching_number(g),
        "gap_free": is_gap_free(g),
        "claw_free": is_claw_free(g),
        "cricket_free": is_cricket_free(g),
        "chordal": is_chordal(g),
        "co_chordal": is_co_chordal(g),
        "cameron_walker": is_cameron_walker(g),
        "locally_linear": is_locally_linear(g),
        "local_reg_max": local_regularity_max(g),
    }
