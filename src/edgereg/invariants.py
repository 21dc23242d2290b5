"""Combinatorial graph invariants and class predicates.

Everything here is exact and exhaustive: matching numbers by memoized
branching on vertex subsets, induced matchings by the same recursion with
closed neighborhoods removed, chordality by maximum cardinality search
with a verified perfect elimination ordering.  No polynomial-time
cleverness is attempted beyond what keeps ten-vertex graphs instant.

Local regularity is the regularity of the colon ideal (I(G) : x), which
the regularity engine computes directly; it is the quantity the power
bounds are phrased in.  Every function returns a plain value; the checks
built on these invariants, the hierarchy-function check among them, live
in `suites`.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Callable

from . import homology
from .graphs import (Graph, canonical_key, claw, complement, cricket,
                     delete_closed_neighborhood, induced_subgraph)
from .monomials import colon_by_monomial, edge_ideal, squarefree


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
    """No two disjoint edges without a connecting edge between them."""
    edges = g.edges()
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        if not (g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, c) or g.has_edge(b, d)):
            return False
    return True


# ---------------------------------------------------------------------------
# induced patterns and chordality

def has_induced_pattern(g: Graph, pattern: Graph) -> bool:
    if pattern.n > g.n:
        return False
    pkey = canonical_key(pattern)
    for verts in itertools.combinations(range(g.n), pattern.n):
        sub, _ = induced_subgraph(g, verts)
        if canonical_key(sub) == pkey:
            return True
    return False


def is_claw_free(g: Graph) -> bool:
    return bool(_cached(g, "claw_free", lambda: not has_induced_pattern(g, claw())))


def is_cricket_free(g: Graph) -> bool:
    return bool(_cached(g, "cricket_free", lambda: not has_induced_pattern(g, cricket())))


def is_chordal(g: Graph) -> bool:
    """Maximum cardinality search followed by verification that the
    resulting ordering is a perfect elimination ordering."""
    return bool(_cached(g, "chordal", lambda: _chordal(g)))


def _chordal(g: Graph) -> bool:
    n = g.n
    if n <= 2:
        return True
    weight = [0] * n
    numbered = 0
    visit: list[int] = []
    for _ in range(n):
        z = max((v for v in range(n) if not numbered >> v & 1),
                key=lambda v: (weight[v], -v))
        visit.append(z)
        numbered |= 1 << z
        for y in range(n):
            if not numbered >> y & 1 and g.has_edge(y, z):
                weight[y] += 1
    peo = visit[::-1]
    pos = {v: i for i, v in enumerate(peo)}
    for i, v in enumerate(peo):
        later = [u for u in g.neighbors(v) if pos[u] > i]
        if not later:
            continue
        first = min(later, key=pos.__getitem__)
        for u in later:
            if u != first and not g.has_edge(first, u):
                return False
    return True


def is_co_chordal(g: Graph) -> bool:
    return is_chordal(complement(g))


def is_cameron_walker(g: Graph) -> bool:
    """Graphs whose induced matching number equals the matching number."""
    return induced_matching_number(g) == matching_number(g)


# ---------------------------------------------------------------------------
# local regularity

def local_regularity(g: Graph, x: int, field: homology.FieldSpec = homology.GF2) -> int:
    """Regularity of the colon ideal (I(G) : x).  The colon works out to
    the variables of N(x) plus the edge ideal of G - N[x]; the engine is
    given the colon ideal itself so there is a single source of truth.
    Returns 0 when the colon ideal is zero (edgeless graph)."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    i = edge_ideal(g)
    if i.is_zero:
        return 0
    colon = colon_by_monomial(i, squarefree((x,), g.n))
    return homology.regularity(colon, field)


def local_regularity_max(g: Graph, field: homology.FieldSpec = homology.GF2) -> int:
    """max over non-isolated vertices x of reg (I(G) : x); 0 for edgeless
    graphs.  Isolated vertices are excluded: for such x the colon is I(G)
    itself, which says nothing local (adding an isolated vertex never
    changes the edge ideal, so it must not change this invariant either)."""
    return int(_cached(g, "lrm",
                       lambda: max((local_regularity(g, x, field)
                                    for x in range(g.n) if g.degree(x) > 0),
                                   default=0),
                       field.characteristic))


def is_locally_linear(g: Graph) -> bool:
    """True when reg (I(G):x) <= 2 for every non-isolated vertex x.  The
    answer is cross-checked against the co-chordality shortcut for each
    colon graph."""
    result = local_regularity_max(g) <= 2
    shortcut = all(_colon_graph_cochordal(g, x)
                   for x in range(g.n) if g.degree(x) > 0)
    if shortcut != result:
        raise RuntimeError(
            "internal consistency failure: engine and co-chordal shortcut disagree "
            f"on local regularity <= 2 for {g!r}")
    return result


def _colon_graph_cochordal(g: Graph, x: int) -> bool:
    # reg(I:x) <= 2 iff G - N[x] is edgeless or co-chordal
    h, _ = delete_closed_neighborhood(g, x)
    return h.is_edgeless() or is_co_chordal(h)


# ---------------------------------------------------------------------------
# invariant records

@dataclass(frozen=True)
class InvariantRecord:
    beta: int
    nu: int
    gap_free: bool
    claw_free: bool
    cricket_free: bool
    chordal: bool
    co_chordal: bool
    cameron_walker: bool
    locally_linear: bool
    local_reg_max: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def invariant_record(g: Graph) -> InvariantRecord:
    return InvariantRecord(
        beta=matching_number(g),
        nu=induced_matching_number(g),
        gap_free=is_gap_free(g),
        claw_free=is_claw_free(g),
        cricket_free=is_cricket_free(g),
        chordal=is_chordal(g),
        co_chordal=is_co_chordal(g),
        cameron_walker=is_cameron_walker(g),
        locally_linear=is_locally_linear(g),
        local_reg_max=local_regularity_max(g),
    )
