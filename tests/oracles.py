"""Independent brute-force oracles.

These deliberately share no code with the package internals they check:
isomorphism by raw permutation search, matchings by subset enumeration,
chordality by induced-cycle search, ranks by Gaussian elimination over
`fractions.Fraction` or modulo p.  Slow on purpose; only run at tiny sizes.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from edgereg.graphs import Graph, induced_subgraph


def permutation_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    target = {frozenset(e) for e in h.edges()}
    for perm in itertools.permutations(range(g.n)):
        if {frozenset((perm[u], perm[v])) for u, v in g.edges()} == target:
            return True
    return False


def dedup_by_permutation(graphs) -> list[Graph]:
    reps: list[Graph] = []
    for g in graphs:
        if not any(permutation_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


def all_labeled_graphs(n: int):
    from edgereg.graphs import from_edge_list
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield from_edge_list(n, [e for k, e in enumerate(pairs) if bits >> k & 1])


def brute_matching_number(g: Graph) -> int:
    edges = g.edges()
    for size in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, size):
            verts = [v for e in combo for v in e]
            if len(verts) == len(set(verts)):
                return size
    return 0


def brute_induced_matching_number(g: Graph) -> int:
    edges = g.edges()
    best = 0
    for size in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, size):
            verts = [v for e in combo for v in e]
            if len(verts) != len(set(verts)):
                continue
            span, _ = induced_subgraph(g, verts)
            if span.edge_count() == size:
                return size
    return best


def has_induced_cycle_of_length_at_least_4(g: Graph) -> bool:
    for size in range(4, g.n + 1):
        for verts in itertools.combinations(range(g.n), size):
            sub, _ = induced_subgraph(g, verts)
            if all(sub.degree(v) == 2 for v in range(sub.n)) and _connected(sub):
                return True
    return False


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def brute_minimal_vertex_covers(g: Graph) -> set[frozenset[int]]:
    edges = g.edges()
    covers = []
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            s = set(combo)
            if all(u in s or v in s for u, v in edges):
                covers.append(frozenset(s))
    return {c for c in covers if not any(d < c for d in covers)}


def fraction_rank(rows: list[list[int]], p: int = 0) -> int:
    """Textbook Gauss-Jordan elimination over exact rationals, or over
    GF(p) when a prime p is given."""
    if p:
        mat = [[x % p for x in row] for row in rows]
    else:
        mat = [[Fraction(x) for x in row] for row in rows]
    mat = [row for row in mat if any(row)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p) if p else 1 / mat[rank][col]
        mat[rank] = [x * inv % p if p else x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p if p else a - f * b
                          for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


# Dense-tuple reference for the packed monomial kernels: exponent vectors
# are plain tuples, and generators come out graded, then lexicographically
# descending.

def _divides_row(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def tuple_minimal(rows) -> list[tuple[int, ...]]:
    """Divisibility antichain; candidates are scanned by degree, so a kept
    row can only be divided by an earlier (lower-degree) kept one."""
    uniq = sorted(set(rows), key=lambda r: (sum(r), r))
    kept: list[tuple[int, ...]] = []
    by_degree: list[tuple[int, tuple[int, ...]]] = []
    for row in uniq:
        deg = sum(row)
        if any(_divides_row(k, row) for d, k in by_degree if d < deg):
            continue
        kept.append(row)
        by_degree.append((deg, row))
    return sorted(kept, key=lambda r: (sum(r), tuple(-e for e in r)))


def tuple_power(rows, s: int) -> list[tuple[int, ...]]:
    out = set(rows)
    for _ in range(s - 1):
        out = {tuple(a + b for a, b in zip(r, g)) for r in out for g in rows}
    return tuple_minimal(out)


def tuple_colon(rows, m: tuple[int, ...]) -> list[tuple[int, ...]]:
    return tuple_minimal({tuple(max(e - x, 0) for e, x in zip(row, m)) for row in rows})


def tuple_intersect(rows_a, rows_b) -> list[tuple[int, ...]]:
    return tuple_minimal({tuple(max(a, b) for a, b in zip(r, s)) for r in rows_a for s in rows_b})
