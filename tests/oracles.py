"""Independent brute-force oracles.

These deliberately share no code with the package internals they check:
isomorphism by raw permutation search, matchings by subset enumeration,
chordality by induced-cycle search, ranks by Gaussian elimination over
`fractions.Fraction` or modulo p, with `gf3_planes` encoding integer rows
for `linalg.rank_gf3`.  Slow on purpose; only run at tiny sizes.
The one exception is `lattice_rescan_betti`, an earlier form of the Betti
kernel kept as a reference for the lattice and facet steps only: it shares
face closure and homology ranks with `homology`.
`frozenset_isolated_reduction_failures` is the earlier, set-based form of
`evenconn.isolated_reduction_failures`, kept as its reference,
`polarized_supports` the earlier, polarize-and-decode form of
`homology.hochster_supports`, `colon_local_regularity` the earlier,
colon-ideal form of `invariants.local_regularity`, and
`permutation_product_key` the earlier, exhaustive form of
`graphs._canonical_key`, sharing its refinement classes.  `contains`
(membership on dense rows), `certificate_holds` (an even-connection walk
checked against its definition) and the `brute_*` class predicates are
definitions written out plainly for the tests to compare against.  `mutant`
builds the one-fragment mutants that the mutation tests run against these
oracles.
"""
from __future__ import annotations

import inspect
import itertools
from collections import Counter
from fractions import Fraction

from builders import packed_degree
from edgereg import homology
from edgereg.evenconn import colon_graph
from edgereg.graphs import Graph, _bits, _refinement_classes, enumerate_graphs, induced_subgraph
from edgereg.homology import (FACE_BUDGET, LATTICE_BUDGET, BettiTable, BudgetError,
                              FieldSpec, _closure, _profile_from_masks, hochster_oracle)
from edgereg.monomials import (LANE, MonomialIdeal, colon_by_monomial, edge_ideal, lane_masks,
                               pack, polarize, squarefree, unpack)


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
            if induced_subgraph(g, sum(1 << v for v in verts)).edge_count() == size:
                return size
    return best


def brute_chordal(g: Graph) -> bool:
    """No set of four or more vertices induces a cycle."""
    for size in range(4, g.n + 1):
        for verts in itertools.combinations(range(g.n), size):
            sub = induced_subgraph(g, sum(1 << v for v in verts))
            if all(sub.degree(v) == 2 for v in range(sub.n)) and _connected(sub):
                return False
    return True


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


def brute_gap_free(g: Graph) -> bool:
    """No four vertices induce two disjoint edges (2K2)."""
    for quad in itertools.combinations(range(g.n), 4):
        edges = [e for e in itertools.combinations(quad, 2) if g.has_edge(*e)]
        if len(edges) == 2 and not set(edges[0]) & set(edges[1]):
            return False
    return True


def brute_cameron_walker(g: Graph) -> bool:
    return brute_matching_number(g) == brute_induced_matching_number(g)


def brute_locally_linear(g: Graph) -> bool:
    """reg (I(G) : x) <= 2 for every non-isolated x, the colon taken on
    dense rows and its regularity read from the Hochster oracle."""
    rows = [tuple(int(v in e) for v in range(g.n)) for e in g.edges()]
    for x in range(g.n):
        if g.degree(x):
            colon = tuple_colon(rows, tuple(int(v == x) for v in range(g.n)))
            names = tuple(f"x{v}" for v in range(g.n))
            if hochster_oracle(MonomialIdeal(names, tuple(map(pack, colon)))).regularity() > 2:
                return False
    return True


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


def gf3_planes(row: list[int]) -> tuple[int, int]:
    """An integer row as the (ones, twos) bit planes of `linalg.rank_gf3`:
    the columns holding 1 and the columns holding 2 modulo 3."""
    ones = twos = 0
    for c, x in enumerate(row):
        if x % 3 == 1:
            ones |= 1 << c
        elif x % 3 == 2:
            twos |= 1 << c
    return ones, twos


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


def contains(i: MonomialIdeal, m: dict[str, int]) -> bool:
    """Some generator divides the monomial with exponents m, lane by lane;
    variables of m outside the universe are ignored."""
    row = tuple(m.get(v, 0) for v in i.vars)
    return any(_divides_row(unpack(g, len(i.vars)), row) for g in i.gens)


# Reference for `homology.graded_betti`: build the whole lcm lattice first,
# then rescan every generator at every point, read each facet lane by lane
# as a vertex bitmask, skip cones, and close and rank every complex afresh.

def _lcm_lattice(gens: list[int], hi: int, val: int, cap: int) -> set[int]:
    lattice = set(gens)
    frontier = list(lattice)
    shift = LANE - 1
    while frontier:
        fresh = []
        for a in frontier:
            a_hi = a | hi
            for g in gens:
                ge = (a_hi - g) & hi
                sel = ge - (ge >> shift)
                m = (a & sel) | (g & val & ~sel)
                if m not in lattice:
                    lattice.add(m)
                    fresh.append(m)
                    if len(lattice) > cap:
                        raise BudgetError(f"lcm lattice budget {cap} exceeded")
        frontier = fresh
    return lattice


def _packed_excess_mask(b: int, g: int, hi: int, ones: int, nv: int) -> int:
    # vertex bitmask of the lanes where b - g >= 1 (the squarefree support
    # of the upper-Koszul facet attached to generator g at multidegree b);
    # bit k is variable k, which sits in lane nv - 1 - k
    strict = ((b | hi) - g - ones) & hi
    mask = 0
    probe = LANE * nv - 1
    for k in range(nv):
        if strict >> probe & 1:
            mask |= 1 << k
        probe -= LANE
    return mask


def _maximal_masks(masks: set[int]) -> list[int]:
    out = []
    for m in sorted(masks, key=lambda x: -x.bit_count()):
        if not any(m & k == m for k in out):
            out.append(m)
    return out


def lattice_rescan_betti(i: MonomialIdeal, field: FieldSpec,
                         face_budget: int = FACE_BUDGET,
                         lattice_budget: int = LATTICE_BUDGET) -> BettiTable:
    nv = len(i.vars)
    hi, val, ones = lane_masks(nv)
    gens = list(i.gens)
    entries: dict[tuple[int, int], int] = {}
    for b in _lcm_lattice(gens, hi, val, lattice_budget):
        b_hi = b | hi
        masks = {_packed_excess_mask(b, g, hi, ones, nv)
                 for g in gens if (b_hi - g) & hi == hi}
        common = ~0
        for m in masks:
            common &= m
        if common:
            continue  # a vertex lies in every facet: the complex is a cone
        maximal = _maximal_masks(masks)
        if len(maximal) == 1:
            if maximal[0] == 0:
                deg = packed_degree(b)
                entries[(0, deg)] = entries.get((0, deg), 0) + 1
            continue
        profile = _profile_from_masks(_closure(maximal, face_budget),
                                      field.characteristic)
        deg = packed_degree(b)
        for d, r in profile.items():
            key = (d + 1, deg)
            entries[key] = entries.get(key, 0) + r
    return BettiTable.from_dict(field, entries)


def twin_classes(g: Graph) -> set[frozenset[int]]:
    """The classes of two or more twins, true or false: u and v are twins
    when N(u) - {v} = N(v) - {u}, compared for every pair."""
    hoods = [set(g.neighbors(u)) for u in range(g.n)]
    classes = set()
    for u in range(g.n):
        twins = frozenset(v for v in range(g.n) if hoods[u] - {v} == hoods[v] - {u})
        if len(twins) > 1:
            classes.add(twins)
    return classes


# Reference for `evenconn.isolated_reduction_failures`: vertex sets as
# frozensets, the longest-walk endpoints recomputed from the pairs for
# every W, and every edge of the colon graph G', built by `colon_graph`,
# tested against sets.

def _closed_hood(g: Graph, u: int) -> frozenset[int]:
    return frozenset(g.neighbors(u)) | {u}


def certificate_holds(cert: tuple, g: Graph, m: tuple[tuple[int, int], ...]) -> bool:
    """For a certificate (path, assignments): the walk p_0 ... p_{2k+1}
    (k >= 1) runs along edges of G, and its odd positions carry multiset
    edges joining their ends, within their multiplicities."""
    path, assignments = cert
    if len(path) < 4 or len(path) % 2:
        return False
    if any(not g.has_edge(path[r], path[r + 1]) for r in range(len(path) - 1)):
        return False
    assigned = dict(assignments)
    if sorted(assigned) != list(range(1, len(path) - 2, 2)):
        return False
    if any({path[pos], path[pos + 1]} != set(e) for pos, e in assigned.items()):
        return False
    counts = Counter(m)
    usage: dict[tuple[int, int], int] = {}
    for e in assigned.values():
        usage[e] = usage.get(e, 0) + 1
    return all(counts.get(e, 0) >= c for e, c in usage.items())


def longest_walk_endpoints(pairs, w) -> set[int]:
    """Endpoints of the longest even-connected walks whose endpoints avoid
    W; empty when no even-connected pair avoids W."""
    eligible = [(a, b, k) for (a, b), k in pairs.items() if a not in w and b not in w]
    if not eligible:
        return set()
    kmax = max(k for _, _, k in eligible)
    return {x for a, b, k in eligible if k == kmax for x in (a, b)}


def frozenset_isolated_reduction_failures(g: Graph, pairs) -> list[tuple[frozenset[int], int]]:
    gp, _ = colon_graph(g, pairs)
    edges = gp.edges()
    hoods = [(_closed_hood(gp, u), _closed_hood(g, u)) for u in range(g.n)]
    out = []
    for bits in range(1 << g.n):
        w = frozenset(v for v in range(g.n) if bits >> v & 1)
        kept = [(a, b) for a, b in edges if a not in w and b not in w]
        for u in sorted(longest_walk_endpoints(pairs, w)):
            removed, blocked = hoods[u]
            if any(a >= g.n or b >= g.n or not g.has_edge(a, b) or a in blocked or b in blocked
                   for a, b in kept if a not in removed and b not in removed):
                out.append((w, u))
    return out


# Reference for `homology.hochster_supports`: its earlier route, which
# polarizes the ideal, decodes each polarized word bit by bit and renumbers
# the polarized variables that some generator uses.  The budgets are read
# from `homology` when called, so a test that patches them patches both.

def polarized_supports(i: MonomialIdeal) -> tuple[int, list[int]]:
    p = polarize(i)
    nv = len(p.vars)
    # a polarized generator is squarefree: its set bits are the low bits
    # LANE * j of its lanes j, and lane j holds variable nv - 1 - j
    supports_in_p = [sum(1 << (nv - 1 - b // LANE) for b in _bits(g)) for g in p.gens]
    used = sorted({k for m in supports_in_p for k in _bits(m)})
    n = len(used)
    if n > homology.VAR_BUDGET:
        raise BudgetError(f"variable budget {homology.VAR_BUDGET} exceeded: "
                          f"{n} polarized variables")
    if (1 << n) > homology.FACE_BUDGET:
        raise BudgetError(f"face budget {homology.FACE_BUDGET} exceeded")
    remap = {orig: idx for idx, orig in enumerate(used)}
    return n, sorted({sum(1 << remap[k] for k in _bits(m)) for m in supports_in_p})


# Reference for `invariants.local_regularity`: its earlier route, which takes
# the colon ideal (I(G) : x) over all of G's variables and reads the
# regularity off its Betti table, past the exact-ideal memo.

def colon_local_regularity(g: Graph, x: int, field: FieldSpec) -> int:
    i = edge_ideal(g)
    if i.is_zero:
        return 0
    return homology.graded_betti(colon_by_monomial(i, squarefree((x,), g.n)), field).regularity()


# Mutation tests: a package function with one source fragment replaced.

def mutant(func, old: str, new: str):
    """`func` recompiled with its one occurrence of `old` replaced by
    `new`, against its own module's namespace."""
    module = inspect.getmodule(func)
    src = inspect.getsource(func)
    assert src.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(src.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[func.__name__]


# Reference for `graphs._canonical_key`: the least adjacency code over every
# product of permutations of the refinement classes, one `_encode` per order.
# It shares only `_refinement_classes` with `graphs`, since the class order is
# part of what the code means.

def _encode(n: int, adj: tuple[int, ...], perm: tuple[int, ...]) -> int:
    # perm[new] = old; bit per pair (i < j) in lexicographic pair order
    code = 0
    for i in range(n):
        row = adj[perm[i]]
        for j in range(i + 1, n):
            code <<= 1
            code |= row >> perm[j] & 1
    return code


def permutation_product_key(n: int, adj: tuple[int, ...]) -> tuple[int, int]:
    classes = _refinement_classes(n, adj)
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        perm = tuple(itertools.chain.from_iterable(parts))
        code = _encode(n, adj, perm)
        if best is None or code < best:
            best = code
    return (n, best or 0)


def one_vertex_extensions(n: int):
    """(n, adj) for every way to join a new vertex n - 1 to a class
    representative on n - 1 vertices."""
    for h in enumerate_graphs(n - 1):
        for mask in range(1 << (n - 1)):
            yield n, tuple(h.adj[v] | (mask >> v & 1) << (n - 1) for v in range(n - 1)) + (mask,)
