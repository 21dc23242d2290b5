"""Graded Betti numbers and Castelnuovo-Mumford regularity, exactly.

Two independent routes compute the same Betti table:

* the primary route takes reduced simplicial homology of the upper Koszul
  subcomplex (the complex of squarefree vectors t with x^(b-t) still in
  the ideal) at each point b of the lcm lattice of the minimal generators.
  One pass builds the lattice and reads each point's facets off the
  guard bits of the packed differences b - g, and each distinct set of
  maximal facets is closed and ranked once per process, in the memo;
* the oracle route polarizes the ideal, forms the associated
  Stanley-Reisner complex, and sums reduced homology of induced
  subcomplexes over all vertex subsets, ranking each distinct induced
  complex once per call.

The two routes build their complexes independently, so comparing them
detects silent bugs in either construction.  Neither reads the other's
tables: `graded_betti` keeps its complexes in the process-wide memo,
while `hochster_oracle` keeps its table for the length of one call and
never touches the memo, so a stale or wrongly keyed entry on one route
cannot reach the other.  They are not fully independent: besides the
rank routines in `linalg`, both take homology through
`_profile_from_masks`, so a bug there can hit both alike.

Conventions: the empty complex {emptyset} has homology of rank one in
dimension -1 and the void complex (no faces at all) has none anywhere.
Betti tables are tables of the ideal itself, so beta_{0,j} counts minimal
generators of degree j and regularity is max(j - i) over nonzero entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterable

from .graphs import Graph, _bits, canonical_key
from .linalg import matrix_rank, rank_gf2
from .monomials import (LANE, MonomialIdeal, edge_ideal, lane_masks, packed_degree,
                        polarize, power)

DEFAULT_FACE_BUDGET = 1 << 20
DEFAULT_VAR_BUDGET = 22
DEFAULT_LATTICE_BUDGET = 200_000


class BudgetError(RuntimeError):
    """A homology computation exceeded its configured size budget."""


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (rationals) or a prime p."""

    characteristic: int = 2

    def __post_init__(self):
        c = self.characteristic
        if c == 0:
            return
        if c < 2 or any(c % d == 0 for d in range(2, isqrt(c) + 1)):
            raise ValueError(f"characteristic must be 0 or prime, got {c}")


GF2 = FieldSpec(2)
QQ = FieldSpec(0)


# ---------------------------------------------------------------------------
# internal machinery on bitmask faces

def _closure(facet_masks: Iterable[int], face_budget: int) -> set[int]:
    faces: set[int] = set()
    work = 0
    for m in facet_masks:
        work += 1 << m.bit_count()
        if work > face_budget:
            raise BudgetError(f"face budget {face_budget} exceeded")
        sub = m
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    return faces


def _profile_from_masks(faces: set[int], characteristic: int) -> dict[int, int]:
    """Reduced homology ranks of an explicit face set (void set -> empty).

    The empty face participates as the single (-1)-dimensional cell, which
    realizes the augmented chain complex: a nonvoid complex therefore gets
    rank(H_-1) = 1 exactly when it has no vertices.
    """
    if not faces:
        return {}
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    for d in by_dim:
        by_dim[d].sort()
    dims = sorted(by_dim)
    max_d = dims[-1]
    boundary_rank: dict[int, int] = {}
    for d in range(0, max_d + 1):
        if d not in by_dim or d - 1 not in by_dim:
            boundary_rank[d] = 0
            continue
        target = {f: i for i, f in enumerate(by_dim[d - 1])}
        if characteristic == 2:
            rows = []
            for f in by_dim[d]:
                row = 0
                for v in _bits(f):
                    row |= 1 << target[f ^ (1 << v)]
                rows.append(row)
            boundary_rank[d] = rank_gf2(rows)
        else:
            rows = [{target[f ^ (1 << v)]: -1 if pos % 2 else 1
                     for pos, v in enumerate(_bits(f))} for f in by_dim[d]]
            boundary_rank[d] = matrix_rank(rows, characteristic)
    profile: dict[int, int] = {}
    for d in dims:
        h = len(by_dim[d]) - boundary_rank.get(d, 0) - boundary_rank.get(d + 1, 0)
        if h:
            profile[d] = h
    return profile


# ---------------------------------------------------------------------------
# Betti tables

@dataclass(frozen=True)
class BettiTable:
    """Nonzero graded Betti numbers beta_{i,j} of a monomial ideal."""

    field: FieldSpec
    entries: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, field: FieldSpec, d: dict[tuple[int, int], int]) -> "BettiTable":
        return cls(field, tuple(sorted((k, v) for k, v in d.items() if v)))

    def betti(self, i: int, j: int) -> int:
        return dict(self.entries).get((i, j), 0)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def regularity(self) -> int:
        return max(j - i for (i, j), _ in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.characteristic,
            "betti": [[i, j, r] for (i, j), r in self.entries],
            "reg": self.regularity(),
        }


def graded_betti(i: MonomialIdeal, field: FieldSpec = GF2,
                 face_budget: int = DEFAULT_FACE_BUDGET,
                 lattice_budget: int = DEFAULT_LATTICE_BUDGET) -> BettiTable:
    """Betti table via upper Koszul homology at every lcm-lattice point.

    One pass builds the lcm lattice and reads each point's complex off it.
    Expanding a point b against a generator g either finds that g divides
    b (no lane of b - g borrows) or adds lcm(b, g) to the lattice.  A
    divisor's facet is the guard-bit word of the lanes where b - g >= 1,
    so faces are words of guard bits rather than vertex bitmasks; the
    homology is the same.  No vertex lies in every facet (each lane of b
    is attained by some divisor, whose facet misses it), so no complex is
    a cone that could be skipped.  Each distinct set of maximal facets is
    closed and ranked once per process: its profile is kept in the memo,
    one table per number of variables and characteristic, until
    `clear_caches()`.  A table hit still checks the face budget, so a call
    raises `BudgetError` exactly when closing its complexes would.
    """
    if i.is_zero:
        raise ValueError("Betti table of the zero ideal is undefined here")
    nv = len(i.vars)
    hi, val, ones = lane_masks(nv)
    width = LANE * nv
    gens = i.gens
    shift = LANE - 1
    lattice = set(gens)
    todo = list(gens)
    profiles = memo(("complexes", nv, field.characteristic), dict)
    entries: dict[tuple[int, int], int] = {}
    while todo:
        b = todo.pop()
        b_hi = b | hi
        facets = set()
        for g in gens:
            diff = b_hi - g
            ge = diff & hi
            if ge == hi:
                facets.add((diff - ones) & hi)
                continue
            sel = ge - (ge >> shift)
            m = (b & sel) | (g & val & ~sel)
            if m not in lattice:
                lattice.add(m)
                todo.append(m)
                if len(lattice) > lattice_budget:
                    raise BudgetError(f"lcm lattice budget {lattice_budget} exceeded")
        maximal = _maximal_masks(facets)
        if len(maximal) == 1:
            # a single facet is a full simplex: contractible unless it is
            # just the empty face, in which case b is a minimal generator
            if maximal[0] == 0:
                deg = packed_degree(b)
                entries[(0, deg)] = entries.get((0, deg), 0) + 1
            continue
        # two or more facets, none of them empty: concatenating the sorted
        # words at `width` bits each is injective
        key = 0
        for f in sorted(maximal):
            key = key << width | f
        profile = profiles.get(key)
        if profile is None:
            ranks = _profile_from_masks(_closure(maximal, face_budget), field.characteristic)
            ranks = tuple(sorted(ranks.items()))
            profile = profiles[key] = memo(("profile", ranks), lambda: ranks)
        elif sum(1 << f.bit_count() for f in maximal) > face_budget:
            raise BudgetError(f"face budget {face_budget} exceeded")
        deg = packed_degree(b)
        for d, r in profile:
            entries[(d + 1, deg)] = entries.get((d + 1, deg), 0) + r
    return BettiTable.from_dict(field, entries)


def _maximal_masks(masks: set[int]) -> list[int]:
    out = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for k in out:
            if m & k == m:
                break
        else:
            out.append(m)
    return out


def hochster_supports(i: MonomialIdeal, var_budget: int = DEFAULT_VAR_BUDGET,
                      face_budget: int = DEFAULT_FACE_BUDGET) -> tuple[int, list[int]]:
    """(n, supports) for `hochster_oracle`: the supports of the polarized
    generators as bitmasks over the n polarized variables they use,
    renumbered 0..n-1.  Raises `BudgetError` when n exceeds var_budget or
    the 2^n vertex subsets exceed face_budget, so a caller can check the
    oracle's budgets before running it."""
    p, _ = polarize(i)
    nv = len(p.vars)
    # a polarized generator is squarefree: its set bits are the low bits
    # LANE * j of its lanes j, and lane j holds variable nv - 1 - j
    supports_in_p = [sum(1 << (nv - 1 - b // LANE) for b in _bits(g)) for g in p.gens]
    used = sorted({k for m in supports_in_p for k in _bits(m)})
    n = len(used)
    if n > var_budget:
        raise BudgetError(f"variable budget {var_budget} exceeded: {n} polarized variables")
    if (1 << n) > face_budget:
        raise BudgetError(f"face budget {face_budget} exceeded")
    remap = {orig: idx for idx, orig in enumerate(used)}
    return n, sorted({sum(1 << remap[k] for k in _bits(m)) for m in supports_in_p})


def hochster_oracle(i: MonomialIdeal, field: FieldSpec = GF2,
                    var_budget: int = DEFAULT_VAR_BUDGET,
                    face_budget: int = DEFAULT_FACE_BUDGET) -> BettiTable:
    """Betti table of the polarization read off the Stanley-Reisner complex:
    each vertex subset W contributes its induced subcomplex's reduced
    homology at dimension |W| - i - 2 to beta_{i,|W|}.

    Subsets with a cone vertex (one in no support inside W) are skipped,
    so every vertex of W lies in a support inside W.  Those supports,
    renumbered to the positions of W's vertices in increasing order, are
    the minimal nonfaces of the induced complex and therefore fix both
    the complex, up to that renumbering, and |W|.  Keyed on them as a
    frozenset of masks, a table local to the call ranks each distinct
    induced complex once.  The table is never shared: not across calls,
    and not with the memo that serves `graded_betti`.

    Independent of `graded_betti` by construction; used as the second
    route in every dual-oracle check.
    """
    if i.is_zero:
        raise ValueError("Betti table of the zero ideal is undefined here")
    n, supports = hochster_supports(i, var_budget, face_budget)
    faces = [f for f in range(1 << n) if not any(s & f == s for s in supports)]
    profiles: dict[frozenset[int], dict[int, int]] = {}
    entries: dict[tuple[int, int], int] = {}
    for w in range(1, 1 << n):
        inner = [s for s in supports if s & w == s]
        covered = 0
        for s in inner:
            covered |= s
        if w & ~covered:
            continue  # cone vertex inside W
        pos = list(_bits(w))  # W's vertices in increasing order
        key = frozenset(sum(1 << k for k, v in enumerate(pos) if s >> v & 1) for s in inner)
        profile = profiles.get(key)
        if profile is None:
            sub_faces = {f for f in faces if f & w == f}
            profile = profiles[key] = _profile_from_masks(sub_faces, field.characteristic)
        j = w.bit_count()
        for d, r in profile.items():
            idx = j - d - 2
            if idx >= 0:
                entries[(idx, j)] = entries.get((idx, j), 0) + r
    return BettiTable.from_dict(field, entries)


# ---------------------------------------------------------------------------
# regularity and the memo of derived values

# One process-wide memo for every derived value the harness asks for more
# than once.  The first element of a key names the kind of value:
# ("reg^s", n, code, s, char) is reg I(G)^s for the graphs with canonical
# key (n, code), ("reg", ideal, char) is any other regularity, and
# `invariants` stores each invariant under (name, n, code, ...).
# `graded_betti` keeps its complexes under ("complexes", nv, char): a dict
# from the complex's maximal facets (sorted guard-bit words of an nv-variable
# ideal, concatenated into one int) to its reduced homology ranks, a tuple of
# (dimension, rank) pairs kept once under ("profile", ranks).
_MEMO: dict[tuple, object] = {}


def memo(key: tuple, compute: Callable[[], object]):
    """The value stored under key, computed by compute() on first use."""
    if key not in _MEMO:
        _MEMO[key] = compute()
    return _MEMO[key]


def regularity(i: MonomialIdeal, field: FieldSpec = GF2) -> int:
    """max { j - i : beta_{i,j} != 0 }; rejects the zero ideal.  Memoized
    on the exact ideal (universe and generators) and the characteristic."""
    return memo(("reg", i, field.characteristic),
                lambda: graded_betti(i, field).regularity())


def regularity_of_power(g: Graph, s: int = 1, field: FieldSpec = GF2) -> int:
    """Regularity of I(G)^s, memoized on the isomorphism class of g."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return memo(("reg^s", *canonical_key(g), s, field.characteristic),
                lambda: regularity(power(edge_ideal(g), s), field))


def clear_caches() -> None:
    """Forget every memoized value: regularities, graph invariants and the
    homology of every complex ranked."""
    _MEMO.clear()


def cache_snapshot() -> list[list]:
    """JSON-ready [n, code, s, char, reg] entries of the memoized
    regularities of powers, the only values persisted on disk."""
    return [[*key[1:], reg] for key, reg in _MEMO.items() if key[0] == "reg^s"]


def cache_restore(payload: object) -> None:
    """Load entries written by `cache_snapshot`, all or nothing: unless the
    payload is a list of five-int lists, nothing is restored."""
    if not isinstance(payload, list) or not all(
            isinstance(entry, list) and len(entry) == 5
            and all(type(x) is int for x in entry) for entry in payload):
        return
    for entry in payload:
        _MEMO[("reg^s", *entry[:4])] = entry[4]
