"""Graded Betti numbers and Castelnuovo-Mumford regularity, exactly.

Two independent routes compute the same Betti table:

* the primary route takes reduced simplicial homology of the upper Koszul
  subcomplex (the complex of squarefree vectors t with x^(b-t) still in
  the ideal) at each point b of the lcm lattice of the minimal generators.
  A closure builds the lattice one generator at a time, then one facet
  read per point takes its facets off the guard bits of the packed
  differences b - g.  Both phases pack monomials in one int, a slot each,
  in the layout of `monomials` (`slot_size`, `pack_slots`, `unpack_slots`):
  64 bits up to 12 variables, else the fewest whole 8-byte words.  So a
  closure step costs a fixed number of big-int operations against the
  whole lattice (one `monus`), a facet read the same against every
  generator, and their words are unpacked into ints in C.  Each distinct
  set of maximal facets is closed and ranked once per process, in the
  memo;
* the oracle route polarizes the ideal, forms the associated
  Stanley-Reisner complex, and sums reduced homology of induced
  subcomplexes over the vertex subsets that are unions of minimal
  nonfaces (every other subset induces a cone), ranking each distinct
  induced complex once per call.  Its faces, facets and those unions are
  each one bitmap of 2^n bits.  Before ranking, an induced complex
  shrinks to its strong-collapse core: a vertex v is dominated when every
  facet through v also holds some other vertex, and deleting dominated
  vertices one at a time keeps the reduced homology over every field
  (Barmak-Minian, "Strong homotopy types, nerves and collapses", 2012).
  A core of one vertex is a point when that vertex is a face and
  {emptyset}, with rank(H_-1) = 1, when it is a nonface.  Over QQ a core
  is ranked over GF(2) first: dim H_k(QQ) <= dim H_k(GF(2)) in every
  degree k (universal coefficients, Hatcher, "Algebraic Topology", 3.A)
  and both sum with signs (-1)^k to the reduced Euler characteristic, so
  GF(2) homology in at most one degree is the rational homology.

The two routes build their complexes independently, so comparing them
detects silent bugs in either construction.  Neither reads the other's
tables: `graded_betti` keeps its complexes in the process-wide memo,
while `hochster_oracle` keeps its table for the length of one call and
never touches the memo, so a stale or wrongly keyed entry on one route
cannot reach the other.  They share only the rank routines of `linalg`,
and over QQ most oracle cores go through `rank_gf2`, not `matrix_rank`.
The primary route closes facets into faces (`_closure`), maximizes with
`_maximal_masks` and builds boundaries in `_profile_from_masks`; the
oracle reads faces and facets off its bitmap, maximizes with
`_inclusion_maximal` and builds boundaries in `_core_homology`, so a bug
in either builder shows up as a dual mismatch.  Only the oracle cores its
complexes: the primary route ranks each complex whole, so the dual check
compares a cored route against an uncored one and a wrong core shows up
as a mismatch.

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
from .linalg import matrix_rank, rank_gf2, rank_gf3
from .monomials import (LANE, MonomialIdeal, _plane_degree, edge_ideal, lane_masks, monus,
                        pack_slots, polarize, power, slot_ones, slot_size, unpack_slots)

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
    """Reduced homology ranks of a face set closed under subsets, as
    `_closure` makes it (void set -> empty).

    Level k holds the faces of k vertices in increasing order, and every
    level from 0 up to the largest face is nonempty.  The empty face, level
    0, is the single (-1)-dimensional cell, which realizes the augmented
    chain complex: a nonvoid complex therefore gets rank(H_-1) = 1 exactly
    when it has no vertices.  The boundary of a face with vertices
    v_0 < ... < v_k holds the face without v_p with sign (-1)^p.  Each field
    has one row encoding: ints for `rank_gf2`, (plus, minus) planes for
    `rank_gf3` and dicts for `matrix_rank` over QQ and primes p >= 5.
    """
    if not faces:
        return {}
    levels: list[list[int]] = [[] for _ in range(max(map(int.bit_count, faces)) + 1)]
    for f in sorted(faces):
        levels[f.bit_count()].append(f)
    ranks = [0] * (len(levels) + 1)  # ranks[k]: rank of the boundary of level k
    for k in range(1, len(levels)):
        target = {f: i for i, f in enumerate(levels[k - 1])}
        if characteristic == 2:
            rows = []
            for f in levels[k]:
                row, rest = 0, f
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row |= 1 << target[f ^ low]
                rows.append(row)
            ranks[k] = rank_gf2(rows)
        elif characteristic == 3:
            planes = []
            for f in levels[k]:
                cols = [1 << target[f ^ (1 << v)] for v in _bits(f)]
                planes.append((sum(cols[::2]), sum(cols[1::2])))
            ranks[k] = rank_gf3(planes)
        else:
            rows = [{target[f ^ (1 << v)]: -1 if pos % 2 else 1
                     for pos, v in enumerate(_bits(f))} for f in levels[k]]
            ranks[k] = matrix_rank(rows, characteristic)
    profile: dict[int, int] = {}
    for k, level in enumerate(levels):
        h = len(level) - ranks[k] - ranks[k + 1]
        if h:
            profile[k - 1] = h
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

    Two phases: `_lcm_lattice` closes the lattice one generator at a time,
    then each point's facets are read once.  The generators sit in one
    int, a slot each (`pack_slots`, slots of `slot_size(nv)` bytes: 64 bits
    while the 5 * nv bits of lanes and a flag bit above them fit, nv <= 12,
    else the fewest whole 8-byte words).  At a point b, subtracting that int
    from b repeated in every slot leaves a guard bit in each lane where
    b >= g, with no borrow between lanes or slots.  From it a fixed number
    of big-int operations give every divisor's facet, the guard-bit word of
    the lanes where b - g >= 1; the flag bit marks the non-divisors, whose
    facet words are cleared, and `unpack_slots` makes the words ints in C.
    Faces are words of guard bits rather than vertex bitmasks; the homology
    is the same.  A minimal generator is exactly a point whose only facet
    is the empty one, so the generators (minimal, as `MonomialIdeal`
    keeps them) count in beta_0 by their degrees and are not scanned;
    every other point has only nonempty facets.  No lane lies in every
    facet read (each lane of b is attained by some divisor, whose facet
    misses it), but a lane can lie in every maximal facet: that complex is
    a cone, with no reduced homology, and is still closed and ranked.

    Each distinct set of maximal facets is closed and ranked once per
    process: its face work and ranks are kept in the memo, one table per
    number of variables and characteristic, until `clear_caches()`.  A
    table hit checks the stored face work against the face budget, so a
    call raises `BudgetError` exactly when closing its complexes would;
    the closure raises it exactly when the lattice has more points than
    the lattice budget.
    """
    if i.is_zero:
        raise ValueError("Betti table of the zero ideal is undefined here")
    nv = len(i.vars)
    hi, _, ones = lane_masks(nv)
    width = LANE * nv
    gens = i.gens
    count = len(gens)
    size = slot_size(nv)
    rep = slot_ones(count, size)
    all_gens = pack_slots(gens, size)
    all_hi, all_ones = hi * rep, ones * rep
    all_lanes, all_top = ((1 << width) - 1) * rep, rep << width
    profiles = memo(("complexes", nv, field.characteristic), dict)
    entries: dict[tuple[int, int], int] = {}
    for g in gens:
        deg = _plane_degree(g, ones)
        entries[(0, deg)] = entries.get((0, deg), 0) + 1
    for b in _lcm_lattice(gens, nv, lattice_budget).difference(gens):
        diff = (b * rep | all_hi) - all_gens
        ge = diff & all_hi  # guard bit of each lane where b >= g
        flag = ((ge ^ all_hi) + all_lanes) & all_top  # the flag bit of each non-divisor
        divisors = all_lanes ^ (flag - (flag >> width))  # the lanes of the divisors' slots
        facets = set(unpack_slots((diff - all_ones) & all_hi & divisors, count, size))
        facets.discard(0)  # the non-divisors' slots
        maximal = _maximal_masks(facets)
        if len(maximal) == 1:
            continue  # a single nonempty facet is a full simplex: contractible
        # two or more facets, none of them empty: concatenating the words,
        # sorted by `_maximal_masks`, at `width` bits each is injective
        key = 0
        for f in maximal:
            key = key << width | f
        entry = profiles.get(key)
        if entry is None:
            work = sum(1 << f.bit_count() for f in maximal)
            ranks = _profile_from_masks(_closure(maximal, face_budget), field.characteristic)
            ranks = tuple(sorted(ranks.items()))
            entry = profiles[key] = memo(("profile", work, ranks), lambda: (work, ranks))
        elif entry[0] > face_budget:
            raise BudgetError(f"face budget {face_budget} exceeded")
        deg = _plane_degree(b, ones)
        for d, r in entry[1]:
            entries[(d + 1, deg)] = entries.get((d + 1, deg), 0) + r
    return BettiTable.from_dict(field, entries)


def _lcm_lattice(gens: Iterable[int], nv: int, lattice_budget: int) -> set[int]:
    """The lcm lattice of the generators (the lcms of their nonempty
    subsets), closed one generator at a time: L_k is L_{k-1}, g_k and the
    lcm of g_k with every point of L_{k-1}.  An lcm whose highest-index
    generator is g_k is lcm(lcm of the others, g_k), so the closure is
    complete.

    L_{k-1} is kept in one int, a point per slot of `slot_size(nv)` bytes,
    with every guard bit set.  One `monus` of g_k repeated in every slot
    gives every max(b - g_k, 0), and adding g_k gives every lcm(b, g_k) in
    a fixed number of big-int operations; `unpack_slots` makes them ints
    and the new points are a set difference.  The generators go in
    ascending integer order, which makes fewer lcms than stored or
    descending order.  The lattice only grows, so checking its size after
    each generator raises `BudgetError` exactly when it has more than
    `lattice_budget` points.
    """
    hi = lane_masks(nv)[0]
    size = slot_size(nv)
    lattice: set[int] = set()
    points = count = 0  # the points of `lattice`, guard bits set, in `count` slots
    for g in sorted(gens):
        rep = slot_ones(count, size)
        all_g = g * rep
        new = {g, *unpack_slots(all_g + monus(points, all_g, hi * rep), count, size)} - lattice
        lattice |= new
        if len(lattice) > lattice_budget:
            raise BudgetError(f"lcm lattice budget {lattice_budget} exceeded")
        points |= pack_slots([b | hi for b in new], size) << (8 * size * count)
        count += len(new)
    return lattice


def _maximal_masks(masks: set[int]) -> list[int]:
    """The maximal masks, in decreasing order: a superset is never the
    smaller int, so each mask is compared only with those kept before it."""
    out = []
    for m in sorted(masks, reverse=True):
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

    Only the unions of supports are visited (`_union_bitmap`).  Any other
    W has a cone vertex, one in no support inside W, so its induced
    complex is a cone with no reduced homology.  In a visited W every
    vertex lies in a support inside W.  Those supports, renumbered to the
    positions of W's vertices in increasing order, are the minimal
    nonfaces of the induced complex and therefore fix both the complex,
    up to that renumbering, and |W|.  Keyed on them as a frozenset of
    masks, a table local to the call ranks each distinct induced complex
    once.  The table is never shared: not across calls, and not with the
    memo that serves `graded_betti`.

    The faces are one bitmap per call, bit f set when f is a face
    (`_face_bitmap`), and the facets are read off it (`_facet_bitmap`).
    When the table misses for W, W first shrinks to its strong-collapse
    core W' (`_strong_core`), whose induced complex has the same reduced
    homology over every field.  A core of two or more vertices has no
    dominated vertex, so no cone vertex: it is looked up under its own key
    in the same table and, on a miss, ranked by `_core_homology` from the
    subsets of W' that the bitmap marks as faces (over QQ, from GF(2) ranks
    when they certify it).  A one-vertex core is a point, with no reduced
    homology, when its vertex is a face; when it is a nonface the complex
    is {emptyset}, with rank(H_-1) = 1.  Either way the result is stored
    under W's key too.

    Independent of `graded_betti` by construction: its faces, facets,
    boundary matrices and facet maximization are its own, and only the
    rank routines of `linalg` are shared.  Used as the second route in
    every dual-oracle check.  Only this route is cored: the primary route
    ranks its complexes whole, so a wrong core shows up as a disagreement
    between the two.
    """
    if i.is_zero:
        raise ValueError("Betti table of the zero ideal is undefined here")
    n, supports = hochster_supports(i, var_budget, face_budget)
    without = _without(n)
    faces = _face_bitmap(supports, without)
    facets = _members(_facet_bitmap(faces, without))
    face_bytes = faces.to_bytes((1 << n >> 3) + 1, "little")  # bit f is bit f & 7 of byte f >> 3
    profiles: dict[frozenset[int], dict[int, int]] = {}
    entries: dict[tuple[int, int], int] = {}

    def table_key(w: int, inner: list[int]) -> frozenset[int]:
        place = {}  # the bit of each vertex of W -> the bit of its position in W
        rest, bit = w, 1
        while rest:
            low = rest & -rest
            rest ^= low
            place[low] = bit
            bit <<= 1
        renumbered = set()
        for s in inner:
            m = 0
            while s:
                low = s & -s
                s ^= low
                m |= place[low]
            renumbered.add(m)
        return frozenset(renumbered)

    for w in _members(_union_bitmap(supports, without)):
        inner = [s for s in supports if s & w == s]
        key = table_key(w, inner)
        profile = profiles.get(key)
        if profile is None:
            core = _strong_core(w, facets)
            if core.bit_count() == 1:
                profile = {} if face_bytes[core >> 3] >> (core & 7) & 1 else {-1: 1}
            else:
                core_key = key if core == w else table_key(
                    core, [s for s in inner if s & core == s])
                profile = profiles.get(core_key)
                if profile is None:
                    profile = _core_homology(core, face_bytes, field.characteristic)
                    profiles[core_key] = profile
            profiles[key] = profile
        j = w.bit_count()
        for d, r in profile.items():
            idx = j - d - 2
            if idx >= 0:
                entries[(idx, j)] = entries.get((idx, j), 0) + r
    return BettiTable.from_dict(field, entries)


# The oracle's tables hold sets of vertex subsets of range(n) as 2^n-bit
# ints, bit f set when the subset f is in the set.

def _without(n: int) -> list[int]:
    """without[v]: the subsets that miss v.  Its bits repeat with period
    2^(v+1), the low half set, so it is that half times the base-2^(v+1)
    repunit of 2^n bits, which one big-int division gives."""
    everything = (1 << (1 << n)) - 1
    return [((1 << (1 << v)) - 1) * (everything // ((1 << (2 << v)) - 1)) for v in range(n)]


def _face_bitmap(supports: Iterable[int], without: list[int]) -> int:
    """The faces: the subsets that hold no support.  The nonfaces are the
    supports closed upward one vertex v at a time, each nonface that
    misses v moved up by 2^v to the nonface that adds it."""
    nonfaces = 0
    for s in supports:
        nonfaces |= 1 << s
    for v, low in enumerate(without):
        nonfaces |= (nonfaces & low) << (1 << v)
    return ((1 << (1 << len(without))) - 1) ^ nonfaces


def _facet_bitmap(faces: int, without: list[int]) -> int:
    """The facets: the faces f with no face f + v for a vertex v not in f,
    that is no face 2^v bits above a subset that misses v."""
    extendable = 0
    for v, low in enumerate(without):
        extendable |= faces >> (1 << v) & low
    return faces & ~extendable


def _union_bitmap(supports: Iterable[int], without: list[int]) -> int:
    """The unions of nonempty sets of supports, closed one support at a
    time as `_lcm_lattice` closes generators: U_k is U_{k-1}, s_k and
    u | s_k for every u in U_{k-1}.  For each v in s_k, u -> u + v moves
    the subsets that miss v up by 2^v and keeps the others."""
    unions = 0
    for s in supports:
        moved = unions
        for v in _bits(s):
            moved = moved & ~without[v] | (moved & without[v]) << (1 << v)
        unions |= moved | 1 << s
    return unions


def _members(bitmap: int) -> list[int]:
    """The subsets in a bitmap, in increasing order: the positions of its
    set bits, found by `str.find` in its binary digits reversed, where
    position k is index k."""
    digits = bin(bitmap)[:1:-1]
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


def _core_homology(core: int, face_bytes: bytes, characteristic: int) -> dict[int, int]:
    """Reduced homology ranks of the complex induced on `core`, whose faces
    are the subsets of core that the face bitmap marks (bit f & 7 of byte
    f >> 3 of `face_bytes`).  The empty face is the one cell of dimension
    -1.  The boundary of a face with vertices v_0 < ... < v_k holds the
    face without v_p with sign (-1)^p.  Its rows are built straight into
    the encodings of `linalg`: ints for `rank_gf2`, (ones, twos) planes
    for `rank_gf3` and dicts for `matrix_rank` over every other field.

    Over QQ the core is ranked over GF(2) first.  By the universal
    coefficient theorem (Hatcher, "Algebraic Topology", 3.A) each rational
    rank is at most the GF(2) rank in its degree, and both alternating sums
    are the reduced Euler characteristic, so a GF(2) profile in at most one
    degree is the QQ profile.  GF(p) ranks do not follow from GF(2) ranks,
    so only QQ does this; a core whose GF(2) homology has two degrees (or
    2-torsion, as RP^2) is ranked again over QQ by `matrix_rank`."""
    by_size: dict[int, list[int]] = {}
    sub = core
    while True:
        if face_bytes[sub >> 3] >> (sub & 7) & 1:
            by_size.setdefault(sub.bit_count(), []).append(sub)
        if not sub:
            break
        sub = (sub - 1) & core
    top = max(by_size)  # faces are closed under subsets: every size up to top occurs
    cols = [{f: c for c, f in enumerate(by_size[k])} for k in range(top)]
    for p in (2, 0) if characteristic == 0 else (characteristic,):
        ranks = [0] * (top + 2)  # ranks[k]: rank of the boundary of the faces of k vertices
        for k in range(1, top + 1):
            col = cols[k - 1]
            if p in (2, 3):
                planes = []
                for f in by_size[k]:
                    plus = minus = 0  # the columns of sign 1 and of sign -1
                    rest = f
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        plus |= 1 << col[f ^ low]
                        if rest:
                            low = rest & -rest
                            rest ^= low
                            minus |= 1 << col[f ^ low]
                    planes.append((plus, minus))
                ranks[k] = (rank_gf3(planes) if p == 3
                            else rank_gf2([plus | minus for plus, minus in planes]))
                continue
            rows = []
            for f in by_size[k]:
                row, rest, sign = {}, f, 1
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row[col[f ^ low]] = sign
                    sign = -sign
                rows.append(row)
            ranks[k] = matrix_rank(rows, p)
        profile = {}
        for k, fs in by_size.items():
            h = len(fs) - ranks[k] - ranks[k + 1]
            if h:
                profile[k - 1] = h
        if p == characteristic or len(profile) <= 1:  # GF(2) homology in one degree is QQ's
            return profile


def _strong_core(w: int, facets: Iterable[int]) -> int:
    """The vertex set W' left after deleting dominated vertices from W one
    at a time until none is left.  A vertex v is dominated when every
    facet of the induced complex through v also holds some other vertex u;
    a vertex that is a nonface lies in no facet, so any other vertex
    dominates it.  Deleting a dominated vertex is a strong collapse
    (Barmak-Minian), so the complex induced on W' has the reduced homology
    of the one on W over every field; what is left on two or more
    vertices is a complex with no dominated vertex.

    `facets` are the facets of the whole complex.  The facets induced on
    W are the maximal sets among the F & W (`_inclusion_maximal`), and
    deleting v leaves the complex induced on W minus v.
    """
    tops = _inclusion_maximal({f & w for f in facets})
    removed = True
    while removed:
        removed = False
        for v in list(_bits(w)):
            bit = 1 << v
            common = w
            for f in tops:
                if f & bit:
                    common &= f
                    if common == bit:
                        break
            if common != bit:  # another vertex lies in every facet through v
                w ^= bit
                tops = _inclusion_maximal({f & w for f in tops})
                removed = True
    return w


def _inclusion_maximal(masks: set[int]) -> list[int]:
    """The masks that no other mask contains: by decreasing size, a mask
    is kept unless one kept before it, which is no smaller, contains it."""
    out = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for k in out:
            if m & k == m:
                break
        else:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# regularity and the memo of derived values

# One process-wide memo for every derived value the harness asks for more
# than once.  The first element of a key names the kind of value:
# ("reg^s", n, code, s, char) is reg I(G)^s for the graphs with canonical
# key (n, code), ("reg", ideal, char) is any other regularity, and
# `invariants` stores each invariant under (name, n, code, ...).
# `graded_betti` keeps its complexes under ("complexes", nv, char): a dict
# from the complex's maximal facets (sorted guard-bit words of an nv-variable
# ideal, concatenated into one int) to (face work, ranks).  The face work is
# the sum of 2^|F| over the maximal facets F, which a table hit checks
# against the face budget; the ranks are the reduced homology ranks, a tuple
# of (dimension, rank) pairs.  Each distinct pair is kept once, under
# ("profile", face work, ranks).
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
    regularities of powers, the only values persisted on disk, sorted so
    that they do not depend on the order they were computed in."""
    return sorted([*key[1:], reg] for key, reg in _MEMO.items() if key[0] == "reg^s")


def cache_restore(payload: object) -> None:
    """Load entries written by `cache_snapshot`, all or nothing: unless the
    payload is a list of five-int lists, nothing is restored."""
    if not isinstance(payload, list) or not all(
            isinstance(entry, list) and len(entry) == 5
            and all(type(x) is int for x in entry) for entry in payload):
        return
    for entry in payload:
        _MEMO[("reg^s", *entry[:4])] = entry[4]
