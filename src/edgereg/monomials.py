"""Exact monomial-ideal arithmetic.

A monomial is a finitely supported exponent map on string variables.  A
monomial ideal stores an explicit ordered variable universe plus its
minimal generating antichain, sorted in graded lexicographic order so that
serialized output is reproducible.

Below the input/output boundary every exponent vector is one packed
integer, a word, with a 5-bit lane per variable (4 value bits plus a guard
bit), the first variable of the universe in the highest lane.
Componentwise sums, truncated differences, maxima and divisibility tests
are then a handful of integer operations, a divisor never exceeds its
multiple as an integer, and descending integer order is lexicographic
order.  The price is an exponent cap of LANE_MAX = 15: `ideal` and `power`
raise ValueError above it.  Words are made here alone (`squarefree`,
`packed_ideal`, `EdgeMultiset.packed_product`), and `colon_by_monomial`
takes a word.  Many words share one int in `pack_slots`' slots, on which
`monus` acts as on one word.  `Monomial` and strings remain only where
text enters or leaves: `pack_capped` for the CLI's `--colon` and
`contains`, and `generators()` for printed ideals and violation records.
"""
from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .graphs import Graph, GraphError


@dataclass(frozen=True)
class Monomial:
    """Finitely supported exponent vector, e.g. Monomial.parse("x0^2*x1")."""

    exps: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if any(e <= 0 for _, e in self.exps):
            raise ValueError("exponents must be positive in normalized form")
        if list(self.exps) != sorted(self.exps):
            raise ValueError("exponent entries must be sorted by variable")

    @classmethod
    def from_dict(cls, d: Mapping[str, int]) -> "Monomial":
        return cls(tuple(sorted((v, e) for v, e in d.items() if e)))

    @classmethod
    def one(cls) -> "Monomial":
        return cls(())

    @classmethod
    def parse(cls, text: str) -> "Monomial":
        """Accepts "1" or products like "x0*x1^2"."""
        text = text.strip()
        if text in ("", "1"):
            return cls.one()
        d: dict[str, int] = {}
        for tok in text.split("*"):
            name, _, e = tok.strip().partition("^")
            if not name:
                raise ValueError(f"bad monomial token {tok!r}")
            d[name] = d.get(name, 0) + (int(e) if e else 1)
        return cls.from_dict(d)

    def as_dict(self) -> dict[str, int]:
        return dict(self.exps)

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def support(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.exps)

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


# ---------------------------------------------------------------------------
# packed exponent vectors

LANE = 5
LANE_MAX = 15


@lru_cache(maxsize=None)
def lane_masks(nv: int) -> tuple[int, int, int]:
    """(guard bits, value bits, lowest bit) of every lane, for nv lanes."""
    ones = sum(1 << (LANE * k) for k in range(nv))
    return ones << (LANE - 1), ones * LANE_MAX, ones


def pack(exps: Iterable[int]) -> int:
    """Exponent vector -> packed integer, first exponent in the highest lane."""
    out = 0
    for e in exps:
        if not 0 <= e <= LANE_MAX:
            raise ValueError(f"exponent {e} outside the packed-lane range 0..{LANE_MAX}")
        out = out << LANE | e
    return out


def unpack(g: int, nv: int) -> tuple[int, ...]:
    return tuple(g >> (LANE * k) & LANE_MAX for k in range(nv - 1, -1, -1))


def _plane_degree(g: int, ones: int) -> int:
    # the sum of the lanes, from the popcounts of the four value bit planes
    return ((g & ones).bit_count() + 2 * (g >> 1 & ones).bit_count()
            + 4 * (g >> 2 & ones).bit_count() + 8 * (g >> 3 & ones).bit_count())


def packed_degree(g: int) -> int:
    return _plane_degree(g, lane_masks(-(-g.bit_length() // LANE))[2])


def packed_divides(a: int, b: int, hi: int) -> bool:
    # no lane of b - a borrows  <=>  a <= b componentwise
    return ((b | hi) - a) & hi == hi


def packed_lcm(a: int, b: int, hi: int) -> int:
    return b + monus(a | hi, b, hi)


def monus(a: int, b: int, hi: int) -> int:
    """The lane-wise difference a - b truncated at zero, on one word or on
    packed slots.  `hi` holds the guard bit of every lane and `a` must have
    all of them set, so no lane borrows from the next."""
    diff = a - b
    ge = diff & hi  # guard bit of each lane where a >= b
    return diff & (ge - (ge >> (LANE - 1)))


def slot_size(nv: int) -> int:
    """Bytes per slot of packed nv-variable words: the lanes and a flag bit
    above them, in the fewest whole 8-byte words (one up to 12 variables)."""
    return 8 * (LANE * nv // 64 + 1)


def slot_ones(count: int, size: int) -> int:
    """The lowest bit of each of `count` slots: w * slot_ones is w in each."""
    return int.from_bytes((b"\1" + bytes(size - 1)) * count, "little")


def pack_slots(words: Iterable[int], size: int) -> int:
    """The words in one int, a slot of `size` bytes each, the first in the
    lowest: the inverse of `unpack_slots`."""
    if size == 8:
        return int.from_bytes(array("Q", words).tobytes(), sys.byteorder)
    return int.from_bytes(b"".join(w.to_bytes(size, sys.byteorder) for w in words),
                          sys.byteorder)


def unpack_slots(x: int, count: int, size: int):
    """The `count` slots of `size` bytes that make up x, as ints.  One-word
    slots are read by `memoryview.cast`, so their ints are made in C; wider
    slots by one `int.from_bytes` each."""
    raw = x.to_bytes(count * size, sys.byteorder)
    if size == 8:
        return memoryview(raw).cast("Q")
    return [int.from_bytes(raw[k:k + size], sys.byteorder) for k in range(0, len(raw), size)]


def squarefree(verts: Iterable[int], nv: int) -> int:
    """The word of the product of the variables at the distinct positions
    `verts` of an nv-variable universe."""
    return sum(1 << (LANE * (nv - 1 - v)) for v in verts)


def pack_capped(m: Monomial, vars: tuple[str, ...]) -> int:
    """`m` as a word over `vars`.  Variables outside the universe are
    dropped and exponents capped at LANE_MAX: neither changes divisibility
    by (or colons of) generators."""
    d = m.as_dict()
    return pack(min(d.get(v, 0), LANE_MAX) for v in vars)


def _check_words(words: Iterable[int], nv: int, what: str) -> None:
    # every lane in range and no guard bit set
    hi, top = lane_masks(nv)[0], 1 << (LANE * nv)
    if any(not 0 <= g < top or g & hi for g in words):
        raise ValueError(f"malformed packed {what}")


def _minimal(gens: Iterable[int], nv: int) -> tuple[int, ...]:
    """Divisibility antichain in graded, then lexicographically descending
    order.  A proper divisor has a lower degree, so the candidates are
    bucketed by degree and each is tested only against the generators
    kept from lower degrees."""
    hi, _, ones = lane_masks(nv)
    buckets: dict[int, list[int]] = {}
    for g in set(gens):
        buckets.setdefault(_plane_degree(g, ones), []).append(g)
    kept: list[int] = []
    for d in sorted(buckets):
        fresh = []
        for g in sorted(buckets[d], reverse=True):
            g_hi = g | hi
            for k in kept:
                if (g_hi - k) & hi == hi:
                    break
            else:
                fresh.append(g)
        kept += fresh
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generators over an ordered universe, each a packed integer
    with the first variable of `vars` in the highest lane and every
    exponent at most LANE_MAX = 15."""

    vars: tuple[str, ...]
    gens: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variables in universe")
        _check_words(self.gens, len(self.vars), "generator")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def generators(self) -> list[Monomial]:
        nv = len(self.vars)
        return [Monomial(tuple(sorted((v, e) for v, e in zip(self.vars, unpack(g, nv)) if e)))
                for g in self.gens]

    def generator_degrees(self) -> list[int]:
        return [packed_degree(g) for g in self.gens]

    def contains(self, m: Monomial) -> bool:
        hi = lane_masks(len(self.vars))[0]
        b = pack_capped(m, self.vars)
        return any(packed_divides(g, b, hi) for g in self.gens)

    def same_ideal_as(self, other: "MonomialIdeal") -> bool:
        """Equality of generating sets irrespective of universe order or of
        unused variables."""
        return self._named_gens() == other._named_gens()

    def _named_gens(self) -> set[frozenset[tuple[str, int]]]:
        nv = len(self.vars)
        return {frozenset((v, e) for v, e in zip(self.vars, unpack(g, nv)) if e)
                for g in self.gens}

    def to_json_dict(self) -> dict:
        nv = len(self.vars)
        return {"vars": list(self.vars), "gens": [list(unpack(g, nv)) for g in self.gens]}

    def __str__(self):
        return "(" + ", ".join(str(m) for m in self.generators()) + ")" if self.gens else "(0)"


def ideal(gens: Iterable[Monomial | Mapping[str, int]],
          vars: Iterable[str] | None = None) -> MonomialIdeal:
    """Minimalize `gens` into a MonomialIdeal.  When `vars` is omitted the
    universe is the sorted union of supports."""
    monos = [g if isinstance(g, Monomial) else Monomial.from_dict(g) for g in gens]
    if vars is None:
        universe = tuple(sorted(set().union(*(m.support() for m in monos)) if monos else set()))
    else:
        universe = tuple(vars)
    index = {v: k for k, v in enumerate(universe)}
    packed = []
    for m in monos:
        exps = [0] * len(universe)
        for v, e in m.exps:
            if v not in index:
                raise ValueError(f"variable {v} outside universe")
            exps[index[v]] = e
        packed.append(pack(exps))
    if 0 in packed:
        raise ValueError("unit generator: the unit ideal is out of scope")
    return packed_ideal(universe, packed)


def packed_ideal(vars: tuple[str, ...], words: Iterable[int]) -> MonomialIdeal:
    """Minimalize words over `vars` into a MonomialIdeal."""
    return MonomialIdeal(vars, _minimal(words, len(vars)))


def zero_ideal(vars: Iterable[str] = ()) -> MonomialIdeal:
    return MonomialIdeal(tuple(vars), ())


# ---------------------------------------------------------------------------
# edge ideals and friends

def edge_ideal(g: Graph) -> MonomialIdeal:
    """I(G), generated by x_u x_v over the edges; the universe is every
    vertex label, including isolated vertices."""
    return packed_ideal(g.labels, (squarefree(e, g.n) for e in g.edges()))


def power(i: MonomialIdeal, s: int) -> MonomialIdeal:
    """Minimal generators of i^s (s >= 1).  Raises ValueError when a product
    of s generators has an exponent above LANE_MAX."""
    if s < 1:
        raise ValueError("power requires s >= 1 (the unit ideal is out of scope)")
    if i.is_zero:
        return i
    hi = lane_masks(len(i.vars))[0]
    gens = set(i.gens)
    for _ in range(s - 1):
        # lanes hold at most 15 + 15, so a sum never carries into the next
        # lane and any exponent above 15 shows up as a guard bit
        gens = {a + b for a in gens for b in i.gens}
        if any(g & hi for g in gens):
            raise ValueError(f"an exponent of the power exceeds the packed-lane maximum {LANE_MAX}")
    return packed_ideal(i.vars, gens)


def colon_by_monomial(i: MonomialIdeal, m: int) -> MonomialIdeal:
    """(i : m) = minimalized { g / gcd(g, m) }, the lane-wise differences
    g - m truncated at zero, taken by one `monus` over the generators
    packed a slot each.  `m` is a word over `i.vars`; a word out of range
    or with a guard bit set raises ValueError."""
    nv = len(i.vars)
    _check_words((m,), nv, "monomial")
    count, size = len(i.gens), slot_size(nv)
    rep = slot_ones(count, size)
    hi = lane_masks(nv)[0] * rep
    diffs = monus(pack_slots(i.gens, size) | hi, m * rep, hi)
    quotients = set(unpack_slots(diffs, count, size))
    if 0 in quotients:
        raise ValueError("colon contains the unit: m lies in the ideal")
    return packed_ideal(i.vars, quotients)


def intersect(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """Pairwise lcm of generators, minimalized; requires a shared universe."""
    if i.vars != j.vars:
        raise ValueError("intersection needs a common variable universe")
    hi = lane_masks(len(i.vars))[0]
    gens = {packed_lcm(a, b, hi) for a in i.gens for b in j.gens}
    return packed_ideal(i.vars, gens)


def sum_ideals(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """Both generator sets, minimalized; requires a shared universe."""
    if i.vars != j.vars:
        raise ValueError("sum needs a common variable universe")
    return packed_ideal(i.vars, i.gens + j.gens)


# ---------------------------------------------------------------------------
# polarization

def polar_name(v: str, k: int) -> str:
    """Name of the k-th polarized copy; copy 1 is the original variable."""
    return v if k == 1 else f"{v}.{k}"


def polarize(i: MonomialIdeal) -> tuple[MonomialIdeal, dict[str, str]]:
    """Squarefree polarization.  x_v^e becomes x_{v,1} ... x_{v,e} with the
    first copy identified with x_v; copies are inserted right after their
    original in the universe order.  Returns (ideal, new var -> original)."""
    nv = len(i.vars)
    hi = lane_masks(nv)[0]
    top = 0
    for g in i.gens:
        top = packed_lcm(top, g, hi)
    peak = [max(e, 1) for e in unpack(top, nv)]
    vmap = {polar_name(v, k): v for v, p in zip(i.vars, peak) for k in range(1, p + 1)}
    starts = list(itertools.accumulate([0] + peak[:-1]))  # position of each copy 1
    gens = []
    for g in i.gens:
        copies = [s + k for s, e in zip(starts, unpack(g, nv)) for k in range(e)]
        gens.append(squarefree(copies, len(vmap)))
    return packed_ideal(tuple(vmap), gens), vmap


# ---------------------------------------------------------------------------
# vertex covers and the symbolic square

def minimal_vertex_covers(g: Graph) -> list[frozenset[int]]:
    """All inclusion-minimal vertex covers, by brute force over subsets."""
    edges = g.edges()
    covers = []
    for size in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            s = set(sub)
            if all(u in s or v in s for u, v in edges):
                if not any(c <= s for c in covers):
                    covers.append(frozenset(s))
    return sorted(covers, key=lambda c: (len(c), sorted(c)))


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    return [t for t in itertools.combinations(range(g.n), 3)
            if g.has_edge(t[0], t[1]) and g.has_edge(t[0], t[2]) and g.has_edge(t[1], t[2])]


def symbolic_square(g: Graph) -> MonomialIdeal:
    """I(G)^2 plus one cubic generator per triangle of G."""
    gens = list(power(edge_ideal(g), 2).gens)
    gens += [squarefree(t, g.n) for t in triangles(g)]
    return packed_ideal(g.labels, gens)


def cover_square_intersection(g: Graph) -> MonomialIdeal:
    """Independent route to the symbolic square: the intersection over all
    minimal vertex covers P of the squared cover ideal P^2."""
    covers = minimal_vertex_covers(g)
    if g.is_edgeless():
        return zero_ideal(g.labels)
    result: MonomialIdeal | None = None
    for cover in covers:
        p = packed_ideal(g.labels, (squarefree((u,), g.n) for u in cover))
        p2 = power(p, 2)
        result = p2 if result is None else intersect(result, p2)
    assert result is not None
    return result


# ---------------------------------------------------------------------------
# edge multisets (the s-fold products defining colon ideals)

@dataclass(frozen=True)
class EdgeMultiset:
    """A multiset of edges e_1 ... e_s, stored as a sorted tuple with
    repetition."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))
        if norm != self.edges:
            raise ValueError("edges must be normalized and sorted; use EdgeMultiset.of")
        if any(u == v for u, v in self.edges):
            raise ValueError("loop edge in multiset")

    @classmethod
    def of(cls, edges: Iterable[tuple[int, int]]) -> "EdgeMultiset":
        return cls(tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))

    @property
    def size(self) -> int:
        return len(self.edges)

    def counts(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for e in self.edges:
            out[e] = out.get(e, 0) + 1
        return out

    def without(self, edge: tuple[int, int]) -> "EdgeMultiset":
        """Remove one copy of `edge`."""
        edges = list(self.edges)
        edges.remove((min(edge), max(edge)))
        return EdgeMultiset(tuple(edges))

    def validate_in(self, g: Graph) -> None:
        for u, v in self.edges:
            if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
                raise GraphError(f"multiset edge {(u, v)} not in the graph")

    def packed_product(self, nv: int) -> int:
        """The word of e_1 ... e_s over nv variables, vertex v as variable v."""
        return pack(sum(v in e for e in self.edges) for v in range(nv))
