from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from edgereg import monomials
from edgereg.graphs import (complete_graph, cycle_graph, enumerate_graphs,
                            from_edge_list, path_graph)
from edgereg.monomials import (LANE_MAX, EdgeMultiset, Monomial, colon_by_monomial,
                               cover_square_intersection, edge_ideal, ideal,
                               intersect, lane_masks, minimal_vertex_covers,
                               pack, pack_capped, packed_degree, packed_divides,
                               packed_lcm, polar_name, polarize, power, squarefree,
                               sum_ideals, symbolic_square, unpack, zero_ideal)

M = Monomial.parse


def xyz_triangle():
    return complete_graph(3, labels=("x", "y", "z"))


def _times(a: Monomial, b: Monomial) -> Monomial:
    return Monomial.from_dict(Counter(a.as_dict()) + Counter(b.as_dict()))


# Monomial basics -----------------------------------------------------------

def test_monomial_parse_and_str():
    m = M("x0^2*x1")
    assert str(m) == "x0^2*x1"
    assert m.degree() == 3
    assert M("1") == Monomial.one()


# ideals --------------------------------------------------------------------

def test_edge_ideal_triangle():
    i = edge_ideal(xyz_triangle())
    assert {str(m) for m in i.generators()} == {"x*y", "x*z", "y*z"}


def test_edge_ideal_single_edge_and_edgeless():
    assert [str(m) for m in edge_ideal(path_graph(2)).generators()] == ["x0*x1"]
    assert edge_ideal(from_edge_list(3, [])).is_zero


def test_minimalize():
    assert [str(m) for m in ideal([M("x*y"), M("x*y*z")]).generators()] == ["x*y"]
    i = ideal([M("x^2"), M("x*y"), M("y^2")])
    assert {str(m) for m in i.generators()} == {"x^2", "x*y", "y^2"}
    assert ideal([]).is_zero


def test_power_principal():
    i = ideal([M("x*y")])
    assert [str(m) for m in power(i, 2).generators()] == ["x^2*y^2"]


def test_power_triangle_square():
    got = {str(m) for m in power(edge_ideal(xyz_triangle()), 2).generators()}
    assert got == {"x^2*y^2", "x^2*z^2", "y^2*z^2",
                   "x^2*y*z", "x*y^2*z", "x*y*z^2"}


def test_power_identity_and_errors():
    i = edge_ideal(cycle_graph(4))
    assert power(i, 1) == i
    with pytest.raises(ValueError):
        power(i, 0)


def test_colon_simple():
    i = ideal([M("x*y"), M("y*z")])
    assert {str(m) for m in colon_by_monomial(i, pack((0, 1, 0))).generators()} == {"x", "z"}


def test_colon_path_square_witness():
    # the even-connection witness: x0 x3 enters (I(P5)^2 : x1 x2)
    i2 = power(edge_ideal(path_graph(5)), 2)
    colon = colon_by_monomial(i2, squarefree((1, 2), 5))
    assert colon.contains(M("x0*x3"))


def test_colon_by_one():
    i = edge_ideal(cycle_graph(5))
    assert colon_by_monomial(i, 0) == i


@pytest.mark.parametrize("word", [-1, pack((1, 0, 0, 0, 0, 0)), pack((0, 1, 0, 0, 0)) | 1 << 4],
                         ids=["negative", "one-lane-too-many", "guard-bit"])
def test_colon_rejects_malformed_word(word):
    # C5 has five variables; bit 4 is the guard bit of the last lane
    with pytest.raises(ValueError):
        colon_by_monomial(edge_ideal(cycle_graph(5)), word)


def test_membership_trivia():
    i = ideal([M("x*y")])
    assert i.contains(M("x^2*y"))
    assert not i.contains(M("x*z"))
    assert not zero_ideal(("x",)).contains(M("x"))


@st.composite
def small_ideals(draw):
    nvars = draw(st.integers(1, 4))
    vars = tuple(f"x{i}" for i in range(nvars))
    ngens = draw(st.integers(1, 5))
    gens = []
    for _ in range(ngens):
        exps = draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars))
        if any(exps):
            gens.append(Monomial.from_dict(dict(zip(vars, exps))))
    if not gens:
        gens = [M(vars[0])]
    return ideal(gens, vars=vars)


@st.composite
def small_monomials(draw, max_exp=3):
    nvars = draw(st.integers(1, 4))
    exps = draw(st.lists(st.integers(0, max_exp), min_size=nvars, max_size=nvars))
    return Monomial.from_dict({f"x{i}": e for i, e in enumerate(exps)})


@given(small_ideals(), small_monomials(), small_monomials())
@settings(max_examples=300)
def test_colon_membership_duality(i, m, u):
    # u in (I : m)  <=>  u*m in I
    if i.contains(m):
        return  # the colon would be the unit ideal, which is out of scope
    colon = colon_by_monomial(i, pack_capped(m, i.vars))
    assert colon.contains(u) == i.contains(_times(u, m))


@given(small_ideals(), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_power_consistency(i, s):
    stepped = ideal([_times(a, b) for a in power(i, s).generators()
                          for b in i.generators()], vars=i.vars)
    assert power(i, s + 1) == stepped


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=1, max_size=12))
def test_packed_lane_arithmetic_matches_tuples(pairs):
    # the 5-bit-lane encodings must reproduce componentwise comparisons
    a = tuple(x for x, _ in pairs)
    b = tuple(y for _, y in pairs)
    nv = len(pairs)
    hi = lane_masks(nv)[0]
    pa, pb = pack(a), pack(b)
    assert unpack(pa, nv) == a
    assert (pa < pb) == (a < b)  # the first variable sits in the highest lane
    assert packed_divides(pa, pb, hi) == all(x <= y for x, y in zip(a, b))
    assert packed_lcm(pa, pb, hi) == pack(tuple(map(max, a, b)))
    assert packed_degree(pa) == sum(a)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_packed_kernels_match_tuple_reference(data):
    nv = data.draw(st.integers(1, 15))  # from 13 variables a slot takes two words
    row = st.tuples(*[st.integers(0, 3)] * nv)
    rows = data.draw(st.lists(row.filter(any), min_size=1, max_size=5))
    other = data.draw(st.lists(row.filter(any), min_size=1, max_size=5))
    m = data.draw(row)
    s = data.draw(st.integers(1, 3))
    vars = tuple(f"x{k}" for k in range(nv))

    def packed(gens):
        return ideal([dict(zip(vars, r)) for r in gens], vars=vars)

    def dense(j):
        return [tuple(r) for r in j.to_json_dict()["gens"]]

    i = packed(rows)
    assert dense(i) == oracles.tuple_minimal(rows)
    assert dense(power(i, s)) == oracles.tuple_power(rows, s)
    assert dense(intersect(i, packed(other))) == oracles.tuple_intersect(rows, other)
    expected = oracles.tuple_colon(rows, m)
    if expected[0] == (0,) * nv:
        with pytest.raises(ValueError):
            colon_by_monomial(i, pack(m))
    else:
        assert dense(colon_by_monomial(i, pack(m))) == expected


def _colon_mismatches(colon) -> int:
    # (I(G)^s : m) for every graph on at most 4 vertices, s <= 2 and every
    # m with exponents <= 2 outside the ideal, against the tuple reference;
    # a ValueError (the unit ideal) on such an m is a mismatch too
    bad = 0
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            if g.is_edgeless():
                continue
            for s in (1, 2):
                i = power(edge_ideal(g), s)
                rows = [tuple(r) for r in i.to_json_dict()["gens"]]
                for m in itertools.product(range(3), repeat=n):
                    expected = oracles.tuple_colon(rows, m)
                    if expected[0] == (0,) * n:
                        continue
                    try:
                        got = colon(i, pack(m))
                    except ValueError:
                        bad += 1
                        continue
                    bad += [tuple(r) for r in got.to_json_dict()["gens"]] != expected
    return bad


def test_mutated_colon_lane_wrap_is_caught(monkeypatch):
    # a lane with g < m wraps to 16 + g - m instead of reading 0
    old = "return diff & (ge - (ge >> (LANE - 1)))"
    monus = monomials.monus
    monkeypatch.setattr(monomials, "monus", oracles.mutant(monus, old, old))
    assert _colon_mismatches(monomials.colon_by_monomial) == 0
    monkeypatch.setattr(monomials, "monus", oracles.mutant(monus, old, old.replace("ge", "hi")))
    assert _colon_mismatches(monomials.colon_by_monomial) > 0


def test_mutated_colon_slot_count_is_caught():
    # the replicated-ones word misses the last generator's slot, whose
    # quotient then reads 0
    old = "rep = slot_ones(count, size)"
    colon = monomials.colon_by_monomial
    assert _colon_mismatches(oracles.mutant(colon, old, old)) == 0
    assert _colon_mismatches(oracles.mutant(colon, old, "rep = slot_ones(count - 1, size)")) > 0


def test_exponent_above_lane_max_is_rejected():
    with pytest.raises(ValueError):
        ideal([M(f"x^{LANE_MAX + 1}")])
    with pytest.raises(ValueError):
        power(ideal([M("x^8*y")]), 2)
    assert str(power(ideal([M("x^5*y")]), 3)) == f"(x^{LANE_MAX}*y^3)"


# polarization ---------------------------------------------------------------

def test_polarize_square():
    p, vmap = polarize(ideal([M("x^2")]))
    assert [str(m) for m in p.generators()] == ["x*x.2"]
    assert vmap == {"x": "x", "x.2": "x"}


def test_polarize_mixed():
    p, _ = polarize(ideal([M("x^2*y"), M("x*y^2")]))
    assert {str(m) for m in p.generators()} == {"x*x.2*y", "x*y*y.2"}
    assert p.vars == ("x", "x.2", "y", "y.2")


def test_polarize_squarefree_identity():
    i = edge_ideal(cycle_graph(4))
    p, vmap = polarize(i)
    assert p == i
    assert vmap == {v: v for v in i.vars}


def test_polar_name():
    assert polar_name("x3", 1) == "x3"
    assert polar_name("x3", 2) == "x3.2"


# covers and the symbolic square ----------------------------------------------

def test_minimal_vertex_covers_examples():
    assert set(minimal_vertex_covers(complete_graph(3))) == {
        frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}
    assert set(minimal_vertex_covers(path_graph(2))) == {frozenset({0}), frozenset({1})}
    assert set(minimal_vertex_covers(path_graph(4))) == {
        frozenset({1, 2}), frozenset({0, 2}), frozenset({1, 3})}


def test_minimal_vertex_covers_against_oracle():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert set(minimal_vertex_covers(g)) == oracles.brute_minimal_vertex_covers(g)


def test_symbolic_square_triangle():
    k3 = xyz_triangle()
    sym = symbolic_square(k3)
    direct = sum_ideals(power(edge_ideal(k3), 2), ideal([M("x*y*z")]))
    assert sym.same_ideal_as(direct)
    assert sym.contains(M("x*y*z"))


def test_symbolic_square_triangle_free_collapses():
    for g in (cycle_graph(4), cycle_graph(5)):
        assert symbolic_square(g) == power(edge_ideal(g), 2)


def test_symbolic_square_equals_cover_intersection():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            assert symbolic_square(g).same_ideal_as(cover_square_intersection(g))


def test_symbolic_square_contained_in_edge_ideal():
    for g in enumerate_graphs(5):
        if g.is_edgeless():
            continue
        i = edge_ideal(g)
        assert all(i.contains(m) for m in symbolic_square(g).generators())


def test_intersect_idempotent():
    i = power(edge_ideal(cycle_graph(4)), 2)
    assert intersect(i, i) == i
    assert sum_ideals(i, i) == i
    other = ideal([M("x0*x1")], vars=("x0", "x1"))  # a smaller universe
    for op in (intersect, sum_ideals):
        with pytest.raises(ValueError):
            op(i, other)


# serialization and misc -------------------------------------------------------

def test_same_ideal_as_ignores_universe_order():
    a = ideal([M("x*y")], vars=("x", "y", "z"))
    b = ideal([M("x*y")], vars=("z", "y", "x"))
    assert a.same_ideal_as(b)
    assert a != b


def test_generator_order_is_graded_lex():
    i = ideal([M("y*z"), M("x"), M("x*y*z")], vars=("x", "y", "z"))
    assert [str(m) for m in i.generators()] == ["x", "y*z"]
    j = ideal([M("b^2"), M("a*c"), M("a*b")], vars=("a", "b", "c"))
    assert [str(m) for m in j.generators()] == ["a*b", "a*c", "b^2"]


def test_edge_multiset():
    m = EdgeMultiset.of([(2, 1), (1, 2), (0, 1)])
    assert m.edges == ((0, 1), (1, 2), (1, 2))
    assert m.size == 3
    assert m.counts() == {(0, 1): 1, (1, 2): 2}
    assert m.without((1, 2)).edges == ((0, 1), (1, 2))
    assert unpack(m.packed_product(3), 3) == (1, 3, 2)
    m.validate_in(path_graph(3))  # all entries are edges of the path


def test_edge_multiset_validates_membership():
    m = EdgeMultiset.of([(0, 2)])
    with pytest.raises(Exception):
        m.validate_in(path_graph(3))
