from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from edgereg import homology
from edgereg.graphs import (complete_graph, cycle_graph, disjoint_edges,
                            enumerate_graphs, induced_subgraph, path_graph)
from edgereg.homology import (GF2, QQ, BudgetError, FieldSpec,
                              SimplicialComplex, graded_betti, hochster_oracle,
                              independence_complex, reduced_homology, regularity,
                              regularity_of_power)
from edgereg.linalg import matrix_rank, rank_gf2
from edgereg.monomials import (Monomial, colon_by_monomial, edge_ideal, ideal,
                               lane_masks, pack, polarize, power, sum_ideals,
                               zero_ideal)

M = Monomial.parse


# exact linear algebra -------------------------------------------------------

def test_rank_gf2_known():
    assert rank_gf2([0b11, 0b10, 0b01]) == 2
    assert rank_gf2([0b111, 0b111]) == 1
    assert rank_gf2([0, 0]) == 0


def _sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def test_rank_bareiss_known():
    # characteristic 0: rank over the rationals
    assert matrix_rank(_sparse([[1, 2], [2, 4]]), 0) == 1
    assert matrix_rank(_sparse([[1, 0, 1], [0, 1, 1], [1, 1, 0]]), 0) == 3
    assert matrix_rank(_sparse([[2, 4], [1, 3]]), 0) == 2
    assert matrix_rank(_sparse([[6, 4], [9, 6]]), 0) == 1
    assert matrix_rank(_sparse([[1, 1], [1, -2]]), 0) == 2
    assert matrix_rank([{}, {}], 0) == 0


def test_rank_mod_p():
    # det [[1, 1], [1, -2]] = -3: singular exactly in characteristic 3
    assert matrix_rank(_sparse([[1, 1], [1, -2]]), 3) == 1
    assert matrix_rank(_sparse([[1, 1], [1, -2]]), 5) == 2
    assert matrix_rank(_sparse([[1, 1], [1, -1]]), 3) == 2
    assert matrix_rank([{0: 3}, {1: -6}], 3) == 0
    assert matrix_rank([], 7) == 0


_int_matrices = st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
    min_size=1, max_size=6))


@given(_int_matrices)
@settings(max_examples=300)
def test_rank_bareiss_matches_fraction_elimination(rows):
    assert matrix_rank(_sparse(rows), 0) == oracles.fraction_rank(rows)


@given(_int_matrices, st.sampled_from([3, 5, 7]))
@settings(max_examples=300)
def test_rank_mod_p_bounded_by_rational_rank(rows, p):
    rank = matrix_rank(_sparse(rows), p)
    assert rank == oracles.fraction_rank(rows, p)
    assert rank <= oracles.fraction_rank(rows)


def test_field_spec_validation():
    FieldSpec(0), FieldSpec(2), FieldSpec(7)
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)).map(sorted),
                min_size=1, max_size=12))
def test_packed_excess_mask_matches_tuples(pairs):
    # bit k of the facet mask is variable k, where b exceeds g
    from edgereg.homology import _packed_excess_mask
    g = tuple(x for x, _ in pairs)
    b = tuple(y for _, y in pairs)
    nv = len(pairs)
    hi, _, ones = lane_masks(nv)
    expected = sum(1 << k for k in range(nv) if b[k] > g[k])
    assert _packed_excess_mask(pack(b), pack(g), hi, ones, nv) == expected


# simplicial complexes --------------------------------------------------------

def test_independence_complex_triangle():
    c = independence_complex(complete_graph(3))
    assert set(c.facets) == {frozenset({"x0"}), frozenset({"x1"}), frozenset({"x2"})}


def test_independence_complex_edgeless():
    from edgereg.graphs import edgeless
    c = independence_complex(edgeless(4))
    assert c.facets == (frozenset({"x0", "x1", "x2", "x3"}),)


def test_independence_complex_c4():
    c = independence_complex(cycle_graph(4))
    assert set(c.facets) == {frozenset({"x0", "x2"}), frozenset({"x1", "x3"})}


def test_reduced_homology_circle():
    hollow = SimplicialComplex.from_faces(
        "abc", [frozenset("ab"), frozenset("bc"), frozenset("ac")])
    assert reduced_homology(hollow).as_dict() == {1: 1}
    assert reduced_homology(hollow, QQ).as_dict() == {1: 1}


def test_reduced_homology_two_points():
    two = SimplicialComplex.from_faces("ab", [frozenset("a"), frozenset("b")])
    assert reduced_homology(two).as_dict() == {0: 1}


def test_reduced_homology_octahedron():
    # the independence complex of three disjoint edges is the boundary of
    # the octahedron: a 2-sphere
    c = independence_complex(disjoint_edges(3))
    assert reduced_homology(c).as_dict() == {2: 1}
    assert reduced_homology(c, QQ).as_dict() == {2: 1}


def test_reduced_homology_empty_and_void():
    empty = SimplicialComplex.from_faces((), [frozenset()])
    assert reduced_homology(empty).as_dict() == {-1: 1}
    void = SimplicialComplex((), ())
    assert reduced_homology(void).as_dict() == {}


def test_face_budget():
    c = independence_complex(disjoint_edges(3))
    with pytest.raises(BudgetError):
        reduced_homology(c, face_budget=4)


# graded Betti tables ----------------------------------------------------------

def test_graded_betti_principal():
    t = graded_betti(ideal([M("x*y")]))
    assert t.as_dict() == {(0, 2): 1}


def test_graded_betti_c4():
    t = graded_betti(edge_ideal(cycle_graph(4)))
    assert t.as_dict() == {(0, 2): 4, (1, 3): 4, (2, 4): 1}
    assert t.regularity() == 2


def test_betti_zero_counts_generators():
    for g in enumerate_graphs(5):
        if g.is_edgeless():
            continue
        t = graded_betti(edge_ideal(g))
        assert t.betti(0, 2) == g.edge_count()


def test_graded_betti_rejects_zero_ideal():
    with pytest.raises(ValueError):
        graded_betti(zero_ideal(("x",)))
    with pytest.raises(ValueError):
        regularity(zero_ideal(("x",)))


def test_regularity_examples():
    assert regularity(edge_ideal(cycle_graph(5))) == 3
    assert regularity(edge_ideal(cycle_graph(4))) == 2
    assert regularity(ideal([M("x"), M("y"), M("z")])) == 1


def test_regularity_of_power_examples():
    assert regularity_of_power(disjoint_edges(2), 1) == 3
    assert regularity_of_power(cycle_graph(5), 2) == 4
    assert [regularity_of_power(path_graph(2), s) for s in (1, 2, 3)] == [2, 4, 6]


def test_betti_table_json():
    t = graded_betti(edge_ideal(cycle_graph(4)))
    d = t.to_json_dict()
    assert d["field"] == 2 and d["reg"] == 2
    assert [0, 2, 4] in d["betti"]


# the dual oracle ---------------------------------------------------------------

def test_hochster_oracle_matches_on_c4():
    i = edge_ideal(cycle_graph(4))
    assert hochster_oracle(i) == graded_betti(i)


def test_hochster_oracle_matches_on_p4_square():
    i = power(edge_ideal(path_graph(4)), 2)
    p, _ = polarize(i)
    assert hochster_oracle(i) == graded_betti(i)
    assert graded_betti(p) == graded_betti(i)


def test_hochster_oracle_principal():
    assert hochster_oracle(ideal([M("x*y")])).as_dict() == {(0, 2): 1}


def test_dual_oracle_agreement_small():
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            if g.is_edgeless():
                continue
            for s in (1, 2):
                i = power(edge_ideal(g), s)
                for field in (GF2, QQ):
                    assert graded_betti(i, field) == hochster_oracle(i, field)


def test_polarization_preserves_betti():
    cases = [ideal([M("x^2*y"), M("x*y^2")])]
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            if not g.is_edgeless():
                cases.append(power(edge_ideal(g), 2))
    for i in cases:
        p, _ = polarize(i)
        assert graded_betti(p) == graded_betti(i)


def test_hochster_variable_budget():
    squares = ideal([Monomial.variable(f"x{k}", 2) for k in range(12)])
    with pytest.raises(BudgetError):
        hochster_oracle(squares)  # 24 polarized variables > 22


def test_lattice_budget():
    with pytest.raises(BudgetError):
        graded_betti(edge_ideal(cycle_graph(5)), lattice_budget=3)


def _raises_budget(kernel, i, **budget) -> bool:
    try:
        kernel(i, GF2, **budget)
    except BudgetError:
        return True
    return False


def test_graded_betti_face_budget():
    # the one-pass kernel runs out of faces exactly where the reference does
    i = power(edge_ideal(cycle_graph(5)), 2)
    passing = [b for b in range(1, 129)
               if not _raises_budget(oracles.lattice_rescan_betti, i, face_budget=b)]
    threshold = passing[0]
    assert threshold > 2
    assert _raises_budget(graded_betti, i, face_budget=threshold - 1)
    assert graded_betti(i, face_budget=threshold) == graded_betti(i)


def test_graded_betti_lattice_budget_threshold():
    i = power(edge_ideal(cycle_graph(5)), 2)
    size = len(oracles._lcm_lattice(list(i.gens), *lane_masks(len(i.vars))[:2], 1 << 20))
    assert _raises_budget(graded_betti, i, lattice_budget=size - 1)
    assert not _raises_budget(graded_betti, i, lattice_budget=size)


@st.composite
def random_ideals(draw):
    nv = draw(st.integers(1, 6))
    names = tuple(f"x{k}" for k in range(nv))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=nv, max_size=nv).filter(any),
                         min_size=1, max_size=6))
    return ideal([Monomial.from_dict(dict(zip(names, r))) for r in rows], vars=names)


@given(random_ideals(), st.sampled_from([GF2, QQ, FieldSpec(3)]))
@settings(max_examples=200, deadline=None)
def test_graded_betti_matches_lattice_rescan_reference(i, field):
    assert graded_betti(i, field) == oracles.lattice_rescan_betti(i, field)


def _dual_oracle_mismatches(kernel) -> int:
    bad = 0
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            if g.is_edgeless():
                continue
            for s in (1, 2):
                i = power(edge_ideal(g), s)
                for field in (GF2, QQ):
                    bad += kernel(i, field) != hochster_oracle(i, field)
    return bad


@pytest.mark.parametrize("old, new", [
    ("key = frozenset(maximal)", "key = len(maximal)"),
    ("facets.add((diff - ones) & hi)", "facets.add(diff & hi)"),
], ids=["memo-keyed-on-facet-count", "facet-mask-off-by-one"])
def test_mutated_betti_kernel_is_caught(old, new):
    assert _dual_oracle_mismatches(oracles.mutant(homology.graded_betti, old, old)) == 0
    assert _dual_oracle_mismatches(oracles.mutant(homology.graded_betti, old, new)) > 0


# classical cross-checks ----------------------------------------------------------

def test_regularity_two_iff_cochordal():
    from edgereg.invariants import is_co_chordal
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if g.is_edgeless():
                continue
            assert (regularity_of_power(g, 1) == 2) == is_co_chordal(g)


def test_induced_subgraph_monotone_regularity():
    for g in enumerate_graphs(5):
        if g.is_edgeless():
            continue
        reg_g = regularity_of_power(g, 1)
        for size in range(2, g.n):
            for verts in itertools.combinations(range(g.n), size):
                h, _ = induced_subgraph(g, verts)
                if h.is_edgeless():
                    continue
                assert regularity(edge_ideal(h)) <= reg_g


def test_exact_sequence_lemma_variables():
    # for a variable x of I: reg I equals reg(I:x) + 1 or reg(I, x)
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            if g.is_edgeless():
                continue
            i = edge_ideal(g)
            reg_i = regularity(i)
            for v in range(g.n):
                if g.degree(v) == 0:
                    continue
                x = Monomial.variable(g.labels[v])
                with_colon = regularity(colon_by_monomial(i, x)) + 1
                with_sum = regularity(sum_ideals(i, ideal([x], vars=i.vars)))
                assert reg_i in (with_colon, with_sum)
                assert reg_i <= max(with_colon, with_sum)


def test_exact_sequence_lemma_general_monomials():
    # reg I <= max(reg(I:m) + deg m, reg(I, m)) for monomials m not in I
    g = cycle_graph(5)
    i = edge_ideal(g)
    reg_i = regularity(i)
    for m in (M("x0*x2"), M("x1^2"), M("x2^2*x4"), M("x3")):
        colon = colon_by_monomial(i, m)
        bound = max(regularity(colon) + m.degree(),
                    regularity(sum_ideals(i, ideal([m], vars=i.vars))))
        assert reg_i <= bound


def test_characteristic_robustness_small():
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            if g.is_edgeless():
                continue
            for s in (1, 2):
                regs = {regularity_of_power(g, s, f)
                        for f in (GF2, QQ, FieldSpec(3))}
                assert len(regs) == 1
