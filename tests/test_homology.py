from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from edgereg import homology
from edgereg.graphs import (cycle_graph, disjoint_edges,
                            enumerate_graphs, induced_subgraph, path_graph)
from edgereg.homology import (DEFAULT_FACE_BUDGET, GF2, QQ, BudgetError, FieldSpec,
                              _closure, _profile_from_masks, graded_betti,
                              hochster_oracle, regularity, regularity_of_power)
from edgereg.linalg import matrix_rank, rank_gf2
from edgereg.monomials import (Monomial, colon_by_monomial, edge_ideal, ideal,
                               lane_masks, pack, pack_capped, polarize, power,
                               squarefree, sum_ideals, zero_ideal)

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


def _rank_mismatches(rank, p) -> int:
    rng = random.Random(0)
    bad = 0
    for _ in range(200):
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(rng.randint(1, 6))]
        bad += rank(_sparse(rows), p) != oracles.fraction_rank(rows, p)
    return bad


# each mutant still cancels every leading entry, so its elimination ends
@pytest.mark.parametrize("old, new, p", [
    ("t = (ones | b) ^ (twos | a)", "t = (ones | b) | (twos | a)", 3),
    ("v = row.get(c, 0) - f * y", "v = row.get(c, 0) - f * a", 0),
], ids=["gf3-planes-add-with-or", "qq-update-scales-by-lead"])
def test_mutated_matrix_rank_is_caught(old, new, p):
    assert _rank_mismatches(oracles.mutant(matrix_rank, old, old), p) == 0
    assert _rank_mismatches(oracles.mutant(matrix_rank, old, new), p) > 0


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
    g = tuple(x for x, _ in pairs)
    b = tuple(y for _, y in pairs)
    nv = len(pairs)
    hi, _, ones = lane_masks(nv)
    expected = sum(1 << k for k in range(nv) if b[k] > g[k])
    assert oracles._packed_excess_mask(pack(b), pack(g), hi, ones, nv) == expected


# reduced homology of complexes given by facet masks ----------------------------

def _homology(facet_masks, characteristic=2, face_budget=DEFAULT_FACE_BUDGET):
    return _profile_from_masks(_closure(facet_masks, face_budget), characteristic)


# the boundary of the octahedron, a 2-sphere: one vertex of each antipodal
# pair {1, 2}, {4, 8}, {16, 32} per facet
OCTAHEDRON = [a | b | c for a in (1, 2) for b in (4, 8) for c in (16, 32)]


def test_reduced_homology_circle():
    hollow = [0b011, 0b110, 0b101]  # the three edges of a triangle
    assert _homology(hollow) == {1: 1}
    assert _homology(hollow, 0) == {1: 1}


def test_reduced_homology_two_points():
    assert _homology([0b01, 0b10]) == {0: 1}


def test_reduced_homology_octahedron():
    assert _homology(OCTAHEDRON) == {2: 1}
    assert _homology(OCTAHEDRON, 0) == {2: 1}


def test_reduced_homology_empty_and_void():
    assert _homology([0]) == {-1: 1}  # the empty complex {emptyset}
    assert _homology([]) == {}        # the void complex


def test_face_budget():
    with pytest.raises(BudgetError):
        _homology(OCTAHEDRON, face_budget=4)


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


def test_hochster_oracle_leaves_the_memo_alone(fresh_memo):
    def snapshot():  # the complex tables are dicts inside the memo
        return {k: dict(v) if isinstance(v, dict) else v for k, v in homology._MEMO.items()}

    i = power(edge_ideal(cycle_graph(5)), 2)
    fields = (GF2, QQ, FieldSpec(3))
    for field in fields:
        hochster_oracle(i, field)
    assert homology._MEMO == {}
    tables = [graded_betti(i, field) for field in fields]
    before = snapshot()
    assert [hochster_oracle(i, field) for field in fields] == tables
    assert snapshot() == before


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
    squares = ideal([M(f"x{k}^2") for k in range(12)])
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


def test_graded_betti_face_budget(fresh_memo):
    # the one-pass kernel runs out of faces exactly where the reference does,
    # whether its complexes are ranked afresh or found in the memo
    i = power(edge_ideal(cycle_graph(5)), 2)
    passing = [b for b in range(1, 129)
               if not _raises_budget(oracles.lattice_rescan_betti, i, face_budget=b)]
    threshold = passing[0]
    assert threshold > 2
    assert _raises_budget(graded_betti, i, face_budget=threshold - 1)
    assert graded_betti(i, face_budget=threshold) == graded_betti(i)
    assert _raises_budget(graded_betti, i, face_budget=threshold - 1)


def test_graded_betti_lattice_budget_threshold():
    i = power(edge_ideal(cycle_graph(5)), 2)
    size = len(oracles._lcm_lattice(list(i.gens), *lane_masks(len(i.vars))[:2], 1 << 20))
    assert _raises_budget(graded_betti, i, lattice_budget=size - 1)
    assert not _raises_budget(graded_betti, i, lattice_budget=size)


@st.composite
def random_ideals(draw, max_vars=6, max_exponent=3):
    nv = draw(st.integers(1, max_vars))
    names = tuple(f"x{k}" for k in range(nv))
    rows = draw(st.lists(st.lists(st.integers(0, max_exponent), min_size=nv,
                                  max_size=nv).filter(any),
                         min_size=1, max_size=6))
    return ideal([Monomial.from_dict(dict(zip(names, r))) for r in rows], vars=names)


@given(random_ideals(), st.sampled_from([GF2, QQ, FieldSpec(3)]))
@settings(max_examples=200, deadline=None)
def test_graded_betti_matches_lattice_rescan_reference(i, field):
    assert graded_betti(i, field) == oracles.lattice_rescan_betti(i, field)


# exponents up to 2 on at most 5 variables: at most 10 polarized variables
@given(random_ideals(5, 2), st.sampled_from([GF2, QQ, FieldSpec(3)]))
@settings(max_examples=100, deadline=None)
def test_hochster_oracle_matches_lattice_rescan_reference(i, field):
    assert hochster_oracle(i, field) == oracles.lattice_rescan_betti(i, field)


def _dual_oracle_mismatches(kernel, oracle=hochster_oracle) -> int:
    bad = 0
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            if g.is_edgeless():
                continue
            for s in (1, 2):
                i = power(edge_ideal(g), s)
                for field in (GF2, QQ):
                    bad += kernel(i, field) != oracle(i, field)
    return bad


# the Stanley-Reisner ideal of the 6-vertex real projective plane: its ten
# minimal nonfaces are the triples that are not triangles
RP2_TRIANGLES = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5))


def _rp2_ideal():
    names = tuple(f"x{k}" for k in range(6))
    return ideal([{names[k]: 1 for k in t}
                  for t in itertools.combinations(range(6), 3) if t not in RP2_TRIANGLES],
                 vars=names)


RP2_FIELDS = (GF2, QQ, FieldSpec(3))  # in this order, in one process


def _field_mismatches(kernel) -> int:
    i = _rp2_ideal()
    return sum(kernel(i, field) != hochster_oracle(i, field) for field in RP2_FIELDS)


def test_betti_depends_on_field_rp2(fresh_memo):
    i = _rp2_ideal()
    assert len(i.gens) == 10
    tables = [graded_betti(i, field) for field in RP2_FIELDS]
    assert tables == [hochster_oracle(i, field) for field in RP2_FIELDS]
    gf2, qq, gf3 = (t.as_dict() for t in tables)
    # H_1 and H_2 of RP^2 are Z/2 and 0: the torsion shows only over GF(2)
    diff = {k: gf2.get(k, 0) - qq.get(k, 0) for k in gf2.keys() | qq.keys()}
    assert {k: d for k, d in diff.items() if d} == {(2, 6): 1, (3, 6): 1}
    assert qq == gf3


@pytest.mark.parametrize("old, new, mismatches", [
    ("key = key << width | f", "key += 1", _dual_oracle_mismatches),
    ("facets.add((diff - ones) & hi)", "facets.add(diff & hi)", _dual_oracle_mismatches),
    ("key = key << width | f", "key = key | f", _dual_oracle_mismatches),
    ('("complexes", nv, field.characteristic)', '("complexes", nv)', _field_mismatches),
], ids=["memo-keyed-on-facet-count", "facet-mask-off-by-one", "memo-key-ors-facets",
        "memo-key-drops-characteristic"])
def test_mutated_betti_kernel_is_caught(old, new, mismatches, fresh_memo):
    assert mismatches(oracles.mutant(homology.graded_betti, old, old)) == 0
    homology.clear_caches()
    assert mismatches(oracles.mutant(homology.graded_betti, old, new)) > 0


ORACLE_KEY = "key = frozenset(sum(1 << k for k, v in enumerate(pos) if s >> v & 1) for s in inner)"


def test_mutated_oracle_table_key_is_caught():
    # keyed on the number of supports inside W, different complexes collide
    assert _dual_oracle_mismatches(graded_betti,
                                   oracles.mutant(hochster_oracle, ORACLE_KEY, ORACLE_KEY)) == 0
    mutated = oracles.mutant(hochster_oracle, ORACLE_KEY, "key = len(inner)")
    assert _dual_oracle_mismatches(graded_betti, mutated) > 0


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
                x = M(g.labels[v])
                with_colon = regularity(colon_by_monomial(i, squarefree((v,), g.n))) + 1
                with_sum = regularity(sum_ideals(i, ideal([x], vars=i.vars)))
                assert reg_i in (with_colon, with_sum)
                assert reg_i <= max(with_colon, with_sum)


def test_exact_sequence_lemma_general_monomials():
    # reg I <= max(reg(I:m) + deg m, reg(I, m)) for monomials m not in I
    g = cycle_graph(5)
    i = edge_ideal(g)
    reg_i = regularity(i)
    for m in (M("x0*x2"), M("x1^2"), M("x2^2*x4"), M("x3")):
        colon = colon_by_monomial(i, pack_capped(m, i.vars))
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
