from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from builders import cycle_graph, disjoint_edges, path_graph
from edgereg import homology, linalg
from edgereg.graphs import _bits, enumerate_graphs, from_edge_list, induced_subgraph
from edgereg.homology import (DEFAULT_FACE_BUDGET, GF2, QQ, BudgetError, FieldSpec,
                              _closure, _maximal_masks, _profile_from_masks,
                              _strong_core, graded_betti, hochster_oracle,
                              hochster_supports, regularity, regularity_of_power)
from edgereg.linalg import matrix_rank, rank_gf2, rank_gf3
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


@given(_int_matrices)
@settings(max_examples=300)
def test_rank_gf3_matches_elimination_mod_3(rows):
    assert rank_gf3(map(oracles.gf3_planes, rows)) == oracles.fraction_rank(rows, 3)


def _rank_mismatches(rank, p) -> int:
    rng = random.Random(0)
    bad = 0
    for _ in range(200):
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(rng.randint(1, 6))]
        bad += rank(rows) != oracles.fraction_rank(rows, p)
    return bad


# each mutant still cancels every leading entry, so its elimination ends;
# each rank reads the patched function off the module at call time
@pytest.mark.parametrize("name, old, new, p, rank", [
    ("rank_gf3", "t = (ones | b) ^ (twos | a)", "t = (ones | b) | (twos | a)", 3,
     lambda rows: linalg.rank_gf3(map(oracles.gf3_planes, rows))),
    ("matrix_rank", "v = row.get(c, 0) - f * y", "v = row.get(c, 0) - f * a", 0,
     lambda rows: linalg.matrix_rank(_sparse(rows), 0)),
], ids=["gf3-planes-add-with-or", "qq-update-scales-by-lead"])
def test_mutated_matrix_rank_is_caught(name, old, new, p, rank, monkeypatch):
    func = getattr(linalg, name)
    monkeypatch.setattr(linalg, name, oracles.mutant(func, old, old))
    assert _rank_mismatches(rank, p) == 0
    monkeypatch.setattr(linalg, name, oracles.mutant(func, old, new))
    assert _rank_mismatches(rank, p) > 0


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


# facet sets on up to 8 vertices, with a vertex subset W that may hold
# vertices in no facet (nonfaces)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=8), st.integers(1, 255))
@settings(max_examples=200, deadline=None)
def test_strong_core_keeps_reduced_homology(facet_masks, w):
    faces = _closure(facet_masks, DEFAULT_FACE_BUDGET)
    core = _strong_core(w, _maximal_masks(faces))
    assert core and core & w == core
    on_w = {f for f in faces if f & w == f}
    on_core = {f for f in faces if f & core == f}
    for characteristic in (2, 3, 5, 0):
        assert (_profile_from_masks(on_core, characteristic)
                == _profile_from_masks(on_w, characteristic))
    if core.bit_count() > 1:
        # no cone vertex: each vertex misses some face it cannot extend
        for v in _bits(core):
            assert any(f | 1 << v not in on_core for f in on_core)


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


# the oracle's bitmaps of vertex subsets --------------------------------------------

support_sets = st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8)))


def _is_face(f, supports):
    return not any(s & f == s for s in supports)


@given(support_sets)
@settings(max_examples=150, deadline=None)
def test_face_bitmap_holds_the_subsets_with_no_support(case):
    n, supports = case
    faces = homology._face_bitmap(supports, homology._without(n))
    assert homology._members(faces) == [f for f in range(1 << n) if _is_face(f, supports)]


@given(support_sets)
@settings(max_examples=150, deadline=None)
def test_facet_bitmap_holds_the_maximal_faces(case):
    n, supports = case
    without = homology._without(n)
    facets = homology._facet_bitmap(homology._face_bitmap(supports, without), without)
    faces = [f for f in range(1 << n) if _is_face(f, supports)]
    assert homology._members(facets) == [
        f for f in faces if not any(f != g and f & g == f for g in faces)]


@given(support_sets)
@settings(max_examples=150, deadline=None)
def test_union_bitmap_holds_the_subsets_with_no_cone_vertex(case):
    n, supports = case
    unions = homology._union_bitmap(supports, homology._without(n))

    def covered(w):  # the vertices of W in some support inside W
        out = 0
        for s in supports:
            if s & w == s:
                out |= s
        return out

    assert homology._members(unions) == [w for w in range(1, 1 << n) if covered(w) == w]


def test_oracle_shares_only_linalg_with_the_primary_route():
    primary = {"_profile_from_masks", "_maximal_masks", "_closure"}

    def names(code):
        out = set(code.co_names)
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                out |= names(const)
        return out

    for func in (hochster_oracle, _strong_core, homology._core_homology,
                 homology._inclusion_maximal, homology._face_bitmap,
                 homology._facet_bitmap, homology._union_bitmap):
        assert not names(func.__code__) & primary, func.__name__


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
                for field in (GF2, QQ, FieldSpec(3), FieldSpec(5)):
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


def test_hochster_oracle_face_budget_is_the_subset_count():
    # the cores of C6^2 have overlapping facets, whose closures sum to more
    # than the 2^n vertex subsets: only `hochster_supports` checks the budget
    i = power(edge_ideal(cycle_graph(6)), 2)
    n, _ = hochster_supports(i)
    assert hochster_oracle(i, face_budget=1 << n) == graded_betti(i)
    with pytest.raises(BudgetError):
        hochster_oracle(i, face_budget=(1 << n) - 1)


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
    # the kernel runs out of faces exactly where the reference does,
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
    # C5^2 in one-word slots, and a 13-variable ideal in two-word slots
    for i in (power(edge_ideal(cycle_graph(5)), 2), WIDE_IDEALS[13]):
        size = len(oracles._lcm_lattice(list(i.gens), *lane_masks(len(i.vars))[:2], 1 << 20))
        assert _raises_budget(graded_betti, i, lattice_budget=size - 1)
        assert not _raises_budget(graded_betti, i, lattice_budget=size)


@st.composite
def random_ideals(draw, max_vars=6, max_exponent=3, min_vars=1):
    nv = draw(st.integers(min_vars, max_vars))
    names = tuple(f"x{k}" for k in range(nv))
    rows = draw(st.lists(st.lists(st.integers(0, max_exponent), min_size=nv,
                                  max_size=nv).filter(any),
                         min_size=1, max_size=6))
    return ideal([Monomial.from_dict(dict(zip(names, r))) for r in rows], vars=names)


@given(random_ideals(), st.sampled_from([GF2, QQ, FieldSpec(3)]))
@settings(max_examples=200, deadline=None)
def test_graded_betti_matches_lattice_rescan_reference(i, field):
    assert graded_betti(i, field) == oracles.lattice_rescan_betti(i, field)


def _closure_matches_frontier_reference(i) -> bool:
    nv = len(i.vars)
    reference = oracles._lcm_lattice(list(i.gens), *lane_masks(nv)[:2], 1 << 20)
    return homology._lcm_lattice(i.gens, nv, 1 << 20) == reference


@given(random_ideals())
@settings(max_examples=200, deadline=None)
def test_lcm_lattice_matches_frontier_reference(i):
    assert _closure_matches_frontier_reference(i)


@given(random_ideals(14, 15, min_vars=12))
@settings(max_examples=40, deadline=None)
def test_lcm_lattice_matches_frontier_reference_on_wide_universes(i):
    assert _closure_matches_frontier_reference(i)


# up to 12 variables a generator takes one 64-bit slot of the kernel's word,
# from 13 on two; exponents up to 15 fill every value bit of the top lane
@given(random_ideals(14, 15, min_vars=12))
@settings(max_examples=40, deadline=None)
def test_graded_betti_matches_lattice_rescan_reference_on_wide_universes(i):
    assert graded_betti(i) == oracles.lattice_rescan_betti(i, GF2)


# polarized squares of graphs on 6 and 7 vertices: 12 and 14 variables, and
# 13 when the seventh vertex is isolated (its one variable is unused)
WIDE_IDEALS = {
    nv: polarize(power(edge_ideal(g), 2))[0]
    for nv, g in ((12, path_graph(6)),
                  (13, from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])),
                  (14, from_edge_list(7, [(0, 1), (2, 3), (4, 5), (5, 6)])))}


@pytest.mark.parametrize("nv", sorted(WIDE_IDEALS))
def test_graded_betti_on_wide_universes(nv, fresh_memo):
    i = WIDE_IDEALS[nv]
    assert len(i.vars) == nv
    for field in (GF2, QQ):
        table = graded_betti(i, field)
        assert table == hochster_oracle(i, field)
        assert table == oracles.lattice_rescan_betti(i, field)


# exponents up to 2 on at most 5 variables: at most 10 polarized variables
@given(random_ideals(5, 2), st.sampled_from([GF2, QQ, FieldSpec(3)]))
@settings(max_examples=100, deadline=None)
def test_hochster_oracle_matches_lattice_rescan_reference(i, field):
    assert hochster_oracle(i, field) == oracles.lattice_rescan_betti(i, field)


def _wide_mismatches(kernel) -> int:
    return sum(kernel(i, field) != oracles.lattice_rescan_betti(i, field)
               for i in WIDE_IDEALS.values() for field in (GF2, QQ))


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


@pytest.mark.parametrize("name, old, new, mismatches", [
    ("graded_betti", "key = key << width | f", "key += 1", _dual_oracle_mismatches),
    ("graded_betti", "(diff - all_ones) & all_hi", "diff & all_hi", _dual_oracle_mismatches),
    ("graded_betti", "key = key << width | f", "key = key | f", _dual_oracle_mismatches),
    ("graded_betti", '("complexes", nv, field.characteristic)', '("complexes", nv)',
     _field_mismatches),
    ("graded_betti", "& all_hi & divisors", "& all_hi", _dual_oracle_mismatches),
    # the primary route's homology alone is wrong: the oracle builds its own
    ("_profile_from_masks", "-1 if pos % 2 else 1", "1", _dual_oracle_mismatches),
    # the empty face left out of the chain complex: no boundary from the
    # vertices to it, so H_0 is unreduced
    ("_profile_from_masks", "for k in range(1, len(levels)):", "for k in range(2, len(levels)):",
     _dual_oracle_mismatches),
    # GF(2) boundaries without the face that drops the last vertex
    ("_profile_from_masks", "row |= 1 << target[f ^ low]", "row |= 1 << target[f ^ low] if rest else 0",
     _dual_oracle_mismatches),
    # GF(3) boundaries with their minus plane dropped
    ("_profile_from_masks", "(sum(cols[::2]), sum(cols[1::2]))", "(sum(cols[::2]), 0)",
     _field_mismatches),
    # two-word slots read as one-word slots, as if the flag bit still fit
    ("unpack_slots", "if size == 8:", "if size <= 16:", _wide_mismatches),
    # the closure's step k leaves g_k itself out of the lattice
    ("_lcm_lattice", "{g, *unpack_slots(", "{*unpack_slots(", _dual_oracle_mismatches),
    # the closure joins g_k only with the points that step k - 1 added
    ("_lcm_lattice", "points |= pack_slots([b | hi for b in new], size) << (8 * size * count)\n"
                     "        count += len(new)",
     "points = pack_slots([b | hi for b in new], size)\n        count = len(new)",
     _dual_oracle_mismatches),
], ids=["memo-keyed-on-facet-count", "facet-mask-off-by-one", "memo-key-ors-facets",
        "memo-key-drops-characteristic", "nondivisor-mask-dropped",
        "profile-qq-sign-dropped", "profile-drops-empty-face", "profile-gf2-drops-last-face",
        "profile-gf3-minus-plane-dropped",
        "slot-width-off-by-one",
        "closure-drops-generator", "closure-joins-last-step-only"])
def test_mutated_betti_kernel_is_caught(name, old, new, mismatches, fresh_memo, monkeypatch):
    func = getattr(homology, name)
    monkeypatch.setattr(homology, name, oracles.mutant(func, old, old))
    assert mismatches(homology.graded_betti) == 0
    homology.clear_caches()
    monkeypatch.setattr(homology, name, oracles.mutant(func, old, new))
    assert mismatches(homology.graded_betti) > 0


ORACLE_KEY = "return frozenset(renumbered)"


def test_mutated_oracle_table_key_is_caught():
    # keyed on the number of supports inside W, different complexes collide
    assert _dual_oracle_mismatches(graded_betti,
                                   oracles.mutant(hochster_oracle, ORACLE_KEY, ORACLE_KEY)) == 0
    mutated = oracles.mutant(hochster_oracle, ORACLE_KEY, "return len(inner)")
    assert _dual_oracle_mismatches(graded_betti, mutated) > 0


def _core_dual_mismatches() -> int:
    return _dual_oracle_mismatches(graded_betti, lambda i, f: homology.hochster_oracle(i, f))


def _core_dual_rp2_mismatches() -> int:
    # RP^2's GF(2) homology has two degrees, so the oracle ranks its QQ cores
    # over QQ; no graph with n <= 4 reaches that path
    return _core_dual_mismatches() + _field_mismatches(graded_betti)


# ideals with linear generators, whose variables are nonfaces
LINEAR_IDEALS = (ideal([M("x0")]), ideal([M("x0"), M("x1*x2")]),
                 ideal([M("x0"), M("x1"), M("x2^2*x3")]))


def _linear_rescan_mismatches() -> int:
    return sum(homology.hochster_oracle(i, field) != oracles.lattice_rescan_betti(i, field)
               for i in LINEAR_IDEALS for field in (GF2, QQ))


@pytest.mark.parametrize("name, old, new, mismatches", [
    ("_strong_core", "if common != bit:", "if common:", _core_dual_mismatches),
    ("hochster_oracle", "profile = {} if face_bytes[core >> 3] >> (core & 7) & 1 else {-1: 1}",
     "profile = {}", _linear_rescan_mismatches),
    # the nonfaces closed upward by v positions instead of 2^v
    ("_face_bitmap", "(nonfaces & low) << (1 << v)", "(nonfaces & low) << v",
     _core_dual_mismatches),
    ("_union_bitmap", "unions |= moved | 1 << s", "unions |= moved", _core_dual_mismatches),
    # the oracle's own QQ boundary loses its signs
    ("_core_homology", "sign = -sign", "sign = sign", _core_dual_rp2_mismatches),
    # over QQ, any GF(2) profile is taken for the rational one
    ("_core_homology", "len(profile) <= 1", "True", _core_dual_rp2_mismatches),
], ids=["core-deletes-undominated-vertex", "nonface-core-read-as-point",
        "superset-closure-shifts-by-v", "union-closure-drops-support", "oracle-qq-sign-dropped",
        "certificate-accepts-any-gf2-profile"])
def test_mutated_oracle_core_is_caught(name, old, new, mismatches, monkeypatch):
    func = getattr(homology, name)
    monkeypatch.setattr(homology, name, oracles.mutant(func, old, old))
    assert mismatches() == 0
    monkeypatch.setattr(homology, name, oracles.mutant(func, old, new))
    assert mismatches() > 0


def test_oracle_qq_from_gf2_ranks_is_exact(monkeypatch):
    uncertified = oracles.mutant(homology._core_homology, "len(profile) <= 1", "False")
    ideals = [power(edge_ideal(g), s) for n in range(2, 7) for g in enumerate_graphs(n)
              if not g.is_edgeless() for s in ((1, 2) if n <= 5 else (1,))]
    ideals.append(_rp2_ideal())
    tables = [hochster_oracle(i, QQ) for i in ideals]
    assert tables == [graded_betti(i, QQ) for i in ideals]
    with monkeypatch.context() as m:
        m.setattr(homology, "_core_homology", uncertified)
        assert tables == [hochster_oracle(i, QQ) for i in ideals]
    # RP^2's GF(2) homology sits in degrees 1 and 2: its QQ ranks are recomputed
    calls = []
    monkeypatch.setattr(homology, "matrix_rank", lambda rows, p: calls.append(p) or matrix_rank(rows, p))
    hochster_oracle(_rp2_ideal(), QQ)
    assert calls and set(calls) == {0}


def test_primary_route_ranks_gf3_by_planes_only(monkeypatch, fresh_memo):
    # GF(3) boundaries are built as planes for `rank_gf3`; `matrix_rank`
    # serves only QQ and p >= 5, as GF(5) shows through the same patch
    calls = []
    monkeypatch.setattr(homology, "matrix_rank", lambda rows, p: calls.append(p) or matrix_rank(rows, p))
    i = _rp2_ideal()
    assert graded_betti(i, FieldSpec(3)) == hochster_oracle(i, FieldSpec(3))
    assert graded_betti(power(edge_ideal(cycle_graph(5)), 2), FieldSpec(3)).regularity() == 4
    assert calls == []
    graded_betti(i, FieldSpec(5))
    assert calls and set(calls) == {5}


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
