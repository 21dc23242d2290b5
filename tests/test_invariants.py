from __future__ import annotations

import pytest

import oracles
from edgereg.graphs import (claw, complement, complete_bipartite, complete_graph,
                            cricket, cycle_graph, disjoint_edges, edgeless,
                            enumerate_graphs, graph_join, path_graph, star)
from edgereg.homology import regularity_of_power
from edgereg.invariants import (has_induced_pattern, induced_matching_number,
                                invariant_record, is_cameron_walker, is_chordal,
                                is_claw_free, is_co_chordal, is_cricket_free,
                                is_gap_free, is_locally_linear,
                                is_locally_of_regularity_at_most,
                                local_regularity, local_regularity_max,
                                matching_number)
from edgereg.suites import check_hierarchy_function


def test_matching_number_examples():
    assert matching_number(cycle_graph(5)) == 2
    assert matching_number(path_graph(4)) == 2
    assert matching_number(edgeless(4)) == 0


def test_induced_matching_examples():
    assert induced_matching_number(path_graph(4)) == 1
    assert induced_matching_number(disjoint_edges(2)) == 2
    assert induced_matching_number(cycle_graph(5)) == 1


def test_matching_numbers_against_brute_force():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert matching_number(g) == oracles.brute_matching_number(g)
            assert induced_matching_number(g) == oracles.brute_induced_matching_number(g)


def test_nu_at_most_beta():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert induced_matching_number(g) <= matching_number(g)


def test_gap_free_examples():
    assert is_gap_free(cycle_graph(4))
    assert not is_gap_free(path_graph(5))
    for n in range(1, 6):
        assert is_gap_free(complete_graph(n))


def test_gap_free_iff_nu_at_most_one():
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            if g.is_edgeless():
                continue
            assert is_gap_free(g) == (induced_matching_number(g) == 1)


def test_induced_patterns():
    assert has_induced_pattern(cricket(), claw())
    assert not has_induced_pattern(cycle_graph(5), claw())
    assert has_induced_pattern(complete_graph(3), complete_graph(3))
    assert has_induced_pattern(complete_bipartite(1, 3), claw())


def test_claw_free_implies_cricket_free():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if is_claw_free(g):
                assert is_cricket_free(g)


def test_chordal_examples():
    assert is_chordal(disjoint_edges(2))
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(5))
    assert is_chordal(complete_graph(5))
    assert is_chordal(star(4))


def test_chordal_against_induced_cycle_oracle():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            expected = not oracles.has_induced_cycle_of_length_at_least_4(g)
            assert is_chordal(g) == expected


def test_co_chordal_examples():
    assert is_co_chordal(cycle_graph(4))
    assert not is_co_chordal(cycle_graph(5))
    for n in range(1, 6):
        assert is_co_chordal(complete_graph(n))


def test_cameron_walker_examples():
    assert is_cameron_walker(star(3))
    assert not is_cameron_walker(path_graph(4))
    assert is_cameron_walker(disjoint_edges(2))


# local regularity ------------------------------------------------------------

def test_local_regularity_cycle():
    assert local_regularity(cycle_graph(5), 0) == 2


def test_local_regularity_complete():
    for x in range(3):
        assert local_regularity(complete_graph(3), x) == 1


def test_local_regularity_join_fixture():
    # the join of two disjoint edges with K6: locally linear but not
    # gap-free; vertices on the 2K2 side see a colon of regularity 2,
    # vertices in the K6 see only variables
    join = graph_join(disjoint_edges(2), complete_graph(6))
    assert all(local_regularity(join, x) == 2 for x in range(4))
    assert all(local_regularity(join, x) == 1 for x in range(4, 10))
    assert local_regularity_max(join) == 2
    assert is_locally_linear(join)
    assert not is_gap_free(join)


def test_local_regularity_edgeless():
    assert local_regularity(edgeless(3), 0) == 0
    assert local_regularity_max(edgeless(3)) == 0
    assert is_locally_of_regularity_at_most(edgeless(3), 1)


def test_local_regularity_matches_colon_formula():
    # (I : x) = I(G - N[x]) + (variables of N(x)); spot-verify the engine
    # input equals the direct colon on every small graph
    from edgereg.monomials import (Monomial, colon_by_monomial, edge_ideal, ideal, squarefree,
                                   sum_ideals)
    from edgereg.graphs import closed_neighborhood
    for g in enumerate_graphs(4):
        if g.is_edgeless():
            continue
        i = edge_ideal(g)
        for x in range(g.n):
            colon = colon_by_monomial(i, squarefree((x,), g.n))
            blocked = closed_neighborhood(g, x)
            expected = sum_ideals(
                ideal([Monomial.parse(f"{g.labels[u]}*{g.labels[v]}")
                       for u, v in g.edges() if u not in blocked and v not in blocked],
                      vars=g.labels),
                ideal([Monomial.parse(g.labels[u]) for u in g.neighbors(x)],
                      vars=g.labels))
            assert colon.same_ideal_as(expected)


def test_locally_of_regularity_validation():
    with pytest.raises(ValueError):
        is_locally_of_regularity_at_most(cycle_graph(4), 0)


def test_gap_free_cricket_free_implies_locally_linear():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if is_gap_free(g) and is_cricket_free(g):
                assert is_locally_linear(g)


def test_triangle_free_complement_implies_locally_linear():
    from edgereg.invariants import has_induced_pattern
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if not has_induced_pattern(complement(g), complete_graph(3)):
                assert is_locally_linear(g)


def test_not_gapfree_locally_linear_has_regularity_three():
    # such graphs exist from six vertices on; their regularity is pinned
    found = 0
    for g in enumerate_graphs(6):
        if g.is_edgeless() or is_gap_free(g) or not is_locally_linear(g):
            continue
        found += 1
        assert regularity_of_power(g, 1) == 3
    assert found > 0


def test_invariant_record_fields():
    rec = invariant_record(complete_graph(3)).to_json_dict()
    assert rec == {"beta": 1, "nu": 1, "gap_free": True, "claw_free": True,
                   "cricket_free": True, "chordal": True, "co_chordal": True,
                   "cameron_walker": True, "locally_linear": True,
                   "local_reg_max": 1}


# hierarchy checks --------------------------------------------------------------

def _all_graphs_up_to(n):
    out = []
    for k in range(n + 1):
        out.extend(enumerate_graphs(k))
    return out


def test_hierarchy_matching_plus_one():
    family = _all_graphs_up_to(4)
    report = check_hierarchy_function(family, lambda g: matching_number(g) + 1)
    assert report.passed
    assert not report.notes


def test_hierarchy_regularity_on_locally_linear():
    family = [g for g in _all_graphs_up_to(4) if is_locally_linear(g)]
    def f(g):
        return 2 if g.is_edgeless() else regularity_of_power(g, 1)
    report = check_hierarchy_function(family, f)
    assert report.passed
    assert not report.notes


def test_hierarchy_empty_family():
    report = check_hierarchy_function([], lambda g: 1)
    assert report.passed and report.graphs_tested == 0


def test_hierarchy_reports_closure_gaps():
    # C5 alone is not closed under vertex deletion
    report = check_hierarchy_function([cycle_graph(5)], lambda g: 5)
    assert report.notes


def test_hierarchy_flags_bad_function():
    family = _all_graphs_up_to(3)
    report = check_hierarchy_function(family, lambda g: 1 if g.edge_count() else 5)
    assert not report.passed
