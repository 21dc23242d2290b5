from __future__ import annotations

import pytest

import oracles
from builders import (complete_bipartite, complete_graph, cycle_graph, disjoint_edges,
                      edgeless, graph_join, ideal, path_graph, star)
from edgereg import invariants, suites
from edgereg.graphs import claw, complement, cricket, enumerate_graphs
from edgereg.homology import GF2, QQ, FieldSpec, regularity_of_power
from edgereg.invariants import (has_induced_pattern, induced_matching_number,
                                invariant_record, is_cameron_walker, is_chordal,
                                is_claw_free, is_co_chordal, is_cricket_free,
                                is_gap_free, is_locally_linear, local_regularity, local_regularity_max,
                                matching_number)


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
    # the predicate is nu <= 1: check it against the no-induced-2K2 definition
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert is_gap_free(g) == oracles.brute_gap_free(g)


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
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert is_chordal(g) == oracles.brute_chordal(g)
            assert is_co_chordal(g) == oracles.brute_chordal(complement(g))


def test_mutated_chordal_is_caught(monkeypatch, fresh_memo):
    # a clique test that always passes deletes every vertex, so every graph is chordal
    old = "all(hood & ~g.adj[u] == 1 << u for u in _bits(hood))"
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    chordal = invariants._chordal
    for new, caught in [(old, False), ("True", True)]:
        suites.clear_all_caches()
        monkeypatch.setattr(invariants, "_chordal", oracles.mutant(chordal, old, new))
        assert any(is_chordal(g) != oracles.brute_chordal(g) for g in graphs) == caught


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
    assert is_locally_linear(edgeless(3))


def test_local_regularity_matches_colon_formula():
    # (I : x) = I(G - N[x]) + (variables of N(x)), the two summands the link
    # route reads: check it against the direct colon on every small graph
    from edgereg.monomials import colon_by_monomial, edge_ideal, squarefree, sum_ideals
    from edgereg.graphs import closed_neighborhood
    for g in enumerate_graphs(4):
        if g.is_edgeless():
            continue
        i = edge_ideal(g)
        for x in range(g.n):
            colon = colon_by_monomial(i, squarefree((x,), g.n))
            blocked = closed_neighborhood(g, 1 << x)
            expected = sum_ideals(
                ideal([{f"x{u}": 1, f"x{v}": 1}
                       for u, v in g.edges() if not blocked & (1 << u | 1 << v)],
                      vars=i.vars),
                ideal([{f"x{u}": 1} for u in g.neighbors(x)], vars=i.vars))
            assert colon == expected


def _link_mismatches(sizes, fields) -> int:
    """Vertices x, isolated ones included, of the graphs with n in `sizes`
    where `invariants.local_regularity` and the colon route differ, counted
    over `fields`."""
    return sum(invariants.local_regularity(g, x, field)
               != oracles.colon_local_regularity(g, x, field)
               for field in fields for n in sizes for g in enumerate_graphs(n) for x in range(g.n))


def test_local_regularity_matches_the_colon_route(fresh_memo):
    assert _link_mismatches(range(7), (GF2, QQ, FieldSpec(3))) == 0


@pytest.mark.parametrize("name, old, new", [
    ("link", "closed_neighborhood(g, 1 << x)", "1 << x"),
    ("local_regularity", "0 if g.is_edgeless() else 1", "0 if g.is_edgeless() else 2"),
], ids=["link-removes-only-x", "edgeless-link-valued-2"])
def test_mutated_link_is_caught(monkeypatch, fresh_memo, name, old, new):
    monkeypatch.setattr(invariants, name, oracles.mutant(getattr(invariants, name), old, new))
    assert _link_mismatches(range(5), (GF2,)) > 0


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


# the class predicates of the paper's hypotheses, against their definitions:
# (brute-force definition, graphs with an edge and n <= 6 where it holds)
HYPOTHESIS_PREDICATES = {
    "is_gap_free": (oracles.brute_gap_free, 139),
    "is_cameron_walker": (oracles.brute_cameron_walker, 40),
    "is_locally_linear": (oracles.brute_locally_linear, 196),
}


def _predicate_tally(name: str) -> tuple[int, int]:
    """(graphs where the package predicate holds, graphs where it and the
    definition disagree) over the graphs with an edge and n <= 6."""
    predicate, brute = getattr(invariants, name), HYPOTHESIS_PREDICATES[name][0]
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n) if not g.is_edgeless()]
    return sum(map(predicate, graphs)), sum(predicate(g) != brute(g) for g in graphs)


@pytest.mark.parametrize("name", HYPOTHESIS_PREDICATES)
def test_hypothesis_predicates_match_their_definitions(name):
    assert _predicate_tally(name) == (HYPOTHESIS_PREDICATES[name][1], 0)


@pytest.mark.parametrize("name, old", [
    ("is_gap_free", "return induced_matching_number(g) <= 1"),
    ("is_cameron_walker", "return induced_matching_number(g) == matching_number(g)"),
    ("is_locally_linear", "return local_regularity_max(g, field) <= 2"),
], ids=list(HYPOTHESIS_PREDICATES))
def test_mutated_hypothesis_predicate_is_caught(monkeypatch, fresh_memo, name, old):
    # a predicate that never holds leaves every suite it guards vacuous
    expected = (HYPOTHESIS_PREDICATES[name][1], 0)
    predicate = getattr(invariants, name)
    monkeypatch.setattr(invariants, name, oracles.mutant(predicate, old, old))
    assert _predicate_tally(name) == expected
    monkeypatch.setattr(invariants, name, oracles.mutant(predicate, old, "return False"))
    assert _predicate_tally(name) != expected


def test_invariant_record_fields():
    # in the order `edgereg invariants` prints them
    rec = invariant_record(complete_graph(3))
    assert list(rec.items()) == [("beta", 1), ("nu", 1), ("gap_free", True), ("claw_free", True),
                                 ("cricket_free", True), ("chordal", True), ("co_chordal", True),
                                 ("cameron_walker", True), ("locally_linear", True),
                                 ("local_reg_max", 1)]

