from __future__ import annotations

import itertools

import pytest

from edgereg.evenconn import (colon_graph, even_connected_pairs, even_connection_lengths,
                              isolated_reduction_failures, longest_walk_endpoints)
from edgereg.graphs import (cricket, cycle_graph, disjoint_union,
                            enumerate_graphs, from_edge_list, path_graph)
from edgereg.homology import regularity
from edgereg.invariants import is_gap_free
from edgereg.monomials import (EdgeMultiset, Monomial, colon_by_monomial,
                               edge_ideal, polarize, power, squarefree)
from edgereg.suites import SuiteSpec, run_suite


def _pairs_beyond_graph(g, pairs):
    return [(u, v) for u, v, _ in pairs if u == v or not g.has_edge(u, v)]


def test_path_even_connection():
    p5 = path_graph(5)
    pairs = even_connected_pairs(p5, EdgeMultiset.of([(1, 2)]))
    certs = {(u, v): c for u, v, c in pairs}
    assert (0, 3) in certs
    assert certs[(0, 3)].path == (0, 1, 2, 3)
    assert _pairs_beyond_graph(p5, pairs) == [(0, 3)]


def test_c4_even_connection():
    c4 = cycle_graph(4)
    pairs = even_connected_pairs(c4, EdgeMultiset.of([(1, 2)]))
    certs = {(u, v): c for u, v, c in pairs}
    assert certs[(0, 3)].path == (0, 1, 2, 3)


def test_single_edge_nothing_new():
    k2 = path_graph(2)
    pairs = even_connected_pairs(k2, EdgeMultiset.of([(0, 1)]))
    assert _pairs_beyond_graph(k2, pairs) == []
    result = colon_graph(k2, EdgeMultiset.of([(0, 1)]))
    assert result.graph == k2 and result.new_pairs == ()


def test_colon_graph_path_chord():
    p5 = path_graph(5)
    result = colon_graph(p5, EdgeMultiset.of([(1, 2)]))
    assert result.graph.edges() == [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4)]
    assert [(u, v) for u, v, _ in result.new_pairs] == [(0, 3)]


def test_certificates_validate_and_reverse():
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            edges = g.edges()
            if not edges:
                continue
            for combo in itertools.combinations_with_replacement(edges, 2):
                m = EdgeMultiset.of(combo)
                for u, v, cert in even_connected_pairs(g, m):
                    assert cert.endpoints() in ((u, v), (v, u))
                    assert cert.check(g, m)
                    assert cert.reversed().check(g, m)


def test_multiset_must_live_in_graph():
    for search in (even_connected_pairs, even_connection_lengths):
        with pytest.raises(Exception):
            search(path_graph(3), EdgeMultiset.of([(0, 2)]))
        with pytest.raises(ValueError):
            search(path_graph(3), EdgeMultiset.of([]))


def _certified_lengths(g, m):
    return {(u, v): c.k for u, v, c in even_connected_pairs(g, m)}


def test_layer_search_matches_certified_bfs():
    # the two searches share no code: packed layers against tuple states
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for size in (1, 2, 3):
                for combo in itertools.combinations_with_replacement(g.edges(), size):
                    m = EdgeMultiset.of(combo)
                    assert even_connection_lengths(g, m) == _certified_lengths(g, m)


def test_layer_search_widens_counters_past_fifteen():
    c5 = cycle_graph(5)
    for mult in (15, 16, 17):
        m = EdgeMultiset.of([(0, 1)] * mult + [(2, 3)])
        lengths = even_connection_lengths(c5, m)
        assert lengths == _certified_lengths(c5, m)
        assert max(lengths.values()) == mult + 1


def test_whisker_for_self_connection():
    # in a triangle, x is even-connected to itself through y z: the colon
    # graph acquires a whisker vertex x.2
    k3 = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    result = colon_graph(k3, EdgeMultiset.of([(1, 2)]))
    selfs = [(u, v) for u, v, _ in result.new_pairs if u == v]
    assert (0, 0) in selfs
    assert "x0.2" in result.graph.labels
    w = result.graph.labels.index("x0.2")
    assert result.graph.has_edge(0, w)


def test_oracle_equality_small_sweep():
    # central contract: the combinatorial colon graph presents exactly the
    # polarized algebraic colon ideal
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            edges = g.edges()
            if not edges:
                continue
            i = edge_ideal(g)
            for size in (1, 2):
                big = power(i, size + 1)
                for combo in itertools.combinations_with_replacement(edges, size):
                    m = EdgeMultiset.of(combo)
                    colon = colon_by_monomial(big, m.packed_product(g.n))
                    assert all(d == 2 for d in colon.generator_degrees())
                    pol, _ = polarize(colon)
                    assert edge_ideal(colon_graph(g, m).graph).same_ideal_as(pol)


def test_check_even_connection_theorem_examples():
    for g, s in ((cycle_graph(5), 1), (cricket(), 1), (path_graph(2), 1)):
        report = run_suite(SuiteSpec("even-connection", graphs=(g,), s_max=s))
        assert report.passed


def test_colon_graph_of_cycle_has_regularity_two():
    c5 = cycle_graph(5)
    for e in c5.edges():
        result = colon_graph(c5, EdgeMultiset.of([e]))
        assert regularity(edge_ideal(result.graph)) == 2


def test_leaf_edge_reduction():
    # an isolated edge in the multiset contributes nothing to the colon
    g = disjoint_union(path_graph(2), path_graph(3))
    iso = (0, 1)
    other = (2, 3)
    with_leaf = colon_graph(g, EdgeMultiset.of([iso, other]))
    without = colon_graph(g, EdgeMultiset.of([other]))
    assert edge_ideal(with_leaf.graph).same_ideal_as(edge_ideal(without.graph))
    # and at the ideal level: (I^2 : e_iso) = I
    i = edge_ideal(g)
    assert colon_by_monomial(power(i, 2), squarefree(iso, g.n)).same_ideal_as(i)


def test_gap_freeness_preserved():
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if g.is_edgeless() or not is_gap_free(g):
                continue
            for e in g.edges():
                assert is_gap_free(colon_graph(g, EdgeMultiset.of([e])).graph)


def test_neighbor_variables_enter_vertex_colon():
    # for w adjacent to the multiset, every colon-graph neighbor of w
    # appears as a variable in (J : w)
    for g in enumerate_graphs(4):
        if g.is_edgeless():
            continue
        i = edge_ideal(g)
        for e in g.edges():
            m = EdgeMultiset.of([e])
            j = colon_by_monomial(power(i, 2), m.packed_product(g.n))
            gp = colon_graph(g, m).graph
            for w in e:
                jw = colon_by_monomial(j, squarefree((w,), g.n))
                for u in gp.neighbors(w):
                    if u < g.n:
                        assert jw.contains(Monomial.parse(g.labels[u]))


# the isolated-reduction lemma ------------------------------------------------

def test_isolated_reduction_vacuous():
    k2 = path_graph(2)
    colon = colon_graph(k2, EdgeMultiset.of([(0, 1)]))
    # every pair avoiding W = {0, 1} is ruled out, so the lemma holds vacuously
    assert longest_walk_endpoints(colon, {0, 1}) == set()
    assert all(w != {0, 1} for w, _ in isolated_reduction_failures(colon))


def test_isolated_reduction_c5():
    c5 = cycle_graph(5)
    m = EdgeMultiset.of([(0, 1)])
    pairs = even_connected_pairs(c5, m)
    kmax = max(c.k for _, _, c in pairs)
    endpoints = {x for a, b, c in pairs if c.k == kmax for x in (a, b)}
    colon = colon_graph(c5, m)
    assert longest_walk_endpoints(colon, frozenset()) == endpoints
    assert all(w != frozenset() for w, _ in isolated_reduction_failures(colon))


def test_isolated_reduction_rejects_bad_endpoint():
    p5 = path_graph(5)
    m = EdgeMultiset.of([(1, 2)])
    # every walk uses 1-2 once, so k = 1 throughout: 0-1-2-3 and the walks
    # doubling back along 1-2 end in {0, 1, 2, 3}, never at vertex 4
    endpoints = longest_walk_endpoints(colon_graph(p5, m), frozenset())
    assert endpoints == {0, 1, 2, 3}


def test_isolated_reduction_gap_free_sweep():
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if g.is_edgeless() or not is_gap_free(g):
                continue
            for e in g.edges():
                assert isolated_reduction_failures(colon_graph(g, EdgeMultiset.of([e]))) == []
