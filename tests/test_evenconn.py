from __future__ import annotations

import itertools

import pytest

from builders import cycle_graph, disjoint_union, path_graph
from edgereg.evenconn import (colon_graph, even_connected_pairs, even_connection_lengths,
                              isolated_reduction_failures)
from edgereg.graphs import cricket, enumerate_graphs, from_edge_list
from edgereg.homology import regularity
from edgereg.invariants import is_gap_free
from edgereg.monomials import (colon_by_monomial, edge_ideal, packed_ideal, polarize, power,
                               squarefree)
from edgereg.suites import SuiteSpec, run
from oracles import (certificate_holds, contains, frozenset_isolated_reduction_failures,
                     longest_walk_endpoints)


def _named_gens(i) -> set[str]:
    # the generators by name: ideals over universes in different orders compare equal
    return set(i.generators())


def _pairs_beyond_graph(g, pairs):
    return [(u, v) for u, v, *_ in pairs if u == v or not g.has_edge(u, v)]


def _colon_graph(g, m):
    return colon_graph(g, even_connection_lengths(g, m))[0]


def _colon_ideal(g, m):
    # the colon graph's edge ideal over its own variable names, a whisker's as xu.2
    gp, names = colon_graph(g, even_connection_lengths(g, m))
    return packed_ideal(names, (squarefree(e, gp.n) for e in gp.edges()))


def test_path_even_connection():
    p5 = path_graph(5)
    pairs = even_connected_pairs(p5, ((1, 2),))
    paths = {(u, v): path for u, v, path, _ in pairs}
    assert (0, 3) in paths
    assert paths[(0, 3)] == (0, 1, 2, 3)
    assert _pairs_beyond_graph(p5, pairs) == [(0, 3)]


def test_c4_even_connection():
    c4 = cycle_graph(4)
    pairs = even_connected_pairs(c4, ((1, 2),))
    paths = {(u, v): path for u, v, path, _ in pairs}
    assert paths[(0, 3)] == (0, 1, 2, 3)


def test_single_edge_nothing_new():
    k2 = path_graph(2)
    pairs = even_connected_pairs(k2, ((0, 1),))
    assert _pairs_beyond_graph(k2, pairs) == []
    assert _colon_graph(k2, ((0, 1),)) == k2


def test_colon_graph_path_chord():
    p5 = path_graph(5)
    pairs = even_connection_lengths(p5, ((1, 2),))
    gp, names = colon_graph(p5, pairs)
    assert gp.edges() == [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4)]
    assert names == ("x0", "x1", "x2", "x3", "x4")
    assert _pairs_beyond_graph(p5, pairs) == [(0, 3)]


def test_certificates_validate_and_reverse():
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            edges = g.edges()
            if not edges:
                continue
            for m in itertools.combinations_with_replacement(edges, 2):
                for u, v, path, assignments in even_connected_pairs(g, m):
                    assert (path[0], path[-1]) in ((u, v), (v, u))
                    assert certificate_holds((path, assignments), g, m)
                    last = len(path) - 2
                    back = (path[::-1], tuple(sorted((last - pos, e) for pos, e in assignments)))
                    assert certificate_holds(back, g, m)


def test_multiset_must_live_in_graph():
    for search in (even_connected_pairs, even_connection_lengths):
        with pytest.raises(Exception):
            search(path_graph(3), ((0, 2),))
        with pytest.raises(ValueError):
            search(path_graph(3), ())
        # the multiset is the sorted tuple of edges (u, v), u < v
        with pytest.raises(ValueError):
            search(path_graph(3), ((1, 0),))
        with pytest.raises(ValueError):
            search(path_graph(3), ((1, 2), (0, 1)))


def _certified_lengths(g, m):
    return {(u, v): (len(path) - 2) // 2 for u, v, path, _ in even_connected_pairs(g, m)}


def test_layer_search_matches_certified_bfs():
    # the two searches share no code: packed layers against tuple states
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for size in (1, 2, 3):
                for m in itertools.combinations_with_replacement(g.edges(), size):
                    assert even_connection_lengths(g, m) == _certified_lengths(g, m)


def test_layer_search_widens_counters_past_fifteen():
    c5 = cycle_graph(5)
    for mult in (15, 16, 17):
        m = ((0, 1),) * mult + ((2, 3),)
        lengths = even_connection_lengths(c5, m)
        assert lengths == _certified_lengths(c5, m)
        assert max(lengths.values()) == mult + 1


def test_whisker_for_self_connection():
    # in a triangle, x is even-connected to itself through y z: the colon
    # graph acquires a whisker vertex x.2
    k3 = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    pairs = even_connection_lengths(k3, ((1, 2),))
    assert (0, 0) in pairs
    gp, names = colon_graph(k3, pairs)
    assert "x0.2" in names
    assert gp.has_edge(0, names.index("x0.2"))


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
                for m in itertools.combinations_with_replacement(edges, size):
                    colon = colon_by_monomial(big, sum(squarefree(e, g.n) for e in m))
                    assert all(d == 2 for d in colon.generator_degrees())
                    pol = polarize(colon)
                    assert _named_gens(_colon_ideal(g, m)) == _named_gens(pol)


def test_check_even_connection_theorem_examples():
    for g, s in ((cycle_graph(5), 1), (cricket(), 1), (path_graph(2), 1)):
        _, code = run(SuiteSpec(("even-connection",), graphs=(g,), s_max=s))
        assert code == 0


def test_colon_graph_of_cycle_has_regularity_two():
    c5 = cycle_graph(5)
    for e in c5.edges():
        assert regularity(edge_ideal(_colon_graph(c5, (e,)))) == 2


def test_leaf_edge_reduction():
    # an isolated edge in the multiset contributes nothing to the colon
    g = disjoint_union(path_graph(2), path_graph(3))
    iso = (0, 1)
    other = (2, 3)
    assert _named_gens(_colon_ideal(g, (iso, other))) == _named_gens(_colon_ideal(g, (other,)))
    # and at the ideal level: (I^2 : e_iso) = I
    i = edge_ideal(g)
    assert colon_by_monomial(power(i, 2), squarefree(iso, g.n)) == i


def test_gap_freeness_preserved():
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if g.is_edgeless() or not is_gap_free(g):
                continue
            for e in g.edges():
                assert is_gap_free(_colon_graph(g, (e,)))


def test_neighbor_variables_enter_vertex_colon():
    # for w adjacent to the multiset, every colon-graph neighbor of w
    # appears as a variable in (J : w)
    for g in enumerate_graphs(4):
        if g.is_edgeless():
            continue
        i = edge_ideal(g)
        for e in g.edges():
            j = colon_by_monomial(power(i, 2), squarefree(e, g.n))
            gp = _colon_graph(g, (e,))
            for w in e:
                jw = colon_by_monomial(j, squarefree((w,), g.n))
                for u in gp.neighbors(w):
                    if u < g.n:
                        assert contains(jw, {f"x{u}": 1})


# the isolated-reduction lemma ------------------------------------------------

def test_isolated_reduction_vacuous():
    k2 = path_graph(2)
    pairs = even_connection_lengths(k2, ((0, 1),))
    # every pair avoiding W = {0, 1} is ruled out, so the lemma holds vacuously
    assert longest_walk_endpoints(pairs, {0, 1}) == set()
    assert all(w != {0, 1} for w, _ in isolated_reduction_failures(k2, pairs))


def test_isolated_reduction_c5():
    c5 = cycle_graph(5)
    m = ((0, 1),)
    ks = {(a, b): (len(path) - 2) // 2 for a, b, path, _ in even_connected_pairs(c5, m)}
    kmax = max(ks.values())
    endpoints = {x for (a, b), k in ks.items() if k == kmax for x in (a, b)}
    lengths = even_connection_lengths(c5, m)
    assert longest_walk_endpoints(lengths, frozenset()) == endpoints
    assert all(w != frozenset() for w, _ in isolated_reduction_failures(c5, lengths))


def test_isolated_reduction_rejects_bad_endpoint():
    p5 = path_graph(5)
    m = ((1, 2),)
    # every walk uses 1-2 once, so k = 1 throughout: 0-1-2-3 and the walks
    # doubling back along 1-2 end in {0, 1, 2, 3}, never at vertex 4
    endpoints = longest_walk_endpoints(even_connection_lengths(p5, m), frozenset())
    assert endpoints == {0, 1, 2, 3}


def test_isolated_reduction_gap_free_sweep():
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if g.is_edgeless() or not is_gap_free(g):
                continue
            for e in g.edges():
                pairs = even_connection_lengths(g, (e,))
                assert isolated_reduction_failures(g, pairs) == []


def _gap_free_colon_pairs(n_max, sizes):
    for n in range(2, n_max + 1):
        for g in enumerate_graphs(n):
            if g.is_edgeless() or not is_gap_free(g):
                continue
            for size in sizes:
                for combo in itertools.combinations_with_replacement(g.edges(), size):
                    yield g, even_connection_lengths(g, combo)


def test_isolated_reduction_matches_frozenset_reference():
    for g, pairs in _gap_free_colon_pairs(6, (1, 2)):
        assert isolated_reduction_failures(g, pairs) == \
            frozenset_isolated_reduction_failures(g, pairs)


def test_isolated_reduction_matches_reference_on_forged_colon_graphs():
    # real pairs never fail, so forge them: add a pair that is not
    # even-connected (a self pair included), at every length up to one past
    # the longest, or drop a pair, so that N_G'[u] and the longest-walk
    # endpoints change
    failures = 0
    for g, pairs in _gap_free_colon_pairs(5, (1,)):
        top = max(pairs.values())
        absent = [e for e in itertools.combinations_with_replacement(range(g.n), 2)
                  if e not in pairs]
        forgeries = [{**pairs, e: k} for e in absent for k in range(1, top + 2)]
        forgeries += [{p: k for p, k in pairs.items() if p != dropped} for dropped in pairs]
        for forged in forgeries:
            got = isolated_reduction_failures(g, forged)
            assert got == frozenset_isolated_reduction_failures(g, forged)
            failures += len(got)
    assert failures > 1000
