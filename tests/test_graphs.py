from __future__ import annotations

import json
import random

import pytest

import oracles
from edgereg.graphs import (GraphError, canonical_key, claw,
                            closed_neighborhood, complement, complete_graph,
                            cricket, cycle_graph, delete_closed_neighborhood,
                            delete_vertices, emit_graph6, enumerate_graphs,
                            from_edge_list, from_json_dict, induced_subgraph,
                            is_isomorphic, parse_graph6, path_graph)


def test_from_edge_list_cycle():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert all(g.degree(v) == 2 for v in range(4))


def test_from_edge_list_cricket_matches_builder():
    g = from_edge_list(5, [(0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert g == cricket()
    assert g.degree(2) == 4


def test_from_edge_list_edgeless():
    g = from_edge_list(3, [])
    assert g.is_edgeless() and g.n == 3


def test_from_edge_list_errors():
    with pytest.raises(GraphError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(GraphError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(GraphError):
        from_edge_list(3, [(0, 1), (1, 0)])


# graph6 -----------------------------------------------------------------

def test_parse_graph6_k4():
    g = parse_graph6("C~")
    assert g.n == 4 and g.edge_count() == 6


def test_parse_graph6_edgeless_5():
    g = parse_graph6("D??")
    assert g.n == 5 and g.is_edgeless()


def test_parse_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_parse_graph6_malformed():
    for bad in ("", "C", "C~~", "~??", "A" + chr(30), "AO"):
        with pytest.raises(GraphError):
            parse_graph6(bad)


def test_graph6_roundtrip_all_small_labeled():
    for n in range(5):
        for g in oracles.all_labeled_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_graph6_roundtrip_random_larger():
    rng = random.Random(11)
    for n in (7, 8):
        for _ in range(200):
            edges = [e for e in
                     [(u, v) for u in range(n) for v in range(u + 1, n)]
                     if rng.random() < 0.5]
            g = from_edge_list(n, edges)
            assert parse_graph6(emit_graph6(g)) == g


def test_json_roundtrip():
    g = cricket()
    record = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    assert from_json_dict(json.loads(json.dumps(record))) == g


# complement / induced ----------------------------------------------------

def test_complement_c4_is_two_disjoint_edges():
    assert complement(cycle_graph(4)).edges() == [(0, 2), (1, 3)]


def test_complement_complete_is_edgeless():
    for n in range(1, 6):
        assert complement(complete_graph(n)).is_edgeless()


def test_complement_c5_self_complementary():
    c5 = cycle_graph(5)
    assert oracles.permutation_isomorphic(complement(c5), c5)


def test_complement_involution_on_enumeration():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert complement(complement(g)) == g


def test_induced_subgraph_of_cycle_is_path():
    sub, mapping = induced_subgraph(cycle_graph(5), {0, 1, 2})
    assert sub.edges() == [(0, 1), (1, 2)]
    assert mapping == {0: 0, 1: 1, 2: 2}
    assert sub.labels == ("x0", "x1", "x2")


def test_induced_subgraph_identity():
    g = cricket()
    sub, mapping = induced_subgraph(g, range(g.n))
    assert sub == g and mapping == {v: v for v in range(g.n)}


def test_induced_subgraph_of_cricket():
    sub, _ = induced_subgraph(cricket(), {0, 1, 2})
    assert sub.edges() == [(0, 2), (1, 2)]


def test_induced_subgraph_nested_intersection():
    rng = random.Random(3)
    for g in enumerate_graphs(5):
        w1 = {v for v in range(g.n) if rng.random() < 0.7}
        w2 = {v for v in range(g.n) if rng.random() < 0.7}
        direct, dmap = induced_subgraph(g, w1 & w2)
        outer, omap = induced_subgraph(g, w1)
        nested, nmap = induced_subgraph(outer, {omap[v] for v in w1 & w2})
        assert nested == direct
        assert {v: nmap[omap[v]] for v in w1 & w2} == dmap


def test_induced_subgraph_out_of_range():
    with pytest.raises(GraphError):
        induced_subgraph(cycle_graph(4), {0, 9})


# neighborhoods -----------------------------------------------------------

def test_closed_neighborhood_vertex():
    assert closed_neighborhood(cycle_graph(5), 0) == {4, 0, 1}


def test_closed_neighborhood_edge():
    assert closed_neighborhood(path_graph(5), (1, 2)) == {0, 1, 2, 3}


def test_closed_neighborhood_vertex_set():
    assert closed_neighborhood(cycle_graph(4), {0, 2}) == {0, 1, 2, 3}


def test_closed_neighborhood_edge_set():
    assert closed_neighborhood(path_graph(5), [(0, 1), (3, 4)]) == {0, 1, 2, 3, 4}


def test_delete_closed_neighborhood_cycle():
    h, mapping = delete_closed_neighborhood(cycle_graph(5), 0)
    assert h.edges() == [(0, 1)]
    assert mapping == {2: 0, 3: 1}
    assert h.labels == ("x2", "x3")


def test_delete_closed_neighborhood_complete():
    for n in range(2, 6):
        h, _ = delete_closed_neighborhood(complete_graph(n), 0)
        assert h.n == 0


def test_delete_closed_neighborhood_star():
    # removing N[center] wipes the whole claw; removing N[a leaf] keeps the
    # other two leaves, isolated; deleting just the center vertex keeps all
    # three leaves isolated
    center, _ = delete_closed_neighborhood(claw(), 0)
    assert center.n == 0
    leaf, _ = delete_closed_neighborhood(claw(), 1)
    assert leaf.n == 2 and leaf.is_edgeless()
    no_center, _ = delete_vertices(claw(), [0])
    assert no_center.n == 3 and no_center.is_edgeless()


# enumeration -------------------------------------------------------------

def test_enumeration_census():
    assert [len(list(enumerate_graphs(n))) for n in range(7)] == [1, 1, 2, 4, 11, 34, 156]


def test_enumeration_connected_census():
    assert sum(map(oracles._connected, enumerate_graphs(4))) == 6
    assert sum(map(oracles._connected, enumerate_graphs(5))) == 21


def test_enumeration_bound():
    with pytest.raises(GraphError):
        list(enumerate_graphs(9))


def test_enumeration_is_a_fresh_list():
    # the classes are built at the call, so the bound is checked there too
    with pytest.raises(GraphError):
        enumerate_graphs(9)
    first = enumerate_graphs(4)
    assert isinstance(first, list)
    first.clear()
    assert len(enumerate_graphs(4)) == 11


def test_enumeration_matches_brute_force_dedup():
    for n in range(5):
        brute = oracles.dedup_by_permutation(oracles.all_labeled_graphs(n))
        assert len(list(enumerate_graphs(n))) == len(brute)


def test_enumeration_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()  # every graph on at most 7 vertices, once each
    keys = [canonical_key(from_edge_list(h.number_of_nodes(), list(h.edges())))
            for h in atlas]
    assert len(keys) == len(set(keys)) == 1253
    assert set(keys) == {canonical_key(g) for n in range(8) for g in enumerate_graphs(n)}


def test_enumeration_yields_pairwise_nonisomorphic():
    graphs = list(enumerate_graphs(4))
    for i, g in enumerate(graphs):
        for h in graphs[i + 1:]:
            assert not oracles.permutation_isomorphic(g, h)


# canonical forms ----------------------------------------------------------

def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(5)
    for g in enumerate_graphs(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_key(h) == canonical_key(g)


def test_is_isomorphic_matches_permutation_oracle():
    rng = random.Random(9)
    graphs = list(enumerate_graphs(4)) + list(enumerate_graphs(5))[:10]
    for _ in range(300):
        g, h = rng.choice(graphs), rng.choice(graphs)
        assert is_isomorphic(g, h) == oracles.permutation_isomorphic(g, h)
