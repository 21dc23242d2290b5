from __future__ import annotations

import hashlib
import itertools
import json
import random
import time

import pytest

import oracles
from builders import (complete_bipartite, complete_graph, cycle_graph, disjoint_union, path_graph,
                      star)
from edgereg.graphs import (GraphError, _bits, _canonical_key, _canonical_reps, canonical_key,
                            claw, closed_neighborhood, complement, cricket, emit_graph6,
                            enumerate_graphs, from_edge_list, from_json_dict,
                            induced_subgraph, parse_graph6)


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
    sub = induced_subgraph(cycle_graph(5), 0b111)
    assert sub.edges() == [(0, 1), (1, 2)]


def test_induced_subgraph_identity():
    g = cricket()
    assert induced_subgraph(g, (1 << g.n) - 1) == g


def test_induced_subgraph_of_cricket():
    assert induced_subgraph(cricket(), 0b111).edges() == [(0, 2), (1, 2)]


def test_induced_subgraph_nested_intersection():
    rng = random.Random(3)
    for g in enumerate_graphs(5):
        w1 = sum(1 << v for v in range(g.n) if rng.random() < 0.7)
        w2 = sum(1 << v for v in range(g.n) if rng.random() < 0.7)
        outer = induced_subgraph(g, w1)
        # vertex v of w1 is vertex (w1 & ((1 << v) - 1)).bit_count() of outer
        inner = sum(1 << (w1 & ((1 << v) - 1)).bit_count() for v in _bits(w1 & w2))
        assert induced_subgraph(outer, inner) == induced_subgraph(g, w1 & w2)


def test_induced_subgraph_out_of_range():
    for mask in (1 << 0 | 1 << 9, 1 << 4, -1):
        with pytest.raises(GraphError):
            induced_subgraph(cycle_graph(4), mask)
        with pytest.raises(GraphError):
            closed_neighborhood(cycle_graph(4), mask)


# neighborhoods -----------------------------------------------------------

def test_closed_neighborhood_vertex():
    assert closed_neighborhood(cycle_graph(5), 1 << 0) == 0b10011


def test_closed_neighborhood_edge():
    assert closed_neighborhood(path_graph(5), 1 << 1 | 1 << 2) == 0b01111


def test_closed_neighborhood_vertex_set():
    assert closed_neighborhood(cycle_graph(4), 1 << 0 | 1 << 2) == 0b1111


def test_closed_neighborhood_edge_set():
    assert closed_neighborhood(path_graph(5), 0b00011 | 0b11000) == 0b11111


def _minus_closed_neighborhood(g, x):
    return induced_subgraph(g, ((1 << g.n) - 1) ^ closed_neighborhood(g, 1 << x))


def test_delete_closed_neighborhood_cycle():
    h = _minus_closed_neighborhood(cycle_graph(5), 0)
    assert h.edges() == [(0, 1)]


def test_delete_closed_neighborhood_complete():
    for n in range(2, 6):
        assert _minus_closed_neighborhood(complete_graph(n), 0).n == 0


def test_delete_closed_neighborhood_star():
    # removing N[center] wipes the whole claw; removing N[a leaf] keeps the
    # other two leaves, isolated; deleting just the center vertex keeps all
    # three leaves isolated
    assert _minus_closed_neighborhood(claw(), 0).n == 0
    leaf = _minus_closed_neighborhood(claw(), 1)
    assert leaf.n == 2 and leaf.is_edgeless()
    no_center = induced_subgraph(claw(), 0b1110)
    assert no_center.n == 3 and no_center.is_edgeless()


# enumeration -------------------------------------------------------------

CENSUS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]


def test_enumeration_census():
    assert [len(list(enumerate_graphs(n))) for n in range(9)] == CENSUS


def test_enumeration_connected_census():
    assert sum(map(oracles._connected, enumerate_graphs(4))) == 6
    assert sum(map(oracles._connected, enumerate_graphs(5))) == 21


def test_enumeration_bound():
    for n in (9, -1):
        with pytest.raises(GraphError):
            list(enumerate_graphs(n))


def test_enumeration_is_a_fresh_list():
    # the classes are built at the call, so the bound is checked there too
    for n in (9, -1):
        with pytest.raises(GraphError):
            enumerate_graphs(n)
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


# sha256 of the graph6 lines of every class with n <= 7, in enumeration
# order, as the permutation-product key and the plain extension loop gave
# them: the sweeps, their reports and perfbench's betti-n7 sample all read
# the graphs in this order
ENUMERATION_SHA256 = "43b4220ef10d2393ba7d195e77a0cefb0db1cdc9ead4fb06312d145800e2a33e"
# and of the 12,346 classes with n = 8 alone, as the extension loop without
# the degree skip gave them
ENUMERATION_N8_SHA256 = "90efcfebdbb32eda4627030206a62520d760e15ceeeaa35d0fe6ed9657113fba"


def _enumeration_sha256(reps, sizes=range(8)) -> str:
    lines = "\n".join(emit_graph6(g) for n in sizes for g in reps(n))
    return hashlib.sha256(lines.encode()).hexdigest()


def test_enumeration_order_and_representatives_are_pinned():
    assert _enumeration_sha256(enumerate_graphs) == ENUMERATION_SHA256
    assert _enumeration_sha256(enumerate_graphs, [8]) == ENUMERATION_N8_SHA256


def _keys_in_step(reps, n, monkeypatch) -> tuple[int, list]:
    """The canonical keys that `reps`'s extension step to n computes, with
    the classes on n - 1 vertices already built, and the step's classes."""
    reps(n - 1)
    calls = []
    with monkeypatch.context() as m:
        m.setitem(reps.__wrapped__.__globals__, "_canonical_key",
                  lambda k, adj: calls.append(k) or _canonical_key(k, adj))
        out = reps.__wrapped__(n)
    return len(calls), out


def test_degree_skip_keys_only_top_degree_extensions(monkeypatch):
    # 6,412 keys without the degree skip
    assert _keys_in_step(_canonical_reps, 7, monkeypatch) == (1808, enumerate_graphs(7))


DEGREE_SKIP = "d < top or d == top and mask & busiest"


def test_mutated_degree_skip_is_caught(monkeypatch):
    # skipping only the new vertices of lower degree than the parent's top
    # keeps every class and representative: only the key count shows it
    weak = oracles.mutant(_canonical_reps, DEGREE_SKIP, "d < top")
    assert _enumeration_sha256(weak) == ENUMERATION_SHA256
    count, reps = _keys_in_step(weak, 7, monkeypatch)
    assert reps == enumerate_graphs(7) and count == 2937  # not 1808
    # skipping new vertices of the parent's top degree loses classes
    eager = oracles.mutant(_canonical_reps, DEGREE_SKIP, "d <= top")
    assert [len(eager(n)) for n in range(8)] != CENSUS[:8]


def test_mutated_twin_skip_is_caught():
    # skipping the smaller mask of a twin swap keeps the classes but not
    # the first representative of each
    bad = oracles.mutant(_canonical_reps, "mask & w and not mask & u", "mask & u and not mask & w")
    assert [len(bad(n)) for n in range(8)] == CENSUS[:8]
    assert _enumeration_sha256(bad) != ENUMERATION_SHA256


def test_enumeration_yields_pairwise_nonisomorphic():
    graphs = list(enumerate_graphs(4))
    for i, g in enumerate(graphs):
        for h in graphs[i + 1:]:
            assert not oracles.permutation_isomorphic(g, h)


# canonical forms ----------------------------------------------------------

def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(5)
    for g in enumerate_graphs(5):
        assert canonical_key(_relabelled(g, rng)) == canonical_key(g)


def test_is_isomorphic_matches_permutation_oracle():
    rng = random.Random(9)
    graphs = list(enumerate_graphs(4)) + list(enumerate_graphs(5))[:10]
    for _ in range(300):
        g, h = rng.choice(graphs), rng.choice(graphs)
        assert (canonical_key(g) == canonical_key(h)) == oracles.permutation_isomorphic(g, h)


# Exactness of the row-by-row search: the same (n, code) as the permutation
# product, which the sweep memo keys, the disk caches and perfbench's
# references were all written with.

def _exactness_inputs():
    """Every one-vertex extension with n <= 6, and a seeded sample of 500
    of the 9,984 with n = 7."""
    small = [e for n in range(1, 7) for e in oracles.one_vertex_extensions(n)]
    return small + random.Random(24).sample(list(oracles.one_vertex_extensions(7)), 500)


def _key_mismatches(key) -> int:
    return sum(key(n, adj) != oracles.permutation_product_key(n, adj)
               for n, adj in _exactness_inputs())


def test_canonical_key_equals_permutation_product():
    assert len(_exactness_inputs()) == 1307 + 500
    assert _key_mismatches(_canonical_key) == 0


@pytest.mark.parametrize("old, new", [
    ("""if c ^ inside:
                        cells.append(c ^ inside)
                    if inside:
                        cells.append(inside)""",
     """if inside:
                        cells.append(inside)
                    if c ^ inside:
                        cells.append(c ^ inside)"""),
    ("elif row == best:", "else:"),
    ("head & -head if head & twinned else head", "head & -head"),
], ids=["split-puts-neighbours-first", "keeps-larger-rows", "one-vertex-of-every-cell"])
def test_mutated_canonical_search_is_caught(old, new):
    assert _key_mismatches(oracles.mutant(_canonical_key, old, new)) > 0


# the literal codes: a drift here makes every disk cache and perfbench
# reference stale; Petersen's and C10's were computed by the permutation
# product, at about 30 s each
PINNED_KEYS = [("C5", cycle_graph(5), (5, 236)),
               ("K4", complete_graph(4), (4, 63)),
               ("bull", from_edge_list(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]), (5, 87)),
               ("claw", claw(), (4, 11)),
               ("P4", path_graph(4), (4, 13)),
               ("cricket", cricket(), (5, 79)),
               ("K0", from_edge_list(0, []), (0, 0)),
               ("C9", cycle_graph(9), (9, 816140800)),
               ("C10", cycle_graph(10), (10, 207522258944)),
               ("Petersen", parse_graph6("IheA@GUAo"), (10, 487837009056))]


@pytest.mark.parametrize("g, key", [(g, key) for _, g, key in PINNED_KEYS],
                         ids=[name for name, _, _ in PINNED_KEYS])
def test_canonical_key_literal_codes(g, key):
    assert canonical_key(g) == key


# one twin class of 20 and one of 19 vertices: the search tries one vertex
# of such a class, where trying all of them took 12 s and 6 s per key; the
# codes were computed that way
TWIN_KEYS = [("K20", complete_graph(20), (20, (1 << 190) - 1)),
             ("K1,19", star(19), (20, 2993166771322344439360518330642887213078480666264651))]


@pytest.mark.parametrize("g, key", [(g, key) for _, g, key in TWIN_KEYS],
                         ids=[name for name, _, _ in TWIN_KEYS])
def test_canonical_key_of_twin_classes_is_fast(g, key):
    start = time.perf_counter()
    assert _canonical_key.__wrapped__(g.n, g.adj) == key
    assert time.perf_counter() - start < 1.0


# Past the enumeration bound, where the permutation product took 30 s or
# more per key, or never finished.

SYMMETRIC = [("C10", cycle_graph(10)), ("C12", cycle_graph(12)),
             ("Petersen", parse_graph6("IheA@GUAo")),
             ("icosahedron", parse_graph6("KhFKFCrEk[n_")),
             ("K6,6", complete_bipartite(6, 6)),
             ("4K3", disjoint_union(disjoint_union(complete_graph(3), complete_graph(3)),
                                    disjoint_union(complete_graph(3), complete_graph(3))))]


@pytest.mark.parametrize("g", [g for _, g in SYMMETRIC], ids=[name for name, _ in SYMMETRIC])
def test_canonical_key_invariant_under_relabeling_of_symmetric_graphs(g):
    rng = random.Random(g.n)
    assert all(canonical_key(_relabelled(g, rng)) == canonical_key(g) for _ in range(5))


def test_is_isomorphic_matches_networkx_past_the_enumeration_bound():
    # each graph against a relabelling of itself, a copy with one edge
    # toggled, and a copy with one edge moved (same edge count)
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        return h

    rng = random.Random(2014)
    verdicts = []
    for _ in range(60):
        n = rng.randint(9, 12)
        g = from_edge_list(n, [e for e in itertools.combinations(range(n), 2)
                               if rng.random() < rng.choice((0.3, 0.5))])
        edges = set(g.edges())
        absent = sorted(set(itertools.combinations(range(n), 2)) - edges)
        toggled = from_edge_list(n, edges ^ {rng.choice(sorted(edges | set(absent)))})
        moved = from_edge_list(n, (edges - {rng.choice(sorted(edges))}) | {rng.choice(absent)})
        for h in (_relabelled(g, rng), toggled, moved):
            verdicts.append(canonical_key(g) == canonical_key(h))
            assert verdicts[-1] == nx.is_isomorphic(to_nx(g), to_nx(h))
    assert True in verdicts and False in verdicts
