from __future__ import annotations

import itertools
import json

import pytest

import oracles
from builders import complete_graph, cycle_graph, disjoint_edges, packed_degree, star
from edgereg import evenconn, graphs, homology, invariants, monomials, suites
from edgereg.graphs import canonical_key, emit_graph6, enumerate_graphs, parse_graph6
from edgereg.monomials import edge_ideal
from edgereg.suites import (CONJECTURE_SUITES, MAX_STORED_VIOLATIONS, THEOREM_SUITES,
                            SuiteSpec, run)


@pytest.fixture(autouse=True)
def _fresh_caches():
    yield
    suites.clear_all_caches()


def _single(name, **kwargs):
    """The report of a run of one suite."""
    reports, _ = run(SuiteSpec((name,), **kwargs))
    return reports[0]


def test_spec_validation():
    with pytest.raises(ValueError):
        SuiteSpec(("no-such-suite",))
    with pytest.raises(ValueError):
        SuiteSpec(("lower-bound",), s_max=4)
    with pytest.raises(ValueError, match="between 1 and the enumeration bound 8$"):
        SuiteSpec(("lower-bound",), n_max=9)
    with pytest.raises(ValueError):
        SuiteSpec(("lower-bound",), n_max=0)
    with pytest.raises(ValueError):
        SuiteSpec(("lower-bound",), jobs=0)


def test_all_theorem_suites_pass_small():
    reports, code = run(SuiteSpec(THEOREM_SUITES, n_max=4, s_max=2))
    assert code == 0
    assert all(r["pass"] for r in reports)
    assert all(r["graphs_tested"] == 18 for r in reports)


def test_lower_bound_tight_on_two_disjoint_edges():
    report = _single("lower-bound", graphs=(disjoint_edges(2),), s_max=1)
    assert report["pass"]
    # the bound is tight there: reg I = 3 = 2 + nu - 1
    assert homology.regularity_of_power(disjoint_edges(2), 1) == 3
    assert invariants.induced_matching_number(disjoint_edges(2)) == 2


def test_cameron_walker_star_square():
    assert homology.regularity_of_power(star(3), 2) == 4


def test_explicit_graph_list_and_file():
    # reading a file is the CLI's job (test_cli.py::test_verify_accepts_graphs_file)
    by_list = _single("matching-bound", graphs=tuple(enumerate_graphs(4)))
    assert by_list["graphs_tested"] == 11
    assert by_list["pass"]


def test_spec_rejects_an_empty_suite_tuple():
    with pytest.raises(ValueError):
        SuiteSpec(())


def test_spec_rejects_an_unknown_suite_in_the_tuple():
    with pytest.raises(ValueError, match="no-such-suite"):
        SuiteSpec(("lower-bound", "no-such-suite", "square"))
    with pytest.raises(ValueError):  # a bare name is not a tuple of names
        SuiteSpec("lower-bound")


def test_parallel_jobs_match_serial(monkeypatch):
    def sweep(jobs):
        suites.clear_all_caches()
        reports, code = run(SuiteSpec(THEOREM_SUITES, n_max=4, s_max=2, jobs=jobs))
        dicts = [{**r, "wall_time": None} for r in reports]
        return dicts, code, homology.cache_snapshot()

    serial = sweep(1)
    assert serial[1] == 0 and serial[2]
    assert sweep(2) == serial  # every worker's memo comes home

    # with reg I^s one too high, the stored violations and totals agree as well
    true_reg_power = homology.regularity_of_power

    def shifted(g, s=1, field=homology.GF2):
        return true_reg_power(g, s, field) + 1

    monkeypatch.setattr(homology, "regularity_of_power", shifted)
    serial = sweep(1)
    assert serial[1] == 1 and sum(r["violations_total"] for r in serial[0]) > 0
    assert sweep(2) == serial


def test_pool_is_capped_by_cpus_and_graphs(monkeypatch):
    sizes = []

    class FakePool:  # records the pool size and runs in-process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(suites, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 4)
    two = (cycle_graph(4), star(3))
    assert _single("lower-bound", graphs=two, s_max=1, jobs=64)["pass"]
    assert _single("lower-bound", n_max=4, s_max=1, jobs=64)["pass"]
    assert sizes == [2, 4]


def test_violation_storage_is_capped(monkeypatch, fresh_memo):
    # with every reg I^s read as 0, each power of each graph with an edge is
    # a lower-bound violation: 47 graphs on at most 5 vertices, s = 1, 2
    monkeypatch.setattr(homology, "regularity_of_power", lambda g, s, field: 0)
    expected = [{"graph6": emit_graph6(g), "s": s, "lhs": 0,
                 "rhs": 2 * s + invariants.induced_matching_number(g) - 1,
                 "context": "reg I^s < 2s + nu(G) - 1"}
                for n in range(1, 6) for g in enumerate_graphs(n) if not g.is_edgeless()
                for s in (1, 2)]
    reports, code = run(SuiteSpec(("lower-bound",), n_max=5, s_max=2))
    [r] = reports
    assert code == 1 and len(expected) == 94 > MAX_STORED_VIOLATIONS
    # the report is the record that --out writes, keys in a fixed order
    assert list(r) == ["suite", "graphs_tested", "violations", "violations_total",
                       "wall_time", "pass", "conjecture", "notes"]
    assert r["violations"] == expected[:MAX_STORED_VIOLATIONS]
    assert r["violations_total"] == len(expected)
    assert (r["suite"], r["graphs_tested"], r["pass"], r["conjecture"], r["notes"]) == (
        "lower-bound", 52, False, False, [])


# mutation sensitivity ---------------------------------------------------------

def test_mutated_induced_matching_is_caught(monkeypatch, fresh_memo):
    true_nu = invariants.induced_matching_number

    def off_by_one(g):
        return true_nu(g) + 1

    monkeypatch.setattr(invariants, "induced_matching_number", off_by_one)
    report = _single("lower-bound", n_max=4, s_max=1)
    assert not report["pass"]
    # the dumped counterexample replays deterministically
    bad = parse_graph6(report["violations"][0]["graph6"])
    replay = _single("lower-bound", graphs=(bad,), s_max=1)
    assert not replay["pass"]
    assert replay["violations"][0]["graph6"] == report["violations"][0]["graph6"]


@pytest.mark.parametrize("rank_name, characteristic",
                         [("rank_gf2", 2), ("matrix_rank", 0), ("rank_gf3", 3)])
def test_mutated_homology_rank_is_caught(monkeypatch, rank_name, characteristic, fresh_memo):
    true_rank = getattr(homology, rank_name)

    def deflated(*args):
        return max(0, true_rank(*args) - 1)

    monkeypatch.setattr(homology, rank_name, deflated)
    failed = []
    for name in ("matching-bound", "lower-bound"):
        report = _single(name, n_max=4, s_max=1, field=homology.FieldSpec(characteristic))
        failed.append(not report["pass"])
        suites.clear_all_caches()
    assert any(failed)


def test_mutated_minimalization_is_caught(monkeypatch, fresh_memo):
    def unfiltered(gens, nv):  # keeps generators that a smaller one divides
        return tuple(sorted(set(gens), key=lambda g: (packed_degree(g), -g)))

    monkeypatch.setattr(monomials, "_minimal", unfiltered)
    assert not _single("even-connection", n_max=4, s_max=1)["pass"]


def test_mutated_colon_truncation_is_caught(monkeypatch, fresh_memo):
    def untruncated(i, m):  # a lane where g < m wraps around instead of reading 0
        hi, val, _ = monomials.lane_masks(len(i.vars))
        quotients = {((g | hi) - m) & val for g in i.gens}
        return monomials.MonomialIdeal(i.vars, monomials._minimal(quotients, len(i.vars)))

    for module in (monomials, suites):
        monkeypatch.setattr(module, "colon_by_monomial", untruncated)
    # (J : w) for a vertex w keeps a spurious w^15 * g beside the true g
    assert not _single("colon-structure", n_max=4, s_max=2)["pass"]


@pytest.mark.parametrize("new, caught", [("for v in _bits(mask):", False),
                                         ("for v in list(_bits(mask))[:1]:", True)],
                         ids=["unmutated", "lowest-vertex-only"])
def test_mutated_closed_neighborhood_is_caught(monkeypatch, fresh_memo, new, caught):
    # N[m] of the lowest vertex of m's edges only: colon-structure checks
    # J : w at vertices w that a later endpoint of m shields
    monkeypatch.setattr(suites, "closed_neighborhood",
                        oracles.mutant(graphs.closed_neighborhood, "for v in _bits(mask):", new))
    assert _single("colon-structure", n_max=5, s_max=2)["pass"] is not caught


@pytest.mark.parametrize("new, caught", [("for t in triangles(g)]", False),
                                         ("for t in triangles(g)][:0]", True)],
                         ids=["unmutated", "no-triangles"])
def test_mutated_symbolic_square_is_caught(monkeypatch, fresh_memo, new, caught):
    # I(G)^2 alone: the cubic generator of each triangle is lost, and the
    # formula no longer equals the intersection of the squared covers
    monkeypatch.setattr(suites, "symbolic_square",
                        oracles.mutant(monomials.symbolic_square, "for t in triangles(g)]", new))
    assert _single("symbolic-square", n_max=4, s_max=2)["pass"] is not caught


@pytest.mark.parametrize("new, caught", [("== 1", False), ("== 2", True)],
                         ids=["unmutated", "degree-two-ends"])
def test_mutated_leaf_edges_are_caught(monkeypatch, fresh_memo, new, caught):
    # edges with an end of degree two are not leaves: the colon by such an
    # edge does not reduce to the colon of one power lower
    old = "g.degree(u) == 1 or g.degree(v) == 1"
    monkeypatch.setattr(suites, "_leaf_edges",
                        oracles.mutant(suites._leaf_edges, old, old.replace("== 1", new)))
    assert _single("colon-structure", n_max=5, s_max=2)["pass"] is not caught


def test_every_even_connection_violation_is_counted(monkeypatch, fresh_memo):
    true_colon = suites.colon_by_monomial

    def dropped(i, m):  # loses the last minimal generator
        j = true_colon(i, m)
        return monomials.MonomialIdeal(j.vars, j.gens[:-1])

    monkeypatch.setattr(suites, "colon_by_monomial", dropped)
    report = _single("even-connection", graphs=(complete_graph(5),), s_max=2)
    # one violation per multiset: 10 of one edge, 55 of two
    assert report["violations_total"] == 65
    assert len(report["violations"]) == MAX_STORED_VIOLATIONS


def test_rerun_does_not_read_an_earlier_runs_table(monkeypatch):
    # the true run ends on K5, leaving its colons in the table; the mutant
    # rerun starts on K5 too and must build its own
    assert _single("even-connection", graphs=(complete_graph(5),), s_max=2)["pass"]
    true_colon = suites.colon_by_monomial

    def dropped(i, m):
        j = true_colon(i, m)
        return monomials.MonomialIdeal(j.vars, j.gens[:-1])

    monkeypatch.setattr(suites, "colon_by_monomial", dropped)
    report = _single("even-connection", graphs=(complete_graph(5),), s_max=2)
    assert report["violations_total"] == 65


@pytest.mark.parametrize("n_max, s_max, calls", [(5, 3, 2755), (6, 2, 7553)])
def test_sweep_searches_each_multiset_once(monkeypatch, n_max, s_max, calls):
    # even-connection and isolated-reduction share each (graph, multiset) search
    searched = []
    true_lengths = evenconn.even_connection_lengths

    def recording(g, m):
        searched.append((g, m))
        return true_lengths(g, m)

    monkeypatch.setattr(evenconn, "even_connection_lengths", recording)
    _, code = run(SuiteSpec(THEOREM_SUITES, n_max=n_max, s_max=s_max))
    assert code == 0
    assert len(searched) == len(set(searched)) == calls


def test_mutated_even_connected_pairs_is_caught(monkeypatch):
    true_lengths = evenconn.even_connection_lengths

    def no_self_pairs(g, m):  # loses the whisker of every self-connected vertex
        return {(u, v): k for (u, v), k in true_lengths(g, m).items() if u != v}

    monkeypatch.setattr(evenconn, "even_connection_lengths", no_self_pairs)
    assert not _single("even-connection", n_max=4, s_max=1)["pass"]


@pytest.mark.parametrize("bound, caught", [("<", False), ("<=", True)],
                         ids=["unmutated", "one-use-too-many"])
def test_mutated_usage_bound_is_caught(monkeypatch, bound, caught):
    old = "if usage & field < mult:"
    monkeypatch.setattr(evenconn, "even_connection_lengths",
                        oracles.mutant(evenconn.even_connection_lengths, old,
                                       old.replace("<", bound)))
    assert _single("even-connection", n_max=5, s_max=2)["pass"] is not caught


def test_mutated_isolated_reduction_is_caught(monkeypatch):
    # removes W + {u} from the colon graph instead of W + N[u]
    monkeypatch.setattr(evenconn, "isolated_reduction_failures",
                        oracles.mutant(evenconn.isolated_reduction_failures,
                                       "hood[u] | 1 << u", "1 << u"))
    assert not _single("isolated-reduction", n_max=4, s_max=2)["pass"]


def test_isolated_reduction_follows_the_budget_rule(monkeypatch):
    def fails_everywhere(g, pairs):  # one failure record for every colon graph
        return [(frozenset(), 0)]

    monkeypatch.setattr(evenconn, "isolated_reduction_failures", fails_everywhere)
    assert _single("isolated-reduction", n_max=4, s_max=1)["violations_total"] == 0
    # power 3 is skipped on six vertices: one s = 2 record per edge of K6
    report = _single("isolated-reduction", graphs=(complete_graph(6),), s_max=3)
    assert report["violations_total"] == 15
    assert {v["s"] for v in report["violations"]} == {2}
    # and kept on five: 10 edges, then 55 multisets of two
    report = _single("isolated-reduction", graphs=(complete_graph(5),), s_max=3)
    assert report["violations_total"] == 10 + 55


BOUND_SUITES = ("lower-bound", "matching-bound", "cameron-walker", "locally-linear",
                "gapfree-local", "gapfree-locallinear", "conjecture-a", "conjecture-a-prime")

# suite -> (violations_total, first stored record) with reg I^s off by d, n <= 5, s <= 3;
# a suite not named finds nothing
SHIFTED_REG_VIOLATIONS = {
    1: {"matching-bound": (61, ("A_", 1, 3, 2, "reg I^s > 2s + beta(G) - 1")),
        "cameron-walker": (60, ("A_", 1, 3, 2,
                                "reg I^s != 2s + nu(G) - 1 on a graph with nu = beta")),
        "locally-linear": (8, ("CQ", 1, 4, 3, "locally linear graph with reg I > 3")),
        "gapfree-local": (1, ("DUW", 1, 4, 3, "gap-free, locally of regularity <= 2: "
                                              "reg I^s > 2s + r - 2")),
        "gapfree-locallinear": (80, ("A_", 2, 5, 4, "gap-free locally linear: reg I^s != 2s")),
        "conjecture-a-prime": (94, ("A_", 1, 3, 2,
                                    "counterexample candidate: reg I^s > 2s + r - 2"))},
    -1: {"lower-bound": (140, ("A_", 1, 1, 2, "reg I^s < 2s + nu(G) - 1")),
         "cameron-walker": (60, ("A_", 1, 1, 2,
                                 "reg I^s != 2s + nu(G) - 1 on a graph with nu = beta")),
         "gapfree-locallinear": (80, ("A_", 2, 3, 4, "gap-free locally linear: reg I^s != 2s"))},
    0: {},
}


@pytest.mark.parametrize("d", sorted(SHIFTED_REG_VIOLATIONS), ids=lambda d: f"reg{d:+d}")
def test_shifted_power_regularity_matrix(monkeypatch, d):
    true_reg_power = homology.regularity_of_power

    def shifted(g, s=1, field=homology.GF2):
        return true_reg_power(g, s, field) + d

    monkeypatch.setattr(homology, "regularity_of_power", shifted)
    for name in BOUND_SUITES:
        report = _single(name, n_max=5, s_max=3)
        total, first = SHIFTED_REG_VIOLATIONS[d].get(name, (0, None))
        assert report["violations_total"] == total, name
        stored = tuple(report["violations"][0].values()) if report["violations"] else None
        assert stored == first, name


def test_clean_rerun_after_mutations():
    report = _single("lower-bound", n_max=4, s_max=1)
    assert report["pass"]


# conjecture suites --------------------------------------------------------------

def test_conjecture_suites_are_labeled_and_pass_small():
    for name in CONJECTURE_SUITES:
        report = _single(name, n_max=4, s_max=2)
        assert report["conjecture"]
        assert report["pass"]  # no counterexample at this scale


def test_conjecture_failures_do_not_affect_exit_code(monkeypatch):
    def always_violates(g, spec):
        return [{"graph6": emit_graph6(g), "s": 1, "lhs": 0, "rhs": 0, "context": "x"}]

    monkeypatch.setitem(suites._CHECKERS, "conjecture-a", always_violates)
    reports, code = run(SuiteSpec(("conjecture-a",), n_max=3, s_max=1))
    assert not reports[0]["pass"]
    assert code == 0


# the memo ------------------------------------------------------------------------

def test_regularity_is_memoized_per_ideal_until_cleared(monkeypatch):
    suites.clear_all_caches()
    betti_calls = []
    true_betti = homology.graded_betti

    def counting(i, field=homology.GF2):
        betti_calls.append(i)
        return true_betti(i, field)

    monkeypatch.setattr(homology, "graded_betti", counting)
    assert homology.regularity(edge_ideal(cycle_graph(5))) == 3
    assert homology.regularity(edge_ideal(cycle_graph(5))) == 3  # an equal ideal
    assert len(betti_calls) == 1
    assert homology.regularity(edge_ideal(cycle_graph(5)), homology.QQ) == 3
    assert len(betti_calls) == 2  # the characteristic is part of the key
    suites.clear_all_caches()
    assert homology.regularity(edge_ideal(cycle_graph(5))) == 3
    assert len(betti_calls) == 3


def test_one_clear_forgets_memoized_invariants(monkeypatch):
    homology.clear_caches()
    spec = SuiteSpec(("lower-bound",), n_max=4, s_max=1)
    assert run(spec)[0][0]["pass"]
    true_rec = invariants._matching_rec

    def inflated(g, alive, reach, memo):
        return true_rec(g, alive, reach, memo) + 1

    monkeypatch.setattr(invariants, "_matching_rec", inflated)
    assert run(spec)[0][0]["pass"]  # nu(G) still comes from the memo
    homology.clear_caches()
    assert not run(spec)[0][0]["pass"]


def test_memo_persists_only_regularities_of_powers(tmp_path, monkeypatch):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    suites.clear_all_caches()
    keys = set()
    true_reg_power = homology.regularity_of_power

    def recording(g, s=1, field=homology.GF2):
        keys.add((*canonical_key(g), s, field.characteristic))
        return true_reg_power(g, s, field)

    monkeypatch.setattr(homology, "regularity_of_power", recording)
    reports, code = run(SuiteSpec(THEOREM_SUITES, n_max=4, s_max=2))
    assert code == 0
    snapshot = homology.cache_snapshot()
    assert all(len(e) == 5 and all(type(x) is int for x in e) for e in snapshot)
    assert len(snapshot) == len(keys)
    assert {tuple(e[:4]) for e in snapshot} == keys
    disk = json.loads((tmp_path / suites.CACHE_FILE).read_text())
    assert sorted(disk) == sorted(snapshot)


def test_complex_table_lives_until_clear_and_is_never_persisted(tmp_path, monkeypatch,
                                                                fresh_memo):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    rank_calls = []
    true_rank = homology.rank_gf2

    def counting(rows):
        rank_calls.append(len(rows))
        return true_rank(rows)

    monkeypatch.setattr(homology, "rank_gf2", counting)
    reports, code = run(SuiteSpec(("lower-bound",), n_max=4, s_max=2))
    assert code == 0
    tables = [v for k, v in homology._MEMO.items() if k[0] == "complexes"]
    assert any(tables)
    disk = json.loads((tmp_path / suites.CACHE_FILE).read_text())
    assert sorted(disk) == sorted(homology.cache_snapshot())
    assert len(disk) == sum(k[0] == "reg^s" for k in homology._MEMO)

    # every complex of a repeated table is found in the memo until it is cleared
    i = monomials.power(edge_ideal(cycle_graph(5)), 2)
    table = homology.graded_betti(i)
    ranked = len(rank_calls)
    assert homology.graded_betti(i) == table
    assert len(rank_calls) == ranked
    homology.clear_caches()
    assert not homology._MEMO
    assert homology.graded_betti(i) == table
    assert len(rank_calls) > ranked


# the colon table -------------------------------------------------------------------

def _direct_colons(g, k):
    big = monomials.power(edge_ideal(g), k + 1)
    out = []
    for m in itertools.combinations_with_replacement(g.edges(), k):
        word = sum(monomials.squarefree(e, g.n) for e in m)
        out.append((m, monomials.colon_by_monomial(big, word)))
    return out


def _table_matches_direct_route(n, k_max):
    return all(list(suites._edge_colons(g, k)) == _direct_colons(g, k)
               for g in enumerate_graphs(n) for k in range(1, k_max + 1))


def test_colon_table_matches_direct_route():
    for n in range(1, 6):
        assert _table_matches_direct_route(n, 3)
    assert _table_matches_direct_route(6, 2)


def test_colon_table_keyed_on_the_last_edge_is_caught(monkeypatch):
    # I^{k+1} : e1 e2 would be served I^{k+1} : e2, built one level up
    monkeypatch.setattr(suites, "_colon", oracles.mutant(suites._colon, "key = (k, word)",
                                                         "key = (k, step)"))
    assert not _table_matches_direct_route(4, 2)


def test_sweep_builds_each_table_colon_once(monkeypatch):
    g = complete_graph(4)
    built = []
    true_colon = suites.colon_by_monomial

    def recording(i, m):
        if packed_degree(m) == 2:  # a table step; J : w divides by a vertex
            built.append((i, m))
        return true_colon(i, m)

    monkeypatch.setattr(suites, "colon_by_monomial", recording)
    reports, code = run(SuiteSpec(THEOREM_SUITES, graphs=(g,), s_max=2))
    assert code == 0
    # K4 has 6 edges: I^2 : e and I^3 : e for each, and I^3 : e e' for the
    # 19 distinct products of the 21 pairs (its 3 perfect matchings coincide);
    # (I - N[w])^2 : e is zero on K4, so colon-structure builds no other colon
    assert len(built) == len(set(built)) == 6 + 6 + 19
    # with I^2 and I^3; K4 has no leaf edge, so colon-structure never reads I.
    # A colon's key is (k, word), a multiset's the tuple of its edges
    colon_keys = [key for key in suites._COLONS[g] if isinstance(key[0], int)]
    assert len(colon_keys) == 2 + len(built)


def test_colon_table_lives_for_one_graph_until_cleared():
    graphs = tuple(enumerate_graphs(4))
    reports, code = run(SuiteSpec(THEOREM_SUITES, graphs=graphs, s_max=2))
    assert code == 0
    assert list(suites._COLONS) == [graphs[-1]]
    assert not any(isinstance(v, monomials.MonomialIdeal) for v in homology._MEMO.values())
    suites.clear_all_caches()
    assert not suites._COLONS


# disk cache ----------------------------------------------------------------------

def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    suites.clear_all_caches()
    run(SuiteSpec(("matching-bound",), n_max=3, s_max=1))
    path = tmp_path / suites.CACHE_FILE
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload  # regularities were recorded
    suites.clear_all_caches()
    reports, code = run(SuiteSpec(("matching-bound",), n_max=3, s_max=1))
    assert code == 0 and reports[0]["pass"]


def test_corrupt_disk_cache_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    (tmp_path / suites.CACHE_FILE).write_text("not json")
    reports, code = run(SuiteSpec(("matching-bound",), n_max=3, s_max=1))
    assert code == 0


@pytest.mark.parametrize("payload", [[1], [[3, 0, 1, 2, 2], None]])
def test_malformed_disk_cache_is_ignored_whole(tmp_path, monkeypatch, payload):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    suites.clear_all_caches()
    (tmp_path / suites.CACHE_FILE).write_text(json.dumps(payload))
    suites._load_disk_cache()
    assert homology.cache_snapshot() == []
    reports, code = run(SuiteSpec(("matching-bound",), n_max=3, s_max=1))
    assert code == 0 and reports[0]["pass"]


def test_failed_cache_write_keeps_previous_file(tmp_path, monkeypatch):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    suites.clear_all_caches()
    run(SuiteSpec(("matching-bound",), n_max=3, s_max=1))
    path = tmp_path / suites.CACHE_FILE
    before = path.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write("[[0, ")
        raise OSError("disk full")

    monkeypatch.setattr(suites.json, "dump", dump_then_fail)
    reports, code = run(SuiteSpec(("matching-bound",), n_max=4, s_max=1))
    assert code == 0
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
