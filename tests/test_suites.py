from __future__ import annotations

import json

import pytest

import oracles
from edgereg import evenconn, homology, invariants, monomials, suites
from edgereg.graphs import (canonical_key, complete_graph, cycle_graph, disjoint_edges,
                            emit_graph6, enumerate_graphs, parse_graph6, star)
from edgereg.monomials import edge_ideal
from edgereg.suites import (CONJECTURE_SUITES, MAX_STORED_VIOLATIONS, THEOREM_SUITES,
                            SuiteReport, SuiteSpec, run, run_suite)


@pytest.fixture(autouse=True)
def _fresh_caches():
    yield
    suites.clear_all_caches()


def test_spec_validation():
    with pytest.raises(ValueError):
        SuiteSpec("no-such-suite")
    with pytest.raises(ValueError):
        SuiteSpec("lower-bound", s_max=4)
    with pytest.raises(ValueError):
        SuiteSpec("lower-bound", n_max=9)
    with pytest.raises(ValueError):
        SuiteSpec("lower-bound", n_max=0)
    with pytest.raises(ValueError):
        SuiteSpec("lower-bound", characteristic=6)


def test_all_theorem_suites_pass_small():
    reports, code = run([SuiteSpec(name, n_max=4, s_max=2) for name in THEOREM_SUITES])
    assert code == 0
    assert all(r.passed for r in reports)
    assert all(r.graphs_tested == 18 for r in reports)


def test_lower_bound_tight_on_two_disjoint_edges():
    report = run_suite(SuiteSpec("lower-bound", graphs=(disjoint_edges(2),), s_max=1))
    assert report.passed
    # the bound is tight there: reg I = 3 = 2 + nu - 1
    assert homology.regularity_of_power(disjoint_edges(2), 1) == 3
    assert invariants.induced_matching_number(disjoint_edges(2)) == 2


def test_cameron_walker_star_square():
    assert homology.regularity_of_power(star(3), 2) == 4


def test_explicit_graph_list_and_file():
    # reading a file is the CLI's job (test_cli.py::test_verify_accepts_graphs_file)
    by_list = run_suite(SuiteSpec("matching-bound", graphs=tuple(enumerate_graphs(4))))
    assert by_list.graphs_tested == 11
    assert by_list.passed


def test_empty_run():
    reports, code = run([])
    assert reports == [] and code == 0


def test_parallel_jobs_match_serial(monkeypatch):
    monkeypatch.delenv(suites.CACHE_ENV_VAR, raising=False)

    def sweep(jobs):
        suites.clear_all_caches()
        reports, code = run([SuiteSpec(name, n_max=4, s_max=2, jobs=jobs)
                             for name in THEOREM_SUITES])
        dicts = [{**r.to_json_dict(), "wall_time": None} for r in reports]
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


def test_run_rejects_specs_that_differ_beyond_the_suite():
    with pytest.raises(ValueError):
        run([SuiteSpec("lower-bound", n_max=4), SuiteSpec("square", n_max=3)])


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
    assert run_suite(SuiteSpec("lower-bound", graphs=two, s_max=1, jobs=64)).passed
    assert run_suite(SuiteSpec("lower-bound", n_max=4, s_max=1, jobs=64)).passed
    assert sizes == [2, 4]


def test_violation_storage_is_capped():
    r = SuiteReport("lower-bound")
    for k in range(MAX_STORED_VIOLATIONS + 20):
        r.add_violation("g", 1, k, k, "ctx")
    assert len(r.violations) == MAX_STORED_VIOLATIONS
    assert r.violations_total == MAX_STORED_VIOLATIONS + 20
    assert not r.passed


# mutation sensitivity ---------------------------------------------------------

def test_mutated_induced_matching_is_caught(monkeypatch, fresh_memo):
    true_nu = invariants.induced_matching_number

    def off_by_one(g):
        return true_nu(g) + 1

    monkeypatch.setattr(invariants, "induced_matching_number", off_by_one)
    report = run_suite(SuiteSpec("lower-bound", n_max=4, s_max=1))
    assert not report.passed
    # the dumped counterexample replays deterministically
    bad = parse_graph6(report.violations[0]["graph6"])
    replay = run_suite(SuiteSpec("lower-bound", graphs=(bad,), s_max=1))
    assert not replay.passed
    assert replay.violations[0]["graph6"] == report.violations[0]["graph6"]


@pytest.mark.parametrize("rank_name, characteristic",
                         [("rank_gf2", 2), ("matrix_rank", 0), ("matrix_rank", 3)])
def test_mutated_homology_rank_is_caught(monkeypatch, rank_name, characteristic, fresh_memo):
    true_rank = getattr(homology, rank_name)

    def deflated(*args):
        return max(0, true_rank(*args) - 1)

    monkeypatch.setattr(homology, rank_name, deflated)
    failed = []
    for name in ("matching-bound", "lower-bound"):
        report = run_suite(SuiteSpec(name, n_max=4, s_max=1,
                                     characteristic=characteristic))
        failed.append(not report.passed)
        suites.clear_all_caches()
    assert any(failed)


def test_mutated_minimalization_is_caught(monkeypatch, fresh_memo):
    def unfiltered(gens, nv):  # keeps generators that a smaller one divides
        return tuple(sorted(set(gens), key=lambda g: (monomials.packed_degree(g), -g)))

    monkeypatch.setattr(monomials, "_minimal", unfiltered)
    assert not run_suite(SuiteSpec("even-connection", n_max=4, s_max=1)).passed


def test_mutated_colon_truncation_is_caught(monkeypatch, fresh_memo):
    def untruncated(i, m):  # a lane where g < m wraps around instead of reading 0
        hi, val, _ = monomials.lane_masks(len(i.vars))
        quotients = {((g | hi) - m) & val for g in i.gens}
        return monomials.MonomialIdeal(i.vars, monomials._minimal(quotients, len(i.vars)))

    for module in (monomials, suites, invariants):
        monkeypatch.setattr(module, "colon_by_monomial", untruncated)
    # (J : w) for a vertex w keeps a spurious w^15 * g beside the true g
    assert not run_suite(SuiteSpec("colon-structure", n_max=4, s_max=2)).passed


def test_every_even_connection_violation_is_counted(monkeypatch, fresh_memo):
    true_colon = suites.colon_by_monomial

    def dropped(i, m):  # loses the last minimal generator
        j = true_colon(i, m)
        return monomials.MonomialIdeal(j.vars, j.gens[:-1])

    monkeypatch.setattr(suites, "colon_by_monomial", dropped)
    report = run_suite(SuiteSpec("even-connection", graphs=(complete_graph(5),), s_max=2))
    # one violation per multiset: 10 of one edge, 55 of two
    assert report.violations_total == 65
    assert len(report.violations) == MAX_STORED_VIOLATIONS


def test_mutated_even_connected_pairs_is_caught(monkeypatch):
    true_lengths = evenconn.even_connection_lengths

    def no_self_pairs(g, m):  # loses the whisker of every self-connected vertex
        return {(u, v): k for (u, v), k in true_lengths(g, m).items() if u != v}

    monkeypatch.setattr(evenconn, "even_connection_lengths", no_self_pairs)
    assert not run_suite(SuiteSpec("even-connection", n_max=4, s_max=1)).passed


@pytest.mark.parametrize("bound, caught", [("<", False), ("<=", True)],
                         ids=["unmutated", "one-use-too-many"])
def test_mutated_usage_bound_is_caught(monkeypatch, bound, caught):
    old = "if usage & field < mult:"
    monkeypatch.setattr(evenconn, "even_connection_lengths",
                        oracles.mutant(evenconn.even_connection_lengths, old,
                                       old.replace("<", bound)))
    spec = SuiteSpec("even-connection", n_max=5, s_max=2)
    assert run_suite(spec).passed is not caught


def test_mutated_isolated_reduction_is_caught(monkeypatch):
    # removes W + {u} from the colon graph instead of W + N[u]
    monkeypatch.setattr(evenconn, "closed_neighborhood", lambda g, u: frozenset({u}))
    assert not run_suite(SuiteSpec("isolated-reduction", n_max=4, s_max=2)).passed


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
        report = run_suite(SuiteSpec(name, n_max=5, s_max=3))
        total, first = SHIFTED_REG_VIOLATIONS[d].get(name, (0, None))
        assert report.violations_total == total, name
        stored = tuple(report.violations[0].values()) if report.violations else None
        assert stored == first, name


def test_clean_rerun_after_mutations():
    report = run_suite(SuiteSpec("lower-bound", n_max=4, s_max=1))
    assert report.passed


# conjecture suites --------------------------------------------------------------

def test_conjecture_suites_are_labeled_and_pass_small():
    for name in CONJECTURE_SUITES:
        report = run_suite(SuiteSpec(name, n_max=4, s_max=2))
        assert report.conjecture
        assert report.passed  # no counterexample at this scale


def test_conjecture_failures_do_not_affect_exit_code(monkeypatch):
    def always_violates(g, spec):
        return [{"graph6": emit_graph6(g), "s": 1, "lhs": 0, "rhs": 0, "context": "x"}]

    monkeypatch.setitem(suites._CHECKERS, "conjecture-a", always_violates)
    reports, code = run([SuiteSpec("conjecture-a", n_max=3, s_max=1)])
    assert not reports[0].passed
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
    spec = SuiteSpec("lower-bound", n_max=4, s_max=1)
    assert run_suite(spec).passed
    true_rec = invariants._matching_rec

    def inflated(g, alive, reach, memo):
        return true_rec(g, alive, reach, memo) + 1

    monkeypatch.setattr(invariants, "_matching_rec", inflated)
    assert run_suite(spec).passed  # nu(G) still comes from the memo
    homology.clear_caches()
    assert not run_suite(spec).passed


def test_memo_persists_only_regularities_of_powers(tmp_path, monkeypatch):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    suites.clear_all_caches()
    keys = set()
    true_reg_power = homology.regularity_of_power

    def recording(g, s=1, field=homology.GF2):
        keys.add((*canonical_key(g), s, field.characteristic))
        return true_reg_power(g, s, field)

    monkeypatch.setattr(homology, "regularity_of_power", recording)
    reports, code = run([SuiteSpec(name, n_max=4, s_max=2) for name in THEOREM_SUITES])
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
    reports, code = run([SuiteSpec("lower-bound", n_max=4, s_max=2)])
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


# disk cache ----------------------------------------------------------------------

def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    suites.clear_all_caches()
    run([SuiteSpec("matching-bound", n_max=3, s_max=1)])
    path = tmp_path / suites.CACHE_FILE
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload  # regularities were recorded
    suites.clear_all_caches()
    reports, code = run([SuiteSpec("matching-bound", n_max=3, s_max=1)])
    assert code == 0 and reports[0].passed


def test_corrupt_disk_cache_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    (tmp_path / suites.CACHE_FILE).write_text("not json")
    reports, code = run([SuiteSpec("matching-bound", n_max=3, s_max=1)])
    assert code == 0


@pytest.mark.parametrize("payload", [[1], [[3, 0, 1, 2, 2], None]])
def test_malformed_disk_cache_is_ignored_whole(tmp_path, monkeypatch, payload):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    suites.clear_all_caches()
    (tmp_path / suites.CACHE_FILE).write_text(json.dumps(payload))
    suites._load_disk_cache()
    assert homology.cache_snapshot() == []
    reports, code = run([SuiteSpec("matching-bound", n_max=3, s_max=1)])
    assert code == 0 and reports[0].passed


def test_failed_cache_write_keeps_previous_file(tmp_path, monkeypatch):
    monkeypatch.setenv(suites.CACHE_ENV_VAR, str(tmp_path))
    suites.clear_all_caches()
    run([SuiteSpec("matching-bound", n_max=3, s_max=1)])
    path = tmp_path / suites.CACHE_FILE
    before = path.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write("[[0, ")
        raise OSError("disk full")

    monkeypatch.setattr(suites.json, "dump", dump_then_fail)
    reports, code = run([SuiteSpec("matching-bound", n_max=4, s_max=1)])
    assert code == 0
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
