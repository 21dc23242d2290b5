"""Acceptance sweep: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  All checks are exact
(zero mismatches allowed); the sweeps follow the standard budget of powers
up to 2 for six-vertex graphs and power 3 up to five vertices.  Caches are
shared across the module, so the bound criteria reuse the regularities
computed by earlier sweeps.
"""
from __future__ import annotations

import oracles
from builders import complete_graph, disjoint_edges, graph_join
from edgereg import homology, invariants, suites
from edgereg.graphs import emit_graph6, enumerate_graphs, parse_graph6
from edgereg.homology import (GF2, QQ, graded_betti, hochster_oracle,
                              regularity_of_power)
from edgereg.invariants import (induced_matching_number, is_co_chordal,
                                is_cricket_free, is_gap_free, is_locally_linear)
from edgereg.monomials import edge_ideal, power
from edgereg.suites import SuiteSpec, run


def _report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def _suite_passes(name: str, **kwargs) -> bool:
    reports, _ = run(SuiteSpec((name,), **kwargs))
    report = reports[0]
    if not report["pass"]:
        print(f"  {name}: {report['violations_total']} violations, "
              f"first: {report['violations'][:3]}")
    return report["pass"]


def test_criterion_01_dual_oracle_betti_agreement():
    ok = True
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if g.is_edgeless():
                continue
            for s in (1, 2):
                i = power(edge_ideal(g), s)
                for field in (GF2, QQ):
                    if graded_betti(i, field) != hochster_oracle(i, field):
                        ok = False
                        print(f"  mismatch: {emit_graph6(g)} s={s} char={field.characteristic}")
    _report("criterion 1: dual-oracle Betti agreement, n <= 5, GF(2) and char 0", ok)


def test_criterion_02_regularity_two_iff_cochordal():
    checked = 0
    ok = True
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            if g.is_edgeless():
                continue
            checked += 1
            if (regularity_of_power(g, 1) == 2) != is_co_chordal(g):
                ok = False
                print(f"  mismatch: {emit_graph6(g)}")
    ok = ok and checked >= 1044
    _report(f"criterion 2: reg I = 2 iff co-chordal on {checked} graphs, n <= 7", ok)


def test_criterion_03_even_connection_theorem():
    ok = _suite_passes("even-connection", n_max=6, s_max=2)
    _report("criterion 3: colon graph = direct colon, n <= 6, s in {1, 2}", ok)


def test_criterion_04_lower_and_matching_bounds():
    ok = (_suite_passes("lower-bound", n_max=6, s_max=3)
          and _suite_passes("matching-bound", n_max=6, s_max=3))
    _report("criterion 4: 2s + nu - 1 <= reg I^s <= 2s + beta - 1 on the sweep", ok)


def test_criterion_05_cameron_walker_equality():
    ok = _suite_passes("cameron-walker", n_max=6, s_max=3)
    _report("criterion 5: reg I^s = 2s + nu - 1 on Cameron-Walker graphs", ok)


def test_criterion_06_gap_free_locally_linear_square():
    ok = _suite_passes("gapfree-locallinear", n_max=6, s_max=2)
    # the cricket-free specialization, asserted directly
    for g in enumerate_graphs(6):
        if g.is_edgeless() or not (is_gap_free(g) and is_cricket_free(g)):
            continue
        if regularity_of_power(g, 2) != 4:
            ok = False
            print(f"  cricket-free case fails: {emit_graph6(g)}")
    _report("criterion 6: reg I^2 = 4 for gap-free locally linear graphs, n <= 6", ok)


def test_criterion_07_symbolic_square():
    ok = (_suite_passes("symbolic-square", n_max=6, s_max=2)
          and _suite_passes("square", n_max=6, s_max=2))
    _report("criterion 7: symbolic-square identity and the colon/square bounds, n <= 6", ok)


def test_criterion_08_isolated_reduction():
    ok = _suite_passes("isolated-reduction", n_max=6, s_max=3)
    _report("criterion 8: reduction to isolated vertices on gap-free graphs, n <= 6", ok)


def test_criterion_09_mutation_sensitivity(monkeypatch, fresh_memo):
    true_nu = invariants.induced_matching_number
    monkeypatch.setattr(invariants, "induced_matching_number",
                        lambda g: true_nu(g) + 1)
    _, nu_code = run(SuiteSpec(("lower-bound",), n_max=5, s_max=1))
    monkeypatch.undo()
    suites.clear_all_caches()

    true_rank = homology.rank_gf2
    monkeypatch.setattr(homology, "rank_gf2",
                        lambda rows: max(0, true_rank(rows) - 1))
    _, rank_code = run(SuiteSpec(("matching-bound", "lower-bound"), n_max=5, s_max=1))
    monkeypatch.undo()
    suites.clear_all_caches()
    _report("criterion 9: corrupted nu and corrupted homology rank are both detected",
            nu_code == rank_code == 1)


def test_criterion_10_enumeration_census_and_graph6():
    counts = [len(list(enumerate_graphs(n))) for n in range(7)]
    ok = counts == [1, 1, 2, 4, 11, 34, 156]
    for n in range(6):
        brute = oracles.dedup_by_permutation(oracles.all_labeled_graphs(n)) if n <= 5 else None
        if n <= 5 and len(brute) != counts[n]:
            ok = False
            print(f"  brute-force dedup disagrees at n={n}")
    for n in range(7):
        for g in enumerate_graphs(n):
            if parse_graph6(emit_graph6(g)) != g:
                ok = False
                print(f"  graph6 round-trip fails: {emit_graph6(g)}")
    _report("criterion 10: census 11/34/156 (brute-checked to n=5) and graph6 round-trip", ok)


def test_named_fixture_join_of_gap_and_k6():
    # locally linear but not gap-free; its power regularities stay strictly
    # above the linear value 2s while respecting the 2s + 1 bound
    join = graph_join(disjoint_edges(2), complete_graph(6))
    ok = is_locally_linear(join) and not is_gap_free(join)
    reg1 = regularity_of_power(join, 1)
    reg2 = regularity_of_power(join, 2)
    ok = ok and reg1 == 3
    ok = ok and reg2 != 4 and reg2 <= 5
    ok = ok and induced_matching_number(join) == 2
    _report("named fixture: 2K2 + K6 join is locally linear, not gap-free, reg I^s != 2s", ok)
