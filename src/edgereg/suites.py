"""Theorem-verification suites over exhaustively enumerated small graphs.

This is the one harness module: every theorem check, the hierarchy-function
check and the reports live here, while `evenconn`, `invariants` and
`homology` return plain values.  Each suite sweeps a graph source
(enumeration up to n_max, or an explicit list) and asserts one statement
about regularity of edge-ideal powers; a per-graph checker returns its
violations as replayable {graph6, s, lhs, rhs, context} records.  A report
keeps the first MAX_STORED_VIOLATIONS verbatim and counts every one; it
passes exactly when that count is zero.  A violation in any theorem suite
means a bug in this toolkit, not in the mathematics being checked.

A bound suite (reg I^s against 2s + f(G) - c) is its guard plus one
`_power_bound` call; a colon suite iterates `_edge_colons`, the pairs
(m, I(G)^{k+1} : m).  `_CHECKERS` is the one ordered registry of suites.

The default sweep follows the budget rule "powers up to 2 for graphs on
six vertices, power 3 only up to five vertices"; `_s_values` applies it
uniformly.  The two conjecture suites are falsification searches: they
are excluded from `--suite all` and from the process exit code, since a
counterexample there would be a finding, not a failure.

Derived values live in one process-wide memo owned by `homology`: graph
invariants and regularities of powers per isomorphism class, every other
regularity (colons, symbolic squares) per exact ideal, and the homology of
every complex a Betti table has ranked, so each is ranked once per sweep.
One call to `clear_all_caches()` forgets all of them.  Only the
regularities of powers persist across runs, in the directory named by the
EDGEREG_CACHE_DIR environment variable.

A run is one graph-major sweep: all its suites run on each graph in turn.
With `--jobs k`, worker w sweeps graphs[w::k] and sends its regularities
of powers home to the parent's memo.  Reports follow graph order, so they
and the disk cache do not depend on k; wall_time sums a suite's checks.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from dataclasses import field as dataclass_field
from functools import partial
from typing import Callable, Iterator, Sequence

from . import evenconn, homology, invariants
from .graphs import (Graph, canonical_key, closed_neighborhood, delete_closed_neighborhood,
                     delete_vertices, emit_graph6, enumerate_graphs)
from .monomials import (EdgeMultiset, MonomialIdeal, colon_by_monomial,
                        cover_square_intersection, edge_ideal, packed_ideal, polarize, power,
                        squarefree, sum_ideals, symbolic_square)

CACHE_ENV_VAR = "EDGEREG_CACHE_DIR"
CACHE_FILE = "regcache.json"
MAX_STORED_VIOLATIONS = 50


@dataclass
class SuiteReport:
    suite: str
    graphs_tested: int = 0
    violations: list[dict] = dataclass_field(default_factory=list)
    violations_total: int = 0
    wall_time: float = 0.0
    conjecture: bool = False
    notes: list[str] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations_total == 0

    def add_violation(self, graph6: str, s: int | None, lhs, rhs, context: str) -> None:
        self.violations_total += 1
        if len(self.violations) < MAX_STORED_VIOLATIONS:
            self.violations.append(
                {"graph6": graph6, "s": s, "lhs": lhs, "rhs": rhs, "context": context})

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "graphs_tested": self.graphs_tested,
            "violations": self.violations,
            "violations_total": self.violations_total,
            "wall_time": self.wall_time,
            "pass": self.passed,
            "conjecture": self.conjecture,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class SuiteSpec:
    suite: str
    n_max: int = 6
    s_max: int = 2
    characteristic: int = 2
    graphs: tuple[Graph, ...] | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.suite not in _CHECKERS:
            raise ValueError(f"unknown suite {self.suite!r}; known: {sorted(_CHECKERS)}")
        if not 1 <= self.s_max <= 3:
            raise ValueError("s_max must be between 1 and 3")
        if not 1 <= self.n_max <= 8:
            raise ValueError("n_max must be between 1 and the enumeration bound 8")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        homology.FieldSpec(self.characteristic)  # validates


def _field(spec: SuiteSpec) -> homology.FieldSpec:
    return homology.FieldSpec(spec.characteristic)


def _s_values(g: Graph, s_max: int, start: int = 1) -> list[int]:
    # power 3 is only affordable up to five vertices
    return [s for s in range(start, s_max + 1) if s <= 2 or g.n <= 5]


def _viol(g: Graph, s: int | None, lhs, rhs, context: str) -> dict:
    return {"graph6": emit_graph6(g), "s": s, "lhs": lhs, "rhs": rhs, "context": context}


# ---------------------------------------------------------------------------
# per-graph checkers (each returns a list of violation dicts)

def _power_bound(g: Graph, spec: SuiteSpec, offset: int, fails: Callable[[int, int], bool],
                 context: str, start: int = 1) -> list[dict]:
    """One record per power s at which fails(reg I^s, 2s + offset) holds."""
    out = []
    for s in _s_values(g, spec.s_max, start):
        reg = homology.regularity_of_power(g, s, _field(spec))
        if fails(reg, 2 * s + offset):
            out.append(_viol(g, s, reg, 2 * s + offset, context))
    return out


def _check_lower_bound(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    return _power_bound(g, spec, invariants.induced_matching_number(g) - 1, operator.lt,
                        "reg I^s < 2s + nu(G) - 1")


def _check_matching_bound(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    return _power_bound(g, spec, invariants.matching_number(g) - 1, operator.gt,
                        "reg I^s > 2s + beta(G) - 1")


def _check_cameron_walker(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless() or not invariants.is_cameron_walker(g):
        return []
    return _power_bound(g, spec, invariants.induced_matching_number(g) - 1, operator.ne,
                        "reg I^s != 2s + nu(G) - 1 on a graph with nu = beta")


def _check_locally_linear(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless() or not invariants.is_locally_linear(g):
        return []
    out = []
    reg1 = homology.regularity_of_power(g, 1, _field(spec))
    if reg1 > 3:
        out.append(_viol(g, 1, reg1, 3, "locally linear graph with reg I > 3"))
    return out + _power_bound(g, spec, reg1 - 2, operator.gt,
                              "locally linear: reg I^s > 2s + reg I - 2")


def _check_gapfree_local(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless() or not invariants.is_gap_free(g):
        return []
    r = max(invariants.local_regularity_max(g, _field(spec)) + 1, 3)
    return _power_bound(g, spec, r - 2, operator.gt,
                        f"gap-free, locally of regularity <= {r - 1}: reg I^s > 2s + r - 2")


def _check_gapfree_locallinear(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless() or not invariants.is_gap_free(g) or not invariants.is_locally_linear(g):
        return []
    return _power_bound(g, spec, 0, operator.ne, "gap-free locally linear: reg I^s != 2s",
                        start=2)


def _edge_colons(g: Graph, k: int) -> Iterator[tuple[EdgeMultiset, MonomialIdeal]]:
    """(m, I(G)^{k+1} : m) for every multiset m of k edges of g."""
    big = power(edge_ideal(g), k + 1)
    for combo in itertools.combinations_with_replacement(g.edges(), k):
        m = EdgeMultiset.of(combo)
        yield m, colon_by_monomial(big, m.packed_product(g.n))


def _check_square(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    out = []
    field = _field(spec)
    r = invariants.local_regularity_max(g, field) + 1
    for m, colon in _edge_colons(g, 1):
        reg_colon = homology.regularity(colon, field)
        if reg_colon > r:
            out.append(_viol(g, 2, reg_colon, r, f"reg (I^2 : e) > r for e={m.edges[0]}"))
    reg2 = homology.regularity_of_power(g, 2, field)
    if reg2 > r + 2:
        out.append(_viol(g, 2, reg2, r + 2, "reg I^2 > r + 2"))
    return out


def _check_symbolic_square(g: Graph, spec: SuiteSpec) -> list[dict]:
    out = []
    sym = symbolic_square(g)
    oracle = cover_square_intersection(g)
    if not sym.same_ideal_as(oracle):
        out.append(_viol(g, 2,
                         sorted(str(m) for m in sym.generators()),
                         sorted(str(m) for m in oracle.generators()),
                         "symbolic square formula != intersection of squared covers"))
    if not g.is_edgeless():
        field = _field(spec)
        r = invariants.local_regularity_max(g, field) + 1
        reg_sym = homology.regularity(sym, field)
        if reg_sym > r + 2:
            out.append(_viol(g, 2, reg_sym, r + 2, "reg I^(2) > r + 2"))
    return out


def _check_colon_induction(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    out = []
    field = _field(spec)
    for t in _s_values(g, spec.s_max, start=2):
        s = t - 1
        lhs = homology.regularity_of_power(g, t, field)
        colon_regs = [homology.regularity(colon, field) + 2 * s
                      for _, colon in _edge_colons(g, s)]
        rhs = max(colon_regs + [homology.regularity_of_power(g, s, field)])
        if lhs > rhs:
            out.append(_viol(g, t, lhs, rhs,
                             "reg I^{s+1} > max(reg(I^{s+1}:m_l) + 2s, reg I^s)"))
    return out


def _leaf_edges(g: Graph) -> set[tuple[int, int]]:
    return {(u, v) for u, v in g.edges() if g.degree(u) == 1 or g.degree(v) == 1}


def _check_colon_structure(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    out = []
    i = edge_ideal(g)
    leaves = _leaf_edges(g)
    for s in _s_values(g, spec.s_max, start=2):
        smaller = power(i, s - 1)
        for m, j in _edge_colons(g, s - 1):
            for e in set(m.edges) & leaves:
                reduced = m.without(e)
                rhs = colon_by_monomial(smaller, reduced.packed_product(g.n))
                if not j.same_ideal_as(rhs):
                    out.append(_viol(g, s,
                                     sorted(str(x) for x in j.generators()),
                                     sorted(str(x) for x in rhs.generators()),
                                     f"leaf reduction fails for m={list(m.edges)}, leaf={e}"))
            shielded = closed_neighborhood(g, set(m.edges))
            for w in range(g.n):
                if w in shielded:
                    continue
                lhs = colon_by_monomial(j, squarefree((w,), g.n))
                rhs = _colon_by_vertex_expected(g, m, w, s)
                if not lhs.same_ideal_as(rhs):
                    out.append(_viol(g, s,
                                     sorted(str(x) for x in lhs.generators()),
                                     sorted(str(x) for x in rhs.generators()),
                                     f"J:w identity fails for m={list(m.edges)}, w={w}"))
    return out


def _colon_by_vertex_expected(g: Graph, m: EdgeMultiset, w: int, s: int) -> MonomialIdeal:
    """I(G - N[w])^s : e_1...e_{s-1} plus the variables of the open
    neighborhood N(w), everything over the full variable universe."""
    blocked = closed_neighborhood(g, w)
    sub = packed_ideal(g.labels, (squarefree(e, g.n) for e in g.edges()
                                  if blocked.isdisjoint(e)))
    if sub.is_zero:
        colon_part = sub
    else:
        colon_part = colon_by_monomial(power(sub, s), m.packed_product(g.n))
    var_part = packed_ideal(g.labels, (squarefree((u,), g.n) for u in g.neighbors(w)))
    return sum_ideals(colon_part, var_part)


def _check_even_connection(g: Graph, spec: SuiteSpec) -> list[dict]:
    """For every multiset m of s edges, compare the even-connected pairs
    against the monomial-arithmetic colon of I^{s+1} by the product: all
    minimal generators must be quadratic, and they must be exactly the
    x_u x_v of the edges of G and of the pairs with u != v, plus x_u^2 for
    each self-connected u.  The comparison runs on packed generators; only
    a mismatch builds the colon graph, whose polarized edge ideal and the
    polarized colon name the two sides of the violation record."""
    if g.is_edgeless():
        return []
    out = []
    var = [squarefree((v,), g.n) for v in range(g.n)]
    edge_gens = {var[u] + var[v] for u, v in g.edges()}
    for s in _s_values(g, spec.s_max):
        for m, colon in _edge_colons(g, s):
            bad = [d for d in colon.generator_degrees() if d != 2]
            if bad:
                out.append(_viol(g, s, sorted(set(bad)), 2,
                                 f"non-quadratic colon generators for m={list(m.edges)}"))
                continue
            pairs = evenconn.even_connection_lengths(g, m)
            if set(colon.gens) != edge_gens | {var[u] + var[v] for u, v in pairs}:
                combinatorial = edge_ideal(evenconn.colon_graph(g, m).graph)
                algebraic, _ = polarize(colon)
                out.append(_viol(
                    g, s,
                    sorted(str(x) for x in combinatorial.generators()),
                    sorted(str(x) for x in algebraic.generators()),
                    f"colon graph does not match the direct colon for m={list(m.edges)}"))
    return out


def _check_isolated_reduction(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless() or not invariants.is_gap_free(g):
        return []
    out = []
    for size in range(1, max(2, spec.s_max)):
        for combo in itertools.combinations_with_replacement(g.edges(), size):
            m = EdgeMultiset.of(combo)
            for w, u in evenconn.isolated_reduction_failures(evenconn.colon_graph(g, m)):
                out.append(_viol(g, size + 1, sorted(w), u,
                                 f"reduction keeps a foreign edge for m={list(m.edges)}"))
    return out


def _check_conjecture_a(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    return _power_bound(g, spec, homology.regularity_of_power(g, 1, _field(spec)) - 2,
                        operator.gt, "counterexample candidate: reg I^s > 2s + reg I - 2")


def _check_conjecture_a_prime(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    r = max(invariants.local_regularity_max(g, _field(spec)) + 1, 2)
    return _power_bound(g, spec, r - 2, operator.gt,
                        "counterexample candidate: reg I^s > 2s + r - 2")


CONJECTURE_SUITES = ("conjecture-a", "conjecture-a-prime")

# the one ordered registry: the theorem suites, then the conjecture suites
_CHECKERS = {
    "lower-bound": _check_lower_bound,
    "matching-bound": _check_matching_bound,
    "cameron-walker": _check_cameron_walker,
    "locally-linear": _check_locally_linear,
    "gapfree-local": _check_gapfree_local,
    "gapfree-locallinear": _check_gapfree_locallinear,
    "square": _check_square,
    "symbolic-square": _check_symbolic_square,
    "colon-induction": _check_colon_induction,
    "colon-structure": _check_colon_structure,
    "even-connection": _check_even_connection,
    "isolated-reduction": _check_isolated_reduction,
    **dict(zip(CONJECTURE_SUITES, (_check_conjecture_a, _check_conjecture_a_prime))),
}

THEOREM_SUITES = tuple(name for name in _CHECKERS if name not in CONJECTURE_SUITES)


# ---------------------------------------------------------------------------
# hierarchy functions

def check_hierarchy_function(family: Sequence[Graph], f: Callable[[Graph], int],
                             field: homology.FieldSpec = homology.GF2) -> SuiteReport:
    """Verify that f is a regularity-controlling function on a family that
    is closed under vertex deletion and closed-neighborhood deletion.

    Violations are reported for: f(G - w) > f(G) or
    f(G - N[w]) > max(f(G) - 1, 2) at a non-isolated w, and
    reg I(G) > f(G) (skipped for edgeless members, whose edge ideal is
    zero).  Closure failures are reported as notes, not violations."""
    report = SuiteReport("hierarchy-function")
    members = list(family)
    keys = {canonical_key(g) for g in members}
    for g in members:
        report.graphs_tested += 1
        fg = f(g)
        if not g.is_edgeless():
            reg = homology.regularity(edge_ideal(g), field)
            if reg > fg:
                report.add_violation(emit_graph6(g), None, reg, fg, "reg I(G) > f(G)")
        for w in range(g.n):
            minus_w, _ = delete_vertices(g, [w])
            minus_nw, _ = delete_closed_neighborhood(g, w)
            for h in (minus_w, minus_nw):
                if canonical_key(h) not in keys:
                    report.notes.append(
                        f"family not closed: {emit_graph6(g)} at w={w} leaves the family")
            if g.degree(w) == 0:
                continue
            if f(minus_w) > fg:
                report.add_violation(emit_graph6(g), None, f(minus_w), fg,
                                     f"f(G-w) > f(G) at w={w}")
            if f(minus_nw) > max(fg - 1, 2):
                report.add_violation(emit_graph6(g), None, f(minus_nw), max(fg - 1, 2),
                                     f"f(G-N[w]) > max(f(G)-1, 2) at w={w}")
    return report


# ---------------------------------------------------------------------------
# runner

def _graph_source(spec: SuiteSpec) -> list[Graph]:
    if spec.graphs is not None:
        return list(spec.graphs)
    out: list[Graph] = []
    for n in range(1, spec.n_max + 1):
        out.extend(enumerate_graphs(n))
    return out


def _run_one(spec: SuiteSpec, g: Graph) -> list[dict]:
    return _CHECKERS[spec.suite](g, spec)


def _sweep(specs: Sequence[SuiteSpec], graphs: Sequence[Graph]) -> tuple[list, list[list]]:
    """Per graph, one (violations, seconds) pair per suite; then the memoized
    regularities of powers.  `_run_one` is looked up at each call, so a
    stand-in bound there runs in pool workers too."""
    rows = [[] for _ in graphs]
    for g, row in zip(graphs, rows):
        for spec in specs:
            start = time.perf_counter()
            row.append((_run_one(spec, g), time.perf_counter() - start))
    return rows, homology.cache_snapshot()


def _reports(specs: Sequence[SuiteSpec]) -> list[SuiteReport]:
    graphs = _graph_source(specs[0])
    workers = min(specs[0].jobs, os.cpu_count() or 1, len(graphs))
    if workers > 1:
        # neighbours in enumeration order cost about the same: shares balance
        rows: list = [None] * len(graphs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = [graphs[w::workers] for w in range(workers)]
            for w, (got, snapshot) in enumerate(pool.map(partial(_sweep, specs), shares)):
                rows[w::workers] = got
                homology.cache_restore(snapshot)
    else:
        rows, _ = _sweep(specs, graphs)
    reports = [SuiteReport(s.suite, conjecture=s.suite in CONJECTURE_SUITES) for s in specs]
    for row in rows:
        for report, (viols, seconds) in zip(reports, row):
            report.graphs_tested += 1
            report.wall_time += seconds
            for v in viols:
                report.add_violation(**v)
    return reports


def run_suite(spec: SuiteSpec) -> SuiteReport:
    return _reports([spec])[0]


def run(specs: list[SuiteSpec]) -> tuple[list[SuiteReport], int]:
    """Run suites that differ only in `suite`; exit code 0 iff every theorem
    suite passes.  Conjecture suites never affect the exit code."""
    if any(replace(spec, suite=specs[0].suite) != specs[0] for spec in specs):
        raise ValueError("the suites of one run must share every setting but the suite")
    _load_disk_cache()
    reports = _reports(specs) if specs else []
    _save_disk_cache()
    failed = any(not r.passed for r in reports if not r.conjecture)
    return reports, 1 if failed else 0


def clear_all_caches() -> None:
    homology.clear_caches()


def _cache_path() -> str | None:
    directory = os.environ.get(CACHE_ENV_VAR)
    if not directory:
        return None
    return os.path.join(directory, CACHE_FILE)


def _load_disk_cache() -> None:
    path = _cache_path()
    if not path or not os.path.exists(path):
        return
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return  # a broken cache must never break a run
    homology.cache_restore(payload)  # ignores a malformed payload whole


def _save_disk_cache() -> None:
    path = _cache_path()
    if not path:
        return
    # write a sibling file and rename it over the cache, so a failed write
    # leaves the previous cache intact
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(homology.cache_snapshot(), fh)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
