"""Theorem-verification suites over exhaustively enumerated small graphs.

This is the one harness module: every theorem check and the reports live
here, while `evenconn`, `invariants` and `homology` return plain values.
Each suite sweeps a graph source (enumeration up to n_max, or an explicit
list) and asserts one statement about regularity of edge-ideal powers; a
per-graph checker returns its violations as replayable
{graph6, s, lhs, rhs, context} records, an ideal in them as the sorted
strings of its generators.  A suite's report is the dict that `--out`
writes: it keeps the first MAX_STORED_VIOLATIONS records in graph order,
counts every one, and passes exactly when that count is zero.  A
violation in any theorem suite means a bug in this toolkit, not in the
mathematics being checked.

A bound suite (reg I^s against 2s + f(G) - c) is its guard plus one
`_power_bound` call; a colon suite iterates `_edge_colons`, the pairs
(m, I(G)^{k+1} : m), each multiset m of k edges the sorted edge tuple
that `combinations_with_replacement` yields.  These are read from the current graph's table,
where I^{k+1} : e_1...e_j is built once, as (I^{k+1} : e_1...e_{j-1}) : e_j,
however many suites and multisets ask for it; the even-connection and
isolated-reduction suites read each multiset's even-connected pairs from
it too.  The table holds one graph at a time, outside the memo below, and
every sweep starts it empty.  `_CHECKERS` is the one ordered registry.

The default sweep follows the budget rule "powers up to 2 for graphs on
six vertices, power 3 only up to five vertices"; `_s_values` applies it
uniformly, isolated-reduction included.  The two conjecture suites are
falsification searches: they are excluded from `--suite all` and from the
process exit code, since a counterexample there would be a finding, not a
failure.

Derived values live in one process-wide memo owned by `homology`: graph
invariants and regularities of powers per isomorphism class, every other
regularity (colons, links, symbolic squares) per exact ideal, and the homology of
every complex a Betti table has ranked, so each is ranked once per sweep.
One call to `clear_all_caches()` forgets all of them and the graph's table.
Only the regularities of powers persist across runs, in the directory
named by the EDGEREG_CACHE_DIR environment variable.

A run is one `SuiteSpec`, which names its suites and the settings they
share, and `run(spec)` is the one entry that sweeps it: graph-major, the
suites running on each graph in turn, in the spec's order (registry order
for `--suite all`).  With `--jobs k`,
worker w sweeps graphs[w::k] and sends its regularities of powers home to
the parent's memo.  Reports follow graph order, so they and the disk cache
do not depend on k; wall_time sums a suite's checks.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from . import evenconn, homology, invariants
from .graphs import (DEFAULT_ENUMERATION_BOUND, Graph, closed_neighborhood, emit_graph6,
                     enumerate_graphs)
from .monomials import (MonomialIdeal, colon_by_monomial, cover_square_intersection, edge_ideal,
                        packed_ideal, polarize, power, squarefree, sum_ideals, symbolic_square,
                        variables)

CACHE_ENV_VAR = "EDGEREG_CACHE_DIR"
CACHE_FILE = "regcache.json"
MAX_STORED_VIOLATIONS = 50


@dataclass(frozen=True)
class SuiteSpec:
    """One run, swept by `run(spec)`: the suites, in report order, and the
    settings they share, namely the graphs (enumerated up to n_max unless
    given), the largest power s_max, the coefficient field and the number
    of worker processes."""
    suites: tuple[str, ...]
    n_max: int = 6
    s_max: int = 2
    field: homology.FieldSpec = homology.GF2
    graphs: tuple[Graph, ...] | None = None
    jobs: int = 1

    def __post_init__(self):
        if not isinstance(self.suites, tuple) or not self.suites:
            raise ValueError("suites must be a non-empty tuple of suite names")
        for name in self.suites:
            if name not in _CHECKERS:
                raise ValueError(f"unknown suite {name!r}; known: {sorted(_CHECKERS)}")
        if not 1 <= self.s_max <= 3:
            raise ValueError("s_max must be between 1 and 3")
        if not 1 <= self.n_max <= DEFAULT_ENUMERATION_BOUND:
            raise ValueError("n_max must be between 1 and the enumeration bound "
                             f"{DEFAULT_ENUMERATION_BOUND}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


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
        reg = homology.regularity_of_power(g, s, spec.field)
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
    """Froberg's theorem, one record per non-isolated x where it fails, then
    the bounds on reg I^s of a locally linear graph."""
    if g.is_edgeless():
        return []
    out = []
    for x in range(g.n):
        if g.degree(x):
            h = invariants.link(g, x)
            reg = invariants.local_regularity(g, x, spec.field)
            froberg = h.is_edgeless() or invariants.is_co_chordal(h)
            if (reg <= 2) != froberg:
                out.append(_viol(g, None, reg, froberg, "reg (I : x) <= 2 iff G - N[x] is "
                                 f"edgeless or co-chordal fails at x={x}"))
    if not invariants.is_locally_linear(g, spec.field):
        return out
    reg1 = homology.regularity_of_power(g, 1, spec.field)
    if reg1 > 3:
        out.append(_viol(g, 1, reg1, 3, "locally linear graph with reg I > 3"))
    return out + _power_bound(g, spec, reg1 - 2, operator.gt,
                              "locally linear: reg I^s > 2s + reg I - 2")


def _check_gapfree_local(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless() or not invariants.is_gap_free(g):
        return []
    r = max(invariants.local_regularity_max(g, spec.field) + 1, 3)
    return _power_bound(g, spec, r - 2, operator.gt,
                        f"gap-free, locally of regularity <= {r - 1}: reg I^s > 2s + r - 2")


def _check_gapfree_locallinear(g: Graph, spec: SuiteSpec) -> list[dict]:
    if (g.is_edgeless() or not invariants.is_gap_free(g)
            or not invariants.is_locally_linear(g, spec.field)):
        return []
    return _power_bound(g, spec, 0, operator.ne, "gap-free locally linear: reg I^s != 2s",
                        start=2)


# The table of one graph: (k, word of e_1...e_j) -> I(G)^{k+1} : e_1...e_j,
# level j = 0 holding I(G)^{k+1} itself, and each edge multiset m (its
# sorted edge tuple) -> its even-connected pairs.  A new graph and the
# start of every sweep empty it.
_COLONS: dict[Graph, dict] = {}


def _table(g: Graph) -> dict:
    """g's table, emptied first when it holds another graph."""
    table = _COLONS.get(g)
    if table is None:
        _COLONS.clear()
        table = _COLONS[g] = {}
    return table


def _pairs(g: Graph, m: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], int]:
    """The even-connected pairs of m, searched once per graph's table."""
    table = _table(g)
    pairs = table.get(m)
    if pairs is None:
        pairs = table[m] = evenconn.even_connection_lengths(g, m)
    return pairs


def _colon(g: Graph, k: int, edges: Sequence[tuple[int, int]]) -> MonomialIdeal:
    """I(G)^{k+1} : e_1...e_j for edges e_1 ... e_j, j <= k, read from the
    graph's table.  A missing entry is built as the entry of
    e_1 ... e_{j-1} colon e_j, so shared prefixes and coinciding products
    (ab.cd = ac.bd) are built once."""
    table = _table(g)
    colon = table.get((k, 0))
    if colon is None:
        colon = table[(k, 0)] = power(edge_ideal(g), k + 1)
    word = 0
    for e in edges:
        step = squarefree(e, g.n)
        word += step
        key = (k, word)
        got = table.get(key)
        if got is None:
            got = table[key] = colon_by_monomial(colon, step)
        colon = got
    return colon


def _edge_colons(g: Graph, k: int
                 ) -> Iterator[tuple[tuple[tuple[int, int], ...], MonomialIdeal]]:
    """(m, I(G)^{k+1} : m) for every multiset m of k edges of g, the
    sorted edge tuples in `combinations_with_replacement` order."""
    for m in itertools.combinations_with_replacement(g.edges(), k):
        yield m, _colon(g, k, m)


def _check_square(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    out = []
    r = invariants.local_regularity_max(g, spec.field) + 1
    for m, colon in _edge_colons(g, 1):
        reg_colon = homology.regularity(colon, spec.field)
        if reg_colon > r:
            out.append(_viol(g, 2, reg_colon, r, f"reg (I^2 : e) > r for e={m[0]}"))
    reg2 = homology.regularity_of_power(g, 2, spec.field)
    if reg2 > r + 2:
        out.append(_viol(g, 2, reg2, r + 2, "reg I^2 > r + 2"))
    return out


def _check_symbolic_square(g: Graph, spec: SuiteSpec) -> list[dict]:
    out = []
    sym = symbolic_square(g)
    oracle = cover_square_intersection(g)
    if sym != oracle:
        out.append(_viol(g, 2,
                         sorted(sym.generators()), sorted(oracle.generators()),
                         "symbolic square formula != intersection of squared covers"))
    if not g.is_edgeless():
        r = invariants.local_regularity_max(g, spec.field) + 1
        reg_sym = homology.regularity(sym, spec.field)
        if reg_sym > r + 2:
            out.append(_viol(g, 2, reg_sym, r + 2, "reg I^(2) > r + 2"))
    return out


def _check_colon_induction(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    out = []
    for t in _s_values(g, spec.s_max, start=2):
        s = t - 1
        lhs = homology.regularity_of_power(g, t, spec.field)
        colon_regs = [homology.regularity(colon, spec.field) + 2 * s
                      for _, colon in _edge_colons(g, s)]
        rhs = max(colon_regs + [homology.regularity_of_power(g, s, spec.field)])
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
    leaves = _leaf_edges(g)
    for s in _s_values(g, spec.s_max, start=2):
        parts: dict[int, tuple[MonomialIdeal, MonomialIdeal]] = {}
        for m, j in _edge_colons(g, s - 1):
            for e in set(m) & leaves:
                rest = list(m)
                rest.remove(e)
                rhs = _colon(g, s - 2, rest)  # I^{s-1} : m / e
                if j != rhs:
                    out.append(_viol(g, s, sorted(j.generators()), sorted(rhs.generators()),
                                     f"leaf reduction fails for m={list(m)}, leaf={e}"))
            shielded = closed_neighborhood(g, sum({1 << v for e in m for v in e}))
            word = sum(squarefree(e, g.n) for e in m)
            for w in range(g.n):
                if shielded >> w & 1:
                    continue
                if w not in parts:
                    parts[w] = _vertex_colon_parts(g, w, s)
                sub_power, var_part = parts[w]
                lhs = colon_by_monomial(j, squarefree((w,), g.n))
                # I(G - N[w])^s : e_1...e_{s-1}, plus the variables of N(w)
                rhs = sum_ideals(sub_power if sub_power.is_zero
                                 else colon_by_monomial(sub_power, word), var_part)
                if lhs != rhs:
                    out.append(_viol(g, s, sorted(lhs.generators()), sorted(rhs.generators()),
                                     f"J:w identity fails for m={list(m)}, w={w}"))
    return out


def _vertex_colon_parts(g: Graph, w: int, s: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    """I(G - N[w])^s and the ideal of the variables of the open
    neighborhood N(w), both over the full variable universe."""
    blocked, names = closed_neighborhood(g, 1 << w), variables(g.n)
    sub = packed_ideal(names, (squarefree((u, v), g.n) for u, v in g.edges()
                               if not (blocked >> u | blocked >> v) & 1))
    var_part = packed_ideal(names, (squarefree((u,), g.n) for u in g.neighbors(w)))
    return sub if sub.is_zero else power(sub, s), var_part


def _check_even_connection(g: Graph, spec: SuiteSpec) -> list[dict]:
    """For every multiset m of s edges, compare the even-connected pairs
    against the monomial-arithmetic colon of I^{s+1} by the product: all
    minimal generators must be quadratic, and they must be exactly the
    x_u x_v of the edges of G and of the pairs with u != v, plus x_u^2 for
    each self-connected u.  The comparison runs on packed generators.  The
    expected generators are all quadratic, so only a mismatch reads the
    degrees, and only a mismatch of quadratic generators builds the colon
    graph, whose polarized edge ideal and the polarized colon name the two
    sides of the violation record."""
    if g.is_edgeless():
        return []
    out = []
    var = [squarefree((v,), g.n) for v in range(g.n)]
    edge_gens = {var[u] + var[v] for u, v in g.edges()}
    for s in _s_values(g, spec.s_max):
        for m, colon in _edge_colons(g, s):
            pairs = _pairs(g, m)
            if set(colon.gens) != edge_gens | {var[u] + var[v] for u, v in pairs}:
                bad = [d for d in colon.generator_degrees() if d != 2]
                if bad:
                    out.append(_viol(g, s, sorted(set(bad)), 2,
                                     f"non-quadratic colon generators for m={list(m)}"))
                    continue
                gp, names = evenconn.colon_graph(g, pairs)
                combinatorial = packed_ideal(names, (squarefree(e, gp.n) for e in gp.edges()))
                algebraic = polarize(colon)
                out.append(_viol(
                    g, s, sorted(combinatorial.generators()), sorted(algebraic.generators()),
                    f"colon graph does not match the direct colon for m={list(m)}"))
    return out


def _check_isolated_reduction(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless() or not invariants.is_gap_free(g):
        return []
    out = []
    for s in _s_values(g, spec.s_max, start=2):
        for m in itertools.combinations_with_replacement(g.edges(), s - 1):
            for w, u in evenconn.isolated_reduction_failures(g, _pairs(g, m)):
                out.append(_viol(g, s, sorted(w), u,
                                 f"reduction keeps a foreign edge for m={list(m)}"))
    return out


def _check_conjecture_a(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    return _power_bound(g, spec, homology.regularity_of_power(g, 1, spec.field) - 2,
                        operator.gt, "counterexample candidate: reg I^s > 2s + reg I - 2")


def _check_conjecture_a_prime(g: Graph, spec: SuiteSpec) -> list[dict]:
    if g.is_edgeless():
        return []
    r = max(invariants.local_regularity_max(g, spec.field) + 1, 2)
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
# runner

def _graph_source(spec: SuiteSpec) -> list[Graph]:
    if spec.graphs is not None:
        return list(spec.graphs)
    out: list[Graph] = []
    for n in range(1, spec.n_max + 1):
        out.extend(enumerate_graphs(n))
    return out


def _run_one(check: Callable[[Graph], list[dict]], g: Graph) -> list[dict]:
    # perfbench's sweep probe rebinds this name and forwards (check, g)
    # untouched: it stays module-level, takes two positional arguments and
    # is called once per (suite, graph)
    return check(g)


def _sweep(spec: SuiteSpec, graphs: Sequence[Graph]) -> tuple[list, list[list]]:
    """Per graph, one (violations, seconds) pair per suite; then the memoized
    regularities of powers.  `_run_one` is looked up at each call, so a
    stand-in bound there runs in pool workers too."""
    _COLONS.clear()  # left by an earlier run, or inherited from the parent by a worker
    checks = [(name, partial(_CHECKERS[name], spec=spec)) for name in spec.suites]
    rows = [[] for _ in graphs]
    for g, row in zip(graphs, rows):
        for name, check in checks:
            start = time.perf_counter()
            try:
                viols = _run_one(check, g)
            except homology.BudgetError as exc:
                raise homology.BudgetError(f"{name} on {emit_graph6(g)}: {exc}") from exc
            row.append((viols, time.perf_counter() - start))
    return rows, homology.cache_snapshot()


def run(spec: SuiteSpec) -> tuple[list[dict], int]:
    """Sweep the spec's graphs through its suites, one report per suite in
    the spec's order, each the record that `--out` writes; exit code 0 iff
    every theorem suite passes.  Conjecture suites never affect the exit
    code.  A `BudgetError` names the suite and the graph, and ends the run
    before the disk cache is written."""
    _load_disk_cache()
    graphs = _graph_source(spec)
    workers = min(spec.jobs, os.cpu_count() or 1, len(graphs))
    if workers > 1:
        # neighbours in enumeration order cost about the same: shares balance
        rows: list = [None] * len(graphs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = [graphs[w::workers] for w in range(workers)]
            for w, (got, snapshot) in enumerate(pool.map(partial(_sweep, spec), shares)):
                rows[w::workers] = got
                homology.cache_restore(snapshot)
    else:
        rows, _ = _sweep(spec, graphs)
    _save_disk_cache()
    reports = []
    for k, name in enumerate(spec.suites):
        viols = [v for row in rows for v in row[k][0]]
        reports.append({
            "suite": name, "graphs_tested": len(rows),
            "violations": viols[:MAX_STORED_VIOLATIONS], "violations_total": len(viols),
            "wall_time": sum((row[k][1] for row in rows), 0.0), "pass": not viols,
            "conjecture": name in CONJECTURE_SUITES,
            # no suite writes notes yet; the key stays so the report format is fixed
            "notes": [],
        })
    return reports, int(any(not r["pass"] for r in reports if not r["conjecture"]))


def clear_all_caches() -> None:
    _COLONS.clear()
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
