"""Spans and counts around each layer's public functions, from outside.

`Tracer.install` wraps the functions in `TARGETS` and rebinds every name
under which an `edgereg` module holds them, so a function imported with
`from .x import y` is wrapped in the importing module as well.  Each call
records a span (name, parent span, start, end) and updates per-name
aggregates: calls, inclusive seconds and self seconds (the span minus its
child spans).  A few wrappers also count what went in and out.

Spans stay in memory and are written once, at the end.  In a pool worker
forked from a traced process only the aggregates are kept; the sweep probe
ships them back with each item's result.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array
from pathlib import Path

from edgereg import homology

# layer -> public functions wrapped in that layer ("Class.method" for methods)
TARGETS = {
    "graphs": ("enumerate_graphs", "canonical_key"),
    "invariants": ("matching_number", "induced_matching_number", "is_gap_free",
                   "is_claw_free", "is_cricket_free", "is_chordal", "is_co_chordal",
                   "is_cameron_walker", "local_regularity", "local_regularity_max",
                   "is_locally_of_regularity_at_most", "is_locally_linear",
                   "invariant_record"),
    "monomials": ("edge_ideal", "power", "colon_by_monomial", "intersect", "sum_ideals",
                  "polarize", "symbolic_square", "cover_square_intersection",
                  "minimal_vertex_covers", "MonomialIdeal.same_ideal_as"),
    "evenconn": ("even_connected_pairs", "colon_graph", "check_even_connection_theorem",
                 "isolated_reduction_check"),
    "homology": ("graded_betti", "hochster_oracle", "regularity", "regularity_of_power"),
    "linalg": ("rank_gf2", "rank_mod_p", "rank_bareiss", "matrix_rank"),
    "suites": ("run", "run_suite"),
    "cli": ("main",),
}

ACTIVE: "Tracer | None" = None
_FORK_HOOK = False


def _matrix_shape(rows) -> tuple[int, int]:
    if not rows:
        return 0, 0
    if isinstance(rows[0], int):
        return len(rows), max(r.bit_length() for r in rows)
    return len(rows), len(rows[0])


class _JsonProxy:
    """cli's `json` with a traced `dump`."""

    def __init__(self, real, dump):
        self._real = real
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.keep_spans = True
        self.stack: list[list] = []          # [name, start, child seconds, span index]
        self.agg: dict[str, list[float]] = {}  # name -> [calls, total s, self s]
        self.sums: dict[str, float] = {}
        self.maxes: dict[str, float] = {}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def enter(self, name: str) -> None:
        idx = -1
        now = time.perf_counter()
        if self.keep_spans:
            idx = len(self.span_start)
            self.span_name.append(self.name_ids.setdefault(name, len(self.name_ids)))
            self.span_parent.append(self.stack[-1][3] if self.stack else -1)
            self.span_start.append(now)
            self.span_end.append(0.0)
        self.stack.append([name, now, 0.0, idx])

    def exit(self) -> None:
        now = time.perf_counter()
        name, start, child, idx = self.stack.pop()
        if idx >= 0:
            self.span_end[idx] = now
        dur = now - start
        if self.stack:
            self.stack[-1][2] += dur
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.maxes.get(key, 0):
            self.maxes[key] = value

    def take_aggregates(self) -> dict:
        out = {"agg": self.agg, "sums": self.sums, "maxes": self.maxes}
        self.agg, self.sums, self.maxes = {}, {}, {}
        return out

    def merge(self, other: dict) -> None:
        for name, (calls, total, self_s) in other["agg"].items():
            a = self.agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
        for key, value in other["sums"].items():
            self.add(key, value)
        for key, value in other["maxes"].items():
            self.peak(key, value)

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, name: str, fn, before=None, after=None):
        tr = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tr, args)
            tr.enter(name)
            try:
                result = fn(*args, **kwargs)
            except homology.BudgetError:
                tr.exit()
                tr.add("budget_errors", 1)
                raise
            except BaseException:
                tr.exit()
                raise
            tr.exit()
            if after is not None:
                after(tr, args, result)
            return result

        return traced

    def install(self) -> None:
        global ACTIVE, _FORK_HOOK
        if ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "edgereg" or key.startswith("edgereg.")]
        for layer, names in TARGETS.items():
            mod = importlib.import_module(f"edgereg.{layer}")
            for name in names:
                owner, attr = mod, name
                if "." in name:
                    cls_name, attr = name.split(".", 1)
                    owner = getattr(mod, cls_name, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrapper(f"{layer}.{name}", *_hooks_for(attr, fn))
                if owner is not mod:
                    self._rebind(owner, attr, fn, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._rebind(m, key, fn, wrapper)
        # cli writes the --out report with the `json.dump` it looks up in its
        # own namespace; the span is "cli.write_out"
        cli = importlib.import_module("edgereg.cli")
        self._rebind(cli, "json", cli.json,
                     _JsonProxy(cli.json, self._wrapper("cli.write_out", cli.json.dump)))
        ACTIVE = self
        if not _FORK_HOOK:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK = True

    def _rebind(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        global ACTIVE
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.stack.clear()
        ACTIVE = None

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, stem: Path) -> dict:
        """Write spans as `<stem>.bin` (name ids as int32, parent span
        indexes as int32, then start and end seconds as float64, each array
        whole) with a JSON header `<stem>.json`."""
        header = {
            "count": self.span_count(),
            "names": sorted(self.name_ids, key=self.name_ids.get),
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "clock": "time.perf_counter, seconds",
            "data": stem.name + ".bin",
        }
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
        return header


def _after_fork_in_child() -> None:
    tr = ACTIVE
    if tr is not None:
        tr.keep_spans = False
        tr.stack = []
        tr.take_aggregates()


# -- counters taken around particular functions ------------------------------

def _colon_after(tr: Tracer, args, result) -> None:
    tr.add("colon_gens_in", len(args[0].gens))
    tr.add("colon_gens_out", len(result.gens))


def _betti_before(tr: Tracer, args) -> None:
    tr.peak("betti_gens_max", len(args[0].gens))


def _rank_before(tr: Tracer, args) -> None:
    rows, cols = _matrix_shape(args[0])
    tr.peak("rows_max", rows)
    tr.peak("cols_max", cols)


def _regularity_before(tr: Tracer, args) -> None:
    if tr.parent() == "homology.regularity_of_power":
        tr.add("reg_power_misses", 1)
    else:
        tr.add("colon_reg_calls", 1)


def _materialize(fn):
    # enumerate_graphs is a generator: consume it inside the span so the
    # span covers the enumeration, and hand the caller an iterator
    def run(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))
    return run


def _hooks_for(name: str, fn):
    if name == "enumerate_graphs":
        return _materialize(fn), None, None
    if name == "colon_by_monomial":
        return fn, None, _colon_after
    if name == "graded_betti":
        return fn, _betti_before, None
    if name in ("rank_gf2", "rank_mod_p", "rank_bareiss"):
        return fn, _rank_before, None
    if name == "regularity":
        return fn, _regularity_before, None
    return fn, None, None
