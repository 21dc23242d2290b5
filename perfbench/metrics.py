"""Metric names, units and how each is computed from a run's raw record.

End-to-end metrics come from untraced passes; per-layer metrics from the
traced run (tracer aggregates over set-up and the traced pass, plus what
the sweep reports about itself in the untraced pass of the same run).
`BENCHMARK.json` lists the same names and units; the smoke tests hold the
two together.
"""
from __future__ import annotations

import math
import statistics

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# In every result file but not in BENCHMARK.json, whose metrics every
# workload must report within a bound and never at 0: item latency
# percentiles are meaningful on betti-n7 and oracle-dual only (a sweep's
# items range from microseconds to a second, and its median item moves by
# 15 % between back-to-back passes), and failed_frac is 0 everywhere.
RESULT_ONLY = {
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "failed_frac": "ratio",
}

SUITES = ("lower-bound", "matching-bound", "cameron-walker", "locally-linear",
          "gapfree-local", "gapfree-locallinear", "square", "symbolic-square",
          "colon-induction", "colon-structure", "even-connection", "isolated-reduction")

PER_LAYER = {
    "graphs.enumerate_s": "s",
    "graphs.canonical_key_calls": "count",
    "graphs.self_s": "s",
    "invariants.calls": "count",
    "invariants.self_s": "s",
    "monomials.colon_calls": "count",
    "monomials.colon_self_s": "s",
    "monomials.colon_gens_in": "count",
    "monomials.colon_gens_out": "count",
    "monomials.colon_yield": "ratio",
    "monomials.power_self_s": "s",
    "monomials.polarize_self_s": "s",
    "monomials.same_ideal_self_s": "s",
    "monomials.self_s": "s",
    "evenconn.pairs_calls": "count",
    "evenconn.pairs_self_s": "s",
    "evenconn.colon_graph_self_s": "s",
    "evenconn.self_s": "s",
    "homology.betti_calls": "count",
    "homology.betti_self_s": "s",
    "homology.betti_gens_max": "count",
    "homology.oracle_calls": "count",
    "homology.oracle_self_s": "s",
    "homology.reg_power_calls": "count",
    "homology.reg_power_misses": "count",
    "homology.reg_power_hit_ratio": "ratio",
    "homology.colon_reg_calls": "count",
    "homology.budget_errors": "count",
    "homology.self_s": "s",
    "linalg.gf2_calls": "count",
    "linalg.gf2_self_s": "s",
    "linalg.dense_calls": "count",
    "linalg.dense_self_s": "s",
    "linalg.rows_max": "count",
    "linalg.cols_max": "count",
    "linalg.self_s": "s",
    **{f"suites.{name}_s": "s" for name in SUITES},
    "suites.disk_cache_entries": "count",
    "suites.worker_cpu_s": "s",
    "suites.self_s": "s",
    "cli.write_out_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

LAYERS = ("graphs", "invariants", "monomials", "evenconn", "homology", "linalg",
          "suites", "cli")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (p in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest percentile, in tenths, with at least ten samples beyond it."""
    if n < 11:
        return None
    return math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0


def end_to_end(raw: dict) -> tuple[dict, dict]:
    """(metrics for the result line, details for the result file)."""
    passes = [p for p in raw["passes"] if not p.get("traced")]
    lat_ms = [t * 1000.0 for p in passes for t in p["latencies"]]
    metrics = {
        "setup_s": statistics.median(raw["setup_samples"]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "items_per_s": statistics.median(len(p["latencies"]) / p["wall_s"] for p in passes),
        "item_p50_ms": percentile(lat_ms, 50),
        "item_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    tail = tail_percentile(len(lat_ms))
    details = {
        "item_samples": len(lat_ms),
        "item_tail": None if tail is None else {
            "percentile": tail, "value_ms": percentile(lat_ms, tail), "samples": len(lat_ms)},
        "passes": len(passes),
        "setup_samples": raw["setup_samples"],
        "wall_s_per_pass": [p["wall_s"] for p in passes],
        "cpu_s_per_pass": [p["cpu_s"] for p in passes],
    }
    return metrics, details


def per_layer(raw: dict) -> dict:
    trace = raw["trace"]
    agg = trace["agg"]
    sums = trace["sums"]
    maxes = trace["maxes"]

    def calls(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total_s(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer(prefix, what):
        return sum(v[what] for n, v in agg.items() if n.split(".", 1)[0] == prefix)

    untraced = next(p for p in raw["passes"] if not p.get("traced"))
    traced = next(p for p in raw["passes"] if p.get("traced"))
    extra = untraced["extra"]
    gens_in = sums.get("colon_gens_in", 0)
    reg_calls = calls("homology.regularity_of_power")
    misses = sums.get("reg_power_misses", 0)
    dense = ("linalg.rank_bareiss", "linalg.rank_mod_p")
    suite_s = extra.get("suite_s", {})
    out = {
        "graphs.enumerate_s": total_s("graphs.enumerate_graphs"),
        "graphs.canonical_key_calls": calls("graphs.canonical_key"),
        "graphs.self_s": layer("graphs", 2),
        "invariants.calls": layer("invariants", 0),
        "invariants.self_s": layer("invariants", 2),
        "monomials.colon_calls": calls("monomials.colon_by_monomial"),
        "monomials.colon_self_s": self_s("monomials.colon_by_monomial"),
        "monomials.colon_gens_in": gens_in,
        "monomials.colon_gens_out": sums.get("colon_gens_out", 0),
        "monomials.colon_yield": sums.get("colon_gens_out", 0) / gens_in if gens_in else 0.0,
        "monomials.power_self_s": self_s("monomials.power"),
        "monomials.polarize_self_s": self_s("monomials.polarize"),
        "monomials.same_ideal_self_s": self_s("monomials.MonomialIdeal.same_ideal_as"),
        "monomials.self_s": layer("monomials", 2),
        "evenconn.pairs_calls": calls("evenconn.even_connected_pairs"),
        "evenconn.pairs_self_s": self_s("evenconn.even_connected_pairs"),
        "evenconn.colon_graph_self_s": self_s("evenconn.colon_graph"),
        "evenconn.self_s": layer("evenconn", 2),
        "homology.betti_calls": calls("homology.graded_betti"),
        "homology.betti_self_s": self_s("homology.graded_betti"),
        "homology.betti_gens_max": maxes.get("betti_gens_max", 0),
        "homology.oracle_calls": calls("homology.hochster_oracle"),
        "homology.oracle_self_s": self_s("homology.hochster_oracle"),
        "homology.reg_power_calls": reg_calls,
        "homology.reg_power_misses": misses,
        "homology.reg_power_hit_ratio": 1.0 - misses / reg_calls if reg_calls else 0.0,
        "homology.colon_reg_calls": sums.get("colon_reg_calls", 0),
        "homology.budget_errors": sums.get("budget_errors", 0),
        "homology.self_s": layer("homology", 2),
        "linalg.gf2_calls": calls("linalg.rank_gf2"),
        "linalg.gf2_self_s": self_s("linalg.rank_gf2"),
        "linalg.dense_calls": calls(*dense),
        "linalg.dense_self_s": self_s(*dense),
        "linalg.rows_max": maxes.get("rows_max", 0),
        "linalg.cols_max": maxes.get("cols_max", 0),
        "linalg.self_s": layer("linalg", 2),
        **{f"suites.{name}_s": suite_s.get(name, 0.0) for name in SUITES},
        "suites.disk_cache_entries": extra.get("disk_cache_entries", 0),
        "suites.worker_cpu_s": extra.get("worker_cpu_s", 0.0),
        "suites.self_s": layer("suites", 2),
        "cli.write_out_s": total_s("cli.write_out"),
        "cli.self_s": layer("cli", 2),
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.spans": trace["spans"],
    }
    return out


def self_time_shares(raw: dict) -> dict:
    """Self seconds of each layer and of the two heaviest kernels, as a
    share of the traced pass's wall time."""
    agg = raw["trace"]["agg"]
    wall = next(p for p in raw["passes"] if p.get("traced"))["wall_s"]
    shares = {}
    for prefix in LAYERS:
        shares[prefix] = sum(v[2] for n, v in agg.items() if n.split(".", 1)[0] == prefix) / wall
    for name in ("homology.graded_betti", "monomials.colon_by_monomial"):
        shares[name] = agg.get(name, (0, 0.0, 0.0))[2] / wall
    return shares
