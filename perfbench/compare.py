"""Diff two sets of benchmark result files by workload and metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by run.py, or directories holding
them.  Runs are grouped by workload and by trace mode; untraced runs are
compared on the end-to-end metrics, traced runs on the per-layer metrics.
Each (workload, metric) pair gets a label from the bounds in BENCHMARK.json:

* worse: the new median is worse than the base median by more than the
  bound;
* improved: with at least ten runs a side, the new side wins at least nine
  tenths of the run pairs and the medians differ by more than the base
  spread; with fewer runs, the new median is better by more than the bound
  and every new run beats every base run;
* unresolved: a side's spread (interquartile range over median) exceeds the
  bound, unless every new run beats, or loses to, every base run;
* unchanged: otherwise.

Per-layer metrics, and the result-file-only metrics of metrics.RESULT_ONLY,
have no bound: they are unchanged when both sides read the same values; a
count that differs is improved or worse by its direction; a time or ratio
is improved or worse only when every run of one side beats every run of
the other, and unresolved otherwise.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import env
import metrics


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            record = json.load(fh)
        if isinstance(record, dict) and "workload" in record and "end_to_end" in record:
            runs.append(record)
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    if not med:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def label(base: list[float], new: list[float], better: str, bound: float | None,
          unit: str) -> tuple[str, float]:
    """(label, relative change of the medians, positive when worse)."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    if b_med:
        delta = sign * (n_med - b_med) / abs(b_med)
    else:
        delta = 0.0 if n_med == b_med else math.copysign(math.inf, sign * (n_med - b_med))
    beats = [sign * (b - n) > 0 for b in base for n in new]   # new better than base
    loses = [sign * (n - b) > 0 for b in base for n in new]
    all_better, all_worse = all(beats), all(loses)

    if bound is None:
        if set(base) == set(new):
            return "unchanged", delta
        if unit == "count":
            return ("improved" if delta < 0 else "worse"), delta
        if all_better:
            return "improved", delta
        if all_worse:
            return "worse", delta
        return "unresolved", delta

    if max(spread(base), spread(new)) > bound:
        if all_better:
            return "improved", delta
        if all_worse and delta > bound:
            return "worse", delta
        return "unresolved", delta
    if delta > bound:
        return "worse", delta
    pairs = list(zip(base, new))
    if len(pairs) >= 10:
        wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
        if wins >= 0.9 * len(pairs) and -delta > spread(base):
            return "improved", delta
    elif -delta > bound and all_better:
        return "improved", delta
    return "unchanged", delta


def compare(base_runs: list[dict], new_runs: list[dict], bench: dict) -> list[dict]:
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    extra = [{"name": k, "unit": u, "better": "lower"} for k, u in metrics.RESULT_ONLY.items()]
    specs.update((m["name"], m) for m in extra)
    rows = []
    def group(r):
        return r["workload"], r["size"], r["trace"]

    for workload, size, trace in sorted({group(r) for r in base_runs + new_runs}):
        key = "per_layer" if trace else "end_to_end"
        b = [r for r in base_runs if group(r) == (workload, size, trace)]
        n = [r for r in new_runs if group(r) == (workload, size, trace)]
        if not b or not n:
            continue
        names = [m["name"] for m in bench[key] + ([] if trace else extra)]
        for name in names:
            bv = [r[key][name]["value"] for r in b if name in r.get(key, {})]
            nv = [r[key][name]["value"] for r in n if name in r.get(key, {})]
            if not bv or not nv:
                continue
            spec = specs[name]
            verdict, delta = label(bv, nv, spec["better"], spec.get("bound"), spec["unit"])
            rows.append({"workload": workload, "size": size, "trace": trace, "metric": name,
                         "unit": spec["unit"], "base": statistics.median(bv),
                         "new": statistics.median(nv), "runs": [len(bv), len(nv)],
                         "base_spread": spread(bv), "change": delta, "label": verdict})
    return rows


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Diff two sets of benchmark result files.")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    rows = compare(load_runs(args.base), load_runs(args.new), bench)
    print("workload\tsize\ttrace\tmetric\tunit\tbase\tnew\truns\tbase_spread\tchange\tlabel")
    for r in rows:
        print(f"{r['workload']}\t{r['size']}\t{r['trace']}\t{r['metric']}\t{r['unit']}"
              f"\t{r['base']:.6g}\t{r['new']:.6g}\t{r['runs'][0]}/{r['runs'][1]}"
              f"\t{100 * r['base_spread']:.1f}%\t{100 * r['change']:+.1f}%\t{r['label']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
