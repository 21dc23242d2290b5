"""Regenerate the benchmark's stored reference data.

    python3 perfbench/make_reference.py betti   # all 7-vertex graphs, I^2, GF(2)
    python3 perfbench/make_reference.py sweep   # memo of the serial n <= 6 sweep

The Betti references cover every 7-vertex graph with an edge, so any seed's
sample can be checked; each primary-route table is cross-checked against
`hochster_oracle` over GF(2) before it is stored (about half an hour on one
core).  Regenerate only when the mathematics is known to be right: the
stored files are what the benchmark calls correct.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time

import env

env.use_checkout_src()

from edgereg import cli, graphs, homology, monomials, suites  # noqa: E402

import workloads  # noqa: E402


def write_reference(path, payload: dict, rows_key: str) -> None:
    """JSON with one entry of `payload[rows_key]` per line, so a diff of
    the file shows which entries changed."""
    rows = payload[rows_key]
    if isinstance(rows, dict):
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(rows.items())]
        opener, closer = "{", "}"
    else:
        lines = [json.dumps(v) for v in rows]
        opener, closer = "[", "]"
    head = {k: v for k, v in payload.items() if k != rows_key}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-1] + f", {json.dumps(rows_key)}: {opener}\n")
        fh.write(",\n".join(lines))
        fh.write(f"\n{closer}}}\n")


def make_betti() -> None:
    tables = {}
    todo = [g for g in graphs.enumerate_graphs(workloads.BETTI_N) if not g.is_edgeless()]
    for k, g in enumerate(todo):
        ideal = monomials.power(monomials.edge_ideal(g), workloads.BETTI_S)
        t0 = time.perf_counter()
        table = homology.graded_betti(ideal, homology.GF2)
        t1 = time.perf_counter()
        oracle = homology.hochster_oracle(ideal, homology.GF2)
        t2 = time.perf_counter()
        if oracle != table:
            sys.exit(f"primary and oracle tables differ on {graphs.emit_graph6(g)}")
        g6 = graphs.emit_graph6(g)
        tables[g6] = workloads.table_key(table)
        print(f"{k}\t{g6}\t{g.edge_count()}\t{t1 - t0:.6f}\t{t2 - t1:.6f}",
              file=sys.stderr, flush=True)
    payload = {"n": workloads.BETTI_N, "s": workloads.BETTI_S, "characteristic": 2,
               "cross_checked_with": "hochster_oracle over GF(2)", "tables": tables}
    write_reference(workloads.BETTI_REFERENCE, payload, "tables")


def make_sweep() -> None:
    n = workloads.SIZES["full"]["sweep_n"]
    with tempfile.TemporaryDirectory(dir=env.BENCH_DIR) as tmp:
        os.environ[suites.CACHE_ENV_VAR] = tmp
        suites.clear_all_caches()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--suite", "all", "--n", str(n),
                             "--s", str(workloads.SWEEP_S)])
    if code != 0:
        sys.exit(f"the serial sweep failed (exit code {code}); no reference written")
    payload = {"n_max": n, "s_max": workloads.SWEEP_S,
               "cache_entry": ["n", "code", "s", "characteristic", "regularity"],
               "cache": sorted(homology.cache_snapshot())}
    write_reference(workloads.SWEEP_REFERENCE, payload, "cache")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("which", choices=("betti", "sweep"))
    args = parser.parse_args()
    (make_betti if args.which == "betti" else make_sweep)()


if __name__ == "__main__":
    main()
