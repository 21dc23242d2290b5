"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-n6 --seed 1 --seconds 30 --trace 0

Workloads: sweep-n6, sweep-n6-jobs2, betti-n7, oracle-dual (see
perfbench/README.md for why each exists).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1.  A fuller record, with the environment, goes to a result file
under perfbench/results/ (see compare.py).

This process only orchestrates.  Set-up is timed in fresh child processes,
from launch to the first timed call, and reported as the median of
SETUP_SAMPLES; the last child also runs the timed passes.  Passes repeat
while the next one is expected to end within --seconds; at least one runs.
A traced run makes one untraced pass and then one traced pass, and reports
the difference of their wall times as the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import env
import metrics

SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, children included


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Run one edgereg benchmark workload.")
    p.add_argument("--workload", required=True,
                   choices=("sweep-n6", "sweep-n6-jobs2", "betti-n7", "oracle-dual"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the same code on small inputs (smoke tests)")
    p.add_argument("--out-dir", type=Path, default=env.BENCH_DIR / "results")
    # internal: the child processes
    p.add_argument("--phase", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# child side

def _child(args: argparse.Namespace) -> dict:
    env.use_checkout_src()
    import tracer
    import workloads

    tr = tracer.Tracer() if args.trace else None
    if tr is not None:
        tr.install()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    state = workloads.setup(args.workload, args.seed, args.size, args.out_dir)
    setup_s = time.time() - args.launched
    if args.phase == "setup":
        return {"setup_s": setup_s}

    passes = []
    if tr is not None:
        tr.uninstall()
        passes.append(_pass_record(state.run_pass(), traced=False))
        tr.install()
        passes.append(_pass_record(state.run_pass(), traced=True))
        tr.uninstall()
    else:
        start = time.perf_counter()
        while True:
            passes.append(_pass_record(state.run_pass(), traced=False))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1]["wall_s"] > args.seconds:
                break
    out = {"setup_s": setup_s, "passes": passes}
    if tr is not None:
        header = tr.write_spans(args.out_dir / f"{args.workload}-spans")
        out["trace"] = {**tr.take_aggregates(), "spans": header["count"],
                        "missing": tr.missing, "spans_file": header["data"]}
    return out


def _pass_record(result, traced: bool) -> dict:
    return {
        "traced": traced,
        "wall_s": result.wall_s,
        "cpu_s": result.cpu_s,
        "peak_rss_mb": result.peak_rss_mb,
        "latencies": [it.seconds for it in result.items],
        "failed": sum(1 for it in result.items if not it.ok),
        "extra": result.extra,
    }


# ---------------------------------------------------------------------------
# orchestrator side

class RunFailed(RuntimeError):
    pass


def _spawn(args: argparse.Namespace, phase: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", str(args.out_dir),
           "--phase", phase, "--launched", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=env.ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{phase} child passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RunFailed(f"{phase} child exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _orchestrate(args: argparse.Namespace) -> int:
    if not (env.SRC / "edgereg" / "__init__.py").is_file():
        print(f"run.py: no edgereg sources under {env.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load_start = env.loadavg()
    extra_samples = 0 if args.trace else SETUP_SAMPLES - 1  # a traced run reports no setup_s
    samples = [_spawn(args, "setup", deadline)["setup_s"] for _ in range(extra_samples)]
    raw = _spawn(args, "measure", deadline)
    samples.append(raw["setup_s"])
    raw["setup_samples"] = samples

    attempted = sum(len(p["latencies"]) for p in raw["passes"])
    failed = sum(p["failed"] for p in raw["passes"])
    e2e, details = metrics.end_to_end(raw)
    e2e["failed_frac"] = failed / attempted if attempted else 1.0
    units = {**metrics.END_TO_END, **metrics.RESULT_ONLY}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": {**env.environment(), "loadavg_start": load_start,
                        "loadavg_end": env.loadavg()},
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "details": details,
        "passes": [{k: v for k, v in p.items() if k != "latencies"} for p in raw["passes"]],
    }
    if args.trace:
        layer = metrics.per_layer(raw)
        record["per_layer"] = {k: {"value": v, "unit": metrics.PER_LAYER[k]}
                               for k, v in layer.items()}
        record["self_time_shares"] = metrics.self_time_shares(raw)
        record["trace_missing"] = raw["trace"]["missing"]
        record["spans_file"] = raw["trace"]["spans_file"]
        shown = record["per_layer"]
    else:
        shown = {k: record["end_to_end"][k] for k in metrics.END_TO_END}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path = args.out_dir / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"result file: {path.relative_to(env.ROOT) if env.ROOT in path.parents else path}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.phase is None:
        try:
            return _orchestrate(args)
        except RunFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 3
    try:
        out = _child(args)
    except env.MissingProgram as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
