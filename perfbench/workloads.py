"""The four benchmark workloads: inputs from a seed, one timed pass, and
the correctness check of every item.

Every workload is a closed loop with a single caller.  A pass returns one
`Item` per unit of work, with its latency and whether it was correct; an
exception inside an item (a `BudgetError` included) marks that item failed
and never stops the pass.

* `sweep-n6` / `sweep-n6-jobs2`: `edgereg verify --suite all --n 6 --s 2`
  run in-process through `cli.main`, serially or with `--jobs 2`.  An item
  is one (suite, graph) check, timed by `sweepprobe`.
* `betti-n7`: `graded_betti(I(G)^2)` over GF(2) on a seeded sample of
  7-vertex graphs, stratified by edge count.  An item is one table.
* `oracle-dual`: primary route against the Hochster oracle over QQ and
  GF(3), for every graph with an edge on at most 5 vertices, s in {1, 2}.
  An item is one (ideal, field) pair.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from edgereg import cli, graphs, homology, monomials, suites

import sweepprobe

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
BETTI_REFERENCE = REFERENCE_DIR / "betti_n7_s2_gf2.json"
SWEEP_REFERENCE = REFERENCE_DIR / "sweep_n6_s2_cache.json"

WORKLOADS = ("sweep-n6", "sweep-n6-jobs2", "betti-n7", "oracle-dual")

# "full" is the benchmark; "tiny" is the same code on small inputs, for the
# benchmark's own smoke tests.
SIZES = {
    "full": {"sweep_n": 6, "betti_items": 105, "oracle_n": 5},
    "tiny": {"sweep_n": 4, "betti_items": 6, "oracle_n": 3},
}
SWEEP_S = 2
BETTI_N = 7
BETTI_S = 2
ORACLE_POWERS = (1, 2)
ORACLE_FIELDS = (homology.QQ, homology.FieldSpec(3))


@dataclass
class Item:
    seconds: float
    ok: bool


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    items: list[Item]
    extra: dict = field(default_factory=dict)


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_now() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child (Linux
    reports ru_maxrss in KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def table_key(table: homology.BettiTable) -> list[list[int]]:
    return table.to_json_dict()["betti"]


# ---------------------------------------------------------------------------
# sweeps

class Sweep:
    """`edgereg verify --suite all` in-process, with fresh memos and an empty
    disk cache on every pass."""

    def __init__(self, jobs: int, size: str, workdir: Path, reference: dict | None = None):
        self.jobs = jobs
        self.n = SIZES[size]["sweep_n"]
        self.workdir = workdir
        self.reference = reference if reference is not None else load_reference(SWEEP_REFERENCE)
        self.expected = {tuple(e[:4]): e[4] for e in self.reference["cache"]
                         if e[0] <= self.n}
        sweepprobe.install()

    def run_pass(self) -> PassResult:
        passdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.workdir))
        try:
            return self._run_pass(passdir)
        finally:
            shutil.rmtree(passdir, ignore_errors=True)

    def _run_pass(self, passdir: Path) -> PassResult:
        out_path = passdir / "report.json"
        cache_dir = passdir / "cache"
        argv = ["verify", "--suite", "all", "--n", str(self.n), "--s", str(SWEEP_S),
                "--out", str(out_path)]
        if self.jobs > 1:
            argv += ["--jobs", str(self.jobs)]
        os.environ[suites.CACHE_ENV_VAR] = str(cache_dir)
        suites.clear_all_caches()
        sweepprobe.reset()
        error = None
        kids0 = children_cpu_now()
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # a crash fails every item of the pass
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = cpu_now() - cpu0
        worker_cpu = children_cpu_now() - kids0
        latencies = sweepprobe.latencies()

        n_graphs = sum(1 for k in range(1, self.n + 1) for _ in graphs.enumerate_graphs(k))
        n_items = n_graphs * len(suites.THEOREM_SUITES)
        extra = {"worker_cpu_s": worker_cpu, "exit_code": code, "error": error}
        if error is not None:
            failed = n_items
        elif len(latencies) != n_items:
            failed = n_items
            extra["problems"] = [f"{len(latencies)} timed items, expected {n_items}"]
        else:
            failed, extra["problems"] = self._check(code, out_path, cache_dir, n_graphs,
                                                    n_items, extra)
        # items that never ran count as failed, with the pass's wall time;
        # which timed items failed is not tracked, only how many
        latencies += [wall] * (n_items - len(latencies))
        items = [Item(t, k >= failed) for k, t in enumerate(latencies)]
        return PassResult(wall, cpu, peak_rss_mb(), items, extra)

    def _check(self, code, out_path: Path, cache_dir: Path, n_graphs: int, n_items: int,
               extra: dict) -> tuple[int, list[str]]:
        """(number of failed items, problems found).  A (suite, graph) with
        a violation fails; anything that puts the whole pass in doubt fails
        every item."""
        try:
            with open(out_path, encoding="utf-8") as fh:
                reports = json.load(fh)
        except (OSError, ValueError) as exc:
            return n_items, [f"unreadable --out report: {exc}"]
        extra["suite_s"] = {r["suite"]: r["wall_time"] for r in reports}
        if [r["suite"] for r in reports] != list(suites.THEOREM_SUITES):
            return n_items, ["--out report does not list every theorem suite"]
        untested = [r["suite"] for r in reports if r["graphs_tested"] != n_graphs]
        if untested:
            return n_items, [f"not every graph tested by {', '.join(untested)}"]
        unlisted = [r["suite"] for r in reports if r["violations_total"] > len(r["violations"])]
        if unlisted:
            return n_items, [f"violations beyond those listed in {', '.join(unlisted)}"]
        bad = {(r["suite"], v["graph6"]) for r in reports for v in r["violations"]}
        problems = [f"{r['suite']}: {r['violations_total']} violations"
                    for r in reports if not r["pass"]]
        if code != 0 and not bad:
            return n_items, problems + [f"exit code {code} without a listed violation"]

        # Every memo entry the run produced must agree with the reference.
        # The serial sweep must also produce all of them; with --jobs the
        # parent's memo is known to stay empty (the worker memos are lost),
        # which `disk_cache_entries` measures instead of failing on.
        memo = {tuple(e[:4]): e[4] for e in homology.cache_snapshot()}
        try:
            with open(cache_dir / suites.CACHE_FILE, encoding="ascii") as fh:
                disk = {tuple(e[:4]): e[4] for e in json.load(fh)}
        except (OSError, ValueError) as exc:
            return n_items, problems + [f"unreadable disk cache: {exc}"]
        extra["disk_cache_entries"] = len(disk)
        extra["memo_entries"] = len(memo)
        for name, got in (("memo", memo), ("disk cache", disk)):
            wrong = [k for k, v in got.items() if self.expected.get(k) != v]
            if wrong:
                return n_items, problems + [f"{name}: {len(wrong)} entries differ from the "
                                            f"reference, first {list(wrong[0])}"]
        if self.jobs == 1 and len(memo) != len(self.expected):
            return n_items, problems + [f"memo has {len(memo)} entries, "
                                        f"reference {len(self.expected)}"]
        return len(bad), problems


# ---------------------------------------------------------------------------
# item workloads

def betti_sample(seed: int, count: int) -> list[graphs.Graph]:
    """`count` graphs on BETTI_N vertices drawn with `seed`, stratified by
    edge count: a systematic sample with a seeded random start over the
    graphs in enumeration order (edge count, then canonical code).  Each
    edge count gets its share of the sample in proportion to its size, and
    neighbours in that order cost about the same, which keeps the sample's
    total work steady from seed to seed.  The edgeless graph is excluded
    (zero ideal)."""
    frame = [g for g in graphs.enumerate_graphs(BETTI_N) if not g.is_edgeless()]
    step = len(frame) / count
    start = random.Random(seed).random() * step
    return [frame[int(start + k * step)] for k in range(count)]


class BettiN7:
    """graded_betti(I(G)^2, GF2) on the seeded sample; the ideals are built
    during set-up."""

    def __init__(self, seed: int, size: str, reference: dict | None = None):
        ref = reference if reference is not None else load_reference(BETTI_REFERENCE)
        self.tables = ref["tables"]
        sample = betti_sample(seed, SIZES[size]["betti_items"])
        self.inputs = [(graphs.emit_graph6(g), monomials.power(monomials.edge_ideal(g), BETTI_S))
                       for g in sample]

    def run_pass(self) -> PassResult:
        items, errors = [], []
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        for g6, ideal in self.inputs:
            s0 = time.perf_counter()
            try:
                table = homology.graded_betti(ideal, homology.GF2)
                ok = table_key(table) == self.tables.get(g6)
            except Exception as exc:  # a failed item, never a failed pass
                ok = False
                errors.append(f"{g6}: {type(exc).__name__}: {exc}")
            items.append(Item(time.perf_counter() - s0, ok))
        wall = time.perf_counter() - t0
        return PassResult(wall, cpu_now() - cpu0, peak_rss_mb(), items, {"errors": errors})


class OracleDual:
    """Primary route against the oracle route over QQ and GF(3), exhaustive
    over nonempty edge sets on at most `oracle_n` vertices."""

    def __init__(self, size: str):
        n_max = SIZES[size]["oracle_n"]
        self.inputs = []
        for n in range(1, n_max + 1):
            for g in graphs.enumerate_graphs(n):
                if g.is_edgeless():
                    continue
                for s in ORACLE_POWERS:
                    ideal = monomials.power(monomials.edge_ideal(g), s)
                    self.inputs.extend((ideal, f) for f in ORACLE_FIELDS)

    def run_pass(self) -> PassResult:
        items, errors = [], []
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        for ideal, fld in self.inputs:
            s0 = time.perf_counter()
            try:
                ok = homology.graded_betti(ideal, fld) == homology.hochster_oracle(ideal, fld)
            except Exception as exc:  # a failed item, never a failed pass
                ok = False
                errors.append(f"{ideal} over char {fld.characteristic}: "
                              f"{type(exc).__name__}: {exc}")
            items.append(Item(time.perf_counter() - s0, ok))
        wall = time.perf_counter() - t0
        return PassResult(wall, cpu_now() - cpu0, peak_rss_mb(), items, {"errors": errors})


def setup(name: str, seed: int, size: str, workdir: Path):
    """Build the workload's inputs; everything here counts as set-up time."""
    if name == "sweep-n6":
        return Sweep(1, size, workdir)
    if name == "sweep-n6-jobs2":
        return Sweep(2, size, workdir)
    if name == "betti-n7":
        return BettiN7(seed, size)
    if name == "oracle-dual":
        return OracleDual(size)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
