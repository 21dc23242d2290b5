"""Per-item timing of the sweeps: a stand-in for `suites._run_one`.

`suites.run_suite` looks `_run_one` up in its module on every call and,
with `--jobs`, sends it to the pool workers by import path.  `install`
rebinds that name to `timed_run_one`, which lives here under its own import
path, so it can be pickled and runs in the workers too.

A serial call records its latency here directly.  A worker returns its
result as a `_Timed` list carrying the latency (and, when a tracer is
active in the worker, that item's trace aggregates); unpickling it in the
parent records them through `_arrive` and hands `run_suite` a plain list.
"""
from __future__ import annotations

import os
import time

from edgereg import suites

import tracer

_ORIGINAL = suites._run_one
_PARENT_PID: int | None = None
_LATENCIES: list[float] = []


def install() -> None:
    global _PARENT_PID
    _PARENT_PID = os.getpid()
    suites._run_one = timed_run_one


def reset() -> None:
    _LATENCIES.clear()


def latencies() -> list[float]:
    return list(_LATENCIES)


class _Timed(list):
    seconds = 0.0
    aggregates = None

    def __reduce__(self):
        return _arrive, (list(self), self.seconds, self.aggregates)


def _arrive(viols: list, seconds: float, aggregates) -> list:
    _LATENCIES.append(seconds)
    if aggregates is not None and tracer.ACTIVE is not None:
        tracer.ACTIVE.merge(aggregates)
    return viols


def timed_run_one(spec, g):
    active = tracer.ACTIVE
    t0 = time.perf_counter()
    if active is not None:
        active.enter("suites._run_one")
    try:
        result = _ORIGINAL(spec, g)
    finally:
        if active is not None:
            active.exit()
        seconds = time.perf_counter() - t0
    if os.getpid() == _PARENT_PID:
        _LATENCIES.append(seconds)
        return result
    out = _Timed(result)
    out.seconds = seconds
    if active is not None:
        out.aggregates = active.take_aggregates()
    return out
