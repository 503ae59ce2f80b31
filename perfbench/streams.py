"""The four closed-loop QR job streams and their timed end-to-end run.

Load model, shared by every workload: one client in this process calls
the public entry point with one job and issues the next call when it
returns (no think time).  Inputs are generated from the seed outside
the timed call, a fresh matrix per job, so no content cache can hit.
Numeric jobs pass ``validate=True`` and are certified by
``QRDiagnostics.ok()``; symbolic jobs must reproduce the numeric
backend's CostReport for the same point.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import active_children
from typing import Any, Callable

import numpy as np

from repro import QRJob, run_many
from repro.engine import clear_plan_cache
from repro.workloads import run_qr

from host import join_pools

#: Engine threads / worker processes.  With ``parallel-mp`` the parent
#: blocks while its two workers run, so no more processes are busy than
#: the two cores the reference host has.
WORKERS = 2
#: Floor on timed jobs per run: the p90 then has at least ten samples
#: beyond it.
MIN_JOBS = 100
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Timed jobs in one churn run, after ``CHURN_WARMUP`` untimed ones whose
#: plans stay cached.  Both fixed, so ``peak_rss_mb`` on the churn stream
#: depends on what the plan cache retains, not on how fast jobs run.
CHURN_JOBS = 100
#: A churn service runs with a full cache.  From an empty one, the
#: generation-2 collections of the first 100 jobs hit about ten jobs,
#: which put the p90 on the edge between paused and ordinary jobs; after
#: 20 cached plans they hit eight of the next 100, and the p90 falls
#: among ordinary jobs.
CHURN_WARMUP = 20
CHURN_M0 = 512


@dataclass
class Stream:
    """One workload: how to make job ``i`` and how to run and check it."""

    name: str
    make: Callable[[int, np.random.Generator], Any]
    call: Callable[[Any], Any]
    check: Callable[[int, Any], bool]
    #: "replay": warm after set-up; "churn": every job a new plan;
    #: "cycle": deterministic cycle of independent points.
    kind: str
    #: Point description for traces and notes.
    point: dict = field(default_factory=dict)
    cycle: int = 1
    #: Optional one-time preparation outside every timed window.
    prepare: Callable[[np.random.Generator], None] | None = None


def _engine_call(backend: str) -> Callable[[QRJob], Any]:
    def call(job: QRJob):
        return run_many([job], workers=WORKERS, validate=True, backend=backend)[0]

    return call


def _certified(_i: int, result) -> bool:
    return bool(result.diagnostics.ok())


def replay_stream(name: str, alg: str, shape: tuple[int, int], P: int,
                  backend: str) -> Stream:
    def make(_i: int, rng: np.random.Generator) -> QRJob:
        return QRJob(alg, rng.standard_normal(shape), P=P)

    return Stream(
        name, make, _engine_call(backend), _certified, "replay",
        point={"alg": alg, "m": shape[0], "n": shape[1], "P": P,
               "backend": backend, "workers": WORKERS},
    )


def churn_shape(i: int) -> tuple[int, int]:
    """Job ``i`` of the churn stream: a shape no earlier job had."""
    return (CHURN_M0 + 8 * i, 64)


def churn_stream(name: str) -> Stream:
    def make(i: int, rng: np.random.Generator) -> QRJob:
        return QRJob("caqr3d", rng.standard_normal(churn_shape(i)), P=8)

    return Stream(
        name, make, _engine_call("parallel"), _certified, "churn",
        point={"alg": "caqr3d", "m": f"{CHURN_M0}+8i", "n": 64, "P": 8,
               "backend": "parallel", "workers": WORKERS,
               "warmup_jobs": CHURN_WARMUP, "jobs": CHURN_JOBS},
    )


#: The delta sweep's cycle: (m, delta) at n=64, P=16.  At these aspect
#: ratios (nP/m = 4 and 2) delta changes the recursion threshold b, so
#: every point exercises the inductive 3D case.
DELTA_POINTS = tuple((m, d) for m in (256, 512) for d in (1 / 2, 2 / 3, 1.0))
DELTA_N = 64
DELTA_P = 16


def delta_stream(name: str) -> Stream:
    references: dict[int, Any] = {}

    def prepare(rng: np.random.Generator) -> None:
        # The numeric backend's CostReport for each point, computed once
        # outside the timed window on a seeded matrix; it is also the
        # numeric result's own certification.
        for k, (m, d) in enumerate(DELTA_POINTS):
            res = run_qr("caqr3d", rng.standard_normal((m, DELTA_N)), P=DELTA_P,
                         backend="numeric", validate=True, delta=d)
            references[k] = res.report if res.diagnostics.ok() else None

    def make(i: int, _rng: np.random.Generator) -> tuple[int, float]:
        return DELTA_POINTS[i % len(DELTA_POINTS)]

    def call(point: tuple[int, float]):
        m, d = point
        return run_qr("caqr3d", (m, DELTA_N), P=DELTA_P, backend="symbolic", delta=d)

    def check(i: int, result) -> bool:
        ref = references.get(i % len(DELTA_POINTS))
        return ref is not None and result.report == ref

    return Stream(
        name, make, call, check, "cycle",
        point={"alg": "caqr3d", "points": [list(p) for p in DELTA_POINTS],
               "n": DELTA_N, "P": DELTA_P, "backend": "symbolic"},
        cycle=len(DELTA_POINTS), prepare=prepare,
    )


#: The workloads by name; why each was chosen is in BENCHMARK.json and
#: README.md.
STREAMS: dict[str, Stream] = {
    s.name: s
    for s in (
        replay_stream("replay-caqr3d-mp", "caqr3d", (1024, 256), 8, "parallel-mp"),
        replay_stream("replay-tsqr-thread", "tsqr", (32768, 64), 8, "parallel"),
        churn_stream("churn-caqr3d-thread"),
        delta_stream("delta-sweep-symbolic"),
    )
}


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------

def _status_mb(pid: int | str, key: str) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    return 0.0


def peak_rss_mb() -> tuple[float, float]:
    """(this process + live children, live children alone) VmHWM in MB."""
    children = sum(_status_mb(p.pid, "VmHWM") for p in active_children())
    return _status_mb("self", "VmHWM") + children, children


def current_rss_mb() -> float:
    return _status_mb("self", "VmRSS")


def release_plans(timeout: float = 10.0) -> None:
    """Drop every cached plan and wait until their worker pools are gone."""
    clear_plan_cache()
    gc.collect()
    join_pools(timeout)


# ----------------------------------------------------------------------
# The timed run
# ----------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def run(self, stream: Stream, i: int, job) -> tuple[float, Any]:
        """Time one call; check its result outside the timed window."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = stream.call(job)
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        if not stream.check(i, result):
            print(f"{stream.name}: job {i} failed its output check", file=sys.stderr)
            self.failed += 1
            return dt, None
        return dt, result


def measure_setup(stream: Stream, rng: np.random.Generator, tally: Tally) -> list[float]:
    """Median-able cold set-ups: workload start to the first job's return.

    Each repeat starts from an empty plan cache with no worker pool, so
    it pays record, compile, pool fork/ship and the first execute.  The
    last repeat's plan stays cached for a replay stream.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        release_plans()
        job = stream.make(0, rng)
        dt, _ = tally.run(stream, 0, job)
        samples.append(dt)
    return samples


def warm_churn(stream: Stream, rng: np.random.Generator, tally: Tally) -> None:
    """Empty the plan cache, then fill it with the untimed churn jobs."""
    release_plans()
    for i in range(CHURN_WARMUP):
        tally.run(stream, i, stream.make(i, rng))


def timed_run(stream: Stream, seed: int, seconds: float) -> dict:
    """Run one workload with telemetry off; return its end-to-end metrics."""
    rng = np.random.default_rng(seed)
    tally = Tally()
    if stream.prepare is not None:
        stream.prepare(rng)
    setups = measure_setup(stream, rng, tally)
    if stream.kind == "churn":
        warm_churn(stream, rng, tally)

    latencies: list[float] = []
    ok_jobs = 0
    t_start = time.perf_counter()
    i = {"replay": 1, "churn": CHURN_WARMUP}.get(stream.kind, 0)
    while True:
        if stream.kind == "churn":
            if len(latencies) >= CHURN_JOBS:
                break
        elif (
            len(latencies) >= MIN_JOBS
            and len(latencies) % stream.cycle == 0
            and time.perf_counter() - t_start >= seconds
        ):
            break
        job = stream.make(i, rng)
        dt, result = tally.run(stream, i, job)
        latencies.append(dt)
        ok_jobs += result is not None
        i += 1

    peak, _children = peak_rss_mb()
    release_plans()
    lat_ms = np.array(latencies) * 1e3
    metrics = {
        "jobs_per_s": (ok_jobs / float(np.sum(latencies)), "1/s"),
        "job_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "job_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "fraction"),
    }
    detail = {
        "jobs": len(latencies),
        "samples_beyond_p90": int(np.sum(lat_ms > metrics["job_p90_ms"][0])),
        "setup_samples_s": setups,
        "wall_s": time.perf_counter() - t_start,
        "fail_frac": tally.failed / tally.attempted,
        "latencies_ms": lat_ms.tolist(),
    }
    return {"tally": tally, "metrics": metrics, "detail": detail}
