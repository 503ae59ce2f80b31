"""The traced run: split a workload's jobs across the repo's modules.

It runs apart from the timed run and prints the per-layer metrics.
Nothing inside ``src/`` is instrumented for it; every span is recorded
here, around the public calls ``run_many`` itself makes:

* ``lazy.record``  -- ``repro.workloads.sweeps.drive`` on a fresh
  parallel :class:`~repro.Machine` (engine.lazy + machine + collectives);
* ``plan.rebind`` / ``plan.reset`` -- ``Plan.rebind(slicer(A))`` and
  ``Plan.reset()`` (engine.plan);
* ``executor.execute`` / ``mp.execute`` -- ``Engine.execute`` or
  ``MpEngine.execute(outputs=output_tids(...))``;
* ``lazy.resolve`` -- ``repro.engine.resolve`` of the lazy factors;
* ``validate`` -- ``repro.qr.validate.qr_diagnostics``;
* ``batch.job`` -- the decomposed job itself (its self time is glue);
* ``run_many`` -- the public call timed whole, next to each decomposed job;
* ``runtime.gc`` -- a collector pause, from ``gc.callbacks``.

Rendezvous waits and kernel time come from ``repro.telemetry.recording()``
task spans (the kernel floor from a one-worker ``Engine``), call counts
from one ``cProfile`` pass kept out of every timed span.  Spans live in
memory and are written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import statistics
import time
from contextlib import contextmanager
from multiprocessing import active_children
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro import Machine
from repro.engine import Engine, MpEngine, compile_plan, output_tids, resolve
from repro.qr.validate import qr_diagnostics
from repro.telemetry import TelemetryRecorder, recording
from repro.workloads import run_qr
from repro.workloads.sweeps import drive

import streams
from streams import WORKERS, Stream, Tally, current_rss_mb, release_plans

#: Jobs run both untraced and under ``recording()``: the two sides of
#: the tracing-overhead ratio.
BASE_JOBS = 20
#: Untraced warm ``run_many`` jobs on a replay workload (GC, memory).
STREAM_JOBS = 30
#: Decomposed (span-traced) jobs per run.
SAMPLES = 10
#: Plan recordings / compilations timed on a replay workload (they run
#: once per shape, in set-up).
RECORDS = 3
#: Side runs: numeric serial baseline and symbolic cost-only run.
SIDE_RUNS = 5
#: One-worker executions of a plan that give the kernel floor.
KERNEL_RUNS = 3
#: The decomposed layers must account for the traced ``run_many`` job
#: time within this share; a larger gap is printed as a warning.
ACCOUNTING_TOLERANCE = 0.10

PER_LAYER_UNITS = {
    "mp.execute_ms": "ms",
    "mp.minus_thread_ms": "ms",
    "mp.bytes_out": "B",
    "mp.ship_s": "s",
    "mp.worker_rss_mb": "MB",
    "executor.execute_ms": "ms",
    "executor.rendezvous_wait_ms": "ms",
    "plan.rebind_ms": "ms",
    "plan.reset_ms": "ms",
    "plan.tasks": "count",
    "batch.job_ms": "ms",
    "batch.overhead_ms": "ms",
    "batch.rss_growth_mb_per_job": "MB",
    "runtime.gc_ms_per_job": "ms",
    "runtime.gc_collections": "count",
    "lazy.record_ms": "ms",
    "lazy.resolve_ms": "ms",
    "compile.ms": "ms",
    "compile.steps": "count",
    "compile.fused_tasks": "count",
    "compile.rendezvous_edges": "count",
    "compile.elided_edges": "count",
    "validate.ms": "ms",
    "kernel.floor_ms": "ms",
    "kernel.floor_per_worker_ms": "ms",
    "kernel.calls": "count",
    "serial.job_ms": "ms",
    "symbolic.job_ms": "ms",
    "symbolic.calls": "count",
    "collectives.calls": "count",
    "collectives.share": "fraction",
    "machine.flops": "count",
    "machine.words": "count",
    "machine.messages": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_share": "fraction",
}


class Spans:
    """In-memory span log: (name, start, end, parent index, job id)."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._open: list[int] = []

    def open(self, name: str, job: int | None = None) -> None:
        """Start a span inside the innermost open one (same job by default)."""
        parent = self._open[-1] if self._open else None
        if job is None:
            job = self.rows[parent][4] if parent is not None else -1
        # Build the row before touching the stack: allocating it may
        # trigger a collection, whose own span must nest cleanly.
        row = [name, time.perf_counter(), None, parent, job]
        self.rows.append(row)
        self._open.append(len(self.rows) - 1)

    def close(self) -> None:
        self.rows[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str, job: int) -> Iterator[None]:
        self.open(name, job)
        try:
            yield
        finally:
            self.close()

    def self_times(self) -> list[tuple[str, int, float]]:
        """(name, job, self seconds): duration minus its children's."""
        child = [0.0] * len(self.rows)
        for _name, t0, t1, parent, _job in self.rows:
            if parent is not None:
                child[parent] += t1 - t0
        return [(r[0], r[4], (r[2] - r[1]) - child[i]) for i, r in enumerate(self.rows)]

    def median_ms(self, name: str) -> float:
        vals = [s for n, _j, s in self.self_times() if n == name]
        return statistics.median(vals) * 1e3 if vals else 0.0

    def self_by_job(self, names: tuple[str, ...]) -> dict[int, float]:
        """Per job id, the summed self seconds of spans named ``names``."""
        out: dict[int, float] = {}
        for name, job, s in self.self_times():
            if name in names:
                out[job] = out.get(job, 0.0) + s
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, "job": j}
            for n, t0, t1, p, j in self.rows
        ]


class GcWatch:
    """Collector pauses observed through ``gc.callbacks``.

    With ``spans``, each pause is also a ``runtime.gc`` span inside the
    span open when it struck, so layer self times exclude collector
    pauses.  A collection holds the interpreter lock throughout, so a
    pause triggered on an engine thread cannot interleave with spans.
    """

    def __init__(self, spans: Spans | None = None) -> None:
        self.pauses: list[tuple[int, float]] = []
        self._t0 = 0.0
        self._spans = spans

    def _cb(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            if self._spans is not None:
                self._spans.open("runtime.gc")
        else:
            self.pauses.append((info["generation"], time.perf_counter() - self._t0))
            if self._spans is not None:
                self._spans.close()

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._cb)


def worker_private_mb() -> float:
    """Resident memory the live worker processes do not share, in MB.

    Forked workers map the parent's pages, so their VmHWM counts memory
    the parent already holds; private pages are what the pool adds.
    """
    total = 0
    for proc in active_children():
        with open(f"/proc/{proc.pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
    return total / 1024.0


def _nbytes(value: Any) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


def _timed(fn, *args, **kwargs) -> tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _profile_counts(fn) -> dict:
    """symbolic/collectives call counts and collectives' share of time."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    stats = pstats.Stats(prof).stats
    total = sum(tt for (_cc, _nc, tt, _ct, _callers) in stats.values())
    sym_calls = coll_calls = 0
    coll_tt = 0.0
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in stats.items():
        path = filename.replace("\\", "/")
        if path.endswith("repro/backend/symbolic.py"):
            sym_calls += nc
        elif "/repro/collectives/" in path:
            coll_calls += nc
            coll_tt += tt
    return {"symbolic.calls": sym_calls, "collectives.calls": coll_calls,
            "collectives.share": coll_tt / total if total else 0.0}


def _report_counts(reports) -> dict:
    return {
        "machine.flops": sum(r.critical_flops for r in reports),
        "machine.words": sum(r.critical_words for r in reports),
        "machine.messages": sum(r.critical_messages for r in reports),
    }


# ----------------------------------------------------------------------
# Engine workloads (run_many on parallel / parallel-mp)
# ----------------------------------------------------------------------

def _run_many_phase(stream: Stream, rng, tally: Tally, m: dict) -> dict:
    """run_many streams: untraced for GC and memory, traced for waits.

    GC pauses and memory growth come from an untraced stream as long as
    the timed run's (the churn stream's 100 timed jobs after its warm-up),
    because the recorder's own spans add collector work.  The
    tracing-overhead ratio compares ``BASE_JOBS`` jobs under
    ``recording()`` with untraced jobs in the same cache state:
    alternating warm jobs on a replay workload, the churn stream's first
    timed jobs run twice more, each time after a fresh warm-up.
    """
    churn = stream.kind == "churn"
    n_jobs = streams.CHURN_JOBS if churn else STREAM_JOBS
    rec = TelemetryRecorder()

    def job(i: int) -> float:
        return tally.run(stream, i, stream.make(i, rng))[0]

    def traced_job(i: int) -> float:
        with recording(rec):
            return job(i)

    if churn:
        start = streams.CHURN_WARMUP
        streams.warm_churn(stream, rng, tally)
    else:
        start = 1
        release_plans()
        job(0)  # warm the plan cache
    with GcWatch() as gcw:
        rss0 = current_rss_mb()
        stream_s = [job(i) for i in range(start, start + n_jobs)]
        rss1 = current_rss_mb()
    if stream.point["backend"] == "parallel-mp":
        m["mp.worker_rss_mb"] = worker_private_mb()
    if churn:
        streams.warm_churn(stream, rng, tally)
        base = [job(i) for i in range(start, start + BASE_JOBS)]
        streams.warm_churn(stream, rng, tally)
        traced = [traced_job(i) for i in range(start, start + BASE_JOBS)]
    else:
        base, traced = [], []
        for i in range(start, start + BASE_JOBS):
            base.append(job(i))
            traced.append(traced_job(i))
    release_plans()
    m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(base)
    m["batch.rss_growth_mb_per_job"] = (rss1 - rss0) / n_jobs
    m["runtime.gc_ms_per_job"] = sum(d for _g, d in gcw.pauses) * 1e3 / n_jobs
    m["runtime.gc_collections"] = sum(1 for g, _d in gcw.pauses if g == 2)
    wait_s = sum(s.wait_s for s in rec.spans if s.cat == "task")
    m["executor.rendezvous_wait_ms"] = wait_s * 1e3 / BASE_JOBS
    return {"stream_s": stream_s, "base_s": base, "traced_s": traced,
            "gc_pauses": len(gcw.pauses), "gc_s": sum(d for _g, d in gcw.pauses)}


def _compile_stats(plan, mp: bool, m: dict) -> float:
    """Time one compile of ``plan``; record its schedule statistics."""
    dt, cplan = _timed(compile_plan, plan, WORKERS, replicate_rankless=mp)
    for key in ("steps", "fused_tasks", "rendezvous_edges", "elided_edges"):
        m[f"compile.{key}"] = cplan.stats[key]
    return dt


def _paired_run_many(stream: Stream, i: int, rng, tally: Tally, spans: Spans, j: int) -> None:
    """Job ``i`` of the stream through run_many, next to its decomposed twin."""
    job = stream.make(i, rng)
    with spans.span("run_many", j):
        tally.run(stream, i, job)


def _replay_layers(stream: Stream, rng, tally: Tally, spans: Spans, m: dict) -> None:
    """Record/compile timings, then decomposed warm jobs on both engines.

    Each decomposed job runs right after a ``run_many`` job on a matrix
    of the same shape, so both sides of ``batch.overhead_ms`` see the
    same machine state.
    """
    p = stream.point
    alg, shape, P, backend = p["alg"], (p["m"], p["n"]), p["P"], p["backend"]
    mp = backend == "parallel-mp"
    records, compiles = [], []
    for _ in range(RECORDS):
        A0 = rng.standard_normal(shape)
        t0 = time.perf_counter()
        machine = Machine(P, backend=backend, workers=WORKERS)
        factors, _diag, slicer = drive(alg, machine, A0, {}, validate=True)
        records.append(time.perf_counter() - t0)
        compiles.append(_compile_stats(machine.plan, mp, m))
    plan = machine.plan
    m["lazy.record_ms"] = statistics.median(records) * 1e3
    m["compile.ms"] = statistics.median(compiles) * 1e3
    m["plan.tasks"] = len(plan.tasks)
    m.update(_report_counts([machine.report()]))
    outs = output_tids(factors)
    engine = machine.engine
    cold_s, _ = _timed(engine.execute, plan, outputs=outs)
    _certify(tally, A0, resolve(factors))

    # Every job also runs on the other engine kind, on the same plan:
    # the thread engine beside an mp workload, an mp pool beside a
    # thread one (its first execute forks and ships the pool).
    exec_name = "mp.execute" if mp else "executor.execute"
    side = Engine(workers=WORKERS) if mp else MpEngine(workers=WORKERS)
    side_s: list[float] = []
    try:
        plan.reset()
        side_cold_s, _ = _timed(side.execute, plan, outputs=outs)
        _certify(tally, A0, resolve(factors))
        tally.run(stream, 0, stream.make(0, rng))  # warm run_many's cache
        with GcWatch(spans):
            for j in range(SAMPLES):
                _paired_run_many(stream, j + 1, rng, tally, spans, j)
                A = rng.standard_normal(shape)
                with spans.span("batch.job", j):
                    with spans.span("plan.rebind", j):
                        plan.rebind(slicer(A))
                    with spans.span("plan.reset", j):
                        plan.reset()
                    with spans.span(exec_name, j):
                        engine.execute(plan, outputs=outs)
                    with spans.span("lazy.resolve", j):
                        F = resolve(factors)
                    with spans.span("validate", j):
                        diag = qr_diagnostics(A, *F)
                tally.attempted += 1
                tally.failed += not diag.ok()
                plan.reset()
                side_s.append(_timed(side.execute, plan, outputs=outs)[0])
                _certify(tally, A, resolve(factors))
        own_ms = spans.median_ms(exec_name)
        side_ms = statistics.median(side_s) * 1e3
        mp_ms, thread_ms = (own_ms, side_ms) if mp else (side_ms, own_ms)
        m["mp.execute_ms"] = mp_ms
        m["executor.execute_ms"] = thread_ms
        m["mp.minus_thread_ms"] = mp_ms - thread_ms
        m["mp.ship_s"] = (cold_s if mp else side_cold_s) - mp_ms / 1e3
        if not mp:
            m["mp.worker_rss_mb"] = worker_private_mb()
        m["mp.bytes_out"] = _mp_bytes(plan, outs)
        with recording() as rec:
            for _ in range(KERNEL_RUNS):
                _kernel_floor(plan, rec)
        _floor_metrics(rec, KERNEL_RUNS, m)
    finally:
        for eng in (engine, side):
            if isinstance(eng, MpEngine):
                eng.close()
        release_plans()
    m["plan.rebind_ms"] = spans.median_ms("plan.rebind")
    m["plan.reset_ms"] = spans.median_ms("plan.reset")
    _finish_layers(spans, ("plan.rebind", "plan.reset", exec_name, "lazy.resolve", "validate"), m)
    _side_runs(stream, rng, tally, m, [shape])
    m.update(_profile_counts(lambda: drive(alg, Machine(P, backend=backend, workers=WORKERS),
                                           rng.standard_normal(shape), {}, validate=True)))


def _churn_layers(stream: Stream, rng, tally: Tally, spans: Spans, m: dict) -> None:
    """Decomposed cold jobs spread over the churn stream's shape range."""
    P = stream.point["P"]
    step = streams.CHURN_JOBS // SAMPLES
    indices = range(0, streams.CHURN_JOBS, step)
    compiles: list[float] = []
    side: list[tuple] = []
    floor_rec = TelemetryRecorder()
    try:
        with GcWatch(spans):
            for j, i in enumerate(indices):
                shape = streams.churn_shape(i)
                _paired_run_many(stream, i, rng, tally, spans, j)
                A = rng.standard_normal(shape)
                with spans.span("batch.job", j):
                    with spans.span("lazy.record", j):
                        machine = Machine(P, backend="parallel", workers=WORKERS)
                        factors, _diag, slicer = drive("caqr3d", machine, A, {}, validate=True)
                    with spans.span("executor.execute", j):
                        machine.engine.execute(machine.plan, outputs=output_tids(factors))
                    with spans.span("lazy.resolve", j):
                        F = resolve(factors)
                    with spans.span("validate", j):
                        diag = qr_diagnostics(A, *F)
                tally.attempted += 1
                tally.failed += not diag.ok()
                # The cold execute compiled the plan internally; time the
                # same compile on its own so it can be reported apart.
                if j == 0:
                    compiles.append(_compile_stats(machine.plan, False, m))
                    m["plan.tasks"] = len(machine.plan.tasks)
                    m.update(_report_counts([machine.report()]))
                else:
                    compiles.append(_timed(compile_plan, machine.plan, WORKERS)[0])
                _kernel_floor(machine.plan, floor_rec)
                side.append(_cold_side(machine.plan, slicer, factors, A, tally))
    finally:
        release_plans()
    _floor_metrics(floor_rec, len(indices), m)
    for key, k in (("plan.rebind_ms", 0), ("plan.reset_ms", 1), ("mp.execute_ms", 3)):
        m[key] = statistics.median(x[k] for x in side) * 1e3
    m["mp.ship_s"] = statistics.median(x[2] - x[3] for x in side)
    m["mp.bytes_out"] = side[0][4]
    m["mp.worker_rss_mb"] = statistics.median(x[5] for x in side)
    m["compile.ms"] = statistics.median(compiles) * 1e3
    m["lazy.record_ms"] = spans.median_ms("lazy.record")
    _finish_layers(spans, ("lazy.record", "executor.execute", "lazy.resolve", "validate"), m)
    m["executor.execute_ms"] = spans.median_ms("executor.execute") - m["compile.ms"]
    m["mp.minus_thread_ms"] = m["mp.execute_ms"] - m["executor.execute_ms"]
    shapes = [streams.churn_shape(i) for i in indices]
    _side_runs(stream, rng, tally, m, shapes[:SIDE_RUNS])
    m.update(_profile_counts(lambda: drive("caqr3d", Machine(P, backend="parallel", workers=WORKERS),
                                           rng.standard_normal(shapes[0]), {}, validate=True)))


def _cold_side(plan, slicer, factors, A, tally: Tally) -> tuple:
    """What replaying a churn plan would cost, outside the job's spans.

    Returns (rebind s, reset s, cold mp execute s, warm mp execute s,
    computed mp bytes out, mp worker VmHWM MB) for a fresh two-worker
    ``MpEngine`` on ``plan``, rebound to ``A``.
    """
    rebind_s, _ = _timed(plan.rebind, slicer(A))
    reset_s, _ = _timed(plan.reset)
    outs = output_tids(factors)
    side = MpEngine(workers=WORKERS)
    try:
        cold_s, _ = _timed(side.execute, plan, outputs=outs)
        plan.reset()
        warm_s, _ = _timed(side.execute, plan, outputs=outs)
        _certify(tally, A, resolve(factors))
        rss = worker_private_mb()
    finally:
        side.close()
    return (rebind_s, reset_s, cold_s, warm_s, _mp_bytes(plan, outs), rss)


def _mp_bytes(plan, outs) -> int:
    """Computed, not measured: bytes an mp pool moves per execute.

    Every cross-worker value once per destination worker, plus the
    outputs shipped back to the parent; ``plan`` must hold its values.
    """
    mp_plan = compile_plan(plan, WORKERS, replicate_rankless=True)
    sent = sum(_nbytes(plan.tasks[t].value) * len(d) for t, d in mp_plan.sends.items())
    return sent + sum(_nbytes(plan.tasks[t].value) for t in outs)


def _certify(tally: Tally, A, factors) -> None:
    tally.attempted += 1
    tally.failed += not qr_diagnostics(A, *factors).ok()


def _finish_layers(spans: Spans, layers: tuple[str, ...], m: dict) -> None:
    """Shared layer medians and the accounting against run_many.

    Per pair, run_many's self time (its collector pauses are their own
    layer) minus the decomposed layers' self times is what run_many adds
    on top of the calls it makes; ``batch.overhead_ms`` is its median.
    """
    m["lazy.resolve_ms"] = spans.median_ms("lazy.resolve")
    m["validate.ms"] = spans.median_ms("validate")
    m["batch.job_ms"] = statistics.median(
        (r[2] - r[1]) * 1e3 for r in spans.rows if r[0] == "run_many")
    whole = spans.self_by_job(("run_many",))
    parts = spans.self_by_job(layers)
    m["batch.overhead_ms"] = statistics.median(
        (whole[j] - parts.get(j, 0.0)) * 1e3 for j in whole)
    m["trace.unaccounted_share"] = abs(m["batch.overhead_ms"]) / m["batch.job_ms"]


def _side_runs(stream: Stream, rng, tally: Tally, m: dict, shapes: list) -> None:
    """Serial numeric baseline and the symbolic cost-only run."""
    p = stream.point
    serial, symbolic = [], []
    for k in range(SIDE_RUNS):
        shape = shapes[k % len(shapes)]
        dt, res = _timed(run_qr, p["alg"], rng.standard_normal(shape), P=p["P"],
                         backend="numeric", validate=True)
        serial.append(dt)
        tally.attempted += 1
        tally.failed += not res.diagnostics.ok()
        symbolic.append(_timed(run_qr, p["alg"], shape, P=p["P"], backend="symbolic")[0])
    m["serial.job_ms"] = statistics.median(serial) * 1e3
    m["symbolic.job_ms"] = statistics.median(symbolic) * 1e3


def _kernel_floor(plan, rec) -> None:
    """Execute ``plan`` once on one worker, traced into ``rec``.

    One worker runs every task inline with no rendezvous and no lock
    contention, so the task spans' total is the job's kernel work.
    """
    plan.reset()
    Engine(workers=1, telemetry=rec).execute(plan)


def _floor_metrics(rec, runs: int, m: dict) -> None:
    tasks = [s for s in rec.spans if s.cat == "task"]
    m["kernel.floor_ms"] = sum(s.dur for s in tasks) * 1e3 / runs
    m["kernel.floor_per_worker_ms"] = m["kernel.floor_ms"] / WORKERS
    m["kernel.calls"] = sum(s.meta.get("fused_n", 1) for s in tasks) / runs


# ----------------------------------------------------------------------
# The symbolic cycle
# ----------------------------------------------------------------------

def _cycle_layers(stream: Stream, rng, tally: Tally, spans: Spans, m: dict) -> dict:
    """Untraced and span-traced symbolic jobs, alternating, point by point."""
    stream.prepare(rng)
    for i in range(stream.cycle):  # first calls fill the simulator's caches
        stream.call(stream.make(i, rng))
    n = stream.cycle * 4
    base, traced, reports = [], [], []
    with GcWatch() as gcw:
        rss0 = current_rss_mb()
        for i in range(n):
            base.append(tally.run(stream, i, stream.make(i, rng))[0])
            with spans.span("symbolic.job", i):
                dt, res = tally.run(stream, i, stream.make(i, rng))
            traced.append(dt)
            if res is not None and i < stream.cycle:
                reports.append(res.report)
        rss1 = current_rss_mb()
    m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(base)
    m["symbolic.job_ms"] = spans.median_ms("symbolic.job")
    m["runtime.gc_ms_per_job"] = sum(d for _g, d in gcw.pauses) * 1e3 / (2 * n)
    m["runtime.gc_collections"] = sum(1 for g, _d in gcw.pauses if g == 2)
    m["batch.rss_growth_mb_per_job"] = (rss1 - rss0) / (2 * n)
    m.update(_report_counts(reports))

    def one_cycle() -> None:
        for i in range(stream.cycle):
            stream.call(stream.make(i, rng))

    counts = _profile_counts(one_cycle)
    m["symbolic.calls"] = counts["symbolic.calls"] / stream.cycle
    m["collectives.calls"] = counts["collectives.calls"] / stream.cycle
    m["collectives.share"] = counts["collectives.share"]
    return {"base_s": base, "traced_s": traced}


# ----------------------------------------------------------------------

def traced_run(stream: Stream, seed: int, out: Path, fingerprint: dict) -> dict:
    """Per-layer metrics for one workload (``--trace 1``).

    Layers a workload does not exercise report 0 (see README.md's layer
    map).  The traced run does a fixed amount of work, whatever
    ``--seconds`` says, so its samples are comparable across commits.
    """
    rng = np.random.default_rng(seed)
    tally = Tally()
    spans = Spans()
    m: dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    if stream.kind == "cycle":
        detail = _cycle_layers(stream, rng, tally, spans, m)
    else:
        detail = _run_many_phase(stream, rng, tally, m)
        if stream.kind == "churn":
            _churn_layers(stream, rng, tally, spans, m)
        else:
            _replay_layers(stream, rng, tally, spans, m)
    release_plans()

    self_ms: dict[str, float] = {}
    for name, _job, s in spans.self_times():
        self_ms[name] = self_ms.get(name, 0.0) + s * 1e3
    n_jobs = len({j for _n, j, _s in spans.self_times() if j >= 0}) or 1
    detail.update({
        "accounting_tolerance": ACCOUNTING_TOLERANCE,
        "layer_self_ms_per_job": {k: v / n_jobs for k, v in self_ms.items()},
    })
    if m["trace.unaccounted_share"] > ACCOUNTING_TOLERANCE:
        print(f"warning: decomposed layers miss {m['trace.unaccounted_share']:.1%} "
              f"of run_many's traced job time (tolerance {ACCOUNTING_TOLERANCE:.0%})")
    out.mkdir(parents=True, exist_ok=True)
    (out / f"spans-{stream.name}-seed{seed}.json").write_text(json.dumps({
        "workload": stream.name, "seed": seed, "host": fingerprint,
        "spans": spans.dump(), "detail": detail,
    }) + "\n")
    metrics = {name: (float(m[name]), unit) for name, unit in PER_LAYER_UNITS.items()}
    return {"tally": tally, "metrics": metrics, "detail": detail}
