"""The engine proper: run an execution plan on a real thread pool.

:class:`Engine` executes a :class:`~repro.engine.plan.Plan` through its
compiled schedule (:func:`repro.engine.compile.compile_plan`): rank
``r``'s task stream belongs to worker ``r % workers``, each worker walks
its stream in tid order -- a topological order, so the walk is
deadlock-free by construction -- and runs fused chains of same-rank
tasks back to back with pre-resolved arguments.  The schedule is
compiled once per plan and reused by every replay
(:func:`repro.engine.run_many`).  With ``workers > 1`` each live stream
is one ``ThreadPoolExecutor`` job; the local kernels the tasks wrap --
LAPACK factorizations, BLAS multiplies -- release the GIL, so on a
multi-core host the per-rank streams execute genuinely in parallel,
which is the machine model's DAG semantics made physical.
``workers=1`` has a single stream and runs it in the caller's thread.

Edges between tasks on different workers are *rendezvous* edges: the
producer publishes its value through a one-shot blocking
:class:`~repro.collectives.rendezvous.RendezvousGroup` slot and the
consumer takes it from there, with a timeout guard that raises instead
of deadlocking.  Every collective's tree edges, pairwise exchanges, and
routed bundles that cross workers synchronize this way; edges within a
worker are plain reads in program order.

**Failure semantics.**  When any task raises, the engine *aborts* the
attempt: every wired-but-unpublished rendezvous is poisoned with the
original exception, so consumers blocked in a wait release in
milliseconds (raising
:class:`~repro.collectives.rendezvous.RendezvousAborted` with the cause
chained) instead of burning the deadlock-guard timeout, and no worker
thread outlives :meth:`Engine.execute`.  A typed
:class:`~repro.machine.exceptions.RankFailure` (deterministic fault
injection, :mod:`repro.faults`) is re-raised unwrapped; an installed
recovery policy (``FailFast`` / ``RetryTask`` / ``CodedRecovery``, see
:mod:`repro.faults.policy`) may instead repair the plan -- e.g.
reconstruct the dead rank's input from checksums -- and re-execute just
the tasks that are no longer ``done``.

Paper anchor: Section 3 (executing the task DAG with real concurrency).
"""

from __future__ import annotations

import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

# The engine guard shares the rendezvous consumer timeout: one value,
# one diagnostic story.
from repro.collectives.rendezvous import DEFAULT_TIMEOUT, RendezvousGroup
from repro.engine.compile import CompiledPlan, bind_stream, compile_plan
from repro.engine.plan import EngineError, Plan, Task
from repro.machine.exceptions import RankFailure
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["Engine", "EngineDeadlockError", "EngineExecutionError", "default_workers"]


class EngineDeadlockError(EngineError):
    """No task completed within the timeout while work was outstanding."""


class EngineExecutionError(EngineError):
    """A task's thunk raised; the original exception is chained."""


def _clear_poison(plan: Plan) -> None:
    """Strip stale rendezvous from every task before a retry attempt.

    After an aborted attempt the unpublished slots carry the failure as
    poison, and even a *done* producer may hold an aborted slot (its put
    lost the race and was dropped).  Drop them all: consumers read done
    producers directly, and :meth:`Engine._execute_compiled` wires fresh
    slots on the producers that have yet to run.
    """
    for task in plan.tasks:
        task.rendezvous = None


def default_workers() -> int:
    """Default worker count: the available cores, capped at 8."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(8, cores))


class Engine:
    """Executes plans on ``workers`` threads with rendezvous handoffs."""

    def __init__(
        self,
        workers: int | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        telemetry: Any = None,
        fault_plan: Any = None,
        recovery: Any = None,
    ) -> None:
        self.workers = int(workers) if workers is not None else default_workers()
        if self.workers < 1:
            raise EngineError(f"Engine requires workers >= 1, got {self.workers}")
        self.timeout = float(timeout)
        #: Cumulative tasks executed (across execute() calls), for reports.
        self.tasks_run = 0
        #: Telemetry recorder; the disabled default costs one branch per
        #: task.  The owning Machine (or run_many) re-points this at the
        #: currently installed recorder.
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        #: Deterministic fault injection (duck-typed FaultPlan); consulted
        #: once per task-step in :meth:`_run_stream`.
        self.fault_plan = fault_plan
        #: Recovery policy (duck-typed; see repro.faults.policy).  When a
        #: RankFailure escapes an attempt, ``handle(failure, plan, self,
        #: attempt)`` may repair the plan and request a re-execution of
        #: whatever is no longer done.
        self.recovery = recovery
        #: Checksum context installed by repro.faults.coded.run_coded_qr;
        #: CodedRecovery reads it to reconstruct a dead rank's block.
        self.coded_ctx = None
        # Compiled-schedule cache: one compile+bind per plan object,
        # invalidated when the plan grows (incremental materialize).
        self._cplan: CompiledPlan | None = None
        self._cplan_for: Plan | None = None
        self._bound: list[_BoundStream] = []
        # Mutable cells shared with the bound fetch closures (the
        # binding outlives any single execute() call).
        self._ctimeout = [self.timeout]
        self._progress = [0]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: Plan,
        timeout: float | None = None,
        outputs: Any = None,
    ) -> None:
        """Run every pending task in ``plan`` to completion.

        A :class:`~repro.machine.exceptions.RankFailure` escaping an
        attempt is offered to the installed recovery policy; when the
        policy repairs the plan (resetting tasks to not-done), only that
        remainder is re-executed.  Without a policy -- or when the policy
        declines -- the failure is re-raised unwrapped.

        ``outputs`` is an optional hint naming the tids the caller will
        resolve afterwards.  The in-process engine ignores it (every
        task's value already lives in this address space); out-of-process
        engines (:class:`repro.engine.mp.MpEngine`) use it to ship only
        the needed values back.
        """
        del outputs  # every value is local; nothing to ship
        timeout = self.timeout if timeout is None else float(timeout)
        attempt = 0
        while True:
            pending = [t for t in plan.tasks if not t.done]
            if not pending:
                return
            self._compile(plan)
            try:
                self._execute_compiled(pending, timeout)
            except RankFailure as failure:
                # Tasks that finished before the failure stay done; count
                # them now because the success path below won't run.
                self.tasks_run += sum(1 for t in pending if t.done)
                rec = self.telemetry
                if rec.enabled:
                    rec.fault_detected(failure.rank, failure.step)
                policy = self.recovery
                if policy is None:
                    raise
                t0 = rec.now() if rec.enabled else time.perf_counter()
                if not policy.handle(failure, plan, self, attempt):
                    raise
                _clear_poison(plan)
                if rec.enabled:
                    rec.fault_recovered(
                        failure.rank,
                        type(policy).__name__,
                        t0,
                        rec.now() - t0,
                    )
                attempt += 1
                continue
            self.tasks_run += len(pending)
            return

    @staticmethod
    def _abort(pending: list[Task], cause: BaseException) -> None:
        """Unblock every rendezvous consumer after a failure or deadlock.

        Poisons each unpublished slot with ``cause`` so workers blocked
        in a rendezvous wait raise ``RendezvousAborted`` in milliseconds
        (the real cause chained) instead of burning the full timeout;
        their thunks then fail and are ignored -- the first failure is
        the one reported -- and no worker thread outlives ``execute()``.
        """
        for task in pending:
            rv = task.rendezvous
            if rv is not None and not rv.ready:
                rv.abort(cause)

    def _compile(self, plan: Plan) -> None:
        """Compile and bind ``plan``'s schedule, rebuilt when it grows."""
        if self._cplan_for is plan and self._cplan.n_tasks == len(plan.tasks):
            return
        cplan = compile_plan(plan, self.workers)
        self._bound = [
            _BoundStream(self, cplan, widx) for widx in range(cplan.workers)
        ]
        self._cplan = cplan
        self._cplan_for = plan

    def _execute_compiled(self, pending: list[Task], timeout: float) -> None:
        """Run the not-done remainder on the compiled worker streams."""
        self._ctimeout[0] = timeout
        cplan = self._cplan
        # Wire a rendezvous on every cross-worker producer that has yet
        # to run; one already done (incremental materialize, or a retry
        # resuming past it) is read directly by its consumers.
        for pub in cplan.publishers:
            task = pub.task
            if not task.done and task.rendezvous is None:
                task.rendezvous = RendezvousGroup(
                    pub.consumers,
                    label=(
                        f"t{task.tid}:{task.label} "
                        f"rank{task.rank}->ranks{sorted(pub.consumers)}"
                    ),
                    producer=f"t{task.tid}:{task.label} (rank {task.rank})",
                )
        if self.workers == 1:
            # One stream, zero rendezvous: run in the caller's thread
            # (nothing can block, so no guard).
            self._run_stream(self._bound[0], None)
            return
        live = [
            bs for bs in self._bound
            if any(not bt.task.done for step in bs.steps for bt in step.tasks)
        ]
        if not live:
            return
        self._execute_pool(live, pending, timeout)

    def _execute_pool(
        self, live: list["_BoundStream"], pending: list[Task], timeout: float
    ) -> None:
        """One pool job per live stream, with a progress-based guard.

        Streams block *inside* rendezvous fetches rather than parking in
        the scheduler, so the deadlock guard watches a per-task progress
        counter: no task completing for ``timeout`` seconds while work
        is outstanding trips :class:`EngineDeadlockError`.
        """
        progress = self._progress
        done_q: "queue.SimpleQueue[BaseException | None]" = queue.SimpleQueue()

        def run(bs: "_BoundStream") -> None:
            try:
                self._run_stream(bs, progress)
                done_q.put(None)
            except BaseException as exc:  # noqa: BLE001 - reported to the driver
                done_q.put(exc)

        remaining = len(live)
        failure: BaseException | None = None
        deadlock: EngineDeadlockError | None = None
        poll = min(timeout, 0.25)
        with ThreadPoolExecutor(max_workers=min(self.workers, len(live))) as pool:
            for bs in live:
                pool.submit(run, bs)
            last = progress[0]
            stall = 0.0
            while remaining:
                try:
                    exc = done_q.get(timeout=poll)
                except queue.Empty:
                    if progress[0] != last:
                        last = progress[0]
                        stall = 0.0
                        continue
                    stall += poll
                    if stall + 1e-9 >= timeout:
                        outstanding = sum(1 for t in pending if not t.done)
                        deadlock = EngineDeadlockError(
                            f"no task completed within {timeout}s; "
                            f"{outstanding} tasks outstanding (deadlock guard)"
                        )
                        self._abort(pending, deadlock)
                        break
                    continue
                remaining -= 1
                last = progress[0]
                stall = 0.0
                if exc is not None:
                    failure = exc
                    self._abort(pending, exc)
                    break
        # The `with` block joined every worker (poisoned slots release
        # blocked streams in milliseconds).
        if failure is not None:
            injected = failure if isinstance(failure, RankFailure) else (
                failure.__cause__
                if isinstance(failure.__cause__, RankFailure)
                else None
            )
            if injected is not None:
                raise injected
            raise failure
        if deadlock is not None:
            raise deadlock

    def _run_stream(self, bs: "_BoundStream", progress: list[int] | None) -> None:
        """Walk one bound stream in tid order, skipping done tasks.

        Fused steps execute their members back to back and report one
        telemetry span carrying ``fused_n``; a step interrupted by a
        failure resumes at its first not-done member on the next attempt
        (the per-task ``done`` flags are the resume points), so every
        task consults the fault plan exactly once per attempt it runs in.
        """
        fp = self.fault_plan
        waits = bs.waits
        cur: Task | None = None
        try:
            for step in bs.steps:
                rec = self.telemetry
                enabled = rec.enabled
                if enabled:
                    t0 = rec.now()
                    waits[0] = 0.0
                ran = 0
                for bt in step.tasks:
                    task = bt.task
                    if task.done:
                        continue
                    cur = task
                    if fp is not None and task.rank is not None:
                        fp.on_task(task.rank, task.label, telemetry=rec)
                    task.value = bt.fn(*bt.make_args())
                    rv = task.rendezvous
                    if rv is not None:
                        rv.put(task.value)
                    task.done = True
                    ran += 1
                    if progress is not None:
                        progress[0] += 1
                if enabled and ran:
                    dur = rec.now() - t0
                    if len(step.tasks) > 1:
                        rec.task_span(
                            step.label, step.tid, step.rank, t0, dur,
                            waits[0], fused_n=ran,
                        )
                    else:
                        rec.task_span(
                            step.label, step.tid, step.rank, t0, dur, waits[0]
                        )
        except RankFailure:
            raise
        except Exception as exc:
            if cur is not None:
                raise EngineExecutionError(
                    f"task t{cur.tid} ({cur.label!r}, rank={cur.rank}) "
                    f"failed: {exc}"
                ) from exc
            raise EngineExecutionError(str(exc)) from exc  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine(workers={self.workers})"


class _BoundStream:
    """One worker's bound steps plus its rendezvous-wait accumulator.

    The remote fetch closes over the owning engine's mutable timeout
    cell and reads ``engine.telemetry`` at call time, so a binding is
    valid across replays even as ``run_many`` re-points the recorder.
    """

    __slots__ = ("steps", "waits")

    def __init__(self, engine: Engine, cplan: CompiledPlan, widx: int) -> None:
        waits = [0.0]
        ctimeout = engine._ctimeout

        def remote_fetch(dep: Task, consumer: Task) -> Any:
            if dep.done:
                return dep.value
            rv = dep.rendezvous
            if rv is None:
                # The producer finished between the two reads above.
                if dep.done:  # pragma: no cover - narrow race
                    return dep.value
                raise EngineError(
                    f"compiled fetch: producer t{dep.tid} ({dep.label!r}) "
                    "has no rendezvous and is not done"
                )
            rec = engine.telemetry
            if rec.enabled:
                t0 = time.perf_counter()
                value = rv.get(ctimeout[0], consumer=consumer.rank)
                waited = time.perf_counter() - t0
                waits[0] += waited
                rec.rendezvous_wait(dep.label, consumer.rank, waited)
            else:
                value = rv.get(ctimeout[0], consumer=consumer.rank)
            return value

        self.waits = waits
        self.steps = bind_stream(cplan, widx, None, remote_fetch)
