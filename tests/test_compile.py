"""Unit tests for the plan compiler (repro.engine.compile).

Covers the three compiler transformations in isolation -- fusion
segmentation, worker-affinity ownership with same-worker edge elision,
and argument pre-resolution -- plus the engine-level contracts: compiled
execution produces the plan's closed-form values on any worker count,
the compiled schedule cache invalidates when a plan grows, and fused
steps surface as single telemetry spans with ``fused_n``.
"""

import numpy as np
import pytest

from repro.engine import Engine, Plan, Ref, compile_plan
from repro.engine.compile import REPLICATED, bind_stream

GUARD = 60.0


def _chain_plan(k=4, rank=0):
    """rank-0 chain t0 -> t1 -> ... each sole-consumed by the next."""
    plan = Plan()
    t = plan.add(lambda: 1.0, rank=rank, label="seed")
    for i in range(k - 1):
        t = plan.add(lambda v: v + 1.0, (Ref(t),), rank=rank, label=f"inc{i}")
    return plan, t


class TestFusion:
    def test_sole_consumer_chain_fuses_to_one_step(self):
        plan, _ = _chain_plan(k=5)
        cp = compile_plan(plan, workers=1)
        assert cp.stats["tasks"] == 5
        assert cp.stats["steps"] == 1
        assert cp.stats["fused_chains"] == 1
        assert cp.stats["fused_tasks"] == 5
        step = cp.streams[0][0]
        assert step.fused and len(step.tasks) == 5
        assert step.label.startswith("fused:")
        assert step.tid == plan.tasks[0].tid

    def test_fanout_breaks_the_chain(self):
        plan = Plan()
        a = plan.add(lambda: 1.0, rank=0, label="a")
        b = plan.add(lambda v: v + 1, (Ref(a),), rank=0, label="b")
        # Second consumer of `a`: a..b must NOT fuse (a's value is read
        # again later), but b..c still can.
        c = plan.add(lambda v, w: v + w, (Ref(b), Ref(a)), rank=0, label="c")
        del c
        cp = compile_plan(plan, workers=1)
        assert cp.stats["steps"] == 2
        assert [len(s.tasks) for s in cp.streams[0]] == [1, 2]

    def test_cross_rank_consumer_breaks_the_chain(self):
        plan = Plan()
        a = plan.add(lambda: 1.0, rank=0, label="a")
        plan.add(lambda v: v + 1, (Ref(a),), rank=1, label="b")
        cp = compile_plan(plan, workers=1)
        # Different ranks never fuse, even on one worker.
        assert cp.stats["fused_chains"] == 0
        assert cp.stats["steps"] == 2

    def test_rankless_tasks_never_fuse(self):
        plan = Plan()
        a = plan.add_constant(lambda: np.zeros(2), label="zeros")
        plan.add(lambda v: v + 1, (Ref(a),), rank=0, label="use")
        cp = compile_plan(plan, workers=1)
        assert cp.stats["fused_chains"] == 0


class TestAffinity:
    def _fan_plan(self):
        plan = Plan()
        src = plan.add(lambda: 7.0, rank=0, label="src")
        plan.add(lambda v: v + 1, (Ref(src),), rank=1, label="east")
        plan.add(lambda v: v + 2, (Ref(src),), rank=2, label="south")
        return plan, src

    def test_single_worker_elides_every_cross_rank_edge(self):
        plan, _ = self._fan_plan()
        cp = compile_plan(plan, workers=1)
        assert cp.stats["cross_rank_edges"] == 2
        assert cp.stats["elided_edges"] == 2
        assert cp.stats["rendezvous_edges"] == 0
        assert cp.publishers == []

    def test_multi_worker_publishes_to_consumer_ranks(self):
        plan, src = self._fan_plan()
        cp = compile_plan(plan, workers=3)
        assert cp.stats["rendezvous_edges"] == 1
        assert cp.stats["elided_edges"] == 0
        (pub,) = cp.publishers
        assert pub.task is src
        assert pub.consumers == frozenset({1, 2})
        assert pub.dest_workers == frozenset({1, 2})

    def test_same_worker_cross_rank_edge_is_elided(self):
        plan = Plan()
        a = plan.add(lambda: 1.0, rank=0, label="a")
        plan.add(lambda v: v + 1, (Ref(a),), rank=2, label="b")  # 2 % 2 == 0
        plan.add(lambda v: v + 2, (Ref(a),), rank=1, label="c")
        cp = compile_plan(plan, workers=2)
        assert cp.stats["cross_rank_edges"] == 2
        assert cp.stats["elided_edges"] == 1  # rank0 -> rank2, both worker 0
        (pub,) = cp.publishers
        assert pub.consumers == frozenset({1})

    def test_rankless_consumer_declared_as_sentinel(self):
        plan = Plan()
        a = plan.add(lambda: 1.0, rank=1, label="a")
        join = plan.add(lambda v: v + 1, (Ref(a),), label="join")  # rankless
        cp = compile_plan(plan, workers=2)
        # A terminal rankless task lands on worker 0; the rank-1
        # producer publishes to it under the -1 (rankless) sentinel.
        assert cp.owner[join.tid] == 0
        (pub,) = cp.publishers
        assert pub.task is a
        assert pub.consumers == frozenset({-1})
        Engine(workers=2).execute(plan, timeout=GUARD)
        assert join.value == 2.0

    def test_rankless_task_inherits_consumer_worker(self):
        plan = Plan()
        c = plan.add(lambda: 1.0, label="seed")  # rankless, consumed
        t = plan.add(lambda v: v + 1, (Ref(c),), rank=1, label="use")
        cp = compile_plan(plan, workers=2)
        # Non-terminal rankless tasks co-locate with their first
        # consumer, so the edge is local and nothing publishes.
        assert cp.owner[c.tid] == cp.owner[t.tid] == 1
        assert cp.publishers == []

    def test_mp_mode_replicates_rankless_tasks(self):
        plan = Plan()
        c = plan.add_constant(lambda: 3.0, label="const")
        plan.add(lambda v: v + 1, (Ref(c),), rank=0, label="r0")
        plan.add(lambda v: v + 2, (Ref(c),), rank=1, label="r1")
        cp = compile_plan(plan, workers=2, replicate_rankless=True)
        assert cp.owner[c.tid] == REPLICATED
        # Replicated values are everywhere-local: nothing is sent.
        assert cp.sends == {}
        assert all(any(bt is c for s in lane for bt in s.tasks)
                   for lane in cp.streams)

    def test_streams_preserve_tid_order(self):
        plan = Plan()
        tasks = [plan.add(lambda r=r: r, rank=r % 3, label=f"t{r}")
                 for r in range(12)]
        del tasks
        cp = compile_plan(plan, workers=2)
        for lane in cp.streams:
            tids = [t.tid for s in lane for t in s.tasks]
            assert tids == sorted(tids)


class TestArgPreResolution:
    def test_constant_only_args_reuse_the_original_tuple(self):
        plan = Plan()
        t = plan.add(lambda a, b: a + b, (2.0, 3.0), rank=0, label="add")
        cp = compile_plan(plan, workers=1)
        (bound,) = bind_stream(cp, 0, None, None)
        (bt,) = bound.tasks
        assert bt.make_args() is t.args

    def test_nested_containers_and_index_refs_resolve(self):
        plan = Plan()
        pair = plan.add(lambda: (10.0, 20.0), rank=0, label="pair")
        t = plan.add(
            lambda xs, d: xs[0] + xs[1] + d["k"],
            ([Ref(pair, 0), Ref(pair, 1)], {"k": 5.0}),
            rank=0, label="mix",
        )
        Engine(workers=1).execute(plan, timeout=GUARD)
        assert t.value == 35.0

    def test_makers_read_values_at_call_time(self):
        # Replay safety: rebind + reset must flow into bound closures.
        plan = Plan()
        leaf = plan.add_input(np.array([1.0, 2.0]))
        t = plan.add(lambda v: float(np.sum(v)), (Ref(leaf),), rank=0, label="sum")
        eng = Engine(workers=1)
        eng.execute(plan, timeout=GUARD)
        assert t.value == 3.0
        plan.rebind([np.array([5.0, 7.0])])
        plan.reset()
        eng.execute(plan, timeout=GUARD)
        assert t.value == 12.0


class TestCompiledEngine:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_compiled_matches_uncompiled_values(self, workers):
        # Closed form: seed_r = r, dbl_r = 2r, mix_r = dbl_r + seed_0 = 2r,
        # with mix_r on another rank (a cross-worker edge when workers > 1).
        plan = Plan()
        outs = []
        for r in range(5):
            a = plan.add(lambda r=r: float(r), rank=r, label=f"seed{r}")
            b = plan.add(lambda v: v * 2, (Ref(a),), rank=r, label=f"dbl{r}")
            outs.append(plan.add(
                lambda v, w: v + w, (Ref(b), Ref(plan.tasks[0])),
                rank=(r + 1) % 5, label=f"mix{r}",
            ))
        eng = Engine(workers=workers)
        eng.execute(plan, timeout=GUARD)
        assert [t.value for t in outs] == [2.0 * r for r in range(5)]
        assert eng.tasks_run == 15

    def test_compiled_schedule_rebuilds_when_plan_grows(self):
        plan, tail = _chain_plan(k=3)
        eng = Engine(workers=2)
        eng.execute(plan, timeout=GUARD)
        first = eng._cplan
        assert first is not None and first.n_tasks == 3
        late = plan.add(lambda v: v + 10, (Ref(tail),), rank=1, label="late")
        eng.execute(plan, timeout=GUARD)
        assert eng._cplan is not first
        assert late.value == tail.value + 10

    def test_fused_step_emits_one_span_with_fused_n(self):
        from repro.telemetry import TelemetryRecorder, recording

        plan, _ = _chain_plan(k=4)
        with recording(TelemetryRecorder()) as rec:
            eng = Engine(workers=1, telemetry=rec)
            eng.execute(plan, timeout=GUARD)
        spans = [s for s in rec.spans if s.cat == "task"]
        assert len(spans) == 1
        (span,) = spans
        assert span.name.startswith("fused:")
        assert span.meta.get("fused_n") == 4
        assert int(rec.metrics.counter("engine.tasks")) == 1

    def test_unfused_steps_carry_no_fused_n(self):
        from repro.telemetry import TelemetryRecorder, recording

        plan = Plan()
        a = plan.add(lambda: 1.0, rank=0, label="a")
        plan.add(lambda v: v + 1, (Ref(a),), rank=1, label="b")
        with recording(TelemetryRecorder()) as rec:
            Engine(workers=2, telemetry=rec).execute(plan, timeout=GUARD)
        spans = [s for s in rec.spans if s.cat == "task"]
        assert len(spans) == 2
        assert all("fused_n" not in s.meta for s in spans)

    def test_more_ranks_than_workers_completes(self):
        # Interleaved multi-rank streams on few workers: the tid-order
        # walk must stay deadlock-free.
        plan = Plan()
        prev = {r: plan.add(lambda r=r: float(r), rank=r, label=f"s{r}")
                for r in range(7)}
        for step in range(3):
            prev = {
                r: plan.add(
                    lambda v, w: v + w,
                    (Ref(prev[r]), Ref(prev[(r + 1) % 7])),
                    rank=r, label=f"mix{step}.{r}",
                )
                for r in range(7)
            }
        Engine(workers=2).execute(plan, timeout=GUARD)
        assert all(t.done for t in plan.tasks)

