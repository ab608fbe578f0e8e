"""Scheduler semantics: exactly-once, ordering, backpressure, batching."""

import dataclasses
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defgen
from test_codegen import FUZZ_TASKS, FUZZ_WIDTHS

from coroweave import (
    SchedulerConfig,
    TaskError,
    emit_dynamic,
    emit_hybrid,
    emit_routine,
    emit_static,
    interleave_map,
    load_unit,
    run_hybrid,
    run_push_pull,
    run_simplest,
    run_static_batch,
)
from coroweave.dsl import (
    Decl,
    DeclKind,
    Store,
    assign,
    coroutine,
    opaque,
    return_,
    validate,
    while_,
    yield_,
)
from coroweave.bench import _push_pull_map
from coroweave.runtime import BatchUnit, prefetch_hook
from coroweave.schedulers import DEFAULT_WIDTH


class Task:
    """Synthetic coroutine finishing after a fixed number of suspensions."""

    def __init__(self, tid, yields, log=None):
        self.tid = tid
        self.yields = yields
        self.remaining = yields
        self.log = log
        self.finished = False

    def step(self):
        if self.finished:
            return True
        if self.remaining > 0:
            self.remaining -= 1
            return False
        self.finished = True
        if self.log is not None:
            self.log.append(self.tid)
        return True

    def done(self):
        return self.finished

    def reset(self):
        self.remaining = self.yields
        self.finished = False

    def result(self):
        return self.tid * 10


def count_suspensions(inst):
    n = 0
    while not inst.step():
        n += 1
    return n


def traced_stage_def():
    """Two lockstep stages that log (stage, task) into a shared list."""
    return (
        coroutine("probe")
        .result("int", "out")
        .shared_arg("list", "trace")
        .arg("int", "tid")
        .body(
            opaque("trace.append((0, tid))"),
            yield_("static"),
            opaque("trace.append((1, tid))"),
            yield_("static"),
            return_("tid * 10"),
        )
    )


def looped_tail_def():
    """Static prefix, then a tid-dependent number of extra suspensions."""
    return (
        coroutine("straggler")
        .result("int", "out")
        .arg("int", "tid")
        .variable("int", "t", "0")
        .variable("int", "c", "0")
        .body(
            assign("t", "tid * 7"),
            yield_("static"),
            assign("c", "tid % 5"),
            yield_("static"),
            while_("(c := c - 1) >= 0").do_(
                assign("t", "t + 1"),
                yield_(),
            ),
            return_("t"),
        )
    )


class TestConfig:
    def test_defaults(self):
        cfg = SchedulerConfig()
        assert cfg.width == DEFAULT_WIDTH == 48

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="width must be >= 1"):
            SchedulerConfig(width=0)


class TestRunSimplest:
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_exactly_once(self, width):
        for count in (0, 1, width - 1, width, width + 1, 10 * width):
            if count < 0:
                continue
            built: list[int] = []
            completed: list[int] = []

            def refill(slot, task_index):
                built.append(task_index)
                return Task(task_index, task_index % 3)

            def on_complete(slot, inst):
                completed.append(inst.tid)

            done = run_simplest(
                SchedulerConfig(width=width),
                count,
                refill,
                on_complete,
            )
            assert done == count
            assert sorted(built) == list(range(count))
            assert sorted(completed) == list(range(count))

    def test_zero_tasks_never_build(self):
        calls = []
        assert run_simplest(SchedulerConfig(width=4), 0, lambda s, t: calls.append(t)) == 0
        assert calls == []

    def test_sweep_drain_finishes_out_of_order(self):
        finish_log: list[int] = []
        steps = {0: 5, 1: 0, 2: 2}
        run_simplest(
            SchedulerConfig(width=3),
            3,
            lambda slot, t: Task(t, steps[t], finish_log),
        )
        assert finish_log == [1, 2, 0]

    def test_slots_refill_immediately(self):
        # slot of a finished task is reused before the sweep moves on
        seen_slots: dict[int, int] = {}

        def refill(slot, task_index):
            seen_slots[task_index] = slot
            return Task(task_index, 0)

        run_simplest(SchedulerConfig(width=2), 6, refill)
        assert seen_slots == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1}


class TestRunPushPull:
    def test_accepts_everything(self):
        pending = list(range(7))
        got = []

        def push(slot):
            return Task(pending.pop(0), 2) if pending else None

        def pull(slot, inst):
            got.append(inst.result())
            return True

        n = run_push_pull(SchedulerConfig(width=3), push, pull)
        assert n == 7
        assert sorted(got) == [t * 10 for t in range(7)]

    def test_rejected_tasks_are_recomputed(self):
        pending = list(range(6))
        offers: dict[int, int] = {}

        def push(slot):
            return Task(pending.pop(0), 1) if pending else None

        def pull(slot, inst):
            offers[inst.tid] = offers.get(inst.tid, 0) + 1
            if inst.tid % 2 == 0 and offers[inst.tid] == 1:
                return False  # not ready for this one yet
            assert inst.result() == inst.tid * 10
            return True

        n = run_push_pull(SchedulerConfig(width=2), push, pull)
        assert n == 6
        assert {t: c for t, c in offers.items() if c > 1} == {0: 2, 2: 2, 4: 2}

    def test_empty_producer(self):
        assert run_push_pull(SchedulerConfig(width=4), lambda s: None, lambda s, i: True) == 0

    def test_fill_stops_when_the_producer_runs_dry(self):
        calls = []
        pending = [Task(0, 1), Task(1, 0)]

        def push(slot):
            calls.append(slot)
            return pending.pop(0) if pending else None

        assert run_push_pull(SchedulerConfig(width=5), push, lambda s, i: True) == 2
        assert calls == [0, 1, 2]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 20), st.integers(0, 2**32 - 1))
    def test_push_is_not_called_after_it_returned_none(self, width, tasks, seed):
        rng = random.Random(seed)
        pending = list(range(tasks))
        rejects = {t for t in pending if rng.random() < 0.3}
        pushes = []

        def push(slot):
            pushes.append(slot)
            return Task(pending.pop(0), rng.randrange(4)) if pending else None

        def pull(slot, inst):
            if inst.tid in rejects:
                rejects.discard(inst.tid)
                return False
            return True

        assert run_push_pull(SchedulerConfig(width=width), push, pull) == tasks
        assert len(pushes) == tasks + 1

    def test_reject_recomputes_from_pristine_args(self):
        # generated units must survive the reset/retry path even though
        # their body consumed the arg values (walrus countdown)
        d = looped_tail_def()
        routine = load_unit(emit_routine(d))
        make = load_unit(emit_dynamic(d))()
        rejected = set()
        got: dict[int, int] = {}

        class Tagged:
            """Generated classes use __slots__; identity rides outside."""

            def __init__(self, tid):
                self.tid = tid
                self.inst = make(tid)

            def step(self):
                return self.inst.step()

            def done(self):
                return self.inst.done()

            def reset(self):
                self.inst.reset()

            def result(self):
                return self.inst.result()

        queue = list(range(9))

        def push(slot):
            return Tagged(queue.pop(0)) if queue else None

        def pull(slot, task):
            if task.tid % 3 == 0 and task.tid not in rejected:
                rejected.add(task.tid)
                return False
            got[task.tid] = task.result()
            return True

        n = run_push_pull(SchedulerConfig(width=4), push, pull)
        assert n == 9
        assert got == {tid: routine(tid) for tid in range(9)}
        assert rejected == {0, 3, 6}

    def test_overridden_step_sees_every_resume(self):
        # a subclass that overrides step() is stepped through it, not
        # through the lane generator underneath
        d = looped_tail_def()
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_dynamic(d))()
        calls = Counter()

        class Counted(cls):
            __slots__ = ()

            def step(self):
                calls[self._args] += 1
                return super().step()

        queue = iter(range(9))
        slot_task = {}
        got = {}

        def push(slot):
            for slot_task[slot] in queue:  # takes at most one task
                return Counted(slot_task[slot])
            return None

        def pull(slot, inst):
            got[slot_task[slot]] = inst.result()
            return True

        assert run_push_pull(SchedulerConfig(width=4), push, pull) == 9
        assert got == {tid: routine(tid) for tid in range(9)}
        # a task resumes once per suspension, then once more to finish
        assert calls == {(tid,): count_suspensions(cls(tid)) + 1 for tid in range(9)}

    def test_generated_units_delivered_once_after_rejects(self):
        # a rejected generated instance is reset, and its new lane
        # generator, not the finished one, is what the sweep resumes
        d = looped_tail_def()
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_dynamic(d))()
        queue = iter(range(20))
        slot_task = {}
        offers = Counter()
        got = {}

        def push(slot):
            for slot_task[slot] in queue:  # takes at most one task
                return cls(slot_task[slot])
            return None

        def pull(slot, inst):
            tid = slot_task[slot]
            offers[tid] += 1
            if tid % 3 == 0 and offers[tid] == 1:
                return False
            assert tid not in got
            got[tid] = inst.result()
            return True

        assert run_push_pull(SchedulerConfig(width=4), push, pull) == 20
        assert got == {tid: routine(tid) for tid in range(20)}
        assert {tid for tid, c in offers.items() if c > 1} == set(range(0, 20, 3))


class TestStepOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.lists(st.integers(0, 4), max_size=20))
    def test_dynamic_schedulers_step_tasks_alike(self, width, yields):
        # run_simplest, interleave_map and an always-accepting
        # run_push_pull must step the same task ids in the same order
        cfg = SchedulerConfig(width=width)
        n = len(yields)

        def stepped(run):
            log: list[int] = []

            def make(tid):
                task = Task(tid, yields[tid])
                step = task.step

                def logged():
                    log.append(tid)
                    return step()

                task.step = logged
                return task

            run(make)
            return log

        def simplest(make):
            assert run_simplest(cfg, n, lambda slot, t: make(t)) == n

        def mapped(make):
            assert interleave_map(cfg, make, [(t,) for t in range(n)]) == [
                t * 10 for t in range(n)
            ]

        def push_pull(make):
            pending = list(range(n - 1, -1, -1))

            def push(slot):
                return make(pending.pop()) if pending else None

            assert run_push_pull(cfg, push, lambda slot, inst: True) == n

        want = stepped(simplest)
        assert Counter(want) == Counter({t: y + 1 for t, y in enumerate(yields)})
        assert stepped(mapped) == want
        assert stepped(push_pull) == want


def slot_stepped(cls, calls=None):
    """``cls`` with a ``step_slot`` override that counts each task's resumes in ``calls``."""
    group: list = []

    class SlotStepped(cls):
        __slots__ = ()

        def init(self, tasks):
            group[:] = [t for (t,) in tasks]
            super().init(tasks)

        def step_slot(self, i):
            if calls is not None:
                calls[group[i]] += 1
            return super().step_slot(i)

    return SlotStepped


class TestStaticBatch:
    def make(self, width, trace):
        return load_unit(emit_static(traced_stage_def(), width))(trace)()

    def test_results_land_by_task_index(self):
        trace: list = []
        cfg = SchedulerConfig(width=4)
        inputs = [(t,) for t in range(11)]
        outputs = [None] * 11
        n = run_static_batch(cfg, self.make(4, trace), inputs, outputs, pad=(-1,))
        assert n == 11
        assert outputs == [t * 10 for t in range(11)]

    def test_each_real_task_runs_each_stage_once(self):
        trace: list = []
        inputs = [(t,) for t in range(6)]
        outputs = [None] * 6
        run_static_batch(SchedulerConfig(width=4), self.make(4, trace), inputs, outputs, pad=(-1,))
        for stage in (0, 1):
            stage_tasks = [t for s, t in trace if s == stage and t != -1]
            assert sorted(stage_tasks) == list(range(6))
        # the short final group runs no lane without a task
        assert all(t != -1 for _, t in trace)

    @pytest.mark.parametrize("pad", [None, (-1,)])
    def test_short_group_runs_only_its_real_tasks(self, pad):
        trace: list = []
        inputs = [(3,), (9,)]
        outputs = [None, None]
        run_static_batch(SchedulerConfig(width=4), self.make(4, trace), inputs, outputs, pad)
        assert outputs == [30, 90]
        assert trace == [(0, 3), (0, 9), (1, 3), (1, 9)]

    def test_longer_outputs_keep_their_length_and_tail(self):
        outputs = [None] * 3 + ["a", "b"]
        run_static_batch(SchedulerConfig(width=4), self.make(4, []), [(1,), (2,), (3,)], outputs)
        assert outputs == [10, 20, 30, "a", "b"]

    def test_empty_inputs(self):
        outputs: list = []
        assert run_static_batch(SchedulerConfig(width=4), self.make(4, []), [], outputs) == 0
        assert outputs == []

    def test_width_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="config width 2 != batch unit width 4"):
            run_static_batch(SchedulerConfig(width=2), self.make(4, []), [(1,)], [None])


class TestHybrid:
    def test_matches_routine_across_groups(self):
        d = looped_tail_def()
        routine = load_unit(emit_routine(d))
        unit = load_unit(emit_hybrid(d, 4))()()
        inputs = [(t,) for t in range(10)]
        outputs = [None] * 10
        n = run_hybrid(SchedulerConfig(width=4), unit, inputs, outputs, pad=(0,))
        assert n == 10
        assert outputs == [routine(t) for t in range(10)]

    def test_traced_unit_runs_each_stage_once(self):
        trace: list = []
        unit = load_unit(emit_hybrid(traced_stage_def(), 3))(trace)()
        inputs = [(t,) for t in range(7)]
        outputs = [None] * 7
        run_hybrid(SchedulerConfig(width=3), unit, inputs, outputs, pad=(-1,))
        assert outputs == [t * 10 for t in range(7)]
        for stage in (0, 1):
            stage_tasks = [t for s, t in trace if s == stage and t != -1]
            assert sorted(stage_tasks) == list(range(7))

    @pytest.mark.parametrize("pad", [None, (-1,)])
    def test_short_group_runs_only_its_real_tasks(self, pad):
        trace: list = []
        unit = load_unit(emit_hybrid(traced_stage_def(), 4))(trace)()
        outputs = [None] * 3 + ["a", "b"]
        run_hybrid(SchedulerConfig(width=4), unit, [(3,), (9,), (4,)], outputs, pad)
        assert outputs == [30, 90, 40, "a", "b"]
        assert sorted(trace) == [(0, 3), (0, 4), (0, 9), (1, 3), (1, 4), (1, 9)]

    @settings(max_examples=40, deadline=None)
    @given(defgen.hinted_prefix_defs(tally=True))
    def test_direct_tail_and_step_slot_tail_agree(self, d):
        # the generated class's tail resumes its lanes directly, and a
        # subclass's through its step_slot(): same lanes, same order
        for width in FUZZ_WIDTHS:
            runs = []
            for wrap in (lambda cls: cls, slot_stepped):
                tally = [0] * defgen.TALLY_CELLS
                unit = wrap(load_unit(emit_hybrid(d, width))(tally))()
                out = [None] * len(FUZZ_TASKS)
                marks: list = []
                with prefetch_hook(marks.append):
                    run_hybrid(SchedulerConfig(width=width), unit, FUZZ_TASKS, out)
                runs.append((out, tally, marks))
            assert runs[0] == runs[1], width

    def test_overridden_step_slot_sees_every_resume(self):
        # a subclass that overrides step_slot() is stepped through it,
        # not through the lane generators underneath
        d = looped_tail_def()
        cls = load_unit(emit_hybrid(d, 4))()
        dynamic = load_unit(emit_dynamic(d))()
        calls = Counter()
        unit = slot_stepped(cls, calls)()
        outputs = [None] * 9
        run_hybrid(SchedulerConfig(width=4), unit, [(t,) for t in range(9)], outputs)
        routine = load_unit(emit_routine(d))
        assert outputs == [routine(t) for t in range(9)]
        # after the prefix, a task resumes once per suspension left, then once more to finish
        assert calls == {
            tid: count_suspensions(dynamic(tid)) - cls._PREFIX + 1 for tid in range(9)
        }

    def test_generated_unit_tail_never_calls_step_slot(self, monkeypatch):
        calls = []
        step_slot = BatchUnit.step_slot

        def counted(unit, i):
            calls.append(i)
            return step_slot(unit, i)

        # the generated class still inherits BatchUnit.step_slot, so its tail runs direct
        monkeypatch.setattr(BatchUnit, "step_slot", counted)
        d = looped_tail_def()
        outputs = [None] * 9
        unit = load_unit(emit_hybrid(d, 4))()()
        run_hybrid(SchedulerConfig(width=4), unit, [(t,) for t in range(9)], outputs)
        routine = load_unit(emit_routine(d))
        assert outputs == [routine(t) for t in range(9)]
        assert calls == []

    def test_width_mismatch_is_an_error(self):
        unit = load_unit(emit_hybrid(looped_tail_def(), 8))()()
        with pytest.raises(ValueError, match="config width 4 != hybrid unit width 8"):
            run_hybrid(SchedulerConfig(width=4), unit, [(1,)], [None])

    def test_empty_inputs(self):
        unit = load_unit(emit_hybrid(looped_tail_def(), 2))()()
        assert run_hybrid(SchedulerConfig(width=2), unit, [], []) == 0


class TestWideConfigFewTasks:
    """Buffers follow the task count, so a width far above it costs no memory."""

    WIDTH = 10**7

    def runner(self, policy, cfg):
        d = traced_stage_def()
        if policy == "push_pull":
            # what bench's push_pull row runs
            cls = load_unit(emit_dynamic(d))([])
            return lambda tasks: _push_pull_map(cfg, cls, tasks)
        emit, drive = {
            "static": (emit_static, run_static_batch),
            "hybrid": (emit_hybrid, run_hybrid),
        }[policy]
        unit = load_unit(emit(d, self.WIDTH))([])()

        def run(tasks):
            out = [None] * len(tasks)
            drive(cfg, unit, tasks, out)
            return out

        return run

    @pytest.mark.parametrize("policy", ["static", "hybrid", "push_pull"])
    def test_peak_allocation_is_small(self, policy):
        run = self.runner(policy, SchedulerConfig(width=self.WIDTH))
        tracemalloc.start()
        try:
            results = run([(0,), (1,), (2,)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results == [0, 10, 20]
        assert peak < 1 << 20


class TestInterleaveMap:
    def test_results_in_task_order(self):
        tasks = [(t, (7 - t) % 4) for t in range(20)]
        out = interleave_map(SchedulerConfig(width=3), Task, tasks)
        assert out == [t * 10 for t in range(20)]

    def test_single_slot_degenerates_to_sequential(self):
        order: list = []
        tasks = [(t, 2) for t in range(5)]
        out = interleave_map(
            SchedulerConfig(width=1),
            lambda tid, y: Task(tid, y, order),
            tasks,
        )
        assert out == [t * 10 for t in range(5)]
        assert order == [0, 1, 2, 3, 4]

    def test_empty_tasks(self):
        assert interleave_map(SchedulerConfig(width=4), Task, []) == []

    def test_with_generated_units(self):
        d = looped_tail_def()
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_dynamic(d))()
        tasks = [(t,) for t in range(25)]
        for width in (1, 2, 48):
            out = interleave_map(SchedulerConfig(width=width), cls, tasks)
            assert out == [routine(t) for t in range(25)]


def void_twin(d):
    """``d`` without a result: its final return stores into a shared ``sink[x]``.

    A ``defgen`` definition never assigns ``x`` and returns only at its
    end, so the twin leaves in ``sink`` what ``d`` returns.
    """
    *stmts, ret = d.body.stmts
    decls = [Decl(DeclKind.SHARED_ARG, "dict", "sink")]
    decls += [x for x in d.decls if x.kind is not DeclKind.RESULT]
    body = dataclasses.replace(d.body, stmts=(*stmts, Store("sink[x]", ret.value)))
    twin = dataclasses.replace(d, name="void_" + d.name, decls=tuple(decls), body=body)
    assert not validate(twin)
    return twin


def failing_def():
    """Two suspensions around an opaque ``1 // x``: fails for x == 0."""
    return (
        coroutine("inverse")
        .result("int", "out")
        .arg("int", "x")
        .variable("int", "q", "0")
        .body(yield_(), opaque("q = 1 // x"), yield_(), return_("q + x"))
    )


class TestInterleaveMapLanes:
    """Generated lanes, the instance adapter and the routine agree."""

    @settings(max_examples=60, deadline=None)
    @given(
        defgen.coroutine_defs(),
        st.booleans(),
        st.integers(1, 6),
        st.lists(st.integers(0, 999), max_size=20),
    )
    def test_lane_adapter_and_routine_agree(self, d, has_result, width, xs):
        cfg = SchedulerConfig(width=width)
        tasks = [(x,) for x in xs]
        if has_result:
            routine = load_unit(emit_routine(d))
            cls = load_unit(emit_dynamic(d))()
            want = [routine(x) for x in xs]
            assert interleave_map(cfg, cls, tasks) == want
            assert interleave_map(cfg, lambda *a: cls(*a), tasks) == want
            return
        d = void_twin(d)
        routine = load_unit(emit_routine(d))
        want: dict = {}
        for x in xs:
            routine(want, x)
        sinks = []
        for wrap in (lambda cls: cls, lambda cls: lambda *a: cls(*a)):
            sink: dict = {}
            cls = load_unit(emit_dynamic(d))(sink)
            assert interleave_map(cfg, wrap(cls), tasks) == [None] * len(xs)
            sinks.append(sink)
        assert sinks == [want, want]

    def test_generated_class_exposes_its_lane(self):
        cls = load_unit(emit_dynamic(looped_tail_def()))()
        out = [None, None]
        g = cls.lane((4,), out, 1)
        while not next(g, True):
            pass
        assert out == [None, load_unit(emit_routine(looped_tail_def()))(4)]

    def test_subclass_overrides_are_honoured(self):
        cls = load_unit(emit_dynamic(looped_tail_def()))()

        class Negated(cls):
            __slots__ = ()

            def result(self):
                return -super().result()

        routine = load_unit(emit_routine(looped_tail_def()))
        tasks = [(t,) for t in range(7)]
        out = interleave_map(SchedulerConfig(width=3), Negated, tasks)
        assert out == [-routine(t) for t in range(7)]

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_more_slots_than_tasks(self, count):
        d = looped_tail_def()
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_dynamic(d))()
        tasks = [(t,) for t in range(count)]
        want = [routine(t) for t in range(count)]
        for factory in (cls, lambda *a: cls(*a)):
            assert interleave_map(SchedulerConfig(width=8), factory, tasks) == want


class TestTaskError:
    """A task's exception comes out of interleave_map naming that task."""

    XS = [3, 2, 0, 5, 1]

    @pytest.mark.parametrize("wrap", ["lane", "factory"])
    def test_failing_task_is_named(self, wrap):
        cls = load_unit(emit_dynamic(failing_def()))()
        factory = cls if wrap == "lane" else (lambda *a: cls(*a))
        with pytest.raises(TaskError) as info:
            interleave_map(SchedulerConfig(width=2), factory, [(x,) for x in self.XS])
        # tasks 0 and 1 take slots 0 and 1 and finish together, so task
        # 2 refills slot 0
        assert info.value.task_index == 2
        assert info.value.slot == 0
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("wrap", ["lane", "factory"])
    def test_wrong_arity_task_is_named(self, wrap):
        # a generated lane unpacks its task tuple when first resumed
        cls = load_unit(emit_dynamic(looped_tail_def()))()
        factory = cls if wrap == "lane" else (lambda *a: cls(*a))
        for bad in [(), (1, 2)]:
            tasks = [(3,), (2,), bad, (5,)]
            with pytest.raises(TaskError) as info:
                interleave_map(SchedulerConfig(width=2), factory, tasks)
            assert info.value.task_index == 2
            assert isinstance(info.value.__cause__, ValueError)

    def test_hand_written_class(self):
        class Inverse(Task):
            def step(self):
                if self.tid == 4:
                    1 // 0
                return super().step()

        with pytest.raises(TaskError) as info:
            interleave_map(SchedulerConfig(width=3), Inverse, [(t, 1) for t in range(6)])
        assert (info.value.task_index, info.value.slot) == (4, 1)
        assert isinstance(info.value.__cause__, ZeroDivisionError)


# One input per task for random definitions; distinct inputs make most
# tasks' results differ, so a result delivered to the wrong task shows.
RANDOM_XS = [0, 1, 7, 58, 999, 3, 12, 40, 5]


class TestDynamicSchedulersOnRandomDefs:
    """Random definitions through the dynamic schedulers, against the routine."""

    @settings(max_examples=30, deadline=None)
    @given(defgen.coroutine_defs(), st.integers(1, 6))
    def test_simplest_delivers_each_task_once(self, d, width):
        want = [load_unit(emit_routine(d))(x) for x in RANDOM_XS]
        make = load_unit(emit_dynamic(d))()
        slot_task: dict[int, int] = {}
        built: list[int] = []
        got: list[tuple[int, object]] = []

        def refill(slot, task_index):
            slot_task[slot] = task_index
            built.append(task_index)
            return make(RANDOM_XS[task_index])

        def on_complete(slot, inst):
            got.append((slot_task[slot], inst.result()))

        cfg = SchedulerConfig(width=width)
        assert run_simplest(cfg, len(RANDOM_XS), refill, on_complete) == len(RANDOM_XS)
        assert built == list(range(len(RANDOM_XS)))
        assert sorted(t for t, _ in got) == list(range(len(RANDOM_XS)))
        assert dict(got) == dict(enumerate(want))

    @settings(max_examples=30, deadline=None)
    @given(defgen.coroutine_defs(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_push_pull_delivers_each_task_once(self, d, width, seed):
        want = [load_unit(emit_routine(d))(x) for x in RANDOM_XS]
        make = load_unit(emit_dynamic(d))()
        rng = random.Random(seed)
        queue = list(range(len(RANDOM_XS)))
        slot_task: dict[int, int] = {}
        offers = [0] * len(RANDOM_XS)
        accepted: list[int] = []

        def push(slot):
            if not queue:
                return None
            slot_task[slot] = queue.pop(0)
            return make(RANDOM_XS[slot_task[slot]])

        def pull(slot, inst):
            # a reset instance recomputes in its slot, so every offer of a
            # task, rejected or not, must carry the routine's answer
            t = slot_task[slot]
            offers[t] += 1
            assert inst.result() == want[t], (t, offers[t])
            if offers[t] <= 2 and rng.random() < 0.4:
                return False
            accepted.append(t)
            return True

        assert run_push_pull(SchedulerConfig(width=width), push, pull) == len(RANDOM_XS)
        assert sorted(accepted) == list(range(len(RANDOM_XS)))
