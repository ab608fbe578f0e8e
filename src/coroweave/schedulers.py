"""Cooperative schedulers for generated coroutine units.

All of them interleave up to ``width`` in-flight tasks on the calling
thread.  The number of slots bounds how many loads are outstanding at
once, so the width should track what the memory subsystem can overlap,
not how many tasks exist; 48 is a good default on recent server cores.

``run_push_pull`` sweeps dynamic (per-task) instances in slot order and
refills a slot as soon as its task completes; it resumes a generated
instance's lane generator directly, as ``interleave_map`` resumes the
lanes it builds, and steps any other instance through ``step()``.
``run_simplest`` is a push/pull pair over it whose consumer always
accepts.
``run_static_batch`` and ``run_hybrid`` share one loop over width
groups of batch units and differ in how they drive a group: in
lockstep, or a lockstep prefix then lane by lane, resuming a generated
unit's lane generators directly and any other unit's through
``step_slot(i)``.  Task identity is the caller's problem: the
push/pull schedulers hand out slot indexes and instances, never task
ids, because a slot is reused by many tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from .runtime import BatchCoroutine, BatchUnit, DynamicUnit, StepCoroutine

__all__ = [
    "SchedulerConfig",
    "run_simplest",
    "run_push_pull",
    "run_static_batch",
    "run_hybrid",
    "interleave_map",
    "TaskError",
]

DEFAULT_WIDTH = 48


@dataclass(frozen=True, slots=True)
class SchedulerConfig:
    width: int = DEFAULT_WIDTH

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")


def run_simplest(
    config: SchedulerConfig,
    task_count: int,
    refill: Callable[[int, int], StepCoroutine],
    on_complete: Callable[[int, StepCoroutine], None] | None = None,
) -> int:
    """Round-robin stepping with immediate refill of finished slots.

    ``refill(slot, task_index)`` constructs the coroutine instance for
    the next task; ``on_complete(slot, instance)`` (if given) observes
    each finished instance before its slot is reused.  This is
    ``run_push_pull`` with ``refill`` as the producer and a consumer
    that always accepts, so the tail drains by the same sweep.
    Returns the number of completed tasks.
    """
    pending = iter(range(task_count))

    def push(slot: int) -> StepCoroutine | None:
        for t in pending:  # takes at most one task
            return refill(slot, t)
        return None

    def pull(slot: int, inst: StepCoroutine) -> bool:
        if on_complete is not None:
            on_complete(slot, inst)
        return True

    return run_push_pull(config, push, pull)


def run_push_pull(
    config: SchedulerConfig,
    push: Callable[[int], StepCoroutine | None],
    pull: Callable[[int, StepCoroutine], bool],
) -> int:
    """Producer/consumer stepping with backpressure on both ends.

    ``push(slot)`` supplies the next task instance or None when the
    producer is exhausted; ``pull(slot, instance)`` consumes a finished
    task and may return False to reject it, in which case the instance
    is reset and recomputed for a later offer (the producer must
    eventually accept, or this never returns).  After the first None
    ``push`` is not called again, so fewer tasks than slots cost no idle
    slots, and each slot leaves the sweep once its last task is
    accepted.  An instance whose ``step`` is ``DynamicUnit.step`` is
    advanced by resuming its lane generator ``_gen`` directly; any
    other instance, a subclass that overrides ``step`` included, through
    ``step()``.  Returns the number of accepted tasks.
    """
    step = DynamicUnit.step
    insts: list[StepCoroutine] = []
    gens: list[Iterator[bool]] = []
    for i in range(config.width):
        inst = push(i)
        if inst is None:
            break
        insts.append(inst)
        gens.append(inst._gen if type(inst).step is step else _steps(inst))
    more = len(insts) == config.width
    ids = list(range(len(insts)))
    accepted = 0
    while insts:
        gone = []
        for j, g in enumerate(gens):
            if next(g, True):
                i = ids[j]
                inst = insts[j]
                if pull(i, inst):
                    accepted += 1
                    inst = push(i) if more else None
                    if inst is None:
                        more = False
                        gone.append(j)
                        continue
                    insts[j] = inst
                else:
                    inst.reset()
                # a new instance, or one that reset() rewound, has a new lane generator
                gens[j] = inst._gen if type(inst).step is step else _steps(inst)
        for j in reversed(gone):
            del insts[j], gens[j], ids[j]
    return accepted


def _steps(inst: StepCoroutine) -> Iterator[bool]:
    """Resume ``inst`` through ``step()``, as a generator that returns when it is done."""
    while not inst.step():
        yield False


def _groups(config: SchedulerConfig, unit: Any, inputs: Sequence[tuple], outputs: list,
            what: str) -> Iterator[int]:
    """Build each width group into ``unit``, yield its task count, then copy out its results."""
    width = config.width
    unit_width = getattr(type(unit), "_WIDTH", None)
    if unit_width is not None and unit_width != width:
        raise ValueError(f"config width {width} != {what} unit width {unit_width}")
    buf: list[Any] = [None] * min(width, len(inputs))
    for g in range(0, len(inputs), width):
        group = inputs[g:g + width]
        unit.init(group)
        yield len(group)
        unit.fini(buf)
        outputs[g:g + len(group)] = buf[:len(group)]


def run_static_batch(
    config: SchedulerConfig,
    batch: BatchCoroutine,
    inputs: Sequence[tuple],
    outputs: list,
    pad: tuple | None = None,
) -> int:
    """Drive a lockstep batch unit over ``inputs`` in width groups.

    ``inputs`` holds one arg tuple per task; results land in
    ``outputs`` by task index.  Each group runs one lane per task, so
    a short final group runs only its real tasks.  ``pad`` is accepted
    for callers written against padded groups and ignored.  Returns
    the task count.
    """
    for _n in _groups(config, batch, inputs, outputs, "batch"):
        while not batch.super_step():
            pass
    return len(inputs)


def run_hybrid(
    config: SchedulerConfig,
    unit: Any,
    inputs: Sequence[tuple],
    outputs: list,
    pad: tuple | None = None,
) -> int:
    """Drive a prefix-lockstep unit: batch prefix, per-lane finish.

    After the prefix, each group steps its live lanes round-robin, in
    lane order.  A unit whose ``step_slot`` is ``BatchUnit.step_slot``
    is advanced by resuming its lane generators ``_gens`` directly; any
    other unit, a subclass that overrides ``step_slot`` included,
    through ``step_slot(i)``.  Arguments and result are as for
    ``run_static_batch``.
    """
    for n in _groups(config, unit, inputs, outputs, "hybrid"):
        unit.run_prefix()
        if type(unit).step_slot is BatchUnit.step_slot:
            gens = unit._gens
            while gens:
                gens = [g for g in gens if not next(g, True)]
        else:
            live = range(n)
            while live:
                live = [i for i in live if not unit.step_slot(i)]
    return len(inputs)


class TaskError(RuntimeError):
    """Task ``task_index`` raised in ``slot`` of ``interleave_map``; see ``__cause__``."""

    def __init__(self, task_index: int, slot: int) -> None:
        super().__init__(f"task {task_index} raised in slot {slot}")
        self.task_index, self.slot = task_index, slot


def interleave_map(
    config: SchedulerConfig,
    factory: Callable[..., StepCoroutine],
    tasks: Sequence[tuple],
) -> list:
    """Map ``factory(*task)`` over ``tasks`` with interleaved stepping.

    Sweeps up to ``width`` lanes as ``run_push_pull`` sweeps instances.
    A generated class's ``lane`` is built as ``lane(task, results,
    index)``, straight into the task-ordered results; other factories
    are stepped through their instances.  A task's exception, a wrong
    arity included, is re-raised as ``TaskError``.
    """
    results: list[Any] = [None] * len(tasks)
    # only the class defining ``lane`` runs it; a subclass may override its results
    lane = getattr(factory, "__dict__", {}).get("lane")
    if lane is None:

        def lane(task, out, i):  # over the factory's instance
            inst = factory(*task)
            yield from _steps(inst)
            out[i] = inst.result()

    pending = enumerate(tasks)
    gens: list[Any] = []
    task: list[int] = []
    slot = list(range(min(config.width, len(tasks))))
    try:
        for j, (t, args) in zip(slot, pending):
            task.append(t)
            gens.append(lane(args, results, t))
        while gens:
            gone = []
            for j, g in enumerate(gens):
                if next(g, True):
                    for t, args in pending:  # takes at most one task
                        task[j] = t
                        gens[j] = lane(args, results, t)
                        break
                    else:
                        gone.append(j)
            for j in reversed(gone):
                del gens[j], task[j], slot[j]
    except Exception as exc:
        raise TaskError(task[j], slot[j]) from exc
    return results
