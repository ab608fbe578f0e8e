"""Cooperative schedulers for generated coroutine units.

All of them interleave up to ``width`` in-flight tasks on the calling
thread.  The number of slots bounds how many loads are outstanding at
once, so the width should track what the memory subsystem can overlap,
not how many tasks exist; 48 is a good default on recent server cores.

``run_push_pull`` holds the one slot loop that steps dynamic (per-task)
units: it sweeps the live slots in slot order and refills a slot as
soon as its task completes.  ``run_simplest`` and ``interleave_map``
are push/pull pairs over it whose consumer always accepts.
``run_static_batch`` drives lockstep batch units, and ``run_hybrid``
drives prefix-lockstep units.  Task identity is the caller's problem:
the dynamic schedulers hand out slot indexes and instances, never task
ids, because a slot is reused by many tasks over a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .runtime import BatchCoroutine, StepCoroutine

__all__ = [
    "SchedulerConfig",
    "run_simplest",
    "run_push_pull",
    "run_static_batch",
    "run_hybrid",
    "interleave_map",
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
    eventually accept, or this never returns).  The first None ends
    the initial fill, so fewer tasks than slots cost no idle slots, and
    a slot whose ``push`` returns None leaves the sweep for good.
    Returns the number of accepted tasks.
    """
    insts: list[StepCoroutine | None] = []
    for i in range(config.width):
        inst = push(i)
        if inst is None:
            break
        insts.append(inst)
    ids = list(range(len(insts)))
    accepted = 0
    while insts:
        gone = []
        for j, inst in enumerate(insts):
            if inst.step():
                i = ids[j]
                if pull(i, inst):
                    accepted += 1
                    insts[j] = push(i)
                    if insts[j] is None:
                        gone.append(j)
                else:
                    inst.reset()
        for j in reversed(gone):
            del insts[j], ids[j]
    return accepted


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
    width = config.width
    unit_width = getattr(type(batch), "_WIDTH", None)
    if unit_width is not None and unit_width != width:
        raise ValueError(f"config width {width} != batch unit width {unit_width}")
    buf: list[Any] = [None] * width
    for g in range(0, len(inputs), width):
        group = inputs[g:g + width]
        batch.init(group)
        while not batch.super_step():
            pass
        batch.fini(buf)
        outputs[g:g + len(group)] = buf[:len(group)]
    return len(inputs)


def run_hybrid(
    config: SchedulerConfig,
    unit: Any,
    inputs: Sequence[tuple],
    outputs: list,
    pad: tuple | None = None,
) -> int:
    """Drive a prefix-lockstep unit: batch prefix, per-lane finish.

    Each width group runs one lane per task: the statically scheduled
    stage prefix in lockstep, then the remaining stages by round-robin
    stepping over the lanes still live, in lane order.  ``pad`` is
    accepted for callers written against padded groups and ignored.
    Returns the task count.
    """
    width = config.width
    unit_width = getattr(type(unit), "_WIDTH", None)
    if unit_width is not None and unit_width != width:
        raise ValueError(f"config width {width} != hybrid unit width {unit_width}")
    buf: list[Any] = [None] * width
    for g in range(0, len(inputs), width):
        group = inputs[g:g + width]
        unit.init(group)
        unit.run_prefix()
        live = range(len(group))
        while live:
            live = [i for i in live if not unit.step_slot(i)]
        unit.fini(buf)
        outputs[g:g + len(group)] = buf[:len(group)]
    return len(inputs)


def interleave_map(
    config: SchedulerConfig,
    factory: Callable[..., StepCoroutine],
    tasks: Sequence[tuple],
) -> list:
    """Map ``factory(*task)`` over ``tasks`` with interleaved stepping.

    A push/pull pair over ``run_push_pull`` whose consumer always
    accepts; it skips ``run_simplest``, whose adapter would add two
    calls per task.  Results come back in task order regardless of
    completion order.
    """
    results: list[Any] = [None] * len(tasks)
    slot_task = [0] * config.width
    pending = enumerate(tasks)

    def push(slot: int) -> StepCoroutine | None:
        for t, args in pending:  # takes at most one task
            slot_task[slot] = t
            return factory(*args)
        return None

    def pull(slot: int, inst: StepCoroutine) -> bool:
        results[slot_task[slot]] = inst.result()
        return True

    run_push_pull(config, push, pull)
    return results
