"""Cooperative schedulers for generated coroutine units.

All of them interleave up to ``width`` in-flight tasks on the calling
thread.  The number of slots bounds how many loads are outstanding at
once, so the width should track what the memory subsystem can overlap,
not how many tasks exist; 48 is a good default on recent server cores.

``run_simplest`` and ``run_push_pull`` drive dynamic (per-task) units,
``run_static_batch`` drives lockstep batch units, and ``run_hybrid``
drives prefix-lockstep units.  Task identity is the caller's problem:
the dynamic schedulers hand out slot indexes and instances, never task
ids, because a slot is reused by many tasks over a run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .runtime import BatchCoroutine, StepCoroutine

__all__ = [
    "DrainOrder",
    "SchedulerConfig",
    "run_simplest",
    "run_push_pull",
    "run_static_batch",
    "run_hybrid",
    "interleave_map",
]

DEFAULT_WIDTH = 48


class DrainOrder(enum.Enum):
    """How to retire the tail once no new tasks remain.

    SWEEP keeps round-robin stepping every live slot (the tail finishes
    out of order, as during the full phase).  SLOT_ORDER runs each
    remaining slot to completion in slot order, which gives a stable
    completion order at the cost of interleaving.
    """

    SWEEP = "sweep"
    SLOT_ORDER = "slot_order"


@dataclass(frozen=True, slots=True)
class SchedulerConfig:
    width: int = DEFAULT_WIDTH
    drain: DrainOrder = DrainOrder.SWEEP

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
    each finished instance before its slot is reused.  Returns the
    number of completed tasks.
    """
    if task_count <= 0:
        return 0
    fill = min(config.width, task_count)
    slots: list[StepCoroutine | None] = [refill(i, i) for i in range(fill)]
    next_task = fill
    done = 0
    while next_task < task_count:
        for i, inst in enumerate(slots):
            if inst is None:
                continue
            if inst.step():
                done += 1
                if on_complete is not None:
                    on_complete(i, inst)
                if next_task < task_count:
                    slots[i] = refill(i, next_task)
                    next_task += 1
                else:
                    slots[i] = None
    if config.drain is DrainOrder.SLOT_ORDER:
        for i, inst in enumerate(slots):
            if inst is None:
                continue
            while not inst.step():
                pass
            done += 1
            if on_complete is not None:
                on_complete(i, inst)
            slots[i] = None
    else:
        live = sum(1 for s in slots if s is not None)
        while live:
            for i, inst in enumerate(slots):
                if inst is None:
                    continue
                if inst.step():
                    done += 1
                    if on_complete is not None:
                        on_complete(i, inst)
                    slots[i] = None
                    live -= 1
    return done


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
    eventually accept, or this never returns).  A slot whose ``push``
    returns None leaves the sweep for good.  Returns the number of
    accepted tasks.
    """
    first = [push(i) for i in range(config.width)]
    ids = [i for i, inst in enumerate(first) if inst is not None]
    insts: list[StepCoroutine | None] = [first[i] for i in ids]
    accepted = 0
    while insts:
        dead = False
        for j, inst in enumerate(insts):
            if inst.step():
                i = ids[j]
                if pull(i, inst):
                    accepted += 1
                    insts[j] = push(i)
                    if insts[j] is None:
                        dead = True
                else:
                    inst.reset()
        if dead:
            ids = [i for i, inst in zip(ids, insts) if inst is not None]
            insts = [inst for inst in insts if inst is not None]
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

    Results come back in task order regardless of completion order.
    """
    results: list[Any] = [None] * len(tasks)
    slot_task = [0] * min(config.width, len(tasks) or 1)

    def refill(slot: int, task_index: int) -> StepCoroutine:
        slot_task[slot] = task_index
        return factory(*tasks[task_index])

    def on_complete(slot: int, inst: StepCoroutine) -> None:
        results[slot_task[slot]] = inst.result()

    run_simplest(config, len(tasks), refill, on_complete)
    return results
