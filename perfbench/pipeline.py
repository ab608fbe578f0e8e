"""Calls into the library's public functions, each under a span.

``build_units`` carries one definition from builder tree to loaded
units: print, parse, validate, split, then emit and load each shape.
The ``run_*`` helpers drive loaded units through one scheduling policy
and count, when tracing, what the per-layer metrics divide by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from coroweave import (
    SchedulerConfig,
    emit_dynamic,
    emit_hybrid,
    emit_routine,
    emit_static,
    interleave_map,
    load_unit,
    parse_builder_source,
    run_hybrid,
    run_push_pull,
    run_static_batch,
    split_stages,
    to_builder_source,
    validate,
)

from .common import Mismatch


@dataclass
class Units:
    """The loaded entry points of one definition, by shape and width."""

    routine: Any = None
    dynamic: Any = None
    static: dict[int, Any] = field(default_factory=dict)
    hybrid: dict[int, Any] = field(default_factory=dict)
    count: int = 0


def build_units(tr, cdef, *, routine=True, dynamic=True, static=(), hybrid=()) -> Units:
    """Print, parse, validate, split, then emit and load the named shapes.

    ``static`` and ``hybrid`` list the widths to emit.  Downstream
    steps use the parsed tree, so a lossy print/parse round trip shows
    up as wrong results as well as here.
    """
    text = tr.call("dsl.print", to_builder_source, cdef)
    back = tr.call("dsl.parse", parse_builder_source, text)
    if back != cdef:
        raise Mismatch(f"{cdef.name}: builder source does not parse back to the same def")
    diags = tr.call("dsl.validate", validate, back)
    if diags:
        raise Mismatch(f"{cdef.name}: " + "; ".join(str(d) for d in diags))
    fsm = tr.call("lowering.split", split_stages, back)
    tr.count("defs")
    tr.count("blocks", len(fsm.blocks))
    out = Units()

    def make(shape, emit, *args):
        src = tr.call(f"codegen.emit.{shape}", emit, back, *args)
        unit = tr.call(f"codegen.load.{shape}", load_unit, src)
        tr.count(f"units.{shape}")
        tr.count(f"src_bytes.{shape}", len(src.text))
        out.count += 1
        return unit

    if routine:
        out.routine = make("routine", emit_routine)
    if dynamic:
        out.dynamic = make("dynamic", emit_dynamic)
    for w in static:
        out.static[w] = make("static", emit_static, w)
    for w in hybrid:
        out.hybrid[w] = make("hybrid", emit_hybrid, w)
    return out


def _calls(fn, shared, tasks):
    return [fn(*shared, *t) for t in tasks]


def run_baseline(tr, baseline, shared, tasks) -> list:
    """The hand-written sequential kernel over ``tasks``."""
    tr.count("queries.baseline", len(tasks))
    return tr.call("kernels.baseline", _calls, baseline, shared, tasks)


def run_routine(tr, routine, shared, tasks) -> list:
    """The generated sequential routine over ``tasks``."""
    return tr.call("unit.routine", _calls, routine, shared, tasks)


def run_simplest(tr, cfg: SchedulerConfig, cls, tasks) -> list:
    """``interleave_map``; when tracing, also counts steps after the last launch."""
    if not tr.enabled:
        return interleave_map(cfg, cls, tasks)
    n = len(tasks)
    launched = 0
    drain_mark = None

    def factory(*args):
        nonlocal launched, drain_mark
        inst = cls(*args)
        launched += 1
        if launched == n:
            drain_mark = tr.mark()
        return inst

    start = tr.mark()
    out = tr.call("schedulers.simplest", interleave_map, cfg, factory, tasks)
    tr.count("queries.simplest", n)
    tr.count("queries.dynamic", n)
    tr.count("queries.units", n)
    tr.count("steps.simplest", tr.spans_since(start, "unit.dynamic.step"))
    tr.count("steps.simplest_drain", tr.spans_since(drain_mark, "unit.dynamic.step"))
    return out


@dataclass
class PushPullOutcome:
    results: list
    accepted: int
    landed: list[int]
    offered: list[int]


def run_push_pull_tasks(tr, cfg: SchedulerConfig, cls, tasks, reject) -> PushPullOutcome:
    """``run_push_pull`` with a consumer that rejects ``reject[i]`` tasks once.

    The consumer records how often each task was offered and how often
    its result landed, so exactly-once delivery can be checked.
    """
    n = len(tasks)
    results: list[Any] = [None] * n
    landed = [0] * n
    offered = [0] * n
    slot_task = [0] * cfg.width
    nxt = 0

    def push(slot):
        nonlocal nxt
        if nxt == n:
            return None
        slot_task[slot] = nxt
        nxt += 1
        return cls(*tasks[nxt - 1])

    def pull(slot, inst):
        t = slot_task[slot]
        offered[t] += 1
        if reject[t] and offered[t] == 1:
            return False
        results[t] = inst.result()
        landed[t] += 1
        return True

    accepted = tr.call("schedulers.push_pull", run_push_pull, cfg, push, pull)
    if tr.enabled:
        tr.count("queries.push_pull", n)
        tr.count("queries.dynamic", n)
        tr.count("queries.units", n)
        tr.count("push_pull.accepted", accepted)
        tr.count("push_pull.completions", sum(offered))
    return PushPullOutcome(results, accepted, landed, offered)


def check_push_pull(where: str, out: PushPullOutcome, reject) -> None:
    """Exactly once: every task accepted, landed once, rejects recomputed."""
    n = len(out.landed)
    if out.accepted != n:
        raise Mismatch(f"{where}: {out.accepted} accepted for {n} tasks")
    for t in range(n):
        if out.landed[t] != 1:
            raise Mismatch(f"{where}: task {t} landed {out.landed[t]} times")
        want = 2 if reject[t] else 1
        if out.offered[t] != want:
            raise Mismatch(f"{where}: task {t} offered {out.offered[t]} times, expected {want}")


def _batch_counts(tr, policy: str, n: int, width: int) -> None:
    groups = -(-n // width)
    tr.count(f"queries.{policy}", n)
    tr.count("queries.units", n)
    tr.count(f"lanes.{policy}", groups * width)
    tr.count("lanes.real", n)
    tr.count("groups", groups)


def run_static(tr, cfg: SchedulerConfig, unit, tasks, pad=None) -> list:
    """``run_static_batch`` into a fresh output list of ``len(tasks)``."""
    out: list[Any] = [None] * len(tasks)
    tr.call("schedulers.static", run_static_batch, cfg, unit, tasks, out, pad)
    if tr.enabled:
        _batch_counts(tr, "static", len(tasks), cfg.width)
    return out


def run_hybrid_tasks(tr, cfg: SchedulerConfig, unit, tasks, pad=None) -> list:
    """``run_hybrid`` into a fresh output list of ``len(tasks)``."""
    out: list[Any] = [None] * len(tasks)
    tr.call("schedulers.hybrid", run_hybrid, cfg, unit, tasks, out, pad)
    if tr.enabled:
        _batch_counts(tr, "hybrid", len(tasks), cfg.width)
    return out
