"""In-memory spans for the traced run, and the per-layer metrics.

A span is (name, start, end, parent).  Spans are recorded from the
benchmark's own files: around each public call into the library, and
around the methods of generated units through subclasses made from
outside.  Nothing inside the program is instrumented.  Spans stay in
one flat array until the run ends and are then written out as JSON.

A layer's self time is its spans' duration minus the part covered by
their child spans.  Recording a child span costs time outside the child,
which would land in its parent's self time; ``calibrate`` measures that
cost per child on a no-op method, and scheduler self times have it
subtracted.  ``trace.overhead_s`` is the whole cost of tracing.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter_ns as clock

UNIT_METHODS = {
    "dynamic": ("__init__", "step", "reset"),
    "static": ("init", "super_step", "fini"),
    "hybrid": ("init", "run_prefix", "step_slot", "fini"),
    "calibration": ("step",),
}


class _Noop:
    __slots__ = ()

    def step(self):
        return False


class NullTracer:
    """Tracing off: every hook is a plain call or a no-op."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, key, n=1):
        pass

    def wrap(self, cls, shape):
        return cls


NULL = NullTracer()


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Four entries per span: name id, start ns, end ns, parent index.
        self.spans = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.child_cost_ns = 0.0

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def mark(self) -> int:
        """Index the next span will get."""
        return len(self.spans) // 4

    def spans_since(self, mark: int, name: str) -> int:
        """How many spans called ``name`` were recorded since ``mark``."""
        return self.spans[4 * mark::4].count(self.nid(name))

    def _open(self, name: str) -> int:
        i = len(self.spans) // 4
        self.spans.extend((self.nid(name), 0, 0, self.stack[-1]))
        self.stack.append(i)
        return i

    def _close(self, i: int, t0: int, t1: int) -> None:
        self.stack.pop()
        self.spans[4 * i + 1] = t0
        self.spans[4 * i + 2] = t1

    def call(self, name, fn, *args):
        i = self._open(name)
        t0 = clock()
        try:
            return fn(*args)
        finally:
            self._close(i, t0, clock())

    def count(self, key, n=1):
        self.counts[key] += n

    def wrap(self, cls, shape):
        """Subclass a generated unit so each method call is a leaf span."""
        put = self.spans.extend
        stack = self.stack
        attrs: dict = {"__slots__": ()}
        for method in UNIT_METHODS[shape]:

            def traced(unit, *args, _base=getattr(cls, method),
                       _nid=self.nid(f"unit.{shape}.{method}")):
                t0 = clock()
                r = _base(unit, *args)
                put((_nid, t0, clock(), stack[-1]))
                return r

            attrs[method] = traced
        return type(cls.__name__, (cls,), attrs)

    def calibrate(self) -> None:
        """Measure the parent time that recording one child span adds.

        Compares a loop of plain no-op method calls with the same loop
        over a traced no-op, takes the median of five trials, then drops
        the calibration spans.
        """
        reps = 20000

        def loop(unit):
            for _ in range(reps):
                unit.step()

        plain, traced = _Noop(), self.wrap(_Noop, "calibration")()
        costs = []
        for _ in range(5):
            t0 = clock()
            loop(plain)
            per_plain = (clock() - t0) / reps
            mark = self.mark()
            self.call("calibration", loop, traced)
            _, _, self_ns, _ = self.totals(mark)
            costs.append(self_ns["calibration"] / reps - per_plain)
            del self.spans[4 * mark:]
        costs.sort()
        self.child_cost_ns = max(0.0, costs[len(costs) // 2])

    def totals(self, start: int = 0):
        """Per span name from span ``start`` on: total ns, count, self ns, children."""
        s = self.spans
        n = len(s) // 4
        child = [0] * n
        nchild = [0] * n
        for i in range(start, n):
            p = s[4 * i + 3]
            if p >= start:
                child[p] += s[4 * i + 2] - s[4 * i + 1]
                nchild[p] += 1
        total: dict[str, int] = defaultdict(int)
        count: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        children: dict[str, int] = defaultdict(int)
        for i in range(start, n):
            name = self.names[s[4 * i]]
            dur = s[4 * i + 2] - s[4 * i + 1]
            total[name] += dur
            count[name] += 1
            self_ns[name] += dur - child[i]
            children[name] += nchild[i]
        return total, count, self_ns, children

    def write(self, path, meta: dict) -> None:
        """Write names, counts and spans as JSON, times relative to the first span.

        ``spans`` is flat, four numbers per span, in ``span_fields`` order;
        it is written in chunks so a large trace needs no second copy.
        """
        s = self.spans
        base = min(s[1::4]) if s else 0
        head = json.dumps({"meta": meta, "names": self.names, "counts": dict(self.counts),
                           "span_fields": ["name", "start_ns", "end_ns", "parent"]})
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(head[:-1] + ',"spans":[')
            step = 4 * 8192
            for lo in range(0, len(s), step):
                chunk = s[lo:lo + step]
                chunk[1::4] = array("q", (t - base for t in chunk[1::4]))
                chunk[2::4] = array("q", (t - base for t in chunk[2::4]))
                f.write(("," if lo else "") + ",".join(map(str, chunk)))
            f.write("]}")


def per_layer(tr: Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Derive every per-layer metric from one traced run's spans and counts."""
    total, count, self_ns, children = tr.totals()
    c = tr.counts

    def ratio(num, den_key):
        den = c[den_key]
        if not den:
            raise RuntimeError(f"traced run recorded no {den_key}")
        return num / den

    shapes = ("routine", "dynamic", "static", "hybrid")
    units = sum(c[f"units.{s}"] for s in shapes)
    emit = sum(total[f"codegen.emit.{s}"] for s in shapes)
    load = sum(total[f"codegen.load.{s}"] for s in shapes)
    batch_lanes = c["lanes.static"] + c["lanes.hybrid"]
    out = {
        "kernels.build_s": (total["kernels.make_dataset"] / 1e9, "s"),
        "kernels.baseline_ns_per_query": (
            ratio(total["kernels.baseline"], "queries.baseline"), "ns"),
        "dsl.roundtrip_us_per_def": (
            ratio(total["dsl.print"] + total["dsl.parse"], "defs") / 1e3, "us"),
        "dsl.validate_us_per_def": (ratio(total["dsl.validate"], "defs") / 1e3, "us"),
        "lowering.split_us_per_def": (ratio(total["lowering.split"], "defs") / 1e3, "us"),
        "lowering.blocks_per_def": (ratio(c["blocks"], "defs"), "count"),
        "codegen.emit_us_per_unit": (emit / units / 1e3, "us"),
        "codegen.load_us_per_unit": (load / units / 1e3, "us"),
    }
    for s in shapes:
        out[f"codegen.src_bytes_per_unit.{s}"] = (
            ratio(c[f"src_bytes.{s}"], f"units.{s}"), "B")
    out.update({
        "unit.dynamic.step_ns": (
            total["unit.dynamic.step"] / count["unit.dynamic.step"], "ns"),
        "unit.dynamic.steps_per_query": (
            ratio(count["unit.dynamic.step"], "queries.dynamic"), "count"),
        "unit.dynamic.init_ns_per_query": (
            ratio(total["unit.dynamic.__init__"] + total["unit.dynamic.reset"],
                  "queries.dynamic"), "ns"),
        "unit.static.super_step_ns_per_lane": (
            ratio(total["unit.static.super_step"], "lanes.static"), "ns"),
        "unit.hybrid.prefix_ns_per_lane": (
            ratio(total["unit.hybrid.run_prefix"], "lanes.hybrid"), "ns"),
        "unit.hybrid.step_slot_ns": (
            total["unit.hybrid.step_slot"] / count["unit.hybrid.step_slot"], "ns"),
        "unit.batch.init_fini_ns_per_group": (
            ratio(sum(total[f"unit.{s}.{m}"] for s in ("static", "hybrid")
                      for m in ("init", "fini")), "groups"), "ns"),
        "runtime.prefetch_calls_per_query": (
            ratio(c["prefetch"], "queries.units"), "count"),
    })
    for policy in ("simplest", "push_pull", "static", "hybrid"):
        name = f"schedulers.{policy}"
        own = self_ns[name] - tr.child_cost_ns * children[name]
        out[f"{name}.self_ns_per_query"] = (ratio(own, f"queries.{policy}"), "ns")
    out.update({
        "schedulers.simplest.drain_step_share": (
            ratio(c["steps.simplest_drain"], "steps.simplest"), "ratio"),
        "schedulers.push_pull.accepted_per_completion": (
            ratio(c["push_pull.accepted"], "push_pull.completions"), "ratio"),
        "schedulers.batch.real_lane_share": (c["lanes.real"] / batch_lanes, "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out
