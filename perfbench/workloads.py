"""The three workloads: chase, probe and compile.

Every workload goes through the same layers (dataset build, dsl,
lowering, codegen, generated units, schedulers) in different
proportions, so each reports every metric:

* chase: long query streams over linked structures (bt, sl, sli);
  generated ``step()`` code and the schedulers' steady loop dominate.
  ht runs one long stream through the static and hybrid schedulers,
  where their per-group costs are amortised.
* probe: request-sized batches over array-backed structures (bs, ht);
  construction, fill, drain and per-call set-up weigh heavily, and the
  push-pull consumer rejects a seeded 1/32 of completions once.
* compile: a seeded stream of definitions carried through print,
  parse, validate, split, emit and load, then run and checked; the
  compiler layers are the whole cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter_ns as clock
from typing import Any

from coroweave import CodegenError, SchedulerConfig, emit_hybrid, emit_static
from coroweave.kernels import KERNELS
from coroweave.kernels.defs import binary_search_def

from .common import WIDTH, Mismatch, first_mismatch, geomean
from .oracles import make_case
from .pipeline import (
    build_units,
    check_push_pull,
    run_baseline,
    run_hybrid_tasks,
    run_push_pull_tasks,
    run_routine,
    run_simplest,
    run_static,
)
from .synth import INPUTS_PER_DEF, TAIL_DEPTH, make_synth, tail_resume_answer, tail_resume_def

ROUTINE_CHECKS = 256

QPS_METRICS = {
    "sequential": "seq_qps",
    "simplest": "dynamic_qps",
    "push_pull": "push_pull_qps",
    "static": "static_qps",
    "hybrid": "hybrid_qps",
}


@dataclass
class Round:
    """Time and queries per (kernel, policy) in one round, plus op counts."""

    ns: dict[tuple[str, str], int] = field(default_factory=dict)
    queries: dict[tuple[str, str], int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    units: int = 0
    compile_ns: int = 0
    wall_ns: int = 0

    def timed(self, key, n, fn, *args):
        """Call ``fn(*args)``, adding its time and ``n`` queries to ``key``."""
        t0 = clock()
        out = fn(*args)
        self.ns[key] = self.ns.get(key, 0) + clock() - t0
        self.queries[key] = self.queries.get(key, 0) + n
        return out

    def qps(self, key) -> float:
        return self.queries[key] / self.ns[key] * 1e9


def _qps_medians(rounds: list[Round]) -> dict[tuple[str, str], float]:
    keys = rounds[0].ns.keys()
    return {k: median([r.qps(k) for r in rounds]) for k in keys}


def _rows(workload: str, med: dict) -> list[str]:
    rows = []
    for (kernel, policy), q in med.items():
        base = med.get((kernel, "sequential"))
        ratio = f" ratio_to_seq={q / base:.3f}" if base and policy != "sequential" else ""
        rows.append(f"row {workload} {kernel} {policy} qps={q:.1f}{ratio}")
    return rows


class _Streams:
    """Shared body of chase and probe: kernels x policies over fixed queries."""

    name = ""
    setups = 3
    elements = 1 << 16
    # (metric, kernels) for every qps metric this workload reports.
    plan: dict[str, tuple[str, ...]] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cfg = SchedulerConfig(width=WIDTH)

    def kernels(self) -> list[str]:
        return sorted({k for ks in self.plan.values() for k in ks})

    def setup(self, tr) -> dict:
        """Datasets plus every unit, emitted, loaded and bound."""
        datasets: dict[str, Any] = {}
        for k in self.kernels():
            # sl and sli walk the same skip list.
            src = "sl" if k == "sli" else k
            if src not in datasets:
                datasets[src] = tr.call("kernels.make_dataset", KERNELS[src].make_dataset,
                                        self.elements, self.seed)
            datasets[k] = datasets[src]
        return {"datasets": datasets, "units": self.compile_units(tr, datasets)[0]}

    def compile_units(self, tr, datasets) -> tuple[dict, int]:
        """Every unit this workload runs, emitted, loaded and bound to its data."""
        bound = {}
        count = 0
        for k in self.kernels():
            kern = KERNELS[k]
            dyn = k in self.plan["dynamic_qps"]
            static = (WIDTH,) if k in self.plan["static_qps"] else ()
            u = build_units(tr, kern.build_def(), routine=dyn, dynamic=dyn, static=static)
            if k in self.plan["hybrid_qps"]:
                h = build_units(tr, kern.build_hybrid_def(), routine=False, dynamic=False,
                                hybrid=(WIDTH,))
                u.hybrid = h.hybrid
                count += h.count
            count += u.count
            shared = KERNELS[k].shared(datasets[k])
            bound[k] = {
                "shared": shared,
                "routine": u.routine,
                "simplest": tr.wrap(u.dynamic(*shared), "dynamic") if u.dynamic else None,
                "static": tr.wrap(u.static[WIDTH](*shared), "static")() if u.static else None,
                "hybrid": tr.wrap(u.hybrid[WIDTH](*shared), "hybrid")() if u.hybrid else None,
            }
        return bound, count

    def prepare(self, state) -> None:
        """Seeded queries and their oracle answers."""
        rng = random.Random(self.seed * 7919 + 1)
        state["cases"] = {
            k: make_case(k, state["datasets"][k], state["units"][k]["shared"],
                         self.queries, rng)
            for k in self.kernels()
        }

    def recompile(self, state, tr, rnd: Round) -> None:
        """Compile fresh units for this round; check each routine on a prefix."""
        t0 = clock()
        state["units"], rnd.units = self.compile_units(tr, state["datasets"])
        rnd.compile_ns = clock() - t0
        for k, u in state["units"].items():
            if u["routine"] is not None:
                case = state["cases"][k].sub(0, ROUTINE_CHECKS)
                got = run_routine(tr, u["routine"], case.shared, case.tasks)
                first_mismatch(f"{self.name}/{k}/routine", case.expected, case.view(got))

    def metrics(self, setup_s: list[float], rounds: list[Round]):
        med = _qps_medians(rounds)
        out = {"setup_s": (median(setup_s), "s")}
        for metric, ks in self.plan.items():
            policy = next(p for p, m in QPS_METRICS.items() if m == metric)
            out[metric] = (geomean(med[(k, policy)] for k in ks), "1/s")
        out["units_per_s"] = (median(r.units / r.compile_ns * 1e9 for r in rounds), "1/s")
        return out, _rows(self.name, med)


class Chase(_Streams):
    """One long stream per kernel; ht's stream drives the batch schedulers."""

    name = "chase"
    setups = 3
    queries = 4000
    plan = {
        "seq_qps": ("bt", "sl", "sli"),
        "dynamic_qps": ("bt", "sl", "sli"),
        "push_pull_qps": ("bt", "sl", "sli"),
        "static_qps": ("ht",),
        "hybrid_qps": ("ht",),
    }

    def prepare(self, state) -> None:
        super().prepare(state)
        state["reject"] = [False] * self.queries

    def round(self, state, tr, rnd: Round) -> None:
        self.recompile(state, tr, rnd)
        cfg = self.cfg
        for k in self.kernels():
            case, u = state["cases"][k], state["units"][k]
            n = len(case.tasks)
            where = f"chase/{k}"
            got = rnd.timed((k, "sequential"), n, run_baseline, tr, KERNELS[k].baseline,
                            case.shared, case.tasks)
            first_mismatch(f"{where}/sequential", case.expected, case.view(got))
            if u["simplest"] is not None:
                got = rnd.timed((k, "simplest"), n, run_simplest, tr, cfg, u["simplest"],
                                case.tasks)
                first_mismatch(f"{where}/simplest", case.expected, case.view(got))
                out = rnd.timed((k, "push_pull"), n, run_push_pull_tasks, tr, cfg,
                                u["simplest"], case.tasks, state["reject"])
                check_push_pull(f"{where}/push_pull", out, state["reject"])
                first_mismatch(f"{where}/push_pull", case.expected, case.view(out.results))
            if u["static"] is not None:
                got = rnd.timed((k, "static"), n, run_static, tr, cfg, u["static"], case.tasks)
                first_mismatch(f"{where}/static", case.expected, case.view(got))
            if u["hybrid"] is not None:
                got = rnd.timed((k, "hybrid"), n, run_hybrid_tasks, tr, cfg, u["hybrid"],
                                case.tasks)
                first_mismatch(f"{where}/hybrid", case.expected, case.view(got))
        rnd.attempted = sum(rnd.queries.values())


class Probe(_Streams):
    """Request-sized batches under every policy each kernel admits."""

    name = "probe"
    setups = 5
    request = 100
    requests = 20
    reject_every = 32
    plan = {
        "seq_qps": ("bs", "ht"),
        "dynamic_qps": ("bs", "ht"),
        "push_pull_qps": ("bs", "ht"),
        "static_qps": ("ht",),
        "hybrid_qps": ("ht",),
    }

    @property
    def queries(self) -> int:
        return self.request * self.requests

    def prepare(self, state) -> None:
        super().prepare(state)
        rng = random.Random(self.seed * 104729 + 3)
        reject = [False] * self.queries
        for t in rng.sample(range(self.queries), self.queries // self.reject_every):
            reject[t] = True
        spans = [(i, i + self.request) for i in range(0, self.queries, self.request)]
        state["requests"] = {
            k: [(case.sub(lo, hi), reject[lo:hi]) for lo, hi in spans]
            for k, case in state["cases"].items()
        }

    def round(self, state, tr, rnd: Round) -> None:
        self.recompile(state, tr, rnd)
        cfg = self.cfg
        for k in self.kernels():
            reqs, u = state["requests"][k], state["units"][k]
            n = self.queries
            base = KERNELS[k].baseline
            where = f"probe/{k}"

            outs = rnd.timed((k, "sequential"), n, _each, reqs,
                             lambda c, r: run_baseline(tr, base, c.shared, c.tasks))
            _check_requests(f"{where}/sequential", reqs, outs)
            if u["simplest"] is not None:
                cls = u["simplest"]
                outs = rnd.timed((k, "simplest"), n, _each, reqs,
                                 lambda c, r: run_simplest(tr, cfg, cls, c.tasks))
                _check_requests(f"{where}/simplest", reqs, outs)
                outs = rnd.timed((k, "push_pull"), n, _each, reqs,
                                 lambda c, r: run_push_pull_tasks(tr, cfg, cls, c.tasks, r))
                for j, ((c, r), o) in enumerate(zip(reqs, outs)):
                    check_push_pull(f"{where}/push_pull request {j}", o, r)
                _check_requests(f"{where}/push_pull", reqs, [o.results for o in outs])
            if u["static"] is not None:
                unit = u["static"]
                outs = rnd.timed((k, "static"), n, _each, reqs,
                                 lambda c, r: run_static(tr, cfg, unit, c.tasks))
                _check_requests(f"{where}/static", reqs, outs)
            if u["hybrid"] is not None:
                unit = u["hybrid"]
                outs = rnd.timed((k, "hybrid"), n, _each, reqs,
                                 lambda c, r: run_hybrid_tasks(tr, cfg, unit, c.tasks))
                _check_requests(f"{where}/hybrid", reqs, outs)
        rnd.attempted = sum(rnd.queries.values())


def _each(reqs, fn) -> list:
    return [fn(c, r) for c, r in reqs]


def _check_requests(where: str, reqs, outs) -> None:
    offset = 0
    for (case, _), got in zip(reqs, outs):
        first_mismatch(where, case.expected, case.view(got), offset)
        offset += len(case.tasks)


# -- compile


@dataclass
class DefOp:
    """One definition of the compile stream and how to check it."""

    cdef: Any
    static: bool
    hybrid: bool
    shared: tuple
    tasks: list[tuple]
    expected: list
    view: Any
    baseline: Any = None
    pad: tuple | None = None
    fails_routine: bool = False


# Widths 1, odd, and above the 12 inputs per definition; kept small so
# padding lanes, which all follow the pad input's one path, stay a small
# share of the batch work.
BATCH_WIDTHS = (1, 5, 16)


class Compile:
    """Definitions to loaded, checked units; compiler layers are the cost."""

    name = "compile"
    setups = 5
    elements = 512
    synth_defs = 24

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr) -> dict:
        """Small datasets for the kernel defs, and the synthetic defs."""
        rng = random.Random(self.seed * 31337 + 5)
        datasets = {}
        for k in ("bs", "bt", "sl", "ht"):
            datasets[k] = tr.call("kernels.make_dataset", KERNELS[k].make_dataset,
                                  self.elements, self.seed)
        datasets["sli"] = datasets["sl"]
        kernel_defs = [
            ("bs", binary_search_def("arith"), False, False),
            ("bs", binary_search_def("ternary"), False, False),
            ("bt", KERNELS["bt"].build_def(), False, False),
            ("sl", KERNELS["sl"].build_def(), False, False),
            ("sli", KERNELS["sli"].build_def(), False, False),
            ("ht", KERNELS["ht"].build_def(), True, False),
            ("ht", KERNELS["ht"].build_hybrid_def(), True, True),
        ]
        synth = [make_synth(i, rng) for i in range(self.synth_defs)]
        return {"datasets": datasets, "kernel_defs": kernel_defs, "synth": synth}

    def prepare(self, state) -> None:
        """Seeded inputs and answers: oracles for kernels, the model for the rest."""
        rng = random.Random(self.seed * 7919 + 2)
        ops = []
        for k, cdef, static, hybrid in state["kernel_defs"]:
            ds = state["datasets"][k]
            case = make_case(k, ds, KERNELS[k].shared(ds), INPUTS_PER_DEF, rng)
            ops.append(DefOp(cdef, static, hybrid, case.shared, case.tasks,
                             case.expected, case.view, baseline=KERNELS[k].baseline))
        tbl = [rng.randrange(1000) for _ in range(16)]
        for s in state["synth"]:
            tasks = s.inputs(rng)
            ops.append(DefOp(s.cdef, s.static, s.hybrid, (tbl,), tasks,
                             [s.model(tbl, *t) for t in tasks], list, pad=(0, 0, [0] * 4)))
        ops.append(DefOp(tail_resume_def(), False, False, (), [(TAIL_DEPTH, 0)],
                         [tail_resume_answer(TAIL_DEPTH, 0)], list, fails_routine=True))
        state["ops"] = ops

    def round(self, state, tr, rnd: Round) -> None:
        for op in state["ops"]:
            rnd.attempted += 1
            if not self._op(op, tr, rnd):
                rnd.failed += 1

    def _op(self, op: DefOp, tr, rnd: Round) -> bool:
        """Compile, run and check one definition; False when it failed."""
        name = op.cdef.name
        u = build_units(tr, op.cdef, static=BATCH_WIDTHS if op.static else (),
                        hybrid=BATCH_WIDTHS if op.hybrid else ())
        rnd.units += u.count
        for shape, ok, emit in (("static", op.static, emit_static),
                                ("hybrid", op.hybrid, emit_hybrid)):
            if not ok:
                try:
                    tr.call(f"codegen.refuse.{shape}", emit, op.cdef, WIDTH)
                except CodegenError:
                    pass
                else:
                    raise Mismatch(f"compile/{name}: {shape} emitter accepted a def"
                                   " whose stage graph does not qualify")
        n = len(op.tasks)
        # The deep tail-resume runs thousands of steps for one query; it is
        # timed under its own key so it does not swamp the qps metrics.
        kern = "tail" if op.fails_routine else "all"
        ok = True
        try:
            got = rnd.timed((kern, "sequential"), n, run_routine, tr, u.routine,
                            op.shared, op.tasks)
        except RecursionError:
            if not op.fails_routine:
                raise
            ok = False
        else:
            first_mismatch(f"compile/{name}/routine", op.expected, op.view(got))
        if op.baseline is not None:
            got = rnd.timed(("kernels", "sequential"), n, run_baseline, tr, op.baseline,
                            op.shared, op.tasks)
            first_mismatch(f"compile/{name}/baseline", op.expected, op.view(got))
        cls = tr.wrap(u.dynamic(*op.shared), "dynamic")
        cfg = SchedulerConfig(width=WIDTH)
        got = rnd.timed((kern, "simplest"), n, run_simplest, tr, cfg, cls, op.tasks)
        first_mismatch(f"compile/{name}/simplest", op.expected, op.view(got))
        reject = [i == 0 for i in range(n)]
        out = rnd.timed((kern, "push_pull"), n, run_push_pull_tasks, tr, cfg, cls,
                        op.tasks, reject)
        check_push_pull(f"compile/{name}/push_pull", out, reject)
        first_mismatch(f"compile/{name}/push_pull", op.expected, op.view(out.results))
        for w, make in u.static.items():
            unit = tr.wrap(make(*op.shared), "static")()
            got = rnd.timed(("all", "static"), n, run_static, tr, SchedulerConfig(width=w),
                            unit, op.tasks, op.pad)
            first_mismatch(f"compile/{name}/static/w{w}", op.expected, op.view(got))
        for w, make in u.hybrid.items():
            unit = tr.wrap(make(*op.shared), "hybrid")()
            got = rnd.timed(("all", "hybrid"), n, run_hybrid_tasks, tr,
                            SchedulerConfig(width=w), unit, op.tasks, op.pad)
            first_mismatch(f"compile/{name}/hybrid/w{w}", op.expected, op.view(got))
        return ok

    def metrics(self, setup_s: list[float], rounds: list[Round]):
        med = _qps_medians(rounds)
        out = {"setup_s": (median(setup_s), "s")}
        for policy, metric in QPS_METRICS.items():
            out[metric] = (med[("all", policy)], "1/s")
        out["units_per_s"] = (median(r.units / r.wall_ns * 1e9 for r in rounds), "1/s")
        return out, _rows(self.name, med)


WORKLOADS = {"chase": Chase, "probe": Probe, "compile": Compile}
