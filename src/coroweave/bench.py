"""Benchmark and equivalence driver over the kernel registry.

A bench run always executes the sequential baseline first (its results
double as the expected values), then each requested scheduling policy,
and fails loudly if any policy disagrees with the baseline on any
query.  Rows are deterministic in (kernel, seed, queries, elements):
the checksum folds every result in query order.

One table says what each policy runs: its emitter prints the unit from
the kernel's definition, and its driver runs that unit's loaded class
over the queries.  ``simplest`` drives the dynamic unit through
``interleave_map``, which steps the lane generators directly;
``push_pull`` drives it through ``run_simplest``: ``run_push_pull``,
with a consumer that accepts all.  ``static`` and ``hybrid`` drive
their batch units through ``run_static_batch`` and ``run_hybrid``.  A
kernel whose definition an emitter refuses does not run that policy.

Python cannot overlap cache misses, so the throughput columns here
measure scheduling overhead, not the memory-level parallelism the
interleaving is designed to unlock on native targets; treat ratios as
informational.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from functools import partial
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from .codegen import CodegenError, SourceText, emit_dynamic, emit_hybrid, emit_static, load_unit
from .dsl import CoroutineDef
from .kernels import KERNELS, Kernel, fold_checksum
from .kernels.defs import SELECTS
from .schedulers import (
    DEFAULT_WIDTH,
    SchedulerConfig,
    interleave_map,
    run_hybrid,
    run_simplest,
    run_static_batch,
)

__all__ = [
    "BenchConfig",
    "BenchRow",
    "ConfigError",
    "EquivalenceError",
    "POLICIES",
    "CSV_COLUMNS",
    "run_bench",
    "rows_to_csv",
    "rows_to_json",
    "selftest",
]

class ConfigError(ValueError):
    pass


class EquivalenceError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class BenchConfig:
    kernel: str = "all"
    policies: tuple[str, ...] = ("simplest",)
    width: int = DEFAULT_WIDTH
    seed: int = 1
    queries: int = 100_000
    elements: int = 1 << 14
    select: str = "arith"
    limit: int = 8

    def __post_init__(self) -> None:
        if self.kernel != "all" and self.kernel not in KERNELS:
            raise ConfigError(
                f"unknown kernel {self.kernel!r}; choose from"
                f" {', '.join(KERNELS)} or 'all'"
            )
        bad = [p for p in self.policies if p not in POLICIES]
        if bad:
            raise ConfigError(f"unknown policies: {', '.join(bad)}")
        if self.width < 1:
            raise ConfigError(f"width must be >= 1, got {self.width}")
        if self.queries < 1:
            raise ConfigError(f"queries must be >= 1, got {self.queries}")
        if self.elements < 1:
            raise ConfigError(f"elements must be >= 1, got {self.elements}")
        if self.select not in SELECTS:
            raise ConfigError(f"unknown select {self.select!r}; choose from {', '.join(SELECTS)}")
        if self.limit < 0:
            raise ConfigError(f"limit must be >= 0, got {self.limit}")


@dataclass(frozen=True, slots=True)
class BenchRow:
    kernel: str
    variant: str
    policy: str
    width: int
    seed: int
    queries: int
    ops_per_sec: float
    total_ns: int
    checksum: int

    def as_dict(self) -> dict[str, Any]:
        return {c: getattr(self, c) for c in CSV_COLUMNS}


CSV_COLUMNS = tuple(f.name for f in fields(BenchRow))


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    phases_ns: dict[str, int] = field(default_factory=dict)


def _check_memory(cfg: BenchConfig, k: Kernel) -> None:
    # Modeled element sizes understate Python object overhead by about
    # an order of magnitude; refuse configs that clearly cannot fit.
    try:
        avail = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return
    need = cfg.elements * k.bytes_per_element * 10 + cfg.queries * 64
    if need > avail:
        raise ConfigError(
            f"{cfg.elements} elements of kernel {k.name!r} needs roughly {need // 2**20}"
            f" MiB, more than the {avail // 2**20} MiB available"
        )


def _sequential(baseline: Callable[..., Any], shared: tuple, queries: list[tuple]) -> list:
    """The baseline row's run: ``baseline`` called on each query in turn."""
    return [baseline(*shared, *q) for q in queries]


def _push_pull_map(sched: SchedulerConfig, cls: Any, queries: list[tuple]) -> list:
    """``run_simplest`` over ``cls`` instances: ``run_push_pull``, accepting every result."""
    out: list[Any] = [None] * len(queries)
    slot_task = [0] * min(sched.width, len(queries))

    def refill(slot: int, t: int) -> Any:
        slot_task[slot] = t
        return cls(*queries[t])

    def on_complete(slot: int, inst: Any) -> None:
        out[slot_task[slot]] = inst.result()

    run_simplest(sched, len(queries), refill, on_complete)
    return out


def _lockstep(drive: Callable[..., int]) -> Callable[[SchedulerConfig, Any, list[tuple]], list]:
    """The driver that runs ``drive`` over one instance of a batch unit class."""

    def run(sched: SchedulerConfig, cls: Any, queries: list[tuple]) -> list:
        out: list[Any] = [None] * len(queries)
        drive(sched, cls(), queries, out)
        return out

    return run


# Each policy's (emitter, driver): the emitter prints the unit the policy
# runs, at the bench width, and its refusal means the kernel cannot run
# under the policy; the driver maps (SchedulerConfig, the unit's loaded
# class, queries) to results in query order.
_TABLE: dict[str, tuple[Callable[[CoroutineDef, int], SourceText], Callable[..., list]]] = {
    "simplest": (lambda cdef, width: emit_dynamic(cdef), interleave_map),
    "push_pull": (lambda cdef, width: emit_dynamic(cdef), _push_pull_map),
    "static": (emit_static, _lockstep(run_static_batch)),
    "hybrid": (emit_hybrid, _lockstep(run_hybrid)),
}
POLICIES = tuple(_TABLE)


def run_bench(cfg: BenchConfig) -> BenchReport:
    """Run baseline plus requested policies; verify; produce rows."""
    report = BenchReport()
    sched = SchedulerConfig(width=cfg.width)
    # a refusal is the config error, unless the kernel or the policy set
    # is "all": then the refused policy is skipped
    skip = cfg.kernel == "all" or set(cfg.policies) == set(POLICIES)
    names = list(KERNELS) if cfg.kernel == "all" else [cfg.kernel]
    for name in names:
        k = KERNELS[name]
        # the plain definition, built once so that simplest, push_pull and
        # static share its printed and compiled lane
        cdef = k.definition("simplest", cfg.select)
        units = {}
        for policy in cfg.policies:
            unit_def = k.definition(policy, cfg.select) if policy == "hybrid" else cdef
            try:
                units[policy] = _TABLE[policy][0](unit_def, cfg.width)
            except CodegenError as err:
                if not skip:
                    raise ConfigError(str(err)) from None
        _check_memory(cfg, k)
        t0 = time.perf_counter_ns()
        ds = k.make_dataset(cfg.elements, cfg.seed)
        shared = k.shared(ds)
        queries = k.queries(ds, cfg.queries, cfg.seed + 1, cfg.limit)
        report.phases_ns[f"{name}:build"] = time.perf_counter_ns() - t0
        warmup = queries[: min(1000, len(queries) // 10)]

        runs = {"sequential": partial(_sequential, k.baseline, shared)}
        for policy, src in units.items():
            runs[policy] = partial(_TABLE[policy][1], sched, load_unit(src)(*shared))
        result_key = k.result_key
        expected: list[int] | None = None
        for policy, run in runs.items():
            t0 = time.perf_counter_ns()
            if warmup:
                run(warmup)
            report.phases_ns[f"{name}:{policy}:warmup"] = time.perf_counter_ns() - t0
            t0 = time.perf_counter_ns()
            results = [result_key(r) for r in run(queries)]
            elapsed = time.perf_counter_ns() - t0
            if policy == "sequential":
                expected = results
            elif results != expected:
                bad = next(i for i, (a, b) in enumerate(zip(results, expected)) if a != b)
                raise EquivalenceError(
                    f"{name}/{policy}: result {bad} is {results[bad]},"
                    f" baseline says {expected[bad]}"
                )
            report.rows.append(
                BenchRow(
                    kernel=name,
                    variant="sequential" if policy == "sequential" else "interleaved",
                    policy="-" if policy == "sequential" else policy,
                    width=1 if policy == "sequential" else cfg.width,
                    seed=cfg.seed,
                    queries=len(queries),
                    ops_per_sec=len(queries) / (elapsed / 1e9) if elapsed else 0.0,
                    total_ns=elapsed,
                    checksum=fold_checksum(results),
                )
            )
    return report


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(CSV_COLUMNS)
    for r in rows:
        d = r.as_dict()
        d["ops_per_sec"] = f"{r.ops_per_sec:.3f}"
        out.writerow([d[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def rows_to_json(rows: list[BenchRow]) -> str:
    return json.dumps([r.as_dict() for r in rows], indent=2) + "\n"


def selftest() -> list[str]:
    """Small equivalence pass over every kernel and applicable policy.

    Returns a list of failure messages; empty means healthy.
    ``run_bench`` raises on the first result that disagrees with the
    baseline, so a clean run is the whole check.
    """
    cfg = BenchConfig(kernel="all", policies=POLICIES, width=8, queries=512, elements=512)
    try:
        run_bench(cfg)
    except (EquivalenceError, ConfigError) as e:
        return [str(e)]
    return []
