"""Benchmark and equivalence driver over the kernel registry.

A bench run always executes the sequential baseline first (its results
double as the expected values), then each requested scheduling policy,
and fails loudly if any policy disagrees with the baseline on any
query.  Rows are deterministic in (kernel, seed, queries, elements):
the checksum folds every result in query order.  The ``simplest`` row
runs ``interleave_map``, which steps the unit's lane generators
directly; the ``push_pull`` row steps instances through
``run_push_pull``, with a consumer that accepts every result.

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
from dataclasses import dataclass, field
from typing import Any, Callable

from .codegen import CodegenError, SourceText, emit_dynamic, emit_hybrid, emit_static, load_unit
from .dsl import CoroutineDef
from .kernels import KERNELS, Kernel, fold_checksum
from .schedulers import (
    DEFAULT_WIDTH,
    SchedulerConfig,
    interleave_map,
    run_hybrid,
    run_push_pull,
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

POLICIES = ("simplest", "push_pull", "static", "hybrid")

CSV_COLUMNS = (
    "kernel",
    "variant",
    "policy",
    "width",
    "seed",
    "queries",
    "ops_per_sec",
    "total_ns",
    "checksum",
)

DEFAULT_ELEMENTS = 1 << 14


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
    elements: int | None = None
    size_bytes: int | None = None
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
        if self.elements is not None and self.elements < 1:
            raise ConfigError("elements must be >= 1")
        if self.size_bytes is not None and self.size_bytes < 1:
            raise ConfigError(f"size must be >= 1 byte, got {self.size_bytes}")


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


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    phases_ns: dict[str, int] = field(default_factory=dict)


def _element_count(cfg: BenchConfig, k: Kernel) -> int:
    if cfg.elements is not None:
        return cfg.elements
    if cfg.size_bytes is not None:
        return max(16, cfg.size_bytes // k.bytes_per_element)
    return DEFAULT_ELEMENTS


def _check_memory(cfg: BenchConfig, k: Kernel, n: int) -> None:
    # Modeled element sizes understate Python object overhead by about
    # an order of magnitude; refuse configs that clearly cannot fit.
    try:
        avail = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return
    need = n * k.bytes_per_element * 10 + cfg.queries * 64
    if need > avail:
        raise ConfigError(
            f"{n} elements of kernel {k.name!r} needs roughly {need // 2**20}"
            f" MiB, more than the {avail // 2**20} MiB available"
        )


def _build_queries(cfg: BenchConfig, k: Kernel, ds: Any) -> list[tuple]:
    if k.name == "sli":
        return k.make_queries(ds, cfg.queries, cfg.seed + 1, limit=cfg.limit)
    return k.make_queries(ds, cfg.queries, cfg.seed + 1)


# The lockstep policies, by the emitter that decides whether a kernel runs under each.
_LOCKSTEP = {"static": emit_static, "hybrid": emit_hybrid}


def _lockstep_units(cfg: BenchConfig, k: Kernel, cdef: CoroutineDef) -> dict[str, SourceText]:
    """Each requested static or hybrid unit of ``k``, by policy.

    The emitter's refusal is the config error, unless the kernel or the
    policy set is "all": then the refused unit is skipped.
    """
    skip = cfg.kernel == "all" or set(cfg.policies) == set(POLICIES)
    units = {}
    for policy in cfg.policies:
        if policy in _LOCKSTEP:
            unit_def = cdef if policy == "static" else k.definition(policy, cfg.select)
            try:
                units[policy] = _LOCKSTEP[policy](unit_def, cfg.width)
            except CodegenError as err:
                if not skip:
                    raise ConfigError(str(err)) from None
    return units


def _policy_runner(
    cfg: BenchConfig, k: Kernel, policy: str, shared: tuple, dynamic: Any,
    unit_src: SourceText | None,
) -> Callable[[list[tuple]], list[int]]:
    """Build a callable mapping a query slice to result-key ints.

    ``dynamic`` is the class loaded for both dynamic policies, and
    ``unit_src`` the emitted unit of a lockstep policy.
    """
    result_key = k.result_key
    if policy == "sequential":
        baseline = k.baseline

        def run(queries: list[tuple]) -> list[int]:
            return [result_key(baseline(*shared, *q)) for q in queries]

        return run
    sched = SchedulerConfig(width=cfg.width)
    if policy in ("simplest", "push_pull"):
        mapper = interleave_map if policy == "simplest" else _push_pull_map

        def run(queries: list[tuple]) -> list[int]:
            return [result_key(r) for r in mapper(sched, dynamic, queries)]

        return run
    if policy in _LOCKSTEP:
        drive = run_static_batch if policy == "static" else run_hybrid
        unit = load_unit(unit_src)(*shared)()

        def run(queries: list[tuple]) -> list[int]:
            out: list[Any] = [None] * len(queries)
            drive(sched, unit, queries, out)
            return [result_key(r) for r in out]

        return run
    raise ConfigError(f"unknown policy {policy!r}")


def _push_pull_map(sched: SchedulerConfig, cls: Any, queries: list[tuple]) -> list:
    """``run_push_pull`` over ``cls`` instances, accepting every result."""
    out: list[Any] = [None] * len(queries)
    slot_task = [0] * min(sched.width, len(queries))
    pending = enumerate(queries)

    def push(slot: int) -> Any:
        for slot_task[slot], q in pending:  # takes at most one task
            return cls(*q)
        return None

    def pull(slot: int, inst: Any) -> bool:
        out[slot_task[slot]] = inst.result()
        return True

    run_push_pull(sched, push, pull)
    return out


def run_bench(cfg: BenchConfig) -> BenchReport:
    """Run baseline plus requested policies; verify; produce rows."""
    report = BenchReport()
    names = list(KERNELS) if cfg.kernel == "all" else [cfg.kernel]
    for name in names:
        k = KERNELS[name]
        # the plain definition, built once so that simplest, push_pull and
        # static share its printed and compiled lane
        cdef = k.definition("simplest", cfg.select)
        units = _lockstep_units(cfg, k, cdef)
        n = _element_count(cfg, k)
        _check_memory(cfg, k, n)
        t0 = time.perf_counter_ns()
        ds = k.make_dataset(n, cfg.seed)
        shared = k.shared(ds)
        queries = _build_queries(cfg, k, ds)
        report.phases_ns[f"{name}:build"] = time.perf_counter_ns() - t0
        warmup = queries[: min(1000, len(queries) // 10)]

        policies = ["sequential"]
        policies += [p for p in cfg.policies if p not in _LOCKSTEP or p in units]
        dynamic = None
        if "simplest" in policies or "push_pull" in policies:
            dynamic = load_unit(emit_dynamic(cdef))(*shared)
        expected: list[int] | None = None
        for policy in policies:
            runner = _policy_runner(cfg, k, policy, shared, dynamic, units.get(policy))
            t0 = time.perf_counter_ns()
            if warmup:
                runner(warmup)
            report.phases_ns[f"{name}:{policy}:warmup"] = time.perf_counter_ns() - t0
            t0 = time.perf_counter_ns()
            results = runner(queries)
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
