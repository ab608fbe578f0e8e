"""Command line front end.

Exit codes: 0 on success, 1 when execution or an equivalence check
fails, 2 for configuration, validation, usage, or file input and output
errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, dsl
from .bench import (
    POLICIES,
    BenchConfig,
    ConfigError,
    EquivalenceError,
    rows_to_csv,
    rows_to_json,
    run_bench,
    selftest,
)
from .codegen import CodegenError, emit_dynamic, emit_hybrid, emit_routine, emit_static
from .kernels import KERNELS
from .lowering import LoweringError, fsm_dump, split_stages
from .schedulers import DEFAULT_WIDTH

__all__ = ["main"]

_SUFFIX = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _parse_size(text: str) -> int:
    t = text.strip().lower()
    mult = 1
    if t and t[-1] in _SUFFIX:
        mult = _SUFFIX[t[-1]]
        t = t[:-1]
    try:
        return int(t) * mult
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a size: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coroweave",
        description="Interleaved-lookup toolkit: generate, schedule, measure.",
    )
    p.add_argument("--version", action="version", version=f"coroweave {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run kernels and report throughput rows")
    b.add_argument("--kernel", default="all", help="kernel name or 'all'")
    b.add_argument(
        "--policy",
        default="simplest",
        help="scheduling policy, 'all', or 'none' for baseline only",
    )
    b.add_argument("--width", type=int, default=DEFAULT_WIDTH)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--queries", type=int, default=100_000)
    b.add_argument("--elements", type=int, default=None)
    b.add_argument(
        "--size", type=_parse_size, default=None,
        help="target dataset bytes (k/m/g suffixes), modeled per element",
    )
    b.add_argument("--select", choices=("arith", "ternary"), default="arith")
    b.add_argument("--limit", type=int, default=8, help="hops for the advance kernel")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("-o", "--output", default=None)
    b.add_argument("-v", "--verbose", action="store_true")

    g = sub.add_parser("gen", help="emit generated source for a definition")
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--kernel", choices=tuple(KERNELS), default=None)
    src.add_argument(
        "--def", dest="def_file", default=None,
        help="file holding builder source for one definition",
    )
    g.add_argument(
        "--emit",
        choices=("routine", "dynamic", "static", "hybrid", "fsm"),
        default="dynamic",
    )
    g.add_argument("--width", type=int, default=8)
    g.add_argument("--select", choices=("arith", "ternary"), default="arith")
    g.add_argument("-o", "--output", default=None)

    sub.add_parser("selftest", help="small equivalence pass over everything")
    return p


def _cmd_bench(args) -> int:
    if args.policy == "all":
        policies: tuple[str, ...] = POLICIES
    elif args.policy == "none":
        policies = ()
    else:
        policies = (args.policy,)
    try:
        cfg = BenchConfig(
            kernel=args.kernel,
            policies=policies,
            width=args.width,
            seed=args.seed,
            queries=args.queries,
            elements=args.elements,
            size_bytes=args.size,
            select=args.select,
            limit=args.limit,
        )
    except ConfigError as e:
        print(f"coroweave: {e}", file=sys.stderr)
        return 2
    # an unwritable output is refused before the run, not after it;
    # opened to append, an existing file keeps its rows if the run fails
    if args.output:
        try:
            open(args.output, "a", encoding="utf-8").close()
        except OSError as e:
            print(f"coroweave: {e}", file=sys.stderr)
            return 2
    try:
        report = run_bench(cfg)
    except EquivalenceError as e:
        print(f"coroweave: equivalence failure: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"coroweave: {e}", file=sys.stderr)
        return 2
    text = rows_to_csv(report.rows) if args.format == "csv" else rows_to_json(report.rows)
    if not _write(text, args.output):
        return 2
    if args.verbose:
        for phase, ns in report.phases_ns.items():
            print(f"# {phase}: {ns / 1e6:.1f} ms", file=sys.stderr)
        seq = {r.kernel: r.ops_per_sec for r in report.rows if r.variant == "sequential"}
        for r in report.rows:
            if r.variant == "interleaved" and seq.get(r.kernel):
                print(
                    f"# {r.kernel}/{r.policy}: {r.ops_per_sec / seq[r.kernel]:.2f}x"
                    " vs sequential",
                    file=sys.stderr,
                )
    return 0


def _write(text: str, output: str | None) -> bool:
    """Write ``text`` to the file ``output``, or to stdout; False if the file cannot be written."""
    if not output:
        sys.stdout.write(text)
        return True
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"coroweave: {e}", file=sys.stderr)
        return False
    return True


def _gen_def(args):
    if args.kernel is not None:
        return KERNELS[args.kernel].definition(args.emit, args.select)
    with open(args.def_file, encoding="utf-8") as fh:
        return dsl.parse_builder_source(fh.read())


def _cmd_gen(args) -> int:
    try:
        cdef = _gen_def(args)
    except (OSError, dsl.DslError) as e:
        print(f"coroweave: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"coroweave: {args.def_file} is not UTF-8: {e}", file=sys.stderr)
        return 2
    diags = dsl.validate(cdef)
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        return 2
    for w in split_stages(cdef).warnings:
        print(f"coroweave: warning: {w}", file=sys.stderr)
    try:
        if args.emit == "routine":
            text = emit_routine(cdef).text
        elif args.emit == "dynamic":
            text = emit_dynamic(cdef).text
        elif args.emit == "static":
            text = emit_static(cdef, args.width).text
        elif args.emit == "hybrid":
            text = emit_hybrid(cdef, args.width).text
        else:
            text = fsm_dump(split_stages(cdef))
    except (CodegenError, LoweringError) as e:
        print(f"coroweave: {e}", file=sys.stderr)
        return 2
    return 0 if _write(text, args.output) else 2


def _cmd_selftest() -> int:
    failures = selftest()
    if failures:
        for f in failures:
            print(f"coroweave: {f}", file=sys.stderr)
        return 1
    print("selftest ok: all kernels agree with their baselines")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "gen":
        return _cmd_gen(args)
    return _cmd_selftest()


if __name__ == "__main__":
    sys.exit(main())
