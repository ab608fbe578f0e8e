"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chase --seed 1 --seconds 10 --trace 0

Prints one ``row`` line per kernel and policy, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(tracing off); with ``--trace 1`` the same untraced measurement runs
first, then one traced set-up and round, and the metrics are the
per-layer ones.  Spans go to ``perfbench/out/``.

Exit codes: 0 when every output checked out, 1 on a wrong result, 2
when the checkout holds no coroweave sources or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median
from time import perf_counter_ns as clock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, Mismatch, SourceMissing, use_checkout_source  # noqa: E402

MIN_ROUNDS = 5


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure(wl, seconds: float):
    """Untraced: repeated set-ups, one warm-up round, then timed rounds."""
    from perfbench.spans import NULL
    from perfbench.workloads import Round

    setup_s = []
    for _ in range(wl.setups):
        state = None  # free the previous set-up before timing the next
        gc.collect()
        t0 = clock()
        state = wl.setup(NULL)
        setup_s.append((clock() - t0) / 1e9)
    wl.prepare(state)
    warm = Round()
    wl.round(state, NULL, warm)
    rounds = []
    deadline = clock() + int(seconds * 1e9)
    while clock() < deadline or len(rounds) < MIN_ROUNDS:
        rnd = Round()
        t0 = clock()
        wl.round(state, NULL, rnd)
        rnd.wall_ns = clock() - t0
        rounds.append(rnd)
    attempted = warm.attempted + sum(r.attempted for r in rounds)
    failed = warm.failed + sum(r.failed for r in rounds)
    return setup_s, rounds, attempted, failed


def traced(wl):
    """One traced set-up and round, counting prefetch calls through the hook."""
    from coroweave.runtime import prefetch_hook
    from perfbench.spans import Tracer
    from perfbench.workloads import Round

    tr = Tracer()
    gc.collect()
    tr.calibrate()
    state = wl.setup(tr)
    wl.prepare(state)
    rnd = Round()
    # A C-level hook keeps the counting cheap: one list append per call.
    announced: list = []
    with prefetch_hook(announced.append):
        t0 = clock()
        wl.round(state, tr, rnd)
        rnd.wall_ns = clock() - t0
    tr.counts["prefetch"] = len(announced)
    return tr, rnd


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("chase", "probe", "compile"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        use_checkout_source()
    except SourceMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    from perfbench.spans import per_layer
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    env = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "git_rev": git_revision(), "workload": args.workload, "seed": args.seed}
    print("env " + json.dumps(env))
    try:
        setup_s, rounds, attempted, failed = measure(wl, args.seconds)
        metrics, rows = wl.metrics(setup_s, rounds)
        for row in rows:
            print(row)
        print(f"rounds {len(rounds)} setups {len(setup_s)}")
        if args.trace:
            tr, rnd = traced(wl)
            base = median(r.wall_ns for r in rounds)
            metrics = per_layer(tr, (rnd.wall_ns - base) / 1e9)
            out = ROOT / "perfbench" / "out" / f"trace-{args.workload}-{args.seed}.json"
            tr.write(out, {**env, "untraced_round_ns": base, "traced_round_ns": rnd.wall_ns,
                           "child_cost_ns": tr.child_cost_ns})
            print(f"spans {len(tr.spans) // 4} written to {out.relative_to(ROOT)}")
    except Mismatch as e:
        print(f"perfbench: wrong result: {e}", file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
