"""Run one workload on several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload chase --runs 10
    python3 perfbench/repeat.py --workload chase --runs 10 --out a.json
    python3 perfbench/repeat.py --workload chase --runs 10 --against a.json

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every metric its median, first and third quartile and spread (the
distance between the quartiles over the median).  An end-to-end
metric's spread should stay under a third of its bound in
``BENCHMARK.json`` (``setup_s`` is exempt); ``--against`` compares the
medians with an earlier set saved with ``--out`` and flags any metric
that got worse by more than its bound.  The share of failed operations
must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="save every run's values here")
    p.add_argument("--against", type=Path, help="compare medians with a saved set")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = run_once(args.workload, seed, seconds, args.trace)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']}"
              f" failed={r['failed']}", flush=True)
    values = {name: [r["metrics"][name]["value"] for r in results]
              for name in results[0]["metrics"]}
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    ok = all(r["correct"] for r in results) and len(shares) == 1
    print(f"failed share per run: {shares}")
    earlier = {}
    if args.against:
        saved = json.loads(args.against.read_text())
        earlier = saved["values"]
        if saved["failed_shares"] != shares:
            print(f"failed share differs from earlier set: {saved['failed_shares']}")
            ok = False
    for name, vals in values.items():
        med, q1, q3, spread = summarise(vals)
        line = f"{name:48s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
        b = bounds.get(name)
        if b is not None:
            steady = name == "setup_s" or spread < b["bound"] / 3
            line += f"  bound {b['bound']}  {'steady' if steady else 'UNSTEADY'}"
            ok &= steady
            if name in earlier:
                before = statistics.median(earlier[name])
                worse = (med - before) / before
                if b["better"] == "higher":
                    worse = -worse
                line += f"  vs earlier {worse:+.4f} worse"
                if worse > b["bound"]:
                    line += " REGRESSED"
                    ok = False
        print(line)
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "values": values,
                                        "failed_shares": shares}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
