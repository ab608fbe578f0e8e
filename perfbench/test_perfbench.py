"""The benchmark's own checks, on small sizes.

    python3 -m pytest -q perfbench

A deliberately wrong result from a generated unit must fail the run
and name the workload, kernel or definition, policy and query index.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench.common import ROOT, Mismatch, use_checkout_source

use_checkout_source()

from perfbench import pipeline, run, workloads  # noqa: E402
from perfbench.spans import NULL, per_layer  # noqa: E402

WRONG = object()


class SmallChase(workloads.Chase):
    elements, queries, setups = 300, 96, 1


class SmallProbe(workloads.Probe):
    elements, request, requests, setups = 300, 20, 4, 1


class SmallCompile(workloads.Compile):
    elements, synth_defs, setups = 64, 6, 1


def one_round(wl) -> workloads.Round:
    state = wl.setup(NULL)
    wl.prepare(state)
    rnd = workloads.Round()
    wl.round(state, NULL, rnd)
    return rnd


def corrupt(monkeypatch, entry: str, method: str) -> None:
    """Make every unit loaded from ``entry`` give wrong results via ``method``."""
    real = pipeline.load_unit

    def load(src):
        make = real(src)
        if src.entry != entry:
            return make

        def factory(*shared):
            cls = make(*shared)
            if method == "result":
                return type(cls.__name__, (cls,), {"__slots__": (),
                                                   "result": lambda self: WRONG})

            def fini(self, out):
                cls.fini(self, out)
                out[0] = WRONG

            return type(cls.__name__, (cls,), {"__slots__": (), "fini": fini})

        return factory

    monkeypatch.setattr(pipeline, "load_unit", load)


def test_wrong_dynamic_result_fails_chase(monkeypatch):
    corrupt(monkeypatch, "make_bst_find", "result")
    with pytest.raises(Mismatch, match=r"chase/bt/simplest: query 0: got <object"):
        one_round(SmallChase(1))


def test_wrong_static_result_fails_probe(monkeypatch):
    corrupt(monkeypatch, "make_hashtable_find_48", "fini")
    with pytest.raises(Mismatch, match=r"probe/ht/static: query 0: got <object"):
        one_round(SmallProbe(1))


def test_wrong_synthetic_result_fails_compile(monkeypatch):
    corrupt(monkeypatch, "make_syn0", "result")
    with pytest.raises(Mismatch, match=r"compile/syn0/simplest: query 0: got <object"):
        one_round(SmallCompile(1))


@pytest.mark.parametrize("wl", [SmallChase, SmallProbe])
def test_streams_check_every_query_and_fail_none(wl):
    rnd = one_round(wl(3))
    assert rnd.failed == 0
    assert rnd.attempted == sum(rnd.queries.values())


def test_compile_fails_only_the_deep_tail_resume():
    rnd = one_round(SmallCompile(3))
    # 7 kernel defs, the synthetic defs and the tail-resume def.
    assert (rnd.attempted, rnd.failed) == (7 + 6 + 1, 1)


@pytest.mark.parametrize("wl", [SmallChase, SmallProbe, SmallCompile])
def test_every_declared_metric_is_reported(wl):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = wl(2)
    setup_s, rounds, _, _ = run.measure(w, 0)
    e2e, _ = w.metrics(setup_s, rounds)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert all(v > 0 for v, _ in e2e.values())
    tr, rnd = run.traced(w)
    layers = per_layer(tr, 0.0)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layers}.items())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
