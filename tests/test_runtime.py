"""Finalizer hashes and the prefetch observation hook."""

import pytest
from hypothesis import given, strategies as st

from coroweave import runtime
from coroweave.runtime import (
    BatchCoroutine,
    StepCoroutine,
    fmix32,
    fmix64,
    prefetch_hook,
    set_prefetch_hook,
)


def ref32(x: int) -> int:
    """Table-driven reimplementation, kept apart from the shipped one."""
    h = x & 0xFFFFFFFF
    for shift, mul in ((16, 0x85EBCA6B), (13, 0xC2B2AE35), (16, 1)):
        h ^= h >> shift
        h = (h * mul) & 0xFFFFFFFF
    return h


def ref64(x: int) -> int:
    h = x & 0xFFFFFFFFFFFFFFFF
    for shift, mul in ((33, 0xFF51AFD7ED558CCD), (33, 0xC4CEB9FE1A85EC53), (33, 1)):
        h ^= h >> shift
        h = (h * mul) & 0xFFFFFFFFFFFFFFFF
    return h


FROZEN32 = {
    0: 0x00000000,
    1: 0x514E28B7,
    2: 0x30F4C306,
    0x12345678: 0xE37CD1BC,
    0xDEADBEEF: 0x0DE5C6A9,
    0xFFFFFFFF: 0x81F16F39,
}

FROZEN64 = {
    0: 0x0000000000000000,
    1: 0xB456BCFC34C2CB2C,
    2: 0x3ABF2A20650683E7,
    0x0123456789ABCDEF: 0x87CBFBFE89022CEA,
    0xDEADBEEFCAFEBABE: 0x7082995008F0C48C,
    2**64 - 1: 0x64B5720B4B825F21,
}


def test_fmix32_frozen_vectors():
    for x, want in FROZEN32.items():
        assert fmix32(x) == want, hex(x)


def test_fmix64_frozen_vectors():
    for x, want in FROZEN64.items():
        assert fmix64(x) == want, hex(x)


def test_zero_is_a_fixed_point():
    assert fmix32(0) == 0
    assert fmix64(0) == 0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fmix32_matches_reference(x):
    assert fmix32(x) == ref32(x)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_fmix64_matches_reference(x):
    assert fmix64(x) == ref64(x)


def test_wide_inputs_are_masked():
    assert fmix32(2**40 + 5) == fmix32(5)
    assert fmix64(2**70 + 5) == fmix64(5)


def test_fmix32_injective_on_a_window():
    n = 10_000
    assert len({fmix32(i) for i in range(n)}) == n


def test_fmix64_injective_on_a_window():
    n = 10_000
    assert len({fmix64(i) for i in range(n)}) == n


def test_results_stay_in_range():
    for i in range(0, 2**32, 2**28):
        assert 0 <= fmix32(i) < 2**32
    for i in range(0, 2**64, 2**60):
        assert 0 <= fmix64(i) < 2**64


class TestPrefetchHook:
    def test_noop_by_default(self):
        assert runtime.mark is callable
        runtime.mark(object())

    def test_hook_sees_addresses(self):
        seen = []
        set_prefetch_hook(seen.append)
        try:
            runtime.mark(41)
            runtime.mark("p")
        finally:
            set_prefetch_hook(None)
        assert seen == [41, "p"]
        runtime.mark(999)
        assert seen == [41, "p"]

    def test_context_manager_restores_previous(self):
        outer, inner = [], []
        with prefetch_hook(outer.append):
            runtime.mark(1)
            with prefetch_hook(inner.append):
                runtime.mark(2)
            runtime.mark(3)
        runtime.mark(4)
        assert outer == [1, 3]
        assert inner == [2]

    def test_context_manager_restores_on_error(self):
        probe = []
        try:
            with prefetch_hook(probe.append):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert runtime._hook is None


def _generated_classes():
    """A loaded class of each generated shape."""
    from coroweave import emit_dynamic, emit_hybrid, emit_static, load_unit
    from coroweave.kernels import KERNELS
    from coroweave.kernels.defs import hashtable_find_def

    ht = hashtable_find_def(static_hints=True)
    return {
        "dynamic": load_unit(emit_dynamic(KERNELS["bt"].build_def()))(),
        "static": load_unit(emit_static(ht, 2))([0, 0], [0, 0], 1),
        "hybrid": load_unit(emit_hybrid(ht, 2))([0, 0], [0, 0], 1),
    }


def test_generated_units_satisfy_the_protocols():
    classes = _generated_classes()
    assert isinstance(classes["dynamic"](None, 1), StepCoroutine)
    for shape in ("static", "hybrid"):
        assert isinstance(classes[shape](), BatchCoroutine), shape


# The methods perfbench's tracer looks up on each shape and wraps.
TRACED_METHODS = {
    "dynamic": ("__init__", "step", "reset"),
    "static": ("init", "super_step", "fini"),
    "hybrid": ("init", "run_prefix", "step_slot", "fini"),
}


@pytest.mark.parametrize("shape", sorted(TRACED_METHODS))
def test_generated_units_have_the_traced_methods(shape):
    cls = _generated_classes()[shape]
    for method in TRACED_METHODS[shape]:
        assert callable(getattr(cls, method, None)), method


def _kernel_runs():
    """Each kernel's dynamic definition, shared args and a few queries."""
    from coroweave.kernels import KERNELS

    for name, k in sorted(KERNELS.items()):
        ds = k.make_dataset(256, 5)
        yield name, k.build_def(), k.shared(ds), k.make_queries(ds, 40, 6)


class TestMarkBinding:
    """Marked loads call ``runtime.mark``, rebound by ``set_prefetch_hook``."""

    def test_unit_loaded_before_the_hook_reports_every_address(self):
        from coroweave import SchedulerConfig, emit_dynamic, interleave_map, load_unit

        cfg = SchedulerConfig(width=4)
        for name, cdef, shared, queries in _kernel_runs():
            early = load_unit(emit_dynamic(cdef))(*shared)
            before, inside = [], []
            with prefetch_hook(before.append):
                want = interleave_map(cfg, early, queries)
            with prefetch_hook(inside.append):
                late = load_unit(emit_dynamic(cdef))(*shared)
                assert interleave_map(cfg, late, queries) == want
            assert before, name
            # nodes compare by identity, array cells by value
            assert before == inside, name
            # unhooked again: the early unit reports nothing more
            interleave_map(cfg, early, queries)
            assert len(before) == len(inside), name

    def test_no_hook_costs_no_python_frame(self):
        import inspect
        import sys

        from coroweave import emit_dynamic, load_unit
        from coroweave.kernels import KERNELS
        from coroweave.kernels.datasets import make_bst

        tree = make_bst(256, 3)
        cls = load_unit(emit_dynamic(KERNELS["bt"].build_def()))()
        insts = [cls(tree.root, k) for k in tree.keys[:8]]
        frames = []

        def profile(frame, event, arg):
            if event == "call":
                frames.append(frame.f_code)

        assert runtime._hook is None
        sys.setprofile(profile)
        try:
            # each instance's generator, stepped without step()'s frame
            for inst in insts:
                while not next(inst._gen, True):
                    pass
        finally:
            sys.setprofile(None)
        assert [inst.result().key for inst in insts] == tree.keys[:8]
        # resuming a lane generator is a call event; nothing else may be
        assert frames
        assert [c.co_name for c in frames if not c.co_flags & inspect.CO_GENERATOR] == []

    def test_no_hook_binding_never_calls_into_its_argument(self):
        class Hostile:
            def __bool__(self):
                raise AssertionError("bool")

            def __hash__(self):
                raise AssertionError("hash")

            def __eq__(self, other):
                raise AssertionError("eq")

            def __len__(self):
                raise AssertionError("len")

        from coroweave import emit_dynamic, load_unit
        from coroweave.dsl import coroutine, prefetch as mark_stmt, yield_

        assert runtime._hook is None
        runtime.mark(Hostile())
        cdef = coroutine("touch").arg("object", "p").body(mark_stmt("p"), yield_())
        inst = load_unit(emit_dynamic(cdef))()(Hostile())
        while not inst.step():
            pass
