"""Generated units: determinism, compilation, and semantic equivalence.

The sequential routine is the ground truth; every other unit kind must
agree with it on results, whatever the interleaving machinery does.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defgen
from coroweave import (
    CodegenError,
    LoweringError,
    SchedulerConfig,
    emit_dynamic,
    emit_hybrid,
    emit_routine,
    emit_static,
    fsm_dump,
    load_unit,
    parse_builder_source,
    run_hybrid,
    run_static_batch,
    split_stages,
    straight_line_error,
    to_builder_source,
)
from coroweave import codegen, dsl, lowering, runtime
from coroweave.dsl import (
    assign,
    break_,
    call,
    continue_,
    coroutine,
    do_,
    if_,
    load,
    prefetch,
    opaque,
    return_,
    store,
    switch_,
    while_,
    yield_,
)
from coroweave.kernels import KERNELS
from coroweave.kernels.defs import binary_search_def, hashtable_find_def
from fsm_interp import run_fsm


def staged_def():
    """Two static stages and a finish; straight-line by construction."""
    return (
        coroutine("pipeline")
        .result("int", "out")
        .arg("int", "x")
        .variable("int", "t", "0")
        .body(
            assign("t", "x * 2 + 1"),
            yield_("static"),
            assign("t", "t + 7"),
            yield_("static"),
            return_("t ^ 3"),
        )
    )


def hybrid_tail_def():
    """Static two-stage prefix, then a data-dependent loop."""
    return (
        coroutine("mixer")
        .result("int", "out")
        .arg("int", "x")
        .variable("int", "t", "0")
        .variable("int", "c", "0")
        .body(
            assign("t", "x + 1"),
            yield_("static"),
            assign("c", "t % 4"),
            yield_("static"),
            while_("(c := c - 1) >= 0").do_(
                assign("t", "t * 3 + 1"),
                yield_(),
            ),
            return_("t & 0xFFFF"),
        )
    )


def gnarly_def():
    """Every routine-emitter escape at once.

    A do-while whose body continues (printed as the condition check), a
    switch inside it whose arm breaks the switch, a continue routed
    through the switch wrapper's flag, and a conditional self tail-resume.
    """
    return (
        coroutine("gnarly")
        .result("int", "r")
        .arg("int", "x")
        .variable("int", "acc", "0")
        .variable("int", "i", "4")
        .body(
            do_(
                assign("i", "i - 1"),
                if_("i == 3").then_(continue_()),
                switch_("i % 3")
                .case_("0", assign("acc", "acc + 1"), break_(), assign("acc", "acc + 999"))
                .case_("1", if_("x > 50").then_(continue_()), assign("acc", "acc + 10"))
                .default_(assign("acc", "acc + 100")),
                yield_(),
                assign("acc", "acc + 1000"),
            ).while_("i > 0"),
            if_("x == 7").then_(call("gnarly", "x + 93")),
            return_("acc * 1000 + x"),
        )
    )


def countdown_def():
    """``acc + x*(x+1)//2`` by one self tail-resume per level."""
    return (
        coroutine("countdown").result("int", "res").arg("int", "x").arg("int", "acc")
        .body(
            if_("x == 0").then_(return_("acc")),
            prefetch("x"),
            yield_(),
            call("countdown", "x - 1", "acc + x"),
        )
    )


def nested_countdown_def():
    """The countdown, resuming from inside a switch in a do-while in a while.

    The switch arm that breaks wraps the switch in a one-shot loop, so
    the resume has three Python loops to escape.
    """
    return (
        coroutine("drain").result("int", "res").arg("int", "x").arg("int", "acc")
        .variable("int", "k", "2")
        .body(
            while_("k > 0").do_(
                assign("k", "k - 1"),
                do_(
                    if_("x < 0").then_(continue_()),
                    yield_(),
                    switch_("x")
                    .case_("0", break_())
                    .default_(call("drain", "x - 1", "acc + x")),
                ).while_("False"),
            ),
            return_("acc"),
        )
    )


def relay_def():
    """Two static stages, then a tail-resume that re-enters them."""
    return (
        coroutine("relay")
        .result("int", "out")
        .arg("int", "x")
        .variable("int", "t", "x * 3")
        .body(
            assign("t", "t + 1"),
            yield_("static"),
            assign("t", "t ^ 5"),
            yield_("static"),
            if_("x > 1").then_(call("relay", "x // 2")),
            return_("t + x"),
        )
    )


def run_dynamic(cls, *args, step_cap=100_000):
    inst = cls(*args)
    steps = 0
    while not inst.step():
        steps += 1
        assert steps < step_cap
    return inst.result()


ALL_DEFS = sorted(KERNELS) + ["pipeline", "mixer", "gnarly", "ht-hinted"]


def build(name):
    if name in KERNELS:
        return KERNELS[name].build_def()
    return {
        "pipeline": staged_def,
        "mixer": hybrid_tail_def,
        "gnarly": gnarly_def,
        "ht-hinted": lambda: hashtable_find_def(static_hints=True),
    }[name]()


class TestDeterminismAndShape:
    @pytest.mark.parametrize("name", ALL_DEFS)
    def test_emitters_are_deterministic(self, name):
        # two separately built definitions: one object keeps its printed text
        a, b = build(name), build(name)
        for emit in (emit_routine, emit_dynamic):
            assert emit(a).text == emit(b).text

    def test_static_and_hybrid_deterministic(self):
        assert emit_static(staged_def(), 4).text == emit_static(staged_def(), 4).text
        assert emit_hybrid(hybrid_tail_def(), 4).text == emit_hybrid(hybrid_tail_def(), 4).text

    @pytest.mark.parametrize("name", ALL_DEFS)
    def test_generated_units_compile(self, name):
        d = build(name)
        for src in (emit_routine(d), emit_dynamic(d)):
            compile(src.text, "<unit>", "exec")

    def test_header_banner(self):
        src = emit_dynamic(staged_def())
        first = src.text.splitlines()[0]
        assert first.startswith("# Automatically generated by coroweave ")
        assert "'pipeline'" in first
        assert "Do not edit by hand" in first
        assert "from coroweave.runtime import" in src.text.split("\n\n", 1)[0]

    def test_entry_names(self):
        d = staged_def()
        assert emit_routine(d).entry == "pipeline"
        assert emit_dynamic(d).entry == "make_pipeline"
        assert emit_static(d, 6).entry == "make_pipeline_6"
        assert emit_hybrid(hybrid_tail_def(), 6).entry == "make_hybrid_mixer_6"

    def test_dynamic_snippets(self):
        src = emit_dynamic(KERNELS["bt"].build_def())
        text = src.text
        assert "\n\ndef _lane():\n    def _run(_t, _out, _i):\n        n, key, = _t\n" in text
        assert text.count("_rt.unit(") == 1
        # the dynamic factory is the end of the lane chunk: the unit adds nothing to it
        assert src.factory == "" and text == src.chunk.text
        assert text.endswith(
            "    return _run\n\n\ndef make_bst_find():\n"
            "    return _rt.unit(_rt.DynamicUnit, 'CoroutineState_bst_find', _lane())\n"
        )
        assert "class " not in text and "def __init__" not in text
        assert "def step(" not in text and "def reset(" not in text
        # a generator unit dispatches on nothing and holds no FSM state
        assert "_b = " not in text and "_state" not in text

    def test_lane_units_hold_no_fsm_state(self):
        # every static and hybrid unit the kernels and the mixer admit
        # runs lane generators: no block dispatch, no state column
        texts = {}
        for name, k in sorted(KERNELS.items()):
            for shape, emit, build_def in (
                ("static", emit_static, k.build_def),
                ("hybrid", emit_hybrid, k.build_hybrid_def or k.build_def),
            ):
                try:
                    texts[name, shape] = emit(build_def(), 8).text
                except CodegenError:
                    pass
        texts["mixer", "hybrid"] = emit_hybrid(hybrid_tail_def(), 4).text
        assert sorted(texts) == [("ht", "hybrid"), ("ht", "static"), ("mixer", "hybrid")]
        for key, text in texts.items():
            assert "_b =" not in text and "_state" not in text, key

    def test_units_print_only_their_lane(self):
        # the runtime builds every class: a unit prints no class statement
        for name, make in DIGEST_DEFS.items():
            for shape in SHAPES[1:-1]:
                text = emission(make(), shape)
                if text.startswith("CodegenError"):
                    continue
                key = name, shape[0]
                assert text.count("    def _run(_t, _out, _i):\n") == 1, key
                # the lane chunk's dynamic factory, then a batch unit's own
                assert text.count("_rt.unit(") == 1 + (shape[0] != "dynamic"), key
                for banned in ("class ", "def __init__", "def init"):
                    assert banned not in text, (key, banned)


class TestDynamicUnit:
    def test_step_contract(self):
        d = staged_def()
        cls = load_unit(emit_dynamic(d))()
        inst = cls(10)
        assert not inst.done()
        assert inst.step() is False
        assert inst.step() is False
        assert inst.step() is True
        assert inst.done()
        assert inst.result() == ((10 * 2 + 1) + 7) ^ 3
        # completion is sticky
        assert inst.step() is True
        assert inst.done()

    def test_zero_suspension_unit_finishes_in_one_step(self):
        d = coroutine("now").result("int").arg("int", "x").body(return_("x + 1"))
        cls = load_unit(emit_dynamic(d))()
        inst = cls(4)
        assert not inst.done()
        assert inst.step() is True
        assert inst.result() == 5

    def test_result_is_none_without_result_decl(self):
        d = coroutine("fire").arg("int", "x").body(yield_(), return_())
        cls = load_unit(emit_dynamic(d))()
        inst = cls(1)
        while not inst.step():
            pass
        assert inst.result() is None

    def test_reset_restores_mutated_args(self):
        # the body consumes its arg via walrus decrement
        d = (
            coroutine("burn")
            .result("int", "spent")
            .arg("int", "fuel")
            .variable("int", "hops", "0")
            .body(
                while_("(fuel := fuel - 1) >= 0").do_(
                    assign("hops", "hops + 1"),
                    yield_(),
                ),
                return_("hops"),
            )
        )
        cls = load_unit(emit_dynamic(d))()
        inst = cls(3)
        while not inst.step():
            pass
        assert inst.result() == 3
        inst.reset()
        assert not inst.done()
        while not inst.step():
            pass
        assert inst.result() == 3

    def test_reset_does_not_reenter_init(self):
        cls = load_unit(emit_dynamic(staged_def()))()
        inits = []

        class Counted(cls):
            __slots__ = ()

            def __init__(self, *args):
                inits.append(args)
                super().__init__(*args)

        inst = Counted(10)
        want = run_dynamic(cls, 10)
        for _round in range(2):
            while not inst.step():
                pass
            assert inst.result() == want
            inst.reset()
            assert not inst.done()
        assert inits == [(10,)]

    def test_wrong_arity_fails_at_first_step(self):
        # the lane unpacks its task tuple on its first resume
        cls = load_unit(emit_dynamic(KERNELS["bt"].build_def()))()
        for args in [(None, 2, 3), (None,)]:
            inst = cls(*args)
            with pytest.raises(ValueError, match="to unpack"):
                inst.step()
        bare = load_unit(emit_dynamic(coroutine("now").result("int").body(return_("1"))))()
        assert run_dynamic(bare) == 1
        with pytest.raises(ValueError, match="to unpack"):
            bare(7).step()

    def test_shared_args_bind_at_factory_call(self):
        d = (
            coroutine("reader")
            .result("int", "v")
            .shared_arg("list", "table")
            .arg("int", "i")
            .body(yield_(), return_("table[i]"))
        )
        make = load_unit(emit_dynamic(d))
        table = [10, 20, 30]
        cls = make(table)
        assert run_dynamic(cls, 1) == 20
        table[1] = 99  # shared by reference, not copied
        assert run_dynamic(cls, 1) == 99

    def test_tail_resume_reruns_variable_inits(self):
        d = gnarly_def()
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_dynamic(d))()
        assert run_dynamic(cls, 7) == routine(7)  # x == 7 restarts with x = 100

    @pytest.mark.parametrize("make_def", [countdown_def, nested_countdown_def])
    def test_deep_tail_resume_needs_no_recursion(self, make_def):
        d = make_def()
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_dynamic(d))()
        for x in (0, 1, 6, 5000):
            want = 11 + x * (x + 1) // 2
            assert routine(x, 11) == want
            assert run_dynamic(cls, x, 11) == want

    @settings(max_examples=60, deadline=None)
    @given(defgen.coroutine_defs())
    def test_matches_routine_everywhere(self, d):
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_dynamic(d))()
        for x in (0, 1, 7, 58, 999):
            assert run_dynamic(cls, x) == routine(x)

    @settings(max_examples=25, deadline=None)
    @given(defgen.coroutine_defs())
    def test_reset_law_everywhere(self, d):
        cls = load_unit(emit_dynamic(d))()
        inst = cls(37)
        while not inst.step():
            pass
        first = inst.result()
        inst.reset()
        while not inst.step():
            pass
        assert inst.result() == first


class TestRoutineControlFlow:
    def test_gnarly_matches_dynamic_on_probe_grid(self):
        d = gnarly_def()
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_dynamic(d))()
        for x in range(0, 120, 5):
            assert run_dynamic(cls, x) == routine(x), x

    def test_do_while_without_continue_stays_plain(self):
        d = coroutine("k").result("int").arg("int", "x").body(
            do_(assign("x", "x - 1")).while_("x > 0"),
            return_("x"),
        )
        text = emit_routine(d).text
        assert "_once" not in text and "_brk" not in text
        assert load_unit(emit_routine(d))(5) == 0

    def test_empty_suites_emit_pass(self):
        d = coroutine("k").arg("int", "x").body(
            if_("x > 0").then_().else_(),
            return_(),
        )
        fn = load_unit(emit_routine(d))
        assert fn(1) is None

    def test_opaque_text_is_reindented(self):
        d = coroutine("k").result("int").arg("int", "x").variable("int", "t", "0").body(
            if_("x > 0").then_(
                opaque("for q in range(3):\n    t = t + q"),
            ),
            return_("t"),
        )
        assert load_unit(emit_routine(d))(1) == 3
        assert load_unit(emit_routine(d))(0) == 0

    def test_switch_without_default_falls_past(self):
        d = coroutine("k").result("int").arg("int", "x").variable("int", "t", "0").body(
            switch_("x % 2").case_("0", assign("t", "10")),
            return_("t"),
        )
        fn = load_unit(emit_routine(d))
        assert fn(2) == 10
        assert fn(3) == 0

    def test_rejects_invalid_definition(self):
        with pytest.raises(CodegenError, match="does not validate"):
            emit_routine(coroutine("k").body(break_()))

    def test_nesting_stops_at_pythons_indentation_limit(self):
        # CPython refuses a line indented 100 levels deep.  The lane prints
        # the body two levels in and the routine one, so ``n`` nested ifs
        # put the innermost statements on level n + 2 and n + 1.
        def nested(n):
            inner = (yield_(), return_("x"))
            for k in reversed(range(n)):
                inner = (if_(f"x > {k}").then_(*inner),)
            return coroutine("deep").result("int").arg("int", "x").body(*inner, return_("-1"))

        refusal = "deep: a statement nests past Python's limit of 99 indentation levels"
        with pytest.raises(CodegenError, match=refusal):
            emit_dynamic(nested(98))
        with pytest.raises(CodegenError, match=refusal):
            emit_routine(nested(99))
        d = nested(97)
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_dynamic(d))()
        for x in (0, 50, 97, 200):
            assert run_dynamic(cls, x) == routine(x) == (x if x > 96 else -1)
        assert load_unit(emit_routine(nested(98)))(98) == 98

    @pytest.mark.parametrize("shape", ["routine", "dynamic", "static5", "hybrid5"])
    def test_opaque_text_stops_at_pythons_indentation_limit(self, shape):
        # The opaque text's second line sits a level below its first:
        # ``n`` nested ifs put it on level n + 3 in a lane, n + 2 in the routine.
        _, emit, args = next(s for s in SHAPES if s[0] == shape)

        def nested(n):
            inner = (opaque("if x:\n    x = 1"),)
            for k in reversed(range(n)):
                inner = (if_(f"x > {k}").then_(*inner),)
            return (coroutine("deep").result("int").arg("int", "x")
                    .body(yield_("static"), *inner, return_("x")))

        n = 97 if shape == "routine" else 96
        with pytest.raises(CodegenError, match="deep: opaque text nests past Python's"
                                               " limit of 99 indentation levels"):
            emit(nested(n + 1), *args)
        make = load_unit(emit(nested(n), *args))
        assert run_shape(emit, args, make, [(0,), (n - 1,), (n,)]) == [0, n - 1, 1]

    def test_restart_loop_returns_after_a_last_plain_statement(self):
        # The tail resume sits inside an if, so the body is printed as a
        # restart loop; its last statement is neither a return nor a call,
        # so the loop needs its own trailing return to stop.
        d = (
            coroutine("countlog").arg("int", "n").arg("list", "log")
            .body(
                yield_("static"),
                if_("n > 0").then_(opaque("log.append(-n)"), call("countlog", "n - 1", "log")),
                opaque("log.append(n)"),
            )
        )
        assert emit_routine(d).text.endswith("        log.append(n)\n        return\n")
        ns = [0, 1, 3, 4, 7]
        want = [[-k for k in range(n, 0, -1)] + [0] for n in ns]
        fsm = split_stages(d)
        logs = [[] for _ in ns]
        for n, log in zip(ns, logs):
            run_fsm(fsm, {"n": n, "log": log})
        assert logs == want
        # the loop back to state 0 leaves lockstep out; hybrid runs it after its prefix
        for name, emit, args in [sh for sh in SHAPES if not sh[0].startswith(("static", "fsm"))]:
            logs = [[] for _ in ns]
            run_shape(emit, args, load_unit(emit(d, *args)), list(zip(ns, logs)))
            assert logs == want, name

    def test_empty_suites_print_inline_and_round_trip(self):
        d = coroutine("k").result("int").arg("int", "x").variable("int", "i", "0").body(
            if_("x > 0").then_(),
            while_("(i := i + 1) < x").do_(),
            return_("i"),
        )
        text = to_builder_source(d)
        assert "  if_('x > 0').then_(),\n" in text
        assert "  while_('(i := i + 1) < x').do_(),\n" in text
        back = parse_builder_source(text)
        assert back == d
        routine = load_unit(emit_routine(back))
        cls = load_unit(emit_dynamic(back))()
        for x in (0, 1, 5):
            assert run_dynamic(cls, x) == routine(x) == max(x, 1)


class TestMemoryOps:
    def test_load_store_suspend_before_use(self):
        class Node:
            def __init__(self):
                self.next = self
                self.val = 5

        d = (
            coroutine("touch")
            .result("int", "seen")
            .arg("object", "p")
            .variable("object", "v")
            .body(
                load("v", "p.next", yield_before=True),
                store("v.val", "v.val * 2", yield_before=True),
                return_("v.val"),
            )
        )
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_dynamic(d))()
        a, b = Node(), Node()
        inst = cls(a)
        assert inst.step() is False  # suspended after address evaluation
        assert inst.step() is False  # suspended before the store lands
        assert a.val == 5
        assert inst.step() is True
        assert inst.result() == 10 and a.val == 10
        assert routine(b) == 10 and b.val == 10
        assert "_addr" in emit_dynamic(d).text


# width 1, an odd width, and a width above the task count
FUZZ_WIDTHS = (1, 3, 8)
FUZZ_TASKS = [(x,) for x in (0, 1, 7, 58, 999)]


def run_lockstep(runner, make, width):
    out = [None] * len(FUZZ_TASKS)
    runner(SchedulerConfig(width=width), make(), FUZZ_TASKS, out)
    return out


def unset_read_def():
    """Reads a declared variable that has no initializer and no assignment."""
    return (
        coroutine("unset")
        .result("int", "out")
        .arg("int", "x")
        .variable("int", "t")
        .body(yield_("static"), return_("t"))
    )


def test_unset_read_raises_in_every_shape():
    d = unset_read_def()
    with pytest.raises(NameError):
        load_unit(emit_routine(d))(1)
    with pytest.raises(NameError):
        run_dynamic(load_unit(emit_dynamic(d))(), 1)
    with pytest.raises(NameError):
        run_lockstep(run_static_batch, load_unit(emit_static(d, 2))(), 2)
    with pytest.raises(NameError):
        run_lockstep(run_hybrid, load_unit(emit_hybrid(d, 2))(), 2)


def counting_def():
    """Counts each task's visits in a shared list, between two static yields."""
    return (
        coroutine("visits")
        .result("int", "out")
        .shared_arg("list", "cnt")
        .arg("int", "k")
        .body(
            yield_("static"),
            store("cnt[k]", "cnt[k] + 1"),
            yield_("static"),
            return_("cnt[k]"),
        )
    )


@pytest.mark.parametrize("runner, emit", [(run_static_batch, emit_static), (run_hybrid, emit_hybrid)])
def test_short_group_stores_once_per_task(runner, emit):
    # 5 tasks at width 4: the final group holds task 4 alone
    cnt = [0] * 5
    out = [None] * 5
    runner(SchedulerConfig(width=4), load_unit(emit(counting_def(), 4))(cnt)(),
           [(k,) for k in range(5)], out)
    assert out == [1] * 5
    assert cnt == [1] * 5


# widths that leave the 5 fuzz tasks a short final group
SHORT_GROUP_WIDTHS = (3, 8)


def assert_tallies_match_routine(d, runner, emit):
    routine = load_unit(emit_routine(d))
    want_tally = [0] * defgen.TALLY_CELLS
    want = [routine(x, want_tally) for (x,) in FUZZ_TASKS]
    for width in SHORT_GROUP_WIDTHS:
        tally = [0] * defgen.TALLY_CELLS
        assert run_lockstep(runner, load_unit(emit(d, width))(tally), width) == want, width
        assert tally == want_tally, width


def assert_super_steps(d, *shared):
    """Each group's super_step() is False once per suspension, then True for good."""
    n = split_stages(d).suspension_count
    for width in FUZZ_WIDTHS:
        batch = load_unit(emit_static(d, width))(*shared)()
        # at widths 3 and 8 the last group is short
        for g in range(0, len(FUZZ_TASKS), width):
            batch.init(FUZZ_TASKS[g:g + width])
            steps = [batch.super_step() for _ in range(n + 3)]
            assert steps == [False] * n + [True] * 3, (width, g)


class TestStaticUnit:
    @settings(max_examples=40, deadline=None)
    @given(defgen.straight_line_defs())
    def test_matches_routine_on_straight_line_defs(self, d):
        assert straight_line_error(split_stages(d)) is None
        routine = load_unit(emit_routine(d))
        want = [routine(x) for (x,) in FUZZ_TASKS]
        for width in FUZZ_WIDTHS:
            make = load_unit(emit_static(d, width))()
            assert run_lockstep(run_static_batch, make, width) == want, width

    @settings(max_examples=40, deadline=None)
    @given(defgen.straight_line_defs(tally=True))
    def test_stores_match_routine_through_short_groups(self, d):
        assert_tallies_match_routine(d, run_static_batch, emit_static)

    def test_results_match_routine(self):
        d = staged_def()
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_static(d, 4))()
        batch = cls()
        xs = [3, 0, 11, 7]
        batch.init([(x,) for x in xs])
        rounds = 0
        while not batch.super_step():
            rounds += 1
        assert rounds == split_stages(d).suspension_count
        out = [None] * 4
        batch.fini(out)
        assert out == [routine(x) for x in xs]
        assert_super_steps(d)

    @pytest.mark.parametrize("emit", [emit_static, emit_hybrid])
    def test_wrong_arity_fails_at_first_super_step(self, emit):
        d = hashtable_find_def(static_hints=True)
        batch = load_unit(emit(d, 4))([0] * 8, [0] * 8, 7)()
        batch.init([(1,), (2, 3), (4,)])
        with pytest.raises(ValueError, match="to unpack"):
            batch.super_step()

    def test_batch_reuse_rewinds_the_schedule(self):
        # a second init() must restart stage 0, not replay stale results
        d = staged_def()
        routine = load_unit(emit_routine(d))
        batch = load_unit(emit_static(d, 2))()()
        for xs in ([1, 2], [30, 40]):
            batch.init([(x,) for x in xs])
            while not batch.super_step():
                pass
            out = [None, None]
            batch.fini(out)
            assert out == [routine(x) for x in xs]

    def test_width_one(self):
        d = staged_def()
        batch = load_unit(emit_static(d, 1))()()
        batch.init([(9,)])
        while not batch.super_step():
            pass
        out = [None]
        batch.fini(out)
        assert out == [load_unit(emit_routine(d))(9)]

    def test_rejects_branchy_definitions(self):
        with pytest.raises(CodegenError, match="data-dependent"):
            emit_static(KERNELS["bt"].build_def(), 8)

    def test_rejects_bad_width(self):
        with pytest.raises(CodegenError, match="width must be >= 1"):
            emit_static(staged_def(), 0)

    def test_hash_kernel_with_hints(self):
        d = hashtable_find_def(static_hints=True)
        assert_super_steps(d, [0] * 8, [0] * 8, 7)


class TestHybridUnit:
    def test_prefix_then_per_lane_stepping(self):
        d = hybrid_tail_def()
        routine = load_unit(emit_routine(d))
        cls = load_unit(emit_hybrid(d, 4))()
        unit = cls()
        xs = [0, 5, 6, 13]
        unit.init([(x,) for x in xs])
        unit.run_prefix()
        live = set(range(4))
        while live:
            for i in list(live):
                if unit.step_slot(i):
                    live.discard(i)
        out = [None] * 4
        unit.fini(out)
        assert out == [routine(x) for x in xs]
        assert cls._PREFIX == 2

    def test_reuse_rewinds_lane_states(self):
        d = hybrid_tail_def()
        routine = load_unit(emit_routine(d))
        unit = load_unit(emit_hybrid(d, 2))()()
        for xs in ([1, 2], [9, 4]):
            unit.init([(x,) for x in xs])
            unit.run_prefix()
            for i in range(2):
                while not unit.step_slot(i):
                    pass
            out = [None, None]
            unit.fini(out)
            assert out == [routine(x) for x in xs]

    def test_super_step_waits_for_every_lane(self):
        # lanes of a data-dependent tail finish on different steps
        d = hybrid_tail_def()
        routine = load_unit(emit_routine(d))
        make = load_unit(emit_hybrid(d, 3))()
        assert run_lockstep(run_static_batch, make, 3) == [routine(x) for (x,) in FUZZ_TASKS]

    def test_tail_resume_reenters_prefix_states(self):
        d = relay_def()
        routine = load_unit(emit_routine(d))
        make = load_unit(emit_hybrid(d, 3))()
        assert make._PREFIX == 2
        assert run_lockstep(run_hybrid, make, 3) == [routine(x) for (x,) in FUZZ_TASKS]

    @settings(max_examples=40, deadline=None)
    @given(defgen.hinted_prefix_defs())
    def test_matches_routine_on_hinted_prefix_defs(self, d):
        routine = load_unit(emit_routine(d))
        want = [routine(x) for (x,) in FUZZ_TASKS]
        for width in FUZZ_WIDTHS:
            make = load_unit(emit_hybrid(d, width))()
            assert run_lockstep(run_hybrid, make, width) == want, width

    @settings(max_examples=40, deadline=None)
    @given(defgen.hinted_prefix_defs(tally=True))
    def test_stores_match_routine_through_short_groups(self, d):
        assert_tallies_match_routine(d, run_hybrid, emit_hybrid)

    def test_rejects_unhinted_definitions(self):
        with pytest.raises(CodegenError, match="no statically scheduled stage prefix"):
            emit_hybrid(KERNELS["bt"].build_def(), 8)

    def test_rejects_bad_width(self):
        with pytest.raises(CodegenError, match="width must be >= 1"):
            emit_hybrid(hybrid_tail_def(), -2)


# -- diagnostics and FSM: one each per definition object, never shared by structure


SHAPES = [("routine", emit_routine, ()), ("dynamic", emit_dynamic, ())] + [
    (f"{emit.__name__[5:]}{w}", emit, (w,))
    for emit in (emit_static, emit_hybrid)
    for w in (1, 5, 16)
] + [("fsm", lambda d: fsm_dump(split_stages(d)), ())]


def emission(d, shape):
    """One shape's text, or its refusal's type and message."""
    _, emit, args = shape
    try:
        out = emit(d, *args)
    except (CodegenError, LoweringError) as e:
        return f"{type(e).__name__}: {e}"
    return out if isinstance(out, str) else out.text


def fresh(d):
    return parse_builder_source(to_builder_source(d))


class TestAnalysisRecord:
    @pytest.mark.parametrize("pair", [("ht-hinted", "gnarly"), ("mixer", "bt")])
    def test_two_definitions_alternately(self, pair):
        a, b = (build(n) for n in pair)
        want = {n: [emission(fresh(d), s) for s in SHAPES] for n, d in zip(pair, (a, b))}
        for _round in range(2):
            for k, shape in enumerate(SHAPES):
                assert emission(a, shape) == want[pair[0]][k], shape[0]
                assert emission(b, shape) == want[pair[1]][k], shape[0]

    def test_equal_but_distinct_copy(self):
        d = build("mixer")
        copy = fresh(d)
        assert copy == d and copy is not d
        want = [emission(fresh(d), s) for s in SHAPES]
        for k, shape in enumerate(SHAPES):
            assert emission(d, shape) == want[k], shape[0]
            assert emission(copy, shape) == want[k], shape[0]

    def test_invalid_definition_refuses_alike_every_time(self):
        d = coroutine("bad").result("int", "r").body(break_(), yield_("static"), return_("1"))
        want = [emission(fresh(d), s) for s in SHAPES]
        for (shape, *_), w in zip(SHAPES, want):
            error = "LoweringError: definition" if shape == "fsm" else "CodegenError: bad"
            assert w.startswith(f"{error} does not validate: R1"), shape
        for _round in range(3):
            assert [emission(d, s) for s in SHAPES] == want
            with pytest.raises(LoweringError, match="^definition does not validate: R1"):
                split_stages(d)
            with pytest.raises(CodegenError, match="^bad does not validate: R1"):
                emit_routine(d)

    def test_one_validation_and_one_lowering_per_definition(self, monkeypatch):
        counts = {"validate": 0, "lower": 0}
        validate, lower = dsl._Validator.run, lowering._Lowerer.run

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(dsl._Validator, "run", counted("validate", validate))
        monkeypatch.setattr(lowering._Lowerer, "run", counted("lower", lower))
        d = hashtable_find_def(static_hints=True)
        split_stages(d)
        emit_routine(d)
        emit_dynamic(d)
        for w in (1, 5, 16):
            emit_static(d, w)
            emit_hybrid(d, w)
        assert counts == {"validate": 1, "lower": 1}

    @pytest.mark.parametrize("name", ["gnarly", "mixer", "pipeline"])
    def test_routine_and_dynamic_units_never_lower(self, name, monkeypatch):
        want = run_shape(emit_routine, (), load_unit(emit_routine(build(name))), FUZZ_TASKS)

        def refuse(self):
            raise AssertionError("lowered")

        monkeypatch.setattr(lowering._Lowerer, "run", refuse)
        d = fresh(build(name))
        for emit in (emit_routine, emit_dynamic):
            assert run_shape(emit, (), load_unit(emit(d)), FUZZ_TASKS) == want, emit.__name__


# -- one printed and compiled lane per definition object


def count_compiles(monkeypatch) -> list[str]:
    """The source of every ``compile()`` call that codegen makes from now on."""
    sources = []

    def counted(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(codegen, "compile", counted, raising=False)
    return sources


def lane_compiles(sources) -> int:
    return sum("\ndef _lane(" in src for src in sources)


def divide_def():
    """Straight line with a static prefix; ``1 // x`` raises for x = 0."""
    return (
        coroutine("divide").result("int", "r").arg("int", "x").variable("int", "t", "0")
        .body(
            assign("t", "x + 1"),
            yield_("static"),
            opaque("t = 1 // x"),
            yield_("static"),
            return_("t"),
        )
    )


def innermost_generated(exc: BaseException):
    """The innermost traceback entry that runs generated code."""
    tb, found = exc.__traceback__, None
    while tb is not None:
        if tb.tb_frame.f_code.co_filename.startswith("<coroweave:"):
            found = tb
        tb = tb.tb_next
    assert found is not None
    return found


def run_shape(emit, args, make, tasks):
    """Run ``tasks`` through ``make``, loaded from ``emit(d, *args)``."""
    if emit is emit_routine:
        return [make(*t) for t in tasks]
    if emit is emit_dynamic:
        return [run_dynamic(make(), *t) for t in tasks]
    runner = run_static_batch if emit is emit_static else run_hybrid
    out = [None] * len(tasks)
    runner(SchedulerConfig(width=args[0]), make()(), tasks, out)
    return out


class TestSharedLane:
    def test_one_lane_compile_for_every_shape_and_width(self, monkeypatch):
        sources = count_compiles(monkeypatch)
        d = hashtable_find_def(static_hints=True)
        units = [emit(d, *args) for _, emit, args in SHAPES[1:-1]]
        assert [u.entry for u in units] == ["make_hashtable_find"] + [
            f"make_{p}hashtable_find_{w}" for p in ("", "hybrid_") for w in (1, 5, 16)]
        for src in units:
            load_unit(src)
        assert lane_compiles(sources) == 1
        # the dynamic unit compiles nothing beyond the chunk; every batch
        # unit compiles its own two factory lines, and nothing else
        assert len(sources) == len(units)
        assert units[0].factory == ""
        for src in units:
            assert src.chunk is units[0].chunk
            assert src.text == src.chunk.text + src.factory
        for src in units[1:]:
            assert src.factory.count("\n") == 4
        load_unit(emit_routine(d))
        load_unit(emit_routine(d))
        assert len(sources) == 1 + len(units)

    def test_cache_is_keyed_by_identity_not_content(self, monkeypatch):
        sources = count_compiles(monkeypatch)
        a = hashtable_find_def(static_hints=True)
        load_unit(emit_dynamic(a))
        b = hashtable_find_def(static_hints=True)
        c = dataclasses.replace(a)
        assert a == b == c and b is not a and c is not a
        for d in (a, b, c, a, b, c):
            load_unit(emit_dynamic(d))
            load_unit(emit_static(d, 5))
        assert lane_compiles(sources) == 3
        assert emit_dynamic(b).chunk is not emit_dynamic(a).chunk
        assert emit_dynamic(c).chunk is not emit_dynamic(a).chunk
        assert emit_hybrid(c, 16).text == emit_hybrid(a, 16).text
        # lowering's record lives in the same per-object memo
        assert split_stages(a) is split_stages(a)
        assert split_stages(c) is not split_stages(a)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(defgen.coroutine_defs(), defgen.straight_line_defs(),
                     defgen.hinted_prefix_defs()))
    def test_every_shape_from_one_definition_matches_routine(self, d):
        want = run_shape(emit_routine, (), load_unit(emit_routine(d)), FUZZ_TASKS)
        for shape, emit, args in SHAPES[1:-1]:
            try:
                src = emit(d, *args)
            except CodegenError:
                continue
            assert run_shape(emit, args, load_unit(src), FUZZ_TASKS) == want, shape

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(defgen.coroutine_defs(), defgen.straight_line_defs(),
                     defgen.hinted_prefix_defs()))
    def test_hooked_marks_are_the_addresses_the_routine_reaches(self, d):
        marks: list = []
        logged = load_unit(emit_routine(defgen.mark_logging_twin(d)))
        want = [logged(x, marks) for (x,) in FUZZ_TASKS]
        assert run_shape(emit_routine, (), load_unit(emit_routine(d)), FUZZ_TASKS) == want
        for shape, emit, args in SHAPES[1:-1]:
            try:
                make = load_unit(emit(d, *args))
            except CodegenError:
                continue
            assert run_shape(emit, args, make, FUZZ_TASKS) == want, shape
            seen: list = []
            with runtime.prefetch_hook(seen.append):
                assert run_shape(emit, args, make, FUZZ_TASKS) == want, shape
            assert len(seen) == len(marks), shape
            if emit is emit_dynamic:
                # one task after another, so in the routine's order
                assert seen == marks
            assert sorted(map(repr, seen)) == sorted(map(repr, marks)), shape

    @pytest.mark.parametrize("shape", [s for s, *_ in SHAPES[:-1]])
    def test_tracebacks_index_the_unit_text(self, shape, monkeypatch):
        _, emit, args = next(s for s in SHAPES if s[0] == shape)
        d = divide_def()
        for _, other_emit, other_args in SHAPES[:-1]:
            load_unit(other_emit(d, *other_args))  # the chunk's code comes from the first
        src = emit(d, *args)
        lines = src.text.splitlines()
        with pytest.raises(ZeroDivisionError) as info:
            run_shape(emit, args, load_unit(src), [(3,), (0,)])
        tb = innermost_generated(info.value)
        assert lines[tb.tb_lineno - 1].strip() == "t = 1 // x"
        assert tb.tb_frame.f_lineno == tb.tb_lineno
        if shape == "routine":
            return

        # a failure in the factory points at the factory's own line
        def refuse(*args, **consts):
            raise RuntimeError("no class")

        monkeypatch.setattr(runtime, "unit", refuse)
        with pytest.raises(RuntimeError, match="no class") as info:
            load_unit(src)()
        tb = innermost_generated(info.value)
        # the dynamic factory is compiled with the lane chunk
        owner = src.chunk.name if shape == "dynamic" else src.entry
        assert tb.tb_frame.f_code.co_filename == f"<coroweave:{owner}>"
        assert lines[tb.tb_lineno - 1].startswith("    return _rt.unit(_rt.")
        assert lines[tb.tb_lineno - 2] == f"def {src.entry}():"


# SHA-256 over every shape of the kernel definitions and the helper
# definitions in this file.  A change that alters generated text (the
# banner's version included) updates it and says so in CHANGES.md.
EMIT_DIGEST = "1d9bc24844c8564aa5813659c9ab801d5c02bf7cd4142411783ca406c3aee8cc"

DIGEST_DEFS = {
    **{k: KERNELS[k].build_def for k in sorted(KERNELS)},
    "bs-ternary": lambda: binary_search_def("ternary"),
    "ht-hinted": lambda: hashtable_find_def(static_hints=True),
    "pipeline": staged_def,
    "mixer": hybrid_tail_def,
    "gnarly": gnarly_def,
    "countdown": countdown_def,
    "drain": nested_countdown_def,
    "relay": relay_def,
    "unset": unset_read_def,
    "visits": counting_def,
}


def test_generated_text_is_pinned():
    h = hashlib.sha256()
    for name, make in DIGEST_DEFS.items():
        d = make()
        for shape in SHAPES:
            h.update(f"{name}/{shape[0]}\n{emission(d, shape)}\n".encode())
    assert h.hexdigest() == EMIT_DIGEST


def fsm_digest() -> str:
    h = hashlib.sha256()
    for name, make in DIGEST_DEFS.items():
        fsm = split_stages(make())
        facts = (fsm.blocks, fsm.state_entry, fsm.state_hints, fsm.stages, fsm.warnings)
        h.update(f"{name}\n{facts!r}\n".encode())
    return h.hexdigest()


# SHA-256 over the lowering of every DIGEST_DEFS entry: its blocks,
# state entries, hints, stages and warnings.  A change to how a
# definition lowers updates it and says so in CHANGES.md.
FSM_DIGEST = "2993085ef03b70c5dd1bedb72c354d02233786febcfa4e034eb66dc49aede7fb"


def test_lowering_is_pinned():
    assert fsm_digest() == FSM_DIGEST
