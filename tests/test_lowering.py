"""State splitting, context computation, and the sequential twin."""

import inspect
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import one_of

import defgen
from coroweave import (
    LoweringError,
    compute_context,
    emit_dynamic,
    emit_routine,
    fsm_dump,
    load_unit,
    split_stages,
    static_prefix_len,
    straight_line_error,
)
from coroweave.dsl import (
    YieldHint,
    assign,
    block,
    break_,
    call,
    coroutine,
    do_,
    if_,
    load,
    opaque,
    return_,
    store,
    switch_,
    validate,
    while_,
    yield_,
)
from coroweave.kernels import KERNELS
from coroweave.kernels.defs import hashtable_find_def
from fsm_interp import run_fsm

# One dump line per resume state: op count and successor states.  These
# pin down the exact machine each kernel lowers to.
KERNEL_DUMPS = {
    "bs": "state 0: [5 stmts] -> 1 2\nstate 1: [5 stmts] -> 1 2\n",
    "bt": "state 0: [2 stmts] -> 1 2\nstate 1: [4 stmts] -> 1 2\n",
    "sl": "state 0: [4 stmts] -> 1 2\nstate 1: [5 stmts] -> 1 2\n",
    "sli": "state 0: [2 stmts] -> 1 2\nstate 1: [3 stmts] -> 1 2\nstate 2: [1 stmts] -> 3\n",
    "ht": "state 0: [2 stmts] -> 1\nstate 1: [1 stmts] -> 2\nstate 2: [3 stmts] -> 3\n",
}

KERNEL_FIELDS = {
    "bs": ("k", "base", "n", "half", "_state", "_result"),
    "bt": ("n", "key", "_state", "_result"),
    "sl": ("pred", "k", "n", "lvl", "_state", "_result"),
    "sli": ("n", "limit", "_state", "_result"),
    "ht": ("k", "hash", "_state", "_result"),
}


@pytest.mark.parametrize("name", sorted(KERNEL_DUMPS))
def test_kernel_fsm_golden(name):
    fsm = split_stages(KERNELS[name].build_def())
    assert fsm_dump(fsm) == KERNEL_DUMPS[name]
    assert fsm.finished_id == KERNEL_DUMPS[name].count("state ")
    assert fsm.warnings == ()


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_kernel_context_golden(name):
    d = KERNELS[name].build_def()
    ctx = compute_context(d, split_stages(d))
    assert ctx.field_names() == KERNEL_FIELDS[name]
    assert ctx.internal == ("_state", "_result")
    assert tuple(x.name for x in ctx.shared_args) == tuple(
        x.name for x in d.shared_args
    )


# The blocks of ``every_compound``'s tree, outermost first.
COMPOUND_BLOCKS = ("body", "then", "case0", "case1", "default", "else", "while", "do", "block")


def every_compound(marked, tail):
    """One compound statement of each kind, nested; block ``marked`` ends with ``tail``."""

    def items(label, *inner):
        return (*inner, *tail) if label == marked else inner

    loop = while_("c").do_(*items("while", do_(*items("do", block(*items("block")))).while_("d")))
    arms = (
        switch_("b").case_("0", *items("case0")).case_("1", *items("case1")).default_(*items("default"))
    )
    return coroutine("k").body(
        *items("body", if_("a").then_(*items("then", arms)).else_(*items("else", loop)))
    )


def do_while_then_yield_def(*body):
    """A do-while around ``body``, then a suspension and a return."""
    return (
        coroutine("k").result("int", "r").arg("int", "x")
        .body(do_(*body).while_("x > 0"), yield_(), return_("2"))
    )


class TestSplitStages:
    def test_rejects_invalid_definition(self):
        bad = coroutine("k").body(break_())
        with pytest.raises(LoweringError, match="does not validate.*R1"):
            split_stages(bad)

    def test_unreachable_after_return(self):
        d = coroutine("k").body(return_(), yield_())
        fsm = split_stages(d)
        assert fsm.warnings == ("unreachable code dropped at body[1]",)
        assert fsm.suspension_count == 0

    def test_unreachable_in_switch_case(self):
        d = coroutine("k").body(
            switch_("1").case_("0", break_(), yield_()),
        )
        fsm = split_stages(d)
        assert fsm.warnings == ("unreachable code dropped at body[0].case[0][1]",)

    @pytest.mark.parametrize("leave, dump", [
        ((return_("1"),), "state 0: [1 stmts] -> 1\n"),
        ((if_("x > 9").then_(return_("1")), call("k", "x + 1")), "state 0: [3 stmts] -> 1\n"),
    ], ids=["return", "tail-call"])
    def test_unreachable_after_do_while_that_never_tests(self, leave, dump):
        # the body never reaches its condition, so nothing after the loop runs
        fsm = split_stages(do_while_then_yield_def(*leave))
        assert fsm.warnings == ("unreachable code dropped at body[1]",)
        assert fsm.suspension_count == 0
        assert fsm_dump(fsm) == dump
        assert straight_line_error(fsm) is None

    def test_break_keeps_code_after_do_while(self):
        fsm = split_stages(do_while_then_yield_def(break_()))
        assert fsm.warnings == ()
        assert fsm.suspension_count == 1
        assert fsm_dump(fsm) == "state 0: [0 stmts] -> 1\nstate 1: [1 stmts] -> 2\n"

    @pytest.mark.parametrize("marked", COMPOUND_BLOCKS)
    def test_validator_and_lowering_name_paths_alike(self, marked):
        # One block at a time: a return in every arm would close an
        # if/else or a switch with a default, and move the drop point in
        # the block around it onto its own return.
        undeclared = every_compound(marked, (return_(), assign("zz", "1")))
        dropped = every_compound(marked, (return_(), opaque("pass")))
        r5 = [d.path for d in validate(undeclared) if d.rule == "R5"]
        prefix = "unreachable code dropped at "
        warned = [w.removeprefix(prefix) for w in split_stages(dropped).warnings]
        assert len(r5) == 1
        assert r5 == warned

    def test_entry_loop_header_is_reused(self):
        d = coroutine("k").arg("int", "i").body(
            while_("(i := i - 1) >= 0").do_(yield_()),
        )
        fsm = split_stages(d)
        # an empty entry block becomes the loop header outright
        entry = fsm.blocks[fsm.state_entry[0]]
        assert entry.term[0] == "br"
        assert entry.ops == ()

    def test_initialized_entry_is_not_merged_into_header(self):
        d = coroutine("k").variable("int", "i", "3").body(
            while_("(i := i - 1) >= 0").do_(yield_()),
        )
        fsm = split_stages(d)
        # the init must run once, so the header sits behind a goto
        entry = fsm.blocks[fsm.state_entry[0]]
        assert entry.ops == (("assign", "i", "3"),)
        assert entry.term[0] == "goto"
        header = fsm.blocks[entry.term[1]]
        assert header.term[0] == "br"

    def test_tail_resume_jumps_to_entry(self):
        d = (
            coroutine("k")
            .arg("int", "x")
            .variable("int", "seen", "0")
            .body(
                assign("seen", "seen + 1"),
                yield_(),
                if_("x > 0").then_(call("k", "x - 1")),
                return_(),
            )
        )
        fsm = split_stages(d)
        restart = [b for b in fsm.blocks if b.term == ("goto", fsm.state_entry[0])]
        assert len(restart) == 1
        assert restart[0].ops == (
            ("assign", "_ca0", "x - 1"),
            ("assign", "x", "_ca0"),
        )

    def test_variable_inits_run_at_entry(self):
        d = coroutine("k").variable("int", "a", "1").variable("int", "b").body()
        fsm = split_stages(d)
        entry = fsm.blocks[fsm.state_entry[0]]
        # only initialized variables emit entry assignments
        assert entry.ops == (("assign", "a", "1"),)

    def test_stage_hint_single(self):
        d = coroutine("k").body(yield_("static"), yield_("dynamic"))
        fsm = split_stages(d)
        assert fsm.stages[0].hint is YieldHint.STATIC
        assert fsm.stages[1].hint is YieldHint.DYNAMIC
        assert fsm.state_hints == (YieldHint.STATIC, YieldHint.DYNAMIC)

    def test_stage_hint_mixed_frontier_defaults(self):
        d = coroutine("k").arg("int", "x").body(
            if_("x > 0").then_(yield_("static")).else_(yield_("dynamic")),
        )
        fsm = split_stages(d)
        assert fsm.stages[0].hint is YieldHint.DEFAULT

    @settings(max_examples=60, deadline=None)
    @given(defgen.coroutine_defs())
    def test_state_count_law(self, d):
        """Resume states = suspension points + 1 (entry), finished is next."""
        fsm = split_stages(d)
        want = defgen.count_tree_yields(d)
        assert len(fsm.state_entry) == want + 1
        assert fsm.finished_id == want + 1
        assert fsm.suspension_count == want
        assert fsm.warnings == ()

    @settings(max_examples=60, deadline=None)
    @given(defgen.coroutine_defs())
    def test_pruned_cfg_is_well_formed(self, d):
        """Every surviving block is reachable and every edge is in range."""
        fsm = split_stages(d)
        n = len(fsm.blocks)
        reached = set()
        work = list(fsm.state_entry)
        while work:
            b = work.pop()
            if b in reached:
                continue
            reached.add(b)
            term = fsm.blocks[b].term
            if term[0] == "goto":
                work.append(term[1])
            elif term[0] == "br":
                work.extend(term[2:])
        assert reached == set(range(n))
        for st in fsm.stages:
            for s in st.successors:
                assert 0 <= s <= fsm.finished_id

    @settings(max_examples=60, deadline=None)
    @given(one_of(defgen.coroutine_defs(), defgen.straight_line_defs(),
                  defgen.hinted_prefix_defs()))
    @example(do_while_then_yield_def(return_("1")))
    def test_every_state_is_reachable(self, d):
        """No orphan states: each one allocated is reached from state 0."""
        fsm = split_stages(d)
        reached = {0}
        work = [0]
        while work:
            for s in fsm.stages[work.pop()].successors:
                if s != fsm.finished_id and s not in reached:
                    reached.add(s)
                    work.append(s)
        assert reached == set(range(len(fsm.state_entry)))


class TestInterpretedFsm:
    """The lowered blocks, run op by op, against the printed units.

    Every generated shape prints the definition through one statement
    emitter; the interpreter runs the lowering instead, so the two
    translations of the tree check each other.
    """

    def agree(self, d):
        fsm = split_stages(d)
        routine = load_unit(emit_routine(d))
        dynamic = load_unit(emit_dynamic(d))()
        for x in (0, 1, 7, 58, 999):
            got, suspensions = run_fsm(fsm, {"x": x})
            assert got == routine(x), x
            inst = dynamic(x)
            steps = 1
            while not inst.step():
                steps += 1
            assert steps == suspensions + 1, x

    @settings(max_examples=60, deadline=None)
    @given(defgen.coroutine_defs())
    def test_matches_routine_everywhere(self, d):
        self.agree(d)

    @settings(max_examples=40, deadline=None)
    @given(defgen.hinted_prefix_defs())
    def test_matches_routine_through_tail_resumes(self, d):
        self.agree(d)

    def test_tail_resume_rebinds_args_from_old_values(self):
        d = (
            coroutine("swap").result("int").arg("int", "a").arg("int", "b")
            .body(
                if_("a < b").then_(yield_(), call("swap", "b", "a")),
                return_("a * 100 + b"),
            )
        )
        assert run_fsm(split_stages(d), {"a": 3, "b": 7}) == (703, 1)
        assert load_unit(emit_routine(d))(3, 7) == 703


class TestComputeContext:
    def test_cond_slot_for_suspended_branch(self):
        d = coroutine("k").arg("int", "x").body(
            if_("x > 0").yield_before().then_(return_()),
        )
        ctx = compute_context(d, split_stages(d))
        assert ctx.internal == ("_state", "_cond")

    def test_addr_slot_for_suspended_load(self):
        d = coroutine("k").arg("object", "p").variable("object", "v").body(
            load("v", "p.next", yield_before=True),
        )
        ctx = compute_context(d, split_stages(d))
        assert ctx.internal == ("_state", "_addr")

    def test_addr_slot_for_suspended_store(self):
        d = coroutine("k").arg("object", "p").body(
            store("p.val", "41 + 1", yield_before=True),
        )
        ctx = compute_context(d, split_stages(d))
        assert ctx.internal == ("_state", "_addr")

    def test_no_state_without_suspension(self):
        d = coroutine("k").result("int").arg("int", "x").body(return_("x"))
        ctx = compute_context(d, split_stages(d))
        assert ctx.internal == ("_result",)

    def test_no_state_when_fully_static(self):
        d = hashtable_find_def(static_hints=True)
        ctx = compute_context(d, split_stages(d))
        assert ctx.internal == ("_result",)

    def test_block_locals_are_context_fields(self):
        from coroweave.dsl import block, let

        d = coroutine("k").body(block(let("int", "t", "0"), yield_()))
        ctx = compute_context(d, split_stages(d))
        assert [v.name for v in ctx.variables] == ["t"]
        assert "t" in ctx.field_names()


class TestSequentialTwin:
    @settings(max_examples=40, deadline=None)
    @given(defgen.coroutine_defs())
    def test_routine_has_no_suspension_point_or_mark(self, d):
        src = emit_routine(d)
        assert not inspect.isgeneratorfunction(load_unit(src))
        assert "yield" not in src.text
        assert "_rt.mark(" not in src.text


class TestSchedulability:
    def test_hash_kernel_is_straight_line(self):
        assert straight_line_error(split_stages(KERNELS["ht"].build_def())) is None

    def test_branchy_kernel_is_not(self):
        msg = straight_line_error(split_stages(KERNELS["bs"].build_def()))
        assert msg == (
            "stage 0 reaches 1, 2 instead of state 1; state transitions are"
            " data-dependent, so use the dynamic or hybrid schedule instead"
        )

    def test_static_prefix_of_hinted_definition(self):
        assert static_prefix_len(split_stages(hashtable_find_def(static_hints=True))) == 2
        assert static_prefix_len(split_stages(hashtable_find_def())) == 0
        assert static_prefix_len(split_stages(KERNELS["bs"].build_def())) == 0

    def test_partial_static_prefix(self):
        d = coroutine("k").arg("int", "x").body(
            yield_("static"),
            if_("x > 0").then_(yield_()).else_(yield_()),
            return_(),
        )
        assert static_prefix_len(split_stages(d)) == 1


def lowering_line_events(d) -> int:
    """Line events executed in ``coroweave/lowering.py`` while ``d`` is split."""
    count = 0
    target = split_stages.__code__.co_filename

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename == target else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        split_stages(d)
    finally:
        sys.settrace(previous)
    return count


SEQUENCES = {
    "switch": lambda: switch_("x % 3").case_("0", assign("y", "1")).default_(assign("y", "2")),
    "do-while": lambda: do_(assign("y", "y + 1")).while_("y < x"),
}


@pytest.mark.parametrize("kind", sorted(SEQUENCES))
def test_lowering_is_linear_in_statement_count(kind):
    # Four times the statements must cost about four times the work;
    # a rescan of every terminator per statement costs about sixteen.
    def work(n):
        stmts = [SEQUENCES[kind]() for _ in range(n)]
        d = coroutine("k").arg("int", "x").variable("int", "y", "0").body(*stmts)
        return lowering_line_events(d)

    assert work(400) / work(100) < 5
