"""Builder, validation, and printer round-trip tests."""

import dataclasses

import pytest
from hypothesis import given, settings

import defgen
from coroweave import dsl
from coroweave.dsl import (
    Block,
    CoroutineDef,
    DeclKind,
    DslError,
    YieldHint,
    assign,
    block,
    break_,
    call,
    continue_,
    coroutine,
    do_,
    if_,
    let,
    load,
    opaque,
    parse_builder_source,
    prefetch,
    return_,
    store,
    switch_,
    to_builder_source,
    validate,
    while_,
    yield_,
)
from coroweave.kernels import KERNELS


def simple_def() -> CoroutineDef:
    return (
        coroutine("walk")
        .result("int", "out")
        .arg("int", "x")
        .variable("int", "acc", "0")
        .body(
            assign("acc", "acc + x"),
            yield_(),
            return_("acc"),
        )
    )


class TestBuilders:
    def test_decl_partition(self):
        d = (
            coroutine("k")
            .result("int", "r")
            .shared_arg("list", "table")
            .arg("int", "q")
            .variable("int", "i", "0")
            .body(return_("q"))
        )
        assert [x.name for x in d.args] == ["q"]
        assert [x.name for x in d.shared_args] == ["table"]
        assert d.result_decl is not None and d.result_decl.name == "r"
        assert [x.name for x in d.variables] == ["i"]
        # decl order is preserved verbatim
        assert [x.name for x in d.decls] == ["r", "table", "q", "i"]

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(DslError, match="duplicate declaration 'x'"):
            coroutine("k").arg("int", "x").variable("int", "x")

    def test_second_result_rejected(self):
        with pytest.raises(DslError, match="at most one result"):
            coroutine("k").result("int", "a").result("int", "b")

    def test_initializer_only_on_variables(self):
        with pytest.raises(DslError, match="cannot have an initializer"):
            dsl.Decl(DeclKind.ARG, "int", "x", "3")

    @pytest.mark.parametrize("bad", ["2x", "for", "a b", ""])
    def test_bad_identifier(self, bad):
        with pytest.raises(DslError, match="not a valid identifier"):
            coroutine(bad)

    def test_leading_underscore_reserved(self):
        with pytest.raises(DslError, match="reserved leading underscore"):
            coroutine("k").variable("int", "_state")

    @pytest.mark.parametrize("name", ["fmix32", "fmix64", "abs", "len"])
    def test_imported_hash_names_reserved(self, name):
        # the routine's def of this name would hide the hash or builtin its body calls
        with pytest.raises(DslError, match=f"coroutine name '{name}' is reserved"):
            coroutine(name)

    def test_empty_expression_text(self):
        with pytest.raises(DslError):
            assign("x", "   ")
        with pytest.raises(DslError):
            opaque("")

    def test_prefetch_needs_addresses(self):
        with pytest.raises(DslError, match="at least one address"):
            dsl.Prefetch(())

    @pytest.mark.parametrize("addr", ["log.append(i)", "a[f(i)]", "(n := n + 1)",
                                      "(yield)", "[(yield from g)]"])
    def test_prefetch_address_must_be_free_of_side_effects(self, addr):
        with pytest.raises(DslError, match="free of side effects"):
            dsl.prefetch("n", addr)

    def test_prefetch_address_must_parse(self):
        with pytest.raises(DslError, match="'a\\[' is not an expression"):
            dsl.prefetch("a[")
        # subscripts, attributes, arithmetic and tuples are all fine
        dsl.prefetch("a[base + half - 1]", "n.next", "(x, y)", "p.child[k < 3]")

    # Codegen prints an expression inside a line, which a comment or a
    # line break outside brackets would end early.
    LINE_ENDERS = [
        ("prefetch({!r})", "a[i]  # the probe"),
        ("if_({!r}).then_()", "i > 0  # positive"),
        ("while_({!r}).do_()", "i > 0 # pos"),
        ("if_({!r}).then_()", "i >\n 0"),
        ("if_({!r}).then_()", "i > 0\n"),
        ("if_({!r}).then_()", "\ni > 0"),
        ("if_({!r}).then_()", "i >\r 0"),
        ("if_({!r}).then_()", "(i > 0  # in brackets\n)"),
    ]

    @staticmethod
    def _line_def(form: str, text: str) -> str:
        stmt = form.format(text)
        return f"(coroutine('k').arg('list', 'a').arg('int', 'i').result('int').body({stmt}))"

    @pytest.mark.parametrize("form,text", LINE_ENDERS)
    def test_expression_refuses_a_comment_or_a_bare_line_break(self, form, text):
        build = {"prefetch": prefetch, "if_": if_, "while_": while_}[form.split("(")[0]]
        with pytest.raises(DslError, match="has a comment or a line break outside brackets"):
            build(text)
        with pytest.raises(DslError, match="has a comment or a line break outside brackets"):
            parse_builder_source(self._line_def(form, text))

    @pytest.mark.parametrize("make", [
        lambda t: assign("x", t), lambda t: store("a[0]", t), lambda t: return_(t),
        lambda t: load("x", t), lambda t: let("int", "v", t), lambda t: call("k", t),
        lambda t: switch_(t), lambda t: switch_("i").case_(t), lambda t: do_().while_(t),
    ])
    def test_every_expression_field_refuses_a_comment(self, make):
        with pytest.raises(DslError, match="has a comment"):
            make("i  # note")

    @pytest.mark.parametrize("text", ["(i >\n 0)", "(i >\n\n 0)", "i >\\\n 0",
                                      "'#' != str(i)", "'''a\nb''' != str(i)"])
    def test_expression_keeps_hashes_in_strings_and_breaks_in_brackets(self, text):
        from coroweave.codegen import emit_routine, load_unit

        d = parse_builder_source(self._line_def("if_({!r}).then_(return_('1'))", text))
        assert load_unit(emit_routine(d))([], 1) == 1
        assert parse_builder_source(to_builder_source(d)) == d

    def test_opaque_and_type_text_may_hold_comments(self):
        assert opaque("x = 1  # one\ny = 2").text == "x = 1  # one\ny = 2"
        coroutine("k").arg("int  # a count", "n")

    def test_load_destination_must_be_identifier(self):
        with pytest.raises(DslError, match="must be an identifier"):
            load("a[0]", "p")

    def test_assign_destination_must_be_identifier(self):
        with pytest.raises(DslError, match="must be an identifier"):
            assign("a.b", "1")
        # store targets are lvalue expressions, so the same text is fine there
        store("a.b", "1")

    def test_dangling_do_rejected(self):
        with pytest.raises(DslError, match="missing its trailing"):
            coroutine("k").body(do_(yield_()))

    def test_if_requires_then(self):
        with pytest.raises(DslError, match="missing .then_"):
            coroutine("k").body(if_("x"))
        with pytest.raises(DslError, match=r"\.else_\(\) before \.then_\(\)"):
            if_("x").else_(break_())

    def test_duplicate_clauses(self):
        with pytest.raises(DslError, match="duplicate .then_"):
            if_("x").then_(yield_()).then_(yield_())
        with pytest.raises(DslError, match="duplicate .else_"):
            if_("x").then_(yield_()).else_().else_()
        with pytest.raises(DslError, match="duplicate .default_"):
            switch_("x").case_("0").default_().default_()
        with pytest.raises(DslError, match="case after default"):
            switch_("x").case_("0").default_().case_("1")

    def test_switch_needs_a_case(self):
        with pytest.raises(DslError, match="at least one case"):
            coroutine("k").body(switch_("x").default_(yield_()))

    def test_switch_node_needs_a_case(self):
        # the node itself refuses, not only the builder: an empty switch
        # would print as an ``else:`` with no ``if`` before it
        with pytest.raises(DslError, match="at least one case"):
            dsl.Switch("1", (), Block((dsl.Return("1"),)))

    @pytest.mark.parametrize("item", ["print(1)", 1, None])
    def test_block_node_refuses_a_foreign_statement(self, item):
        # Refused where the block is built: this once validated, and then
        # lowering, the emitters and the printer each failed in their own words.
        with pytest.raises(DslError, match="not a statement"):
            CoroutineDef("k", (), Block((item,)))
        with pytest.raises(DslError, match="not a statement"):
            coroutine("k").body(yield_(), item)

    @pytest.mark.parametrize("make, what", [
        (lambda: dsl.If("x", None), "then arm"),
        (lambda: dsl.If("x", Block(), ()), "else arm"),
        (lambda: dsl.While("x", (yield_(),)), "loop body"),
        (lambda: dsl.DoWhile(None, "x"), "loop body"),
        (lambda: dsl.Switch("x", (("0", None),)), "case body"),
        (lambda: dsl.Switch("x", (("0", Block()),), [return_()]), "switch default"),
        (lambda: CoroutineDef("k", (), (yield_(),)), "coroutine body"),
    ], ids=["then", "else", "while", "do-while", "case", "default", "coroutine"])
    def test_compound_node_refuses_a_missing_block(self, make, what):
        # ``If("x", None)`` in a body once made validate raise AttributeError
        with pytest.raises(DslError, match=f"{what} must be a block"):
            make()

    def test_let_at_body_level(self):
        # the body is itself a block, so let() declares a body-local there
        d = coroutine("k").body(let("int", "t", "0"), assign("t", "t + 1"))
        assert d.body.decls[0].name == "t"
        assert validate(d) == []

    def test_non_variable_decl_in_block(self):
        with pytest.raises(DslError, match="only variables"):
            block(dsl.Decl(DeclKind.ARG, "int", "q"))

    def test_yield_hint_values(self):
        assert yield_().hint is YieldHint.DEFAULT
        assert yield_("static").hint is YieldHint.STATIC
        assert yield_("dynamic").hint is YieldHint.DYNAMIC
        with pytest.raises(ValueError):
            yield_("eager")

    def test_nodes_are_frozen(self):
        node = assign("x", "1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.dst = "y"


class TestValidate:
    """Each rule, positive and negative, with exact diagnostic text."""

    def as_strings(self, d):
        return [str(x) for x in validate(d)]

    def test_kernel_defs_are_valid(self):
        for kernel in KERNELS.values():
            assert validate(kernel.build_def()) == []
            if kernel.build_hybrid_def is not None:
                assert validate(kernel.build_hybrid_def()) == []

    def test_r1_break_outside(self):
        d = coroutine("k").body(break_())
        assert self.as_strings(d) == ["R1: body[0]: break outside any loop or switch"]

    def test_r1_continue_outside(self):
        d = coroutine("k").body(continue_())
        assert self.as_strings(d) == ["R1: body[0]: continue outside any loop"]

    def test_r1_continue_in_switch_needs_loop(self):
        inside_loop = coroutine("k").body(
            while_("True").do_(switch_("1").case_("0", continue_()))
        )
        assert validate(inside_loop) == []
        bare = coroutine("k").body(switch_("1").case_("0", continue_()))
        assert self.as_strings(bare) == [
            "R1: body[0].case[0][0]: continue outside any loop"
        ]

    def test_r1_break_in_switch_is_fine(self):
        d = coroutine("k").body(switch_("1").case_("0", break_()))
        assert validate(d) == []

    def test_r2_valued_return_needs_result(self):
        d = coroutine("k").body(return_("1"))
        assert self.as_strings(d) == [
            "R2: body[0]: return with a value requires a result declaration"
        ]
        assert validate(coroutine("k").body(return_())) == []

    def test_r3_call_must_be_tail(self):
        d = coroutine("k").arg("int", "x").body(call("k", "x + 1"), return_())
        assert self.as_strings(d) == [
            "R3: body[0]: call must be the last statement on its path"
        ]

    def test_r3_branch_tail_call_is_fine(self):
        # a call may end a branch that is not the last body statement
        d = (
            coroutine("k")
            .arg("int", "x")
            .body(
                if_("x > 0").then_(call("k", "x - 1")),
                return_(),
            )
        )
        assert validate(d) == []

    def test_r3_only_self_calls(self):
        d = coroutine("k").arg("int", "x").body(call("other", "x"))
        assert self.as_strings(d) == [
            "R3: body[0]: call target 'other' is not this coroutine"
            " (only self tail-resume is supported)"
        ]

    def test_r3_arity(self):
        d = coroutine("k").arg("int", "x").body(call("k"))
        assert self.as_strings(d) == ["R3: body[0]: call passes 0 args, coroutine takes 1"]

    def test_r5_undeclared_destination(self):
        d = coroutine("k").arg("int", "x").body(assign("y", "x"))
        assert self.as_strings(d) == [
            "R5: body[0]: destination 'y' is not a declared variable or arg"
        ]

    def test_r5_block_local_in_scope_only_inside(self):
        d = coroutine("k").body(
            block(let("int", "t", "0"), assign("t", "1")),
            assign("t", "2"),
        )
        assert self.as_strings(d) == [
            "R5: body[1]: destination 't' is not a declared variable or arg"
        ]

    def test_r5_load_destination(self):
        d = coroutine("k").arg("int", "x").body(load("y", "x + 1"))
        assert [x.rule for x in validate(d)] == ["R5"]

    def test_rdup_shadowing(self):
        d = coroutine("k").arg("int", "x").body(block(let("int", "x", "0")))
        out = validate(d)
        assert [str(x) for x in out] == [
            "R-dup: body[0]: declaration 'x' shadows an existing name"
        ]

    def test_nested_paths(self):
        d = coroutine("k").body(
            if_("1").then_(yield_()).else_(while_("0").do_(assign("q", "1")))
        )
        assert self.as_strings(d) == [
            "R5: body[0].else[0].do[0]: destination 'q' is not a declared variable or arg"
        ]

    def test_multiple_diagnostics_in_order(self):
        d = coroutine("k").body(break_(), assign("m", "1"), return_("2"))
        assert [x.rule for x in validate(d)] == ["R1", "R5", "R2"]

    def test_validate_is_pure(self):
        d = simple_def()
        before = to_builder_source(d)
        validate(d)
        assert to_builder_source(d) == before

    def test_diagnostics_found_once_per_object_and_copied_out(self, monkeypatch):
        runs = []
        run = dsl._Validator.run
        monkeypatch.setattr(dsl._Validator, "run", lambda self: runs.append(1) or run(self))
        d = coroutine("k").body(break_(), assign("m", "1"))
        first, second = validate(d), validate(d)
        assert first == second and first is not second
        assert [x.rule for x in first] == ["R1", "R5"]
        first.clear()
        second.append("junk")
        assert [x.rule for x in validate(d)] == ["R1", "R5"]
        assert len(runs) == 1
        copy = dataclasses.replace(d)
        assert validate(copy) == validate(d)
        assert len(runs) == 2


class TestPrinter:
    def test_round_trip_kernels(self):
        for kernel in KERNELS.values():
            d = kernel.build_def()
            assert parse_builder_source(to_builder_source(d)) == d

    def test_round_trip_select_variants(self):
        for select in ("arith", "ternary"):
            d = KERNELS["bs"].build_def(select)
            assert parse_builder_source(to_builder_source(d)) == d

    def test_output_shape(self):
        text = to_builder_source(simple_def())
        assert text.endswith(")\n")
        assert text == to_builder_source(simple_def())
        assert "yield_()" in text

    def test_hint_and_flag_printing(self):
        d = coroutine("k").arg("int", "p").variable("int", "v").body(
            yield_("static"),
            load("v", "p", yield_before=True),
            store("p", "v", yield_before=True),
            prefetch("p", "v"),
        )
        text = to_builder_source(d)
        assert "yield_('static')" in text
        assert "load('v', 'p', yield_before=True)" in text
        assert "store('p', 'v', yield_before=True)" in text
        assert "prefetch('p', 'v')" in text
        assert parse_builder_source(text) == d

    def test_do_while_and_switch_round_trip(self):
        d = coroutine("k").arg("int", "x").variable("int", "v", "0").body(
            do_(
                switch_("x % 2")
                .case_("0", assign("v", "v + 1"), break_())
                .case_("1", continue_())
                .default_(assign("v", "0")),
            ).while_("v < 3"),
            block(let("int", "t", "5"), assign("t", "t - 1")),
            return_(),
        )
        assert validate(d) == []
        assert parse_builder_source(to_builder_source(d)) == d

    def test_round_trip_long_declaration_chain(self):
        d = defgen.declaration_chain(1200)
        assert parse_builder_source(to_builder_source(d)) == d

    def test_parse_rejects_non_definition(self):
        with pytest.raises(DslError, match="did not produce a coroutine definition"):
            parse_builder_source("block()")

    @settings(max_examples=40, deadline=None)
    @given(defgen.coroutine_defs())
    def test_round_trip_random(self, d):
        assert parse_builder_source(to_builder_source(d)) == d


def test_empty_body_is_allowed():
    d = coroutine("k").body()
    assert d.body == Block()
    assert validate(d) == []
