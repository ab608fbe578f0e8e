"""Hypothesis strategies that build random, executable definitions.

The generated trees are constrained so that two useful properties hold
by construction:

* termination: every loop condition decrements a dedicated counter
  variable via a walrus, so no body can iterate more than its counter's
  initial value plus one times, whatever else the body does;
* full reachability: break/continue/return appear only in positions
  where the following statements stay reachable (conditionally inside
  an If, or as the final statement of a loop or case body with a
  fall-past path), so a plain tree count of suspension points equals
  the reachable count.

Every variable is initialized, every expression is total over ints,
and the coroutine takes a single int arg ``x``, so a generated def can
be both lowered and executed.

``coroutine_defs`` draws any control flow.  Two narrower strategies
feed the lockstep emitters: ``straight_line_defs`` (yield-free segments
between suspension points, so the stage graph is a straight line) and
``hinted_prefix_defs`` (a statically hinted first stage, the random
body, then a guarded self tail-resume that halves ``x``).

With ``tally=True`` those two also take a shared list ``tally`` of
``TALLY_CELLS`` ints and increment cells of it, always once at the top
level and elsewhere at random.  An increment never spans a suspension
and nothing reads the list into a result, so the list's final contents
depend only on how many times each task ran each increment, not on the
interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import strategies as st

from coroweave import dsl
from coroweave.dsl import (
    CoroutineDef,
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
    prefetch,
    return_,
    store,
    switch_,
    while_,
    yield_,
)

MAX_DEPTH = 3
MAX_STMTS = 4
HINTS = ("default", "static", "dynamic")
TALLY_CELLS = 8


@dataclass
class _Pool:
    """Names available while generating one definition."""

    names: list[str] = field(default_factory=lambda: ["x", "v0", "v1", "v2"])
    counters: list[str] = field(default_factory=lambda: [f"c{i}" for i in range(6)])
    locals_: list[str] = field(default_factory=lambda: [f"l{i}" for i in range(4)])
    used_counters: list[tuple[str, str]] = field(default_factory=list)
    tally: bool = False


def _expr(draw, pool: _Pool) -> str:
    a = draw(st.sampled_from(pool.names))
    b = draw(st.sampled_from(pool.names + ["2", "3", "7"]))
    template = draw(
        st.sampled_from(
            [
                "{a} + {b}",
                "{a} - {b}",
                "({a} * 3 + {b}) % 17",
                "{a} ^ {b}",
                "({a} + {b}) & 255",
            ]
        )
    )
    return template.format(a=a, b=b)


def _cond(draw, pool: _Pool) -> str:
    a = draw(st.sampled_from(pool.names))
    b = draw(st.sampled_from(pool.names + ["1", "4"]))
    template = draw(
        st.sampled_from(
            ["{a} % 2 == 0", "{a} > {b}", "{a} != {b}", "({a} & 3) != 0"]
        )
    )
    return template.format(a=a, b=b)


def _stmt(draw, pool: _Pool, depth: int, in_loop: bool, yields: bool = True):
    """One random statement; with ``yields`` False it never suspends."""
    choices = ["assign", "assign", "prefetch", "opaque", "load", "store", "if"]
    if pool.tally:
        choices.append("tally")
    if yields:
        choices.append("yield")
    if depth < MAX_DEPTH:
        if pool.counters:
            choices += ["while", "dowhile"]
        choices.append("switch")
        if pool.locals_:
            choices.append("block")
    kind = draw(st.sampled_from(choices))
    if kind == "assign":
        return assign(draw(st.sampled_from(pool.names[1:])), _expr(draw, pool))
    if kind == "yield":
        return yield_(draw(st.sampled_from(HINTS)))
    if kind == "prefetch":
        return prefetch(draw(st.sampled_from(pool.names)))
    if kind == "opaque":
        dst = draw(st.sampled_from(pool.names[1:]))
        return opaque(f"{dst} = ({_expr(draw, pool)}) & 1023")
    if kind == "load":
        return load(
            draw(st.sampled_from(pool.names[1:])),
            _expr(draw, pool),
            yield_before=yields and draw(st.booleans()),
        )
    if kind == "store":
        return store(draw(st.sampled_from(pool.names[1:])), _expr(draw, pool))
    if kind == "tally":
        return _tally(draw, pool)
    if kind == "if":
        b = if_(_cond(draw, pool))
        if yields and depth < MAX_DEPTH and draw(st.booleans()):
            b = b.yield_before()
        then_items = _suite(draw, pool, depth + 1, in_loop, yields)
        if in_loop and draw(st.booleans()):
            then_items.append(draw(st.sampled_from([break_(), continue_()])))
        b = b.then_(*then_items)
        if draw(st.booleans()):
            b = b.else_(*_suite(draw, pool, depth + 1, in_loop, yields))
        return b
    if kind in ("while", "dowhile"):
        counter = pool.counters.pop()
        pool.used_counters.append((counter, str(draw(st.integers(0, 3)))))
        cond = f"({counter} := {counter} - 1) >= 0"
        body = _suite(draw, pool, depth + 1, True, yields)
        if draw(st.booleans()):
            body.append(draw(st.sampled_from([break_(), continue_()])))
        if kind == "while":
            return while_(cond).do_(*body)
        return do_(*body).while_(cond)
    if kind == "switch":
        b = switch_(f"({draw(st.sampled_from(pool.names))}) % 3")
        with_default = draw(st.booleans())
        for c in range(draw(st.integers(1, 3))):
            items = _suite(draw, pool, depth + 1, in_loop, yields)
            # A trailing terminator is safe only while the no-match
            # fall-past path keeps the after-switch statements reachable.
            if not with_default and draw(st.booleans()):
                items.append(break_())
            b = b.case_(str(c), *items)
        if with_default:
            b = b.default_(*_suite(draw, pool, depth + 1, in_loop, yields))
        return b
    if kind == "block":
        name = pool.locals_.pop()
        pool.names.append(name)
        inner = _suite(draw, pool, depth + 1, in_loop, yields)
        pool.names.remove(name)
        return block(let("int", name, draw(st.sampled_from(["0", "5"]))), *inner)
    raise AssertionError(kind)


def _tally(draw, pool: _Pool):
    cell = f"tally[({_expr(draw, pool)}) % {TALLY_CELLS}]"
    return store(cell, f"{cell} + 1")


def _suite(draw, pool: _Pool, depth: int, in_loop: bool, yields: bool = True) -> list:
    return [
        _stmt(draw, pool, depth, in_loop, yields)
        for _ in range(draw(st.integers(1, MAX_STMTS)))
    ]


def _define(draw, pool: _Pool, body: list) -> CoroutineDef:
    body.append(return_("(x + v0 + v1 + v2) & 0xFFFF"))
    b = coroutine("scrambler").result("int", "res").arg("int", "x")
    if pool.tally:
        b = b.shared_arg("list", "tally")
    for v in ("v0", "v1", "v2"):
        b = b.variable("int", v, draw(st.sampled_from(["0", "1", "9"])))
    for name, bound in pool.used_counters:
        b = b.variable("int", name, bound)
    d = b.body(*body)
    diags = dsl.validate(d)
    assert not diags, [str(x) for x in diags]
    return d


@st.composite
def coroutine_defs(draw) -> CoroutineDef:
    pool = _Pool()
    return _define(draw, pool, _suite(draw, pool, 0, False))


def _suspension(draw, pool: _Pool):
    """A statement that suspends exactly once, then flows straight on."""
    dst = draw(st.sampled_from(pool.names[1:]))
    kind = draw(st.sampled_from(["yield", "load", "store", "if"]))
    if kind == "yield":
        return yield_(draw(st.sampled_from(HINTS)))
    if kind == "load":
        return load(dst, _expr(draw, pool), yield_before=True)
    if kind == "store":
        return store(dst, _expr(draw, pool), yield_before=True)
    return if_(_cond(draw, pool)).yield_before().then_(
        *_suite(draw, pool, 1, False, yields=False)
    )


@st.composite
def straight_line_defs(draw, tally: bool = False) -> CoroutineDef:
    """Yield-free segments (any control flow inside) between suspensions."""
    pool = _Pool(tally=tally)
    body = [_tally(draw, pool)] if tally else []
    for _ in range(draw(st.integers(1, 3))):
        body += _suite(draw, pool, 1, False, yields=False)
        body.append(_suspension(draw, pool))
    body += _suite(draw, pool, 1, False, yields=False)
    return _define(draw, pool, body)


@st.composite
def hinted_prefix_defs(draw, tally: bool = False) -> CoroutineDef:
    """A static first stage, the random body, then a guarded tail-resume.

    The resume halves ``x``, which nothing else writes, so it runs at
    most log2(x) times.
    """
    pool = _Pool(tally=tally)
    body = [assign("v0", _expr(draw, pool)), yield_("static")]
    if tally:
        body.append(_tally(draw, pool))
    body += _suite(draw, pool, 0, False)
    body.append(if_("x > 1").then_(call("scrambler", "x // 2")))
    return _define(draw, pool, body)


def count_tree_yields(node) -> int:
    """Independent suspension count: walk the statement tree."""
    match node:
        case CoroutineDef(body=body):
            return count_tree_yields(body)
        case dsl.Block(stmts=stmts):
            return sum(count_tree_yields(s) for s in stmts)
        case dsl.Yield():
            return 1
        case dsl.If(then=then, orelse=orelse, yield_before=yb):
            n = int(yb) + count_tree_yields(then)
            if orelse is not None:
                n += count_tree_yields(orelse)
            return n
        case dsl.While(body=body) | dsl.DoWhile(body=body):
            return count_tree_yields(body)
        case dsl.Switch(cases=cases, default=default):
            n = sum(count_tree_yields(b) for _, b in cases)
            if default is not None:
                n += count_tree_yields(default)
            return n
        case dsl.Load(yield_before=yb) | dsl.Store(yield_before=yb):
            return int(yb)
        case _:
            return 0


def declaration_chain(n: int) -> CoroutineDef:
    """A valid definition declaring ``n`` variables: a long method chain."""
    b = coroutine("k")
    for i in range(n):
        b.variable("int", f"v{i}", str(i))
    return b.body(return_())
