"""Seeded synthetic coroutine definitions whose answers the generator knows.

Every definition takes a shared 16-entry table ``tbl`` and per-task
args ``x``, ``acc`` and ``buf`` (a 4-entry scratch list), folds its work
into ``acc`` modulo 2**16 and returns it.  It is built from segments;
each segment yields its builder items and a Python function that does
the same work on a plain dict, so the generator computes every answer
itself, without the library's lowering or code generation.

Three categories fix which shapes a definition qualifies for, so every
seed emits the same number of units:

* ``straight``: yields only at top level, the first one hinted static;
  routine, dynamic, static and hybrid;
* ``prefix``: one or two static-hinted yields, then data-dependent
  stages; routine, dynamic and hybrid;
* ``branchy``: data-dependent from the first stage, half of them
  ending in a self tail-resume; routine and dynamic.

Parameters (see README.md): segment counts per category, loop trips
1-3, nesting depth at most 3, 12 inputs per definition.  Structure is
drawn per definition index, constants and inputs per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from coroweave.dsl import (
    CoroutineDef,
    assign,
    break_,
    call,
    continue_,
    coroutine,
    do_,
    if_,
    load,
    opaque,
    prefetch,
    return_,
    store,
    switch_,
    while_,
    yield_,
)

CATEGORIES = ("straight", "prefix", "branchy")
INPUTS_PER_DEF = 12
MAX_DEPTH = 3
TAIL_DEPTH = 5000

Apply = Callable[[dict], "str | None"]


def _seq(applies: list[Apply]) -> Apply:
    """Run segment functions in order; stop at a break/continue signal."""

    def run(e):
        for f in applies:
            sig = f(e)
            if sig is not None:
                return sig
        return None

    return run


class _Gen:
    """Builds one definition.

    ``shape`` draws the structure (segment kinds, nesting, loop trips,
    which memory ops suspend), so every seed compiles the same code
    shapes; ``rng`` draws constants and residues from the seed.
    """

    def __init__(self, shape: random.Random, rng: random.Random) -> None:
        self.shape = shape
        self.rng = rng
        self.vars: list[str] = []

    def fresh(self, prefix: str) -> str:
        name = f"{prefix}{len(self.vars)}"
        self.vars.append(name)
        return name

    # -- straight segments: no suspension inside control flow

    def mix(self, top):
        a, b = self.rng.choice((3, 5, 7, 9)), self.rng.randrange(1, 100)

        def f(e):
            e["acc"] = (e["acc"] * a + e["x"] + b) & 0xFFFF

        return [assign("acc", f"(acc * {a} + x + {b}) & 0xFFFF")], f

    def opaque_(self, top):
        s = self.rng.randrange(5)

        def f(e):
            e["acc"] = (e["acc"] ^ (e["x"] << s)) & 0xFFFF

        return [opaque(f"acc = (acc ^ (x << {s})) & 0xFFFF")], f

    def load_(self, top):
        t, c = self.fresh("t"), self.rng.randrange(16)
        yb = top and self.shape.random() < 0.7

        def f(e):
            e[t] = e["tbl"][(e["acc"] + c) & 15]
            e["acc"] = (e["acc"] + e[t] * 3) & 0xFFFF

        return [load(t, f"tbl[(acc + {c}) & 15]", yield_before=yb),
                assign("acc", f"(acc + {t} * 3) & 0xFFFF")], f

    def store_(self, top):
        p = self.rng.randrange(4)
        yb = top and self.shape.random() < 0.5

        def f(e):
            e["buf"][p] = (e["acc"] + e["x"]) & 255
            e["acc"] = (e["acc"] + e["buf"][p] * 5) & 0xFFFF

        return [store(f"buf[{p}]", "(acc + x) & 255", yield_before=yb),
                assign("acc", f"(acc + buf[{p}] * 5) & 0xFFFF")], f

    def yield_seg(self, hint):
        return [prefetch("tbl[acc & 15]"), yield_(hint)], lambda e: None

    def if_plain(self, depth):
        r = self.rng.randrange(3)
        ti, tf = self.straight_body(depth + 1)
        ei, ef = self.straight_body(depth + 1)

        def f(e):
            return tf(e) if (e["acc"] + e["x"]) % 3 == r else ef(e)

        return [if_(f"(acc + x) % 3 == {r}").then_(*ti).else_(*ei)], f

    def switch_plain(self, depth):
        parts = [self.straight_body(depth + 1) for _ in range(4)]
        (ai, af), (bi, bf), (ci, cf), (di, df) = parts

        def f(e):
            s = (e["acc"] ^ e["x"]) % 4
            if s == 0:
                return af(e)
            if s == 1:
                return bf(e)
            if s == 2:
                return None if e["acc"] % 2 == 0 else cf(e)
            return df(e)

        sw = (switch_("(acc ^ x) % 4")
              .case_("0", *ai)
              .case_("1", *bi, break_())
              .case_("2", if_("acc % 2 == 0").then_(break_()), *ci)
              .default_(*di))
        return [sw], f

    def loop_plain(self, depth):
        i, n = self.fresh("i"), self.shape.randrange(1, 4)
        bi, bf = self.straight_body(depth + 1)
        if self.shape.random() < 0.5:

            def f(e):
                e[i] = 0
                while e[i] < n:
                    e[i] += 1
                    bf(e)

            return [assign(i, "0"),
                    while_(f"{i} < {n}").do_(assign(i, f"{i} + 1"), *bi)], f

        def g(e):
            e[i] = 0
            while True:
                e[i] += 1
                bf(e)
                if not e[i] < n:
                    return None

        return [assign(i, "0"),
                do_(assign(i, f"{i} + 1"), *bi).while_(f"{i} < {n}")], g

    def straight(self, depth, top):
        kinds = [self.mix, self.opaque_, self.load_, self.store_]
        if depth < MAX_DEPTH:
            kinds += [self.if_plain, self.switch_plain, self.loop_plain]
        k = self.shape.choice(kinds)
        if k in (self.if_plain, self.switch_plain, self.loop_plain):
            return k(depth)
        return k(top)

    def straight_body(self, depth):
        segs = [self.straight(depth, False) for _ in range(self.shape.randrange(1, 3))]
        return [x for items, _ in segs for x in items], _seq([f for _, f in segs])

    # -- dynamic segments: suspension inside control flow

    def loop_yield(self, depth, in_loop):
        i, n = self.fresh("i"), self.shape.randrange(1, 4)
        m, b, r = self.shape.choice((3, 4)), self.rng.randrange(100), self.rng.randrange(13)
        ni, nf = self.inner(depth + 1, True)

        def f(e):
            e[i] = 0
            while e[i] < n:
                e[i] += 1
                if (e["acc"] + e[i]) % m == 0:
                    continue
                e["acc"] = (e["acc"] * 5 + e[i] + b) & 0xFFFF
                if nf(e) == "continue":
                    continue
                if e["acc"] % 13 == r:
                    break
            return None

        return [assign(i, "0"), while_(f"{i} < {n}").do_(
            assign(i, f"{i} + 1"),
            if_(f"(acc + {i}) % {m} == 0").then_(continue_()),
            prefetch("tbl[acc & 15]"),
            yield_(),
            assign("acc", f"(acc * 5 + {i} + {b}) & 0xFFFF"),
            *ni,
            if_(f"acc % 13 == {r}").then_(break_()),
        )], f

    def do_yield(self, depth, in_loop):
        i, n = self.fresh("i"), self.shape.randrange(1, 4)
        a, c, r = self.rng.choice((3, 7)), self.rng.randrange(256), self.rng.randrange(7)
        ni, nf = self.inner(depth + 1, True)

        def f(e):
            e[i] = 0
            while True:
                e[i] += 1
                e["acc"] = (e["acc"] + e["tbl"][(e["acc"] + e[i]) & 15] * a) & 0xFFFF
                if nf(e) is None and e["acc"] % 7 != r:
                    e["acc"] = (e["acc"] ^ c) & 0xFFFF
                if not e[i] < n:
                    return None

        return [assign(i, "0"), do_(
            assign(i, f"{i} + 1"),
            prefetch("tbl[acc & 15]"),
            yield_(),
            assign("acc", f"(acc + tbl[(acc + {i}) & 15] * {a}) & 0xFFFF"),
            *ni,
            if_(f"acc % 7 == {r}").then_(continue_()),
            assign("acc", f"(acc ^ {c}) & 0xFFFF"),
        ).while_(f"{i} < {n}")], f

    def if_yield(self, depth, in_loop):
        r = self.rng.randrange(2)
        ni, nf = self.inner(depth + 1, in_loop)

        def f(e):
            if (e["acc"] + e["x"]) % 2 == r:
                e["acc"] = (e["acc"] + e["tbl"][e["x"] & 15]) & 0xFFFF
                return nf(e)
            e["acc"] = (e["acc"] * 3 + 1) & 0xFFFF
            return None

        return [if_(f"(acc + x) % 2 == {r}").yield_before().then_(
            prefetch("tbl[x & 15]"),
            yield_(),
            assign("acc", "(acc + tbl[x & 15]) & 0xFFFF"),
            *ni,
        ).else_(assign("acc", "(acc * 3 + 1) & 0xFFFF"))], f

    def switch_yield(self, depth, in_loop):
        (bi, bf), (di, df) = self.straight_body(depth + 1), self.straight_body(depth + 1)

        def f(e):
            s = (e["acc"] + e["x"]) % 3
            if s == 0:
                e["acc"] = (e["acc"] + e["tbl"][e["acc"] & 15]) & 0xFFFF
                return None
            return bf(e) if s == 1 else df(e)

        sw = (switch_("(acc + x) % 3")
              .case_("0", prefetch("tbl[acc & 15]"), yield_(),
                     assign("acc", "(acc + tbl[acc & 15]) & 0xFFFF"))
              .case_("1", *bi)
              .default_(*di))
        return [sw], f

    def switch_continue(self, depth):
        """Only inside a loop body: a case that continues the loop."""
        (ai, af), (di, df) = self.straight_body(depth + 1), self.straight_body(depth + 1)

        def f(e):
            if e["acc"] % 3 == 0:
                af(e)
                return "continue"
            return df(e)

        return [switch_("acc % 3").case_("0", *ai, continue_()).default_(*di)], f

    def dynamic(self, depth, in_loop=False):
        kinds = [self.loop_yield, self.do_yield, self.if_yield, self.switch_yield]
        return self.shape.choice(kinds)(depth, in_loop)

    def inner(self, depth, in_loop):
        """Nested segments: straight, dynamic, or inside a loop a continue."""
        if depth >= MAX_DEPTH:
            return self.straight_body(depth)
        kinds = [lambda: self.straight(depth, False), lambda: self.dynamic(depth, in_loop)]
        if in_loop:
            kinds.append(lambda: self.switch_continue(depth))
        segs = [self.shape.choice(kinds)() for _ in range(self.shape.randrange(1, 3))]
        return [x for items, _ in segs for x in items], _seq([f for _, f in segs])

    def top_straight(self):
        if self.shape.random() < 0.3:
            return self.yield_seg(self.shape.choice(("static", "default")))
        return self.straight(1, True)


@dataclass
class SynthDef:
    """A generated definition, the shapes it qualifies for, its answers."""

    cdef: CoroutineDef
    static: bool
    hybrid: bool
    tail: bool
    model: Callable[[list, int, int, list], int]

    def inputs(self, rng: random.Random) -> list[tuple]:
        """Seeded ``(x, acc, buf)`` tasks.

        A tail-resuming def recurses ``x`` deep, so its ``x`` values are
        a fixed mix of depths 0-6 in seeded order: every seed resumes
        the same number of times.
        """
        if self.tail:
            xs = [i % 7 for i in range(INPUTS_PER_DEF)]
            rng.shuffle(xs)
        else:
            xs = [rng.randrange(1000) for _ in range(INPUTS_PER_DEF)]
        return [(x, rng.randrange(1 << 16), [0] * 4) for x in xs]


def make_synth(idx: int, rng: random.Random) -> SynthDef:
    """Definition ``idx`` of a pool; its category is ``idx % 3``.

    The structure depends on ``idx`` alone, the constants on ``rng``.
    """
    cat = CATEGORIES[idx % 3]
    g = _Gen(random.Random(idx), rng)
    name = f"syn{idx}"
    if cat == "straight":
        segs = [g.yield_seg("static")] + [g.top_straight() for _ in range(5)]
    elif cat == "prefix":
        segs = [g.yield_seg("static") for _ in range(1 + idx % 2)]
        segs += [g.top_straight(), g.dynamic(1), g.top_straight(), g.dynamic(1)]
    else:
        segs = [g.dynamic(1), g.top_straight(), g.dynamic(1), g.top_straight()]
    tail = cat == "branchy" and idx % 2 == 0
    body = [x for items, _ in segs for x in items]
    run = _seq([f for _, f in segs])
    if tail:
        body.append(if_("x > 0").then_(call(name, "x - 1", "acc", "buf")))
    body.append(return_("acc & 0xFFFF"))
    b = (coroutine(name).result("int", "res").shared_arg("int[]", "tbl")
         .arg("int", "x").arg("int", "acc").arg("list", "buf"))
    for v in g.vars:
        b = b.variable("int", v, "0")

    def model(tbl: list, x: int, acc: int, buf: list) -> int:
        e = {"tbl": tbl, "buf": [0] * len(buf), "x": x, "acc": acc}
        while True:
            e.update({v: 0 for v in g.vars})
            run(e)
            if not (tail and e["x"] > 0):
                return e["acc"] & 0xFFFF
            e["x"] -= 1

    return SynthDef(b.body(*body), static=cat == "straight",
                    hybrid=cat != "branchy", tail=tail, model=model)


def tail_resume_def() -> CoroutineDef:
    """``countdown(x, acc)``: one suspension per level, then resume with x - 1.

    The answer is ``acc + x * (x + 1) // 2``.  At depth 5000 the routine,
    which compiles the resume to Python recursion, exceeds the default
    recursion limit; the dynamic unit restarts in place.
    """
    return (
        coroutine("countdown").result("int", "res").arg("int", "x").arg("int", "acc")
        .body(
            if_("x == 0").then_(return_("acc")),
            prefetch("x"),
            yield_(),
            call("countdown", "x - 1", "acc + x"),
        )
    )


def tail_resume_answer(x: int, acc: int) -> int:
    return acc + x * (x + 1) // 2
