"""Python source generation from coroutine definitions.

Four emitters, in two families:

* ``emit_routine``: the plain sequential function (suspension points
  stripped), used as the ground-truth twin of every generated unit.
* ``emit_dynamic``: a resumable per-task class driven through
  ``step()``; any control flow is allowed because the body runs as a
  Python generator, which keeps its own resume point and locals.
* ``emit_static``: a fixed-width batch class that marches all lanes
  through the stages in lockstep; requires the state machine to be a
  straight line.
* ``emit_hybrid``: fixed-width lanes that run a statically scheduled
  stage prefix in lockstep, then finish each lane dynamically on the
  same storage.

The routine and the dynamic unit print the definition's structured
control flow through one statement emitter.  Static and hybrid lanes
share column storage, so those two are built from the lowered state
machine (``split_stages``) and dispatch on its block ids.

Every emitter returns a :class:`SourceText` whose ``entry`` names a
zero-or-more-argument factory; calling the factory with the shared-arg
values (closure state, stored once per run, not per task) yields the
class, or the function itself for ``emit_routine``.  Output is
deterministic: the same definition always produces identical bytes.
"""

from __future__ import annotations

import contextlib
import textwrap
from dataclasses import dataclass
from typing import Any

from . import __version__, dsl
from .dsl import CoroutineDef, DeclKind
from .lowering import (
    ContextSpec,
    Fsm,
    compute_context,
    split_stages,
    static_prefix_len,
    straight_line_error,
    strip_yields,
)

__all__ = [
    "CodegenError",
    "SourceText",
    "emit_dynamic",
    "emit_static",
    "emit_hybrid",
    "emit_routine",
    "load_unit",
]


class CodegenError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SourceText:
    """A generated compilation unit.

    ``entry`` is the top-level symbol to pull out of the executed
    module: a factory function for generated classes, the function
    itself for routines.
    """

    entry: str
    header: str
    body: str

    @property
    def text(self) -> str:
        return self.header + "\n\n" + self.body


def _header(name: str) -> str:
    return (
        f"# Automatically generated by coroweave {__version__} from coroutine"
        f" def {name!r}. Do not edit by hand.\n"
        "from coroweave.runtime import fmix32, fmix64, prefetch\n"
    )


class _W:
    """Indented line writer."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def put(self, line: str = "") -> None:
        self.lines.append("    " * self.depth + line if line else "")

    def put_stmt_text(self, text: str) -> None:
        # Opaque statement text may span lines; re-home it at the
        # current indent.
        for line in textwrap.dedent(text).strip("\n").splitlines():
            self.put(line)

    @contextlib.contextmanager
    def indent(self):
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def load_unit(src: SourceText) -> Any:
    """Exec a generated unit and return its entry symbol."""
    ns: dict[str, Any] = {"__name__": f"coroweave.generated.{src.entry}"}
    exec(compile(src.text, f"<coroweave:{src.entry}>", "exec"), ns)
    return ns[src.entry]


# -- shared emission helpers


def _shared_names(cdef: CoroutineDef) -> list[str]:
    return [d.name for d in cdef.shared_args]


def _emit_ops(w: _W, ops, *, result_lhs: str) -> None:
    for op in ops:
        match op:
            case ("opaque", text):
                w.put_stmt_text(text)
            case ("assign", dst, expr):
                w.put(f"{dst} = {expr}")
            case ("store", lvalue, expr):
                w.put(f"{lvalue} = {expr}")
            case ("prefetch", expr):
                w.put(f"prefetch({expr})")
            case ("result", expr):
                w.put(f"{result_lhs} = {expr}")


def _emit_dispatch(w: _W, fsm: Fsm, block_ids, *, result_lhs: str,
                   on_yield, on_finish) -> None:
    """The block dispatch loop: ``_b`` selects an arm, arms jump or exit."""
    w.put("while True:")
    with w.indent():
        first = True
        for b in block_ids:
            blk = fsm.blocks[b]
            w.put(f"{'if' if first else 'elif'} _b == {b}:")
            first = False
            with w.indent():
                _emit_ops(w, blk.ops, result_lhs=result_lhs)
                match blk.term:
                    case ("goto", t):
                        w.put(f"_b = {t}")
                        w.put("continue")
                    case ("br", cond, bt, bf):
                        w.put(f"_b = {bt} if ({cond}) else {bf}")
                        w.put("continue")
                    case ("yield", sid, _hint):
                        on_yield(w, sid)
                    case ("finish",):
                        on_finish(w)
        w.put("else:")
        with w.indent():
            w.put('raise AssertionError(f"no block {_b}")')


# -- dynamic (per-task generator, any control flow)


def emit_dynamic(cdef: CoroutineDef) -> SourceText:
    """Resumable per-task unit: ``make_<name>(shared...)`` -> class.

    The body is printed once, as a generator nested in the factory:
    every suspension point yields False, and a return stores its value
    in a per-instance result cell, so the generator holds no reference
    back to the instance driving it.  ``step()`` advances the generator
    and returns True at and after completion; ``reset()`` (and so the
    pull-reject restart path) builds a fresh generator from the stored
    args, which the body's own mutations never touch.
    """
    _check_valid(cdef)
    cls = f"CoroutineState_{cdef.name}"
    factory = f"make_{cdef.name}"
    args = [d.name for d in cdef.args]
    has_result = cdef.result_decl is not None
    params = args + (["_out"] if has_result else [])
    slots = ("_args", "_gen") + (("_out",) if has_result else ())

    w = _W()
    w.put(f"def {factory}({', '.join(_shared_names(cdef))}):")
    with w.indent():
        w.put(f"def _run({', '.join(params)}):")
        with w.indent():
            em = _RoutineEmitter(w, cdef, cell="_out[0]" if has_result else None)
            em.body(cdef.body)
            if not em.yields:
                # Without a suspension point the body would be a plain
                # function; this keeps it a generator and yields nothing.
                w.put("yield from ()")
        w.put()
        w.put(f"class {cls}:")
        with w.indent():
            w.put(f'"""{cdef.name}: one generator per task, advanced by step()."""')
            w.put()
            w.put(f"__slots__ = {slots!r}")
            w.put()
            w.put(f"def __init__(self{''.join(', ' + a for a in args)}):")
            with w.indent():
                w.put(f"self._args = ({', '.join(args)}{',' if len(args) == 1 else ''})")
                if has_result:
                    w.put("self._out = _out = [None]")
                w.put(f"self._gen = _run({', '.join(params)})")
            w.put()
            w.put("def step(self):")
            with w.indent():
                w.put("return next(self._gen, True)")
            w.put()
            w.put("def done(self):")
            with w.indent():
                w.put("return self._gen.gi_frame is None")
            w.put()
            w.put("def reset(self):")
            with w.indent():
                w.put(f"self._gen = _run(*self._args{', self._out' if has_result else ''})")
            w.put()
            w.put("def result(self):")
            with w.indent():
                w.put("return self._out[0]" if has_result else "return None")
        w.put()
        w.put(f"return {cls}")
    return SourceText(factory, _header(cdef.name), w.text())


# -- static (fixed-width lockstep batch)


def _soa_slots(cdef: CoroutineDef, ctx: ContextSpec, *, per_lane_state: bool) -> list[str]:
    slots = []
    if per_lane_state:
        slots.append("_state")
    slots.append("_result")
    slots += [t for t in ("_cond", "_addr") if t in ctx.internal]
    slots += [f"_soa_{d.name}" for d in ctx.args + ctx.variables]
    return slots


def _emit_lane_copy(w: _W, names: list[str], temps: list[str], i: str, *, direction: str) -> None:
    lanes = [(n, f"_soa_{n}[{i}]") for n in names] + [(t, f"{t}_col[{i}]") for t in temps]
    for local, lane in lanes:
        w.put(f"{local} = {lane}" if direction == "in" else f"{lane} = {local}")


def _emit_stage_loop(w: _W, fsm: Fsm, stage_id: int, width: int,
                     names: list[str], temps: list[str]) -> None:
    """One lockstep width loop for a straight-line stage.

    Each lane runs this stage's blocks to the stage-ending yield (copy
    lane state out, next lane) or to finish (lane result is already
    stored).
    """
    st = fsm.stages[stage_id]
    entry = fsm.state_entry[stage_id]
    w.put(f"for _i in range({width}):")
    with w.indent():
        _emit_lane_copy(w, names, temps, "_i", direction="in")
        if len(st.block_ids) == 1:
            blk = fsm.blocks[entry]
            _emit_ops(w, blk.ops, result_lhs="_result_col[_i]")
            if blk.term[0] == "yield":
                _emit_lane_copy(w, names, temps, "_i", direction="out")
        else:

            def on_yield(w: _W, sid: int) -> None:
                _emit_lane_copy(w, names, temps, "_i", direction="out")
                w.put("break")

            def on_finish(w: _W) -> None:
                w.put("break")

            w.put(f"_b = {entry}")
            _emit_dispatch(
                w, fsm, st.block_ids, result_lhs="_result_col[_i]",
                on_yield=on_yield, on_finish=on_finish,
            )


def _emit_col_aliases(w: _W, names: list[str], temps: list[str], *, result: bool) -> None:
    for n in names:
        w.put(f"_soa_{n} = self._soa_{n}")
    for t in temps:
        w.put(f"{t}_col = self.{t}")
    if result:
        w.put("_result_col = self._result")


def _emit_init(w: _W, cdef: CoroutineDef, ctx: ContextSpec, width: int,
               *, scalar_stage: bool, lane_state: str | None) -> None:
    """Batch (re)initialization: load arg lanes, rewind the schedule."""
    args = [d.name for d in ctx.args]
    w.put(f"def init(self{''.join(', ' + a for a in args)}):")
    with w.indent():
        if scalar_stage:
            w.put("self._stage = 0")
        for a in args:
            w.put(f"_soa_{a} = self._soa_{a}")
        if lane_state is not None:
            w.put("_state = self._state")
        w.put(f"for _i in range({width}):")
        with w.indent():
            for a in args:
                w.put(f"_soa_{a}[_i] = {a}[_i]")
            if lane_state is not None:
                w.put(f"_state[_i] = {lane_state}")
            if not args and lane_state is None:
                w.put("pass")


def _emit_fini(w: _W, width: int) -> None:
    w.put("def fini(self, out):")
    with w.indent():
        w.put("_result_col = self._result")
        w.put(f"for _i in range({width}):")
        with w.indent():
            w.put("out[_i] = _result_col[_i]")


def emit_static(cdef: CoroutineDef, width: int) -> SourceText:
    """Lockstep batch unit: ``make_<name>_<width>(shared...)`` -> class.

    Requires a straight-line state machine (stage k suspends only into
    stage k+1).  ``super_step()`` advances every lane one stage and
    returns True once the final stage ran; lane state lives in columns.
    """
    if width < 1:
        raise CodegenError(f"{cdef.name}: width must be >= 1, got {width}")
    fsm = split_stages(cdef)
    err = straight_line_error(fsm)
    if err is not None:
        raise CodegenError(f"{cdef.name}: {err}")
    ctx = compute_context(cdef, fsm)
    nstages = len(fsm.state_entry)
    cls = f"CoroutineState_{cdef.name}_{width}"
    factory = f"make_{cdef.name}_{width}"
    names = [d.name for d in ctx.args + ctx.variables]
    temps = [t for t in ("_cond", "_addr") if t in ctx.internal]
    slots = tuple(["_stage"] + _soa_slots(cdef, ctx, per_lane_state=False))

    w = _W()
    w.put(f"def {factory}({', '.join(_shared_names(cdef))}):")
    with w.indent():
        w.put(f"class {cls}:")
        with w.indent():
            w.put(f'"""{cdef.name} across {width} lockstep lanes,'
                  f" {nstages} stage(s) per batch.\"\"\"")
            w.put()
            w.put(f"__slots__ = {slots!r}")
            w.put()
            w.put(f"_WIDTH = {width}")
            w.put(f"_STAGES = {nstages}")
            w.put()
            w.put("def __init__(self):")
            with w.indent():
                w.put("self._stage = 0")
                for s in slots[1:]:
                    w.put(f"self.{s} = [None] * {width}")
            w.put()
            _emit_init(w, cdef, ctx, width, scalar_stage=True, lane_state=None)
            w.put()
            w.put("def super_step(self):")
            with w.indent():
                w.put("_stage = self._stage")
                w.put(f"if _stage >= {nstages}:")
                with w.indent():
                    w.put("return True")
                _emit_col_aliases(w, names, temps, result=True)
                for k in range(nstages):
                    w.put(f"if _stage == {k}:")
                    with w.indent():
                        _emit_stage_loop(w, fsm, k, width, names, temps)
                        w.put(f"self._stage = {k + 1}")
                        w.put(f"return {k == nstages - 1}")
                w.put("return True")
            w.put()
            _emit_fini(w, width)
        w.put()
        w.put(f"return {cls}")
    return SourceText(factory, _header(cdef.name), w.text())


# -- hybrid (static stage prefix, dynamic per-lane suffix)


def _tail_blocks(fsm: Fsm, prefix: int) -> list[int]:
    """Blocks of every stage reachable from state ``prefix``.

    Follows stage successors rather than taking the stages numbered
    ``prefix`` and up: a tail-resume jumps back to block 0, whose
    stage-0 code then re-enters the prefix states.
    """
    seen: set[int] = set()
    work = [prefix]
    while work:
        sid = work.pop()
        if sid in seen or sid == fsm.finished_id:
            continue
        seen.add(sid)
        work.extend(fsm.stages[sid].successors)
    return sorted({b for sid in seen for b in fsm.stages[sid].block_ids})


def emit_hybrid(cdef: CoroutineDef, width: int) -> SourceText:
    """Prefix-lockstep unit: ``make_hybrid_<name>_<width>(shared...)``.

    ``run_prefix()`` marches all lanes through the statically hinted
    leading stages in lockstep; afterwards each lane is stepped to
    completion with ``step_slot(i)`` on the same columnar storage.
    """
    if width < 1:
        raise CodegenError(f"{cdef.name}: width must be >= 1, got {width}")
    fsm = split_stages(cdef)
    prefix = static_prefix_len(fsm)
    if prefix < 1:
        raise CodegenError(
            f"{cdef.name}: no statically scheduled stage prefix; hint the"
            " leading yields as static, or use the dynamic unit"
        )
    ctx = compute_context(cdef, fsm)
    finished = fsm.finished_id
    cls = f"CoroutineHybrid_{cdef.name}_{width}"
    factory = f"make_hybrid_{cdef.name}_{width}"
    names = [d.name for d in ctx.args + ctx.variables]
    temps = [t for t in ("_cond", "_addr") if t in ctx.internal]
    slots = tuple(_soa_slots(cdef, ctx, per_lane_state=True))

    w = _W()
    w.put(f"def {factory}({', '.join(_shared_names(cdef))}):")
    with w.indent():
        w.put(f"class {cls}:")
        with w.indent():
            w.put(f'"""{cdef.name} across {width} lanes: {prefix} lockstep'
                  f" stage(s), then per-lane stepping.\"\"\"")
            w.put()
            w.put(f"__slots__ = {slots!r}")
            w.put()
            w.put(f"_WIDTH = {width}")
            w.put(f"_PREFIX = {prefix}")
            w.put(f"_FINISHED = {finished}")
            w.put()
            w.put("def __init__(self):")
            with w.indent():
                for s in slots:
                    w.put(f"self.{s} = [None] * {width}")
            w.put()
            _emit_init(w, cdef, ctx, width, scalar_stage=False, lane_state="0")
            w.put()
            w.put("def run_prefix(self):")
            with w.indent():
                _emit_col_aliases(w, names, temps, result=True)
                for k in range(prefix):
                    _emit_stage_loop(w, fsm, k, width, names, temps)
                w.put("_state = self._state")
                w.put(f"for _i in range({width}):")
                with w.indent():
                    w.put(f"_state[_i] = {prefix}")
            w.put()
            w.put("def step_slot(self, _i):")
            with w.indent():
                w.put("_s = self._state[_i]")
                w.put(f"if _s == {finished}:")
                with w.indent():
                    w.put("return True")
                for n in names:
                    w.put(f"{n} = self._soa_{n}[_i]")
                for t in temps:
                    w.put(f"{t} = self.{t}[_i]")
                entries = ", ".join(str(b) for b in fsm.state_entry)
                w.put(f"_b = ({entries},)[_s]")

                def on_yield(w: _W, sid: int) -> None:
                    for n in names:
                        w.put(f"self._soa_{n}[_i] = {n}")
                    for t in temps:
                        w.put(f"self.{t}[_i] = {t}")
                    w.put(f"self._state[_i] = {sid}")
                    w.put("return False")

                def on_finish(w: _W) -> None:
                    w.put(f"self._state[_i] = {finished}")
                    w.put("return True")

                _emit_dispatch(
                    w, fsm, _tail_blocks(fsm, prefix),
                    result_lhs="self._result[_i]", on_yield=on_yield,
                    on_finish=on_finish,
                )
            w.put()
            _emit_fini(w, width)
        w.put()
        w.put(f"return {cls}")
    return SourceText(factory, _header(cdef.name), w.text())


# -- plain sequential routine and the shared statement emitter


def _check_valid(cdef: CoroutineDef) -> None:
    diags = dsl.validate(cdef)
    if diags:
        raise CodegenError(
            f"{cdef.name} does not validate: " + "; ".join(str(d) for d in diags)
        )


def emit_routine(cdef: CoroutineDef) -> SourceText:
    """The sequential twin as a plain function (suspensions stripped)."""
    _check_valid(cdef)
    params = [
        d.name for d in cdef.decls if d.kind in (DeclKind.ARG, DeclKind.SHARED_ARG)
    ]
    w = _W()
    w.put(f"def {cdef.name}({', '.join(params)}):")
    with w.indent():
        w.put(f'"""Sequential form of the {cdef.name!r} coroutine def."""')
        _RoutineEmitter(w, cdef).body(strip_yields(cdef).body)
    return SourceText(cdef.name, _header(cdef.name), w.text())


def _sub_blocks(s) -> list[dsl.Block]:
    match s:
        case dsl.Block():
            return [s]
        case dsl.If(then=then, orelse=orelse):
            return [then] if orelse is None else [then, orelse]
        case dsl.Switch(cases=cases, default=default):
            return [b for _, b in cases] + ([] if default is None else [default])
        case dsl.While(body=body) | dsl.DoWhile(body=body):
            return [body]
    return []


def _binds(blk: dsl.Block, kind: type, scope: tuple[type, ...]) -> bool:
    """Whether a ``kind`` statement in ``blk`` reaches the construct around it.

    The scan does not enter nested ``scope`` constructs, which would
    bind such a statement first.
    """
    return any(
        isinstance(s, kind)
        or (not isinstance(s, scope) and any(_binds(b, kind, scope) for b in _sub_blocks(s)))
        for s in blk.stmts
    )


def _has_call(blk: dsl.Block) -> bool:
    return _binds(blk, dsl.Call, ())


def _binds_continue(blk: dsl.Block) -> bool:
    return _binds(blk, dsl.Continue, (dsl.While, dsl.DoWhile))


def _binds_break(blk: dsl.Block) -> bool:
    return _binds(blk, dsl.Break, (dsl.While, dsl.DoWhile, dsl.Switch))


class _RoutineEmitter:
    """Structured statement emission for the routine and generator bodies.

    Break/continue targets are carried as literal line lists so that a
    translation through a ``for _once in (0,):`` wrapper (needed when a
    do-while body re-checks its condition via continue, or a switch arm
    breaks out early) composes with enclosing constructs.

    A self tail-resume rebinds the args and restarts a ``while True:``
    loop around the body, which re-runs the variable initializers; from
    inside nested Python loops it sets ``_rs`` and breaks out level by
    level.  Bodies without a ``call`` get neither the loop nor the flag.

    Suspension points (absent from a stripped routine) print as
    ``yield False``; with ``cell`` set, a valued return stores into it.
    """

    def __init__(self, w: _W, cdef: CoroutineDef, cell: str | None = None) -> None:
        self.w = w
        self.cdef = cdef
        self.cell = cell
        self.counter = 0
        self.loops = 0
        self.yields = 0

    def fresh(self) -> int:
        self.counter += 1
        return self.counter

    def body(self, blk: dsl.Block) -> None:
        w = self.w
        if not _has_call(blk):
            self.var_inits()
            self.suite(blk, None, None)
            return
        w.put("while True:")
        with w.indent():
            self.var_inits()
            self.suite(blk, None, None)
            if not isinstance(blk.stmts[-1], (dsl.Return, dsl.Call)):
                w.put("return")

    def var_inits(self) -> None:
        for d in self.cdef.variables:
            if d.init is not None:
                self.w.put(f"{d.name} = {d.init}")

    def suspend(self) -> None:
        self.yields += 1
        self.w.put("yield False")

    def escape(self) -> str:
        # Leave the innermost Python loop, or restart at the outermost.
        return "break" if self.loops else "continue"

    @contextlib.contextmanager
    def loop(self, header: str, calls: bool):
        """A Python loop whose body is emitted inside the with-block."""
        w = self.w
        if calls:
            w.put("_rs = False")
        w.put(header)
        self.loops += 1
        with w.indent():
            yield
        self.loops -= 1
        if calls:
            w.put("if _rs:")
            with w.indent():
                w.put(self.escape())

    def suite(self, blk: dsl.Block, brk: list[str] | None, cont: list[str] | None) -> None:
        before = len(self.w.lines)
        for d in blk.decls:
            if d.init is not None:
                self.w.put(f"{d.name} = {d.init}")
        for s in blk.stmts:
            self.stmt(s, brk, cont)
        if len(self.w.lines) == before:
            self.w.put("pass")

    def stmt(self, s, brk, cont) -> None:
        w = self.w
        match s:
            case dsl.Opaque(text=text):
                w.put_stmt_text(text)
            case dsl.Assign(dst=dst, value=value):
                w.put(f"{dst} = {value}")
            case dsl.Load(dst=dst, addr=addr, yield_before=yb):
                if yb:
                    w.put(f"_addr = {addr}")
                    w.put("prefetch(_addr)")
                    self.suspend()
                    addr = "_addr"
                w.put(f"{dst} = {addr}")
            case dsl.Store(addr=addr, value=value, yield_before=yb):
                if yb:
                    w.put(f"_addr = {value}")
                    self.suspend()
                    value = "_addr"
                w.put(f"{addr} = {value}")
            case dsl.Prefetch(addrs=addrs):
                for a in addrs:
                    w.put(f"prefetch({a})")
            case dsl.Yield():
                self.suspend()
            case dsl.Return(value=value):
                if value is not None and self.cell is not None:
                    w.put(f"{self.cell} = {value}")
                    value = None
                w.put(f"return {value}")
            case dsl.Break():
                for line in brk:
                    w.put(line)
            case dsl.Continue():
                for line in cont:
                    w.put(line)
            case dsl.Block():
                self.suite(s, brk, cont)
            case dsl.If(cond=cond, then=then, orelse=orelse, yield_before=yb):
                if yb:
                    w.put(f"_cond = {cond}")
                    self.suspend()
                    cond = "_cond"
                w.put(f"if {cond}:")
                with w.indent():
                    self.suite(then, brk, cont)
                if orelse is not None:
                    w.put("else:")
                    with w.indent():
                        self.suite(orelse, brk, cont)
            case dsl.While(cond=cond, body=body):
                with self.loop(f"while {cond}:", _has_call(body)):
                    self.suite(body, ["break"], ["continue"])
            case dsl.DoWhile(body=body, cond=cond):
                self.do_while(body, cond)
            case dsl.Switch():
                self.switch(s, brk, cont)
            case dsl.Call(args=args):
                self.tail_call(args)
            case _:
                raise CodegenError(f"cannot emit {type(s).__name__} in a routine")

    def do_while(self, body: dsl.Block, cond: str) -> None:
        w = self.w
        calls = _has_call(body)
        if not _binds_continue(body):
            with self.loop("while True:", calls):
                self.suite(body, ["break"], None)
                w.put(f"if not ({cond}):")
                with w.indent():
                    w.put("break")
            return
        # A continue must land on the condition check, which a bare
        # while-True continue would skip; route it through a one-shot
        # inner loop.
        n = self.fresh()
        has_break = _binds_break(body)
        if has_break:
            w.put(f"_brk{n} = False")
        with self.loop("while True:", calls):
            with self.loop(f"for _once{n} in (0,):", calls):
                brk = [f"_brk{n} = True", "break"] if has_break else None
                self.suite(body, brk, ["break"])
            if has_break:
                w.put(f"if _brk{n}:")
                with w.indent():
                    w.put("break")
            w.put(f"if not ({cond}):")
            with w.indent():
                w.put("break")

    def switch(self, s: dsl.Switch, brk, cont) -> None:
        w = self.w
        n = self.fresh()
        tmp = f"_sw{n}"
        w.put(f"{tmp} = {s.scrutinee}")
        arms = _sub_blocks(s)
        if not any(map(_binds_break, arms)):
            self.switch_chain(tmp, s, brk=None, cont=cont)
            return
        # An early break out of an arm needs something to break from;
        # an outer continue inside the wrapper must first escape it.
        cont_inner = cont
        cont_flag = None
        if cont is not None and any(map(_binds_continue, arms)):
            cont_flag = f"_cont{n}"
            w.put(f"{cont_flag} = False")
            cont_inner = [f"{cont_flag} = True", "break"]
        with self.loop(f"for _once{n} in (0,):", any(map(_has_call, arms))):
            self.switch_chain(tmp, s, brk=["break"], cont=cont_inner)
        if cont_flag is not None:
            w.put(f"if {cont_flag}:")
            with w.indent():
                for line in cont:
                    w.put(line)

    def switch_chain(self, tmp: str, s: dsl.Switch, brk, cont) -> None:
        w = self.w
        for k, (const, blk) in enumerate(s.cases):
            w.put(f"{'if' if k == 0 else 'elif'} {tmp} == ({const}):")
            with w.indent():
                self.suite(blk, brk, cont)
        if s.default is not None:
            w.put("else:")
            with w.indent():
                self.suite(s.default, brk, cont)

    def tail_call(self, args: tuple[str, ...]) -> None:
        # A tuple assignment evaluates every new value before binding
        # any, so an arg expression may read the old values.
        w = self.w
        names = [d.name for d in self.cdef.args]
        if names:
            w.put(f"{', '.join(names)} = {', '.join(f'({a})' for a in args)}")
        if self.loops:
            w.put("_rs = True")
        w.put(self.escape())
