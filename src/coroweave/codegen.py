"""Python source generation from coroutine definitions.

Four emitters, in two families:

* ``emit_routine``: the plain sequential function, printed from the
  definition's own tree without suspension points or marks, used as
  the ground-truth twin of every generated unit.
* ``emit_dynamic``: a resumable per-task class driven through
  ``step()``; any control flow is allowed because the body runs as a
  Python generator, which keeps its own resume point and locals.
* ``emit_static``: a batch class of up to ``width`` lanes, one per
  task, that marches all lanes through the stages in lockstep;
  requires the state machine to be a straight line.
* ``emit_hybrid``: up to ``width`` lanes that run a statically
  scheduled stage prefix in lockstep, then finish each lane
  dynamically.

All four print the definition's structured control flow through one
statement emitter.  The dynamic, static and hybrid units run it as
one lane generator, ``_run(_t, _out, _i)``, which unpacks the task
tuple ``_t`` and stores its result in ``_out[_i]``: one per task, or
one per lane, advanced in lockstep or one lane at a time.  The lane is
printed once per definition, inside ``_lane(shared...)``, which binds
the shared args and returns ``_run``.  A two-line factory hands
``_lane(shared...)`` to ``runtime.unit``, which builds the class on
``runtime.DynamicUnit`` or ``runtime.BatchUnit`` with a batch unit's
constants.  The dynamic factory has no constants, so it is printed
with the lane, and a dynamic unit is the lane chunk alone; each batch
unit adds its own factory after it.  Marked loads call ``runtime.mark``,
which costs no Python frame without a prefetch hook; a prefetch
address is evaluated only while a hook is installed.  Every emitter
refuses a definition that ``dsl.validate`` rejects; only the batch
emitters lower it (``lowering.split_stages``), to read whether it
qualifies for their schedule.

Every emitter returns a :class:`SourceText` whose ``entry`` names a
zero-or-more-argument factory; calling the factory with the shared-arg
values (closure state, stored once per run, not per task) yields the
class, or the function itself for ``emit_routine``.  Output is
deterministic: equal definitions produce identical bytes.

The printed lane chunk (header plus ``_lane``) and the printed routine
are kept on the definition object, each with its code object once
first loaded: ``CoroutineDef.memo`` keeps them under "lane" and
"routine", beside the diagnostics and the FSM.  Like those, they are
keyed by the object's identity, never by its content: an equal
definition built separately prints and compiles its own.  So a
definition's lane is printed and compiled once, however many shapes
and widths are emitted and loaded from it.
"""

from __future__ import annotations

import contextlib
import textwrap
from dataclasses import dataclass
from typing import Any

from . import __version__, dsl
from .dsl import CoroutineDef, DeclKind
from .lowering import Fsm, split_stages, static_prefix_len, straight_line_error

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


class _Chunk:
    """Module text printed once per definition object, and its code once loaded.

    ``text`` is the header, then either the ``_lane`` function and the
    dynamic factory, or the routine; ``lines`` counts its lines, so that
    a batch unit's factory can be compiled at the line numbers it has in
    the unit's text.
    """

    __slots__ = ("name", "text", "lines", "code")

    def __init__(self, name: str, header: str, body: str) -> None:
        self.name = name
        self.text = header + "\n\n" + body
        self.lines = self.text.count("\n")
        self.code = None

    def run(self, ns: dict[str, Any]) -> None:
        if self.code is None:
            self.code = compile(self.text, f"<coroweave:{self.name}>", "exec")
        exec(self.code, ns)


@dataclass(frozen=True, slots=True)
class SourceText:
    """A generated compilation unit: the definition's chunk, then the unit's factory.

    ``entry`` is the top-level symbol to pull out of the executed
    module: a factory function for generated classes, the function
    itself for routines.  ``text`` is the whole module that
    ``load_unit`` runs, line for line: ``chunk`` (the header, the
    ``_lane`` function and the dynamic factory, or the header and the
    routine) followed by ``factory``, a batch unit's own lines (empty
    for a dynamic unit or a routine).  The chunk and its code object
    are shared by every unit emitted from one definition object and
    cached on that object, keyed by identity.
    """

    entry: str
    chunk: _Chunk
    factory: str = ""

    @property
    def text(self) -> str:
        return self.chunk.text + self.factory


def _header(name: str) -> str:
    return (
        f"# Automatically generated by coroweave {__version__} from coroutine"
        f" def {name!r}. Do not edit by hand.\n"
        "import coroweave.runtime as _rt\n"
        "from coroweave.runtime import fmix32, fmix64\n"
    )


# CPython's tokenizer refuses a line indented 100 levels deep.
_MAX_DEPTH = 99


class _W:
    """Indented line writer for definition ``name``'s text."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[str] = []
        self.depth = 0

    def put(self, line: str = "") -> None:
        self.lines.append("    " * self.depth + line if line else "")

    def put_stmt_text(self, text: str) -> None:
        # Opaque statement text may span lines; re-home it at the
        # current indent, counting the levels its own lines open as
        # the tokenizer does, by a stack of indent widths.
        widths = [0]
        for line in textwrap.dedent(text).strip("\n").splitlines():
            if line.strip():
                width = len(line) - len(line.lstrip())
                while width < widths[-1]:
                    widths.pop()
                if width > widths[-1]:
                    widths.append(width)
                if self.depth + len(widths) - 1 > _MAX_DEPTH:
                    self.too_deep("opaque text")
            self.put(line)

    def too_deep(self, what: str) -> None:
        raise CodegenError(
            f"{self.name}: {what} nests past Python's limit of"
            f" {_MAX_DEPTH} indentation levels"
        )

    def indent(self) -> _W:
        return self

    def __enter__(self) -> None:
        # every indented suite holds a line, so this is where one would be too deep
        if self.depth == _MAX_DEPTH:
            self.too_deep("a statement")
        self.depth += 1

    def __exit__(self, *exc) -> None:
        self.depth -= 1

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def load_unit(src: SourceText) -> Any:
    """Exec a generated unit and return its entry symbol.

    The chunk's code is compiled on its first load and reused after;
    only a batch unit's factory is compiled here, after blank lines that
    put each of its lines at its line number in ``src.text``.
    """
    ns: dict[str, Any] = {"__name__": f"coroweave.generated.{src.entry}"}
    src.chunk.run(ns)
    if src.factory:
        pad = "\n" * src.chunk.lines
        exec(compile(pad + src.factory, f"<coroweave:{src.entry}>", "exec"), ns)
    return ns[src.entry]


# -- shared emission helpers


def _check_valid(cdef: CoroutineDef) -> None:
    """CodegenError if ``cdef`` has diagnostics."""
    diags = dsl.validate(cdef)
    if diags:
        raise CodegenError(f"{cdef.name} does not validate: " + "; ".join(map(str, diags)))


def _check_batch(cdef: CoroutineDef, width: int) -> Fsm:
    """A batch emitter's first checks, width then validity; returns the FSM."""
    if width < 1:
        raise CodegenError(f"{cdef.name}: width must be >= 1, got {width}")
    _check_valid(cdef)
    return split_stages(cdef)


def _print_lane(cdef: CoroutineDef) -> _Chunk:
    """``_lane(shared...)``, which returns the lane generator ``_run``, then the dynamic factory.

    The body is printed once, as ``_run(_t, _out, _i)``, whose first
    line unpacks the task tuple ``_t`` into the args.  Every suspension
    point yields False, and a valued return stores into ``_out[_i]``,
    so the generator holds no reference back to the unit or scheduler
    that drives it.
    """
    w = _W(cdef.name)
    w.put(f"def _lane({', '.join(d.name for d in cdef.shared_args)}):")
    with w.indent():
        w.put("def _run(_t, _out, _i):")
        with w.indent():
            # even with no args, so that a task of the wrong arity raises
            w.put(f"{''.join(d.name + ', ' for d in cdef.args) or '() '}= _t")
            em = _RoutineEmitter(w, cdef, cell="_out[_i]")
            em.body(cdef.body)
            if not em.yields:
                # Without a suspension point the body would be a plain
                # function; this keeps it a generator and yields nothing.
                w.put("yield from ()")
        w.put("return _run")
    dynamic = _factory(cdef, f"make_{cdef.name}", "DynamicUnit", f"CoroutineState_{cdef.name}")
    return _Chunk(f"{cdef.name}._lane", _header(cdef.name), w.text() + dynamic)


def _factory(cdef: CoroutineDef, name: str, base: str, cls: str, consts: str = "") -> str:
    """``name(shared...)``, whose ``runtime.unit`` makes ``cls`` from the lane.

    ``consts`` is the text of the class constants, as keyword arguments.
    """
    shared = ", ".join(d.name for d in cdef.shared_args)
    return (
        f"\n\ndef {name}({shared}):\n"
        f"    return _rt.unit(_rt.{base}, {cls!r}, _lane({shared}){consts})\n"
    )


def _emit_batch(cdef: CoroutineDef, name: str, cls: str, consts: str) -> SourceText:
    """The lane chunk, then the batch factory ``name``."""
    return SourceText(name, cdef.memo("lane", _print_lane),
                      _factory(cdef, name, "BatchUnit", cls, consts))


# -- dynamic (per-task generator, any control flow)


def emit_dynamic(cdef: CoroutineDef) -> SourceText:
    """Resumable per-task unit: ``make_<name>(shared...)`` -> class.

    The body is printed once, as the lane generator ``_run``, exposed on
    the class as ``lane`` for ``interleave_map``.  Instances take their
    constructor, ``step()`` and the rest from ``runtime.DynamicUnit``.
    The factory is part of the lane chunk, so loading the unit compiles
    nothing once the chunk has been compiled.
    """
    _check_valid(cdef)
    return SourceText(f"make_{cdef.name}", cdef.memo("lane", _print_lane))


# -- static and hybrid (one generator per lane)


def emit_static(cdef: CoroutineDef, width: int) -> SourceText:
    """Lockstep batch unit: ``make_<name>_<width>(shared...)`` -> class.

    Requires a straight-line state machine (stage k suspends only into
    stage k+1), so each ``super_step()`` takes every lane through one
    stage, and all lanes finish on the same call.
    """
    err = straight_line_error(_check_batch(cdef, width))
    if err is not None:
        raise CodegenError(f"{cdef.name}: {err}")
    return _emit_batch(cdef, f"make_{cdef.name}_{width}",
                       f"CoroutineState_{cdef.name}_{width}", f", _WIDTH={width}")


def emit_hybrid(cdef: CoroutineDef, width: int) -> SourceText:
    """Prefix-lockstep unit: ``make_hybrid_<name>_<width>(shared...)``.

    ``run_prefix()`` takes every lane through the ``_PREFIX`` statically
    hinted leading stages in lockstep; then ``step_slot(i)`` advances
    lane ``i`` alone and returns True at and after its completion.
    ``run_hybrid`` resumes this unit's lanes without ``step_slot``.
    """
    prefix = static_prefix_len(_check_batch(cdef, width))
    if prefix < 1:
        raise CodegenError(
            f"{cdef.name}: no statically scheduled stage prefix; hint the"
            " leading yields as static, or use the dynamic unit"
        )
    return _emit_batch(cdef, f"make_hybrid_{cdef.name}_{width}",
                       f"CoroutineHybrid_{cdef.name}_{width}", f", _WIDTH={width}, _PREFIX={prefix}")


# -- plain sequential routine and the shared statement emitter


def emit_routine(cdef: CoroutineDef) -> SourceText:
    """The sequential twin as a plain function, without suspension points or marks."""
    _check_valid(cdef)
    return SourceText(cdef.name, cdef.memo("routine", _print_routine))


def _print_routine(cdef: CoroutineDef) -> _Chunk:
    params = [
        d.name for d in cdef.decls if d.kind in (DeclKind.ARG, DeclKind.SHARED_ARG)
    ]
    w = _W(cdef.name)
    w.put(f"def {cdef.name}({', '.join(params)}):")
    with w.indent():
        w.put(f'"""Sequential form of the {cdef.name!r} coroutine def."""')
        _RoutineEmitter(w, cdef).body(cdef.body)
    return _Chunk(cdef.name, _header(cdef.name), w.text())


_CALL, _BREAK, _CONTINUE = 1, 2, 4
_LEAVES = {dsl.Call: _CALL, dsl.Break: _BREAK, dsl.Continue: _CONTINUE}
_PASSES = {dsl.While: _CALL, dsl.DoWhile: _CALL, dsl.Switch: _CALL | _CONTINUE}


def _escapes(blk: dsl.Block, out: dict[int, int]) -> int:
    """Which of call, break and continue in ``blk`` reach the construct around it.

    A loop binds break and continue, a switch binds break.  ``out`` gets
    the same answer for each statement, by its ``id``: for a compound
    one, what its blocks let out.
    """
    flags = 0
    for s in blk.stmts:
        inner = _LEAVES.get(type(s), 0)
        for _, child in dsl.child_blocks(s):
            inner |= _escapes(child, out)
        out[id(s)] = inner
        flags |= inner & _PASSES.get(type(s), -1)
    return flags


class _RoutineEmitter:
    """Structured statement emission for the routine and generator bodies.

    Break/continue targets are carried as literal line lists so that a
    translation composes with enclosing constructs: a continue in a
    do-while prints its condition check, and a switch whose arm breaks
    out early is wrapped in a ``for _once in (0,):`` loop, through which
    an outer continue escapes by a ``_cont`` flag.

    A self tail-resume rebinds the args and restarts a ``while True:``
    loop around the body, which re-runs the variable initializers; from
    inside nested Python loops it sets ``_rs`` and breaks out level by
    level.  Bodies without a ``call`` get neither the loop nor the flag.

    Only a lane, which has a result ``cell``, suspends: each suspension
    point prints as ``yield False``, and a valued return stores into
    ``cell``.  The routine (no ``cell``) leaves out yields, prefetch
    marks and the ``_addr``/``_cond`` lines of a ``yield_before`` load,
    store or if.

    A lane prints each prefetch address as one guarded mark line,
    ``if _rt.mark is not callable: _rt.mark(<addr>)``, so that without
    a hook it is never evaluated, as in the routine, while a hook
    installed at any time still sees every address.
    """

    def __init__(self, w: _W, cdef: CoroutineDef, cell: str | None = None) -> None:
        self.w = w
        self.cdef = cdef
        self.cell = cell
        self.lane = cell is not None
        self.counter = 0
        self.loops = 0
        self.yields = 0
        self.facts: dict[int, int] = {}

    def fresh(self) -> int:
        self.counter += 1
        return self.counter

    def body(self, blk: dsl.Block) -> None:
        w = self.w
        if not _escapes(blk, self.facts) & _CALL:
            self.var_inits()
            self.suite(blk, None, None)
            return
        w.put("while True:")
        with w.indent():
            self.var_inits()
            self.suite(blk, None, None)
            # the routine prints no yield or prefetch, so one after the last return does not count
            printed = [s for s in blk.stmts
                       if self.lane or not isinstance(s, (dsl.Yield, dsl.Prefetch))]
            if not isinstance(printed[-1], (dsl.Return, dsl.Call)):
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
                if yb and self.lane:
                    w.put(f"_addr = {addr}")
                    w.put("_rt.mark(_addr)")
                    self.suspend()
                    addr = "_addr"
                w.put(f"{dst} = {addr}")
            case dsl.Store(addr=addr, value=value, yield_before=yb):
                if yb and self.lane:
                    w.put(f"_addr = {value}")
                    self.suspend()
                    value = "_addr"
                w.put(f"{addr} = {value}")
            case dsl.Yield() | dsl.Prefetch() if not self.lane:
                pass
            case dsl.Prefetch(addrs=addrs):
                for a in addrs:
                    # one line, so it opens no indentation level
                    w.put(f"if _rt.mark is not callable: _rt.mark({a})")
            case dsl.Yield():
                self.suspend()
            case dsl.Return(value=value):
                if value is not None and self.lane:
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
                if yb and self.lane:
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
                with self.loop(f"while {cond}:", self.facts[id(s)] & _CALL):
                    self.suite(body, ["break"], ["continue"])
            case dsl.DoWhile(body=body, cond=cond):
                self.do_while(body, cond, self.facts[id(s)] & _CALL)
            case dsl.Switch():
                self.switch(s, brk, cont)
            case dsl.Call(args=args):
                self.tail_call(args)

    def do_while(self, body: dsl.Block, cond: str, calls: int) -> None:
        # A continue must land on the condition check, which a bare
        # while-True continue would skip, so it checks the condition itself.
        w = self.w
        with self.loop("while True:", calls):
            self.suite(body, ["break"], [f"if ({cond}):", "    continue", "break"])
            w.put(f"if not ({cond}):")
            with w.indent():
                w.put("break")

    def switch(self, s: dsl.Switch, brk, cont) -> None:
        w = self.w
        n = self.fresh()
        tmp = f"_sw{n}"
        w.put(f"{tmp} = {s.scrutinee}")
        flags = self.facts[id(s)]
        if not flags & _BREAK:
            self.switch_chain(tmp, s, brk=None, cont=cont)
            return
        # An early break out of an arm needs something to break from;
        # an outer continue inside the wrapper must first escape it.
        cont_inner = cont
        cont_flag = None
        if cont is not None and flags & _CONTINUE:
            cont_flag = f"_cont{n}"
            w.put(f"{cont_flag} = False")
            cont_inner = [f"{cont_flag} = True", "break"]
        with self.loop(f"for _once{n} in (0,):", flags & _CALL):
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
