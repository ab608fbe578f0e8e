"""Builder-style DSL for describing interleavable coroutines.

A coroutine definition is a tree of statement nodes plus a declaration
list.  Expressions and types are opaque source text in the target
language (which for this toolkit is Python itself); the tree only
models control flow, suspension points (``yield_``), and the memory
annotations (``prefetch``, ``load``, ``store``) that the lowering and
code generation stages care about.

Trees are immutable once built.  ``validate`` reports structural
problems as diagnostics instead of raising, so a front end can show
all of them at once.
"""

from __future__ import annotations

import enum
import keyword
from dataclasses import dataclass

__all__ = [
    "DslError",
    "Diagnostic",
    "YieldHint",
    "DeclKind",
    "Decl",
    "Opaque",
    "Block",
    "If",
    "Switch",
    "While",
    "DoWhile",
    "Break",
    "Continue",
    "Return",
    "Yield",
    "Prefetch",
    "Load",
    "Store",
    "Assign",
    "Call",
    "CoroutineDef",
    "coroutine",
    "opaque",
    "block",
    "let",
    "if_",
    "switch_",
    "while_",
    "do_",
    "break_",
    "continue_",
    "return_",
    "yield_",
    "prefetch",
    "load",
    "store",
    "assign",
    "call",
    "validate",
    "to_builder_source",
    "parse_builder_source",
    "YIELD_MARKER",
]

# Token reserved for the toolchain; opaque text containing it is rejected (R4).
YIELD_MARKER = "__yield__"


class DslError(ValueError):
    """Raised for malformed construction (bad names, empty text, misuse)."""


def _check_expr(text: str, what: str = "expression") -> str:
    if not isinstance(text, str) or not text.strip():
        raise DslError(f"{what} text must be a non-empty string")
    return text


def _check_user_ident(name: str, what: str) -> str:
    if not isinstance(name, str) or not name.isidentifier() or keyword.iskeyword(name):
        raise DslError(f"{what} {name!r} is not a valid identifier")
    if name.startswith("_"):
        # Leading underscores are reserved for generated machinery (_state,
        # _result, _cond, _addr, dispatch temporaries).
        raise DslError(f"{what} {name!r} uses the reserved leading underscore")
    return name


class YieldHint(enum.Enum):
    """Scheduling hint attached to a suspension point.

    DEFAULT defers to the whole-coroutine scheduler choice; STATIC and
    DYNAMIC pin the stage ending at this yield to one schedule, which
    is how hybrid (static prefix, dynamic suffix) pipelines are marked.
    """

    DEFAULT = "default"
    STATIC = "static"
    DYNAMIC = "dynamic"


class DeclKind(enum.Enum):
    ARG = "arg"
    SHARED_ARG = "shared_arg"
    RESULT = "result"
    VARIABLE = "variable"


@dataclass(frozen=True, slots=True)
class Decl:
    """A named slot in the coroutine context.

    Args are per-instance inputs, shared args are bound once per
    scheduler, the (at most one) result is delivered through
    ``result()``, and variables are locals whose lifetime may cross a
    suspension point.  Only variables may carry an initializer, which
    runs on entry (and again after ``reset()``).
    """

    kind: DeclKind
    type_text: str
    name: str
    init: str | None = None

    def __post_init__(self) -> None:
        _check_expr(self.type_text, "type")
        _check_user_ident(self.name, "declaration name")
        if self.init is not None:
            if self.kind is not DeclKind.VARIABLE:
                raise DslError(f"{self.kind.value} {self.name!r} cannot have an initializer")
            _check_expr(self.init, "initializer")


@dataclass(frozen=True, slots=True)
class Opaque:
    """Verbatim target-language statement text (may span lines)."""

    text: str

    def __post_init__(self) -> None:
        _check_expr(self.text, "opaque statement")


@dataclass(frozen=True, slots=True)
class Block:
    stmts: tuple = ()
    decls: tuple[Decl, ...] = ()


@dataclass(frozen=True, slots=True)
class If:
    cond: str
    then: Block
    orelse: Block | None = None
    yield_before: bool = False

    def __post_init__(self) -> None:
        _check_expr(self.cond, "condition")


@dataclass(frozen=True, slots=True)
class Switch:
    """Multiway dispatch on an integer scrutinee.

    Cases do not fall through: each case body exits the switch when it
    ends, and ``break_`` leaves it early.
    """

    scrutinee: str
    cases: tuple[tuple[str, Block], ...]
    default: Block | None = None

    def __post_init__(self) -> None:
        _check_expr(self.scrutinee, "scrutinee")
        for const, _ in self.cases:
            _check_expr(const, "case label")


@dataclass(frozen=True, slots=True)
class While:
    cond: str
    body: Block

    def __post_init__(self) -> None:
        _check_expr(self.cond, "condition")


@dataclass(frozen=True, slots=True)
class DoWhile:
    body: Block
    cond: str

    def __post_init__(self) -> None:
        _check_expr(self.cond, "condition")


@dataclass(frozen=True, slots=True)
class Break:
    pass


@dataclass(frozen=True, slots=True)
class Continue:
    pass


@dataclass(frozen=True, slots=True)
class Return:
    value: str | None = None

    def __post_init__(self) -> None:
        if self.value is not None:
            _check_expr(self.value, "return value")


@dataclass(frozen=True, slots=True)
class Yield:
    hint: YieldHint = YieldHint.DEFAULT


@dataclass(frozen=True, slots=True)
class Prefetch:
    """Issue non-binding prefetches for one or more locations."""

    addrs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.addrs:
            raise DslError("prefetch needs at least one address expression")
        for a in self.addrs:
            _check_expr(a, "prefetch address")


@dataclass(frozen=True, slots=True)
class Load:
    """Read from a possibly-expensive location into a declared name.

    With ``yield_before`` the evaluated location is parked in the
    internal ``_addr`` slot, the coroutine suspends, and the
    destination is written after resumption.
    """

    dst: str
    addr: str
    yield_before: bool = False

    def __post_init__(self) -> None:
        _check_expr(self.dst, "load destination")
        _check_expr(self.addr, "load address")
        if not self.dst.isidentifier():
            raise DslError(f"load destination {self.dst!r} must be an identifier")


@dataclass(frozen=True, slots=True)
class Store:
    """Write a value into a location expression.

    With ``yield_before`` the value is staged in ``_addr`` across a
    suspension and the store happens after resumption.
    """

    addr: str
    value: str
    yield_before: bool = False

    def __post_init__(self) -> None:
        _check_expr(self.addr, "store target")
        _check_expr(self.value, "store value")


@dataclass(frozen=True, slots=True)
class Assign:
    dst: str
    value: str

    def __post_init__(self) -> None:
        _check_expr(self.dst, "assign destination")
        _check_expr(self.value, "assign value")
        if not self.dst.isidentifier():
            raise DslError(f"assign destination {self.dst!r} must be an identifier")


@dataclass(frozen=True, slots=True)
class Call:
    """Tail resume: restart this coroutine from its entry with new args."""

    callee: str
    args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_user_ident(self.callee, "callee")
        for a in self.args:
            _check_expr(a, "call argument")


Stmt = (
    Opaque | Block | If | Switch | While | DoWhile | Break | Continue
    | Return | Yield | Prefetch | Load | Store | Assign | Call
)


@dataclass(frozen=True, slots=True)
class CoroutineDef:
    name: str
    decls: tuple[Decl, ...]
    body: Block

    @property
    def args(self) -> tuple[Decl, ...]:
        return tuple(d for d in self.decls if d.kind is DeclKind.ARG)

    @property
    def shared_args(self) -> tuple[Decl, ...]:
        return tuple(d for d in self.decls if d.kind is DeclKind.SHARED_ARG)

    @property
    def result_decl(self) -> Decl | None:
        for d in self.decls:
            if d.kind is DeclKind.RESULT:
                return d
        return None

    @property
    def variables(self) -> tuple[Decl, ...]:
        return tuple(d for d in self.decls if d.kind is DeclKind.VARIABLE)


# ---------------------------------------------------------------------------
# Builders


def _as_stmt(item):
    if isinstance(item, (IfBuilder, WhileBuilder, SwitchBuilder)):
        return item.build()
    if isinstance(item, DoWhileBuilder):
        raise DslError("do_(...) block is missing its trailing .while_(cond)")
    if isinstance(item, Decl):
        raise DslError("declarations belong in block(let(...), ...) or the coroutine builder")
    if isinstance(item, Stmt):
        return item
    raise DslError(f"not a statement: {item!r}")


def _make_block(items) -> Block:
    decls = []
    stmts = []
    for item in items:
        if isinstance(item, Decl):
            if item.kind is not DeclKind.VARIABLE:
                raise DslError("only variables can be declared inside a block")
            decls.append(item)
        else:
            stmts.append(_as_stmt(item))
    return Block(tuple(stmts), tuple(decls))


def opaque(text: str) -> Opaque:
    """Verbatim statement text; multi-line text keeps its newlines."""
    return Opaque(text)


def block(*items) -> Block:
    """Explicit nested scope; ``let`` items become block-local variables."""
    return _make_block(items)


def let(type_text: str, name: str, init: str | None = None) -> Decl:
    """Block-local variable declaration."""
    return Decl(DeclKind.VARIABLE, type_text, name, init)


def break_() -> Break:
    return Break()


def continue_() -> Continue:
    return Continue()


def return_(value: str | None = None) -> Return:
    return Return(value)


def yield_(hint: str = "default") -> Yield:
    return Yield(YieldHint(hint))


def prefetch(*addrs: str) -> Prefetch:
    return Prefetch(tuple(addrs))


def load(dst: str, addr: str, yield_before: bool = False) -> Load:
    return Load(dst, addr, yield_before)


def store(addr: str, value: str, yield_before: bool = False) -> Store:
    return Store(addr, value, yield_before)


def assign(dst: str, value: str) -> Assign:
    return Assign(dst, value)


def call(callee: str, *args: str) -> Call:
    return Call(callee, tuple(args))


class IfBuilder:
    def __init__(self, cond: str) -> None:
        self._cond = _check_expr(cond, "condition")
        self._then: Block | None = None
        self._orelse: Block | None = None
        self._yield_before = False

    def yield_before(self) -> IfBuilder:
        """Evaluate the condition, suspend, and branch after resumption."""
        self._yield_before = True
        return self

    def then_(self, *items) -> IfBuilder:
        if self._then is not None:
            raise DslError("duplicate .then_()")
        self._then = _make_block(items)
        return self

    def else_(self, *items) -> IfBuilder:
        if self._then is None:
            raise DslError(".else_() before .then_()")
        if self._orelse is not None:
            raise DslError("duplicate .else_()")
        self._orelse = _make_block(items)
        return self

    def build(self) -> If:
        if self._then is None:
            raise DslError("if_(...) is missing .then_()")
        return If(self._cond, self._then, self._orelse, self._yield_before)


def if_(cond: str) -> IfBuilder:
    return IfBuilder(cond)


class WhileBuilder:
    def __init__(self, cond: str) -> None:
        self._cond = _check_expr(cond, "condition")
        self._body: Block | None = None

    def do_(self, *items) -> WhileBuilder:
        if self._body is not None:
            raise DslError("duplicate .do_()")
        self._body = _make_block(items)
        return self

    def build(self) -> While:
        if self._body is None:
            raise DslError("while_(...) is missing .do_()")
        return While(self._cond, self._body)


def while_(cond: str) -> WhileBuilder:
    return WhileBuilder(cond)


class DoWhileBuilder:
    def __init__(self, items) -> None:
        self._body = _make_block(items)

    def while_(self, cond: str) -> DoWhile:
        return DoWhile(self._body, cond)


def do_(*items) -> DoWhileBuilder:
    return DoWhileBuilder(items)


class SwitchBuilder:
    def __init__(self, scrutinee: str) -> None:
        self._scrutinee = _check_expr(scrutinee, "scrutinee")
        self._cases: list[tuple[str, Block]] = []
        self._default: Block | None = None

    def case_(self, const: str, *items) -> SwitchBuilder:
        if self._default is not None:
            raise DslError("case after default")
        self._cases.append((_check_expr(str(const), "case label"), _make_block(items)))
        return self

    def default_(self, *items) -> SwitchBuilder:
        if self._default is not None:
            raise DslError("duplicate .default_()")
        self._default = _make_block(items)
        return self

    def build(self) -> Switch:
        if not self._cases:
            raise DslError("switch_(...) needs at least one case")
        return Switch(self._scrutinee, tuple(self._cases), self._default)


def switch_(scrutinee: str) -> SwitchBuilder:
    return SwitchBuilder(scrutinee)


class CoroutineBuilder:
    """Accumulates declarations, then seals the body into a CoroutineDef."""

    def __init__(self, name: str) -> None:
        self._name = _check_user_ident(name, "coroutine name")
        self._decls: list[Decl] = []

    def _add(self, decl: Decl) -> CoroutineBuilder:
        for d in self._decls:
            if d.name == decl.name:
                raise DslError(f"duplicate declaration {decl.name!r}")
        if decl.kind is DeclKind.RESULT and any(
            d.kind is DeclKind.RESULT for d in self._decls
        ):
            raise DslError("a coroutine can declare at most one result")
        self._decls.append(decl)
        return self

    def result(self, type_text: str, name: str = "result") -> CoroutineBuilder:
        return self._add(Decl(DeclKind.RESULT, type_text, name))

    def arg(self, type_text: str, name: str) -> CoroutineBuilder:
        return self._add(Decl(DeclKind.ARG, type_text, name))

    def shared_arg(self, type_text: str, name: str) -> CoroutineBuilder:
        return self._add(Decl(DeclKind.SHARED_ARG, type_text, name))

    def variable(self, type_text: str, name: str, init: str | None = None) -> CoroutineBuilder:
        return self._add(Decl(DeclKind.VARIABLE, type_text, name, init))

    def body(self, *items) -> CoroutineDef:
        return CoroutineDef(self._name, tuple(self._decls), _make_block(items))


def coroutine(name: str) -> CoroutineBuilder:
    return CoroutineBuilder(name)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True, slots=True)
class Diagnostic:
    rule: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.path}: {self.message}"


R_PLACEMENT = "R1"
R_RESULT = "R2"
R_TAIL_CALL = "R3"
R_MARKER = "R4"
R_UNDECLARED = "R5"
R_DUP = "R-dup"


class _Validator:
    def __init__(self, cdef: CoroutineDef) -> None:
        self.cdef = cdef
        self.out: list[Diagnostic] = []
        self.names = {d.name: d for d in cdef.decls}
        self.mutable = {
            d.name for d in cdef.decls if d.kind in (DeclKind.ARG, DeclKind.VARIABLE)
        }

    def report(self, rule: str, path: str, message: str) -> None:
        self.out.append(Diagnostic(rule, path, message))

    def run(self) -> list[Diagnostic]:
        self.block(self.cdef.body, "body", loop_depth=0, switch_depth=0)
        return self.out

    def block(self, blk: Block, path: str, *, loop_depth: int, switch_depth: int) -> None:
        added = []
        for d in blk.decls:
            if d.name in self.names:
                self.report(R_DUP, path, f"declaration {d.name!r} shadows an existing name")
            else:
                self.names[d.name] = d
                self.mutable.add(d.name)
                added.append(d.name)
        last = len(blk.stmts) - 1
        for i, s in enumerate(blk.stmts):
            # A call terminates its path, so anything after it in the
            # same statement list is dead; that is the tail rule.
            self.stmt(
                s,
                f"{path}[{i}]",
                loop_depth=loop_depth,
                switch_depth=switch_depth,
                tail=i == last,
            )
        for name in added:
            del self.names[name]
            self.mutable.discard(name)

    def stmt(self, s, path: str, *, loop_depth: int, switch_depth: int, tail: bool) -> None:
        match s:
            case Opaque(text=text):
                if YIELD_MARKER in text:
                    self.report(R_MARKER, path, f"opaque text contains reserved token {YIELD_MARKER!r}")
            case Block():
                self.block(s, path, loop_depth=loop_depth, switch_depth=switch_depth)
            case If(then=then, orelse=orelse):
                self.block(then, path + ".then", loop_depth=loop_depth, switch_depth=switch_depth)
                if orelse is not None:
                    self.block(orelse, path + ".else", loop_depth=loop_depth, switch_depth=switch_depth)
            case Switch(cases=cases, default=default):
                for k, (_, blk) in enumerate(cases):
                    self.block(blk, f"{path}.case[{k}]", loop_depth=loop_depth, switch_depth=switch_depth + 1)
                if default is not None:
                    self.block(default, path + ".default", loop_depth=loop_depth, switch_depth=switch_depth + 1)
            case While(body=body) | DoWhile(body=body):
                self.block(body, path + ".do", loop_depth=loop_depth + 1, switch_depth=switch_depth)
            case Break():
                if loop_depth == 0 and switch_depth == 0:
                    self.report(R_PLACEMENT, path, "break outside any loop or switch")
            case Continue():
                if loop_depth == 0:
                    self.report(R_PLACEMENT, path, "continue outside any loop")
            case Return(value=value):
                if value is not None and self.cdef.result_decl is None:
                    self.report(R_RESULT, path, "return with a value requires a result declaration")
            case Call(callee=callee, args=args):
                if not tail:
                    self.report(R_TAIL_CALL, path, "call must be the last statement on its path")
                if callee != self.cdef.name:
                    self.report(R_TAIL_CALL, path, f"call target {callee!r} is not this coroutine (only self tail-resume is supported)")
                elif len(args) != len(self.cdef.args):
                    self.report(R_TAIL_CALL, path, f"call passes {len(args)} args, coroutine takes {len(self.cdef.args)}")
            case Load(dst=dst) | Assign(dst=dst):
                if dst not in self.mutable:
                    self.report(R_UNDECLARED, path, f"destination {dst!r} is not a declared variable or arg")
            case _:
                pass


def validate(cdef: CoroutineDef) -> list[Diagnostic]:
    """Check a definition, returning all diagnostics (empty means valid).

    Rules: R1 break/continue placement, R2 valued return needs a result
    declaration, R3 calls are self tail-resumes with matching arity,
    R4 opaque text must not contain the reserved yield marker, R5
    load/assign destinations name a declared variable or arg in scope,
    and R-dup rejects shadowing.  Pure: the tree is never modified.
    """
    return _Validator(cdef).run()


# ---------------------------------------------------------------------------
# Debug printer (round-trips through parse_builder_source)


def _fmt_call(name: str, args: list[str], indent: int, inline: bool) -> str:
    if inline:
        return f"{name}({', '.join(args)})"
    pad = " " * (indent + 2)
    inner = ",\n".join(pad + a for a in args)
    return f"{name}(\n{inner})"


class _Printer:
    def stmt(self, s, indent: int) -> str:
        match s:
            case Opaque(text=text):
                return f"opaque({text!r})"
            case Block():
                items = [f"let({d.type_text!r}, {d.name!r}" + (f", {d.init!r})" if d.init is not None else ")") for d in s.decls]
                items += [self.stmt(c, indent + 2) for c in s.stmts]
                return _fmt_call("block", items, indent, inline=not items)
            case If(cond=cond, then=then, orelse=orelse, yield_before=yb):
                text = f"if_({cond!r})"
                if yb:
                    text += ".yield_before()"
                text += self._suffix("then_", then, indent)
                if orelse is not None:
                    text += self._suffix("else_", orelse, indent)
                return text
            case Switch(scrutinee=scrutinee, cases=cases, default=default):
                text = f"switch_({scrutinee!r})"
                for const, blk in cases:
                    text += self._suffix("case_", blk, indent, lead=repr(const))
                if default is not None:
                    text += self._suffix("default_", default, indent)
                return text
            case While(cond=cond, body=body):
                return f"while_({cond!r})" + self._suffix("do_", body, indent)
            case DoWhile(body=body, cond=cond):
                head = _fmt_call("do_", self._items(body, indent), indent, inline=False)
                return f"{head}.while_({cond!r})"
            case Break():
                return "break_()"
            case Continue():
                return "continue_()"
            case Return(value=None):
                return "return_()"
            case Return(value=value):
                return f"return_({value!r})"
            case Yield(hint=hint):
                return "yield_()" if hint is YieldHint.DEFAULT else f"yield_({hint.value!r})"
            case Prefetch(addrs=addrs):
                return f"prefetch({', '.join(repr(a) for a in addrs)})"
            case Load(dst=dst, addr=addr, yield_before=yb):
                tail = ", yield_before=True" if yb else ""
                return f"load({dst!r}, {addr!r}{tail})"
            case Store(addr=addr, value=value, yield_before=yb):
                tail = ", yield_before=True" if yb else ""
                return f"store({addr!r}, {value!r}{tail})"
            case Assign(dst=dst, value=value):
                return f"assign({dst!r}, {value!r})"
            case Call(callee=callee, args=args):
                parts = [repr(callee)] + [repr(a) for a in args]
                return f"call({', '.join(parts)})"
        raise TypeError(f"unprintable node {s!r}")

    def _items(self, blk: Block, indent: int) -> list[str]:
        items = [f"let({d.type_text!r}, {d.name!r}" + (f", {d.init!r})" if d.init is not None else ")") for d in blk.decls]
        return items + [self.stmt(c, indent + 2) for c in blk.stmts]

    def _suffix(self, method: str, blk: Block, indent: int, lead: str | None = None) -> str:
        items = ([lead] if lead is not None else []) + self._items(blk, indent)
        return "." + _fmt_call(method, items, indent, inline=not items)


def to_builder_source(cdef: CoroutineDef) -> str:
    """Render a definition as the builder calls that reconstruct it.

    Output is deterministic, newline-terminated, and indented by two
    spaces per nesting level; ``parse_builder_source`` evaluates it
    back into a structurally equal tree.
    """
    p = _Printer()
    lines = [f"(coroutine({cdef.name!r})"]
    for d in cdef.decls:
        match d.kind:
            case DeclKind.RESULT:
                args = f"{d.type_text!r}" if d.name == "result" else f"{d.type_text!r}, {d.name!r}"
                lines.append(f"  .result({args})")
            case DeclKind.ARG:
                lines.append(f"  .arg({d.type_text!r}, {d.name!r})")
            case DeclKind.SHARED_ARG:
                lines.append(f"  .shared_arg({d.type_text!r}, {d.name!r})")
            case DeclKind.VARIABLE:
                init = f", {d.init!r}" if d.init is not None else ""
                lines.append(f"  .variable({d.type_text!r}, {d.name!r}{init})")
    body_items = p._items(cdef.body, 2)
    lines.append("  " + _fmt_call(".body", body_items, 2, inline=not body_items).lstrip())
    return "\n".join(lines) + ")\n"


_BUILDER_NAMESPACE = {
    "coroutine": coroutine,
    "opaque": opaque,
    "block": block,
    "let": let,
    "if_": if_,
    "switch_": switch_,
    "while_": while_,
    "do_": do_,
    "break_": break_,
    "continue_": continue_,
    "return_": return_,
    "yield_": yield_,
    "prefetch": prefetch,
    "load": load,
    "store": store,
    "assign": assign,
    "call": call,
}


def parse_builder_source(text: str) -> CoroutineDef:
    """Evaluate printed builder calls back into a CoroutineDef.

    Text that is not builder calls raises DslError: a syntax error
    names its line:col, and a call to anything but a builder or one of
    its methods names what was called.
    """
    try:
        cdef = eval(text, {"__builtins__": {}}, dict(_BUILDER_NAMESPACE))
    except SyntaxError as e:
        raise DslError(f"builder source {e.lineno}:{e.offset}: {e.msg}") from None
    except (NameError, AttributeError, TypeError) as e:
        raise DslError(f"builder source: {e}") from None
    if not isinstance(cdef, CoroutineDef):
        raise DslError("builder source did not produce a coroutine definition")
    return cdef
