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

import ast
import builtins
import enum
import functools
import io
import keyword
import tokenize
from dataclasses import dataclass, field, fields

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
    "child_blocks",
    "validate",
    "to_builder_source",
    "parse_builder_source",
]


class DslError(ValueError):
    """Raised for malformed construction (bad names, empty text, misuse)."""


def _check_text(text: str, what: str) -> str:
    if not isinstance(text, str) or not text.strip():
        raise DslError(f"{what} text must be a non-empty string")
    return text


def _check_expr(text: str, what: str = "expression") -> str:
    """``text`` if codegen can print it inside a line: with no comment, and
    no line break outside brackets, either of which would end that line."""
    if "#" in _check_text(text, what) or "\n" in text or "\r" in text:
        depth = 0
        try:
            for tok in tokenize.generate_tokens(io.StringIO(text, newline=None).readline):
                depth += (tok.string in ("(", "[", "{")) - (tok.string in (")", "]", "}"))
                if tok.type == tokenize.COMMENT or tok.string == "\n" and depth < 1:
                    raise DslError(f"{what} {text!r} has a comment or a line break outside brackets")
        except (tokenize.TokenError, SyntaxError):
            pass  # unbalanced or badly indented text fails later, where it always has
    return text


def _check_user_ident(name: str, what: str) -> str:
    if not isinstance(name, str) or not name.isidentifier() or keyword.iskeyword(name):
        raise DslError(f"{what} {name!r} is not a valid identifier")
    if name.startswith("_"):
        # Reserved for generated names: _lane, _run, _rt, _t, _out, _i, _addr,
        # _cond, _rs and the numbered _sw, _once, _cont and _ca temporaries.
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
        _check_text(self.type_text, "type")
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
        _check_text(self.text, "opaque statement")


@dataclass(frozen=True, slots=True)
class Block:
    stmts: tuple = ()
    decls: tuple[Decl, ...] = ()

    def __post_init__(self) -> None:
        for s in self.stmts:
            # by exact type, as an isinstance over 15 classes costs about 8x as much
            if type(s) not in _BUILDER_NAMES:
                raise DslError(f"not a statement: {s!r}")


def _check_block(blk, what: str, optional: bool = False) -> None:
    if type(blk) is not Block and not (optional and blk is None):
        raise DslError(f"{what} must be a block, not {blk!r}")


@dataclass(frozen=True, slots=True)
class If:
    cond: str
    then: Block
    orelse: Block | None = None
    yield_before: bool = False

    def __post_init__(self) -> None:
        _check_expr(self.cond, "condition")
        _check_block(self.then, "then arm")
        _check_block(self.orelse, "else arm", optional=True)


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
        if not self.cases:
            raise DslError("switch needs at least one case")
        for const, blk in self.cases:
            _check_expr(const, "case label")
            _check_block(blk, "case body")
        _check_block(self.default, "switch default", optional=True)


@dataclass(frozen=True, slots=True)
class While:
    cond: str
    body: Block

    def __post_init__(self) -> None:
        _check_expr(self.cond, "condition")
        _check_block(self.body, "loop body")


@dataclass(frozen=True, slots=True)
class DoWhile:
    body: Block
    cond: str

    def __post_init__(self) -> None:
        _check_block(self.body, "loop body")
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


# Expression nodes refused in a prefetch address.
_EFFECTS = (ast.Call, ast.NamedExpr, ast.Yield, ast.YieldFrom, ast.Await)


@functools.lru_cache(maxsize=1024)
def _address_problem(text: str) -> str:
    """Why ``text`` cannot be a prefetch address, or "" if it can.

    Kept per text: definitions are rebuilt with the same addresses, and
    a parse and a walk take about 20 us, some 40% of building bs's
    definition.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as e:
        return f"is not an expression: {e.msg}"
    if any(isinstance(n, _EFFECTS) for n in ast.walk(tree)):
        # a hooked mark evaluates the address, and the routine never does
        return "has a call, walrus, yield or await; it must be free of side effects"
    return ""


@dataclass(frozen=True, slots=True)
class Prefetch:
    """Issue non-binding prefetches for one or more locations."""

    addrs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.addrs:
            raise DslError("prefetch needs at least one address expression")
        for a in self.addrs:
            problem = _address_problem(_check_expr(a, "prefetch address"))
            if problem:
                raise DslError(f"prefetch address {a!r} {problem}")


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


def child_blocks(s) -> tuple[tuple[str, Block], ...]:
    """The blocks statement ``s`` holds, each with the suffix naming it in a path.

    The suffixes are ``.then``, ``.else``, ``.case[k]``, ``.default`` and
    ``.do``; a bare block is its own one child, with the suffix "".  A
    leaf holds none.  Every tree walk calls this once per statement, so
    it tests the exact type rather than matching class patterns.
    """
    kind = type(s)
    if kind is If:
        return ((".then", s.then),) if s.orelse is None else ((".then", s.then), (".else", s.orelse))
    if kind is While or kind is DoWhile:
        return ((".do", s.body),)
    if kind is Block:
        return (("", s),)
    if kind is Switch:
        arms = tuple((f".case[{k}]", blk) for k, (_, blk) in enumerate(s.cases))
        return arms if s.default is None else arms + ((".default", s.default),)
    return ()


@dataclass(frozen=True, slots=True)
class CoroutineDef:
    name: str
    decls: tuple[Decl, ...]
    body: Block
    # records derived from this very object, by key ("diagnostics" from
    # validate, lowering's "fsm", codegen's "lane" and "routine"); never
    # compared, and a copy made by dataclasses.replace starts empty
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_block(self.body, "coroutine body")

    def memo(self, key: str, make):
        """``make(self)``, made on the first call with ``key`` and kept on this object."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = make(self)
            return value

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
    # Block refuses anything else
    return item


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


def block(*items) -> Block:
    """Explicit nested scope; ``let`` items become block-local variables."""
    return _make_block(items)


def let(type_text: str, name: str, init: str | None = None) -> Decl:
    """Block-local variable declaration."""
    return Decl(DeclKind.VARIABLE, type_text, name, init)


def yield_(hint: str = "default") -> Yield:
    try:
        value = YieldHint(hint)
    except ValueError:
        allowed = ", ".join(repr(h.value) for h in YieldHint)
        raise DslError(f"yield hint {hint!r} is not one of {allowed}") from None
    return Yield(value)


def prefetch(*addrs: str) -> Prefetch:
    """Announce the locations ``addrs`` ahead of a yield.

    The sequential routine leaves marks out, and a generated lane
    evaluates a marked address only while a prefetch hook is installed.
    So an address must be safe to evaluate: a call, walrus, yield or
    await in one is refused, and under a hook an address that raises,
    such as an index past the end, still raises.
    """
    return Prefetch(tuple(addrs))


def call(callee: str, *args: str) -> Call:
    return Call(callee, tuple(args))


# A leaf that needs no conversion is built by its own class, which takes
# the leaf's fields by name, in order, defaults last.
opaque, break_, continue_, return_ = Opaque, Break, Continue, Return
load, store, assign = Load, Store, Assign


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
        return Switch(self._scrutinee, tuple(self._cases), self._default)


def switch_(scrutinee: str) -> SwitchBuilder:
    return SwitchBuilder(scrutinee)


class CoroutineBuilder:
    """Accumulates declarations, then seals the body into a CoroutineDef."""

    def __init__(self, name: str) -> None:
        self._name = _check_user_ident(name, "coroutine name")
        if name in ("fmix32", "fmix64") or name in vars(builtins):
            # the routine's def would hide the imported hash or builtin from its own body
            raise DslError(f"coroutine name {name!r} is reserved: a generated body may call it")
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
        children = child_blocks(s)
        if children:
            loop_depth += isinstance(s, (While, DoWhile))
            switch_depth += isinstance(s, Switch)
            for suffix, blk in children:
                self.block(blk, path + suffix, loop_depth=loop_depth, switch_depth=switch_depth)
            return
        match s:
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
    declaration, R3 calls are self tail-resumes with matching arity, R5
    load/assign destinations name a declared variable or arg in scope,
    and R-dup rejects shadowing.  The tree is never modified; the
    diagnostics are found once per definition object, kept on it, and
    each call returns a fresh list of them.
    """
    return list(cdef.memo("diagnostics", lambda d: tuple(_Validator(d).run())))


# ---------------------------------------------------------------------------
# Builder source: the printer, and a parser that admits only builder calls

# Each statement class, and a block holds nothing else, with the name of
# the builder that makes it.  The printer names a statement's builder
# from here; the parser calls these names, coroutine and let, and no
# other function.
_BUILDER_NAMES = {
    Block: "block", If: "if_", Switch: "switch_", While: "while_", DoWhile: "do_",
    Opaque: "opaque", Break: "break_", Continue: "continue_", Return: "return_",
    Yield: "yield_", Prefetch: "prefetch", Load: "load", Store: "store", Assign: "assign",
    Call: "call",
}
# The parser calls public methods of these and of nothing else.
_BUILDER_OBJECTS = (CoroutineBuilder, IfBuilder, WhileBuilder, DoWhileBuilder, SwitchBuilder)


def _decl_args(d: Decl) -> str:
    parts = [d.type_text] if d.kind is DeclKind.RESULT and d.name == "result" else [d.type_text, d.name]
    if d.init is not None:
        parts.append(d.init)
    return ", ".join(map(repr, parts))


def _block_call(name: str, blk: Block, indent: int, lead: tuple = (), inline: bool = True) -> str:
    """``name`` applied to ``lead`` and ``blk``'s items, one item a line."""
    items = [*lead, *(f"let({_decl_args(d)})" for d in blk.decls)]
    items += [_stmt(s, indent + 2) for s in blk.stmts]
    if inline and not items:
        return f"{name}()"
    pad = " " * (indent + 2)
    return f"{name}(\n" + ",\n".join(pad + a for a in items) + ")"


def _stmt(s, indent: int) -> str:
    match s:
        case Block():
            return _block_call("block", s, indent)
        case If(cond=cond, then=then, orelse=orelse, yield_before=yb):
            text = f"if_({cond!r})" + (".yield_before()" if yb else "")
            text += _block_call(".then_", then, indent)
            if orelse is not None:
                text += _block_call(".else_", orelse, indent)
            return text
        case Switch(scrutinee=scrutinee, cases=cases, default=default):
            text = f"switch_({scrutinee!r})"
            for const, blk in cases:
                text += _block_call(".case_", blk, indent, (repr(const),))
            if default is not None:
                text += _block_call(".default_", default, indent)
            return text
        case While(cond=cond, body=body):
            return f"while_({cond!r})" + _block_call(".do_", body, indent)
        case DoWhile(body=body, cond=cond):
            return _block_call("do_", body, indent, inline=False) + f".while_({cond!r})"
    # A leaf's builder takes the leaf's fields in order, defaults last: a
    # default is left out, a true flag is passed by name, a tuple is
    # splatted and an enum passes its value.
    args = []
    for f in fields(s):
        v = getattr(s, f.name)
        if v == f.default:
            continue
        if v is True:
            args.append(f"{f.name}=True")
        elif isinstance(v, tuple):
            args += map(repr, v)
        else:
            args.append(repr(v.value if isinstance(v, enum.Enum) else v))
    return f"{_BUILDER_NAMES[type(s)]}({', '.join(args)})"


def to_builder_source(cdef: CoroutineDef) -> str:
    """Render a definition as the builder calls that reconstruct it.

    Output is deterministic, newline-terminated, and indented by two
    spaces per nesting level; ``parse_builder_source`` reads it back
    into a structurally equal tree.
    """
    lines = [f"(coroutine({cdef.name!r})"]
    # each declaration kind's value names its CoroutineBuilder method
    lines += [f"  .{d.kind.value}({_decl_args(d)})" for d in cdef.decls]
    lines.append("  " + _block_call(".body", cdef.body, 2))
    return "\n".join(lines) + ")\n"


def _value(node: ast.expr, lines: list[str]):
    # A method chain is unwound in a loop, so a long declaration chain
    # costs no recursion; only arguments nest, as deep as the tokenizer
    # lets parentheses nest.
    if isinstance(node, ast.Constant) and type(node.value) in (str, int, bool):
        return node.value
    chain = []
    while isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        chain.append(node)
        node = node.func.value
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
        bad = node.func if isinstance(node, ast.Call) else node
        # ast columns count UTF-8 bytes; report characters, as a syntax error does
        col = len(lines[bad.lineno - 1].encode()[:bad.col_offset].decode()) + 1
        raise DslError(f"builder source {bad.lineno}:{col}: {type(bad).__name__} is not allowed")
    name = node.func.id
    if name not in _BUILDER_NAMES.values() and name not in ("coroutine", "let"):
        raise DslError(f"builder source: name {name!r} is not defined")
    value = _apply(globals()[name], node, lines)
    for c in reversed(chain):
        name = c.func.attr
        if not isinstance(value, _BUILDER_OBJECTS) or name.startswith("_") or not hasattr(value, name):
            raise DslError(f"builder source: {type(value).__name__!r} object has no builder method {name!r}")
        value = _apply(getattr(value, name), c, lines)
    return value


def _apply(fn, node: ast.Call, lines: list[str]):
    # a **mapping argument has the key None, which the call refuses
    return fn(*[_value(a, lines) for a in node.args],
              **{k.arg: _value(k.value, lines) for k in node.keywords})


def parse_builder_source(text: str) -> CoroutineDef:
    """Read printed builder calls back into a CoroutineDef without running them.

    The text is one expression: calls of builders by name, calls of
    public methods of builder objects on their results, positional and
    ``name=value`` arguments, and str, int and bool literals.  Builder
    signatures check arity.  Other text raises DslError, with line:col
    for a syntax error or an expression of any other kind.
    """
    # the lines as ast numbers them: \r, \n and \r\n end a line
    lines = io.StringIO(text, newline=None).readlines()
    try:
        cdef = _value(ast.parse(text, mode="eval").body, lines)
    except SyntaxError as e:
        # a NUL byte is refused before the text has a position
        where = "" if e.lineno is None else f" {e.lineno}:{e.offset}"
        raise DslError(f"builder source{where}: {e.msg}") from None
    except (TypeError, RecursionError) as e:
        raise DslError(f"builder source: {e}") from None
    if not isinstance(cdef, CoroutineDef):
        raise DslError("builder source did not produce a coroutine definition")
    return cdef
