"""Lowering of coroutine definitions to yield-split state machines.

``split_stages`` flattens the structured statement tree into basic
blocks with explicit terminators, in one linear pass, and allocates one
resumption state per suspension point, in program order of first
appearance, and keeps the hint of the yield into state k + 1 as
``state_hints[k]``.  State 0 is the entry; ``finished_id`` (the last
state plus one) is a pseudo-state with no code.  One rule decides
reachability: the block after an if, a switch or a do-while, and a
do-while's test, is live only if a ``goto`` or ``br`` targets it, and
each target is recorded when its terminator is sealed, so no block is
rescanned.  Blocks plus a state->entry-block table are enough for a
native code generator to print a portable dispatch loop.  The Python
emitters print generators instead; here the stage graph decides which
schedules a definition qualifies for (``straight_line_error``,
``static_prefix_len``) and is what ``fsm_dump`` prints.  The FSM is
lowered once per definition object and kept on it.  Only the batch
emitters, ``fsm_dump`` and ``compute_context`` read it: the routine and
the dynamic unit are printed from the definition's own tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dsl
from .dsl import CoroutineDef, Decl, DeclKind, YieldHint

__all__ = [
    "LoweringError",
    "CfgBlock",
    "Stage",
    "Fsm",
    "ContextSpec",
    "split_stages",
    "compute_context",
    "fsm_dump",
    "straight_line_error",
    "static_prefix_len",
]


class LoweringError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class CfgBlock:
    """Straight-line ops plus one terminator.

    Ops are tuples: ``("opaque", text)``, ``("assign", dst, expr)``,
    ``("store", lvalue, expr)``, ``("prefetch", expr)``, and
    ``("result", expr)``.  Terminators are ``("goto", block)``,
    ``("br", cond, if_true, if_false)`` on block ids,
    ``("yield", state, hint)`` on a state id, and ``("finish",)``.
    """

    ops: tuple
    term: tuple


@dataclass(frozen=True, slots=True)
class Stage:
    """Per-state view: everything reachable without crossing a yield
    (whose hints are kept once, in ``Fsm.state_hints``)."""

    id: int
    stmt_count: int
    successors: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Fsm:
    name: str
    blocks: tuple[CfgBlock, ...]
    state_entry: tuple[int, ...]
    finished_id: int
    state_hints: tuple[YieldHint, ...]
    stages: tuple[Stage, ...]
    warnings: tuple[str, ...]

    @property
    def suspension_count(self) -> int:
        return len(self.state_entry) - 1


@dataclass(frozen=True, slots=True)
class ContextSpec:
    """What must live in a per-task context record.

    Everything declared is kept (no liveness pruning); shared args are
    segregated because they are stored once per scheduler, not per
    task.  ``internal`` lists, in this order, the bookkeeping fields the
    record adds: ``_state`` (the resume point), ``_result``, and
    ``_cond``/``_addr`` (operands held across a suspension);
    ``compute_context`` decides which this definition needs.
    """

    args: tuple[Decl, ...]
    shared_args: tuple[Decl, ...]
    variables: tuple[Decl, ...]
    internal: tuple[str, ...]

    def field_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.args + self.variables) + self.internal


class _Lowerer:
    def __init__(self, cdef: CoroutineDef) -> None:
        self.cdef = cdef
        self.ops: list[list] = []
        self.terms: list[tuple | None] = []
        self.state_entry: list[int] = []
        self.state_hints: list[YieldHint] = []
        self.warnings: list[str] = []
        self.entered: set[int] = set()
        self.sw_count = 0

    # -- block plumbing

    def new_block(self) -> int:
        self.ops.append([])
        self.terms.append(None)
        return len(self.terms) - 1

    def seal(self, b: int, term: tuple) -> None:
        assert self.terms[b] is None
        self.terms[b] = term
        if term[0] == "goto":
            self.entered.add(term[1])
        elif term[0] == "br":
            self.entered.update(term[2:])

    def close(self, open_: int | None, target: int) -> None:
        if open_ is not None:
            self.seal(open_, ("goto", target))

    def live(self, b: int) -> int | None:
        return b if b in self.entered else None

    def emit(self, b: int, op: tuple) -> None:
        self.ops[b].append(op)

    def reusable(self, b: int) -> bool:
        # A block with no ops and no terminator can become a loop header
        # directly instead of chaining through a goto.
        return not self.ops[b] and self.terms[b] is None

    def suspend(self, cur: int, hint: YieldHint) -> int:
        nb = self.new_block()
        self.state_entry.append(nb)
        self.state_hints.append(hint)
        self.seal(cur, ("yield", len(self.state_entry) - 1, hint))
        return nb

    # -- recursive lowering; returns the open block or None if control ended

    def run(self) -> Fsm:
        entry = self.new_block()
        self.state_entry.append(entry)
        for d in self.cdef.decls:
            if d.kind is DeclKind.VARIABLE and d.init is not None:
                self.emit(entry, ("assign", d.name, d.init))
        cur = self.lower_block(self.cdef.body, entry, "body", None, None)
        if cur is not None:
            self.seal(cur, ("finish",))
        return self.finish()

    def lower_block(self, blk: dsl.Block, cur: int, path: str, brk, cont):
        for d in blk.decls:
            if d.init is not None:
                self.emit(cur, ("assign", d.name, d.init))
        for i, s in enumerate(blk.stmts):
            if cur is None:
                self.warnings.append(f"unreachable code dropped at {path}[{i}]")
                return None
            cur = self.lower_stmt(s, cur, f"{path}[{i}]", brk, cont)
        return cur

    def lower_stmt(self, s, cur: int, path: str, brk, cont):
        match s:
            case dsl.Opaque(text=text):
                self.emit(cur, ("opaque", text))
                return cur
            case dsl.Assign(dst=dst, value=value):
                self.emit(cur, ("assign", dst, value))
                return cur
            case dsl.Load(dst=dst, addr=addr, yield_before=yb):
                if not yb:
                    self.emit(cur, ("assign", dst, addr))
                    return cur
                self.emit(cur, ("assign", "_addr", addr))
                self.emit(cur, ("prefetch", "_addr"))
                nb = self.suspend(cur, YieldHint.DEFAULT)
                self.emit(nb, ("assign", dst, "_addr"))
                return nb
            case dsl.Store(addr=addr, value=value, yield_before=yb):
                if not yb:
                    self.emit(cur, ("store", addr, value))
                    return cur
                self.emit(cur, ("assign", "_addr", value))
                nb = self.suspend(cur, YieldHint.DEFAULT)
                self.emit(nb, ("store", addr, "_addr"))
                return nb
            case dsl.Prefetch(addrs=addrs):
                for a in addrs:
                    self.emit(cur, ("prefetch", a))
                return cur
            case dsl.Yield(hint=hint):
                return self.suspend(cur, hint)
            case dsl.Return(value=value):
                if value is not None:
                    self.emit(cur, ("result", value))
                self.seal(cur, ("finish",))
                return None
            case dsl.Break():
                self.seal(cur, ("goto", brk))
                return None
            case dsl.Continue():
                self.seal(cur, ("goto", cont))
                return None
            case dsl.Block():
                return self.lower_block(s, cur, path, brk, cont)
            case dsl.If():
                return self.lower_if(s, cur, path, brk, cont)
            case dsl.While(cond=cond, body=body):
                if self.reusable(cur):
                    head = cur
                else:
                    head = self.new_block()
                    self.seal(cur, ("goto", head))
                body_b = self.new_block()
                after = self.new_block()
                self.seal(head, ("br", cond, body_b, after))
                self.close(self.lower_block(body, body_b, path + ".do", after, head), head)
                return after
            case dsl.DoWhile(body=body, cond=cond):
                if self.reusable(cur):
                    body_b = cur
                else:
                    body_b = self.new_block()
                    self.seal(cur, ("goto", body_b))
                cond_b = self.new_block()
                after = self.new_block()
                self.close(self.lower_block(body, body_b, path + ".do", after, cond_b), cond_b)
                # Only a continue or the body's fall-through reach the test;
                # without either, only a break reaches ``after``.
                if cond_b in self.entered:
                    self.seal(cond_b, ("br", cond, body_b, after))
                return self.live(after)
            case dsl.Switch():
                return self.lower_switch(s, cur, path, brk, cont)
            case dsl.Call(args=args):
                # Tail resume: rebind args (through temporaries, so an arg
                # expression may read the old values) and restart from entry,
                # which also re-runs variable initializers.
                temps = []
                for j, a in enumerate(args):
                    self.emit(cur, ("assign", f"_ca{j}", a))
                    temps.append(f"_ca{j}")
                for d, t in zip(self.cdef.args, temps):
                    self.emit(cur, ("assign", d.name, t))
                self.seal(cur, ("goto", self.state_entry[0]))
                return None

    def lower_if(self, s: dsl.If, cur: int, path: str, brk, cont):
        cond = s.cond
        if s.yield_before:
            self.emit(cur, ("assign", "_cond", cond))
            cur = self.suspend(cur, YieldHint.DEFAULT)
            cond = "_cond"
        then_b = self.new_block()
        else_b = self.new_block() if s.orelse is not None else None
        after = self.new_block()
        self.seal(cur, ("br", cond, then_b, else_b if else_b is not None else after))
        self.close(self.lower_block(s.then, then_b, path + ".then", brk, cont), after)
        if else_b is not None:
            self.close(self.lower_block(s.orelse, else_b, path + ".else", brk, cont), after)
        return self.live(after)

    def lower_switch(self, s: dsl.Switch, cur: int, path: str, brk, cont):
        tmp = f"_sw{self.sw_count}"
        self.sw_count += 1
        self.emit(cur, ("assign", tmp, s.scrutinee))
        after = self.new_block()
        cmp_b = cur
        n = len(s.cases)
        for k, (const, blk) in enumerate(s.cases):
            case_b = self.new_block()
            if k + 1 < n or s.default is not None:
                next_b = self.new_block()
            else:
                next_b = after
            self.seal(cmp_b, ("br", f"{tmp} == ({const})", case_b, next_b))
            self.close(self.lower_block(blk, case_b, f"{path}.case[{k}]", after, cont), after)
            cmp_b = next_b
        if s.default is not None:
            self.close(self.lower_block(s.default, cmp_b, path + ".default", after, cont), after)
        return self.live(after)

    # -- dropping the blocks control never entered, and the per-state stage view

    def finish(self) -> Fsm:
        # Lowering goes on only from a live block, and seals each one it
        # enters, so the sealed blocks are the live ones.
        keep = [b for b, t in enumerate(self.terms) if t is not None]
        remap = {old: new for new, old in enumerate(keep)}

        def fix(term: tuple) -> tuple:
            match term:
                case ("goto", x):
                    return ("goto", remap[x])
                case ("br", c, x, y):
                    return ("br", c, remap[x], remap[y])
            return term

        blocks = tuple(
            CfgBlock(tuple(self.ops[old]), fix(self.terms[old])) for old in keep
        )
        state_entry = tuple(remap[b] for b in self.state_entry)
        finished = len(state_entry)
        stages = _build_stages(blocks, state_entry, finished)
        return Fsm(
            name=self.cdef.name,
            blocks=blocks,
            state_entry=state_entry,
            finished_id=finished,
            state_hints=tuple(self.state_hints),
            stages=stages,
            warnings=tuple(self.warnings),
        )


def _build_stages(blocks, state_entry, finished_id) -> tuple[Stage, ...]:
    stages = []
    for sid, entry in enumerate(state_entry):
        seen: set[int] = set()
        work = [entry]
        succ_states: set[int] = set()
        reaches_finish = False
        while work:
            b = work.pop()
            if b in seen:
                continue
            seen.add(b)
            match blocks[b].term:
                case ("goto", x):
                    work.append(x)
                case ("br", _, x, y):
                    work.extend((x, y))
                case ("yield", target, _):
                    succ_states.add(target)
                case ("finish",):
                    reaches_finish = True
        succs = sorted(succ_states) + ([finished_id] if reaches_finish else [])
        stmt_count = sum(len(blocks[b].ops) for b in seen)
        stages.append(Stage(sid, stmt_count, tuple(succs)))
    return tuple(stages)


def split_stages(cdef: CoroutineDef) -> Fsm:
    """Lower a validated definition to its finite state machine.

    Raises LoweringError if the definition has validation diagnostics.
    Unreachable statements are dropped and reported in ``warnings``.
    The FSM is built on first use and kept on the definition object.
    """
    diags = dsl.validate(cdef)
    if diags:
        raise LoweringError("definition does not validate: " + "; ".join(map(str, diags)))
    return cdef.memo("fsm", lambda d: _Lowerer(d).run())


def compute_context(cdef: CoroutineDef, fsm: Fsm) -> ContextSpec:
    """Decide which declared and internal fields the context needs.

    All declared args and variables are context-resident (no liveness
    analysis).  ``_state`` appears when any suspension point may run
    under a dynamic schedule, ``_result`` when a result is declared,
    ``_cond``/``_addr`` when a branch or memory op suspends before use.
    """
    variables = list(cdef.variables)
    _collect_block_vars(cdef.body, variables)
    assigned = {op[1] for b in fsm.blocks for op in b.ops if op[0] == "assign"}
    internal = []
    if any(h in (YieldHint.DEFAULT, YieldHint.DYNAMIC) for h in fsm.state_hints):
        internal.append("_state")
    if cdef.result_decl is not None:
        internal.append("_result")
    internal += [f for f in ("_cond", "_addr") if f in assigned]
    return ContextSpec(
        args=cdef.args,
        shared_args=cdef.shared_args,
        variables=tuple(variables),
        internal=tuple(internal),
    )


def _collect_block_vars(blk: dsl.Block, out: list[Decl]) -> None:
    out.extend(blk.decls)
    for s in blk.stmts:
        for _, child in dsl.child_blocks(s):
            _collect_block_vars(child, out)


def fsm_dump(fsm: Fsm) -> str:
    """One line per state: ``state <id>: [<n> stmts] -> <successors>``."""
    lines = [
        f"state {st.id}: [{st.stmt_count} stmts] -> "
        + " ".join(str(x) for x in st.successors)
        for st in fsm.stages
    ]
    return "\n".join(lines) + "\n"


def straight_line_error(fsm: Fsm) -> str | None:
    """Why this FSM cannot run as fused per-stage loops, or None if it can.

    Straight-line means stage k suspends only into stage k+1 and only
    the last stage finishes (into ``finished_id``, its k+1), so a batch
    marches through the stages in lockstep.
    """
    for st in fsm.stages:
        if st.successors != (st.id + 1,):
            got = ", ".join(str(x) for x in st.successors) or "nothing"
            return (
                f"stage {st.id} reaches {got} instead of state {st.id + 1}; "
                "state transitions are data-dependent, so use the dynamic "
                "or hybrid schedule instead"
            )
    return None


def static_prefix_len(fsm: Fsm) -> int:
    """Leading run of stages pinned static (for hybrid scheduling).

    A stage counts while it flows unconditionally, through a yield
    hinted static, into the next; everything after runs under the
    dynamic scheduler.  The last stage, which no yield leaves, never counts.
    """
    n = 0
    for st, hint in zip(fsm.stages, fsm.state_hints):
        if hint is not YieldHint.STATIC or st.successors != (st.id + 1,):
            break
        n += 1
    return n
