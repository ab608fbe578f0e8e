"""A test-only interpreter for lowered state machines.

``run_fsm`` executes the blocks that ``split_stages`` produces, op by
op, following ``goto``/``br``/``yield``/``finish`` terminators, in one
namespace per task.  It prints no source and shares no code with the
emitters in ``coroweave.codegen``, so it checks the statement printer
that every generated shape uses from outside: the lowering and the
printer translate the same tree independently, and must agree.
"""

from __future__ import annotations

import builtins
import textwrap

from coroweave.lowering import Fsm
from coroweave import runtime
from coroweave.runtime import fmix32, fmix64


def run_fsm(fsm: Fsm, args: dict, shared: dict | None = None,
            step_cap: int = 1_000_000) -> tuple[object, int]:
    """Run one task to completion; return (result, suspensions taken).

    The namespace holds the runtime helpers a generated header imports,
    the shared args and the task's args; every op reads and writes it.
    ``step_cap`` bounds the number of blocks entered.
    """
    ns = {"__builtins__": builtins, "fmix32": fmix32, "fmix64": fmix64,
          **(shared or {}), **args}
    result = None
    suspensions = 0
    b = fsm.state_entry[0]
    for _ in range(step_cap):
        blk = fsm.blocks[b]
        for op in blk.ops:
            match op:
                case ("opaque", text):
                    exec(textwrap.dedent(text), ns)
                case ("assign", dst, expr) | ("store", dst, expr):
                    exec(f"{dst} = {expr}", ns)
                case ("prefetch", expr):
                    runtime.mark(eval(expr, ns))
                case ("result", expr):
                    result = eval(expr, ns)
                case _:
                    raise AssertionError(f"unknown op {op!r}")
        match blk.term:
            case ("goto", target):
                b = target
            case ("br", cond, if_true, if_false):
                b = if_true if eval(cond, ns) else if_false
            case ("yield", state, _hint):
                suspensions += 1
                b = fsm.state_entry[state]
            case ("finish",):
                return result, suspensions
            case term:
                raise AssertionError(f"unknown terminator {term!r}")
    raise AssertionError(f"{fsm.name}: no finish within {step_cap} blocks")
