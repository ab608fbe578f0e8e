"""Coroutine interleaving toolkit.

A builder DSL describes pointer-chasing routines with explicit
suspension points; lowering splits them into state machines, which
decide the schedules a routine qualifies for; codegen prints each
routine as resumable Python generators; the schedulers interleave
many in-flight lookups on one thread so that each stall overlaps the
work of its neighbors.
"""

__version__ = "0.1.0"

from .dsl import (  # noqa: F401
    CoroutineDef,
    Diagnostic,
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
from .lowering import (  # noqa: F401
    ContextSpec,
    Fsm,
    LoweringError,
    compute_context,
    fsm_dump,
    split_stages,
    static_prefix_len,
    straight_line_error,
)
from .codegen import (  # noqa: F401
    CodegenError,
    SourceText,
    emit_dynamic,
    emit_hybrid,
    emit_routine,
    emit_static,
    load_unit,
)
from .schedulers import (  # noqa: F401
    SchedulerConfig,
    TaskError,
    interleave_map,
    run_hybrid,
    run_push_pull,
    run_simplest,
    run_static_batch,
)
