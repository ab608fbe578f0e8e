"""Runtime support imported by generated coroutine modules.

Generated code calls ``mark``, looked up here, at every marked load.
Pure Python cannot issue a real cache-line prefetch, so by default it
is the builtin ``callable``: no Python frame, no call into the address.
A hook installed by tests or tracers becomes ``mark`` and sees the
address stream (e.g. to check that every pointer is announced before
it is read), also from units loaded before it was installed.

``DynamicUnit`` and ``BatchUnit`` hold every method that a generated
class does not print: a class prints only how it builds its lanes.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

__all__ = [
    "set_prefetch_hook",
    "prefetch_hook",
    "fmix32",
    "fmix64",
    "StepCoroutine",
    "BatchCoroutine",
    "DynamicUnit",
    "BatchUnit",
]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

_hook: Callable[[Any], None] | None = None
mark: Callable[[Any], Any] = callable


def set_prefetch_hook(hook: Callable[[Any], None] | None) -> None:
    global _hook, mark
    _hook = hook
    mark = callable if hook is None else hook


@contextlib.contextmanager
def prefetch_hook(hook: Callable[[Any], None]):
    """Install ``hook`` for the duration of a with-block."""
    prev = _hook
    set_prefetch_hook(hook)
    try:
        yield
    finally:
        set_prefetch_hook(prev)


def fmix32(h: int) -> int:
    """32-bit avalanche finalizer (Murmur3)."""
    h &= _MASK32
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def fmix64(h: int) -> int:
    """64-bit avalanche finalizer (Murmur3)."""
    h &= _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


@runtime_checkable
class StepCoroutine(Protocol):
    """Contract of generated per-task coroutines.

    ``step()`` runs to the next suspension point and returns False, or
    to completion and returns True; once finished it keeps returning
    True.  ``reset()`` rewinds to the entry state without touching the
    stored arguments, so the same instance can re-run.
    """

    def step(self) -> bool: ...

    def done(self) -> bool: ...

    def reset(self) -> None: ...

    def result(self) -> Any: ...


@runtime_checkable
class BatchCoroutine(Protocol):
    """Contract of generated batch coroutines.

    ``init(tasks)`` takes one arg tuple per task, at most the unit's
    ``_WIDTH`` of them, and builds one lane per task;
    ``super_step()`` advances every lane by one stage and returns True
    when all lanes are finished; ``fini(out)`` writes one result per
    lane into the head of ``out``.
    """

    def init(self, tasks: Sequence[tuple]) -> None: ...

    def super_step(self) -> bool: ...

    def fini(self, out: list) -> None: ...


class DynamicUnit:
    """``StepCoroutine`` over ``_gen``, the lane of ``_args`` into ``_out[0]``."""

    __slots__ = ("_args", "_gen", "_out")

    def step(self) -> bool:
        return next(self._gen, True)

    def done(self) -> bool:
        return self._gen.gi_frame is None

    def reset(self) -> None:
        self.__init__(*self._args)

    def result(self) -> Any:
        return self._out[0]


class BatchUnit:
    """``BatchCoroutine`` over the lanes a generated ``init`` builds; a hybrid sets ``_PREFIX``."""

    __slots__ = ("_gens", "_result")

    def __init__(self) -> None:
        self._gens = ()
        self._result = []

    def super_step(self) -> bool:
        done = True
        for g in self._gens:
            if not next(g, True):
                done = False
        return done

    def run_prefix(self) -> None:
        for _ in range(self._PREFIX):
            for g in self._gens:
                next(g, None)

    def step_slot(self, i: int) -> bool:
        return next(self._gens[i], True)

    def fini(self, out: list) -> None:
        out[:len(self._result)] = self._result
