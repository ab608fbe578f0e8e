"""Seeded queries and independent oracles, one per kernel.

No oracle calls the library's baselines or generated code.  Each answer
comes from the dataset's plain key list through the standard library:

* bs: ``bisect.bisect_left`` over the key array;
* bt, sl: membership in the key set, and the returned node's key must
  equal the query;
* sli: the key ``limit`` places after the start node in the key list,
  parking at the tail key past the end;
* ht: a dict from key to ``value_for_key``, else 0.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Any, Callable

from .common import present_absent_keys

SLI_LIMIT = 8


def _node_keys(results: list) -> list:
    """A node becomes its key; anything else that is not None stays as is."""
    from coroweave.kernels import datasets

    nodes = (datasets.TreeNode, datasets.SkipNode)
    return [r.key if isinstance(r, nodes) else r for r in results]


def _same(results: list) -> list:
    return results


@dataclass
class Case:
    """One kernel's queries, their expected answers and result view."""

    kernel: str
    shared: tuple
    tasks: list[tuple]
    expected: list
    view: Callable[[list], list]

    def sub(self, lo: int, hi: int) -> "Case":
        return Case(self.kernel, self.shared, self.tasks[lo:hi],
                    self.expected[lo:hi], self.view)


def make_case(kernel: str, ds: Any, shared: tuple, count: int,
              rng: random.Random) -> Case:
    """``count`` seeded queries for ``kernel`` over ``ds`` with answers."""
    if kernel == "bs":
        keys = list(ds.keys)
        qs = present_absent_keys(keys, count, rng)
        return Case(kernel, shared, [(k,) for k in qs],
                    [bisect.bisect_left(keys, k) for k in qs], _same)
    if kernel in ("bt", "sl"):
        keyset = set(ds.keys)
        qs = present_absent_keys(ds.keys, count, rng)
        start = ds.root if kernel == "bt" else ds.head
        return Case(kernel, shared, [(start, k) for k in qs],
                    [k if k in keyset else None for k in qs], _node_keys)
    if kernel == "sli":
        n = len(ds.keys)
        starts = [rng.randrange(n) for _ in range(count)]
        return Case(
            kernel, shared,
            [(ds.nodes[i], SLI_LIMIT) for i in starts],
            [ds.keys[i + SLI_LIMIT] if i + SLI_LIMIT < n else ds.tail.key
             for i in starts],
            _same,
        )
    if kernel == "ht":
        from coroweave.kernels import value_for_key

        table = {k: value_for_key(k) for k in ds.keys}
        qs = present_absent_keys(ds.keys, count, rng)
        return Case(kernel, shared, [(k,) for k in qs],
                    [table.get(k, 0) for k in qs], _same)
    raise ValueError(f"no oracle for kernel {kernel!r}")
