"""Kernel registry: one entry per lookup kernel.

A kernel bundles its coroutine def builder, its hand-written
sequential baseline, a seeded dataset builder, query generation, and
how to fold a result into a checksum.  The bench driver and the
equivalence tests are generic over this table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ..dsl import CoroutineDef
from . import baselines, datasets
from .datasets import (  # noqa: F401
    Bst,
    HashTable,
    SkipList,
    SortedArray,
    make_bst,
    make_hashtable,
    make_skiplist,
    make_sorted_array,
    mixed_query_keys,
    value_for_key,
)
from .defs import (  # noqa: F401
    binary_search_def,
    bst_find_def,
    hashtable_find_def,
    skiplist_advance_def,
    skiplist_find_def,
)

__all__ = [
    "Kernel",
    "KERNELS",
    "fold_checksum",
]

FOLD_MULT = 1099511628211
MASK64 = datasets.MASK64


def fold_checksum(values) -> int:
    """Order-sensitive 64-bit fold of integer results."""
    h = 0
    for v in values:
        h = (h * FOLD_MULT + v) & MASK64
    return h


def _node_key(node) -> int:
    return 0 if node is None else node.key


@dataclass(frozen=True, slots=True)
class Kernel:
    """Everything the generic drivers need to run one kernel."""

    name: str
    build_def: Callable[..., CoroutineDef]
    build_hybrid_def: Callable[[], CoroutineDef] | None
    baseline: Callable[..., Any]
    make_dataset: Callable[[int, int], Any]
    shared: Callable[[Any], tuple]
    make_queries: Callable[..., list[tuple]]
    result_key: Callable[[Any], int]
    bytes_per_element: int

    def definition(self, policy: str, select: str = "arith") -> CoroutineDef:
        """A fresh definition for ``policy``: the hinted one for hybrid, where
        the kernel has one; otherwise ``build_def``, given ``select`` for bs."""
        if policy == "hybrid" and self.build_hybrid_def is not None:
            return self.build_hybrid_def()
        if self.name == "bs":
            return self.build_def(select)
        return self.build_def()


def _bs_queries(ds: SortedArray, count: int, seed: int) -> list[tuple]:
    return [(k,) for k in mixed_query_keys(list(ds.keys), count, seed)]


def _bt_queries(ds: Bst, count: int, seed: int) -> list[tuple]:
    return [(ds.root, k) for k in mixed_query_keys(ds.keys, count, seed)]


def _sl_queries(ds: SkipList, count: int, seed: int) -> list[tuple]:
    return [(ds.head, k) for k in mixed_query_keys(ds.keys, count, seed)]


def _sli_queries(ds: SkipList, count: int, seed: int, limit: int = 8) -> list[tuple]:
    rng = random.Random(seed)
    starts = [ds.nodes[rng.randrange(len(ds.nodes))] for _ in range(count)]
    return [(n, limit) for n in starts]


def _ht_queries(ds: HashTable, count: int, seed: int) -> list[tuple]:
    return [(k,) for k in mixed_query_keys(ds.keys, count, seed)]


KERNELS: dict[str, Kernel] = {
    "bs": Kernel(
        name="bs",
        build_def=binary_search_def,
        build_hybrid_def=None,
        baseline=baselines.binary_search,
        make_dataset=make_sorted_array,
        shared=lambda ds: (ds.keys, ds.size),
        make_queries=_bs_queries,
        result_key=lambda r: r,
        bytes_per_element=8,
    ),
    "bt": Kernel(
        name="bt",
        build_def=bst_find_def,
        build_hybrid_def=None,
        baseline=baselines.bst_find,
        make_dataset=make_bst,
        shared=lambda ds: (),
        make_queries=_bt_queries,
        result_key=_node_key,
        bytes_per_element=24,
    ),
    "sl": Kernel(
        name="sl",
        build_def=skiplist_find_def,
        build_hybrid_def=None,
        baseline=baselines.skiplist_find,
        make_dataset=make_skiplist,
        shared=lambda ds: (),
        make_queries=_sl_queries,
        result_key=_node_key,
        bytes_per_element=40,
    ),
    "sli": Kernel(
        name="sli",
        build_def=skiplist_advance_def,
        build_hybrid_def=None,
        baseline=baselines.skiplist_advance,
        make_dataset=make_skiplist,
        shared=lambda ds: (),
        make_queries=_sli_queries,
        result_key=lambda r: r,
        bytes_per_element=40,
    ),
    "ht": Kernel(
        name="ht",
        build_def=hashtable_find_def,
        build_hybrid_def=lambda: hashtable_find_def(static_hints=True),
        baseline=baselines.hashtable_find,
        make_dataset=make_hashtable,
        shared=lambda ds: (ds.keys_col, ds.vals_col, ds.size_1),
        make_queries=_ht_queries,
        result_key=lambda r: r,
        bytes_per_element=16,
    ),
}
