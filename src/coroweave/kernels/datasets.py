"""Seeded data structure builders for the lookup kernels.

Everything is deterministic in (element count, seed): the same inputs
always produce the same keys, the same tree shape, the same tower
heights, and the same probe layout, so checksums are comparable across
runs and machines.  Keys are nonzero (the hash table reserves 0 for
empty slots) and strictly increasing gaps keep them unique.

Each builder is one linear pass over the keys, and draws exactly what
the earlier, slower builders drew, so the data is identical to theirs
for every (element count, seed):

* a key gap is ``r + 1`` for ``r = rng.getrandbits(3)``, redrawn while
  ``r == 7``: the draws that ``rng.randrange(1, 8)`` makes, without
  its two Python frames per key;
* the tree is the one that inserting the keys in ``rng.shuffle`` order
  would grow: the treap over the sorted keys whose priority is each
  key's position in that order, built with one stack pass instead of
  a descent per key.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

from ..runtime import fmix64

__all__ = [
    "MASK64",
    "SKIP_MAX_HEIGHT",
    "TreeNode",
    "SkipNode",
    "SortedArray",
    "Bst",
    "SkipList",
    "HashTable",
    "make_sorted_array",
    "make_bst",
    "make_skiplist",
    "make_hashtable",
    "value_for_key",
    "mixed_query_keys",
]

MASK64 = 0xFFFFFFFFFFFFFFFF
SKIP_MAX_HEIGHT = 16


def _keys(n: int, rng: random.Random) -> list[int]:
    """``n`` increasing keys, each gap drawn as ``rng.randrange(1, 8)`` draws it."""
    bits = rng.getrandbits
    keys = []
    k = 0
    for _ in range(n):
        r = bits(3)
        while r == 7:
            r = bits(3)
        k += r + 1
        keys.append(k)
    return keys


def mixed_query_keys(keys: list[int], count: int, seed: int) -> list[int]:
    """A deterministic blend of present and absent keys."""
    rng = random.Random(seed)
    top = keys[-1] + 8 if keys else 8
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            out.append(keys[rng.randrange(len(keys))])
        else:
            out.append(rng.randrange(1, top))
    return out


def value_for_key(k: int) -> int:
    """The payload stored for a key; nonzero so 0 can mean 'absent'."""
    return fmix64(k) | 1


# -- sorted array


@dataclass(frozen=True, slots=True)
class SortedArray:
    keys: array

    @property
    def size(self) -> int:
        return len(self.keys)


def make_sorted_array(n: int, seed: int) -> SortedArray:
    if n < 1:
        raise ValueError("need at least one element")
    return SortedArray(array("Q", _keys(n, random.Random(seed))))


# -- binary search tree


class TreeNode:
    __slots__ = ("key", "child")

    def __init__(self, key: int) -> None:
        self.key = key
        self.child: list[TreeNode | None] = [None, None]


@dataclass(frozen=True, slots=True)
class Bst:
    root: TreeNode
    keys: list[int]


def make_bst(n: int, seed: int) -> Bst:
    """Random-insertion-order tree, so depth stays O(log n) on average.

    Built as the treap of the module docstring: the right spine of the
    tree so far is kept on a stack, and each next key adopts, as its
    left child, the last spine node it pops for a later position.
    """
    if n < 1:
        raise ValueError("need at least one element")
    rng = random.Random(seed)
    keys = _keys(n, rng)
    order = keys[:]
    rng.shuffle(order)
    position = {key: i for i, key in enumerate(order)}
    spine: list[TreeNode] = []
    spine_pos: list[int] = []
    for key in keys:
        pos = position[key]
        node = TreeNode(key)
        below = None
        while spine_pos and spine_pos[-1] > pos:
            spine_pos.pop()
            below = spine.pop()
        node.child[0] = below
        if spine:
            spine[-1].child[1] = node
        spine.append(node)
        spine_pos.append(pos)
    return Bst(spine[0], keys)


# -- skip list


class SkipNode:
    __slots__ = ("key", "height", "skip")

    def __init__(self, key: int, height: int) -> None:
        self.key = key
        self.height = height
        self.skip: list[SkipNode] = []


@dataclass(frozen=True, slots=True)
class SkipList:
    head: SkipNode
    tail: SkipNode
    nodes: list[SkipNode]
    keys: list[int]


def make_skiplist(n: int, seed: int) -> SkipList:
    """Geometric tower heights (p = 1/2), capped at SKIP_MAX_HEIGHT.

    The head sorts below every real key and the tail above (its level-0
    link points at itself, so walking past the end parks there instead
    of derailing).
    """
    if n < 1:
        raise ValueError("need at least one element")
    rng = random.Random(seed)
    keys = _keys(n, rng)
    tail = SkipNode(1 << 64, SKIP_MAX_HEIGHT)
    tail.skip = [tail] * SKIP_MAX_HEIGHT
    head = SkipNode(-1, SKIP_MAX_HEIGHT)
    head.skip = [tail] * SKIP_MAX_HEIGHT
    last = [head] * SKIP_MAX_HEIGHT
    nodes = []
    for key in keys:
        height = 1
        while height < SKIP_MAX_HEIGHT and rng.random() < 0.5:
            height += 1
        node = SkipNode(key, height)
        node.skip = [tail] * height
        for lvl in range(height):
            last[lvl].skip[lvl] = node
            last[lvl] = node
        nodes.append(node)
    return SkipList(head, tail, nodes, keys)


# -- linear-probing hash table


@dataclass(frozen=True, slots=True)
class HashTable:
    keys_col: array
    vals_col: array
    size_1: int
    keys: list[int]


def make_hashtable(n: int, seed: int) -> HashTable:
    """Open addressing over parallel columns, load factor <= 1/2.

    Slot 0-keys mean empty.  Values are derived from keys, so a lookup
    can be checked without a shadow map.
    """
    if n < 1:
        raise ValueError("need at least one element")
    keys = _keys(n, random.Random(seed))
    size = 1
    while size < 2 * n:
        size <<= 1
    keys_col = array("Q", bytes(8 * size))
    vals_col = array("Q", bytes(8 * size))
    mask = size - 1
    for k in keys:
        f = fmix64(k)
        h = f & mask
        while keys_col[h] != 0:
            h = (h + 1) & mask
        keys_col[h] = k
        vals_col[h] = f | 1  # value_for_key(k)
    return HashTable(keys_col, vals_col, mask, keys)
