"""Kernel oracles: datasets, baselines, defs, and memory discipline.

Expected values come from independent formulations (linear scans,
shadow dicts, index arithmetic, stdlib bisect), never from the code
under test.
"""

import bisect
import gc
import random
from array import array
from itertools import count

import pytest

from coroweave import emit_dynamic, emit_routine, emit_static, load_unit
from coroweave.codegen import CodegenError
from coroweave.kernels import (
    KERNELS,
    fold_checksum,
    mixed_query_keys,
    value_for_key,
)
from coroweave.kernels import baselines, datasets
from coroweave.kernels.datasets import (
    SKIP_MAX_HEIGHT,
    HashTable,
    make_bst,
    make_hashtable,
    make_skiplist,
    make_sorted_array,
)
from coroweave.kernels.defs import SELECTS
from coroweave.runtime import fmix64, prefetch_hook

N = 256
SEED = 3
QSEED = 7
QCOUNT = 300


def run_unit(cls, *args):
    inst = cls(*args)
    while not inst.step():
        pass
    return inst.result()


def count_yields(cls, *args):
    inst = cls(*args)
    n = 0
    while not inst.step():
        n += 1
    return n


# -- shared fixtures, one dataset per kernel family


@pytest.fixture(scope="module")
def arr():
    return make_sorted_array(N, SEED)


@pytest.fixture(scope="module")
def tree():
    return make_bst(N, SEED)


@pytest.fixture(scope="module")
def slist():
    return make_skiplist(N, SEED)


@pytest.fixture(scope="module")
def table():
    return make_hashtable(N, SEED)


class TestDatasets:
    def test_keys_are_unique_increasing_nonzero(self, arr):
        ks = list(arr.keys)
        assert all(a < b for a, b in zip(ks, ks[1:]))
        assert ks[0] >= 1

    @pytest.mark.parametrize("make", [make_sorted_array, make_bst, make_skiplist, make_hashtable])
    def test_same_seed_same_dataset(self, make):
        a, b = make(64, 11), make(64, 11)
        assert a.keys == b.keys or list(a.keys) == list(b.keys)

    def test_different_seed_different_keys(self):
        assert make_sorted_array(64, 1).keys != make_sorted_array(64, 2).keys

    @pytest.mark.parametrize("make", [make_sorted_array, make_bst, make_skiplist, make_hashtable])
    def test_rejects_empty(self, make):
        with pytest.raises(ValueError):
            make(0, 1)

    def test_single_element_datasets_work(self):
        assert len(make_sorted_array(1, 5).keys) == 1
        assert make_bst(1, 5).root.child == [None, None]
        sl = make_skiplist(1, 5)
        assert sl.nodes[0].skip[0] is sl.tail

    def test_bst_inorder_matches_keys(self, tree):
        walked = []
        stack, node = [], tree.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.child[0]
            node = stack.pop()
            walked.append(node.key)
            node = node.child[1]
        assert walked == sorted(tree.keys) == tree.keys

    def test_bst_shape_is_seed_deterministic(self):
        def preorder(node):
            return [] if node is None else (
                [node.key] + preorder(node.child[0]) + preorder(node.child[1])
            )

        assert preorder(make_bst(64, 9).root) == preorder(make_bst(64, 9).root)

    def test_skiplist_level0_chain_is_the_key_order(self, slist):
        chain = []
        node = slist.head.skip[0]
        while node is not slist.tail:
            chain.append(node.key)
            node = node.skip[0]
        assert chain == slist.keys

    def test_skiplist_upper_levels_are_sorted_subsequences(self, slist):
        keyset = set(slist.keys)
        for lvl in range(1, SKIP_MAX_HEIGHT):
            node = slist.head.skip[lvl] if lvl < slist.head.height else slist.tail
            prev = -1
            while node is not slist.tail:
                assert node.key in keyset and node.key > prev
                assert node.height > lvl
                prev = node.key
                node = node.skip[lvl]

    def test_skiplist_sentinels(self, slist):
        assert slist.head.key == -1
        assert slist.tail.key == 1 << 64
        assert all(s is slist.tail for s in slist.tail.skip)
        assert all(1 <= n.height <= SKIP_MAX_HEIGHT for n in slist.nodes)

    def test_hashtable_layout(self, table):
        size = table.size_1 + 1
        assert size & (size - 1) == 0  # power of two
        assert size >= 2 * N  # load factor <= 1/2
        assert sum(1 for k in table.keys_col if k != 0) == N
        assert len(table.keys_col) == len(table.vals_col) == size

    def test_hashtable_stores_derived_values(self, table):
        for slot, k in enumerate(table.keys_col):
            if k != 0:
                assert table.vals_col[slot] == value_for_key(k)

    def test_value_for_key_is_odd(self):
        for k in (1, 2, 17, 2**40):
            assert value_for_key(k) % 2 == 1

    def test_mixed_queries_deterministic_and_mixed(self, arr):
        keys = list(arr.keys)
        qs = mixed_query_keys(keys, 200, 5)
        assert qs == mixed_query_keys(keys, 200, 5)
        assert qs != mixed_query_keys(keys, 200, 6)
        present = set(keys)
        assert any(q in present for q in qs)
        assert any(q not in present for q in qs)
        assert all(q >= 1 for q in qs)


# -- reference builders: the earlier loops, kept verbatim as the oracle
# for the linear-pass builders in datasets.py


def ref_keys(n, rng):
    keys = []
    k = 0
    for _ in range(n):
        k += rng.randrange(1, 8)
        keys.append(k)
    return keys


def ref_bst_root(n, seed):
    rng = random.Random(seed)
    keys = ref_keys(n, rng)
    order = keys[:]
    rng.shuffle(order)
    root = datasets.TreeNode(order[0])
    for key in order[1:]:
        node = root
        while True:
            nxt = node.child[node.key < key]
            if nxt is None:
                node.child[node.key < key] = datasets.TreeNode(key)
                break
            node = nxt
    return root


def ref_hash_columns(n, seed):
    keys = ref_keys(n, random.Random(seed))
    size = 1
    while size < 2 * n:
        size <<= 1
    keys_col = array("Q", bytes(8 * size))
    vals_col = array("Q", bytes(8 * size))
    mask = size - 1
    for k in keys:
        h = fmix64(k) & mask
        while keys_col[h] != 0:
            h = (h + 1) & mask
        keys_col[h] = k
        vals_col[h] = value_for_key(k)
    return keys_col, vals_col


def preorder_with_leaves(root):
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if node is None:
            out.append(None)
        else:
            out.append(node.key)
            stack += (node.child[1], node.child[0])
    return out


def skip_links(sl):
    return [(n.key, n.height, [m.key for m in n.skip]) for n in [sl.head, *sl.nodes, sl.tail]]


BUILD_CASES = [(n, seed) for n in (1, 2, 7, 64, 1000) for seed in (0, 1, 5, 9)] + [(1 << 16, 7)]


class TestBuildersMatchReference:
    """Same keys, tree, links, columns and RNG state as the reference builders."""

    @pytest.mark.parametrize("n, seed", BUILD_CASES)
    def test_keys_and_rng_state(self, n, seed):
        ref, new = random.Random(seed), random.Random(seed)
        assert datasets._keys(n, new) == ref_keys(n, ref)
        assert new.getstate() == ref.getstate()
        assert list(make_sorted_array(n, seed).keys) == ref_keys(n, random.Random(seed))

    @pytest.mark.parametrize("n, seed", BUILD_CASES)
    def test_bst(self, n, seed):
        bst = make_bst(n, seed)
        assert bst.keys == ref_keys(n, random.Random(seed))
        assert preorder_with_leaves(bst.root) == preorder_with_leaves(ref_bst_root(n, seed))

    @pytest.mark.parametrize("n, seed", BUILD_CASES)
    def test_skiplist(self, n, seed, monkeypatch):
        new = make_skiplist(n, seed)
        monkeypatch.setattr(datasets, "_keys", ref_keys)
        assert skip_links(new) == skip_links(make_skiplist(n, seed))

    @pytest.mark.parametrize("n, seed", BUILD_CASES)
    def test_hashtable(self, n, seed):
        ht = make_hashtable(n, seed)
        keys_col, vals_col = ref_hash_columns(n, seed)
        assert ht.keys_col == keys_col and ht.vals_col == vals_col
        assert ht.size_1 == len(keys_col) - 1
        assert ht.keys == ref_keys(n, random.Random(seed))


class TestBuildersRestoreCollector:
    """The linked builders pause the cyclic collector and leave it as they found it."""

    @pytest.fixture
    def collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("make", [make_bst, make_skiplist])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_kept(self, make, enabled, collector, monkeypatch):
        seen = []
        real_keys = datasets._keys

        def keys(n, rng):
            seen.append(gc.isenabled())
            return real_keys(n, rng)

        monkeypatch.setattr(datasets, "_keys", keys)
        (gc.enable if enabled else gc.disable)()
        make(64, SEED)
        assert seen == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("make", [make_bst, make_skiplist])
    def test_back_on_after_a_raise(self, make, collector, monkeypatch):
        def keys(n, rng):
            raise RuntimeError("boom")

        gc.enable()
        monkeypatch.setattr(datasets, "_keys", keys)
        with pytest.raises(RuntimeError, match="boom"):
            make(64, SEED)
        assert gc.isenabled()


class TestChecksum:
    def test_frozen_values(self):
        assert fold_checksum([]) == 0
        assert fold_checksum([1]) == 1
        assert fold_checksum([1, 2]) == 1099511628213
        assert fold_checksum([0, 0, 7]) == 7

    def test_order_sensitive(self):
        assert fold_checksum([1, 2]) != fold_checksum([2, 1])

    def test_masked_to_64_bits(self):
        big = [2**64 - 1] * 5
        assert 0 <= fold_checksum(big) < 2**64


class TestBinarySearch:
    def queries(self, arr):
        ks = list(arr.keys)
        edge = [0, 1, ks[0], ks[-1], ks[-1] + 100]
        return edge + mixed_query_keys(ks, QCOUNT, QSEED)

    def test_baseline_is_lower_bound(self, arr):
        ks = list(arr.keys)
        for k in self.queries(arr):
            want = bisect.bisect_left(ks, k)
            scan = next((i for i, v in enumerate(ks) if v >= k), len(ks))
            got = baselines.binary_search(arr.keys, arr.size, k)
            assert got == want == scan, k

    @pytest.mark.parametrize("select", SELECTS)
    def test_def_matches_baseline(self, arr, select):
        routine = load_unit(emit_routine(KERNELS["bs"].build_def(select)))
        cls = load_unit(emit_dynamic(KERNELS["bs"].build_def(select)))(arr.keys, arr.size)
        for k in self.queries(arr):
            want = baselines.binary_search(arr.keys, arr.size, k)
            assert routine(arr.keys, arr.size, k) == want
            assert run_unit(cls, k) == want

    def test_probe_count_is_uniform(self):
        # every key costs exactly ceil(log2 n) suspensions, found or not
        for n in (1, 2, 7, 1000, 1024):
            ds = make_sorted_array(n, SEED)
            cls = load_unit(emit_dynamic(KERNELS["bs"].build_def()))(ds.keys, ds.size)
            want = (n - 1).bit_length() if n > 1 else 0
            for k in (0, 1, ds.keys[0], ds.keys[-1], ds.keys[-1] + 5):
                assert count_yields(cls, k) == want, (n, k)

    def test_each_probe_is_announced_then_compared(self, arr):
        reads: list[int] = []

        class TracedArray:
            def __init__(self, real):
                self.real = real

            def __getitem__(self, i):
                reads.append(i)
                return self.real[i]

        cls = load_unit(emit_dynamic(KERNELS["bs"].build_def()))(
            TracedArray(arr.keys), arr.size
        )
        yields = count_yields(cls, list(arr.keys)[37])
        # pairs: the index read by the prefetch evaluation is re-read by
        # the compare on the other side of the yield; one final direct read
        assert len(reads) == 2 * yields + 1
        for t in range(yields):
            assert reads[2 * t] == reads[2 * t + 1]


class TestBstFind:
    def hops(self, root, key):
        n, h = root, 0
        while n is not None:
            h += 1
            if n.key == key:
                break
            n = n.child[n.key < key]
        return h

    def test_baseline_is_membership(self, tree):
        present = set(tree.keys)
        for k in mixed_query_keys(tree.keys, QCOUNT, QSEED):
            got = baselines.bst_find(tree.root, k)
            if k in present:
                assert got is not None and got.key == k
            else:
                assert got is None

    def test_def_matches_baseline(self, tree):
        routine = load_unit(emit_routine(KERNELS["bt"].build_def()))
        cls = load_unit(emit_dynamic(KERNELS["bt"].build_def()))()
        for k in mixed_query_keys(tree.keys, QCOUNT, QSEED):
            want = baselines.bst_find(tree.root, k)
            assert routine(tree.root, k) is want
            assert run_unit(cls, tree.root, k) is want

    def test_one_suspension_per_node_visited(self, tree):
        cls = load_unit(emit_dynamic(KERNELS["bt"].build_def()))()
        for k in mixed_query_keys(tree.keys, 60, QSEED):
            assert count_yields(cls, tree.root, k) == self.hops(tree.root, k)

    def test_every_dereference_was_prefetched_earlier(self):
        log: list[tuple] = []

        class TracedNode:
            def __init__(self):
                self.__dict__["_f"] = {}

            def __getattr__(self, name):
                f = self.__dict__["_f"]
                if name in f:
                    log.append(("read", id(self)))
                    return f[name]
                raise AttributeError(name)

        real = make_bst(64, SEED)
        mirror = {None: None}

        def proxy(node):
            if node not in mirror:
                t = TracedNode()
                mirror[node] = t
                t.__dict__["_f"]["key"] = node.key
                t.__dict__["_f"]["child"] = [proxy(c) for c in node.child]
            return mirror[node]

        root = proxy(real.root)
        cls = load_unit(emit_dynamic(KERNELS["bt"].build_def()))()
        for k in mixed_query_keys(real.keys, 40, QSEED):
            log.clear()
            inst = cls(root, k)
            with prefetch_hook(lambda a: log.append(("prefetch", id(a)))):
                steps = 0
                while not inst.step():
                    steps += 1
                    log.append(("boundary", steps))
            announced: set[int] = set()
            pending: set[int] = set()
            seen_reads = 0
            for ev, x in log:
                if ev == "prefetch":
                    pending.add(x)
                elif ev == "boundary":
                    announced |= pending
                    pending.clear()
                else:
                    seen_reads += 1
                    assert x in announced, "read a node that was never announced"
            assert seen_reads > 0


class TestSkiplistFind:
    def test_baseline_is_membership(self, slist):
        present = set(slist.keys)
        for k in mixed_query_keys(slist.keys, QCOUNT, QSEED):
            got = baselines.skiplist_find(slist.head, k)
            if k in present:
                assert got is not None and got.key == k
            else:
                assert got is None

    def test_def_matches_baseline(self, slist):
        routine = load_unit(emit_routine(KERNELS["sl"].build_def()))
        cls = load_unit(emit_dynamic(KERNELS["sl"].build_def()))()
        for k in mixed_query_keys(slist.keys, QCOUNT, QSEED):
            want = baselines.skiplist_find(slist.head, k)
            assert routine(slist.head, k) is want
            assert run_unit(cls, slist.head, k) is want

    def test_one_suspension_per_descend_or_strafe(self, slist):
        def trips(pred, k):
            lvl, t = pred.height, 0
            while True:
                t += 1
                n = pred.skip[lvl - 1]
                if n.key < k:
                    pred = n
                else:
                    lvl -= 1
                    if lvl == 0:
                        return t

        cls = load_unit(emit_dynamic(KERNELS["sl"].build_def()))()
        for k in mixed_query_keys(slist.keys, 60, QSEED):
            assert count_yields(cls, slist.head, k) == trips(slist.head, k)


class TestSkiplistAdvance:
    def test_baseline_by_index_arithmetic(self, slist):
        for i in (0, 1, 100, N - 2, N - 1):
            for limit in (0, 1, 8, 40, N + 10):
                j = i + limit
                want = slist.keys[j] if j < N else 1 << 64
                assert baselines.skiplist_advance(slist.nodes[i], limit) == want

    def test_def_matches_baseline(self, slist):
        routine = load_unit(emit_routine(KERNELS["sli"].build_def()))
        cls = load_unit(emit_dynamic(KERNELS["sli"].build_def()))()
        for i in range(0, N, 17):
            for limit in (0, 1, 8, N):
                want = baselines.skiplist_advance(slist.nodes[i], limit)
                assert routine(slist.nodes[i], limit) == want
                assert run_unit(cls, slist.nodes[i], limit) == want

    def test_limit_plus_one_suspensions(self, slist):
        cls = load_unit(emit_dynamic(KERNELS["sli"].build_def()))()
        for limit in (0, 1, 8, 23):
            assert count_yields(cls, slist.nodes[0], limit) == limit + 1

    def test_every_hop_reads_an_announced_node(self, slist):
        log: list[tuple] = []

        class TracedNode:
            def __init__(self):
                self.__dict__["_f"] = {}

            def __getattr__(self, name):
                f = self.__dict__["_f"]
                if name in f:
                    log.append(("read", id(self)))
                    return f[name]
                raise AttributeError(name)

        mirror: dict[int, object] = {}

        def proxy(node):
            if id(node) not in mirror:
                t = TracedNode()
                mirror[id(node)] = t
                t.__dict__["_f"]["key"] = node.key
                t.__dict__["_f"]["skip"] = ()  # filled after the sweep
            return mirror[id(node)]

        for node in [slist.head, slist.tail] + slist.nodes:
            proxy(node)
        for node in [slist.head, slist.tail] + slist.nodes:
            mirror[id(node)].__dict__["_f"]["skip"] = [proxy(s) for s in node.skip]

        cls = load_unit(emit_dynamic(KERNELS["sli"].build_def()))()
        inst = cls(proxy(slist.nodes[3]), 12)
        with prefetch_hook(lambda a: log.append(("prefetch", id(a)))):
            steps = 0
            while not inst.step():
                steps += 1
                log.append(("boundary", steps))
        announced: set[int] = set()
        pending: set[int] = set()
        seen_reads = 0
        for ev, x in log:
            if ev == "prefetch":
                pending.add(x)
            elif ev == "boundary":
                announced |= pending
                pending.clear()
            else:
                seen_reads += 1
                assert x in announced, "hopped through an unannounced node"
        assert seen_reads > 0


class TestHashtableFind:
    def test_baseline_against_shadow_dict(self, table):
        shadow = {k: value_for_key(k) for k in table.keys}
        for k in mixed_query_keys(table.keys, QCOUNT, QSEED):
            got = baselines.hashtable_find(
                table.keys_col, table.vals_col, table.size_1, k
            )
            assert got == shadow.get(k, 0)

    def test_def_matches_baseline(self, table):
        shared = (table.keys_col, table.vals_col, table.size_1)
        for build in (KERNELS["ht"].build_def, KERNELS["ht"].build_hybrid_def):
            routine = load_unit(emit_routine(build()))
            cls = load_unit(emit_dynamic(build()))(*shared)
            for k in mixed_query_keys(table.keys, QCOUNT, QSEED):
                want = baselines.hashtable_find(*shared, k)
                assert routine(*shared, k) == want
                assert run_unit(cls, k) == want

    def test_exactly_two_suspensions(self, table):
        cls = load_unit(emit_dynamic(KERNELS["ht"].build_def()))(
            table.keys_col, table.vals_col, table.size_1
        )
        for k in mixed_query_keys(table.keys, 60, QSEED):
            assert count_yields(cls, k) == 2

    def test_probe_wraps_past_the_last_slot(self):
        # craft a table whose collision chain crosses the end
        mask = 7
        picks = (k for k in count(1) if fmix64(k) & mask == mask)
        k_home, k_wrapped, k_absent = next(picks), next(picks), next(picks)
        keys_col = array("Q", bytes(64))
        vals_col = array("Q", bytes(64))
        keys_col[7], vals_col[7] = k_home, value_for_key(k_home)
        keys_col[0], vals_col[0] = k_wrapped, value_for_key(k_wrapped)
        crafted = HashTable(keys_col, vals_col, mask, [k_home, k_wrapped])

        shared = (crafted.keys_col, crafted.vals_col, crafted.size_1)
        cls = load_unit(emit_dynamic(KERNELS["ht"].build_def()))(*shared)
        for k, want in (
            (k_home, value_for_key(k_home)),
            (k_wrapped, value_for_key(k_wrapped)),
            (k_absent, 0),
        ):
            assert baselines.hashtable_find(*shared, k) == want
            assert run_unit(cls, k) == want


class TestKernelTable:
    def test_registry_shape(self):
        assert sorted(KERNELS) == ["bs", "bt", "ht", "sl", "sli"]
        for name, k in KERNELS.items():
            assert k.name == name
            assert k.bytes_per_element > 0

    def test_static_capability(self):
        def admits(k):
            try:
                emit_static(k.build_def(), 4)
            except CodegenError:
                return False
            return True

        assert [n for n, k in KERNELS.items() if admits(k)] == ["ht"]
        assert [n for n, k in KERNELS.items() if k.build_hybrid_def] == ["ht"]

    def test_definition_per_policy(self):
        ht, bs = KERNELS["ht"], KERNELS["bs"]
        assert ht.definition("hybrid") == ht.build_hybrid_def()
        assert ht.definition("static") == ht.build_def()
        assert bs.definition("hybrid", "ternary") == bs.build_def("ternary")
        assert bs.definition("simplest") == bs.build_def("arith")
        assert bs.definition("simplest", "ternary") != bs.definition("simplest")

    def test_result_keys_fold_nodes_to_ints(self, tree):
        rk = KERNELS["bt"].result_key
        assert rk(None) == 0
        assert rk(tree.root) == tree.root.key
        assert KERNELS["bs"].result_key(17) == 17

    def test_queries_are_seed_deterministic(self, tree):
        k = KERNELS["bt"]
        a = k.make_queries(tree, 50, 9)
        b = k.make_queries(tree, 50, 9)
        assert [(id(n), q) for n, q in a] == [(id(n), q) for n, q in b]

    def test_sli_queries_accept_limit(self, slist):
        qs = KERNELS["sli"].make_queries(slist, 10, 9, limit=3)
        assert all(q[1] == 3 for q in qs)
        assert all(q[1] == 8 for q in KERNELS["sli"].make_queries(slist, 10, 9))
