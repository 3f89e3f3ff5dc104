"""Unit tests for the block cache."""

import pytest

from repro.cache.block_cache import BlockCache
from repro.common.inode import BlockKey, BlockKind
from repro.errors import InvalidArgumentError

BS = 4096


def key(inum=1, kind=BlockKind.DATA, index=0) -> BlockKey:
    return BlockKey(inum, kind, index)


@pytest.fixture
def cache() -> BlockCache:
    return BlockCache(capacity_bytes=8 * BS, block_size=BS)


class TestLookup:
    def test_miss_returns_none(self, cache):
        assert cache.get(key()) is None
        assert cache.stats.misses == 1

    def test_insert_then_hit(self, cache):
        cache.insert(key(), bytearray(BS), dirty=False, now=0.0)
        assert cache.get(key()) is not None
        assert cache.stats.hits == 1

    def test_peek_does_not_count(self, cache):
        cache.insert(key(), bytearray(BS), dirty=False, now=0.0)
        cache.peek(key())
        assert cache.stats.hits == 0

    def test_contains(self, cache):
        assert not cache.contains(key())
        cache.insert(key(), bytearray(BS), dirty=False, now=0.0)
        assert cache.contains(key())

    def test_hit_rate(self, cache):
        cache.insert(key(), bytearray(BS), dirty=False, now=0.0)
        cache.get(key())
        cache.get(key(index=5))
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestDirtyTracking:
    def test_insert_dirty_counts(self, cache):
        cache.insert(key(), bytearray(BS), dirty=True, now=1.0)
        assert cache.dirty_bytes == BS

    def test_mark_dirty_and_clean(self, cache):
        cache.insert(key(), bytearray(BS), dirty=False, now=0.0)
        cache.mark_dirty(key(), now=2.0)
        assert cache.dirty_bytes == BS
        cache.mark_clean(key())
        assert cache.dirty_bytes == 0

    def test_mark_dirty_uncached_raises(self, cache):
        with pytest.raises(InvalidArgumentError):
            cache.mark_dirty(key(), now=0.0)

    def test_double_dirty_counts_once(self, cache):
        cache.insert(key(), bytearray(BS), dirty=True, now=0.0)
        cache.mark_dirty(key(), now=1.0)
        assert cache.dirty_bytes == BS

    def test_oldest_dirty_time(self, cache):
        assert cache.oldest_dirty_time() is None
        cache.insert(key(index=0), bytearray(BS), dirty=True, now=5.0)
        cache.insert(key(index=1), bytearray(BS), dirty=True, now=3.0)
        assert cache.oldest_dirty_time() == 5.0  # FIFO by dirty event

    def test_oldest_dirty_skips_cleaned(self, cache):
        cache.insert(key(index=0), bytearray(BS), dirty=True, now=1.0)
        cache.insert(key(index=1), bytearray(BS), dirty=True, now=2.0)
        cache.mark_clean(key(index=0))
        assert cache.oldest_dirty_time() == 2.0

    def test_dirty_blocks_iterates_only_dirty(self, cache):
        cache.insert(key(index=0), bytearray(BS), dirty=True, now=0.0)
        cache.insert(key(index=1), bytearray(BS), dirty=False, now=0.0)
        assert [b.key.index for b in cache.dirty_blocks()] == [0]

    def test_replacing_dirty_block_keeps_accounting(self, cache):
        cache.insert(key(), bytearray(BS), dirty=True, now=0.0)
        cache.insert(key(), bytearray(BS), dirty=True, now=1.0)
        assert cache.dirty_bytes == BS


class TestEviction:
    def test_clean_data_evicted_lru(self, cache):
        for i in range(10):  # capacity is 8 blocks
            cache.insert(key(index=i), bytearray(BS), dirty=False, now=0.0)
        assert len(cache) == 8
        assert not cache.contains(key(index=0))
        assert cache.contains(key(index=9))

    def test_dirty_blocks_never_evicted(self, cache):
        for i in range(10):
            cache.insert(key(index=i), bytearray(BS), dirty=True, now=0.0)
        assert len(cache) == 10
        assert cache.over_capacity()

    def test_pointer_blocks_not_evicted(self, cache):
        for i in range(10):
            cache.insert(
                key(kind=BlockKind.INDIRECT, index=i),
                [0] * (BS // 8),
                dirty=False,
                now=0.0,
            )
        assert len(cache) == 10

    def test_clean_inode_blocks_evictable(self, cache):
        for i in range(10):
            cache.insert(
                key(kind=BlockKind.INODE, index=i),
                bytearray(BS),
                dirty=False,
                now=0.0,
            )
        assert len(cache) == 8

    def test_lru_order_respects_access(self, cache):
        for i in range(8):
            cache.insert(key(index=i), bytearray(BS), dirty=False, now=0.0)
        cache.get(key(index=0))  # make block 0 most recent
        cache.insert(key(index=8), bytearray(BS), dirty=False, now=0.0)
        assert cache.contains(key(index=0))
        assert not cache.contains(key(index=1))


class TestDiscard:
    def test_discard(self, cache):
        cache.insert(key(), bytearray(BS), dirty=True, now=0.0)
        cache.discard(key())
        assert not cache.contains(key())
        assert cache.dirty_bytes == 0

    def test_discard_missing_is_noop(self, cache):
        cache.discard(key())

    def test_discard_file(self, cache):
        cache.insert(key(inum=1, index=0), bytearray(BS), dirty=True, now=0.0)
        cache.insert(key(inum=1, index=1), bytearray(BS), dirty=False, now=0.0)
        cache.insert(key(inum=2, index=0), bytearray(BS), dirty=False, now=0.0)
        assert cache.discard_file(1) == 2
        assert cache.contains(key(inum=2, index=0))
        assert len(cache) == 1


class TestDropClean:
    def test_drop_clean_keeps_dirty(self, cache):
        cache.insert(key(index=0), bytearray(BS), dirty=True, now=0.0)
        cache.insert(key(index=1), bytearray(BS), dirty=False, now=0.0)
        dropped = cache.drop_clean()
        assert dropped == 1
        assert cache.contains(key(index=0))

    def test_drop_clean_data_only(self, cache):
        cache.insert(
            key(kind=BlockKind.INDIRECT), [0] * (BS // 8), dirty=False, now=0.0
        )
        cache.insert(key(index=1), bytearray(BS), dirty=False, now=0.0)
        dropped = cache.drop_clean(metadata_too=False)
        assert dropped == 1
        assert cache.contains(key(kind=BlockKind.INDIRECT))


class TestPayloads:
    def test_as_bytes_pads_short_data(self, cache):
        block = cache.insert(key(), bytearray(b"abc"), dirty=False, now=0.0)
        data = block.as_bytes(BS)
        assert len(data) == BS
        assert data.startswith(b"abc")

    def test_as_bytes_serializes_pointers(self, cache):
        pointers = [7] * (BS // 8)
        block = cache.insert(
            key(kind=BlockKind.INDIRECT), pointers, dirty=False, now=0.0
        )
        data = block.as_bytes(BS)
        assert len(data) == BS
        assert data[:8] == (7).to_bytes(8, "little")

    def test_capacity_validation(self):
        with pytest.raises(InvalidArgumentError):
            BlockCache(capacity_bytes=100, block_size=BS)


class TestPerInodeIndex:
    """Pin the O(per-inode) discard_file index: dropping one file's
    blocks must not scan the whole cache, and the index must stay exact
    through insert/discard/eviction churn."""

    def test_index_tracks_inserts_and_discards(self, cache):
        for index in range(4):
            cache.insert(key(inum=1, index=index), bytearray(BS), dirty=False, now=0.0)
        cache.insert(key(inum=2, index=0), bytearray(BS), dirty=False, now=0.0)
        assert cache._by_inum[1] == {key(inum=1, index=i) for i in range(4)}
        cache.discard(key(inum=1, index=0))
        assert key(inum=1, index=0) not in cache._by_inum[1]
        assert cache.discard_file(1) == 3
        assert 1 not in cache._by_inum
        assert cache._by_inum[2] == {key(inum=2, index=0)}

    def test_discard_file_does_not_touch_other_inodes(self, cache):
        cache.insert(key(inum=1), bytearray(BS), dirty=False, now=0.0)
        cache.insert(key(inum=2), bytearray(BS), dirty=False, now=0.0)
        assert cache.discard_file(1) == 1
        assert cache.contains(key(inum=2))

    def test_eviction_maintains_index(self, cache):
        # Capacity is 8 blocks: inserting 10 clean data blocks evicts
        # the two oldest, which must also vanish from the inode index.
        for index in range(10):
            cache.insert(key(inum=7, index=index), bytearray(BS), dirty=False, now=0.0)
        assert len(cache) == 8
        assert cache._by_inum[7] == {
            key(inum=7, index=i) for i in range(2, 10)
        }


class TestLazyEviction:
    def test_evicts_oldest_clean_blocks_first(self, cache):
        for index in range(8):
            cache.insert(key(index=index), bytearray(BS), dirty=False, now=0.0)
        cache.get(key(index=0))  # refresh block 0
        cache.insert(key(index=8), bytearray(BS), dirty=False, now=0.0)
        assert cache.contains(key(index=0))
        assert not cache.contains(key(index=1))
        assert cache.stats.evictions == 1

    def test_skips_leading_dirty_blocks(self, cache):
        for index in range(4):
            cache.insert(key(index=index), bytearray(BS), dirty=True, now=0.0)
        for index in range(4, 9):
            cache.insert(key(index=index), bytearray(BS), dirty=False, now=0.0)
        # The dirty LRU prefix is not evictable; the first clean block is.
        assert all(cache.contains(key(index=i)) for i in range(4))
        assert not cache.contains(key(index=4))

    def test_all_dirty_cache_goes_over_capacity(self, cache):
        for index in range(9):
            cache.insert(key(index=index), bytearray(BS), dirty=True, now=0.0)
        assert len(cache) == 9
        assert cache.over_capacity()


class TestEvictionWork:
    """Pin the lazy eviction heap: an insert's eviction work follows the
    blocks it evicts, not the resident pointer and dirty blocks that sit
    at the head of the LRU order."""

    STREAM = 500

    def _stream(self, pinned: int) -> BlockCache:
        dirty = 16
        cache = BlockCache((pinned + dirty + 32) * BS, BS)
        for index in range(pinned):
            cache.insert(
                key(inum=1, kind=BlockKind.INDIRECT, index=index),
                [0] * (BS // 8),
                dirty=False,
                now=0.0,
            )
        for index in range(dirty):
            cache.insert(key(inum=2, index=index), bytearray(BS), dirty=True, now=0.0)
        for index in range(64):  # fill to capacity
            cache.insert(key(inum=3, index=index), bytearray(BS), dirty=False, now=0.0)
        cache.heap_pushes = cache.heap_pops = 0
        evictions = cache.stats.evictions
        for index in range(64, 64 + self.STREAM):
            cache.insert(key(inum=3, index=index), bytearray(BS), dirty=False, now=0.0)
        assert cache.stats.evictions - evictions == self.STREAM
        return cache

    def test_heap_work_per_insert_is_bounded(self):
        cache = self._stream(pinned=300)
        assert cache.heap_pops <= cache.heap_pushes
        assert cache.heap_pushes + cache.heap_pops <= 2 * self.STREAM

    def test_heap_work_independent_of_pinned_blocks(self):
        few, many = self._stream(pinned=10), self._stream(pinned=600)
        assert (few.heap_pushes, few.heap_pops) == (
            many.heap_pushes,
            many.heap_pops,
        )

    def test_touched_blocks_cost_one_repush(self):
        cache = BlockCache(8 * BS, BS)
        for index in range(8):
            cache.insert(key(index=index), bytearray(BS), dirty=False, now=0.0)
        for index in range(4):
            cache.get(key(index=index))
        pushes, pops = cache.heap_pushes, cache.heap_pops
        cache.insert(key(index=8), bytearray(BS), dirty=False, now=0.0)
        # Four stale entries re-pushed at their new ticks, then block 4
        # evicted: one push for the insert plus four re-pushes, five pops.
        assert not cache.contains(key(index=4))
        assert cache.heap_pushes - pushes == 5
        assert cache.heap_pops - pops == 5


class TestWriteInto:
    def test_matches_as_bytes_for_data(self, cache):
        block = cache.insert(
            key(), bytearray(b"\xabcd" * 64), dirty=False, now=0.0
        )
        out = bytearray(BS)
        block.write_into(memoryview(out), BS)
        assert bytes(out) == block.as_bytes(BS)

    def test_matches_as_bytes_for_pointers(self, cache):
        block = cache.insert(
            key(kind=BlockKind.INDIRECT), list(range(BS // 8)), dirty=False, now=0.0
        )
        out = bytearray(BS)
        block.write_into(memoryview(out), BS)
        assert bytes(out) == block.as_bytes(BS)

    def test_pads_stale_buffer_with_zeros(self, cache):
        block = cache.insert(key(), bytearray(b"xy"), dirty=False, now=0.0)
        out = bytearray(b"\xff" * BS)  # stale pooled buffer contents
        block.write_into(memoryview(out), BS)
        assert bytes(out[:2]) == b"xy"
        assert not any(out[2:])
