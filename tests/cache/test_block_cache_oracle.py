"""Stateful oracle test: the indexed BlockCache vs the full-walk LRU cache.

``BlockCache`` finds eviction victims through a lazy min-heap of touch
ticks and answers ``dirty_blocks()`` from a dirty-block index.  The
oracle below is the implementation those indexes replaced: an
``OrderedDict`` in LRU order, walked from the head on every over-capacity
insert and filtered on every ``dirty_blocks()`` call.  A hypothesis state
machine drives both side by side through random operation sequences and
asserts, after every step, that they hold the same blocks, report the
same dirty order and byte count, and keep identical statistics.
"""

from collections import OrderedDict, deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cache.block_cache import BlockCache, CacheBlock, CacheStats
from repro.common.inode import BlockKey, BlockKind
from repro.errors import InvalidArgumentError

BS = 512
_EVICTABLE = (BlockKind.DATA, BlockKind.INODE)


class _OracleCache:
    """The OrderedDict + full-walk block cache, kept as a reference."""

    def __init__(self, capacity_bytes: int, block_size: int) -> None:
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self._blocks = OrderedDict()
        self._by_inum = {}
        self._dirty_bytes = 0
        self._dirty_fifo = deque()
        self.stats = CacheStats()

    def get(self, key):
        block = self._blocks.get(key)
        if block is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._blocks.move_to_end(key)
        return block

    def peek(self, key):
        return self._blocks.get(key)

    def insert(self, key, payload, dirty, now):
        old = self._blocks.pop(key, None)
        if old is not None and old.dirty:
            self._dirty_bytes -= self.block_size
        block = CacheBlock(key=key, payload=payload, dirty=dirty)
        self._blocks[key] = block
        self._by_inum.setdefault(key.inum, set()).add(key)
        self.stats.insertions += 1
        if dirty:
            self._note_dirty(block, now)
        self._evict_to_capacity()
        return block

    def mark_dirty(self, key, now):
        block = self._blocks.get(key)
        if block is None:
            raise InvalidArgumentError(f"cannot dirty uncached block {key}")
        if not block.dirty:
            self._note_dirty(block, now)

    def _note_dirty(self, block, now):
        block.dirty = True
        block.dirty_since = now
        self._dirty_bytes += self.block_size
        self._dirty_fifo.append((block.key, now))

    def mark_clean(self, key):
        block = self._blocks.get(key)
        if block is not None and block.dirty:
            block.dirty = False
            self._dirty_bytes -= self.block_size

    def discard(self, key):
        block = self._blocks.pop(key, None)
        if block is not None:
            self._forget_key(key)
            if block.dirty:
                self._dirty_bytes -= self.block_size

    def _forget_key(self, key):
        keys = self._by_inum.get(key.inum)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_inum[key.inum]

    def discard_file(self, inum):
        victims = list(self._by_inum.get(inum, ()))
        for key in victims:
            self.discard(key)
        return len(victims)

    @property
    def dirty_bytes(self):
        return self._dirty_bytes

    def dirty_blocks(self):
        return [block for block in self._blocks.values() if block.dirty]

    def oldest_dirty_time(self):
        while self._dirty_fifo:
            key, since = self._dirty_fifo[0]
            block = self._blocks.get(key)
            if block is not None and block.dirty and block.dirty_since == since:
                return since
            self._dirty_fifo.popleft()
        return None

    def _evict_to_capacity(self):
        over = len(self._blocks) * self.block_size - self.capacity_bytes
        if over <= 0:
            return
        victims = []
        for key, block in self._blocks.items():
            if not block.dirty and key.kind in _EVICTABLE:
                victims.append(key)
                over -= self.block_size
                if over <= 0:
                    break
        for key in victims:
            del self._blocks[key]
            self._forget_key(key)
            self.stats.evictions += 1

    def drop_clean(self, metadata_too=True):
        victims = [
            key
            for key, block in self._blocks.items()
            if not block.dirty
            and (metadata_too or block.key.kind is BlockKind.DATA)
        ]
        for key in victims:
            del self._blocks[key]
            self._forget_key(key)
        return len(victims)


# A small key space, so random operations keep hitting resident blocks:
# every kind for two files, plus extra evictable (data/inode) blocks.
_KEYS = [BlockKey(inum, kind, 0) for inum in (1, 2) for kind in BlockKind] + [
    BlockKey(inum, kind, index)
    for inum in (1, 2)
    for kind in (BlockKind.DATA, BlockKind.INODE)
    for index in (1, 2)
]
_keys = st.sampled_from(_KEYS)
_now = st.integers(0, 50).map(float)


class CacheOracleMachine(RuleBasedStateMachine):
    @initialize(capacity_blocks=st.integers(1, 4))
    def setup(self, capacity_blocks):
        self.cache = BlockCache(capacity_blocks * BS, BS)
        self.oracle = _OracleCache(capacity_blocks * BS, BS)

    @rule(key=_keys, dirty=st.booleans(), now=_now)
    def insert(self, key, dirty, now):
        got = self.cache.insert(key, bytearray(8), dirty, now)
        want = self.oracle.insert(key, bytearray(8), dirty, now)
        assert got.key == want.key and got.dirty == want.dirty

    # Clean evictable inserts get a rule of their own so that random
    # sequences keep the cache at capacity and eviction runs often.
    @rule(key=st.sampled_from([k for k in _KEYS if k.kind in _EVICTABLE]))
    def insert_clean_evictable(self, key):
        self.cache.insert(key, bytearray(8), False, 0.0)
        self.oracle.insert(key, bytearray(8), False, 0.0)

    @rule(key=_keys)
    def get(self, key):
        got = self.cache.get(key)
        want = self.oracle.get(key)
        assert (got is None) == (want is None)

    @precondition(lambda self: self.oracle._blocks)
    @rule(data=st.data())
    def get_resident(self, data):
        key = data.draw(st.sampled_from(list(self.oracle._blocks)))
        assert self.cache.get(key).key == self.oracle.get(key).key

    @rule(key=_keys)
    def peek(self, key):
        assert (self.cache.peek(key) is None) == (self.oracle.peek(key) is None)

    @rule(key=_keys, now=_now)
    def mark_dirty(self, key, now):
        raised = []
        for side in (self.cache, self.oracle):
            try:
                side.mark_dirty(key, now)
                raised.append(False)
            except InvalidArgumentError:
                raised.append(True)
        assert raised[0] == raised[1]

    @rule(key=_keys)
    def mark_clean(self, key):
        self.cache.mark_clean(key)
        self.oracle.mark_clean(key)

    @rule(key=_keys)
    def discard(self, key):
        self.cache.discard(key)
        self.oracle.discard(key)

    @rule(inum=st.integers(1, 2))
    def discard_file(self, inum):
        assert self.cache.discard_file(inum) == self.oracle.discard_file(inum)

    @rule(metadata_too=st.booleans())
    def drop_clean(self, metadata_too):
        assert self.cache.drop_clean(metadata_too) == self.oracle.drop_clean(
            metadata_too
        )

    @invariant()
    def same_observable_state(self):
        cache, oracle = self.cache, self.oracle
        assert set(cache._blocks) == set(oracle._blocks)
        assert [b.key for b in cache.dirty_blocks()] == [
            b.key for b in oracle.dirty_blocks()
        ]
        assert cache.oldest_dirty_time() == oracle.oldest_dirty_time()
        assert cache.dirty_bytes == oracle.dirty_bytes
        assert cache.stats == oracle.stats
        assert cache._by_inum == oracle._by_inum
        assert len(cache._evict_heap) == cache.heap_pushes - cache.heap_pops


CacheOracleMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=60, deadline=None
)
TestCacheOracle = CacheOracleMachine.TestCase
