"""Block cache with dirty tracking and LRU eviction.

Blocks are keyed by :class:`~repro.common.inode.BlockKey` — (owner inode,
kind, index) — because in LFS a block has no stable disk address to key
by: every write relocates it.  The payload is either raw bytes (data and
directory blocks) or a mutable list of u64 disk addresses (pointer
blocks), so the :class:`~repro.common.inode.BlockMap` can edit pointer
blocks in place.

Eviction only ever removes *clean data* blocks: dirty blocks must first
be written back by the owning file system, and metadata blocks (pointer
blocks, inode-map blocks) stay resident, matching the paper's assumption
that "blocks mapping active files will stay memory resident" (§4.2.1).

Hot-path discipline: the resident metadata and dirty blocks would pile up
at the head of an LRU list, so nothing here walks the cache in LRU order.
Every block carries a ``tick`` from a monotonic counter, set on insert
and bumped on :meth:`BlockCache.get`; ascending tick order *is* LRU
order.  Two derived indexes follow from that:

* a lazy min-heap of ``(tick, key)`` entries over the clean evictable
  blocks, pushed on insert and on ``mark_clean``.  Eviction pops it,
  drops entries whose block is gone or dirty, re-pushes entries whose
  block was touched since (its tick moved on), and evicts otherwise.
  Ticks only grow, so the first such survivor is the true LRU victim;
* a ``key -> block`` dict of the dirty blocks, so ``dirty_blocks()``
  costs the dirty set (sorted by tick), not the cache.

``heap_pushes`` / ``heap_pops`` count heap entries added and removed
(compaction included), so tests can assert the eviction work stays
bounded by the entries pushed rather than by the number of pinned
blocks.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import struct
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.common.inode import BlockKey, BlockKind
from repro.errors import InvalidArgumentError
from repro.obs import NULL_TELEMETRY, Telemetry

Payload = Union[bytearray, List[int]]

# Shared zero source for padding short blocks without allocating a fresh
# bytes object per block; slicing a memoryview is copy-free.
_ZERO_PAD = memoryview(bytes(64 * 1024))

# Rebuild the eviction heap once it holds this many entries per resident
# block; every entry beyond one per block is stale.
_HEAP_SLACK = 4

_EVICTABLE_KINDS = (BlockKind.DATA, BlockKind.INODE)

_by_tick = operator.attrgetter("tick")


@dataclass
class CacheBlock:
    """One cached block."""

    key: BlockKey
    payload: Payload
    dirty: bool = False
    dirty_since: float = 0.0
    tick: int = 0
    """Last touch (insert or ``get``); ascending tick order is LRU order."""

    def as_bytes(self, block_size: int) -> bytes:
        """Serialized block contents, zero-padded to ``block_size``."""
        if isinstance(self.payload, list):
            return struct.pack(f"<{len(self.payload)}Q", *self.payload)
        data = bytes(self.payload)
        if len(data) < block_size:
            data += b"\x00" * (block_size - len(data))
        return data

    def write_into(self, out: memoryview, block_size: int) -> None:
        """Serialize into ``out`` (``block_size`` writable bytes).

        The zero-copy twin of :meth:`as_bytes`: the segment writer hands
        us a slice of its pooled buffer and we fill it in place, so no
        per-block ``bytes`` object is ever materialized on the write
        path.
        """
        payload = self.payload
        if isinstance(payload, list):
            struct.pack_into(f"<{len(payload)}Q", out, 0, *payload)
            used = len(payload) * 8
        else:
            used = len(payload)
            out[:used] = payload
        if used < block_size:
            pad = block_size - used
            if pad <= len(_ZERO_PAD):
                out[used:block_size] = _ZERO_PAD[:pad]
            else:
                out[used:block_size] = bytes(pad)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    writebacks_requested: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class BlockCache:
    """LRU block cache sized in bytes."""

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if capacity_bytes < block_size:
            raise InvalidArgumentError(
                f"cache capacity {capacity_bytes} smaller than one "
                f"{block_size}-byte block"
            )
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self._blocks: Dict[BlockKey, CacheBlock] = {}
        self._by_inum: dict = {}
        self._dirty: Dict[BlockKey, CacheBlock] = {}
        self._ticks = itertools.count(1)
        self._evict_heap: List[Tuple[int, BlockKey]] = []
        self.heap_pushes = 0
        self.heap_pops = 0
        self._dirty_fifo: Deque[Tuple[BlockKey, float]] = deque()
        self.stats = CacheStats()
        obs = telemetry or NULL_TELEMETRY
        self._obs_enabled = obs.enabled
        self._m_hits = obs.counter("cache.hits")
        self._m_misses = obs.counter("cache.misses")
        self._m_insertions = obs.counter("cache.insertions")
        self._m_evictions = obs.counter("cache.evictions")
        self._m_dirty_bytes = obs.gauge("cache.dirty_bytes")

    # ------------------------------------------------------------------
    # Lookup / insertion
    # ------------------------------------------------------------------

    def get(self, key: BlockKey) -> Optional[CacheBlock]:
        block = self._blocks.get(key)
        if block is None:
            self.stats.misses += 1
            if self._obs_enabled:
                self._m_misses.inc()
            return None
        self.stats.hits += 1
        if self._obs_enabled:
            self._m_hits.inc()
        block.tick = next(self._ticks)
        return block

    def peek(self, key: BlockKey) -> Optional[CacheBlock]:
        """Lookup without touching LRU order or hit statistics."""
        return self._blocks.get(key)

    def contains(self, key: BlockKey) -> bool:
        return key in self._blocks

    def insert(
        self, key: BlockKey, payload: Payload, dirty: bool, now: float
    ) -> CacheBlock:
        """Insert (or replace) a block; evicts clean data blocks if full."""
        self._dirty.pop(key, None)
        block = CacheBlock(key=key, payload=payload, tick=next(self._ticks))
        self._blocks[key] = block
        self._by_inum.setdefault(key.inum, set()).add(key)
        self.stats.insertions += 1
        if self._obs_enabled:
            self._m_insertions.inc()
        if dirty:
            self._note_dirty(block, now)
        else:
            if self._obs_enabled:
                self._m_dirty_bytes.set(self.dirty_bytes)
            if key.kind in _EVICTABLE_KINDS:
                self._push_evictable(block)
        self._evict_to_capacity()
        return block

    def mark_dirty(self, key: BlockKey, now: float) -> None:
        block = self._blocks.get(key)
        if block is None:
            raise InvalidArgumentError(f"cannot dirty uncached block {key}")
        if not block.dirty:
            self._note_dirty(block, now)

    def _note_dirty(self, block: CacheBlock, now: float) -> None:
        block.dirty = True
        block.dirty_since = now
        self._dirty[block.key] = block
        self._dirty_fifo.append((block.key, now))
        if self._obs_enabled:
            self._m_dirty_bytes.set(self.dirty_bytes)

    def mark_clean(self, key: BlockKey) -> None:
        block = self._dirty.pop(key, None)
        if block is not None:
            block.dirty = False
            if self._obs_enabled:
                self._m_dirty_bytes.set(self.dirty_bytes)
            if key.kind in _EVICTABLE_KINDS:
                self._push_evictable(block)

    def discard(self, key: BlockKey) -> None:
        """Remove a block outright (e.g. file deleted before write-back)."""
        block = self._blocks.pop(key, None)
        if block is not None:
            self._forget_key(key)
            if block.dirty:
                del self._dirty[key]
                if self._obs_enabled:
                    self._m_dirty_bytes.set(self.dirty_bytes)

    def _forget_key(self, key: BlockKey) -> None:
        keys = self._by_inum.get(key.inum)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_inum[key.inum]

    def discard_file(self, inum: int) -> int:
        """Drop every cached block owned by ``inum``; returns count."""
        victims = list(self._by_inum.get(inum, ()))
        for key in victims:
            self.discard(key)
        return len(victims)

    # ------------------------------------------------------------------
    # Dirty tracking
    # ------------------------------------------------------------------

    @property
    def dirty_bytes(self) -> int:
        return len(self._dirty) * self.block_size

    @property
    def used_bytes(self) -> int:
        return len(self._blocks) * self.block_size

    def dirty_blocks(self) -> List[CacheBlock]:
        """All dirty blocks, in LRU (roughly: modification) order.

        A fresh list, so callers may clean blocks while iterating it.
        """
        return sorted(self._dirty.values(), key=_by_tick)

    def oldest_dirty_time(self) -> Optional[float]:
        """When the longest-dirty block became dirty (None if all clean)."""
        while self._dirty_fifo:
            key, since = self._dirty_fifo[0]
            block = self._dirty.get(key)
            if block is not None and block.dirty_since == since:
                return since
            self._dirty_fifo.popleft()
        return None

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def _evictable(self, block: CacheBlock) -> bool:
        # Pointer, inode-map and usage blocks stay resident (§4.2.1);
        # data and packed-inode blocks are fair game once clean.
        return not block.dirty and block.key.kind in _EVICTABLE_KINDS

    def _push_evictable(self, block: CacheBlock) -> None:
        heap = self._evict_heap
        heapq.heappush(heap, (block.tick, block.key))
        self.heap_pushes += 1
        if len(heap) > _HEAP_SLACK * len(self._blocks):
            # Mostly stale entries: rebuild from the clean evictable
            # blocks.  A rebuild scans fewer blocks than the entries it
            # discards, each pushed once, so it stays amortized O(1).
            self.heap_pops += len(heap)
            heap[:] = [
                (b.tick, k) for k, b in self._blocks.items() if self._evictable(b)
            ]
            heapq.heapify(heap)
            self.heap_pushes += len(heap)

    def _evict_to_capacity(self) -> None:
        # A full cache exceeds capacity by one block per insert, so this
        # runs on nearly every insert of a streaming read.  Every clean
        # evictable block has a heap entry no newer than its tick, so
        # the first popped entry whose tick still matches its block is
        # the least recently used victim; stale entries are dropped or
        # re-pushed at their block's current tick on the way.
        over = self.used_bytes - self.capacity_bytes
        if over <= 0:
            return
        heap = self._evict_heap
        blocks = self._blocks
        while over > 0 and heap:
            tick, key = heapq.heappop(heap)
            self.heap_pops += 1
            block = blocks.get(key)
            if block is None or block.dirty:
                continue
            if block.tick != tick:
                heapq.heappush(heap, (block.tick, key))
                self.heap_pushes += 1
                continue
            del blocks[key]
            self._forget_key(key)
            over -= self.block_size
            self.stats.evictions += 1
            if self._obs_enabled:
                self._m_evictions.inc()

    def over_capacity(self) -> bool:
        """True when even after eviction the cache exceeds capacity.

        This is the "cache full" write-back trigger from §4.3.5: the
        remaining blocks are dirty and the file system must start a
        segment write to make them clean (and thus evictable).
        """
        return self.used_bytes > self.capacity_bytes

    def drop_clean(self, metadata_too: bool = True) -> int:
        """Drop every clean block (benchmarks' "flush the file cache").

        Dirty blocks always survive — dropping them would lose data.
        """
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

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:
        return (
            f"BlockCache({len(self._blocks)} blocks, "
            f"dirty={self.dirty_bytes}B/{self.capacity_bytes}B)"
        )
