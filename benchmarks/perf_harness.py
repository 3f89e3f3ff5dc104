#!/usr/bin/env python
"""Wall-clock perf harness for the simulator's hot paths.

Every other benchmark in this directory reports *simulated* seconds —
the paper's metrics.  This harness times the **simulator itself**
(Python wall-clock) on three workloads:

* ``small_file`` — the Figure 3 create/read/delete cycle;
* ``large_file_random_write`` — the Figure 4 random-write phase;
* ``seq_read`` — sequential reread of a large file through a cache
  smaller than the file, with readahead enabled (the zero-copy read
  path plus the sequential-prefetch pipeline);
* ``seq_reread_random_write`` — random overwrites followed by a
  sequential reread (write path and read path in one workload);
* ``cleaning`` — a cleaning-heavy pass over a fragmented log (the
  workload that hammers ``_pop_clean``, ``clean_count`` and the
  checkpoint serialization paths);
* ``batch_checksum`` — whole-segment CRC scans plus
  summary/checkpoint/inode codec round-trips (the batch-serialization
  engine vs the per-block CRC and Packer-per-field codecs);
* ``scheduler_dispatch`` — timer dispatch under heavy same-timestamp
  load plus a small multi-client service run (the bucketed clock vs the
  per-timer ``(expiry, seq)`` heap).

For each workload it can also re-run the *legacy* hot paths — the
pre-optimization implementations (O(num_segments) usage-array scans,
O(pending) durability-list rebuilds, Packer-per-field serialization,
copy-semantics device reads, ``b"".join`` partial-segment assembly,
O(cache) eviction scans, no readahead) patched back over the optimized
classes — giving an honest
before/after comparison on the same machine, and it asserts the two
modes produce bit-identical simulated results.  The read workloads'
fingerprints cover the data actually read (a running CRC) and the log
bytes written, not simulated seconds: readahead legitimately reschedules
read I/O, so the before/after invariant there is "same bytes, same
on-disk log", not "same clock".

Operation-count probes assert the O(1) invariants directly:

* every clean-heap entry is pushed once and popped at most once, so the
  total heap work is bounded by segment state transitions — not by
  ``min_clean_calls * num_segments`` as the old scan was;
* every durability undo record pays exactly one drain step, so
  ``mark_durable`` work is bounded by the number of undo records — not
  by ``mark_durable_calls * pending`` as the old rebuild was.

A third leg per workload runs with telemetry **enabled** (a live
:class:`repro.obs.Telemetry`) and a fourth with full tracing on
(``Telemetry(trace_io=True)`` — request spans plus per-I/O disk
spans), recording the observability layer's wall-clock overhead next
to the default telemetry-disabled numbers and asserting all modes
produce identical simulated results.  The telemetry-disabled leg is
additionally compared against the committed ``BENCH_hotpaths.json``
baseline (3% tolerance) when the scales match — the guard that the
disabled-mode instrumentation hooks stay free even as tracing grows.

Results are written to ``BENCH_hotpaths.json`` at the repository root
(schema in :mod:`repro.tools.bench_report`).

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py             # full run
    PYTHONPATH=src python benchmarks/perf_harness.py --smoke     # CI smoke
    PYTHONPATH=src python benchmarks/perf_harness.py --no-legacy # after only
"""

from __future__ import annotations

import argparse
import heapq
import os
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not any(
    os.path.isdir(os.path.join(path, "repro")) for path in sys.path if path
):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.cache.block_cache import BlockCache
from repro.cache.readahead import ReadaheadPolicy
from repro.cache.writeback import WritebackConfig
from repro.common import serialization
from repro.common.serialization import Packer, Unpacker, checksum
from repro.disk.device import SectorDevice, _PendingWrite
from repro.errors import CleanerError, CorruptionError
from repro.lfs.checkpoint import CheckpointData
from repro.lfs.cleaner import SegmentCleaner
from repro.lfs.config import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_REGION_BLOCKS,
    SUMMARY_MAGIC,
    LfsConfig,
)
from repro.lfs.filesystem import LogStructuredFS, make_lfs
from repro.lfs.segments import LogPosition, SegmentManager
from repro.lfs.inode_map import IMAP_ENTRY_SIZE, ImapEntry, InodeMap
from repro.lfs.segment_usage import (
    USAGE_ENTRY_SIZE,
    SegmentInfo,
    SegmentState,
    SegmentUsage,
)
from repro.lfs.summary import SegmentSummary, SummaryEntry
from repro.common.inode import NIL, BlockKind, FileType, Inode, N_DIRECT
from repro.obs import Telemetry
from repro.sim.clock import SimClock
from repro.tools import bench_report
from repro.units import KIB, MIB

# ----------------------------------------------------------------------
# Scales
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scale:
    name: str
    disk_bytes: int
    segment_bytes: int
    small_files: int
    small_file_size: int
    large_file_bytes: int
    large_request_bytes: int
    clean_fill_segments: int
    clean_keeper_blocks: int
    repeats: int

    def lfs_config(self) -> LfsConfig:
        return LfsConfig(
            segment_size=self.segment_bytes,
            cache_bytes=2 * MIB,
            max_inodes=16384,
            writeback=WritebackConfig(),
        )


SCALES = {
    # CI smoke: a few seconds total.
    "smoke": Scale(
        name="smoke",
        disk_bytes=16 * MIB,
        segment_bytes=64 * KIB,
        small_files=80,
        small_file_size=1024,
        large_file_bytes=1 * MIB,
        large_request_bytes=8 * KIB,
        clean_fill_segments=24,
        clean_keeper_blocks=1,
        repeats=1,
    ),
    # Default: REPRO_PAPER_SCALE=0 sizing.  Many small segments so the
    # cleaning pass exercises the per-checkpoint segment-usage
    # serialization and the cleaner's usage-array queries — the paths
    # this PR moved off O(num_segments) scans.
    "small": Scale(
        name="small",
        disk_bytes=256 * MIB,
        segment_bytes=64 * KIB,
        small_files=600,
        small_file_size=1024,
        large_file_bytes=8 * MIB,
        large_request_bytes=8 * KIB,
        clean_fill_segments=512,
        clean_keeper_blocks=1,
        # Best-of-3: wall-clock minima are far more stable than means on
        # a shared machine, and the 3% baseline gate compares minima.
        repeats=3,
    ),
}


# ----------------------------------------------------------------------
# Legacy hot paths (the pre-optimization implementations, verbatim
# semantics) — patched over the optimized classes for the "before" leg.
# ----------------------------------------------------------------------


def _legacy_usage_clean_segments(self):
    return [
        seg
        for seg, info in enumerate(self._info)
        if info.state is SegmentState.CLEAN
    ]


def _legacy_usage_clean_count(self):
    return sum(1 for info in self._info if info.state is SegmentState.CLEAN)


def _legacy_usage_dirty_segments(self):
    return [
        seg
        for seg, info in enumerate(self._info)
        if info.state is SegmentState.DIRTY
    ]


def _legacy_usage_total_live_bytes(self):
    return sum(info.live_bytes for info in self._info)


def _legacy_usage_min_clean(self):
    self.min_clean_calls += 1
    clean = _legacy_usage_clean_segments(self)
    return clean[0] if clean else None


def _legacy_info_pack(self):
    return (
        Packer()
        .u64(self.live_bytes)
        .f64(self.last_write)
        .u8(int(self.state))
        .raw(b"\x00" * 7)
        .bytes()
    )


def _legacy_info_unpack(cls, data):
    unpacker = Unpacker(data)
    live = unpacker.u64()
    last_write = unpacker.f64()
    raw_state = unpacker.u8()
    try:
        state = SegmentState(raw_state)
    except ValueError as exc:
        raise CorruptionError(f"bad segment state {raw_state}") from exc
    return cls(live_bytes=live, last_write=last_write, state=state)


def _legacy_usage_pack_block(self, index):
    if not 0 <= index < self.num_blocks:
        raise CorruptionError(f"usage block index {index} out of range")
    first = index * self.entries_per_block
    last = min(first + self.entries_per_block, self.num_segments)
    data = b"".join(self._info[seg].pack() for seg in range(first, last))
    return data + b"\x00" * (self.block_size - len(data))


def _legacy_usage_load_block(self, index, data):
    if not 0 <= index < self.num_blocks:
        raise CorruptionError(f"usage block index {index} out of range")
    first = index * self.entries_per_block
    last = min(first + self.entries_per_block, self.num_segments)
    for position, seg in enumerate(range(first, last)):
        offset = position * USAGE_ENTRY_SIZE
        entry = SegmentInfo.unpack(data[offset : offset + USAGE_ENTRY_SIZE])
        info = self._info[seg]
        self._set_live(info, entry.live_bytes)
        self._set_state(seg, info, entry.state)
        info.last_write = entry.last_write
    self._dirty_blocks.discard(index)


def _legacy_imap_pack(self):
    return (
        Packer()
        .u64(self.inode_addr)
        .u8(self.slot)
        .u8(1 if self.allocated else 0)
        .u32(self.version)
        .f64(self.atime)
        .raw(b"\x00\x00")
        .bytes()
    )


def _legacy_imap_unpack(cls, data):
    unpacker = Unpacker(data)
    inode_addr = unpacker.u64()
    slot = unpacker.u8()
    allocated = unpacker.u8() != 0
    version = unpacker.u32()
    atime = unpacker.f64()
    return cls(
        inode_addr=inode_addr,
        slot=slot,
        version=version,
        atime=atime,
        allocated=allocated,
    )


def _legacy_inode_map_load_entries(self, index, data):
    first = index * self.entries_per_block
    last = min(first + self.entries_per_block, self.max_inodes)
    for position, inum in enumerate(range(first, last)):
        offset = position * IMAP_ENTRY_SIZE
        self._entries[inum] = ImapEntry.unpack(
            data[offset : offset + IMAP_ENTRY_SIZE]
        )


def _legacy_inode_map_pack_block(self, index):
    if not 0 <= index < self.num_blocks:
        raise CorruptionError(f"imap block index {index} out of range")
    self._ensure_loaded(index)
    first = index * self.entries_per_block
    last = min(first + self.entries_per_block, self.max_inodes)
    data = b"".join(self._entries[inum].pack() for inum in range(first, last))
    return data + b"\x00" * (self.block_size - len(data))


def _legacy_entry_pack_into(packer, entry):
    packer.u8(int(entry.kind))
    packer.u32(entry.inum)
    packer.u64(entry.index)
    packer.u32(entry.version)
    packer.u16(len(entry.inums))
    for inum in entry.inums:
        packer.u32(inum)


def _legacy_entry_unpack(unpacker):
    raw_kind = unpacker.u8()
    try:
        kind = BlockKind(raw_kind)
    except ValueError as exc:
        raise CorruptionError(f"bad summary block kind {raw_kind}") from exc
    inum = unpacker.u32()
    index = unpacker.u64()
    version = unpacker.u32()
    count = unpacker.u16()
    inums = tuple(unpacker.u32() for _ in range(count))
    return SummaryEntry(
        kind=kind, inum=inum, index=index, version=version, inums=inums
    )


def _legacy_summary_pack(self, block_size):
    nsummary = self.summary_blocks(block_size)
    body = Packer()
    for entry in self.entries:
        _legacy_entry_pack_into(body, entry)
    body_bytes = body.bytes()
    header = (
        Packer()
        .u32(SUMMARY_MAGIC)
        .u64(self.seq)
        .f64(self.timestamp)
        .u64(self.next_segment_block)
        .u32(len(self.entries))
        .u16(nsummary)
    )
    crc = checksum(header.bytes() + body_bytes)
    header.u32(crc)
    data = header.bytes() + body_bytes
    padded_size = nsummary * block_size
    if len(data) > padded_size:
        raise AssertionError(f"summary packs to {len(data)} bytes > {padded_size}")
    return data + b"\x00" * (padded_size - len(data))


def _legacy_summary_unpack(cls, data, block_size):
    unpacker = Unpacker(data)
    magic = unpacker.u32()
    if magic != SUMMARY_MAGIC:
        raise CorruptionError(f"bad summary magic 0x{magic:08x}")
    seq = unpacker.u64()
    timestamp = unpacker.f64()
    next_segment_block = unpacker.u64()
    nentries = unpacker.u32()
    nsummary = unpacker.u16()
    crc = unpacker.u32()
    if nsummary * block_size > len(data):
        raise CorruptionError(
            f"summary claims {nsummary} blocks, only "
            f"{len(data) // block_size} supplied"
        )
    entries = [_legacy_entry_unpack(unpacker) for _ in range(nentries)]
    verify = (
        Packer()
        .u32(magic)
        .u64(seq)
        .f64(timestamp)
        .u64(next_segment_block)
        .u32(nentries)
        .u16(nsummary)
    )
    body = Packer()
    for entry in entries:
        _legacy_entry_pack_into(body, entry)
    if checksum(verify.bytes() + body.bytes()) != crc:
        raise CorruptionError(f"summary checksum mismatch at seq {seq}")
    return cls(
        seq=seq,
        timestamp=timestamp,
        next_segment_block=next_segment_block,
        entries=entries,
    )


def _legacy_peek_summary_blocks(first_block, block_size):
    unpacker = Unpacker(first_block)
    magic = unpacker.u32()
    if magic != SUMMARY_MAGIC:
        raise CorruptionError(f"bad summary magic 0x{magic:08x}")
    unpacker.u64()  # seq
    unpacker.f64()  # timestamp
    unpacker.u64()  # next segment
    unpacker.u32()  # entry count
    nsummary = unpacker.u16()
    if nsummary == 0:
        raise CorruptionError("summary claims zero blocks")
    return nsummary


def _legacy_device_read(self, sector, count, *, copy=False):
    # Copy semantics: every read materializes a fresh bytes object, the
    # pre-zero-copy behaviour.  ``copy`` is accepted (callers pass it)
    # but irrelevant — everything is a copy here.
    self._check_range(sector, count)
    self.total_sectors_read += count
    start = sector * self.sector_size
    return bytes(self._data[start : start + count * self.sector_size])


def _legacy_write_partial(self, chunk, nsummary):
    # The pre-pool segment writer: serialize every block to its own
    # bytes object and b"".join the partial segment together.
    bs = self.layout.config.block_size
    pos = self.position
    now = self.clock.now()
    first_block = (
        self.layout.segment_first_block(pos.active_segment)
        + pos.active_offset
    )
    content_start = first_block + nsummary
    for offset, planned in enumerate(chunk):
        planned.finalize(content_start + offset)
    summary = SegmentSummary(
        seq=pos.sequence,
        timestamp=now,
        next_segment_block=self.layout.segment_first_block(pos.next_segment),
        entries=[planned.entry for planned in chunk],
    )
    parts = [summary.pack(bs)]
    for planned in chunk:
        payload = planned.payload()
        if len(payload) != bs:
            raise CleanerError(
                f"planned block serialized to {len(payload)} "
                f"bytes, expected {bs}"
            )
        parts.append(payload)
    data = b"".join(parts)
    if len(data) != (nsummary + len(chunk)) * bs:
        raise AssertionError("partial segment size mismatch")
    label = (
        f"segment:{pos.active_segment}"
        f"+{pos.active_offset} seq={pos.sequence}"
        + (" (cleaner)" if self.cleaner_mode else "")
    )
    self.disk.write(
        first_block * self.layout.config.sectors_per_block,
        data,
        sync=False,
        label=label,
    )
    pos.active_offset += nsummary + len(chunk)
    pos.sequence += 1
    self.partial_segments_written += 1
    self.log_bytes_written += len(data)
    if self.cleaner_mode:
        self.cleaner_bytes_written += len(data)
    if self.remaining_blocks() < 2:
        self._advance_segment()
    return len(data)


def _legacy_relocate_live_blocks(self, seg):
    # Pre-pool cleaner: each victim segment read materializes a fresh
    # segment-sized bytes object (the legacy device read above already
    # copies; this path just skips the staging pool entirely).
    fs = self.fs
    layout = fs.layout
    bps = fs.config.blocks_per_segment
    if fs.usage.info(seg).state is not SegmentState.DIRTY:
        raise CorruptionError(f"cleaning non-dirty segment {seg}")
    first_block = layout.segment_first_block(seg)
    with self.telemetry.span("cleaner.relocate_segment", segment=seg) as span:
        raw = bytes(
            fs.disk.read(
                first_block * fs.config.sectors_per_block,
                bps * fs.config.sectors_per_block,
                label=f"cleaner segment {seg}",
            )
        )
        self._scan_segment(seg, first_block, raw, span)


def _legacy_readahead_advise(self, inum, first, last):
    # Before this PR there was no readahead: never prefetch.
    return 0


def _legacy_cache_evict_to_capacity(self):
    # Pre-optimization eviction: materialize the full evictable-victim
    # list (an O(cache) scan) in LRU order — ascending touch tick — on
    # every over-capacity insert, then evict from the front until back
    # under capacity.  Victims leave stale entries in the eviction heap,
    # which the cache drops lazily, so its indexes stay consistent.
    if self.used_bytes <= self.capacity_bytes:
        return
    victims = sorted(
        (block for block in self._blocks.values() if self._evictable(block)),
        key=lambda block: block.tick,
    )
    for block in victims:
        if self.used_bytes <= self.capacity_bytes:
            break
        key = block.key
        del self._blocks[key]
        self._forget_key(key)
        self.stats.evictions += 1
        if self._obs_enabled:
            self._m_evictions.inc()


def _legacy_device_write(self, sector, data, completion_time=0.0, durable=False):
    if len(data) % self.sector_size:
        raise CorruptionError(
            f"write of {len(data)} bytes is not sector-aligned"
        )
    count = len(data) // self.sector_size
    self._check_range(sector, count)
    self.total_sectors_written += count
    start = sector * self.sector_size
    self._pending.append(
        _PendingWrite(
            completion_time=completion_time,
            sector=sector,
            old_data=bytes(self._data[start : start + len(data)]),
        )
    )
    self.undo_records_created += 1
    self._data[start : start + len(data)] = data


def _legacy_device_mark_durable(self, now):
    self.mark_durable_calls += 1
    self.durability_scan_steps += len(self._pending)
    self._pending = type(self._pending)(
        p for p in self._pending if p.completion_time > now
    )


def _legacy_segment_checksum(data, value=0):
    # Pre-batch CRC: a fresh bytes copy and a checksum call per 4 KiB
    # block.  Chaining makes the result identical to the whole-buffer
    # CRC, so the before/after fingerprints still match.
    view = memoryview(data)
    crc = value
    for offset in range(0, len(view), 4096):
        crc = zlib.crc32(bytes(view[offset : offset + 4096]), crc)
    return crc & 0xFFFFFFFF


def _legacy_checkpoint_pack(self, region_bytes):
    body = (
        Packer()
        .f64(self.timestamp)
        .u64(self.position.sequence)
        .u32(self.position.active_segment)
        .u32(self.position.active_offset)
        .u32(self.position.next_segment)
        .u32(len(self.imap_addrs))
        .u32(len(self.usage_addrs))
    )
    for addr in self.imap_addrs:
        body.u64(addr)
    for addr in self.usage_addrs:
        body.u64(addr)
    body_bytes = body.bytes()
    if len(body_bytes) + 8 > region_bytes:
        raise CorruptionError(
            f"checkpoint needs {len(body_bytes) + 8} bytes, region "
            f"holds {region_bytes}"
        )
    padded_body = body_bytes + b"\x00" * (region_bytes - 8 - len(body_bytes))
    header = Packer().u32(CHECKPOINT_MAGIC).u32(checksum(padded_body))
    return header.bytes() + padded_body


def _legacy_checkpoint_unpack(cls, data):
    from repro.errors import ChecksumMismatch

    unpacker = Unpacker(data)
    magic = unpacker.u32()
    if magic != CHECKPOINT_MAGIC:
        raise CorruptionError(f"bad checkpoint magic 0x{magic:08x}")
    crc = unpacker.u32()
    if checksum(data[unpacker.offset :]) != crc:
        raise ChecksumMismatch("checkpoint checksum mismatch")
    timestamp = unpacker.f64()
    sequence = unpacker.u64()
    active_segment = unpacker.u32()
    active_offset = unpacker.u32()
    next_segment = unpacker.u32()
    n_imap = unpacker.u32()
    n_usage = unpacker.u32()
    imap_addrs = [unpacker.u64() for _ in range(n_imap)]
    usage_addrs = [unpacker.u64() for _ in range(n_usage)]
    return cls(
        timestamp=timestamp,
        position=LogPosition(
            active_segment=active_segment,
            active_offset=active_offset,
            next_segment=next_segment,
            sequence=sequence,
        ),
        imap_addrs=imap_addrs,
        usage_addrs=usage_addrs,
    )


def _legacy_inode_pack(self):
    from repro.common.inode import INODE_SIZE

    packer = (
        Packer()
        .u32(self.inum)
        .u8(int(self.ftype))
        .u16(self.nlink)
        .u64(self.size)
        .f64(self.mtime)
        .f64(self.ctime)
        .f64(self.atime)
    )
    for addr in self.direct:
        packer.u64(addr)
    packer.u64(self.indirect)
    packer.u64(self.dindirect)
    data = packer.bytes()
    if len(data) > INODE_SIZE:
        raise AssertionError(f"inode packs to {len(data)} > {INODE_SIZE}")
    return data + b"\x00" * (INODE_SIZE - len(data))


def _legacy_inode_unpack(cls, data):
    unpacker = Unpacker(data)
    inum = unpacker.u32()
    raw_type = unpacker.u8()
    try:
        ftype = FileType(raw_type)
    except ValueError as exc:
        raise CorruptionError(f"bad inode file type {raw_type}") from exc
    nlink = unpacker.u16()
    size = unpacker.u64()
    mtime = unpacker.f64()
    ctime = unpacker.f64()
    atime = unpacker.f64()
    direct = [unpacker.u64() for _ in range(N_DIRECT)]
    indirect = unpacker.u64()
    dindirect = unpacker.u64()
    return cls(
        inum=inum,
        ftype=ftype,
        nlink=nlink,
        size=size,
        mtime=mtime,
        ctime=ctime,
        atime=atime,
        direct=direct,
        indirect=indirect,
        dindirect=dindirect,
    )


# The pre-batch SimClock: one (expiry, seq) heap entry per timer, one
# O(log n) sift per schedule and per fire — no same-timestamp batching.
# FIFO order for equal expiries comes from the monotonic seq tiebreaker,
# so simulated results are identical to the bucketed clock's.


def _legacy_clock_init(self, start=0.0):
    if start < 0:
        raise ValueError(f"clock cannot start before zero: {start}")
    self._now = float(start)
    self._timers = []
    self._timer_seq = 0
    self._ntimers = 0  # keeps __repr__ working; unused otherwise
    self.timer_batches = 0
    self.timers_fired = 0


def _legacy_clock_advance_to(self, t):
    if t <= self._now:
        return self._now
    while self._timers and self._timers[0][0] <= t:
        expiry, _seq, callback = heapq.heappop(self._timers)
        self._now = max(self._now, expiry)
        self.timer_batches += 1
        self.timers_fired += 1
        callback()
    self._now = max(self._now, t)
    return self._now


def _legacy_clock_call_at(self, t, callback):
    self._timer_seq += 1
    heapq.heappush(self._timers, (float(t), self._timer_seq, callback))


def _legacy_clock_next_timer_at(self):
    return self._timers[0][0] if self._timers else None


def _legacy_clock_cancel_all(self):
    self._timers.clear()


def _legacy_clock_pending(self):
    return len(self._timers)


def _legacy_patches():
    return [
        (SegmentUsage, "clean_segments", _legacy_usage_clean_segments),
        (SegmentUsage, "clean_count", _legacy_usage_clean_count),
        (SegmentUsage, "dirty_segments", _legacy_usage_dirty_segments),
        (SegmentUsage, "total_live_bytes", _legacy_usage_total_live_bytes),
        (SegmentUsage, "min_clean", _legacy_usage_min_clean),
        (SegmentUsage, "pack_block", _legacy_usage_pack_block),
        (SegmentUsage, "load_block", _legacy_usage_load_block),
        (SegmentInfo, "pack", _legacy_info_pack),
        (SegmentInfo, "unpack", classmethod(_legacy_info_unpack)),
        (ImapEntry, "pack", _legacy_imap_pack),
        (ImapEntry, "unpack", classmethod(_legacy_imap_unpack)),
        (InodeMap, "_load_entries", _legacy_inode_map_load_entries),
        (InodeMap, "pack_block", _legacy_inode_map_pack_block),
        (SegmentSummary, "pack", _legacy_summary_pack),
        (SegmentSummary, "unpack", classmethod(_legacy_summary_unpack)),
        (
            SegmentSummary,
            "peek_summary_blocks",
            staticmethod(_legacy_peek_summary_blocks),
        ),
        (SectorDevice, "read", _legacy_device_read),
        (SectorDevice, "write", _legacy_device_write),
        (SectorDevice, "mark_durable", _legacy_device_mark_durable),
        (SegmentManager, "_write_partial", _legacy_write_partial),
        (SegmentCleaner, "_relocate_live_blocks", _legacy_relocate_live_blocks),
        (ReadaheadPolicy, "advise", _legacy_readahead_advise),
        (BlockCache, "_evict_to_capacity", _legacy_cache_evict_to_capacity),
        (serialization, "segment_checksum", _legacy_segment_checksum),
        (CheckpointData, "pack", _legacy_checkpoint_pack),
        (CheckpointData, "unpack", classmethod(_legacy_checkpoint_unpack)),
        (Inode, "pack", _legacy_inode_pack),
        (Inode, "unpack", classmethod(_legacy_inode_unpack)),
        (SimClock, "__init__", _legacy_clock_init),
        (SimClock, "advance_to", _legacy_clock_advance_to),
        (SimClock, "call_at", _legacy_clock_call_at),
        (SimClock, "next_timer_at", _legacy_clock_next_timer_at),
        (SimClock, "cancel_all_timers", _legacy_clock_cancel_all),
        (SimClock, "pending_timers", _legacy_clock_pending),
    ]


@contextmanager
def legacy_hot_paths():
    """Temporarily restore the pre-optimization hot paths."""
    patches = _legacy_patches()
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
    for cls, name, fn in patches:
        setattr(cls, name, fn)
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _fresh_fs(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> LogStructuredFS:
    return make_lfs(
        total_bytes=scale.disk_bytes,
        config=scale.lfs_config(),
        telemetry=telemetry,
    )


def wl_small_file(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    from repro.workloads.smallfile import run_small_file_test

    fs = _fresh_fs(scale, telemetry)
    sim_start = fs.clock.now()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    result = run_small_file_test(
        fs,
        num_files=scale.small_files,
        file_size=scale.small_file_size,
        verify=True,
    )
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = fs.clock.now() - sim_start
    fingerprint = {
        "create_seconds": result.create_seconds,
        "read_seconds": result.read_seconds,
        "delete_seconds": result.delete_seconds,
        "log_bytes_written": fs.segments.log_bytes_written,
    }
    return wall, 3 * scale.small_files, simulated, fingerprint, cpu


def wl_large_file_random_write(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    import random

    fs = _fresh_fs(scale, telemetry)
    request = scale.large_request_bytes
    n_requests = scale.large_file_bytes // request
    payload = bytes(request)
    handle = fs.create("/big")
    for index in range(n_requests):  # sequential fill (untimed setup)
        handle.pwrite(index * request, payload)
    fs.sync()
    rng = random.Random(0xB16F11E)
    offsets = [
        rng.randrange(n_requests) * request for _ in range(n_requests)
    ]
    sim_start = fs.clock.now()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for offset in offsets:
        handle.pwrite(offset, payload)
    fs.sync()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = fs.clock.now() - sim_start
    handle.close()
    fingerprint = {
        "simulated_seconds": simulated,
        "log_bytes_written": fs.segments.log_bytes_written,
    }
    return wall, n_requests, simulated, fingerprint, cpu


def _readahead_config(scale: Scale) -> LfsConfig:
    """Config for the read workloads: readahead on, cache smaller than
    the file so sequential rereads actually hit the disk."""
    config = scale.lfs_config()
    cache = max(256 * KIB, min(config.cache_bytes, scale.large_file_bytes // 4))
    return LfsConfig(
        segment_size=config.segment_size,
        cache_bytes=cache,
        max_inodes=config.max_inodes,
        writeback=config.writeback,
        readahead_blocks=16,
    )


def _write_stream_file(fs: LogStructuredFS, scale: Scale, chunk: int):
    """Untimed setup: lay down ``large_file_bytes`` of per-chunk-tagged
    data sequentially (so a content CRC verifies read ordering)."""
    nchunks = scale.large_file_bytes // chunk
    handle = fs.create("/stream")
    for index in range(nchunks):
        payload = index.to_bytes(4, "little") * (chunk // 4)
        handle.pwrite(index * chunk, payload)
    fs.sync()
    return handle, nchunks


def _check_readahead(fs: LogStructuredFS) -> None:
    stats = fs.readahead.stats
    if stats.blocks_prefetched:
        assert stats.hits > 0, "readahead prefetched but never hit"


def wl_seq_read(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    fs = make_lfs(
        total_bytes=scale.disk_bytes,
        config=_readahead_config(scale),
        telemetry=telemetry,
    )
    chunk = 16 * fs.config.block_size
    handle, nchunks = _write_stream_file(fs, scale, chunk)
    crc = 0
    bytes_read = 0
    ops = 0
    sim_start = fs.clock.now()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for _ in range(2):  # two passes: the cache cannot hold the file
        for index in range(nchunks):
            data = handle.pread(index * chunk, chunk)
            crc = zlib.crc32(data, crc)
            bytes_read += len(data)
            ops += 1
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = fs.clock.now() - sim_start
    handle.close()
    _check_readahead(fs)
    # No simulated seconds here: readahead reschedules read I/O, so the
    # leg invariant is the data itself plus the on-disk log.
    fingerprint = {
        "bytes_read": bytes_read,
        "data_crc32": crc,
        "log_bytes_written": fs.segments.log_bytes_written,
    }
    return wall, ops, simulated, fingerprint, cpu


def wl_seq_reread_random_write(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    import random

    fs = make_lfs(
        total_bytes=scale.disk_bytes,
        config=_readahead_config(scale),
        telemetry=telemetry,
    )
    chunk = 16 * fs.config.block_size
    handle, nchunks = _write_stream_file(fs, scale, chunk)
    request = scale.large_request_bytes
    n_requests = scale.large_file_bytes // request
    payload = b"\xa5" * request
    rng = random.Random(0x5EC_0DE)
    offsets = [
        rng.randrange(n_requests) * request for _ in range(n_requests // 2)
    ]
    crc = 0
    bytes_read = 0
    sim_start = fs.clock.now()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for offset in offsets:  # random overwrites (the pooled write path)
        handle.pwrite(offset, payload)
    fs.sync()
    for index in range(nchunks):  # sequential reread (readahead path)
        data = handle.pread(index * chunk, chunk)
        crc = zlib.crc32(data, crc)
        bytes_read += len(data)
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = fs.clock.now() - sim_start
    handle.close()
    _check_readahead(fs)
    fingerprint = {
        "bytes_read": bytes_read,
        "data_crc32": crc,
        "log_bytes_written": fs.segments.log_bytes_written,
    }
    return wall, len(offsets) + nchunks, simulated, fingerprint, cpu


def _fragment_log(fs: LogStructuredFS, scale: Scale) -> int:
    """Fragment ``clean_fill_segments`` segments: interleave one batch of
    keeper blocks with a batch of churn blocks per segment (syncing each
    batch so the interleaving survives into log order), then delete the
    churn file.  Every dirty segment is left holding a few live blocks —
    the shape that maximizes cleaning passes per byte copied."""
    block_size = fs.config.block_size
    blocks_per_segment = fs.config.segment_size // block_size
    keep = scale.clean_keeper_blocks
    churn_per_batch = max(1, blocks_per_segment - keep - 1)
    payload = b"u" * block_size
    keeper = fs.create("/keep")
    churn = fs.create("/churn")
    keeper_blocks = churn_blocks = 0
    for _ in range(scale.clean_fill_segments):
        for _ in range(keep):
            keeper.pwrite(keeper_blocks * block_size, payload)
            keeper_blocks += 1
        for _ in range(churn_per_batch):
            churn.pwrite(churn_blocks * block_size, payload)
            churn_blocks += 1
        fs.sync()
    keeper.close()
    churn.close()
    fs.unlink("/churn")
    fs.sync()
    return keeper_blocks + churn_blocks


def wl_cleaning(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    fs = _fresh_fs(scale, telemetry)
    _fragment_log(fs, scale)
    sim_start = fs.clock.now()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    cleaned = fs.clean_now(fs.layout.num_segments)
    fs.disk.drain()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = fs.clock.now() - sim_start
    fingerprint = {
        "segments_cleaned": cleaned,
        "live_blocks_copied": fs.cleaner.stats.live_blocks_copied,
        "simulated_seconds": simulated,
        "log_bytes_written": fs.segments.log_bytes_written,
    }
    # Stash the instance so probes can inspect counters (after-mode only).
    wl_cleaning.last_fs = fs  # type: ignore[attr-defined]
    return wall, max(1, cleaned), simulated, fingerprint, cpu


def _codec_fixture(scale: Scale):
    """Deterministic serialization fixture shared by both legs."""
    import random

    rng = random.Random(0x5E6_C0DE)
    bs = 4 * KIB
    entries = []
    for i in range(scale.segment_bytes // bs - 1):
        if i % 8 == 0:
            entries.append(
                SummaryEntry(
                    kind=BlockKind.INODE,
                    inum=0,
                    index=i,
                    version=i,
                    inums=tuple(
                        rng.randrange(1, 16384) for _ in range(4)
                    ),
                )
            )
        else:
            entries.append(
                SummaryEntry(
                    kind=BlockKind.DATA,
                    inum=rng.randrange(1, 16384),
                    index=i,
                    version=i & 0xFFFF,
                )
            )
    summary = SegmentSummary(
        seq=7, timestamp=123.5, next_segment_block=999, entries=entries
    )
    checkpoint = CheckpointData(
        timestamp=321.25,
        position=LogPosition(
            active_segment=3, active_offset=9, next_segment=4, sequence=77
        ),
        imap_addrs=[rng.randrange(1, 1 << 40) for _ in range(1024)],
        usage_addrs=[rng.randrange(1, 1 << 40) for _ in range(1024)],
    )
    inodes = [
        Inode(
            inum=i + 2,
            ftype=FileType.REGULAR,
            nlink=1,
            size=rng.randrange(0, 1 << 24),
            mtime=float(i),
            ctime=float(i) / 2,
            atime=0.0,
            direct=[rng.randrange(0, 1 << 32) for _ in range(N_DIRECT)],
            indirect=rng.randrange(0, 1 << 32),
            dindirect=NIL,
        )
        for i in range(48)
    ]
    return summary, checkpoint, inodes


def wl_batch_checksum(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    """Whole-segment CRC scans plus codec round-trips.

    The legacy leg patches back the per-4-KiB-block CRC and the
    Packer-per-field summary/checkpoint/inode codecs; both legs produce
    identical bytes, so one running CRC over everything serialized is
    the cross-leg fingerprint.
    """
    import random

    rng = random.Random(0xBA7C4)
    bs = 4 * KIB
    region_bytes = CHECKPOINT_REGION_BLOCKS * bs
    nsegments = max(4, scale.clean_fill_segments // 8)
    views = [
        memoryview(rng.randbytes(scale.segment_bytes))
        for _ in range(nsegments)
    ]
    summary, checkpoint, inodes = _codec_fixture(scale)
    scan_rounds = max(2, scale.clean_fill_segments // 4)
    codec_rounds = max(8, scale.clean_fill_segments // 4)
    crc = 0
    ops = 0
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for _ in range(scan_rounds):
        for view in views:
            crc = serialization.segment_checksum(view, crc)
            ops += 1
    for _ in range(codec_rounds):
        packed = summary.pack(bs)
        crc = zlib.crc32(packed, crc)
        restored = SegmentSummary.unpack(packed, bs)
        if len(restored.entries) != len(summary.entries):
            raise AssertionError("summary round-trip lost entries")
        region = checkpoint.pack(region_bytes)
        crc = zlib.crc32(region, crc)
        CheckpointData.unpack(region)
        for inode in inodes:
            blob = inode.pack()
            crc = zlib.crc32(blob, crc)
            Inode.unpack(blob)
        ops += 2 + len(inodes)
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    fingerprint = {
        "crc32": crc,
        "segment_bytes_scanned": scan_rounds * nsegments * scale.segment_bytes,
        "ops": ops,
    }
    return wall, ops, 0.0, fingerprint, cpu


def wl_scheduler_dispatch(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    """Timer dispatch under heavy same-timestamp load.

    Phase 1 is the shape the service scheduler produces — hundreds of
    events landing on each instant, drained through the
    ``advance_to(next_timer_at())`` event-loop idiom, plus a
    same-instant rescheduling chain.  Phase 2 is a small real
    multi-client service run on the same clock.  The legacy leg patches
    back the per-timer ``(expiry, seq)`` heap; FIFO tie-breaking is
    identical in both, so the fingerprints match.
    """
    from repro.service.config import ServiceConfig
    from repro.service.scheduler import simulate_service

    timestamps = scale.clean_fill_segments * 8
    per_timestamp = 64
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    clock = SimClock()
    chain = [timestamps * per_timestamp // 8]

    def reschedule() -> None:
        fired[0] += 1
        if chain[0] > 0:
            chain[0] -= 1
            clock.call_at(clock.now(), reschedule)

    config = ServiceConfig(
        num_clients=4,
        seed=0,
        requests_per_client=10 if scale.name == "smoke" else 30,
    )
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for t in range(1, timestamps + 1):
        at = float(t)
        for _ in range(per_timestamp):
            clock.call_at(at, tick)
    clock.call_at(float(timestamps + 1), reschedule)
    while clock.pending_timers():
        clock.advance_to(clock.next_timer_at())
    stats, fs = simulate_service(
        config, total_bytes=32 * MIB, telemetry=telemetry
    )
    fs.unmount()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = clock.now() + fs.clock.now()
    ops = fired[0] + config.num_clients * config.requests_per_client
    fingerprint = {
        "timers_fired": fired[0],
        "clock_now": clock.now(),
        "service": stats.to_dict(),
    }
    return wall, ops, simulated, fingerprint, cpu


WORKLOADS: Dict[
    str, Callable[..., Tuple[float, int, float, Dict[str, Any], float]]
] = {
    "small_file": wl_small_file,
    "large_file_random_write": wl_large_file_random_write,
    "seq_read": wl_seq_read,
    "seq_reread_random_write": wl_seq_reread_random_write,
    "cleaning": wl_cleaning,
    "batch_checksum": wl_batch_checksum,
    "scheduler_dispatch": wl_scheduler_dispatch,
}


# ----------------------------------------------------------------------
# Probes: operation-count evidence of the O(1) invariants
# ----------------------------------------------------------------------


def run_probes(fs: LogStructuredFS) -> Dict[str, Any]:
    usage = fs.usage
    device = fs.disk.device
    usage.verify_indexes()
    probes: Dict[str, Any] = {
        "num_segments": usage.num_segments,
        "min_clean_calls": usage.min_clean_calls,
        "heap_pushes": usage.heap_pushes,
        "heap_pops": usage.heap_pops,
        "segments_cleaned": fs.cleaner.stats.segments_cleaned,
        "mark_durable_calls": device.mark_durable_calls,
        "undo_records_created": device.undo_records_created,
        "undo_records_skipped": device.undo_records_skipped,
        "durability_scan_steps": device.durability_scan_steps,
    }
    # Write-amplification ledger of the cleaning leg: the cleaner ran,
    # so the cleaner-copied bytes are non-zero and amplification > 1.
    wamp = fs.wamp_report()
    probes["wamp_user_bytes"] = wamp["user_bytes"]
    probes["wamp_log_bytes"] = wamp["log_bytes"]
    probes["wamp_cleaner_bytes"] = wamp["cleaner_bytes"]
    probes["wamp_write_amplification"] = round(
        wamp["write_amplification"], 6
    )
    # _pop_clean is amortized O(1): total heap traffic is bounded by
    # state transitions (each entry pushed once, popped at most once),
    # never by min_clean_calls * num_segments as the old scan was.
    assert usage.heap_pops <= usage.heap_pushes, probes
    assert (
        usage.heap_pushes
        == usage.num_segments + fs.cleaner.stats.segments_cleaned
    ), probes
    old_scan_equivalent = usage.min_clean_calls * usage.num_segments
    probes["pop_clean_heap_traffic"] = usage.heap_pushes + usage.heap_pops
    probes["pop_clean_legacy_scan_equivalent"] = old_scan_equivalent
    assert probes["pop_clean_heap_traffic"] <= max(
        old_scan_equivalent, probes["pop_clean_heap_traffic"]
    )
    # mark_durable is amortized O(1): every undo record pays exactly one
    # drain step, so the total work is bounded by records created — the
    # old implementation's work was sum(len(pending)) over calls.
    assert device.durability_scan_steps <= device.undo_records_created, probes
    probes["durability_steps_per_call"] = round(
        device.durability_scan_steps / max(1, device.mark_durable_calls), 4
    )
    return probes


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


class _Leg:
    """Best-of-N accumulator for one (workload, mode) pair."""

    def __init__(self) -> None:
        self.best: Optional[Tuple[float, int, float, Optional[float]]] = None
        self.fingerprint: Dict[str, Any] = {}

    def add(
        self,
        wall: float,
        ops: int,
        simulated: float,
        fp: Dict[str, Any],
        cpu: Optional[float] = None,
    ):
        if self.best is None or wall < self.best[0]:
            self.best = (wall, ops, simulated, cpu)
        self.fingerprint = fp

    def entry(self) -> Dict[str, Any]:
        assert self.best is not None
        wall, ops, simulated, cpu = self.best
        return bench_report.workload_entry(wall, ops, simulated, cpu)


def _leg_task(scale_name: str, workload_name: str, mode: str):
    """One timed leg; module-level so ``--jobs`` can farm it out.

    Returns ``(workload result tuple, probes-or-None)``.  The O(1)
    probes must run here — in the process that just ran the cleaning
    workload — because the live file system cannot cross a process
    boundary.

    Legs share a process when run sequentially, and the tracing leg
    leaves a large span graph behind; collect it before starting the
    timer so one leg's garbage never inflates the next leg's numbers.
    """
    import gc

    gc.collect()
    scale = SCALES[scale_name]
    workload = WORKLOADS[workload_name]
    if mode == "before":
        with legacy_hot_paths():
            return workload(scale), None
    if mode == "telemetry":
        return workload(scale, telemetry=Telemetry()), None
    if mode == "tracing":
        return workload(scale, telemetry=Telemetry(trace_io=True)), None
    result = workload(scale)
    probes = None
    if workload_name == "cleaning":
        probes = run_probes(wl_cleaning.last_fs)  # type: ignore[attr-defined]
    return result, probes


def run_harness(
    scale: Scale,
    compare_legacy: bool,
    min_cleaning_speedup: float,
    min_seq_read_speedup: float = 0.0,
    min_checksum_speedup: float = 0.0,
    min_dispatch_speedup: float = 0.0,
    jobs: int = 1,
) -> Dict[str, Any]:
    workloads: Dict[str, Dict[str, Any]] = {}
    checks: Dict[str, bool] = {}
    identical = True
    telemetry_identical = True
    tracing_identical = True

    # Build the full leg list up front.  Within a repeat the run order
    # alternates: in-process warm-up (allocator, page cache) favors
    # whichever leg runs later, so interleaving keeps comparisons honest.
    legs = []
    for name in WORKLOADS:
        for repeat in range(scale.repeats):
            modes = ["after", "before", "telemetry", "tracing"]
            if repeat % 2:
                modes.reverse()
            for mode in modes:
                if mode == "before" and not compare_legacy:
                    continue
                legs.append((name, mode, repeat))

    if jobs > 1:
        # Parallel legs share the machine, so wall-clock minima are
        # noisier than a sequential run: use --jobs for fingerprint /
        # identity verification and CI smoke, not for gate-quality
        # numbers.
        from repro.harness.parallel import run_tasks

        print(
            f"[perf] running {len(legs)} legs across {jobs} processes ...",
            flush=True,
        )
        outcomes = run_tasks(
            _leg_task,
            [(scale.name, name, mode) for name, mode, _ in legs],
            jobs=jobs,
        )
    else:
        outcomes = []
        for name, mode, repeat in legs:
            print(f"[perf] {name} ({mode}, run {repeat + 1}) ...", flush=True)
            outcomes.append(_leg_task(scale.name, name, mode))

    acc: Dict[str, Dict[str, _Leg]] = {
        name: {
            "after": _Leg(),
            "before": _Leg(),
            "telemetry": _Leg(),
            "tracing": _Leg(),
        }
        for name in WORKLOADS
    }
    probes: Optional[Dict[str, Any]] = None
    for (name, mode, _repeat), (result, leg_probes) in zip(legs, outcomes):
        acc[name][mode].add(*result)
        if leg_probes is not None:
            probes = leg_probes

    for name in WORKLOADS:
        after = acc[name]["after"]
        before = acc[name]["before"]
        tele = acc[name]["telemetry"]
        tracing = acc[name]["tracing"]
        entry: Dict[str, Any] = {"after": after.entry()}
        entry["telemetry_on"] = tele.entry()
        entry["telemetry_overhead"] = round(
            entry["telemetry_on"]["wall_seconds"]
            / entry["after"]["wall_seconds"]
            - 1.0,
            4,
        )
        entry["tracing_on"] = tracing.entry()
        entry["tracing_overhead"] = round(
            entry["tracing_on"]["wall_seconds"]
            / entry["after"]["wall_seconds"]
            - 1.0,
            4,
        )
        if tele.fingerprint != after.fingerprint:
            telemetry_identical = False
            print(
                f"[perf] WARNING: {name} simulated results differ with "
                f"telemetry on: on={tele.fingerprint} "
                f"off={after.fingerprint}",
                file=sys.stderr,
            )
        if tracing.fingerprint != after.fingerprint:
            tracing_identical = False
            print(
                f"[perf] WARNING: {name} simulated results differ with "
                f"tracing on: on={tracing.fingerprint} "
                f"off={after.fingerprint}",
                file=sys.stderr,
            )
        workloads[name] = entry
        if compare_legacy:
            entry["before"] = before.entry()
            if before.fingerprint != after.fingerprint:
                identical = False
                print(
                    f"[perf] WARNING: {name} simulated results differ: "
                    f"legacy={before.fingerprint} new={after.fingerprint}",
                    file=sys.stderr,
                )

    # ``probes`` came from an optimized-mode cleaning leg (asserted in
    # the process that ran it — see _leg_task).
    assert probes is not None, "no after-mode cleaning leg ran"
    checks["o1_probes"] = True  # run_probes asserts
    checks["telemetry_results_identical"] = telemetry_identical
    checks["tracing_results_identical"] = tracing_identical
    if compare_legacy:
        checks["simulated_results_identical"] = identical

    report = bench_report.build_report(
        scale=scale.name, workloads=workloads, probes=probes, checks=checks
    )

    if compare_legacy:
        for wl_name, check_name, target in (
            ("cleaning", "cleaning_speedup_ok", min_cleaning_speedup),
            ("seq_read", "seq_read_speedup_ok", min_seq_read_speedup),
            ("batch_checksum", "batch_checksum_speedup_ok", min_checksum_speedup),
            (
                "scheduler_dispatch",
                "scheduler_dispatch_speedup_ok",
                min_dispatch_speedup,
            ),
        ):
            speedup = report["workloads"][wl_name].get("speedup", 0.0)
            checks[check_name] = speedup >= target
            if not checks[check_name]:
                print(
                    f"[perf] WARNING: {wl_name} speedup {speedup:.2f}x below "
                    f"the {target:.1f}x target",
                    file=sys.stderr,
                )
    return report


def apply_baseline_check(
    report: Dict[str, Any], baseline_path: str, tolerance: float
) -> None:
    """Compare the telemetry-disabled leg against a committed baseline.

    Wall-clock numbers only transfer within one machine and one scale,
    so a missing baseline or a scale mismatch records a skip note rather
    than failing; a matching baseline makes
    ``telemetry_disabled_within_baseline`` a real check — the committed
    ``BENCH_hotpaths.json`` predates the telemetry layer, so passing it
    means disabled-mode instrumentation costs under ``tolerance``.
    """
    info: Dict[str, Any] = {"path": baseline_path, "tolerance": tolerance}
    report["baseline"] = info
    if not baseline_path or not os.path.exists(baseline_path):
        info["skipped"] = "no baseline report"
        return
    try:
        baseline = bench_report.load_report(baseline_path)
    except ValueError as exc:
        info["skipped"] = str(exc)
        return
    if baseline.get("scale") != report["scale"]:
        info["skipped"] = (
            f"scale mismatch: baseline={baseline.get('scale')!r} "
            f"run={report['scale']!r}"
        )
        return
    regressions = bench_report.find_regressions(baseline, report, tolerance)
    info["baseline_generated_at"] = baseline.get("generated_at")
    info["regressions"] = regressions
    report["checks"]["telemetry_disabled_within_baseline"] = not regressions
    for line in regressions:
        print(f"[perf] WARNING: regression vs baseline: {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="small",
        help="workload sizing (default: small)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="shortcut for --scale smoke (CI)",
    )
    parser.add_argument(
        "--no-legacy", dest="legacy", action="store_false",
        help="skip the legacy before-leg (after-only numbers)",
    )
    parser.add_argument(
        "--min-cleaning-speedup", type=float, default=2.0,
        help="fail if the cleaning workload speedup is below this "
        "(default 2.0; only with the legacy leg)",
    )
    parser.add_argument(
        "--min-seq-read-speedup", type=float, default=1.2,
        help="fail if the seq_read workload speedup is below this "
        "(default 1.2; only with the legacy leg)",
    )
    parser.add_argument(
        "--min-checksum-speedup", type=float, default=2.0,
        help="fail if the batch_checksum workload speedup is below this "
        "(default 2.0; only with the legacy leg)",
    )
    parser.add_argument(
        "--min-dispatch-speedup", type=float, default=2.0,
        help="fail if the scheduler_dispatch workload speedup is below "
        "this (default 2.0; only with the legacy leg)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the timed legs; parallel legs share "
        "the machine, so use for identity verification and CI smoke, "
        "not for gate-quality wall-clock numbers (default 1)",
    )
    parser.add_argument(
        "--output", default=os.path.join(_REPO_ROOT, "BENCH_hotpaths.json"),
        help="report path (default: BENCH_hotpaths.json at the repo root)",
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(_REPO_ROOT, "BENCH_hotpaths.json"),
        help="committed report to hold the telemetry-disabled leg to "
        "(skipped on scale mismatch; '' disables)",
    )
    parser.add_argument(
        "--baseline-tolerance", type=float, default=0.03,
        help="max wall-clock growth vs the baseline (default 0.03)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any check fails (CI)",
    )
    args = parser.parse_args(argv)
    scale = SCALES["smoke" if args.smoke else args.scale]

    report = run_harness(
        scale,
        compare_legacy=args.legacy,
        min_cleaning_speedup=args.min_cleaning_speedup,
        min_seq_read_speedup=args.min_seq_read_speedup,
        min_checksum_speedup=args.min_checksum_speedup,
        min_dispatch_speedup=args.min_dispatch_speedup,
        jobs=args.jobs,
    )
    # Load the baseline before write_report can overwrite it in place.
    apply_baseline_check(report, args.baseline, args.baseline_tolerance)
    bench_report.write_report(args.output, report)
    print()
    print(bench_report.summarize(report))
    print(f"\nreport written to {args.output}")
    if args.strict and not all(report["checks"].values()):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
