"""Per-layer measurement, taken from outside the program.

Three instruments, none of which edits the code under ``src/``:

* :func:`self_time_by_package` sums cProfile self time by the
  ``repro.<package>`` of each frame's file.  A frame with no repro file
  (a builtin, a stdlib function, a dataclass method generated into
  ``<string>``) is charged to the package that called it, so
  ``BlockKey.__hash__`` lands in ``cache`` and ``hashlib`` work lands in
  whichever package asked for the digest.
* :func:`instrumented` wraps a few public calls with wall-clock spans
  (outermost call only, so recursion is not double counted).
* The same context taps ``LogStructuredFS.unmount`` to read each
  volume's public stats objects (disk, cache, cleaner, log, clock) as
  it is unmounted, after which the volume may be freed.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

PACKAGES = (
    "disk", "cache", "lfs", "vfs", "ffs", "common", "sim", "service",
    "cluster", "obs",
)
OTHER = "other"
"""Benchmark code, top-level repro modules and the remaining packages
(``harness``, ``workloads``, ``analysis``, ...)."""

# metric name -> (module, class or None, function)
SPANS: Dict[str, Tuple[str, Optional[str], str]] = {
    "disk.device_init_s": ("repro.disk.device", "SectorDevice", "__init__"),
    "disk.snapshot_s": ("repro.disk.device", "SectorDevice", "snapshot"),
    "lfs.verify_s": ("repro.lfs.verify", None, "verify_lfs"),
    "lfs.flush_s": ("repro.lfs.filesystem", "LogStructuredFS", "flush_log"),
    "lfs.clean_s": ("repro.lfs.cleaner", "SegmentCleaner", "clean"),
    "service.prefill_s": ("repro.service.scheduler", None, "prefill"),
}

# ----------------------------------------------------------------------
# cProfile self time by package
# ----------------------------------------------------------------------


def package_of(filename: str, repro_dir: str) -> Optional[str]:
    """The layer a code file belongs to; None outside ``repro``."""
    prefix = repro_dir + os.sep
    if not filename.startswith(prefix):
        return None
    head = filename[len(prefix):].split(os.sep, 1)[0]
    return head if head in PACKAGES else OTHER


def self_time_by_package(stats: dict, repro_dir: str) -> Dict[str, float]:
    """Sum the self time of a ``pstats.Stats(...).stats`` table by layer.

    A frame outside ``repro`` splits its self time across its callers in
    proportion to the self time it spent under each, recursively, until
    each share reaches a repro frame; shares that reach the top of the
    stack land in :data:`OTHER`.  The result adds up to the table's
    total self time.
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func: tuple, visiting: set) -> Dict[str, float]:
        pkg = package_of(func[0], repro_dir)
        if pkg is not None:
            return {pkg: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[0] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0 or func in visiting:
            return {OTHER: 1.0}
        visiting.add(func)
        result: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, share in shares(caller, visiting).items():
                result[name] = result.get(name, 0.0) + share * weight / total
        visiting.discard(func)
        memo[func] = result
        return result

    totals = {name: 0.0 for name in PACKAGES + (OTHER,)}
    for func, entry in stats.items():
        for name, share in shares(func, set()).items():
            totals[name] += entry[2] * share
    return totals


# ----------------------------------------------------------------------
# Spans and the counter tap
# ----------------------------------------------------------------------


class CounterTap:
    """Exact counters of every LFS volume unmounted while it is armed."""

    def __init__(self) -> None:
        self.volumes: List[Dict[str, float]] = []
        self.clocks: List[Tuple[int, int]] = []
        self._seen: "weakref.WeakSet" = weakref.WeakSet()
        self._clock_slot: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )

    def record(self, fs) -> None:
        if fs in self._seen:
            return
        self._seen.add(fs)
        disk = fs.disk.stats
        cache = fs.cache.stats
        cleaner = fs.cleaner.stats
        self.volumes.append(
            {
                "disk.reads": disk.reads,
                "disk.writes": disk.writes,
                "disk.bytes_read": disk.bytes_read,
                "disk.bytes_written": disk.bytes_written,
                "disk.seeks": disk.seeks,
                "disk.sync_requests": disk.sync_requests,
                "disk.busy_sim_s": disk.busy_seconds,
                "cache.hits": cache.hits,
                "cache.lookups": cache.lookups,
                "cache.evictions": cache.evictions,
                "cache.insertions": cache.insertions,
                "lfs.log_bytes": fs.segments.log_bytes_written,
                "lfs.cleaner_bytes": fs.segments.cleaner_bytes_written,
                "cleaner.passes": cleaner.passes,
                "cleaner.segments_cleaned": cleaner.segments_cleaned,
                "cleaner.busy_sim_s": cleaner.busy_seconds,
                "cleaner.stall_sim_s": cleaner.disk_stall_seconds,
                "cleaner.bytes_read": cleaner.bytes_read,
                "cleaner.live_bytes_copied": cleaner.live_bytes_copied,
            }
        )
        # Volumes of one cluster migration group share a clock: count it
        # once, at its latest reading.
        clock = fs.clock
        slot = self._clock_slot.get(clock)
        if slot is None:
            slot = self._clock_slot[clock] = len(self.clocks)
            self.clocks.append((0, 0))
        self.clocks[slot] = (clock.timers_fired, clock.timer_batches)

    def metrics(self) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for volume in self.volumes:
            for name, value in volume.items():
                total[name] = total.get(name, 0) + value
        lookups = total.pop("cache.lookups", 0)
        hits = total.pop("cache.hits", 0)
        total["cache.hit_rate"] = hits / lookups if lookups else 0.0
        read = total.pop("cleaner.bytes_read", 0)
        copied = total.pop("cleaner.live_bytes_copied", 0)
        total["cleaner.reclaim_ratio"] = 1.0 - copied / read if read else 0.0
        total["sim.timers_fired"] = sum(fired for fired, _ in self.clocks)
        total["sim.timer_batches"] = sum(batches for _, batches in self.clocks)
        return total


def _span(original: Callable, name: str, spans: Dict[str, float]) -> Callable:
    depth = [0]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if depth[0]:
            return original(*args, **kwargs)
        depth[0] += 1
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spans[name] += time.perf_counter() - start
            depth[0] -= 1

    return wrapper


@contextmanager
def instrumented() -> Iterator[Tuple[Dict[str, float], CounterTap]]:
    """Arm the span wrappers and the counter tap; restore on exit."""
    spans = {name: 0.0 for name in SPANS}
    tap = CounterTap()
    patches = []
    for name, (module_name, class_name, attr) in SPANS.items():
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, _span(getattr(owner, attr), name, spans))

    from repro.lfs.filesystem import LogStructuredFS

    unmount = LogStructuredFS.unmount

    @functools.wraps(unmount)
    def tapped_unmount(fs) -> None:
        unmount(fs)
        tap.record(fs)

    patches.append((LogStructuredFS, "unmount", unmount))
    LogStructuredFS.unmount = tapped_unmount
    try:
        yield spans, tap
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
