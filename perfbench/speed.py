"""Host-speed probe, so host times from a shared machine can be compared.

The CPU this benchmark runs on is shared with other machines' work, and
its speed drifts by a factor of two or more within minutes.  Identical
work then takes very different wall and CPU time from one run to the
next, which would hide the effect of a change to the program.

:class:`SpeedProbe` samples the host's current speed every
:data:`PERIOD_S` seconds of wall time: a ``SIGALRM`` handler times a
fixed piece of interpreter work (dict lookups, method calls and small
allocations, like the simulator's own hot paths) twice.  The first run
finds the probe's data evicted by the workload and mostly measures the
memory system; the second finds it cached and measures the core.  The
sample's duration is the geometric mean of the two, because the
workloads here depend on both: one of them alone left up to 6% of the
spread, the two together at most 3.4%.  A measured span is then
reported twice:

* raw: wall and CPU seconds, minus the time the probe itself took;
* normalised: raw seconds times the host's mean speed during the span,
  where one sample's speed is :data:`REFERENCE_PROBE_S` over the
  sample's duration, i.e. the seconds the span would have taken on a
  host where a sample always takes :data:`REFERENCE_PROBE_S`.

Averaging speed (not probe duration) weighs every sample period alike,
which is the time-weighted mean of the host's speed.  On the host the
benchmark was defined on, this cut the coefficient of variation of one
iteration of a workload, each in a fresh process, from 5-17% to 2-3.4%.
The probe takes about 1.5% of the run, which is left out of the span;
it is off in traced runs.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import List, Tuple

PERIOD_S = 0.025
REFERENCE_PROBE_S = 110e-6
"""Sample duration on the reference host: about the fastest a sample
takes inside a workload on the 2-CPU x86-64 host the benchmark was
defined on."""
MIN_SAMPLES = 20
"""A span shorter than this many probe periods is normalised by the
latest samples before its end as well."""


class _Slot:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def get(self) -> int:
        return self.value


def new_table() -> dict:
    return {key: _Slot(key) for key in range(4096)}


def probe_work(table: dict) -> int:
    """The fixed piece of work whose duration is the speed sample."""
    total = 0
    for i in range(200):
        key = (i * 2654435761) & 4095
        total += table[key].get()
        table[key] = _Slot(total & 1023)
    return total


@dataclass
class Span:
    """Host time of one measured call."""

    wall_s: float
    cpu_s: float
    speed: float
    """Mean host speed relative to the reference: below 1 on a host
    slower than the reference."""

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def norm_cpu_s(self) -> float:
        return self.cpu_s * self.speed


class SpeedProbe:
    """Samples host speed on a wall-clock timer while it is running."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._table = new_table()
        self._running = False
        self._previous = signal.SIG_DFL

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_work(self._table)
        cached = time.perf_counter()
        probe_work(self._table)
        end = time.perf_counter()
        self.samples.append(math.sqrt((cached - start) * (end - cached)))
        self.spent_s += end - start

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True
        return self

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._running = False

    def mark(self) -> Tuple[int, float, float, float]:
        return (
            len(self.samples),
            self.spent_s,
            time.perf_counter(),
            time.process_time(),
        )

    def span_since(self, mark: Tuple[int, float, float, float]) -> Span:
        """Host time since ``mark``, without the probe's own time."""
        index, spent, wall, cpu = mark
        probe_s = self.spent_s - spent
        first = min(index, max(0, len(self.samples) - MIN_SAMPLES))
        window = self.samples[first:]
        speed = (
            statistics.fmean(REFERENCE_PROBE_S / took for took in window)
            if window
            else 1.0
        )
        return Span(
            wall_s=time.perf_counter() - wall - probe_s,
            cpu_s=time.process_time() - cpu - probe_s,
            speed=speed,
        )
