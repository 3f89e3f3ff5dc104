"""Tests of the benchmark itself.

Run from the repository root with::

    python3 -m pytest perfbench -q
"""

import cProfile
import pstats
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.errors import NoSpaceError  # noqa: E402


def run_once(workload, seed):
    return workload.run(workload.setup(seed))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_simulated_results_repeat_exactly(name):
    workload = workloads.WORKLOADS[name]
    first = run_once(workload, 0)
    with layers.instrumented() as (spans, tap):
        second = run_once(workload, 0)
    assert first.failed == 0, first.verify_errors
    assert first.fingerprint() == second.fingerprint()
    assert workloads.sim_metrics([first]) == workloads.sim_metrics([second])
    assert first.counters == second.counters
    # The instruments saw the run without changing it.
    assert tap.volumes
    assert spans["lfs.verify_s"] > 0


def test_traced_self_times_add_up_and_land_in_callers():
    from repro.lfs.filesystem import make_lfs
    from repro.units import MIB

    profiler = cProfile.Profile()
    profiler.enable()
    fs = make_lfs(total_bytes=16 * MIB)
    for i in range(200):
        fs.write_file(f"/f{i}", bytes([i % 256]) * 3000)
    fs.unmount()
    profiler.disable()
    table = pstats.Stats(profiler).stats
    repro_dir = str(HERE.parent / "src" / "repro")
    by_package = layers.self_time_by_package(table, repro_dir)
    total = sum(entry[2] for entry in table.values())
    assert sum(by_package.values()) == pytest.approx(total, rel=1e-9)
    # Generated dataclass methods (<string>) and builtins have no repro
    # file, yet none of their time is left unattributed to a layer.
    outside = sum(
        entry[2]
        for func, entry in table.items()
        if layers.package_of(func[0], repro_dir) is None
    )
    assert outside > 0
    assert by_package["cache"] > 0 and by_package["lfs"] > 0


def test_corrupted_image_fails_every_operation(monkeypatch):
    fs, config = state = workloads.setup_svc_aged(0)
    unmount = fs.unmount

    def unmount_then_corrupt():
        unmount()
        device = fs.disk.device
        device.write(0, b"\xff" * (64 * device.sector_size), durable=True)

    monkeypatch.setattr(fs, "unmount", unmount_then_corrupt)
    outcome = workloads.run_svc_aged(state)
    assert outcome.verify_errors
    assert outcome.failed == outcome.attempted


def test_dropped_requests_count_as_failed(monkeypatch):
    fs, config = state = workloads.setup_svc_aged(0)
    create = fs.create
    calls = []

    def create_or_run_out_of_space(path):
        calls.append(path)
        if len(calls) <= 5:
            raise NoSpaceError("injected")
        return create(path)

    monkeypatch.setattr(fs, "create", create_or_run_out_of_space)
    outcome = workloads.run_svc_aged(state)
    assert not outcome.verify_errors
    assert outcome.failed == 5


def test_count_failed():
    assert workloads.count_failed(100, 100, 0, []) == 0
    assert workloads.count_failed(100, 97, 3, []) == 3
    assert workloads.count_failed(100, 90, 3, []) == 10
    assert workloads.count_failed(100, 100, 0, ["bad checkpoint"]) == 100


def test_speed_probe_samples_and_excludes_itself():
    import signal
    import time

    import speed

    previous = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe().start()
    try:
        start = time.perf_counter()
        mark = probe.mark()
        while len(probe.samples) < 5:
            sum(range(1000))
        span = probe.span_since(mark)
        elapsed = time.perf_counter() - start
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) == previous
    assert span.speed > 0
    assert span.norm_wall_s == pytest.approx(span.wall_s * span.speed)
    # The probe's own time is left out of the span.
    assert span.wall_s == pytest.approx(elapsed - probe.spent_s, abs=1e-3)
