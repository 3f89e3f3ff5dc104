"""The benchmark's three workloads.

Each workload has a set-up step (rig build, plus the aging pre-fill on
``svc-aged``) and a measured step that serves the load and then seals
every volume it used: checkpoint, unmount, SHA-256 of the final image
and an offline consistency check (``verify_lfs`` for LFS, ``fsck`` for
the FFS baseline).  The measured step returns an :class:`Outcome`
holding the raw simulated samples, the exact counters of the service
and cluster layers, and the behaviour fingerprint.

Everything an :class:`Outcome` holds is simulated, so it is a pure
function of the seed.  One benchmark run covers ``Workload.seeds``
consecutive seeds and pools their samples (:func:`sim_metrics`), which
keeps seed-to-seed variation of a single instance out of the figures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.units import KIB, MIB

# svc-aged and cluster-migrate: the rig `serve-sim` and `cluster-sim`
# build (64 MiB WREN IV volume, 256 KiB segments, 2 MiB cache).
VOLUME_BYTES = 64 * MIB
SEGMENT_BYTES = 256 * KIB
SERVICE_CACHE_BYTES = 2 * MIB

SVC_CLIENTS = 16
SVC_REQUESTS_PER_CLIENT = 400
SVC_FILL_FRACTION = 0.85

CLUSTER_SHARDS = 16
CLUSTER_CLIENTS = 256
CLUSTER_REQUESTS_PER_CLIENT = 25
CLUSTER_MIGRATION = (1, 0, 0.05)  # source shard, target shard, start (s)

# paper-micro: Figures 3 and 4 of the paper at a reduced scale, on the
# default 15 MiB file cache.
PAPER_DISK_BYTES = 128 * MIB
SMALL_FILES = 2000
SMALL_FILE_BYTES = 1 * KIB
LARGE_FILE_BYTES = 32 * MIB
REQUEST_BYTES = 8 * KIB
# Figure 3's create/read/delete of every file plus Figure 4's five
# stages of requests, on each file system.
PAPER_OPS_PER_FS = 3 * SMALL_FILES + 5 * (LARGE_FILE_BYTES // REQUEST_BYTES)


@dataclass
class Outcome:
    """What one measured step produced."""

    attempted: int
    failed: int
    ops: int
    """Completed operations counted by ``sim_ops_per_s``."""
    sim_seconds: float
    """Simulated seconds those operations took."""
    latencies: List[float]
    fsync_latencies: List[float]
    log_bytes: float
    user_bytes: float
    counters: Dict[str, float] = field(default_factory=dict)
    """Service and cluster counters read from the public stats objects."""
    images: List[str] = field(default_factory=list)
    """SHA-256 of every final image, in a fixed order."""
    render: str = ""
    """Deterministic stats render of the run."""
    verify_errors: List[str] = field(default_factory=list)

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "images": list(self.images),
            "render_sha256": hashlib.sha256(
                self.render.encode()
            ).hexdigest(),
        }


def sim_metrics(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """The simulated end-to-end metrics of outcomes pooled together."""
    from repro.service import percentile

    latencies = [x for o in outcomes for x in o.latencies]
    fsyncs = [x for o in outcomes for x in o.fsync_latencies]
    user_bytes = sum(o.user_bytes for o in outcomes)
    return {
        "sim_ops_per_s": sum(o.ops for o in outcomes)
        / sum(o.sim_seconds for o in outcomes),
        "sim_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "sim_p99_ms": 1000.0 * percentile(latencies, 0.99),
        "sim_fsync_p99_ms": 1000.0 * percentile(fsyncs, 0.99),
        "write_amp": (
            sum(o.log_bytes for o in outcomes) / user_bytes
            if user_bytes
            else 0.0
        ),
    }


def count_failed(
    attempted: int, completed: int, refused: int, verify_errors: List[str]
) -> int:
    """Failed operations of one run.

    Refused operations (dropped requests, degraded failures and
    degraded rejections) fail, and so does anything that never
    completed.  A run whose final image fails its consistency check
    fails every operation it attempted.
    """
    if verify_errors:
        return attempted
    return min(attempted, max(refused, attempted - completed))


def seal_lfs(fs) -> Tuple[str, List[str]]:
    """Checkpoint and unmount ``fs``, then hash and verify its image."""
    from repro.lfs import verify

    fs.checkpoint()
    fs.disk.drain()
    fs.unmount()
    device = fs.disk.device
    digest = hashlib.sha256(device.snapshot()).hexdigest()
    return digest, list(verify.verify_lfs(device).errors)


def seal_ffs(fs) -> Tuple[str, List[str]]:
    """Unmount the FFS baseline, then hash and ``fsck`` its image."""
    from repro.ffs.fsck import fsck

    fs.unmount()
    digest = hashlib.sha256(fs.disk.device.snapshot()).hexdigest()
    report = fsck(fs.disk)
    if report.clean and not report.repairs():
        return digest, []
    return digest, [f"fsck: {report.repairs()} repair(s) after a clean unmount"]


def _refused(stats) -> int:
    return stats.dropped + stats.degraded_failures + stats.rejected_degraded


def _service_counters(stats_list) -> Dict[str, float]:
    batches = [size for stats in stats_list for size in stats.commit_batches]
    return {
        "service.commit_batch_mean": (
            sum(batches) / len(batches) if batches else 0.0
        ),
        "service.throttle_events": sum(s.throttle_events for s in stats_list),
        "service.throttle_sim_s": sum(s.throttle_seconds for s in stats_list),
        "service.rejections": sum(s.rejections for s in stats_list),
        "service.forced_admissions": sum(
            s.forced_admissions for s in stats_list
        ),
    }


# ----------------------------------------------------------------------
# svc-aged
# ----------------------------------------------------------------------


def setup_svc_aged(seed: int):
    from repro.lfs.config import LfsConfig
    from repro.lfs.filesystem import make_lfs
    from repro.service import ServiceConfig, scheduler, validate_rig

    config = ServiceConfig(
        num_clients=SVC_CLIENTS,
        seed=seed,
        requests_per_client=SVC_REQUESTS_PER_CLIENT,
        fill_fraction=SVC_FILL_FRACTION,
    )
    lfs_config = LfsConfig(
        segment_size=SEGMENT_BYTES,
        cache_bytes=SERVICE_CACHE_BYTES,
        max_inodes=4096,
    )
    validate_rig(config, lfs_config, device_bytes=VOLUME_BYTES)
    fs = make_lfs(total_bytes=VOLUME_BYTES, config=lfs_config)
    scheduler.prefill(fs, config)
    return fs, config


def run_svc_aged(state) -> Outcome:
    from repro.service import RequestScheduler

    fs, config = state
    stats = RequestScheduler(fs, config).run()
    image, errors = seal_lfs(fs)
    wamp = fs.wamp_report()
    attempted = config.num_clients * config.requests_per_client
    return Outcome(
        attempted=attempted,
        failed=count_failed(
            attempted, stats.completed, _refused(stats), errors
        ),
        ops=stats.completed,
        sim_seconds=stats.elapsed,
        latencies=stats.all_latencies(),
        fsync_latencies=list(stats.latencies.get("fsync", [])),
        log_bytes=wamp["log_bytes"],
        user_bytes=wamp["user_bytes"],
        counters=_service_counters([stats]),
        images=[image],
        render=stats.render(f"svc-aged seed={config.seed}")
        + f"\n  write amplification {wamp['write_amplification']:.6f}",
        verify_errors=errors,
    )


# ----------------------------------------------------------------------
# cluster-migrate
# ----------------------------------------------------------------------


def setup_cluster_migrate(seed: int):
    from repro.cluster import ClusterConfig, MigrationSpec

    return ClusterConfig(
        shards=CLUSTER_SHARDS,
        clients=CLUSTER_CLIENTS,
        seed=seed,
        requests_per_client=CLUSTER_REQUESTS_PER_CLIENT,
        placement="hash",
        migrations=(MigrationSpec(*CLUSTER_MIGRATION),),
    )


def run_cluster_migrate(config) -> Outcome:
    from repro.cluster import run_cluster

    # run_cluster checkpoints, unmounts, hashes and verifies every shard.
    result = run_cluster(config, jobs=1, total_bytes=VOLUME_BYTES)
    stats_list = [row["stats"] for row in result.shards]
    errors = [
        f"shard {row['shard']}: {error}"
        for row in result.shards
        for error in row["verify_errors"]
    ]
    registry = result.telemetry.registry
    attempted = config.clients * config.requests_per_client
    counters = _service_counters(stats_list)
    counters.update(
        {
            "cluster.migrated_bytes": sum(
                m["bytes"] for m in result.migrations
            ),
            "cluster.redirected_requests": sum(
                m["redirected"] for m in result.migrations
            ),
            "cluster.max_shard_sim_s": result.elapsed,
        }
    )
    return Outcome(
        attempted=attempted,
        failed=count_failed(
            attempted,
            result.completed,
            sum(_refused(stats) for stats in stats_list),
            errors,
        ),
        # ClusterResult.throughput: completions over the slowest shard.
        ops=result.completed,
        sim_seconds=result.elapsed,
        latencies=result.all_latencies(),
        fsync_latencies=[
            x for stats in stats_list for x in stats.latencies.get("fsync", [])
        ],
        log_bytes=registry.value("wamp.log_bytes"),
        user_bytes=registry.value("wamp.user_bytes"),
        counters=counters,
        images=[row["image_sha"] for row in result.shards],
        render=result.render(),
        verify_errors=errors,
    )


# ----------------------------------------------------------------------
# paper-micro
# ----------------------------------------------------------------------


class SyncTimer:
    """Forwards to a file system and records the simulated duration of
    each ``sync`` call, tagged with the stage it closes (the
    micro-benchmarks flush the cache between stages)."""

    def __init__(self, fs, clock) -> None:
        self._fs = fs
        self._clock = clock
        self.stage = 0
        self.syncs: List[Tuple[int, float]] = []

    def __getattr__(self, name: str):
        return getattr(self._fs, name)

    def flush_caches(self) -> None:
        self._fs.flush_caches()
        self.stage += 1

    def sync(self) -> None:
        start = self._clock.now()
        self._fs.sync()
        self.syncs.append((self.stage, self._clock.now() - start))


def setup_paper_micro(seed: int) -> int:
    # Each benchmark gets a fresh rig (as fig3_small_file and
    # fig4_large_file build theirs), so rig builds are part of the
    # measured step and at most one 128 MiB device is alive at a time.
    return seed


# The Figure 4 stages whose inputs the seed draws: random writes, random
# reads, and the sequential re-read of the blocks the random writes
# scattered across the log.
SEEDED_STAGES = ("rand_write", "rand_read", "seq_reread")


def run_paper_micro(seed: int) -> Outcome:
    """Figures 3 and 4 on LFS and on FFS, one fresh rig per benchmark.

    Per-call latencies here take only a few model constants (a cached
    8 KiB write, a random disk read), so a percentile over them never
    moves.  The latency samples are therefore the mean per-request
    latency of each seeded LFS stage, and the fsync sample is the sync
    that closes the LFS random-write stage.
    """
    from repro.harness.experiments import new_rig
    from repro.workloads.largefile import PHASES, run_large_file_test
    from repro.workloads.smallfile import run_small_file_test

    requests = LARGE_FILE_BYTES // REQUEST_BYTES
    images: List[str] = []
    errors: List[str] = []
    lines: List[str] = []
    lfs_seconds = 0.0
    log_bytes = user_bytes = 0
    latencies: List[float] = []
    fsyncs: List[float] = []

    for kind in ("lfs", "ffs"):
        for bench in ("fig3", "fig4"):
            rig = new_rig(kind, total_bytes=PAPER_DISK_BYTES)
            fs = SyncTimer(rig.fs, rig.clock)
            if bench == "fig3":
                small = run_small_file_test(
                    fs, num_files=SMALL_FILES, file_size=SMALL_FILE_BYTES,
                    clock=rig.clock,
                )
                seconds = {
                    "create": small.create_seconds,
                    "read": small.read_seconds,
                    "delete": small.delete_seconds,
                }
            else:
                large = run_large_file_test(
                    fs, file_bytes=LARGE_FILE_BYTES,
                    request_bytes=REQUEST_BYTES, seed=seed, clock=rig.clock,
                )
                seconds = dict(large.seconds)
            lines.append(
                f"{bench} {kind}: "
                + " ".join(f"{k} {v:.9f}s" for k, v in seconds.items())
            )
            if kind == "lfs":
                lfs_seconds += sum(seconds.values())
                image, found = seal_lfs(rig.fs)
                wamp = rig.fs.wamp_report()
                log_bytes += wamp["log_bytes"]
                user_bytes += wamp["user_bytes"]
                if bench == "fig4":
                    latencies = [seconds[s] / requests for s in SEEDED_STAGES]
                    stage = PHASES.index("rand_write")
                    fsyncs = [d for s, d in fs.syncs if s == stage]
            else:
                image, found = seal_ffs(rig.fs)
            images.append(image)
            errors.extend(f"{bench} {kind}: {error}" for error in found)
            del rig, fs  # free this device before the next rig's

    attempted = 2 * PAPER_OPS_PER_FS
    return Outcome(
        attempted=attempted,
        failed=count_failed(attempted, attempted, 0, errors),
        ops=PAPER_OPS_PER_FS,
        sim_seconds=lfs_seconds,
        latencies=latencies,
        fsync_latencies=fsyncs,
        log_bytes=log_bytes,
        user_bytes=user_bytes,
        images=images,
        render="\n".join(lines),
        verify_errors=errors,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]
    run: Callable[[Any], Outcome]
    attempted: int
    """Operations one iteration attempts."""
    seeds: int
    """Consecutive seeds one benchmark run covers: ``--seed n`` runs
    seeds ``n * seeds`` .. ``n * seeds + seeds - 1``."""

    def seeds_for(self, seed: int) -> List[int]:
        return [seed * self.seeds + i for i in range(self.seeds)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "svc-aged",
            setup_svc_aged,
            run_svc_aged,
            attempted=SVC_CLIENTS * SVC_REQUESTS_PER_CLIENT,
            seeds=4,
        ),
        Workload(
            "cluster-migrate",
            setup_cluster_migrate,
            run_cluster_migrate,
            attempted=CLUSTER_CLIENTS * CLUSTER_REQUESTS_PER_CLIENT,
            seeds=8,
        ),
        Workload(
            "paper-micro",
            setup_paper_micro,
            run_paper_micro,
            attempted=2 * PAPER_OPS_PER_FS,
            seeds=1,
        ),
    )
}


def import_all() -> None:
    """Import every module the workloads call, so that import time is
    counted once, in set-up, and never inside a measured step."""
    import repro.cluster  # noqa: F401
    import repro.ffs.fsck  # noqa: F401
    import repro.harness.experiments  # noqa: F401
    import repro.lfs.filesystem  # noqa: F401
    import repro.lfs.verify  # noqa: F401
    import repro.service  # noqa: F401
    import repro.workloads.largefile  # noqa: F401
    import repro.workloads.smallfile  # noqa: F401
