#!/usr/bin/env python3
"""End-to-end benchmark of the LFS simulator.

Runs one workload in this process (``jobs=1``) for about ``--seconds``
seconds of host time and prints every metric by name and unit, then one
JSON line with the result::

    python3 perfbench/run.py --workload svc-aged --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: host set-up, wall and CPU
time, peak RSS, and the simulated throughput, latency and write
amplification of the workload's seeds pooled together.  Each cycle runs
every seed of the workload once; cycles repeat until ``--seconds`` have
passed.  Host times are medians over iterations, normalised for the
host's speed at the time (``speed.py``: seconds on the reference host);
the raw seconds are printed too.

``--trace 1`` measures the per-layer metrics on the run's first seed:
one plain iteration (the untraced reference), one with span wrappers and
the counter tap, then cProfile'd iterations until ``--seconds`` have
passed.  The traced totals must add up, and every iteration must leave
the same fingerprint (final image hashes plus stats render).

Both modes check correctness: every final image must pass its offline
check, and dropped, refused or unfinished requests count as failed.
Fingerprints are compared with ``perfbench/baseline.json`` and a
mismatch is reported, not failed: it means simulated behaviour changed.
"""

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BASELINE = HERE / "baseline.json"


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; the result line reports exactly these."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@contextmanager
def profiling(profiler):
    """Run the block under ``profiler`` (None: unprofiled)."""
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


class Iteration:
    """Host timings (:class:`speed.Span`) and outcome of one set-up +
    measured step."""

    def __init__(self, workload, seed: int, probe, profiler=None) -> None:
        gc.collect()
        self.seed = seed
        self.outcome = None
        self.error = None
        try:
            mark = probe.mark()
            with profiling(profiler):
                state = workload.setup(seed)
            self.setup = probe.span_since(mark)
            mark = probe.mark()
            with profiling(profiler):
                self.outcome = workload.run(state)
            self.run = probe.span_since(mark)
        except Exception:  # reported as failed operations, not a crash
            self.error = traceback.format_exc()
            print(f"seed {seed}: exception\n{self.error}", file=sys.stderr)


def load_baseline() -> dict:
    if BASELINE.is_file():
        return json.loads(BASELINE.read_text())
    return {}


def fingerprint_report(name: str, outcomes: dict, record: bool) -> None:
    """Print, per seed, whether the fingerprint matches the baseline."""
    baseline = load_baseline()
    known = baseline.setdefault(name, {})
    for seed, outcome in sorted(outcomes.items()):
        fp = outcome.fingerprint()
        expected = known.get(str(seed))
        if expected is None:
            verdict = "no baseline for this seed"
        elif expected == fp:
            verdict = "matches baseline"
        else:
            verdict = "DIFFERS from baseline (simulated behaviour changed)"
        print(
            f"  fingerprint seed {seed}: {verdict} "
            f"[{len(fp['images'])} image(s), render {fp['render_sha256'][:12]}]"
        )
        if record:
            known[str(seed)] = fp
    if record:
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"  baseline -> {BASELINE.name}")


def deterministic(iterations) -> bool:
    """Every iteration of a seed left the same fingerprint and samples."""
    first = {}
    for it in iterations:
        if it.outcome is None:
            continue
        o = it.outcome
        key = (o.fingerprint(), o.latencies, o.fsync_latencies, o.counters)
        if first.setdefault(it.seed, key) != key:
            print(f"seed {it.seed}: results differ between iterations",
                  file=sys.stderr)
            return False
    return True


def run_end_to_end(workload, seeds, seconds, probe, imports, record):
    from workloads import sim_metrics

    iterations = []
    start = time.perf_counter()
    while True:
        cycle = [Iteration(workload, seed, probe) for seed in seeds]
        iterations.extend(cycle)
        if any(it.error for it in cycle):
            break
        if time.perf_counter() - start >= seconds:
            break
    ok = [it for it in iterations if it.outcome is not None]

    def host(phase, attr):
        # Median over every iteration, whichever seed it ran.
        values = [getattr(getattr(it, phase), attr) for it in ok]
        return statistics.median(values) if values else 0.0

    firsts = {}
    for it in ok:
        firsts.setdefault(it.seed, it.outcome)
    metrics = {
        "setup_s": imports.norm_wall_s + host("setup", "norm_wall_s"),
        "wall_s": host("run", "norm_wall_s"),
        "cpu_s": host("run", "norm_cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if len(firsts) == len(seeds):
        metrics.update(sim_metrics([firsts[s] for s in seeds]))
    else:
        metrics.update({name: 0.0 for name in metric_units("end_to_end")
                        if name not in metrics})
    correct = (
        len(firsts) == len(seeds)
        and not any(it.error for it in iterations)
        and deterministic(iterations)
    )
    cycles = len(iterations) // len(seeds)
    print(f"  {cycles} cycle(s) of {len(seeds)} seed(s), "
          f"{len(iterations)} iteration(s)")
    if ok:
        print(
            f"  raw host seconds (median): set-up "
            f"{imports.wall_s + host('setup', 'wall_s'):.6f}, wall "
            f"{host('run', 'wall_s'):.6f}, cpu {host('run', 'cpu_s'):.6f}; "
            f"host speed {host('run', 'speed'):.4f} of the reference"
        )
    fingerprint_report(workload.name, firsts, record)
    return metrics, metric_units("end_to_end"), iterations, correct


def run_traced(workload, seed, seconds, probe):
    import layers

    repro_dir = str(SRC / "repro")
    start = time.perf_counter()
    plain = Iteration(workload, seed, probe)
    with layers.instrumented() as (spans, tap):
        tapped = Iteration(workload, seed, probe)
    profiled = []
    while not any(it.error for it in [plain, tapped] + profiled):
        profiler = cProfile.Profile()
        it = Iteration(workload, seed, probe, profiler)
        table = pstats.Stats(profiler).stats
        it.self_s = layers.self_time_by_package(table, repro_dir)
        it.profile_total_s = sum(entry[2] for entry in table.values())
        it.traced_s = it.setup.wall_s + it.run.wall_s if it.outcome else 0.0
        profiled.append(it)
        if time.perf_counter() - start >= seconds:
            break
    iterations = [plain, tapped] + profiled
    correct = not any(it.error for it in iterations) and deterministic(
        iterations
    )
    units = metric_units("per_layer")
    metrics = {name: 0.0 for name in units}
    if correct:
        # The profiled iteration with the median traced time.
        chosen = sorted(profiled, key=lambda it: it.traced_s)[
            (len(profiled) - 1) // 2
        ]
        total = sum(chosen.self_s.values())
        if abs(total - chosen.profile_total_s) > 1e-6 * chosen.profile_total_s:
            print(
                f"per-layer self times add up to {total:.6f}s, "
                f"the profile to {chosen.profile_total_s:.6f}s",
                file=sys.stderr,
            )
            correct = False
        for name, value in chosen.self_s.items():
            metrics[f"{name}.self_s"] = value
        metrics.update(spans)
        metrics.update(tap.metrics())
        metrics.update(tapped.outcome.counters)
        metrics["trace.self_total_s"] = total
        metrics["trace.wall_s"] = chosen.traced_s
        metrics["trace.untraced_wall_s"] = (
            plain.setup.wall_s + plain.run.wall_s
        )
        metrics["trace.overhead_s"] = (
            statistics.median(it.run.wall_s for it in profiled)
            - plain.run.wall_s
        )
    print(f"  per-layer run on seed {seed}: 1 plain, 1 instrumented, "
          f"{len(profiled)} profiled iteration(s)")
    return metrics, units, iterations, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="store this run's fingerprints in perfbench/baseline.json",
    )
    args = parser.parse_args(argv)
    probe = SpeedProbe()
    if not args.trace:
        # Traced host times stay raw: the probe would be profiled too.
        probe.start()
    try:
        return measure(args, probe)
    finally:
        probe.stop()


def measure(args, probe) -> int:
    """Run ``args.workload`` and print its metrics; 2 if it cannot run."""
    start = probe.mark()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(want one of {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workloads.import_all()
    imports = probe.span_since(start)

    seeds = workload.seeds_for(args.seed)
    print(f"== {workload.name}: seeds {seeds}, trace {args.trace} ==")
    if args.trace:
        metrics, units, iterations, correct = run_traced(
            workload, seeds[0], args.seconds, probe
        )
    else:
        metrics, units, iterations, correct = run_end_to_end(
            workload, seeds, args.seconds, probe, imports,
            args.record_baseline,
        )
    attempted = sum(workload.attempted for _ in iterations)
    failed = sum(
        it.outcome.failed if it.outcome else workload.attempted
        for it in iterations
    )
    correct = correct and failed == 0
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}"
        )
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:>18.6f} {unit}")
    print(f"  {'failed_share':28s} {failed / attempted:>18.6f} "
          f"({failed}/{attempted})")
    print(f"  correct: {correct}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
