PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench-smoke bench bench-diff perfbench-smoke trace crashtest chaos service-bench cluster-bench ci

test:
	$(PYTHON) -m pytest -x -q

# Prefer ruff when available; otherwise the dependency-free fallback
# (same F401/F841 scope, see src/repro/tools/lint.py).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		$(PYTHON) -m repro.tools.lint src tests benchmarks; \
	fi

# Smoke sizes are too small for the full 2x cleaning / 1.2x seq_read
# speedup gates (the O(n) terms barely register at 256 segments); 1.0
# still catches the optimized paths ever being slower than the legacy
# ones.  The smoke run also asserts telemetry-on produces identical
# simulated results; the 3% telemetry-disabled-vs-baseline gate needs
# the committed BENCH_hotpaths.json scale, so only `make bench`
# exercises it (the smoke run records a scale-mismatch skip note
# instead of flaking).
bench-smoke:
	$(PYTHON) benchmarks/perf_harness.py --smoke --strict \
		--min-cleaning-speedup 1.0 --min-seq-read-speedup 1.0 \
		--min-checksum-speedup 1.0 --min-dispatch-speedup 1.0 \
		--output /tmp/BENCH_smoke.json

# Full gates: >=2x cleaning, >=1.2x seq_read, >=2x batch_checksum,
# >=2x scheduler_dispatch, and no workload more than 3% slower than
# the committed BENCH_hotpaths.json baseline.
bench:
	$(PYTHON) benchmarks/perf_harness.py --scale small --strict

# Compare two smoke-scale harness runs with the `repro bench-diff`
# gate (expects bench-smoke's /tmp/BENCH_smoke.json to exist).  The
# tolerance is deliberately loose — smoke legs run for milliseconds on
# shared CI machines, so this step gates schema drift, workload
# comparability and order-of-magnitude slowdowns; the single-digit 3%
# gate lives in `make bench` against the committed baseline.
bench-diff:
	$(PYTHON) benchmarks/perf_harness.py --smoke --no-legacy \
		--output /tmp/BENCH_smoke_b.json
	$(PYTHON) -m repro bench-diff /tmp/BENCH_smoke.json \
		/tmp/BENCH_smoke_b.json --max-regression 200

# Seeded-fingerprint smoke for the repo benchmark (BENCHMARK.json):
# the perfbench unit tests, then one short run of each workload.  Fails
# if any image fingerprint no longer matches perfbench/baseline.json or
# any run reports "correct": false, so a refactor that changes
# simulated behaviour cannot pass unnoticed.
PERFBENCH_WORKLOADS := svc-aged cluster-migrate paper-micro

perfbench-smoke:
	$(PYTHON) -m pytest perfbench
	@for w in $(PERFBENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 0 --seconds 1 \
			> /tmp/perfbench_$$w.txt || exit 1; \
		cat /tmp/perfbench_$$w.txt; \
		if grep -q 'DIFFERS from baseline' /tmp/perfbench_$$w.txt \
			|| grep -q '"correct": false' /tmp/perfbench_$$w.txt; then \
			echo "perfbench-smoke: $$w changed simulated behaviour" >&2; \
			exit 1; \
		fi; \
	done

# Regenerate the committed trace-attribution report: a seeded
# 16-client serve-sim with full request tracing, decomposed into
# queueing / admission-retry / commit-wait / fs / disk /
# cleaner-throttle (components sum to the measured latency) plus the
# write-amplification ledger.
trace:
	$(PYTHON) -m repro trace --output BENCH_trace.json

# Fixed seed, small trial count: CI asserts zero unhandled exceptions
# (the command exits nonzero if any trial escapes with an untyped
# error), not any particular corruption mix.
crashtest:
	$(PYTHON) -m repro crashtest --trials 10 --seed 0

# Crash-under-load campaign: boot the full service rig on a faulty
# device, crash it at adversarial instants, remount, and check the
# durability contract (every acked fsync intact, no torn client state).
# Exits nonzero on any contract violation or unhandled escape; the
# jobs=2 rerun must render byte-identically to the serial one.
chaos:
	$(PYTHON) -m repro chaos --trials 6 --seed 0 --clients 4 \
		--requests-per-client 40 --verbose > /tmp/chaos_j1.txt
	$(PYTHON) -m repro chaos --trials 6 --seed 0 --clients 4 \
		--requests-per-client 40 --verbose --jobs 2 > /tmp/chaos_j2.txt
	diff /tmp/chaos_j1.txt /tmp/chaos_j2.txt
	@cat /tmp/chaos_j1.txt

# Tiny client sweep; exits nonzero if any request is dropped.  The
# full sweep (and the committed BENCH_service.json) comes from
# benchmarks/test_service_scaling.py.
service-bench:
	$(PYTHON) -m repro.service.bench --smoke

# Sharded scale-out smoke: a tiny cluster sweep run twice (serial and
# jobs=2) whose reports must be byte-identical — the shard-group
# merge discipline makes simulated numbers a pure function of the
# seed, so any divergence is a determinism bug, and `repro bench-diff`
# gates the throughput/p99 numbers point by point on top.  The final
# step regenerates the cluster section onto a copy of the committed
# BENCH_service.json and diffs it, exercising the service-report
# bench-diff dispatch end to end.  Every run exits nonzero if any
# shard image fails verification.
cluster-bench:
	$(PYTHON) -m repro.cluster.bench --smoke \
		--output /tmp/BENCH_cluster_a.json
	$(PYTHON) -m repro.cluster.bench --smoke --jobs 2 \
		--output /tmp/BENCH_cluster_b.json
	diff /tmp/BENCH_cluster_a.json /tmp/BENCH_cluster_b.json
	$(PYTHON) -m repro bench-diff /tmp/BENCH_cluster_a.json \
		/tmp/BENCH_cluster_b.json --max-regression 0.001
	cp BENCH_service.json /tmp/BENCH_service_new.json
	$(PYTHON) -m repro.cluster.bench --smoke \
		--output /tmp/BENCH_service_new.json
	$(PYTHON) -m repro bench-diff BENCH_service.json \
		/tmp/BENCH_service_new.json

ci: lint test bench-smoke bench-diff perfbench-smoke service-bench cluster-bench crashtest chaos
