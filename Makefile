# Developer entry points. `make verify` is the tier-1 gate every change must
# pass; see .claude/skills/verify/SKILL.md for the full end-to-end recipe.

GO ?= go

# Which PR's benchmark suite `make bench` regenerates (bench-PR2, bench-PR4,
# ...); e.g. `BENCH=PR2 make bench` rebuilds BENCH_PR2.json.
BENCH ?= PR10

.PHONY: verify fmtcheck build test race race-resilience mathx-accuracy \
	precision-accuracy fuzz-smoke network-resilience shard-determinism checkpoint-compat ingest-lag \
	e2ebench bench-smoke chaos vet crossbuild \
	bench bench-PR2 bench-PR4 bench-PR5 bench-PR6 bench-PR7 bench-PR8 \
	bench-PR9 bench-PR10 bench-parallel bench-throughput

verify: fmtcheck vet crossbuild build e2ebench race-resilience mathx-accuracy precision-accuracy fuzz-smoke network-resilience shard-determinism checkpoint-compat ingest-lag bench-smoke race

# Fail when any file needs gofmt; list the offenders.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The float32 and exact-mode float64 mass kernels have amd64 assembly
# loops and pure-Go fallbacks for every other architecture
# (internal/kernel/mass32_other.go, mass64_other.go). amd64 `go vet`
# already checks the assembly against its Go declarations (asmdecl); vet a
# 64-bit and build a 32-bit non-amd64 target so the fallbacks keep
# compiling.
crossbuild:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

# The end-to-end benchmark is its own module, so the root `go build ./...`
# never compiles it. Vet and test it here so a change to the calls it makes
# (shard.Build, Group.Detach, core.ServeConfig.MaxBatch, AdmitSharded, ...)
# fails verify instead of the next benchmark run. Offline: it needs no
# module downloads.
e2ebench:
	GOPROXY=off $(GO) -C e2ebench vet ./... && GOPROXY=off $(GO) -C e2ebench test ./...

race:
	$(GO) test -race ./...

# Race-check the resilience and serving layers first: the fault injector,
# the degradation machinery, the request coalescer, the multi-model registry
# lifecycle, and the process-global erf switch are the most
# concurrency-sensitive code in the tree. (Go's test cache makes the overlap
# with `race` free when nothing changed.)
race-resilience:
	$(GO) test -race ./internal/fault/... ./internal/core/... ./internal/serve/... \
		./internal/mathx/... ./internal/kde/... ./internal/checkpoint/... \
		./internal/registry/... ./internal/shard/... ./internal/ingest/... \
		./internal/table/...

# The fast-erf accuracy contract (|error| ≤ 1e-7 over the 2M-point sweep)
# must actually run — a skipped sweep fails verify, not just a failing one.
mathx-accuracy:
	@out="$$($(GO) test -count=1 -run 'TestFastErfAccuracy|TestModeDefaultExact' -v ./internal/mathx/)"; \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	echo "$$out" | grep -q -- '--- PASS: TestFastErfAccuracy' || \
		{ echo "mathx accuracy sweep did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestModeDefaultExact' || \
		{ echo "mathx exact-mode bit-identity check did not run"; exit 1; }

# The precision-tier error contracts must actually run, like mathx-accuracy:
# the float32 segment-table sweep (|error| ≤ 1e-6), the vector mass loops'
# bit-identity with the pure-Go loops (float32, and the exact-mode float64
# kernels with their vector erf and exp swept against package math, which
# is required where the log says the float64 vector path exists), and
# the end-to-end tier contract (float32 ≤ 1e-5 max relative estimate error
# against the float64 path, and the verify gate's fallback behavior).
precision-accuracy:
	@out="$$($(GO) test -count=1 -run 'TestFastErf32Accuracy' -v ./internal/mathx/ && \
		$(GO) test -count=1 -run 'TestGaussianMass32SIMDMatchesGo|TestGaussianMass64SIMDMatchesGo|TestErfExp64SIMDMatchesMath' -v ./internal/kernel/ && \
		$(GO) test -count=1 -run 'TestPrecisionTierContracts' -v ./internal/kde/ && \
		$(GO) test -count=1 -run 'TestPrecisionVerifyGate' -v ./internal/core/)"; \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	echo "$$out" | grep -q -- '--- PASS: TestFastErf32Accuracy' || \
		{ echo "float32 erf accuracy sweep did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestGaussianMass32SIMDMatchesGo' || \
		{ echo "float32 vector-vs-Go mass kernel check did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestGaussianMass64SIMDMatchesGo' || \
		{ echo "float64 vector-vs-Go mass kernel check did not run"; exit 1; }; \
	if echo "$$out" | grep -q -- 'vector path: AVX-512F with FMA exp'; then \
		echo "$$out" | grep -q -- '--- PASS: TestErfExp64SIMDMatchesMath' || \
			{ echo "float64 vector erf/exp sweep did not run"; exit 1; }; \
	fi; \
	echo "$$out" | grep -q -- '--- PASS: TestPrecisionTierContracts' || \
		{ echo "precision tier contract sweep did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestPrecisionVerifyGate' || \
		{ echo "precision verify-gate check did not run"; exit 1; }

# A short fuzz of each vector mass kernel against its pure-Go oracle
# (FuzzGaussianMass32, FuzzGaussianMass64), 10 s each. Both must report
# that they ran, so a fuzz target that no longer matches fails verify.
fuzz-smoke:
	@for f in FuzzGaussianMass32 FuzzGaussianMass64; do \
		out="$$($(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s -v ./internal/kernel/ 2>&1)"; \
		status=$$?; echo "$$out" | tail -3; \
		if [ $$status -ne 0 ]; then echo "$$out"; exit $$status; fi; \
		echo "$$out" | grep -q -- "--- PASS: $$f " || { echo "$$f did not run"; exit 1; }; \
	done

# The networked-serving robustness contract must actually run, mirroring
# mathx-accuracy: the wire-layer chaos test (injected drops/5xx/latency at
# 4× overload with exact admission accounting), the cancellation race on the
# request coalescer (a cancelled caller's batch slot is reclaimed, never
# double-counted), the coalescer's work-conserving batching contract, the
# networked overload experiment (sheds under a CPU-idle service time), and
# the client retry/idempotency contract (feedback is never retried). All run
# under the race detector.
network-resilience:
	@out="$$($(GO) test -race -count=1 -run 'TestNetworkChaosAccountingExact|TestShedWhenSaturated|TestDeadlinePropagatesToModel' -v ./internal/httpserve/ && \
		$(GO) test -race -count=1 -run 'TestCancelRaceExactAccounting|TestCloseDrainsWithCancelledRequests|TestBatchIsWhatQueuedWhileBusy' -v ./internal/serve/ && \
		$(GO) test -race -count=1 -run 'TestNetworkShape' -v ./internal/experiments/ && \
		$(GO) test -race -count=1 -run 'TestFeedbackAndAnalyzeNeverRetried|TestEstimateRetriesTransientFailures' -v ./internal/httpclient/)"; \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	echo "$$out" | grep -q -- '--- PASS: TestNetworkChaosAccountingExact' || \
		{ echo "network chaos accounting test did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestCancelRaceExactAccounting' || \
		{ echo "coalescer cancellation race test did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestBatchIsWhatQueuedWhileBusy' || \
		{ echo "coalescer batching contract test did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestNetworkShape' || \
		{ echo "network overload experiment test did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestFeedbackAndAnalyzeNeverRetried' || \
		{ echo "client idempotency contract test did not run"; exit 1; }

# The sharding determinism contract must actually run, like mathx-accuracy:
# K-shard scatter/gather must be bit-identical (Float64bits) to the
# single-shard estimator at every shard count, precision tier, and erf
# mode, a checkpointed group restored from disk must continue
# bit-identically, and a group must learn exactly like the unsharded
# Adaptive estimator (same bandwidth bits after every feedback, same
# Scott's-rule reset under injected non-finite gradients). A skipped sweep
# fails verify, not just a failing one.
shard-determinism:
	@out="$$($(GO) test -count=1 -run 'TestShardBitIdentity|TestShardCheckpointRoundTrip|TestShardFeedbackInvariance|TestGroupLearnsLikeCore' -v ./internal/shard/)"; \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	echo "$$out" | grep -q -- '--- PASS: TestShardBitIdentity' || \
		{ echo "shard bit-identity sweep did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestShardCheckpointRoundTrip' || \
		{ echo "shard checkpoint round-trip check did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestShardFeedbackInvariance' || \
		{ echo "shard feedback-invariance check did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestGroupLearnsLikeCore' || \
		{ echo "group-vs-core learning-step check did not run"; exit 1; }

# The checkpoint contracts of both model engines must actually run, like
# mathx-accuracy: pre-meta (v1) frames still decode; core checkpoints
# (host and device) and Save/Load streams restore bit-identically and keep a
# configured karma loss; a sharded group restores bit-identically with its
# query count; CRC-valid frames with hostile contents (NaN karma or
# bandwidth, wrong karma length, a ragged sample) fail to restore without a
# panic in either engine; and a registry evict/restore reproduces every
# estimate. A skipped test fails verify, not just a failing one.
CHECKPOINT_TESTS = TestV1FrameBackCompat TestCheckpointRoundTripBitIdentical \
	TestCheckpointRoundTripDevice TestSaveLoadRoundTrip TestRestoreKeepsKarmaLoss \
	TestShardCheckpointRoundTrip TestShardQueriesSurviveRestore \
	TestHostileCheckpointFrames TestLifecycleEvictRestoreBitIdentical

checkpoint-compat:
	@out="$$($(GO) test -count=1 -run 'TestV1FrameBackCompat' -v ./internal/checkpoint/ && \
		$(GO) test -count=1 -run 'TestCheckpointRoundTripBitIdentical|TestCheckpointRoundTripDevice|TestSaveLoadRoundTrip|TestRestoreKeepsKarmaLoss' -v ./internal/core/ && \
		$(GO) test -count=1 -run 'TestShardCheckpointRoundTrip|TestShardQueriesSurviveRestore|TestHostileCheckpointFrames' -v ./internal/shard/ && \
		$(GO) test -count=1 -run 'TestLifecycleEvictRestoreBitIdentical' -v ./internal/registry/)"; \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	for t in $(CHECKPOINT_TESTS); do \
		echo "$$out" | grep -q -- "--- PASS: $$t (" || \
			{ echo "checkpoint test $$t did not run"; exit 1; }; \
	done

# The continuous-ingestion contracts must actually run, like mathx-accuracy:
# the serving-under-mutation race test (>= 10k concurrent mutations against
# registry models, sharded and unsharded, under the race detector), the
# exactly-once checkpoint/restore round-trips (core and sharded: replay from
# the restored cursor is bit-identical to the uninterrupted run), and the
# drift detector auto-triggering a background ANALYZE on an evolving
# workload. A skipped test fails verify, not just a failing one.
ingest-lag:
	@out="$$($(GO) test -race -count=1 -run 'TestIngestRaceUnderServing' -v ./internal/ingest/ && \
		$(GO) test -count=1 -run 'TestIngestExactlyOnceRestoreCore|TestIngestExactlyOnceRestoreSharded|TestIngestDriftTriggersAnalyze' -v ./internal/ingest/)"; \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	echo "$$out" | grep -q -- '--- PASS: TestIngestRaceUnderServing' || \
		{ echo "ingest serving race test did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestIngestExactlyOnceRestoreCore' || \
		{ echo "ingest exactly-once core restore round-trip did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestIngestExactlyOnceRestoreSharded' || \
		{ echo "ingest exactly-once sharded restore round-trip did not run"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS: TestIngestDriftTriggersAnalyze' || \
		{ echo "ingest drift-trigger test did not run"; exit 1; }

# The serving experiments' benchmark wrappers must actually run, once each:
# their own b.Fatal checks (exactly-once ingest accounting, a drift-scheduled
# ANALYZE) never run under `go test ./...`. Each benchmark must print its
# result line, so a skipped benchmark fails verify, not just a failing one.
# BenchmarkAnalyzeUnderLoad is left out (one iteration takes about a minute
# on a 2-vCPU host); TestAnalyzeUnderLoadShape covers it in the test suite.
SMOKE_BENCHES = BenchmarkServeThroughput BenchmarkNetworkResilience \
	BenchmarkRegistryMixedTraffic BenchmarkShardedEstimate BenchmarkIngestServing

bench-smoke:
	@out="$$($(GO) test -run TestNothing -bench 'BenchmarkServeThroughput|BenchmarkNetworkResilience|BenchmarkRegistryMixedTraffic|BenchmarkShardedEstimate|BenchmarkIngestServing' -benchtime 1x .)"; \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	for b in $(SMOKE_BENCHES); do \
		echo "$$out" | grep -qE "^$$b[^[:space:]]*[[:space:]]+1[[:space:]]" || \
			{ echo "$$b did not run"; exit 1; }; \
	done

# Chaos suite: deterministic fault schedules (failed transfers/launches,
# diverged optimizers, non-finite gradients, corrupted checkpoints) against
# every estimator mode, asserting the degradation-ladder acceptance criteria.
chaos:
	$(GO) test -race -v -run 'TestChaos|TestTransientFault|TestOptimizerDivergence|TestFeedbackPanic|TestCheckpointCorruption|TestServerDeviceFault' ./internal/core/

# Micro-benchmarks for the host parallel runtime (see BENCH_PR1.json).
bench-parallel:
	$(GO) test -run TestNothing -bench 'BenchmarkObjective|BenchmarkKDEGradient' -benchmem -benchtime 5x .

# Serving throughput at 1/4/16/64 closed-loop clients (see BENCH_PR4.json).
# The coalescer is work-conserving (no fill wait), so one client already
# keeps a CPU busy and qps need not grow with the client count: it is
# roughly flat from 1 to 16 clients on a 2-vCPU host (815 → 1046 → 990).
bench-throughput:
	$(GO) test -run TestNothing -bench BenchmarkServeThroughput -benchtime 3x .

bench: bench-$(BENCH)

# PR2: the objective with and without a live metrics registry (<5%
# criterion), the estimate/gradient hot paths, and the raw instrument costs.
BENCH_CMD2 = $(GO) test -run TestNothing -bench 'BenchmarkObjective$$|BenchmarkObjectiveInstrumented' -benchtime 5x .
BENCH_CMD2B = $(GO) test -run TestNothing -bench 'BenchmarkKDEGradient|BenchmarkKDEEstimate' -benchmem -benchtime 100x .
BENCH_CMD2C = $(GO) test -run TestNothing -bench . -benchmem ./internal/metrics/

bench-PR2:
	$(BENCH_CMD2) > bench2.out
	$(BENCH_CMD2B) >> bench2.out
	$(BENCH_CMD2C) >> bench2.out
	$(GO) run ./cmd/benchjson -pr 2 \
		-title "Metrics & observability layer, plus feedback-path correctness fixes" \
		-note "BenchmarkObjectiveInstrumented wraps the objective with live counters exactly as bandwidth.Optimal does; it must stay within 5% of BenchmarkObjective. The internal/metrics entries are the raw per-event instrument costs (nil variants are the uninstrumented no-op path)." \
		-cmd "$(BENCH_CMD2)" -cmd "$(BENCH_CMD2B)" -cmd "$(BENCH_CMD2C)" \
		-out BENCH_PR2.json bench2.out
	rm -f bench2.out

# PR4: the columnar fused serving path. The batch evaluator in its three
# configurations (generic/exact is the pre-PR layout, fused/fast the new
# serving default candidate; ≥2× is the acceptance bar), end-to-end serving
# throughput under closed-loop concurrency, and the scalar erf kernels.
BENCH_CMD4 = $(GO) test -run TestNothing -bench BenchmarkSelectivityBatch -benchmem -benchtime 30x .
BENCH_CMD4B = $(GO) test -run TestNothing -bench BenchmarkServeThroughput -benchtime 3x .
BENCH_CMD4C = $(GO) test -run TestNothing -bench 'BenchmarkMathErf|BenchmarkFastErf' ./internal/mathx/

bench-PR4:
	$(BENCH_CMD4) > bench4.out
	$(BENCH_CMD4B) >> bench4.out
	$(BENCH_CMD4C) >> bench4.out
	$(GO) run ./cmd/benchjson -pr 4 \
		-title "Serving-path overhaul: columnar sample layout, fused fast-erf kernels, and concurrent request coalescing" \
		-note "BenchmarkSelectivityBatch compares the pre-PR row-major query-at-a-time batch loop (generic-exact) against the columnar fused kernels (fused-exact) and the fused kernels on the polynomial erf (fused-fast); the serving-path criterion is fused-fast ≥ 2x generic-exact. BenchmarkServeThroughput drives the coalescing server with closed-loop concurrent clients; qps must rise monotonically from 1 to 16 clients. The mathx entries are the scalar erf kernels the fused loops call." \
		-cmd "$(BENCH_CMD4)" -cmd "$(BENCH_CMD4B)" -cmd "$(BENCH_CMD4C)" \
		-out BENCH_PR4.json bench4.out
	rm -f bench4.out

# PR5: snapshot-isolated serving. BenchmarkAnalyzeUnderLoad runs the
# closed-loop ANALYZE-under-load experiment — the estimate p99 inside ANALYZE
# windows with estimates serialized behind the writer mutex versus served
# lock-free from the published snapshot; the acceptance criterion is
# p99-speedup ≥ 10. BenchmarkServeThroughput re-baselines end-to-end serving
# on the snapshot path.
BENCH_CMD5 = $(GO) test -run TestNothing -bench BenchmarkAnalyzeUnderLoad -benchtime 1x .
BENCH_CMD5B = $(GO) test -run TestNothing -bench BenchmarkServeThroughput -benchtime 3x .

bench-PR5:
	$(BENCH_CMD5) > bench5.out
	$(BENCH_CMD5B) >> bench5.out
	$(GO) run ./cmd/benchjson -pr 5 \
		-title "Snapshot-isolated serving: tuning never blocks estimates; coalescer deadline and accounting fixes" \
		-note "BenchmarkAnalyzeUnderLoad drives 8 closed-loop estimate clients while ANALYZE (Reoptimize) runs concurrently and reports the estimate p99 over queries whose lifetime overlapped an ANALYZE window: serialized-p99-ms is the pre-PR behavior (every estimate queues behind the writer mutex for the whole re-optimization), snapshot-p99-ms serves lock-free from the published model snapshot; the acceptance criterion is p99-speedup >= 10, with snapshot-path estimates bit-identical to the locked path (TestSnapshotPathBitIdenticalAllModes). BenchmarkServeThroughput re-baselines coalesced serving throughput on the snapshot path." \
		-cmd "$(BENCH_CMD5)" -cmd "$(BENCH_CMD5B)" \
		-out BENCH_PR5.json bench5.out
	rm -f bench5.out

# PR6: the compressed float32 columnar serving tier. The batch evaluator
# across all four configurations (generic-exact, fused-exact, fused-fast,
# fused-float32 — each reporting bytes/query for the tier it streams), plus
# the float64 and float32 mass-kernel micro-benchmarks. The acceptance
# criterion is fused-float32 ≥ 2x fused-fast (PR4's recorded 57ms serving
# baseline). An int16 tier once measured here has since been deleted
# (DESIGN.md, "Why there is no int16 tier").
BENCH_CMD6 = $(GO) test -run TestNothing -bench BenchmarkSelectivityBatch -benchmem -benchtime 30x .
BENCH_CMD6B = $(GO) test -run TestNothing -bench 'BenchmarkGaussianMassFill|BenchmarkGaussianMassMul' -benchtime 1000x ./internal/kernel/

bench-PR6:
	$(BENCH_CMD6) > bench6.out
	$(BENCH_CMD6B) >> bench6.out
	$(GO) run ./cmd/benchjson -pr 6 \
		-title "Compressed float32 columnar tier with error-contracted precision modes" \
		-note "BenchmarkSelectivityBatch compares the float64 paths (generic-exact, fused-exact, fused-fast) against the compressed float32 tier (fused-float32); the acceptance criterion is fused-float32 >= 2x fused-fast, the PR4 serving baseline. Each variant reports bytes/query (rows x dims x element size: 8 or 4 bytes per value) and benchjson derives the effective streaming bandwidth (derived-GB/s). The internal/kernel entries are the per-column mass kernels at each element width. The tier error contract (float32 <= 1e-5 max relative error) is enforced separately by 'make precision-accuracy'." \
		-cmd "$(BENCH_CMD6)" -cmd "$(BENCH_CMD6B)" \
		-out BENCH_PR6.json bench6.out
	rm -f bench6.out

# PR7: the multi-model registry. BenchmarkRegistryMixedTraffic serves eight
# single-table models plus one join model from one registry under skewed
# closed-loop traffic with a mid-run ANALYZE and eviction; the isolation
# criterion is other-p99-ratio <= 2 (worst during-ANALYZE / load-matched
# quiescent p99 over models that were not the lifecycle targets).
# BenchmarkAnalyzeUnderLoad re-baselines single-model ANALYZE isolation.
BENCH_CMD7 = $(GO) test -run TestNothing -bench BenchmarkRegistryMixedTraffic -benchtime 3x .
BENCH_CMD7B = $(GO) test -run TestNothing -bench BenchmarkAnalyzeUnderLoad -benchtime 1x .

bench-PR7:
	$(BENCH_CMD7) > bench7.out
	$(BENCH_CMD7B) >> bench7.out
	$(GO) run ./cmd/benchjson -pr 7 \
		-title "Multi-model registry for one-process serving" \
		-note "BenchmarkRegistryMixedTraffic admits eight single-table models plus one join model into one registry.Registry sharing a worker pool, device, and metrics registry, then drives skewed closed-loop traffic while an ANALYZE fires on the second-hottest model and an eviction (checkpoint-to-disk, transparent restore on the next routed estimate) on the third-hottest. other-p99-ratio is the worst during-ANALYZE / quiescent p99 over non-target models, with the quiescent phase load-matched by a CPU burner so the comparison isolates lock coupling from time-slicing; the acceptance criterion is <= 2. evictions/restores confirm the lifecycle actually exercised. BenchmarkAnalyzeUnderLoad re-baselines the single-model snapshot-isolation speedup the registry builds on." \
		-cmd "$(BENCH_CMD7)" -cmd "$(BENCH_CMD7B)" \
		-out BENCH_PR7.json bench7.out
	rm -f bench7.out

# PR8: the networked serving frontend. BenchmarkNetworkResilience runs the
# paired baseline/chaos experiment on a real loopback listener: 24 no-retry
# closed-loop clients against 4 in-flight slots + 4 queue seats, then the
# same workload under the injected-fault schedule (periodic added latency,
# 5xx answers, severed connections). Acceptance: shed-p50-ratio < 0.10,
# p99-ratio <= 2, accounting-exact == 1.
BENCH_CMD8 = $(GO) test -run TestNothing -bench BenchmarkNetworkResilience -benchtime 3x .

bench-PR8:
	$(BENCH_CMD8) > bench8.out
	$(GO) run ./cmd/benchjson -pr 8 \
		-title "Networked serving frontend with deadline propagation, admission control, and fault-injected resilience" \
		-note "BenchmarkNetworkResilience serves one model through internal/httpserve on a real 127.0.0.1 listener and drives it with internal/httpclient clients whose retries are disabled so every outcome maps 1:1 to one wire request. The baseline run is fault-free at 6x overload; the chaos run repeats the identical workload under netdelay:every=7,delay=2ms + net5xx:every=31 + netdrop:every=43 injected at request intake. shed-p50-ratio is chaos shed p50 / accepted p50 (< 0.10 required: rejections must be the fast path); p99-ratio is chaos accepted p99 / baseline accepted p99 (<= 2 required: faults fail fast instead of occupying capacity); accounting-exact verifies accepted + shed + failed == issued with client- and server-side counters agreeing exactly. The admission-bound regime uses a 10ms coalescer batch-fill window as the service time so admission control, not host CPU scheduling, decides who waits." \
		-cmd "$(BENCH_CMD8)" \
		-out BENCH_PR8.json bench8.out
	rm -f bench8.out

# PR9: sharded scale-out serving. BenchmarkShardedEstimate runs the
# shard-isolation experiment per iteration: closed-loop estimate clients
# drive a K=4 sharded group's scatter/gather path through alternating
# paired legs — a quiescent leg where a burner dry-runs the identical
# bandwidth optimization (same sample size, result discarded, so both
# legs carry the same scheduler and allocator pressure) and a churn leg
# of back-to-back real ANALYZEs on one shard. Each round yields a paired
# ratio (churn-leg gather p99 / adjacent quiescent-leg p99); the verdict
# is the median across all rounds of all iterations, after two untimed
# warm-up rounds. Paired adjacent legs plus a median are load-bearing
# here: this host delivers hypervisor steal in ~100ms bursts that wreck
# individual legs, and a null experiment (identical dry work in both
# legs) showed sequential two-phase designs measure host drift, not lock
# coupling. Acceptance: during-p99-ratio <= 2.
BENCH_CMD9 = $(GO) test -run TestNothing -bench BenchmarkShardedEstimate -benchtime 3x .

bench-PR9:
	$(BENCH_CMD9) > bench9.out
	$(GO) run ./cmd/benchjson -pr 9 \
		-title "Sharded scale-out serving: partitioned sample shards with deterministic scatter/gather" \
		-note "BenchmarkShardedEstimate drives the shard-isolation experiment (internal/experiments.ShardLoad): closed-loop clients estimate through a K=4 sharded group's scatter/gather path across alternating paired legs — a quiescent leg load-matched by a burner dry-running the identical bandwidth optimization (same sample size, result discarded), then a churn leg of back-to-back ANALYZEs re-optimizing one shard's bandwidth under that shard's lock alone. Each round yields a paired ratio of churn-leg gather p99 over the adjacent quiescent-leg p99; during-p99-ratio is the median across all rounds of all iterations, after two untimed warm-up rounds absorb cold-process ramp. Pairing adjacent legs and taking a median is deliberate: the host delivers hypervisor steal in ~100ms bursts that can wreck any single leg, and sequential two-phase designs were shown (via a null experiment) to measure host drift rather than lock coupling. Acceptance: during-p99-ratio <= 2. Bit-identity of K-shard gathers against the single-shard estimator is enforced separately by 'make shard-determinism'." \
		-cmd "$(BENCH_CMD9)" \
		-out BENCH_PR9.json bench9.out
	rm -f bench9.out

# PR10: continuous ingestion. BenchmarkIngestServing runs the bounded-lag
# ingestion experiment per iteration: closed-loop estimate clients serve
# from an adaptive model while the table's change feed replays an evolving
# insert/delete stream through the ingestion bridge (SPSC ring, batched
# synchronized applies, one snapshot republish per batch). Rounds pair
# each churn leg's estimate p99 against the adjacent quiescent leg's —
# the same paired-median design as bench-PR9, for the same hypervisor-
# steal reasons. Exactly-once delivery (cursor == produced == applied)
# and at least one drift-scheduled ANALYZE are asserted inside every
# iteration. Acceptance: during-p99-ratio <= 2.
BENCH_CMD10 = $(GO) test -run TestNothing -bench BenchmarkIngestServing -benchtime 3x .

bench-PR10:
	$(BENCH_CMD10) > bench10.out
	$(GO) run ./cmd/benchjson -pr 10 \
		-title "Synchronized change-feed ingestion: bounded-lag bridge from table mutations to serving models" \
		-note "BenchmarkIngestServing drives the continuous-ingestion experiment (internal/experiments.IngestLoad): closed-loop clients estimate from an adaptive registry model while the table's change feed replays an evolving mutation stream at a paced rate through the ingestion bridge — a bounded SPSC ring whose consumer applies batches under the model's writer lock and republishes one serving snapshot per batch instead of per mutation (republish-saved counts the elided publishes). Each round pairs a churn leg's estimate p99 against the adjacent quiescent leg's; during-p99-ratio is the median paired ratio across all rounds of all iterations (<= 2 required: ingestion must not stall the lock-free estimate path). Every iteration asserts exactly-once delivery (final cursor == mutations produced == mutations applied after the ring drains) and that the drift detector's untimed phase schedules at least one background ANALYZE from per-dimension moment shift. Bit-identity of batched applies against the one-at-a-time path, the >= 10k-mutation serving race test, and the checkpoint/restore replay contract are enforced separately by 'make ingest-lag'." \
		-cmd "$(BENCH_CMD10)" \
		-out BENCH_PR10.json bench10.out
	rm -f bench10.out
