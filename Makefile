# Standard checks for the UCMP reproduction. `make check` is what CI (and a
# pre-commit run) should execute: vet, staticcheck (when installed), build,
# the full test suite, and the race detector over the packages with
# intentional concurrency (the parallel offline build in internal/core, the
# engine in internal/sim, and the parallel trial runner in internal/harness)
# plus the wheel/heap differential tests, which are the determinism pin for
# the timing-wheel scheduler. The sharded engine's barrier-separated phases
# are its only concurrent code, so its tests run ten times over under the
# race detector to give interleavings more chances to show.

GO ?= go

.PHONY: check vet staticcheck build test race bench bench-offline bench-netsim bench-pr10 bench-scaling scale-smoke crash-smoke

check: vet staticcheck build test race

vet:
	$(GO) vet ./...

# staticcheck is optional locally (not vendored; CI installs it): the target
# degrades to a notice when the binary is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/sim/...
	$(GO) test -race -count=10 -run 'TestSharded|TestDifferentialSerialSharded' ./internal/sim
	$(GO) test -race -run 'TestCompiledTableBytesSymmetricVsBrute|TestSymmetricFastPathMatchesGroupPath|TestTableSetEviction|TestCompiledTableAgreesWithRouter|TestCongestionCanonicalMatchesBrute|TestCongestionPickZeroAlloc|TestPackedCodecRoundTrip' ./internal/routing
	$(GO) test -race -run 'TestTrialReplicationDeterminism|TestWorkerCount|TestDifferentialWheelHeap|TestDifferentialSerialSharded|TestDifferentialLazyTables|TestDifferentialCongestionSharded|TestDifferentialWarmFabric|TestDifferentialCheckpointResume|TestSnapshotRestoreIdempotent|TestResumeMissingCheckpoint|TestResumeCorruptionRejected|TestSweepResume|TestRunTrialsPanicRecovery|TestCongestionSteeringChangesOutcome|TestTableCacheCapConfig|TestShardableGate|TestShardsValidation|TestShardedNonDividing64' ./internal/harness

# bench regenerates the numbers tracked in results/BENCH_*.json: the offline
# path-set build (results/BENCH_seed.json) and the netsim packet-path
# benchmarks (results/BENCH_pr2.json, results/BENCH_pr3.json). bench-netsim
# pipes through cmd/benchjson, which emits the BENCH_*.json record format on
# stdout while echoing the raw `go test` lines on stderr, so
#
#	make -s bench-netsim > results/BENCH_new.json
#
# refreshes the tracked record in place.
bench: bench-offline bench-netsim

bench-offline:
	$(GO) test -run '^$$' -bench 'BenchmarkOffline_PathSetBuild' -benchmem -benchtime 200x .

bench-netsim:
	$(GO) test -run '^$$' -bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$' -benchmem ./internal/netsim | $(GO) run ./cmd/benchjson

# results/BENCH_pr3.json … results/BENCH_pr9.json and their raw lines are
# frozen history: each record's "method" field says what it measured and
# against which baseline. BENCHTIME and SCALING_BENCHTIME trade precision
# for wall clock.
BENCHTIME ?= 20x
SCALING_BENCHTIME ?= 10x

# bench-pr10 refreshes the checkpoint/restore record: the serial hot paths
# rerun with checkpointing off, gated at 10% regression against
# results/BENCH_pr9.json — event tagging and the Attach/Launch split must
# cost (at most) a few words per event on runs that never snapshot.
bench-pr10:
	GOMAXPROCS=1 $(GO) test -run '^$$' \
		-bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$|BenchmarkSaturation64$$|BenchmarkSaturation64Sharded$$|BenchmarkSaturationFailover$$' \
		-benchmem -benchtime $(BENCHTIME) ./internal/netsim \
		| tee results/bench_pr10_raw.txt \
		| $(GO) run ./cmd/benchjson -compare results/BENCH_pr9.json -maxregress 0.10 \
			-method "GOMAXPROCS=1 make bench-pr10 (deterministic checkpoint/restore; checkpointing-off serial hot paths gated 10% vs results/BENCH_pr9.json)" \
			> results/BENCH_pr10.json

# crash-smoke is the CI crash-recovery check (DESIGN.md §16): an
# uninterrupted reference run writes its per-flow CSV; the same
# configuration restarts with checkpointing on, is SIGKILLed mid-run, is
# re-invoked with -resume, and the resumed run's per-flow CSV must be
# byte-identical to the reference. The CSV is the comparable artifact —
# stdout carries wall-clock timings. The grep asserts a real resume
# happened (a cold fallback would also produce identical output, but then
# the smoke would not be testing restore).
CRASH_FLAGS = -tors 64 -uplinks 4 -duration 20ms -load 0.6 -seed 42
crash-smoke:
	rm -rf results/.crash_ckpt results/.crash_ref.csv results/.crash_res.csv results/.crash_sim
	$(GO) build -o results/.crash_sim ./cmd/ucmpsim
	./results/.crash_sim $(CRASH_FLAGS) -fctout results/.crash_ref.csv > /dev/null
	-./results/.crash_sim $(CRASH_FLAGS) -checkpoint-dir results/.crash_ckpt -checkpoint-every 1ms -fctout /dev/null > /dev/null 2>&1 & \
	pid=$$!; sleep 4; kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; true
	test -n "$$(ls results/.crash_ckpt)"
	./results/.crash_sim $(CRASH_FLAGS) -checkpoint-dir results/.crash_ckpt -checkpoint-every 1ms -resume \
		-fctout results/.crash_res.csv 2>&1 >/dev/null | tee /dev/stderr | grep -q 'resumed at'
	cmp results/.crash_ref.csv results/.crash_res.csv
	rm -rf results/.crash_ckpt results/.crash_ref.csv results/.crash_res.csv results/.crash_sim

# scale-smoke is the CI wall-clock budget check at the 512-ToR point of the
# scaling sweep: the first pass builds the symmetric path set cold, compiles
# the table, runs the permutation sim, and saves the compiled fabric into
# the cache directory; the second pass must reload it warm (asserted via the
# report's warm column) within a much tighter budget.
scale-smoke:
	rm -rf results/.scale_cache
	timeout 300 $(GO) run ./cmd/ucmpbench -exp scale -scale-ns 512 -fabric-cache results/.scale_cache
	timeout 120 $(GO) run ./cmd/ucmpbench -exp scale -scale-ns 512 -fabric-cache results/.scale_cache | tee /dev/stderr | grep -q '1/1 points loaded warm'
	rm -rf results/.scale_cache

# bench-scaling runs only the multicore sweep, printing raw `go test` lines:
# the quick local answer to "does sharding win on this machine".
bench-scaling:
	$(GO) test -run '^$$' -bench 'BenchmarkShardScaling' \
		-benchmem -benchtime $(SCALING_BENCHTIME) ./internal/netsim
