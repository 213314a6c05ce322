# Convenience targets for the T-Mark repository. Everything is plain `go`;
# the Makefile only names the common invocations.

GO ?= go

.PHONY: all build test short-test race serve-race chaos recovery-chaos vet fmt-check noasm-check bench bench-stats accel-equivalence artifact-roundtrip stream-equivalence perfbench-check fuzz experiments figures examples clean

all: build vet test race

build:
	$(GO) build ./...

# gofmt and go vet always; staticcheck too when it is on PATH.
vet: fmt-check
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Builds and vets the tree for arm64, the path with no assembly: the
# pure-Go kernel bodies and the stubs that stand in for the AVX2 ones
# (batch_noasm.go, cpuid_other.go). Cross-compiling needs only the
# local toolchain, so it works offline. The CI vet job runs this.
noasm-check:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...

# Fails listing every Go file gofmt would rewrite. Hidden directories
# (.git, the benchmark's .bench_build) are skipped.
fmt-check:
	@out="$$(gofmt -l $$(find . -name '*.go' -not -path './.*'))"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

short-test:
	$(GO) test -short ./...

# The parallel kernels (the blocked SpMM-style batch kernels the engine
# runs on, checked against the sequential oracle) are the only
# concurrent code; run the full internal + facade test set under the
# race detector.
race:
	$(GO) test -race ./internal/... ./pkg/...

# One benchmark per paper table/figure plus ablations and micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Workers sweep with the telemetry collector on: reports the wall-time
# split across the solver kernels (o_contract, r_contract, w_matvec,
# ica_reseed) per worker count, plus the collector-overhead guard.
bench-stats:
	$(GO) test -run xxx -bench 'BenchmarkRunStats|BenchmarkCollectorOverhead' -benchmem -v ./internal/tmark/

# The artifact format's focused suite: round-trip bitwise equivalence,
# registry resolution, damage rejection, and the decoder fuzz seeds.
# The CI artifact job runs this.
artifact-roundtrip:
	$(GO) test -count=1 ./internal/artifact/
	$(GO) test -count=1 -run 'TestArtifact|TestV1' ./internal/serve/

# The short accelerated/fast-tier equivalence suite — accelerated solves
# must reproduce the exact predictions in no more (and on the ring at
# least 2x fewer) iterations; fast solves must stay inside the
# documented accuracy/NMI envelope, equal the sequential oracle's
# single-vector sweeps bitwise, and stay inside the a-priori bound
# documented on accel.System. The focused CI job runs this.
accel-equivalence:
	$(GO) test -count=1 -run 'TestAccelGolden|TestFastGolden' -v ./internal/experiments/
	$(GO) test -count=1 -run 'TestAcceleration|TestSolveColumnQualityTiers|TestSolveColumnsMixedQuality|TestRunApproximate|TestQualityPrecedence|TestFastTier' ./internal/tmark/

# The streaming-ingest equivalence suite: every sealed version bitwise
# identical to a from-scratch build of the mutated graph (engine
# property tests), the raw-adjacency merge equal entry for entry to a
# from-scratch tensor with the same O, R and irreducibility flag, and
# the checks that wrap a raw adjacency for those constructors; warm
# re-solves landing on the cold solve's exact predictions on the golden
# networks in ≥3× fewer iterations, the serve-layer ingest/diff
# endpoints, the version-pinning guarantee for readers racing an
# ingest, and the `tmark diff` golden. The focused CI job runs this.
stream-equivalence:
	$(GO) test -count=1 ./internal/stream/
	$(GO) test -count=1 -run 'TestIncremental|TestMerge|TestAtKJI|TestFromKJI' ./internal/tensor/
	$(GO) test -count=1 -run 'TestRunWarm' ./internal/tmark/
	$(GO) test -count=1 -run 'TestIngest|TestDiff' ./internal/serve/
	$(GO) test -count=1 -run 'TestDiffGolden|TestLoadDeltas' ./cmd/tmark/
	$(GO) test -count=1 -run 'TestClientIngest' ./pkg/tmark/

# The serving integration suite (coalescer, cache, drain) under the race
# detector — the separate CI job; make race covers it too, this target
# is the focused loop.
serve-race:
	$(GO) test -race -count=1 ./internal/serve/

# The fault-injection suites under the race detector: solver chaos
# (injected NaN/Inf corruption, the scalar-demoted re-run), serving chaos
# (build/solve panics, overload shedding, an evicted model finishing a
# borrowed /v1/rank solve and held batches at full quality and being
# freed once nothing holds it, a drain cancelling a /v1/rank full solve,
# overlapping batches of one model meeting the fill rule, a drain and a
# double panic, readers answered while an ingest is held mid-apply) and
# the tmarkd SIGTERM drain test.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestEviction|TestOverlap|TestServeRankDrainCancelsFullSolve|TestRunSIGTERMDrainsRankSolve|TestGuard|TestEngineDiscardsCorruptIterate|TestNoASMDemotion|TestKernelFaultPoint|TestIngestQuarantine|TestIngestPins|TestReaderNeverWaits' ./internal/tmark/ ./internal/serve/ ./internal/tensor/ ./internal/stream/ ./cmd/tmarkd/

# The durability suite under the race detector: WAL codec and log
# lifecycle (torn-tail truncation, rotation, checkpoint pruning), the
# crash-equivalence chaos tests (faults at apply/seal/append heal in
# process or via restart replay to the uninterrupted timeline's exact
# hash and predictions), idempotency-key dedup across recovery and
# restart, registry scrub repairs racing hash-pinned readers, and the
# tmarkd-level kill/restart drill. The recovery-chaos CI job runs this.
recovery-chaos:
	$(GO) test -race -count=1 ./internal/wal/
	$(GO) test -race -count=1 -run 'TestRecovery|TestRestart|TestApplyKeyed|TestNoWAL|TestWALAppend' ./internal/stream/
	$(GO) test -race -count=1 -run 'TestIngestIdempotencyKey|TestUnavailableReasons|TestServerWALRestart|TestScrub|TestServerScrub' ./internal/serve/
	$(GO) test -race -count=1 -run 'TestScrub' ./internal/artifact/
	$(GO) test -race -count=1 -run 'TestRunWALRestartReplays' ./cmd/tmarkd/
	$(GO) test -race -count=1 -run 'TestClientIngestRetriesWithStableKey' ./pkg/tmark/

# The end-to-end benchmark under perfbench/ is its own Go module
# (`replace tmark => ../`), so `go build ./...` at the root never
# compiles it; this vets and tests it against the current tree. The CI
# perfbench job runs this.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short fuzzing passes over the untrusted-input parsers, over the
# feature-channel builders against their pairwise oracle, over the
# blocked tensor contractions against the single-vector and dense ones,
# and over the blocked CSR product against the single-vector one.
# Each target fuzzes for 30 s and minimises each new-coverage input for
# at most 1 s: under go's 60-s default, minimising could take the rest
# of a target's budget with no input executed. A failing input is still
# reported and written to testdata/fuzz.
FUZZFLAGS = -fuzztime 30s -fuzzminimizetime 1s
fuzz:
	$(GO) test -fuzz FuzzReadJSON $(FUZZFLAGS) ./internal/hin/
	$(GO) test -fuzz FuzzReadEdgeCSV $(FUZZFLAGS) ./internal/hin/
	$(GO) test -fuzz FuzzReadCOO $(FUZZFLAGS) ./internal/dataset/
	$(GO) test -fuzz FuzzDecodeClassifyRequest $(FUZZFLAGS) ./internal/serve/
	$(GO) test -fuzz FuzzDecodeIngestRequest $(FUZZFLAGS) ./internal/serve/
	$(GO) test -fuzz FuzzDecodeArtifact $(FUZZFLAGS) ./internal/artifact/
	$(GO) test -fuzz FuzzDecodeWALRecord $(FUZZFLAGS) ./internal/wal/
	$(GO) test -fuzz FuzzDecodeWALSnapshot $(FUZZFLAGS) ./internal/wal/
	$(GO) test -fuzz FuzzFeatureTransition $(FUZZFLAGS) ./internal/markov/
	$(GO) test -fuzz FuzzApplyBatch $(FUZZFLAGS) ./internal/tensor/
	$(GO) test -fuzz FuzzMulVecBatch $(FUZZFLAGS) ./internal/sparse/

# Regenerate every table and figure at the quick scale.
experiments:
	$(GO) run ./cmd/experiments

# The paper's full protocol, with SVG charts written to ./figures.
figures:
	$(GO) run ./cmd/experiments -full -svg figures

examples:
	for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

clean:
	rm -rf figures
