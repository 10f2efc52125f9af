# SPATIAL reproduction — common workflows.

GO ?= go

.PHONY: all build vet check lint lint-sarif counts test test-short race race-stress bench bench-all bench-smoke scenario-smoke cluster-smoke fuzz experiments experiments-quick examples clean perfgate perfgate-manifest

all: build vet lint test

# The umbrella static gate: everything CI checks without running a test
# or a benchmark — vet, the full lint suite, and the perfgate's
# compiler-diagnostics contracts. Seconds, not minutes; run it before push.
check: vet lint perfgate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants (telemetry cardinality, injectable clocks,
# resource leaks, lock order, ...); exits nonzero on any unsuppressed
# finding at warn severity or above. The only waiver is an inline
# `//lint:ignore check reason`.
lint:
	$(GO) run ./cmd/spatial-lint ./...

# Export the run as SARIF 2.1.0 (lint.sarif) for code-scanning UIs; the
# exit code still gates exactly like `make lint`.
lint-sarif:
	$(GO) run ./cmd/spatial-lint -sarif lint.sarif ./...

# The six numbers every re-anchor recounts: binaries, their flags, lint
# checks, non-test Go lines under internal/ + cmd/, the lint package's
# share of them, and the perf manifest's contracts.
counts:
	@echo "binaries           $$(ls -d cmd/*/ | wc -l)"
	@echo "flags              $$(cat cmd/*/*.go | grep -cE '\b(flag|fs)\.(Bool|String|Int|Int64|Float64|Duration|Var)\(')"
	@echo "checks             $$($(GO) run ./cmd/spatial-lint -list | wc -l)"
	@echo "non-test lines     $$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@echo "lint lines         $$(find internal/lint -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@echo "manifest contracts $$(grep -c '"entry":' .perf-manifest.json)"

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# -short skips the slow full-module lint self-checks and long soak tests;
# every package still runs under the race detector.
race:
	$(GO) test -race -short ./...

# Schedule-stress the concurrency-heavy tiers: rerun their -race suites
# across a GOMAXPROCS × shuffle-seed matrix with GORACE halting on the
# first report. Race logs, failing cell output, and summary.json land in
# racestress-artifacts/. Override the matrix with RACESTRESS_FLAGS
# (e.g. RACESTRESS_FLAGS='-procs 4 -seeds 7' to replay one cell).
race-stress:
	$(GO) run ./cmd/spatial-racestress -out racestress-artifacts $(RACESTRESS_FLAGS)

# The four serial-vs-batched serving micro-benchmarks at 128 clients,
# printed and nothing else. They gate nothing by themselves: a number
# from another day or another box says nothing about a diff, so compare
# only paired, interleaved runs of the parent and the change. The
# end-to-end judge of speed is `go run ./bench` (see bench/README.md);
# their exact allocs/op are held by TestServingAllocCeilings.
bench:
	$(GO) test -bench=Serving -benchmem -run='^$$' ./internal/serving/

# The perf gate, with the compiler as the witness: every hot-set function
# checked against its committed .perf-manifest.json contract (inlining,
# escapes, loop allocations, bounds checks). No benchmark runs; cheap
# enough for every push. Artifact: perfgate-report.json.
perfgate:
	$(GO) run ./cmd/spatial-perfgate -report perfgate-report.json

# Re-snapshot the optimization contracts after reviewing a deliberate
# change to the hot path (ratchet: the new observed state becomes the
# promise). Review the diff before committing.
perfgate-manifest:
	$(GO) run ./cmd/spatial-perfgate -write-manifest

bench-all:
	$(GO) test -bench=. -benchmem ./...

# One iteration of each serving benchmark and of the tree-kernel, MLP
# batch-kernel, predict-decode and explain-body decode layer benchmarks:
# compiles the harnesses, trains the bench models, and proves the batched
# paths still run — a CI-cheap guard against bit-rot in the throughput
# experiment.
bench-smoke:
	$(GO) test -run='^$$' -bench=Serving -benchtime=1x ./internal/serving/
	$(GO) test -run='^$$' -bench='TreeKernel|MLPPredictBatch' -benchtime=1x ./internal/ml/
	$(GO) test -run='^$$' -bench='PredictDecode|DecodeExplainBody' -benchtime=1x ./internal/wire/

# Deterministic chaos/attack/drift campaigns: run every Smoke-tagged
# scenario against the virtual world (fake clock, seeded faults) and
# write one scorecard JSON per scenario into scorecards/. The bytes are
# reproducible run-to-run, so CI can diff them.
scenario-smoke:
	$(GO) run ./cmd/spatial-scenario -smoke -out scorecards

# Cluster failover on real components: three in-process replicas behind
# the real gateway, a cluster-wide 2PC promote, then kill the shard
# owner and burst predicts through the gateway — zero 5xx beyond the
# shed budget, status artifact in cluster-status.json.
cluster-smoke:
	$(GO) run ./cmd/spatial-cluster -smoke -out cluster-status.json

fuzz:
	$(GO) test -fuzz FuzzReadCSV -fuzztime 30s ./internal/dataset/
	$(GO) test -fuzz FuzzUnmarshalModel -fuzztime 30s ./internal/ml/
	$(GO) test -fuzz FuzzMLPBatchMatchesSerial -fuzztime 30s ./internal/ml/
	$(GO) test -fuzz FuzzTreeBatchMatchesSerial -fuzztime 30s ./internal/ml/
	$(GO) test -fuzz FuzzPredictDecodeMatchesJSON -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzNumberMatchesParseFloat -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzPredictFrame -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeMatchesJSON -fuzztime 30s ./internal/wire/

# Regenerate every paper table/figure (~15 min single-CPU).
experiments:
	$(GO) run ./cmd/spatial-experiments -exp all -json results_full.json

experiments-quick:
	$(GO) run ./cmd/spatial-experiments -exp all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/falldetection
	$(GO) run ./examples/netmonitor
	$(GO) run ./examples/trustaudit
	$(GO) run ./examples/federated
	$(GO) run ./examples/fullstack

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
