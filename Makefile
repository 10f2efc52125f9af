# SPATIAL reproduction — common workflows.

GO ?= go

.PHONY: all build vet check lint lint-sarif counts test test-short race race-stress bench bench-all bench-smoke scenario-smoke cluster-smoke fuzz experiments experiments-quick examples clean

all: build vet lint test

# The umbrella static gate: everything CI checks without running a test
# or a benchmark — vet and the full lint suite. Seconds, not minutes; run
# it before push.
check: vet lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants (telemetry cardinality, injectable clocks,
# resource leaks, lock order, ...); exits nonzero on any unsuppressed
# finding, test files included. The only waiver is an inline
# `//lint:ignore check reason`.
lint:
	$(GO) run ./cmd/spatial-lint ./...

# Export the run as SARIF 2.1.0 (lint.sarif) for code-scanning UIs; the
# exit code still gates exactly like `make lint`.
lint-sarif:
	$(GO) run ./cmd/spatial-lint -sarif lint.sarif ./...

# The seven numbers every re-anchor recounts: binaries, their flags, the
# exported fields of the request-path config structs (every *Config,
# *Options and *Policy struct in non-test files of serving, cluster,
# gateway, core, telemetry and service), lint checks, non-test Go lines
# under internal/ + cmd/, the lint package's share of them, and the
# hand-written assembly beside them.
OPTION_PKGS = serving cluster gateway core telemetry service
counts:
	@echo "binaries           $$(ls -d cmd/*/ | wc -l)"
	@echo "flags              $$(cat cmd/*/*.go | grep -cE '\b(flag|fs)\.(Bool|String|Int|Int64|Float64|Duration|Var)\(')"
	@echo "options            $$(for d in $(OPTION_PKGS); do ls internal/$$d/*.go; done | grep -v '_test\.go$$' | xargs awk '/^type [A-Za-z]*(Config|Options|Policy) struct \{/ { s = 1; next } s && /^\}/ { s = 0 } s && /^\t[A-Z]/ { n++ } END { print n + 0 }')"
	@echo "checks             $$($(GO) run ./cmd/spatial-lint -list | wc -l)"
	@echo "non-test lines     $$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@echo "lint lines         $$(find internal/lint -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@echo "asm lines          $$(find internal cmd -name '*.s' | xargs cat | wc -l)"

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# -short skips the slow full-module lint self-checks and long soak tests;
# every package still runs under the race detector.
race:
	$(GO) test -race -short ./...

# Schedule-stress the concurrency-heavy tiers: rerun their full -race
# suites at GOMAXPROCS 1, 2 and 4 (-cpu) under three shuffle seeds,
# three times each, with GORACE halting on the first report. Stops at the
# first failing seed; race logs land in racestress-artifacts/ as
# race_s<seed>.<pid>. To replay one cell, run its go test command alone,
# e.g. go test -race -cpu 4 -shuffle 2 ./internal/cluster/...
race-stress:
	@mkdir -p racestress-artifacts
	@for s in 1 2 3; do \
		GORACE="halt_on_error=1 log_path=$(CURDIR)/racestress-artifacts/race_s$$s" \
		$(GO) test -race -cpu 1,2,4 -shuffle $$s -count 3 -timeout 30m \
			./internal/cluster/... ./internal/serving/... || exit 1; \
	done

# The four serial-vs-batched serving micro-benchmarks at 128 clients,
# printed and nothing else. They gate nothing by themselves: a number
# from another day or another box says nothing about a diff, so compare
# only paired, interleaved runs of the parent and the change. The
# end-to-end judge of speed is `go run ./bench` (see bench/README.md);
# their exact allocs/op are held by TestServingAllocCeilings.
bench:
	$(GO) test -bench=Serving -benchmem -run='^$$' ./internal/serving/

bench-all:
	$(GO) test -bench=. -benchmem ./...

# One iteration of each serving benchmark and of the tree-kernel, MLP
# batch-kernel, predict-decode, explain-body decode, ridge-solve,
# explainer and model-cache layer benchmarks: compiles the harnesses,
# trains the bench models, and proves the batched paths still run — a
# CI-cheap guard against bit-rot in the throughput experiment.
bench-smoke:
	$(GO) test -run='^$$' -bench=Serving -benchtime=1x ./internal/serving/
	$(GO) test -run='^$$' -bench='TreeKernel|MLPPredictBatch|MLPFit' -benchtime=1x ./internal/ml/
	$(GO) test -run='^$$' -bench='PredictDecode|DecodeExplainBody' -benchtime=1x ./internal/wire/
	$(GO) test -run='^$$' -bench=RidgeWLS -benchtime=1x ./internal/mat/
	$(GO) test -run='^$$' -bench='ExplainSHAP|ExplainLIME' -benchtime=1x ./internal/xai/
	$(GO) test -run='^$$' -bench=DecodeModelHit -benchtime=1x ./internal/service/

# Deterministic chaos/attack/drift campaigns: run every built-in
# scenario against the virtual world (fake clock, seeded faults), write
# one scorecard JSON per scenario into scorecards/, and fail unless they
# equal the committed goldens byte for byte.
scenario-smoke:
	$(GO) run ./cmd/spatial-scenario -smoke -out scorecards
	diff -r scorecards internal/scenario/testdata

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
	$(GO) test -fuzz FuzzRidgeWLSMatchesLoop -fuzztime 30s ./internal/mat/

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
