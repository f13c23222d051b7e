# SwitchFlow reproduction — common targets.

# Several targets pipe `go test` through tee; without pipefail the pipe's
# exit status is tee's, and test failures silently pass CI.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# Pinned external tool versions — the single source of truth, reused by
# the CI lint job. Bump here and CI follows. (These tools are not module
# dependencies: the build environment may be offline, so `make lint`
# skips any that are not already installed.)
STATICCHECK_VERSION := 2024.1.1
GOVULNCHECK_VERSION := v1.1.3

.PHONY: all build vet lint test race bench bench-json bench-trajectory \
	bench-smoke fleet-smoke gang-smoke results results-check examples trace install-lint-tools

# The committed engine-performance baseline. Bump the number when a PR
# intentionally moves the trajectory; `make bench-trajectory` regenerates
# it and `make bench-smoke` (the CI gate) compares a smoke-sized run's
# machine-portable ratios against it.
BENCH_BASELINE := BENCH_015.json

all: build vet lint test race

build:
	go build ./...

vet:
	go vet ./...

# Static analysis: go vet, then swlint (the project's own determinism and
# concurrency checks — see docs/architecture.md "Determinism & concurrency
# invariants"), then staticcheck and govulncheck when installed. swlint is
# plain module code, so it always runs, offline included; the external
# tools are best-effort locally and mandatory in CI.
lint: vet
	go run ./cmd/swlint ./...
	@if command -v staticcheck >/dev/null; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (make install-lint-tools)"; \
	fi
	@if command -v govulncheck >/dev/null; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (make install-lint-tools)"; \
	fi

# Install the pinned external lint tools (requires network access).
install-lint-tools:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

test:
	go test ./... 2>&1 | tee test_output.txt

# Full suite under the race detector: the parallel experiment harness
# runs cells on concurrent goroutines, so every package must be
# race-clean.
race:
	go test -race ./... 2>&1 | tee race_output.txt

bench:
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Machine-readable benchmark output (one JSON object per test event) for
# tracking the performance trajectory across commits.
bench-json:
	go test -json -run='^$$' -bench=. -benchmem ./... | tee bench_output.json

# Regenerate the committed engine-performance baseline: full-size micro
# (wheel vs heap at depths 256/4k/64k and on the kernel cycle) and macro
# (serial vs sharded fleet) runs, normalized into $(BENCH_BASELINE). Run
# on a quiet machine.
bench-trajectory:
	go run ./cmd/swbench -exp engine -bench-label $(basename $(BENCH_BASELINE)) -bench-out $(BENCH_BASELINE)

# CI regression gate: smoke-sized engine bench, compared against the
# committed baseline on machine-portable speedup ratios (>25% regression
# fails). Writes bench_smoke.json for the workflow artifact upload.
bench-smoke:
	go run ./cmd/swbench -exp engine -bench-smoke -bench-label smoke \
		-bench-out bench_smoke.json -bench-check $(BENCH_BASELINE)

# CI smoke for the million-user fleet scenario, shrunk to a 30s window
# and 100k clients (~10s wall serial): the three routing arms must be
# byte-identical serial vs parallel, the autoscaled arms must actually
# scale out on the flash crowd and back in on the trough, and they must
# shed less than the static arm.
fleet-smoke:
	go run ./cmd/swbench -exp fleet -fleet-window 30s -clients 100000 -parallel 1 > fleet_serial.txt
	go run ./cmd/swbench -exp fleet -fleet-window 30s -clients 100000 -parallel 8 > fleet_parallel.txt
	cmp fleet_serial.txt fleet_parallel.txt
	awk 'NR > 3 { rows++; \
		if ($$2 == "false") staticShed = $$6; \
		if ($$2 == "true" && ($$9 == 0 || $$10 == 0 || $$11 == 0 || $$12 == 0 || $$6 >= staticShed)) exit 1 } \
		END { exit rows != 3 }' fleet_serial.txt
	@echo "fleet-smoke OK"

# CI smoke for gang-scheduled data-parallel training: the five arms must
# be byte-identical serial vs parallel, no arm may leave a partial gang
# or resume a straggler replica, the contended-gang arm must place two
# whole gangs and queue the third whole, the preempt arm must suspend and
# resume whole gangs, and the NVLink ring must out-iterate the
# island-straddling one.
gang-smoke:
	go run ./cmd/swbench -exp gang -parallel 1 > gang_serial.txt
	go run ./cmd/swbench -exp gang -parallel 8 > gang_parallel.txt
	cmp gang_serial.txt gang_parallel.txt
	awk 'NR > 3 { rows++; \
		if ($$10 != 0 || $$8 != 0) exit 1; \
		if ($$1 == "gang" && ($$5 != 2 || $$9 != 1)) exit 1; \
		if ($$1 == "preempt" && ($$6 == 0 || $$7 == 0)) exit 1; \
		if ($$1 == "nvlink") nv = $$2; \
		if ($$1 == "straddle" && $$2 >= nv) exit 1 } \
		END { exit rows != 5 }' gang_serial.txt
	@echo "gang-smoke OK"

# Chrome trace-event artifact from the canned two-ResNet50 co-run on a
# V100 (the switchflow cell). Open trace.json in https://ui.perfetto.dev.
trace:
	go run ./cmd/swbench -trace trace.json

# Regenerate every table and figure of the paper (and the extensions).
results:
	go run ./cmd/swbench -exp all -iters 200 -requests 200 | tee docs/results-full.txt

# Behaviour oracle: every swbench section at test-sized arguments must
# hash to its committed digest in cmd/swbench/testdata/results.sha256
# (whose header line records these arguments). TestResultsDigests checks
# the same file in process, minus the heaviest fixed-size section; a
# change that moves a result on purpose regenerates the file with
#   go test ./cmd/swbench -run TestResultsDigests -update
RESULTS_ORACLE_ARGS := -iters 2 -requests 5 -fleet-window 5s -clients 1000

results-check:
	go run ./cmd/swbench -digest $(RESULTS_ORACLE_ARGS) > results_digests.txt
	diff cmd/swbench/testdata/results.sha256 results_digests.txt
	@echo "results-check OK"

examples:
	go run ./examples/quickstart
	go run ./examples/inference_collocation
	go run ./examples/multitask_reuse
	go run ./examples/preemption_migration
	go run ./examples/listing1
	go run ./examples/hyperparam_tuning
