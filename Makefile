GO ?= go
# BENCHTIME tunes the bench target (e.g. BENCHTIME=1x for a CI smoke pass).
BENCHTIME ?= 1s

.PHONY: all build lint test race vet bench bench-all benchmark identity identity-diff loc fma cover examples clean

all: build vet lint test

build:
	$(GO) build ./...

# Static analysis: the determinism contract (no wall clock, no global rand,
# no unordered map iteration in the deterministic packages) and the model
# invariants (no mutation after Compile, options validated before use, no
# discarded errors). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/sanlint ./...

# -shuffle=on randomizes test order so inter-test state dependencies cannot
# hide; the determinism contract means every test must pass in any order.
test:
	$(GO) test -shuffle=on ./...

# Race-check the shared fan-out (fanout.For, the only goroutine launch in
# non-test code) and the packages that run work through it: the replication
# runner, the sharded sweep engine and the state-space tier its workers
# certify and solve on (each call on its worker's goroutine), the
# snapshot/clone machinery of the rare-event engine, the calibration
# pipeline feeding the sweep (paper_full), the discrete-event core, the
# checkpoint/restore machinery, and the experiment drivers.
# The experiments package exceeds Go's default 10m test-binary deadline
# under the race detector, so the timeout is set explicitly.
race:
	$(GO) test -race -timeout 30m ./internal/fanout/... ./internal/san/... ./internal/statespace/... ./internal/sweep/... ./internal/rareevent/... ./internal/calibrate/... ./internal/des/... ./internal/checkpoint/... ./internal/experiments/...

vet:
	$(GO) vet ./...

# Perf trajectory: run the solver-vs-simulation benchmarks (exact and fitted
# analytic tier against forced simulation, which no end-to-end benchmark
# workload covers) and emit both the raw benchstat-compatible text and a
# machine-readable BENCH_sweep.json. The output is captured to the file first
# (not piped through tee) so a failing benchmark fails the target instead of
# being masked by the pipe's exit status. -cpu 2 pins the GOMAXPROCS suffix
# go test appends to every benchmark name, so the names match the committed
# BENCH_baseline.json (recorded with -2) on a runner with any CPU count.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSolverVsSimulation|BenchmarkFitSolverVsSimulation' -cpu 2 -benchmem -benchtime $(BENCHTIME) -timeout 60m . > BENCH_sweep.txt || { cat BENCH_sweep.txt; exit 1; }
	cat BENCH_sweep.txt
	$(GO) run ./cmd/benchjson -in BENCH_sweep.txt -out BENCH_sweep.json

# End-to-end benchmark (benchmark/README.md): one set of every workload, each
# run in fresh child processes. Exits non-zero when any report differs from
# the seed-1 references in benchmark/testdata/ (labels, methods, cache labels,
# measures, total_events). Time metrics are printed but never gated on.
benchmark:
	bash benchmark/run.sh

# Byte-identity reports: builds abesim once (into .identity_build/) and writes
# the reports a behavior-preserving change must leave byte-identical into
# OUT: figure4 at two parallelism settings, figure4 with the certificate
# analysis, paper_full, and the rare-event study at two seeds. Run it at both
# commits, then compare with `diff -r <before> <after>`. About 15 s on 2 vCPUs.
identity:
	@test -n "$(OUT)" || { echo "usage: make identity OUT=<dir>" >&2; exit 2; }
	mkdir -p $(OUT) .identity_build
	$(GO) build -o .identity_build/abesim ./cmd/abesim
	.identity_build/abesim -experiment figure4 -quick -replications 60 -parallelism 1 -json > $(OUT)/figure4_par1.json
	.identity_build/abesim -experiment figure4 -quick -replications 60 -parallelism 2 -json > $(OUT)/figure4_par2.json
	.identity_build/abesim -experiment figure4 -quick -replications 4 -mission 2190 -analyze -json > $(OUT)/figure4_analyze.json
	.identity_build/abesim -experiment paper_full -quick -json > $(OUT)/paper_full.json
	.identity_build/abesim -experiment rare_event_dataloss -quick -seed 1 -json > $(OUT)/rare_event_seed1.json
	.identity_build/abesim -experiment rare_event_dataloss -quick -seed 7 -json > $(OUT)/rare_event_seed7.json

# Byte identity against another commit in one command: exports BASE with
# git archive into .identity_build/base, runs the identity target there with
# this Makefile (so a BASE older than the target works too), runs it here,
# and diffs the two report sets. Prints "byte-identical" or the differences,
# and exits with the diff's status. The exported tree is removed once its
# reports are written, so gofmt -l . never walks into it. About 30 s.
identity-diff:
	@test -n "$(BASE)" || { echo "usage: make identity-diff BASE=<rev>" >&2; exit 2; }
	rm -rf .identity_build/base .identity_build/base-out .identity_build/head-out
	mkdir -p .identity_build/base
	git archive $(BASE) | tar -x -C .identity_build/base
	$(MAKE) -C .identity_build/base -f $(CURDIR)/Makefile identity OUT=$(CURDIR)/.identity_build/base-out
	rm -rf .identity_build/base
	$(MAKE) identity OUT=$(CURDIR)/.identity_build/head-out
	diff -r .identity_build/base-out .identity_build/head-out && echo byte-identical

# Line counts of the tracked Go files: non-test and test (*_test.go). A
# deletion or refactor is measured by the non-test count.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | xargs cat | wc -l | sed 's/^/non-test Go lines: /'
	@git ls-files '*_test.go' | xargs cat | wc -l | sed 's/^/test Go lines: /'

# Fused multiply-adds on arm64 (ROADMAP item 17). gc fuses x*y + z into one
# instruction on arm64, which rounds once where amd64 rounds twice, unless an
# explicit float64(...) conversion wraps the product. Cross-builds abesim for
# arm64 (offline, no arm64 host needed), disassembles it, and prints per
# repro/ function its FMADDD/FMSUBD/FNMADDD/FNMSUBD count, then the total.
# Informational: it exits zero whatever the count.
fma:
	mkdir -p .fma_build
	GOARCH=arm64 $(GO) build -o .fma_build/abesim-arm64 ./cmd/abesim
	$(GO) tool objdump -s '^repro/' .fma_build/abesim-arm64 > .fma_build/objdump.txt
	@awk '/^TEXT /{fn = $$2; sub(/\(SB\)$$/, "", fn); next} $$4 ~ /^F(N?MADD|N?MSUB)D$$/ {n[fn]++} END {for (f in n) printf "%4d %s\n", n[f], f}' .fma_build/objdump.txt | sort -k2 > .fma_build/fma.txt
	@cat .fma_build/fma.txt
	@awk '{n += $$1} END {printf "%d fused multiply-adds in %d repro/ functions\n", n, NR}' .fma_build/fma.txt

# Every benchmark in the repository (slow).
bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Smoke-run every example binary end-to-end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/disk_sensitivity
	$(GO) run ./examples/raid_tradeoff
	$(GO) run ./examples/petascale_scaling
	$(GO) run ./examples/log_analysis
	$(GO) run ./examples/calibrated_abe
	$(GO) run ./examples/rare_event
	$(GO) run ./examples/shared_repair_crew

# Smoke-run the single-shot paper reproduction (tiny replication counts) and
# check it emits one valid JSON document.
paper-smoke:
	$(GO) run ./cmd/abesim -experiment paper_full -quick -replications 4 -mission 2190 -json > /dev/null

clean:
	$(GO) clean ./...
	rm -f coverage.out BENCH_sweep.txt BENCH_sweep.json
	rm -rf .identity_build .fma_build
