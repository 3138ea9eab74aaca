GO ?= go

.PHONY: tier1 tier1-fmt tier2 tier2-reliability bench bench-all bench-profile clean all

all: tier1

# Tier 1: vet + build + full test suite (the gate every change must keep
# green).
tier1:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

# Tier 1 formatting gate: the tree must be gofmt-clean and vet-clean.
# gofmt -l prints offending files; any output fails the target.
tier1-fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# Tier 2: static analysis + race-detector run over the whole repo.
tier2:
	$(GO) vet ./...
	$(GO) test -race ./...

# Tier 2 reliability: the fault campaigns, batch-serving equality tests,
# execution-graph equivalence/golden-regression tests, and the dirty-row
# recompilation property tests (every bank mutator must leave no row stale)
# under the race detector, plus short fuzz runs over the PCM cell state
# machines the wear model leans on. The whole serve package (the chaos
# soak, the router/instance tests, and the routed 2-models×2-replicas soak
# — which drains each replica under live traffic and replays every
# per-replica op journal for bit-identity) also runs under -race here — its
# correctness claims are concurrency claims.
tier2-reliability:
	$(GO) test -race -run 'Campaign|Wear|Fault|BIST|Scheduler|Drift|Batch|Golden|Graph|Recompile|Dirty|Stale|NoOp|ParallelBitIdentical' ./internal/reliability/ ./internal/core/ ./internal/mrr/ ./internal/pcm/
	$(GO) test -race -count=2 ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzActivationCell$$' -fuzztime 10s ./internal/pcm/
	$(GO) test -run '^$$' -fuzz '^FuzzCellProgram$$' -fuzztime 10s ./internal/pcm/

# Benchmark trajectory: the hot-path microbenchmarks, BENCH_COUNT
# repetitions with allocation reporting, parsed into the machine-readable
# trajectory file (BENCH_OUT). cmd/benchjson exits non-zero unless every
# speedup and allocation gate in its gate table (defaultGates in
# cmd/benchjson/main.go) holds; parallelism gates are recorded but waived on
# hosts with too few CPUs.
BENCH_OUT ?= BENCH_PR16.json
BENCH_COUNT ?= 6
BENCH_PATTERN = ^(BenchmarkBankMVM|BenchmarkBankMVMReference|BenchmarkBankMVMBatch|BenchmarkBankMVMBatchParallel|BenchmarkBankRecompileFull|BenchmarkBankRecompileIncremental|BenchmarkBankProgram|BenchmarkTrainStep|BenchmarkTrainBatch|BenchmarkTransposeCompiled|BenchmarkTableIII_PowerBreakdown|BenchmarkFigure6_InferencesPerSecond|BenchmarkServeBatcher|BenchmarkServeUnbatched|BenchmarkRouterOneReplica|BenchmarkRouterTwoReplicas|BenchmarkDeepCNNBatchSequential|BenchmarkDeepCNNBatchPipelined)$$

bench:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) . > bench.out
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) < bench.out
	@rm -f bench.out

# Profiled trajectory run: the same benchmarks, one repetition, with CPU and
# allocation profiles captured for `go tool pprof` (see DESIGN.md §11/§12
# for captured excerpts). Writes its trajectory to a scratch file so the
# tracked $(BENCH_OUT) keeps the unprofiled numbers from `make bench`.
bench-profile:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -count=1 -cpuprofile cpu.pprof -memprofile mem.pprof . | $(GO) run ./cmd/benchjson -out bench-profile.json

# The full benchmark suite (every table, figure and hot path), no trajectory
# file.
bench-all:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Remove benchmark/profiling byproducts (the tracked BENCH_*.json
# trajectories are left alone). `go test -cpuprofile` leaves the test
# binary (trident.test) behind.
clean:
	rm -f cpu.pprof mem.pprof bench-profile.json bench.out *.test
