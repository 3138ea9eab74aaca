// Command benchjson turns `go test -bench` output into the machine-readable
// benchmark-trajectory file (BENCH_PR*.json via `make bench`) and enforces
// the speedup gates in defaultGates — the one gate table of the repo — or
// exits non-zero. Parallelism gates only bind on hosts with enough logical
// CPUs; below that the measured ratio is recorded but the gate is waived
// (see benchio.Report.ApplyGate).
//
// Usage (as wired by `make bench`):
//
//	go test -run='^$' -bench=... -benchmem -count=6 . | benchjson -out BENCH_PR14.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"

	"trident/internal/benchio"
)

// gateSpec is one speedup requirement: numerator, denominator, required
// factor, and (for parallelism gates) the smallest host CPU count at which
// the gate binds rather than being waived.
type gateSpec struct {
	fast, ref string
	min       float64
	minProcs  int
}

// defaultGates are the trajectory requirements, each ref ns/op over fast
// ns/op:
//
//   - kernel: the compiled-snapshot MVM ≥3× the reference triple loop on the
//     64×64 bank (the product of the retired factored-vs-reference ≥2× and
//     compiled-batch-vs-factored ≥1.5× gates).
//   - recompile: the incremental dirty-row recompile ≥5× a full snapshot
//     rebuild on the 256×256 bank.
//   - parallel: the pool-parallel batch GEMM ≥1.5× the single-threaded batch
//     on the 256×256 bank, waived below 2 CPUs.
//   - serve: micro-batching ≥1.2× requests/second over one-at-a-time
//     dispatch through the same batcher machinery.
//   - train: one 32-sample TrainBatch minibatch ≥2× 32 sequential
//     TrainSample steps (which reprogram the banks after every sample) on the
//     256×256 layer.
//   - router: two replicas ≥1.3× one under maintenance churn, by shifting
//     traffic to the warm sibling during each drain; waived below 2 CPUs,
//     where the siblings cannot run concurrently.
//   - pipeline: 4-stage pipelined DeepCNN batch execution ≥1.4× the
//     sequential batched path on the same graph; waived below 4 CPUs, where
//     four stage workers cannot overlap.
var defaultGates = []gateSpec{
	{fast: "BenchmarkBankMVM/64x64", ref: "BenchmarkBankMVMReference/64x64", min: 3},
	{fast: "BenchmarkBankRecompileIncremental/256x256", ref: "BenchmarkBankRecompileFull/256x256", min: 5},
	{fast: "BenchmarkBankMVMBatchParallel/256x256", ref: "BenchmarkBankMVMBatch/256x256", min: 1.5, minProcs: 2},
	{fast: "BenchmarkServeBatcher", ref: "BenchmarkServeUnbatched", min: 1.2},
	{fast: "BenchmarkTrainBatch/256x256", ref: "BenchmarkTrainStep/256x256", min: 2},
	{fast: "BenchmarkRouterTwoReplicas", ref: "BenchmarkRouterOneReplica", min: 1.3, minProcs: 2},
	{fast: "BenchmarkDeepCNNBatchPipelined", ref: "BenchmarkDeepCNNBatchSequential", min: 1.4, minProcs: 4},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "BENCH_PR14.json", "trajectory file to write")
	flag.Parse()

	// Tee the raw stream through so the human-readable benchmark lines stay
	// visible on the terminal.
	results, err := benchio.Parse(io.TeeReader(os.Stdin, os.Stdout))
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark lines on stdin")
	}
	procs := runtime.GOMAXPROCS(0)
	rep := &benchio.Report{Schema: benchio.Schema, GoVersion: runtime.Version(),
		MaxProcs: procs, Results: results}
	for _, g := range defaultGates {
		if err := rep.ApplyGate(g.fast, g.ref, g.min, g.minProcs); err != nil {
			log.Fatal(err)
		}
	}
	if err := benchio.WriteFile(*out, rep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks)\n", *out, len(results))
	for _, g := range rep.Gates {
		status := ""
		if g.Waived {
			status = fmt.Sprintf(" [waived: %d CPU < %d]", procs, g.MinProcs)
		}
		fmt.Printf("benchjson: %s vs %s: %.1f× speedup (gate ≥%.1f×)%s\n",
			g.Fast, g.Ref, g.Speedup, g.Required, status)
	}
	if !rep.GatesPassed() {
		log.Fatal("speedup gate FAILED")
	}
}
