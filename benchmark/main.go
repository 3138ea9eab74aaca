// Command benchmark runs the repository benchmark: one named workload,
// generated from a seed, measured for a fixed number of seconds, with its
// outputs checked. The last line of standard output is the result object;
// see README.md in this directory for the workloads and the metrics.
//
//	go run ./benchmark --workload serve-mixed --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// endToEnd lists every end-to-end metric with its unit. Each workload
// reports all of them. sim_* are modelled-chip numbers, the rest host time.
var endToEnd = map[string]string{
	"setup_s":                  "s",
	"samples_per_s":            "1/s",
	"latency_p50_ms":           "ms",
	"sim_ns_per_sample":        "sim_ns",
	"sim_energy_nj_per_sample": "sim_nJ",
	"max_rss_mb":               "MiB",
}

// perLayer lists every per-layer metric of the traced run with its unit. A
// metric of a layer that a workload does not exercise reads 0.
var perLayer = map[string]string{
	"serve.handler_ms_p50":           "ms",
	"serve.wait_ms_p50":              "ms",
	"serve.wait_ms_p99":              "ms",
	"serve.exec_ms_p50":              "ms",
	"serve.reply_ms_p50":             "ms",
	"serve.batch_size_mean":          "samples",
	"serve.batches":                  "count",
	"serve.handoffs":                 "count",
	"serve.rejected":                 "count",
	"serve.engine_busy_frac":         "fraction",
	"reliability.check_ms_p50":       "ms",
	"reliability.check_ms_max":       "ms",
	"reliability.checks":             "count",
	"reliability.refresh_pulses":     "count",
	"reliability.masked_rows":        "count",
	"reliability.wear_draw_down":     "fraction",
	"core.exec_ns_per_sample":        "ns",
	"core.allocs_per_sample":         "count/sample",
	"core.bytes_per_sample":          "B/sample",
	"core.stage_occupancy_min":       "fraction",
	"core.stage_occupancy_max":       "fraction",
	"core.train_batch_ms_p50":        "ms",
	"core.eval_ms":                   "ms",
	"core.noise_agreement":           "fraction",
	"dataflow.plan_ms":               "ms",
	"dataflow.stage_cost_imbalance":  "ratio",
	"mrr.rows_compiled_per_sample":   "rows/sample",
	"mrr.dirty_rows":                 "rows",
	"chip.gst_tuning_nj_per_sample":  "sim_nJ",
	"chip.gst_read_nj_per_sample":    "sim_nJ",
	"chip.bpd_tia_nj_per_sample":     "sim_nJ",
	"chip.eo_laser_nj_per_sample":    "sim_nJ",
	"train.serve_model_ms":           "ms",
	"train.accuracy":                 "fraction",
	"trace.throughput_overhead_frac": "fraction",
	"trace.p50_overhead_frac":        "fraction",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values holds measured metrics by name; units come from the tables above.
type values map[string]float64

func (v values) put(name string, x float64) { v[name] = x }

// report is what one workload run produces.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	e2e       values
	layer     values
	latency   latencySummary
	notes     map[string]any // provenance details: sample counts, checks
}

func newReport() *report {
	return &report{correct: true, e2e: values{}, layer: values{}, notes: map[string]any{}}
}

// fail marks an output check as failed and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
}

// options configures one workload run.
type options struct {
	seed    int64
	seconds float64
	tr      *tracer // nil for the untraced run
}

type workload func(options) (*report, error)

var workloads = map[string]workload{
	"serve-mixed":  runServe,
	"cnn-offline":  runCNN,
	"train-insitu": runTrain,
}

// procs caps GOMAXPROCS per workload (never above the CPUs the process
// may use). serve-mixed runs on one: run alternately on a shared 2-CPU
// host, it read 38-43k requests/s on one CPU and 50-61k on two, so one
// CPU is the steadier gate. The pipeline and the tile workers of the other
// two workloads need both CPUs.
var procs = map[string]int{"serve-mixed": 1}

// spanBudget caps the spans one traced run keeps in memory.
const spanBudget = 2 << 20

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: serve-mixed, cnn-offline or train-insitu")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	spansPath := flag.String("spans", "", "traced run span file (default .bench_build/trace/<workload>-<seed>.jsonl.gz)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload <serve-mixed|cnn-offline|train-insitu> --seed N --seconds S --trace 0|1\n")
		return 2
	}
	if n := procs[*name]; n > 0 && n < runtime.NumCPU() {
		runtime.GOMAXPROCS(n)
	}
	opts := options{seed: *seed, seconds: *seconds}
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = w(opts)
	} else {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl.gz", *name, *seed))
		}
		rep, err = runTraced(w, opts, path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", *name, err)
		return 1
	}
	rep.e2e.put("max_rss_mb", maxRSSMB())
	metrics, err := collect(rep, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", *name, err)
		return 1
	}
	prov := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"latency":    rep.latency,
		"notes":      rep.notes,
	}
	if *trace == 1 {
		prov["end_to_end_traced"] = rep.e2e
	}
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: provenance: %v\n", *name, err)
		return 1
	}
	fmt.Println(string(line))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: result: %v\n", *name, err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.correct {
		return 1
	}
	return 0
}

// runTraced measures the workload untraced and then traced in the same
// process, writes the traced spans, and reports the tracing overhead as
// the traced run's loss against the untraced one.
func runTraced(w workload, opts options, path string) (*report, error) {
	base, err := w(options{seed: opts.seed, seconds: opts.seconds})
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	debug.FreeOSMemory() // the untraced pass's memory is garbage now
	opts.tr = newTracer(spanBudget)
	rep, err := w(opts)
	if err != nil {
		return nil, err
	}
	rep.correct = rep.correct && base.correct
	rep.layer.put("trace.throughput_overhead_frac", 1-rep.e2e["samples_per_s"]/base.e2e["samples_per_s"])
	rep.layer.put("trace.p50_overhead_frac", rep.e2e["latency_p50_ms"]/base.e2e["latency_p50_ms"]-1)
	rep.notes["end_to_end_untraced"] = base.e2e
	spans, dropped := opts.tr.snapshot()
	if err := writeSpans(path, spans, selfTimes(spans)); err != nil {
		return nil, err
	}
	rep.notes["spans"] = map[string]any{"file": path, "written": len(spans), "dropped": dropped}
	return rep, nil
}

// collect turns the report into the result's metric object: every
// end-to-end metric untraced, every per-layer metric traced. A missing
// end-to-end metric is a benchmark bug; a missing per-layer metric is a
// layer the workload does not exercise and reads 0.
func collect(rep *report, traced bool) (map[string]metric, error) {
	out := make(map[string]metric)
	table, vals := endToEnd, rep.e2e
	if traced {
		table, vals = perLayer, rep.layer
	}
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, ok := vals[n]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not report %s", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v)
		}
		out[n] = metric{Value: v, Unit: table[n]}
	}
	for n := range vals {
		if _, ok := table[n]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", n)
		}
	}
	return out, nil
}

// Set-ups repeat at least minSetups times and, for cheap set-ups, until
// setupBudget has passed (at most maxSetups times), so that the median
// rests on enough samples to be steady.
const (
	minSetups   = 3
	setupBudget = time.Second
	maxSetups   = 25
)

// timeSetups runs setup repeatedly and returns the last result and the
// median set-up time in seconds; discard releases every earlier result.
// Garbage is collected after each set-up, outside the timing, so the
// measured phase starts from the same heap in every run.
func timeSetups[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	begin := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(begin) < setupBudget); i++ {
		if i > 0 {
			discard(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
		runtime.GC()
	}
	return last, median(secs), nil
}
