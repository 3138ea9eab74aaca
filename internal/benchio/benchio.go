// Package benchio is the benchmark-trajectory format: it parses `go test
// -bench` output into aggregated per-benchmark results and writes the
// machine-readable trajectory file (BENCH_PR*.json) that `make bench` and
// the cmd/benchjson gate table produce, so each kernel's speedup over its
// baseline, and each gated hot path's allocations per operation, are
// recorded — and enforced — in one place. A trajectory can carry several
// gates (schema trident-bench/4). A parallelism gate carries a
// minimum-processor requirement: on hosts with fewer logical CPUs than
// MinProcs (where no parallel speedup is physically available) the measured
// ratio is still recorded but the gate is marked waived and does not fail
// the build — multi-core CI enforces it for real.
package benchio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark series aggregated across -count repetitions.
type Result struct {
	Name string `json:"name"`
	Runs int    `json:"runs"`
	// NsPerOp is the best (minimum) time per operation across runs — the
	// least-noise estimate of the kernel's speed.
	NsPerOp float64 `json:"ns_per_op"`
	// NsPerOpMean is the arithmetic mean across runs, kept alongside the
	// minimum so trajectory diffs can spot variance blow-ups.
	NsPerOpMean float64 `json:"ns_per_op_mean"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MVMsPerSec is the best (maximum) throughput metric across runs, for
	// benchmarks that report one.
	MVMsPerSec float64 `json:"mvms_per_sec,omitempty"`
}

// Gate records one enforced requirement of a trajectory file. A speedup
// gate compares two benchmarks (Fast, Ref, Required, Speedup); an
// allocation gate (Kind "allocs") bounds one benchmark's allocs/op
// (Fast, MaxAllocs, Allocs).
type Gate struct {
	Kind     string  `json:"kind,omitempty"`
	Fast     string  `json:"fast"`
	Ref      string  `json:"ref,omitempty"`
	Required float64 `json:"required,omitempty"`
	Speedup  float64 `json:"speedup,omitempty"`
	// MaxAllocs and Allocs are an allocation gate's bound and the
	// benchmark's measured allocs/op (the maximum across runs).
	MaxAllocs float64 `json:"max_allocs,omitempty"`
	Allocs    float64 `json:"allocs,omitempty"`
	Passed    bool    `json:"passed"`
	// MinProcs, when positive, marks a parallelism gate: it only binds on
	// hosts with at least this many logical CPUs. Below that the gate is
	// recorded with Waived=true and Passed=true — a single-threaded host
	// cannot demonstrate a parallel speedup, and failing the build there
	// would gate on the machine, not the code.
	MinProcs int  `json:"min_procs,omitempty"`
	Waived   bool `json:"waived,omitempty"`
}

// Report is the trajectory file schema.
type Report struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go_version"`
	MaxProcs  int      `json:"max_procs,omitempty"`
	Results   []Result `json:"results"`
	Gates     []Gate   `json:"gates,omitempty"`
}

// Schema is the current trajectory-file schema identifier. /2 replaced the
// single `gate` field with the `gates` list; /3 added the processor-count
// record (MaxProcs) and waivable parallelism gates (MinProcs/Waived); /4
// added allocation gates (Kind "allocs").
const Schema = "trident-bench/4"

// KindAllocs marks an allocation gate.
const KindAllocs = "allocs"

// procSuffix strips the trailing -GOMAXPROCS from a benchmark name, so the
// same benchmark aggregates under one key on any host.
var procSuffix = regexp.MustCompile(`-\d+$`)

// accum collects one benchmark's repetitions during parsing.
type accum struct {
	runs                  int
	nsMin, nsSum          float64
	bytesMax, allocsMax   float64
	mvmsMax               float64
	haveBytes, haveAllocs bool
}

// Parse reads `go test -bench` output and aggregates repeated runs of each
// benchmark: minimum and mean ns/op, maximum MVMs/sec, maximum B/op and
// allocs/op. Results keep first-appearance order. Non-benchmark lines are
// ignored, so the full `go test` stream can be piped in unfiltered.
func Parse(r io.Reader) ([]Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	byName := map[string]*accum{}
	var order []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // PASS/FAIL summary lines etc.
		}
		a := byName[name]
		if a == nil {
			a = &accum{}
			byName[name] = a
			order = append(order, name)
		}
		a.runs++
		// The remainder is value-unit pairs: "785.1 ns/op 1273814 MVMs/sec
		// 0 B/op 0 allocs/op".
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchio: %s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				if a.runs == 1 || v < a.nsMin {
					a.nsMin = v
				}
				a.nsSum += v
			case "B/op":
				a.haveBytes = true
				if v > a.bytesMax {
					a.bytesMax = v
				}
			case "allocs/op":
				a.haveAllocs = true
				if v > a.allocsMax {
					a.allocsMax = v
				}
			case "MVMs/sec":
				if v > a.mvmsMax {
					a.mvmsMax = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchio: %w", err)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		a := byName[name]
		out = append(out, Result{
			Name:        name,
			Runs:        a.runs,
			NsPerOp:     a.nsMin,
			NsPerOpMean: a.nsSum / float64(a.runs),
			BytesPerOp:  a.bytesMax,
			AllocsPerOp: a.allocsMax,
			MVMsPerSec:  a.mvmsMax,
		})
	}
	return out, nil
}

// Find returns the result with the given name, or nil.
func (rep *Report) Find(name string) *Result {
	for i := range rep.Results {
		if rep.Results[i].Name == name {
			return &rep.Results[i]
		}
	}
	return nil
}

// ApplyGate computes ref/fast speedup from the two named results and appends
// the pass/fail verdict against the required factor to the report's gate
// list. It errors when either benchmark is missing from the report — an
// absent gate benchmark must fail the build, not silently pass it.
//
// minProcs > 0 marks a parallelism requirement: minProcs is the smallest
// logical CPU count (compared with the report's MaxProcs) at which the
// speedup is physically demonstrable. On a host below it the measured ratio
// is still recorded, but the gate is marked waived and passes
// unconditionally. minProcs = 0 means the gate always binds.
func (rep *Report) ApplyGate(fast, ref string, required float64, minProcs int) error {
	f := rep.Find(fast)
	if f == nil {
		return fmt.Errorf("benchio: gate benchmark %q not in report", fast)
	}
	g := rep.Find(ref)
	if g == nil {
		return fmt.Errorf("benchio: gate benchmark %q not in report", ref)
	}
	if f.NsPerOp <= 0 {
		return fmt.Errorf("benchio: gate benchmark %q has no timing", fast)
	}
	speedup := g.NsPerOp / f.NsPerOp
	waived := rep.MaxProcs < minProcs
	rep.Gates = append(rep.Gates, Gate{Fast: fast, Ref: ref, Required: required,
		Speedup: speedup, Passed: waived || speedup >= required,
		MinProcs: minProcs, Waived: waived})
	return nil
}

// ApplyAllocGate appends an allocation gate: the named benchmark passes
// when its allocs/op (the maximum across runs) is at most maxAllocs. Like
// ApplyGate it errors when the benchmark is missing from the report.
func (rep *Report) ApplyAllocGate(bench string, maxAllocs float64) error {
	r := rep.Find(bench)
	if r == nil {
		return fmt.Errorf("benchio: gate benchmark %q not in report", bench)
	}
	rep.Gates = append(rep.Gates, Gate{Kind: KindAllocs, Fast: bench,
		MaxAllocs: maxAllocs, Allocs: r.AllocsPerOp, Passed: r.AllocsPerOp <= maxAllocs})
	return nil
}

// GatesPassed reports whether every recorded gate passed. A report with no
// gates passes vacuously — disabling the gates is an explicit caller choice.
func (rep *Report) GatesPassed() bool {
	for _, g := range rep.Gates {
		if !g.Passed {
			return false
		}
	}
	return true
}

// WriteFile writes the report as indented JSON.
func WriteFile(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a trajectory file.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("benchio: %s: %w", path, err)
	}
	return rep, nil
}
