package benchio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: trident
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBankMVM/64x64-8    	   19147	     13259 ns/op	     75422 MVMs/sec	       0 B/op	       0 allocs/op
BenchmarkBankMVM/64x64-8    	   20000	     12800 ns/op	     78000 MVMs/sec	       0 B/op	       0 allocs/op
BenchmarkBankMVMReference/64x64-8	     487	    457775 ns/op	      2185 MVMs/sec	       0 B/op	       0 allocs/op
BenchmarkBankProgram/16x16-8    	    5000	    240000 ns/op	    1024 B/op	       2 allocs/op
PASS
ok  	trident	3.600s
`

func TestParseAggregates(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	mvm := results[0]
	if mvm.Name != "BenchmarkBankMVM/64x64" {
		t.Fatalf("name %q (CPU suffix must be stripped)", mvm.Name)
	}
	if mvm.Runs != 2 {
		t.Errorf("runs = %d, want 2", mvm.Runs)
	}
	if mvm.NsPerOp != 12800 {
		t.Errorf("ns/op = %v, want min 12800", mvm.NsPerOp)
	}
	if want := (13259.0 + 12800.0) / 2; mvm.NsPerOpMean != want {
		t.Errorf("mean ns/op = %v, want %v", mvm.NsPerOpMean, want)
	}
	if mvm.MVMsPerSec != 78000 {
		t.Errorf("MVMs/sec = %v, want max 78000", mvm.MVMsPerSec)
	}
	prog := results[2]
	if prog.AllocsPerOp != 2 || prog.BytesPerOp != 1024 {
		t.Errorf("program allocs=%v bytes=%v, want 2/1024", prog.AllocsPerOp, prog.BytesPerOp)
	}
}

func TestApplyGate(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Schema: Schema, Results: results}
	if err := rep.ApplyGate("BenchmarkBankMVM/64x64", "BenchmarkBankMVMReference/64x64", 2, 0); err != nil {
		t.Fatal(err)
	}
	if len(rep.Gates) != 1 || !rep.Gates[0].Passed {
		t.Errorf("gate failed: %+v", rep.Gates)
	}
	if want := 457775.0 / 12800.0; rep.Gates[0].Speedup != want {
		t.Errorf("speedup %v, want %v", rep.Gates[0].Speedup, want)
	}
	if !rep.GatesPassed() {
		t.Error("GatesPassed = false with one passing gate")
	}
	if err := rep.ApplyGate("BenchmarkMissing", "BenchmarkBankMVM/64x64", 2, 0); err == nil {
		t.Error("missing fast benchmark: want error")
	}
	if err := rep.ApplyGate("BenchmarkBankMVM/64x64", "BenchmarkMissing", 2, 0); err == nil {
		t.Error("missing ref benchmark: want error")
	}
	if len(rep.Gates) != 1 {
		t.Errorf("failed ApplyGate calls must not append gates: %+v", rep.Gates)
	}
	// An impossible requirement must record a failing second gate without
	// disturbing the first.
	if err := rep.ApplyGate("BenchmarkBankMVMReference/64x64", "BenchmarkBankMVM/64x64", 2, 0); err != nil {
		t.Fatal(err)
	}
	if len(rep.Gates) != 2 || rep.Gates[1].Passed {
		t.Errorf("inverted gate: %+v", rep.Gates)
	}
	if !rep.Gates[0].Passed {
		t.Error("first gate verdict changed by second ApplyGate")
	}
	if rep.GatesPassed() {
		t.Error("GatesPassed = true with a failing gate")
	}
}

func TestApplyGateMinProcs(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	// The "parallel" benchmark here is slower than its reference, so the raw
	// gate fails — exactly the situation on a single-CPU host.
	rep := &Report{Schema: Schema, Results: results, MaxProcs: 1}
	if err := rep.ApplyGate("BenchmarkBankMVMReference/64x64", "BenchmarkBankMVM/64x64", 1.5, 2); err != nil {
		t.Fatal(err)
	}
	g := rep.Gates[0]
	if !g.Waived || !g.Passed {
		t.Errorf("below min_procs the gate must be waived and pass: %+v", g)
	}
	if g.MinProcs != 2 {
		t.Errorf("min_procs = %d, want 2", g.MinProcs)
	}
	if want := 12800.0 / 457775.0; g.Speedup != want {
		t.Errorf("waived gate must still record the measured ratio: %v, want %v", g.Speedup, want)
	}
	if !rep.GatesPassed() {
		t.Error("GatesPassed = false with a waived gate")
	}
	// At or above min_procs the same numbers must fail for real.
	rep2 := &Report{Schema: Schema, Results: results, MaxProcs: 8}
	if err := rep2.ApplyGate("BenchmarkBankMVMReference/64x64", "BenchmarkBankMVM/64x64", 1.5, 2); err != nil {
		t.Fatal(err)
	}
	if g := rep2.Gates[0]; g.Waived || g.Passed {
		t.Errorf("at min_procs the gate must bind: %+v", g)
	}
	// And a genuinely fast kernel passes without a waiver.
	rep3 := &Report{Schema: Schema, Results: results, MaxProcs: 8}
	if err := rep3.ApplyGate("BenchmarkBankMVM/64x64", "BenchmarkBankMVMReference/64x64", 1.5, 2); err != nil {
		t.Fatal(err)
	}
	if g := rep3.Gates[0]; g.Waived || !g.Passed {
		t.Errorf("fast kernel on a multi-core host: %+v", g)
	}
	if err := rep3.ApplyGate("BenchmarkMissing", "BenchmarkBankMVM/64x64", 1.5, 2); err == nil {
		t.Error("missing benchmark: want error")
	}
}

// TestApplyAllocGate covers the allocation gate: a benchmark at or under
// its bound passes, one over it fails the report, and a missing benchmark
// is an error that appends no gate.
func TestApplyAllocGate(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Schema: Schema, Results: results}
	if err := rep.ApplyAllocGate("BenchmarkBankProgram/16x16", 2); err != nil {
		t.Fatal(err)
	}
	g := rep.Gates[0]
	if g.Kind != KindAllocs || g.Allocs != 2 || g.MaxAllocs != 2 || !g.Passed {
		t.Errorf("allocs at the bound must pass: %+v", g)
	}
	if !rep.GatesPassed() {
		t.Error("GatesPassed = false with one passing allocation gate")
	}
	if err := rep.ApplyAllocGate("BenchmarkMissing", 100); err == nil {
		t.Error("missing benchmark: want error")
	}
	if len(rep.Gates) != 1 {
		t.Errorf("failed ApplyAllocGate must not append a gate: %+v", rep.Gates)
	}
	if err := rep.ApplyAllocGate("BenchmarkBankProgram/16x16", 1); err != nil {
		t.Fatal(err)
	}
	if g := rep.Gates[1]; g.Passed {
		t.Errorf("allocs over the bound must fail: %+v", g)
	}
	if rep.GatesPassed() {
		t.Error("GatesPassed = true with a failing allocation gate")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Schema: Schema, GoVersion: "go1.22", Results: results}
	if err := rep.ApplyGate("BenchmarkBankMVM/64x64", "BenchmarkBankMVMReference/64x64", 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyGate("BenchmarkBankMVM/64x64", "BenchmarkBankProgram/16x16", 1.5, 0); err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyAllocGate("BenchmarkBankProgram/16x16", 4); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteFile(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || len(back.Results) != len(rep.Results) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if len(back.Gates) != 3 || back.Gates[0].Speedup != rep.Gates[0].Speedup ||
		back.Gates[1].Speedup != rep.Gates[1].Speedup || back.Gates[2] != rep.Gates[2] {
		t.Errorf("gates did not survive round trip: %+v", back.Gates)
	}
}

// TestReadFileRejectsBadJSON pins the failure mode for damaged trajectory
// files: malformed, truncated and empty files must all error (naming the
// file), never come back as a zero-value report that would pass gating.
func TestReadFileRejectsBadJSON(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"garbage.json":   "not json at all {",
		"truncated.json": `{"schema":"trident-bench/3","results":[{"name":"B`,
		"empty.json":     "",
	}
	for name, body := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if err == nil {
			t.Errorf("%s: ReadFile accepted damaged JSON", name)
			continue
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("ReadFile of a missing file must error")
	}
}

// TestParseMalformedLines pins Parse's tolerance contract: short and
// non-benchmark lines are skipped (the raw `go test` stream contains
// them), but a benchmark line with an unparseable measurement is a hard
// error — silently dropping it would un-gate the build.
func TestParseMalformedLines(t *testing.T) {
	tolerated := `goos: linux
BenchmarkShort-8
BenchmarkNoIter-8	notanumber	100 ns/op
--- BENCH: BenchmarkVerbose-8
BenchmarkReal-8	100	250 ns/op
PASS
`
	results, err := Parse(strings.NewReader(tolerated))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Name != "BenchmarkReal" {
		t.Fatalf("want only BenchmarkReal to survive, got %+v", results)
	}
	if _, err := Parse(strings.NewReader("BenchmarkBad-8\t100\tabc ns/op\n")); err == nil {
		t.Error("unparseable measurement must be a hard error")
	}
	results, err = Parse(strings.NewReader("no benchmarks here\n"))
	if err != nil || len(results) != 0 {
		t.Errorf("benchmark-free stream: got %v, %v", results, err)
	}
}

// TestGateBoundaries pins the two gate comparisons exactly at their
// thresholds: a measured speedup equal to the requirement passes (the
// gate is ≥, not >), and a host with exactly MinProcs CPUs binds the
// parallel gate rather than waiving it.
func TestGateBoundaries(t *testing.T) {
	rep := &Report{Schema: Schema, Results: []Result{
		{Name: "fast", NsPerOp: 100},
		{Name: "ref", NsPerOp: 150},
	}}
	if err := rep.ApplyGate("fast", "ref", 1.5, 0); err != nil {
		t.Fatal(err)
	}
	if g := rep.Gates[0]; g.Speedup != 1.5 || !g.Passed {
		t.Errorf("speedup exactly at the requirement must pass: %+v", g)
	}

	// procs == minProcs is the smallest host the gate binds on.
	bind := &Report{Schema: Schema, Results: rep.Results, MaxProcs: 2}
	if err := bind.ApplyGate("ref", "fast", 1.5, 2); err != nil {
		t.Fatal(err)
	}
	if g := bind.Gates[0]; g.Waived || g.Passed {
		t.Errorf("at exactly min_procs the gate must bind and this ratio must fail: %+v", g)
	}
	waive := &Report{Schema: Schema, Results: rep.Results, MaxProcs: 1}
	if err := waive.ApplyGate("ref", "fast", 1.5, 2); err != nil {
		t.Fatal(err)
	}
	if g := waive.Gates[0]; !g.Waived || !g.Passed {
		t.Errorf("one CPU below min_procs must waive: %+v", g)
	}
}
