package mrr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"trident/internal/units"
)

// randomWideBank is randomBank on the extended (multi-comb) channel plan,
// for transpose geometries wider than one comb window.
func randomWideBank(t *testing.T, rng *rand.Rand, rows, cols int, maskRows bool) *WeightBank {
	t.Helper()
	b, err := NewPCMWeightBank(rows, cols, widePlan(t, cols))
	if err != nil {
		t.Fatal(err)
	}
	w := make([][]float64, rows)
	for j := range w {
		w[j] = make([]float64, cols)
		for n := range w[j] {
			w[j][n] = rng.Float64()*2 - 1
		}
	}
	if _, err := b.Program(w, 0); err != nil {
		t.Fatal(err)
	}
	b.RotateRows(rng.Intn(rows))
	if maskRows {
		for pr := 0; pr < rows; pr++ {
			if rng.Float64() < 0.25 {
				b.MaskPhysicalRow(pr)
			}
		}
	}
	return b
}

// randomDelta draws a backward-pass delta vector of the requested flavour:
// dense, zero-heavy, or shorter than the bank's row count.
func randomDelta(rng *rand.Rand, rows int, flavour int) []float64 {
	m := rows
	if flavour == 2 && rows > 1 {
		m = 1 + rng.Intn(rows-1)
	}
	d := make([]float64, m)
	for j := range d {
		if flavour == 1 && rng.Float64() < 0.7 {
			continue
		}
		d[j] = rng.Float64()*2 - 1
	}
	return d
}

// assertTransposeMatches compares an adjoint pass column-wise against the
// direct stored-weight reference at the backward-kernel property tolerance.
func assertTransposeMatches(t *testing.T, got, want []float64, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", context, len(got), len(want))
	}
	for i := range want {
		diff := math.Abs(got[i] - want[i])
		scale := math.Max(math.Abs(want[i]), 1)
		if diff/scale > 1e-12 {
			t.Fatalf("%s: col %d compiled=%v reference=%v (rel err %.3g)",
				context, i, got[i], want[i], diff/scale)
		}
	}
}

// totalTunerWrites sums the write counters of every cell in the bank — the
// endurance-relevant programming traffic the backward pass must not add to.
func totalTunerWrites(b *WeightBank) uint64 {
	var n uint64
	for pr := 0; pr < b.Rows(); pr++ {
		for c := 0; c < b.Cols(); c++ {
			n += uint64(b.PhysicalTuner(pr, c).Writes())
		}
	}
	return n
}

// TestTransposeCompiledMatchesReferenceUnderMutation is the backward-kernel
// property test: on non-square banks it interleaves every public
// weight-state mutator — Program, Refresh, ApplyDrift, OverrideWeight,
// OverridePhysicalWeight, MaskPhysicalRow, RotateRows — with single and
// batched adjoint passes and asserts the compiled transpose view tracks the
// direct stored-weight reference to ≤1e-12 relative error after every
// mutation. A mutator that patched Weff but not WeffT would serve a stale
// transpose view here and fail immediately.
func TestTransposeCompiledMatchesReferenceUnderMutation(t *testing.T) {
	const year = 365 * 24 * 3600 * units.Second
	geometries := [][2]int{{16, 16}, {24, 16}, {48, 64}, {96, 80}}
	for _, g := range geometries {
		rows, cols := g[0], g[1]
		t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
			b := randomWideBank(t, rng, rows, cols, false)
			var now units.Duration
			for step := 0; step < 24; step++ {
				switch rng.Intn(7) {
				case 0:
					w := make([][]float64, rows)
					for j := range w {
						w[j] = make([]float64, cols)
						for i := range w[j] {
							w[j][i] = rng.Float64()*2 - 1
						}
					}
					if _, err := b.Program(w, now); err != nil {
						t.Fatal(err)
					}
				case 1:
					b.Refresh(now)
				case 2:
					b.ApplyDrift(units.Duration(rng.Float64()) * year)
				case 3:
					b.OverrideWeight(rng.Intn(rows), rng.Intn(cols), rng.Float64()*2-1)
				case 4:
					b.OverridePhysicalWeight(rng.Intn(rows), rng.Intn(cols), rng.Float64()*2-1)
				case 5:
					if b.MaskedRowCount() < rows/4 {
						b.MaskPhysicalRow(rng.Intn(rows))
					}
				case 6:
					b.RotateRows(rng.Intn(rows))
				}
				now += units.Second
				delta := randomDelta(rng, rows, step%3)
				assertTransposeMatches(t, b.TransposeMVM(nil, delta),
					b.ReferenceTransposeMVM(nil, delta),
					fmt.Sprintf("step %d single", step))
				if step%4 == 0 {
					const batch = 5
					ds := make([]float64, batch*rows)
					for i := range ds {
						ds[i] = rng.Float64()*2 - 1
					}
					got := b.TransposeMVMBatchInto(nil, ds, batch, rows)
					for s := 0; s < batch; s++ {
						want := b.ReferenceTransposeMVM(nil, ds[s*rows:(s+1)*rows])
						assertTransposeMatches(t, got[s*cols:(s+1)*cols], want,
							fmt.Sprintf("step %d batch sample %d", step, s))
					}
				}
			}
		})
	}
}

// TestTransposeViewIsExactTranspose pins the strongest form of the shared
// snapshot claim: after a mutator storm and a recompile, WeffT is the
// bitwise transpose of Weff — not merely numerically close — because
// compileRow writes both views from the same folded row.
func TestTransposeViewIsExactTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := randomWideBank(t, rng, 40, 56, true)
	b.EnsureTransposeCompiled()
	for step := 0; step < 12; step++ {
		b.OverrideWeight(rng.Intn(40), rng.Intn(56), rng.Float64()*2-1)
		if step%3 == 0 {
			b.RotateRows(1)
		}
		if step%5 == 0 {
			b.ApplyDrift(units.Duration(step+1) * units.Second)
		}
		b.EnsureTransposeCompiled()
		for j := 0; j < b.rows; j++ {
			for i := 0; i < b.cols; i++ {
				if b.wefft[i*b.rows+j] != b.weff[j*b.cols+i] {
					t.Fatalf("step %d: wefft[%d,%d]=%v != weff[%d,%d]=%v",
						step, i, j, b.wefft[i*b.rows+j], j, i, b.weff[j*b.cols+i])
				}
			}
		}
	}
}

// TestTransposeSharedDirtyRowPatch asserts the incremental path covers both
// views: with the transpose view active, a single-cell override recompiles
// exactly one row (RowsCompiled moves by 1, not by the bank height) and
// both the forward and adjoint passes serve the patched value.
func TestTransposeSharedDirtyRowPatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := randomBank(t, rng, 32, 24, false)
	b.EnsureTransposeCompiled()
	before := b.RowsCompiled()
	b.OverrideWeight(5, 3, 0.73)
	if got := b.DirtyRowCount(); got != 1 {
		t.Fatalf("dirty rows after one override: got %d, want 1", got)
	}
	delta := randomDelta(rng, 32, 0)
	assertTransposeMatches(t, b.TransposeMVM(nil, delta),
		b.ReferenceTransposeMVM(nil, delta), "adjoint after patch")
	if got := b.RowsCompiled() - before; got != 1 {
		t.Fatalf("rows recompiled for one dirty row: got %d, want 1", got)
	}
	x := randomInput(rng, 24, 0)
	assertMatchesReference(t, b.MVM(nil, x), b.ReferenceMVM(nil, x),
		"forward after patch")
}

// TestTransposeBatchBitIdenticalAcrossWorkers pins the batched adjoint GEMM
// to per-sample compiled passes bitwise, serial and at several worker
// counts: fixed output-block ownership means the parallel shards write
// disjoint slices and no merge step exists to reorder accumulation.
func TestTransposeBatchBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const rows, cols, batch = 96, 80, 12
	b := randomWideBank(t, rng, rows, cols, true)
	ds := make([]float64, batch*rows)
	for i := range ds {
		ds[i] = rng.Float64()*2 - 1
	}
	want := make([]float64, batch*cols)
	for s := 0; s < batch; s++ {
		b.TransposeMVM(want[s*cols:(s+1)*cols], ds[s*rows:(s+1)*rows])
	}
	for _, workers := range []int{0, 1, 2, 8} {
		b.SetParallelFor(nil)
		if workers > 0 {
			b.SetParallelFor(testParallelFor(workers))
		}
		got := b.TransposeMVMBatchInto(nil, ds, batch, rows)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: element %d batch=%v single=%v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestTransposePassPerformsNoWrites is the wear-accounting property at the
// bank level: adjoint passes — single, batched, and the view activation
// itself — must issue zero tuner write pulses and leave the weight-state
// epoch untouched, so the backward path neither draws down Weibull
// endurance nor ping-pongs the compiled snapshot.
func TestTransposePassPerformsNoWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := randomBank(t, rng, 24, 24, false)
	if b.TransposeViewActive() {
		t.Fatal("transpose view materialized before first adjoint pass")
	}
	writes, epoch := totalTunerWrites(b), b.Epoch()
	delta := randomDelta(rng, 24, 0)
	b.TransposeMVM(nil, delta)
	const batch = 4
	ds := make([]float64, batch*24)
	for i := range ds {
		ds[i] = rng.Float64()*2 - 1
	}
	b.compiledTransposeMVMBatch(b.tbatchPrepare(nil, ds, batch, 24), ds, batch, 24)
	if !b.TransposeViewActive() {
		t.Fatal("transpose view not materialized by adjoint pass")
	}
	if got := totalTunerWrites(b); got != writes {
		t.Fatalf("adjoint passes issued %d tuner writes", got-writes)
	}
	if got := b.Epoch(); got != epoch {
		t.Fatalf("adjoint passes moved the epoch %d→%d", epoch, got)
	}
	if got := b.DirtyRowCount(); got != 0 {
		t.Fatalf("adjoint passes left %d dirty rows", got)
	}
}
