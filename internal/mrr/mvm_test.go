package mrr

import (
	"math"
	"math/rand"
	"testing"
)

// randomBank builds a rows×cols PCM bank with random programmed weights,
// a random wear-leveling rotation, and (optionally) randomly masked rows —
// the full semantic surface the compiled kernel must share with the
// reference kernel.
func randomBank(t *testing.T, rng *rand.Rand, rows, cols int, maskRows bool) *WeightBank {
	t.Helper()
	b, err := NewPCMWeightBank(rows, cols, testPlan(t, cols))
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
		// Mask up to half the physical rows.
		for pr := 0; pr < rows; pr++ {
			if rng.Float64() < 0.25 {
				b.MaskPhysicalRow(pr)
			}
		}
	}
	return b
}

// randomInput draws an input vector of the requested flavour: dense, zero-
// heavy (≈70% exact zeros, the sparse-probe regime), or shorter than the
// bank width.
func randomInput(rng *rand.Rand, cols int, flavour int) []float64 {
	n := cols
	if flavour == 2 && cols > 1 {
		n = 1 + rng.Intn(cols-1)
	}
	x := make([]float64, n)
	for i := range x {
		switch flavour {
		case 1:
			if rng.Float64() < 0.7 {
				continue
			}
			x[i] = rng.Float64()*2 - 1
		default:
			x[i] = rng.Float64()*2 - 1
		}
	}
	return x
}

// TestCompiledKernelMatchesReference is the kernel-equivalence property
// test: across random bank geometries — including masked rows, rotated row
// maps, zero-heavy and short inputs — the compiled kernel must agree with
// the reference triple loop to 1e-12 relative error.
func TestCompiledKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(16)
		b := randomBank(t, rng, rows, cols, trial%2 == 0)
		for flavour := 0; flavour < 3; flavour++ {
			x := randomInput(rng, cols, flavour)
			fast := make([]float64, rows)
			b.compiledMVM(fast, x)
			ref := b.ReferenceMVM(nil, x)
			for j := range fast {
				diff := math.Abs(fast[j] - ref[j])
				scale := math.Max(math.Abs(ref[j]), 1)
				if diff/scale > 1e-12 {
					t.Fatalf("trial %d flavour %d: row %d fast=%v ref=%v (rel err %.3g)",
						trial, flavour, j, fast[j], ref[j], diff/scale/1e-12)
				}
			}
		}
	}
}

// TestMVMBatchMatchesSingle asserts the batched bank path is bit-identical
// to running the samples one at a time, including masked rows and a rotated
// row map.
func TestMVMBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := randomBank(t, rng, 6, 10, true)
	const batch, n = 7, 10
	xs := make([]float64, batch*n)
	for i := range xs {
		if rng.Float64() < 0.3 {
			continue
		}
		xs[i] = rng.Float64()*2 - 1
	}
	got := b.MVMBatchInto(nil, xs, batch, n)
	if len(got) != batch*b.Rows() {
		t.Fatalf("batch output length %d, want %d", len(got), batch*b.Rows())
	}
	single := make([]float64, b.Rows())
	for s := 0; s < batch; s++ {
		b.MVM(single, xs[s*n:(s+1)*n])
		for j := range single {
			if got[s*b.Rows()+j] != single[j] {
				t.Fatalf("sample %d row %d: batch %v, single %v", s, j, got[s*b.Rows()+j], single[j])
			}
		}
	}
	// The batched path must reuse a sufficiently large destination.
	dst := make([]float64, batch*b.Rows())
	if out := b.MVMBatchInto(dst, xs, batch, n); &out[0] != &dst[0] {
		t.Error("MVMBatchInto must reuse a sufficiently large dst")
	}
}

// TestMVMBatchPanicsOnBadGeometry pins the wiring-error contract.
func TestMVMBatchPanicsOnBadGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := randomBank(t, rng, 2, 4, false)
	for name, fn := range map[string]func(){
		"wide sample":  func() { b.MVMBatchInto(nil, make([]float64, 10), 2, 5) },
		"short inputs": func() { b.MVMBatchInto(nil, make([]float64, 3), 2, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestBandRadius asserts the constructor-time clip: every distance inside
// the radius that the kernels use carries measurable leakage, and every
// distance beyond it sits under the detector floor.
func TestBandRadius(t *testing.T) {
	b, err := NewPCMWeightBank(2, 16, testPlan(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	r := b.BandRadius()
	if r < 1 || r > 15 {
		t.Fatalf("band radius %d outside [1,15]", r)
	}
	prof := b.CrosstalkProfile()
	if prof[r] < crosstalkFloor {
		t.Errorf("crosstalk[%d] = %v below floor inside band", r, prof[r])
	}
	for d := r + 1; d < len(prof); d++ {
		if prof[d] >= crosstalkFloor {
			t.Errorf("crosstalk[%d] = %v above floor outside band radius %d", d, prof[d], r)
		}
	}
	// A single-column bank has no neighbours at all.
	b1, err := NewPCMWeightBank(1, 1, testPlan(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if b1.BandRadius() != 0 {
		t.Errorf("1-column bank radius = %d, want 0", b1.BandRadius())
	}
}
