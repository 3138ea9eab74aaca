package core

// Partial-tile passes. The last row tile of a layer whose output count is
// not a multiple of the bank height — and the last column tile of one whose
// input count is not a multiple of the bank width — carries no output behind
// its extra bank rows (columns), so its passes compute only the live extent
// (see PE.MVMPassBatchInto). These tests pin what that must leave
// observable: the live outputs of a full-extent pass, dead entries that read
// exactly their detection-noise draw added to +0, and the noise stream and
// ledger of a full pass.

import (
	"fmt"
	"math/rand"
	"testing"
)

// partialTileSentinel prefills every destination, so a live entry the pass
// did not write, or a dead one it did not clear, cannot read correctly.
const partialTileSentinel = 7.5

// newPartialTilePE builds a noisy rows×cols PE holding seeded weights in
// every cell, dead rows and columns included, so a dead entry that was
// computed rather than cleared reads W·x, not zero.
func newPartialTilePE(t *testing.T, rows, cols int) *PE {
	t.Helper()
	pe, err := NewPE(PEConfig{Rows: rows, Cols: cols, NoiseSeed: 31})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	w := make([][]float64, rows)
	for j := range w {
		w[j] = make([]float64, cols)
		for i := range w[j] {
			w[j][i] = rng.Float64()*2 - 1
		}
	}
	if err := pe.Program(w); err != nil {
		t.Fatal(err)
	}
	return pe
}

func filledFloats(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = partialTileSentinel
	}
	return v
}

// TestPartialTilePass runs forward passes over live rows m < Rows and
// adjoint passes over live columns n < Cols, on an 8×8 bank and on a 96×32
// bank with a full 32-sample panel, at one, two and eight tile-engine
// workers. Each pass is checked against a twin PE
// running the full-extent pass (live entries bit-identical), against a
// second twin that adds its noise draws to +0 (dead entries), and then for
// an equal next noise draw, ledger breakdown and elapsed time.
func TestPartialTilePass(t *testing.T) {
	cases := []struct {
		rows, cols, batch int
		m, n              int // live rows (forward) / delta width (adjoint); input width / live columns
	}{
		{8, 8, 5, 5, 3},
		{8, 8, 1, 1, 7},
		{96, 32, 32, 90, 30},
	}
	for _, workers := range []int{1, 2, 8} {
		for _, tc := range cases {
			for _, adjoint := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/%dx%d/m=%d,n=%d/adjoint=%v", workers, tc.rows, tc.cols, tc.m, tc.n, adjoint)
				t.Run(name, func(t *testing.T) {
					prev := SetMaxWorkers(workers)
					defer SetMaxWorkers(prev)
					pe := newPartialTilePE(t, tc.rows, tc.cols)
					ref := newPartialTilePE(t, tc.rows, tc.cols)
					twin := newPartialTilePE(t, tc.rows, tc.cols)
					// pass runs the live-extent pass on pe and the full one on
					// ref; width is a sample's output width, live its live
					// extent and depth the optical sum's channel count.
					var got, want []float64
					var width, live, depth int
					if !adjoint {
						width, live, depth = tc.rows, tc.m, tc.n
						xs := batchInputs(t, 33, tc.batch, depth)
						var err error
						if got, err = pe.MVMPassBatchInto(filledFloats(tc.batch*width), xs, tc.batch, depth, live); err != nil {
							t.Fatal(err)
						}
						if want, err = ref.MVMPassBatchInto(filledFloats(tc.batch*width), xs, tc.batch, depth, width); err != nil {
							t.Fatal(err)
						}
					} else {
						width, live, depth = tc.cols, tc.n, tc.m
						ds := batchInputs(t, 34, tc.batch, depth)
						var err error
						if got, err = pe.TransposePassBatchInto(filledFloats(tc.batch*width), ds, tc.batch, depth, live); err != nil {
							t.Fatal(err)
						}
						if want, err = ref.TransposePassBatchInto(filledFloats(tc.batch*width), ds, tc.batch, depth, width); err != nil {
							t.Fatal(err)
						}
					}
					noise := make([]float64, tc.batch*width)
					twin.addNoise(noise, depth)
					for k := range want {
						w, what := want[k], "full pass"
						if k%width >= live {
							w, what = noise[k], "noise on +0"
						}
						if got[k] != w {
							t.Fatalf("sample %d entry %d = %v, want %v (%s)", k/width, k%width, got[k], w, what)
						}
					}
					if g, w := NextNoiseDraw(pe), NextNoiseDraw(ref); g != w {
						t.Fatalf("next noise draw %v, full pass %v", g, w)
					}
					requireSameLedger(t, ref.Ledger(), pe.Ledger())
				})
			}
		}
	}
}
