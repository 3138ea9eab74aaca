package core_test

import (
	"math"
	"math/rand"
	"testing"

	"trident/internal/core"
	"trident/internal/models"
	"trident/internal/tensor"
)

// TestConvTransposeMatchesTileMajorReference bounds the column-stripe conv
// transpose against the retired per-sample, tile-major col2im merge
// (core.ReferenceTrainBatch). Twin graphs take one training step each, one
// per path: the conv input gradients may differ only by float summation
// order (≤1e-12 of the reference's largest magnitude), while every PE's
// ledger, elapsed time and next noise draw must be bit-equal, since each PE
// still sees the same rows in the same order.
func TestConvTransposeMatchesTileMajorReference(t *testing.T) {
	cfg := core.NetworkConfig{PE: core.PEConfig{Rows: 8, Cols: 8}, LearningRate: 0.05}
	builds := map[string]func() (*core.Graph, error){
		"multitile-conv": func() (*core.Graph, error) {
			return core.NewConvNet(cfg, []tensor.Conv2DSpec{
				{InC: 3, InH: 8, InW: 8, OutC: 12, KH: 3, KW: 3,
					StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
				{InC: 12, InH: 8, InW: 8, OutC: 10, KH: 3, KW: 3,
					StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
			}, 3)
		},
		"mini-branched": func() (*core.Graph, error) {
			return models.HardwareMiniBranched(cfg, 1, 8, 3)
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			stripe, err := build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := build()
			if err != nil {
				t.Fatal(err)
			}
			const batch = 3
			rng := rand.New(rand.NewSource(11))
			xs := make([]float64, batch*stripe.InputSize())
			for i := range xs {
				xs[i] = rng.Float64()*2 - 1
			}
			labels := []int{0, 1, 2}
			if _, err := stripe.TrainBatch(xs, labels); err != nil {
				t.Fatal(err)
			}
			if err := core.ReferenceTrainBatch(ref, xs, labels); err != nil {
				t.Fatal(err)
			}
			got, want := core.ConvInputGrads(stripe, batch), core.ConvInputGrads(ref, batch)
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("%d conv input gradients, reference %d", len(got), len(want))
			}
			for k := range want {
				var peak, worst float64
				for i, w := range want[k] {
					peak = math.Max(peak, math.Abs(w))
					worst = math.Max(worst, math.Abs(got[k][i]-w))
				}
				if peak == 0 {
					t.Fatalf("conv %d: reference input gradient is all zero", k)
				}
				t.Logf("conv %d: largest difference %g, peak %g", k, worst, peak)
				if worst > 1e-12*peak {
					t.Errorf("conv %d: input gradient off by %g, peak %g", k, worst, peak)
				}
			}
			var sp, rp []*core.PE
			stripe.ForEachPE(func(_, _, _ int, pe *core.PE) { sp = append(sp, pe) })
			ref.ForEachPE(func(_, _, _ int, pe *core.PE) { rp = append(rp, pe) })
			for i := range rp {
				sl, rl := sp[i].Ledger(), rp[i].Ledger()
				sb, rb := sl.Breakdown(), rl.Breakdown()
				if len(sb) != len(rb) {
					t.Fatalf("PE %d: %d ledger categories, reference %d", i, len(sb), len(rb))
				}
				for cat, e := range rb {
					if sb[cat] != e {
						t.Errorf("PE %d: %s energy %v, reference %v", i, cat, sb[cat], e)
					}
				}
				if sl.Elapsed() != rl.Elapsed() {
					t.Errorf("PE %d: elapsed %v, reference %v", i, sl.Elapsed(), rl.Elapsed())
				}
				if s, r := core.NextNoiseDraw(sp[i]), core.NextNoiseDraw(rp[i]); math.Float64bits(s) != math.Float64bits(r) {
					t.Errorf("PE %d: next noise draw %v, reference %v", i, s, r)
				}
			}
		})
	}
}
