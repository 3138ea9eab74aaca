package mrr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"trident/internal/optics"
	"trident/internal/units"
)

// widePlan builds a channel plan for the requested width, falling back to
// the extended (multi-comb) plan for the benchmark-scale stress geometries
// that exceed one comb window.
func widePlan(t *testing.T, cols int) *optics.ChannelPlan {
	t.Helper()
	p, err := optics.NewExtendedChannelPlan(cols)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wideBank builds a programmed width×width PCM bank on the extended plan.
func wideBank(t *testing.T, rng *rand.Rand, width int) *WeightBank {
	t.Helper()
	b, err := NewPCMWeightBank(width, width, widePlan(t, width))
	if err != nil {
		t.Fatal(err)
	}
	w := make([][]float64, width)
	for j := range w {
		w[j] = make([]float64, width)
		for i := range w[j] {
			w[j][i] = rng.Float64()*2 - 1
		}
	}
	if _, err := b.Program(w, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// assertMatchesReference compares an MVM output row-wise against the
// reference triple loop at the compiled-path acceptance tolerance.
func assertMatchesReference(t *testing.T, got, want []float64, context string) {
	t.Helper()
	for j := range want {
		diff := math.Abs(got[j] - want[j])
		scale := math.Max(math.Abs(want[j]), 1)
		if diff/scale > 1e-9 {
			t.Fatalf("%s: row %d compiled=%v reference=%v (rel err %.3g)",
				context, j, got[j], want[j], diff/scale)
		}
	}
}

// TestCompiledMatchesReferenceUnderMutation is the snapshot-invalidation
// property test: at 16/64/256 widths it interleaves every public
// weight-state mutator — Program, Refresh, ApplyDrift, OverrideWeight,
// OverridePhysicalWeight, MaskPhysicalRow, RotateRows — with MVM and
// batched-MVM passes and asserts the compiled output tracks ReferenceMVM to
// ≤1e-9 relative error after every mutation. A mutator that failed to bump
// the epoch would serve a stale snapshot here and fail immediately.
func TestCompiledMatchesReferenceUnderMutation(t *testing.T) {
	const year = 365 * 24 * 3600 * units.Second
	for _, width := range []int{16, 64, 256} {
		width := width
		t.Run(fmt.Sprintf("%dx%d", width, width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(width)))
			b := wideBank(t, rng, width)
			steps := 24
			if width >= 256 {
				steps = 8 // the reference kernel is O(J·n·N) at this width
			}
			var now units.Duration
			for step := 0; step < steps; step++ {
				switch rng.Intn(7) {
				case 0:
					w := make([][]float64, width)
					for j := range w {
						w[j] = make([]float64, width)
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
					b.OverrideWeight(rng.Intn(width), rng.Intn(width), rng.Float64()*2-1)
				case 4:
					b.OverridePhysicalWeight(rng.Intn(width), rng.Intn(width), rng.Float64()*2-1)
				case 5:
					if b.MaskedRowCount() < width/4 {
						b.MaskPhysicalRow(rng.Intn(width))
					}
				case 6:
					b.RotateRows(rng.Intn(width))
				}
				now += units.Second
				x := randomInput(rng, width, step%3)
				assertMatchesReference(t, b.MVMBatchInto(nil, x, 1, len(x)), b.ReferenceMVM(nil, x),
					fmt.Sprintf("step %d single", step))
				if step%4 == 0 {
					const batch = 5
					xs := make([]float64, batch*width)
					for i := range xs {
						xs[i] = rng.Float64()*2 - 1
					}
					got := b.MVMBatchInto(nil, xs, batch, width)
					for s := 0; s < batch; s++ {
						want := b.ReferenceMVM(nil, xs[s*width:(s+1)*width])
						assertMatchesReference(t, got[s*width:(s+1)*width], want,
							fmt.Sprintf("step %d batch sample %d", step, s))
					}
				}
			}
		})
	}
}

// TestEveryMutatorBumpsEpoch is the staleness test: each public mutator is
// applied to a bank whose snapshot was just compiled (by an MVM), and the
// test asserts (a) the weight-state epoch moved and (b) the very next MVM
// matches ReferenceMVM — through the public surface only, never via
// internals. If a mutator forgot its invalidate() call, (a) fails outright
// and (b) would serve the pre-mutation snapshot.
func TestEveryMutatorBumpsEpoch(t *testing.T) {
	const year = 365 * 24 * 3600 * units.Second
	const width = 12
	mutators := []struct {
		name string
		call func(t *testing.T, b *WeightBank)
	}{
		{"Program", func(t *testing.T, b *WeightBank) {
			w := make([][]float64, width)
			rng := rand.New(rand.NewSource(99))
			for j := range w {
				w[j] = make([]float64, width)
				for i := range w[j] {
					w[j][i] = rng.Float64()*2 - 1
				}
			}
			if _, err := b.Program(w, units.Second); err != nil {
				t.Fatal(err)
			}
		}},
		{"Refresh", func(t *testing.T, b *WeightBank) { b.Refresh(units.Second) }},
		{"ApplyDrift", func(t *testing.T, b *WeightBank) { b.ApplyDrift(year) }},
		{"OverrideWeight", func(t *testing.T, b *WeightBank) { b.OverrideWeight(3, 4, 0.987) }},
		{"OverridePhysicalWeight", func(t *testing.T, b *WeightBank) { b.OverridePhysicalWeight(5, 1, -0.654) }},
		{"MaskPhysicalRow", func(t *testing.T, b *WeightBank) { b.MaskPhysicalRow(2) }},
		{"RotateRows", func(t *testing.T, b *WeightBank) { b.RotateRows(1) }},
	}
	for _, m := range mutators {
		m := m
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			b := wideBank(t, rng, width)
			// Give Refresh drift displacement to undo, so it both bumps the
			// epoch and visibly changes the readout. Half a year, so the
			// ApplyDrift(year) mutator also visibly moves the readout.
			b.ApplyDrift(year / 2)
			x := randomInput(rng, width, 0)
			before := append([]float64(nil), b.MVMBatchInto(nil, x, 1, len(x))...) // compiles the snapshot
			epoch := b.Epoch()
			m.call(t, b)
			if b.Epoch() == epoch {
				t.Fatalf("%s did not bump the weight-state epoch: a stale compiled snapshot would be served", m.name)
			}
			got := b.MVMBatchInto(nil, x, 1, len(x))
			assertMatchesReference(t, got, b.ReferenceMVM(nil, x), m.name)
			// Sanity: the mutation visibly changed the output, so a stale
			// snapshot could not have hidden behind an unchanged result.
			changed := false
			for j := range got {
				if got[j] != before[j] {
					changed = true
					break
				}
			}
			if !changed {
				t.Fatalf("%s left the MVM output bit-identical; the staleness check proves nothing", m.name)
			}
		})
	}
}

// TestCompiledBatchBitIdenticalToSingle pins the register-blocked batch
// kernel's determinism contract across its micro-kernel tails: odd row
// counts (row-pair remainder), batch sizes around the 4-sample block, and a
// rotated, partially masked bank. Every output element must be bit-identical
// to the single-sample compiled path.
func TestCompiledBatchBitIdenticalToSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, rows := range []int{1, 2, 5, 8} {
		b := randomBank(t, rng, rows, 9, true)
		for _, batch := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
			const n = 9
			xs := make([]float64, batch*n)
			for i := range xs {
				xs[i] = rng.Float64()*2 - 1
			}
			got := b.MVMBatchInto(nil, xs, batch, n)
			single := make([]float64, rows)
			for s := 0; s < batch; s++ {
				b.MVMBatchInto(single, xs[s*n:(s+1)*n], 1, n)
				for j := range single {
					if got[s*rows+j] != single[j] {
						t.Fatalf("rows=%d batch=%d sample %d row %d: batch %v, single %v",
							rows, batch, s, j, got[s*rows+j], single[j])
					}
				}
			}
		}
	}
}

// TestCompileCost pins the lazy-recompile contract: serving MVMs without
// intervening mutations must not recompile (same epoch observed before and
// after), while a mutation triggers exactly one recompile on the next pass,
// not at mutation time.
func TestCompiledLazily(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	b := wideBank(t, rng, 8)
	x := randomInput(rng, 8, 0)
	b.MVMBatchInto(nil, x, 1, len(x))
	if b.compiledAt != b.epoch {
		t.Fatal("MVM did not compile the snapshot")
	}
	b.RotateRows(1)
	if b.compiledAt == b.epoch {
		t.Fatal("mutation must not recompile eagerly; compilation is lazy")
	}
	b.MVMBatchInto(nil, x, 1, len(x))
	if b.compiledAt != b.epoch {
		t.Fatal("MVM after mutation did not recompile")
	}
}
