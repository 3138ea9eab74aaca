package core

import (
	"errors"
	"math/rand"
	"testing"

	"trident/internal/nn"
)

// flattenAllWeights snapshots every layer's master weight matrix in layer
// order, flattened row-major, for bitwise comparison.
func flattenAllWeights(g *Graph) []float64 {
	var out []float64
	for _, l := range g.Layers() {
		for _, row := range l.Weights() {
			out = append(out, row...)
		}
	}
	return out
}

// totalTunerWrites sums the programming-write counters of every physical
// cell in the graph — the wear currency the endurance model charges.
func totalTunerWrites(g *Graph) uint64 {
	var total uint64
	for _, l := range g.Layers() {
		for _, row := range l.Tiles() {
			for _, pe := range row {
				b := pe.Bank()
				for r := 0; r < pe.Rows(); r++ {
					for c := 0; c < pe.Cols(); c++ {
						total += b.PhysicalTuner(r, c).Writes()
					}
				}
			}
		}
	}
	return total
}

// directWTDelta computes the exact mathematical Wᵀ·δ from the master
// weight matrix.
func directWTDelta(w [][]float64, delta []float64, in int) []float64 {
	out := make([]float64, in)
	for j, row := range w {
		d := delta[j]
		for i := 0; i < in; i++ {
			out[i] += d * row[i]
		}
	}
	return out
}

// TestTrainBatchOfOneBitIdenticalToTrainSample: a TrainBatch of one sample
// must be the SAME training step as TrainSample — identical loss, identical
// noise draws, identical weight trajectory and identical energy/time
// bookings — with the full analog noise model on. The batched kernels
// degrade to exactly the per-sample call sequence and the 1/B gradient
// scale is skipped at B = 1, so a whole epoch stays bitwise in lockstep.
func TestTrainBatchOfOneBitIdenticalToTrainSample(t *testing.T) {
	single, batched := twinNetworks(t)
	rng := rand.New(rand.NewSource(1234))
	x := make([]float64, 12)
	for s := 0; s < 12; s++ {
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		lossS, err := single.TrainSample(x, s%3)
		if err != nil {
			t.Fatal(err)
		}
		lossB, err := batched.TrainBatch(x, []int{s % 3})
		if err != nil {
			t.Fatal(err)
		}
		if lossS != lossB {
			t.Fatalf("step %d: TrainSample loss %v, TrainBatch(1) loss %v", s, lossS, lossB)
		}
	}
	ws, wb := flattenAllWeights(single.Graph), flattenAllWeights(batched.Graph)
	for i := range ws {
		if ws[i] != wb[i] {
			t.Fatalf("weight[%d]: TrainSample %v, TrainBatch(1) %v", i, ws[i], wb[i])
		}
	}
	outS, err := single.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := batched.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outS {
		if outS[i] != outB[i] {
			t.Fatalf("forward[%d]: %v vs %v", i, outS[i], outB[i])
		}
	}
	requireSameLedger(t, single.Ledger(), batched.Ledger())
}

// TestTrainBatchDeterministicAcrossWorkers: a batched training schedule on
// the deep CNN — full noise model on, conv stages, GAP and dense head — must
// produce bit-identical losses and weights at any worker count: every
// fan-out in the batched forward, transpose GEMM, col2im and gradient
// contraction owns disjoint output blocks or merges in fixed tile order.
func TestTrainBatchDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]float64, []float64) {
		prev := SetMaxWorkers(workers)
		defer SetMaxWorkers(prev)
		d, err := NewDeepCNN(NetworkConfig{
			PE:           PEConfig{Rows: 8, Cols: 8},
			LearningRate: 0.05,
		}, deepSpecs(), 2)
		if err != nil {
			t.Fatal(err)
		}
		const batch = 4
		labels := []int{0, 1, 1, 0}
		xs := make([]float64, batch*64)
		var losses []float64
		for step := 0; step < 4; step++ {
			for s := 0; s < batch; s++ {
				copy(xs[s*64:(s+1)*64], testImage(int64(31+step*batch+s)).Data())
			}
			loss, err := d.Graph.TrainBatch(xs, labels)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		return losses, flattenAllWeights(d.Graph)
	}
	lossRef, wRef := run(1)
	for _, workers := range []int{2, 8} {
		losses, weights := run(workers)
		for i := range lossRef {
			if losses[i] != lossRef[i] {
				t.Fatalf("workers=%d loss[%d]: %v, serial %v", workers, i, losses[i], lossRef[i])
			}
		}
		for i := range wRef {
			if weights[i] != wRef[i] {
				t.Fatalf("workers=%d weight[%d]: %v, serial %v", workers, i, weights[i], wRef[i])
			}
		}
	}
}

// TestTransposeBatchMatchesSingle: the batched transpose GEMM must
// reproduce the per-delta transpose passes bit-exactly with the full noise
// model on — same outputs, same noise stream, same energy and time.
func TestTransposeBatchMatchesSingle(t *testing.T) {
	a, b := twinNetworks(t)
	la, lb := a.Layers()[0], b.Layers()[0] // 12 → 16
	const batch, out, in = 4, 16, 12
	ds := batchInputs(t, 21, batch, out)
	got, err := lb.TransposeMVMBatchInto(nil, ds, batch)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < batch; s++ {
		want, err := la.TransposeMVMInto(nil, ds[s*out:(s+1)*out])
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[s*in+i] != want[i] {
				t.Fatalf("sample %d out[%d]: batched %v, single %v", s, i, got[s*in+i], want[i])
			}
		}
	}
	requireSameLedger(t, a.Ledger(), b.Ledger())
}

// TestTransposeRaggedTileShapes pins the compiled transpose path against
// the exact mathematical Wᵀ·δ on ragged and non-square tile geometries —
// partial edge tiles on both axes, rectangular banks, and a single
// oversized tile — at bank sizes 16/64/256. With ideal banks and noise off
// the compiled view is the exact adjoint of the forward operator, so the
// only daylight allowed is partial-sum re-association (≤ 1e-12 relative).
func TestTransposeRaggedTileShapes(t *testing.T) {
	cases := []struct{ rows, cols, in, out int }{
		{16, 16, 50, 37},   // partial edge tiles on both axes
		{16, 16, 40, 24},   // square banks, partial tiles, rectangular layer
		{32, 16, 100, 70},  // non-square bank
		{64, 32, 64, 24},   // exact fit on the input axis only
		{256, 36, 130, 90}, // row dimension larger than the layer
	}
	for _, tc := range cases {
		cfg := NetworkConfig{
			PE:           PEConfig{Rows: tc.rows, Cols: tc.cols, DisableNoise: true, Ideal: true},
			LearningRate: 0.05,
		}
		net, err := NewNetwork(cfg, LayerSpec{In: tc.in, Out: tc.out})
		if err != nil {
			t.Fatal(err)
		}
		l := net.Layers()[0]
		rng := rand.New(rand.NewSource(int64(tc.rows*1000 + tc.in)))
		delta := make([]float64, tc.out)
		for i := range delta {
			delta[i] = rng.Float64()*2 - 1
		}
		want := directWTDelta(l.Weights(), delta, tc.in)
		got, err := l.compiledTransposeMVMInto(nil, delta)
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, "compiled Wᵀδ", got, want)

		// The batched kernel over the same geometry, three deltas at once.
		const batch = 3
		ds := make([]float64, batch*tc.out)
		for i := range ds {
			ds[i] = rng.Float64()*2 - 1
		}
		bout, err := l.compiledTransposeMVMBatchInto(nil, ds, batch)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < batch; s++ {
			want := directWTDelta(l.Weights(), ds[s*tc.out:(s+1)*tc.out], tc.in)
			assertClose(t, "compiled batch Wᵀδ", bout[s*tc.in:(s+1)*tc.in], want)
		}
	}
}

// TestBackwardZeroProgrammingWrites is the wear contract of the compiled
// backward path: across a whole training epoch, the backward half of every
// step — transpose GEMMs, col2im, outer products, weight update — issues
// ZERO programming writes to the GST cells. The only endurance traffic
// left in training is the post-update forward recompile.
func TestBackwardZeroProgrammingWrites(t *testing.T) {
	d := quietDeepCNN(t, 2, 0.05)
	g := d.Graph
	for step := 0; step < 6; step++ {
		logits, err := g.Forward(testImage(int64(step)).Data())
		if err != nil {
			t.Fatal(err)
		}
		before := totalTunerWrites(g)
		probs := nn.Softmax(logits)
		delta := append([]float64(nil), probs...)
		delta[step%2] -= 1
		if err := g.backward(delta); err != nil {
			t.Fatal(err)
		}
		if after := totalTunerWrites(g); after != before {
			t.Fatalf("step %d: backward issued %d programming writes, want 0", step, after-before)
		}
	}

	// A whole minibatch step on freshly-programmed banks writes nothing at
	// all: the batched forward reuses the resident weights and the backward
	// is reprogram-free. (The update defers its recompile to the next
	// forward, which is where the epoch's only writes happen.)
	if _, err := g.Forward(testImage(100).Data()); err != nil {
		t.Fatal(err)
	}
	before := totalTunerWrites(g)
	const batch = 3
	xs := make([]float64, batch*64)
	for s := 0; s < batch; s++ {
		copy(xs[s*64:(s+1)*64], testImage(int64(200+s)).Data())
	}
	if _, err := g.TrainBatch(xs, []int{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if after := totalTunerWrites(g); after != before {
		t.Fatalf("TrainBatch issued %d programming writes, want 0", after-before)
	}
}

// TestStaleTrainStateGuard: the serving batch paths and TrainBatch overwrite
// the per-sample training state, so a bare backward afterwards must fail
// loudly with ErrStaleTrainState instead of silently training on stale
// activations; a fresh Forward re-validates, and TrainSample (which embeds
// its own forward) is immune.
func TestStaleTrainStateGuard(t *testing.T) {
	net, err := NewNetwork(noisyCfg(),
		LayerSpec{In: 12, Out: 16, Activate: true},
		LayerSpec{In: 16, Out: 3})
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, 5, 2, 12)
	delta := []float64{0.5, -0.25, -0.25}

	if _, err := net.Forward(xs[:12]); err != nil {
		t.Fatal(err)
	}
	if _, err := net.ForwardBatch(xs, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.backward(delta); !errors.Is(err, ErrStaleTrainState) {
		t.Fatalf("backward after batched forward: %v, want ErrStaleTrainState", err)
	}
	if _, err := net.Forward(xs[:12]); err != nil {
		t.Fatal(err)
	}
	if err := net.backward(delta); err != nil {
		t.Fatalf("backward after fresh forward: %v", err)
	}
	if _, err := net.ForwardBatch(xs, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := net.TrainSample(xs[:12], 1); err != nil {
		t.Fatalf("TrainSample after batched forward: %v", err)
	}
	if _, err := net.TrainBatch(xs, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := net.backward(delta); !errors.Is(err, ErrStaleTrainState) {
		t.Fatalf("backward after TrainBatch: %v, want ErrStaleTrainState", err)
	}
}
