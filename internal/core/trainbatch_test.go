package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
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

// peLedgers snapshots every PE's ledger breakdown and elapsed time, in
// ForEachPE order.
func peLedgers(g *Graph) []map[string]float64 {
	var out []map[string]float64
	g.ForEachPE(func(_, _, _ int, pe *PE) {
		led := map[string]float64{"elapsed": pe.Ledger().Elapsed().Seconds()}
		for cat, e := range pe.Ledger().Breakdown() {
			led[string(cat)] = e.Joules()
		}
		out = append(out, led)
	})
	return out
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

// TestTrainBatchDeterministicAcrossWorkers: a batched training schedule on
// the deep CNN — full noise model on, conv stages, GAP and dense head — must
// produce bit-identical losses and weights at any worker count: every
// fan-out in the batched forward, transpose GEMM, col2im and gradient
// contraction owns disjoint output blocks or merges in fixed tile order.
func TestTrainBatchDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]float64, []float64) {
		prev := SetMaxWorkers(workers)
		defer SetMaxWorkers(prev)
		d, err := NewConvNet(NetworkConfig{
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
			loss, err := d.TrainBatch(xs, labels)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		return losses, flattenAllWeights(d)
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

// TestTrainBatchStripesBitIdenticalAcrossWorkers runs the in-situ training
// shape — 35→128→10 on 8×8 banks (16×5 and 2×16 tile grids), noise on,
// batch 32 — for four TrainBatch steps at 1, 2 and 8 workers. The stripe
// fan-outs reprogram stale banks inside each stripe and merge partial sums
// there, so the losses, master weights, every PE's ledger breakdown and
// elapsed time, every cell's write count and the next forward output must
// match the serial run bit for bit.
func TestTrainBatchStripesBitIdenticalAcrossWorkers(t *testing.T) {
	const in, hidden, classes, batch = 35, 128, 10, 32
	type trace struct {
		losses, weights, out []float64
		ledgers              []map[string]float64
		writes               []uint64
	}
	run := func(workers int) *trace {
		withWorkers(t, workers)
		g, err := NewGraph(NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8}, LearningRate: 0.1}, in)
		if err != nil {
			t.Fatal(err)
		}
		h := g.Dense(g.Input(), LayerSpec{In: in, Out: hidden, Activate: true}, 0)
		if err := g.SetOutput(g.Dense(h, LayerSpec{In: hidden, Out: classes}, 1)); err != nil {
			t.Fatal(err)
		}
		tr := &trace{}
		labels := make([]int, batch)
		for step := 0; step < 4; step++ {
			xs := batchInputs(t, int64(100+step), batch, in)
			for s := range labels {
				labels[s] = (s*7 + step) % classes
			}
			loss, err := g.TrainBatch(xs, labels)
			if err != nil {
				t.Fatal(err)
			}
			tr.losses = append(tr.losses, loss)
		}
		tr.weights = flattenAllWeights(g)
		if tr.out, err = g.ForwardBatchInto(nil, batchInputs(t, 200, batch, in), batch); err != nil {
			t.Fatal(err)
		}
		tr.ledgers = peLedgers(g)
		g.ForEachPE(func(_, _, _ int, pe *PE) {
			for r := 0; r < pe.Rows(); r++ {
				for c := 0; c < pe.Cols(); c++ {
					tr.writes = append(tr.writes, pe.Bank().PhysicalTuner(r, c).Writes())
				}
			}
		})
		return tr
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.losses, ref.losses) {
			t.Fatalf("workers=%d losses %v, serial %v", workers, got.losses, ref.losses)
		}
		for name, pair := range map[string][2][]float64{
			"weight": {got.weights, ref.weights}, "forward": {got.out, ref.out},
		} {
			for i := range pair[1] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("workers=%d %s[%d]: %v, serial %v", workers, name, i, pair[0][i], pair[1][i])
				}
			}
		}
		if !reflect.DeepEqual(got.ledgers, ref.ledgers) {
			t.Fatalf("workers=%d: PE ledgers differ from the serial run", workers)
		}
		if !reflect.DeepEqual(got.writes, ref.writes) {
			t.Fatalf("workers=%d: tuner write counts differ from the serial run", workers)
		}
	}
}

// TestTransposeBatchMatchesSingle: the batched transpose GEMM must
// reproduce batch-of-one transpose passes bit-exactly with the full noise
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
		want, err := la.TransposeMVMBatchInto(nil, ds[s*out:(s+1)*out], 1)
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
// oversized tile — at bank heights from 16 to 256. With ideal banks and noise off
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
		got, err := l.TransposeMVMBatchInto(nil, delta, 1)
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
		bout, err := l.TransposeMVMBatchInto(nil, ds, batch)
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
// backward path: once a Forward has reprogrammed the previous update's
// weights, a whole TrainSample step — forward on the resident weights,
// transpose GEMMs, col2im, outer products, weight update — issues ZERO
// programming writes to the GST cells. The only endurance traffic left in
// training is the post-update forward recompile.
func TestBackwardZeroProgrammingWrites(t *testing.T) {
	g := quietDeepCNN(t, 2, 0.05)
	for step := 0; step < 6; step++ {
		x := testImage(int64(step)).Data()
		if _, err := g.Forward(x); err != nil {
			t.Fatal(err)
		}
		before := totalTunerWrites(g)
		if _, err := g.TrainSample(x, step%2); err != nil {
			t.Fatal(err)
		}
		if after := totalTunerWrites(g); after != before {
			t.Fatalf("step %d: TrainSample issued %d programming writes, want 0", step, after-before)
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

// TestConvTransposeInactivePixels pins the edges of the conv backward's
// active-row compaction on the noisy multi-tile stack's second conv, at 1,
// 2 and 8 workers. With one sample's gated deltas all zero beside a fully
// active one, the zero sample's input-gradient row is all +0. With no
// active pixel in the batch, the node makes no transpose pass: every PE's
// ledger and noise stream stay where they were. The mixed case's gradient
// and ledgers are bit-identical at every worker count.
func TestConvTransposeInactivePixels(t *testing.T) {
	const batch = 2
	type trace struct {
		dIn     []float64
		ledgers []map[string]float64
	}
	run := func(workers int) trace {
		withWorkers(t, workers)
		g := newMultiTileConvNet(t)
		xs := batchInputs(t, 3, batch, g.InputSize())
		g.nodes[0].batchVal = xs
		for i := 1; i < len(g.nodes); i++ {
			if err := g.forwardNodeBatch(g.nodes[i], batch, 0, xs, true); err != nil {
				t.Fatal(err)
			}
		}
		n := g.nodes[2]
		prod := g.nodes[n.in[0]]
		if n.kind != nodeConv || prod.kind != nodeConv {
			t.Fatalf("node 2 is not a conv fed by a conv")
		}
		// Every pre-activation sits at the GST threshold, where the latched
		// derivative is the full slope, so the gate passes the raw gradient.
		for i := range n.batchPre[:batch*n.size] {
			n.batchPre[i] = n.layer.actCells.Threshold
		}
		n.batchGrad = growFloats(n.batchGrad, batch*n.size)
		clear(n.batchGrad[:n.size])
		for i := n.size; i < batch*n.size; i++ {
			n.batchGrad[i] = 0.01 * float64(i%7+1)
		}
		if err := g.backwardConvBatch(n, batch); err != nil {
			t.Fatal(err)
		}
		tr := trace{dIn: append([]float64(nil), n.batchDIn[:batch*prod.size]...), ledgers: peLedgers(g)}
		for i, v := range tr.dIn[:prod.size] {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("workers=%d: zero sample's input gradient [%d] = %v, want +0", workers, i, v)
			}
		}
		if !slices.ContainsFunc(tr.dIn[prod.size:], func(v float64) bool { return v != 0 }) {
			t.Fatalf("workers=%d: active sample's input gradient is all zero", workers)
		}

		var streams []gaussStream
		g.ForEachPE(func(_, _, _ int, pe *PE) { streams = append(streams, *pe.noise) })
		clear(n.batchGrad[:batch*n.size])
		if err := g.backwardConvBatch(n, batch); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(peLedgers(g), tr.ledgers) {
			t.Fatalf("workers=%d: a batch with no active pixel moved a PE ledger", workers)
		}
		i := 0
		g.ForEachPE(func(_, _, _ int, pe *PE) {
			if *pe.noise != streams[i] {
				t.Fatalf("workers=%d: a batch with no active pixel drew noise on PE %d", workers, i)
			}
			i++
		})
		if slices.ContainsFunc(n.batchDIn[:batch*prod.size], func(v float64) bool { return v != 0 || math.Signbit(v) }) {
			t.Fatalf("workers=%d: a batch with no active pixel left a non-+0 input gradient", workers)
		}
		return tr
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range ref.dIn {
			if math.Float64bits(got.dIn[i]) != math.Float64bits(ref.dIn[i]) {
				t.Fatalf("workers=%d: input gradient [%d] = %v, serial %v", workers, i, got.dIn[i], ref.dIn[i])
			}
		}
		if !reflect.DeepEqual(got.ledgers, ref.ledgers) {
			t.Fatalf("workers=%d: PE ledgers differ from the serial run", workers)
		}
	}
}
