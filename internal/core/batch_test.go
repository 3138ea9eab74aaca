package core

import (
	"fmt"
	"math/rand"
	"testing"

	"trident/internal/tensor"
)

// twinNetworks builds two bit-identical networks (same seeds, full noise
// model) so one can serve samples one at a time while the other serves the
// same samples batched, without sharing rng state.
func twinNetworks(t *testing.T) (a, b *Network) {
	t.Helper()
	specs := []LayerSpec{
		{In: 12, Out: 16, Activate: true},
		{In: 16, Out: 3},
	}
	var err error
	if a, err = NewNetwork(noisyCfg(), specs...); err != nil {
		t.Fatal(err)
	}
	if b, err = NewNetwork(noisyCfg(), specs...); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func batchInputs(t *testing.T, seed int64, batch, n int) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, batch*n)
	for i := range xs {
		xs[i] = rng.Float64()*2 - 1
	}
	return xs
}

func requireSameLedger(t *testing.T, single, batched *Ledger) {
	t.Helper()
	for _, cat := range ledgerCategories {
		if single.Energy(cat) != batched.Energy(cat) {
			t.Errorf("ledger %s: single %v, batched %v", cat, single.Energy(cat), batched.Energy(cat))
		}
	}
	if single.Elapsed() != batched.Elapsed() {
		t.Errorf("ledger elapsed: single %v, batched %v", single.Elapsed(), batched.Elapsed())
	}
}

// TestNetworkBatchMatchesSingle is the serving-path exactness contract:
// batched inference through a multi-tile network — noise model on, stuck
// cells injected — must be bit-identical to per-sample Forward calls, and
// must book exactly the same energy and time. The larger batch runs as two
// whole micro-batches and a ragged third.
func TestNetworkBatchMatchesSingle(t *testing.T) {
	for _, batch := range []int{6, 2*denseMicroBatch + 5} {
		single, batched := twinNetworks(t)
		for _, net := range []*Network{single, batched} {
			if _, err := net.InjectRandomFaults(0.05, StuckCrystalline, 99); err != nil {
				t.Fatal(err)
			}
		}
		xs := batchInputs(t, 17, batch, 12)
		got, err := batched.ForwardBatchInto(nil, xs, batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != batch*3 {
			t.Fatalf("batch %d: logits length %d, want %d", batch, len(got), batch*3)
		}
		for s := 0; s < batch; s++ {
			want, err := single.Forward(xs[s*12 : (s+1)*12])
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[s*3+j] != want[j] {
					t.Fatalf("batch %d sample %d logit %d: batched %v, single %v", batch, s, j, got[s*3+j], want[j])
				}
			}
		}
		requireSameLedger(t, single.Ledger(), batched.Ledger())

		// PredictBatch must agree with per-sample Predict (first-wins argmax).
		preds, err := batched.PredictBatch(nil, xs, batch)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < batch; s++ {
			want, err := single.Predict(xs[s*12 : (s+1)*12])
			if err != nil {
				t.Fatal(err)
			}
			if preds[s] != want {
				t.Errorf("batch %d sample %d: PredictBatch %d, Predict %d", batch, s, preds[s], want)
			}
		}
	}
}

// TestForwardMicroBatchRule pins the micro-batch size SetOutput derives
// from a graph's shape: as many whole samples as keep the widest conv node
// within convChunkCols pixel rows, or denseMicroBatch without a conv node.
func TestForwardMicroBatchRule(t *testing.T) {
	conv := func(inH, outC, stride int) tensor.Conv2DSpec {
		return tensor.Conv2DSpec{InC: 1, InH: inH, InW: inH, OutC: outC, KH: 3, KW: 3,
			StrideH: stride, StrideW: stride, PadH: 1, PadW: 1, Groups: 1}
	}
	mlp, err := NewNetwork(noisyCfg(), LayerSpec{In: 35, Out: 24, Activate: true}, LayerSpec{In: 24, Out: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		want int
	}{
		{"mlp", mlp.Graph, denseMicroBatch},
		{"8x8 conv", newTestCNN(t, noisyCfg(), conv(8, 4, 1), 3), 4},
		{"8x8 conv stride 2", newTestCNN(t, noisyCfg(), conv(8, 4, 2), 3), 16},
		{"32x32 conv", newTestCNN(t, noisyCfg(), conv(32, 2, 1), 3), 1},
	} {
		if tc.g.whole.micro != tc.want {
			t.Errorf("%s: micro-batch %d, want %d", tc.name, tc.g.whole.micro, tc.want)
		}
	}
}

// TestForwardMemoryBoundedByMicroBatch: a 1,024-sample ForwardBatchInto on
// a graph of cnn-offline's shape (four convs on 8×8 images, 8×8 banks)
// leaves no node's forward slab and no layer's stream scratch holding more
// than one micro-batch of 4 samples (256 pixel rows over the widest conv's
// 64 pixels), so forward memory follows the graph, not the batch.
func TestForwardMemoryBoundedByMicroBatch(t *testing.T) {
	const micro, batch = 4, 1024
	conv := func(inC, inH, outC, stride int) tensor.Conv2DSpec {
		return tensor.Conv2DSpec{InC: inC, InH: inH, InW: inH, OutC: outC, KH: 3, KW: 3,
			StrideH: stride, StrideW: stride, PadH: 1, PadW: 1, Groups: 1}
	}
	g, err := NewConvNet(noisyCfg(), []tensor.Conv2DSpec{
		conv(1, 8, 4, 1), conv(4, 8, 6, 1), conv(6, 8, 6, 2), conv(6, 4, 8, 1),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ForwardBatchInto(nil, batchInputs(t, 9, batch, g.InputSize()), batch); err != nil {
		t.Fatal(err)
	}
	bound := func(what string, s []float64, n int) {
		t.Helper()
		if cap(s) > n {
			t.Errorf("%s holds %d floats, more than one micro-batch's %d", what, cap(s), n)
		}
	}
	for i, n := range g.nodes[1:] {
		vectors := micro // input vectors per micro-batch of the node's layer
		if n.kind == nodeConv {
			vectors = micro * n.h * n.w
		}
		bound(fmt.Sprintf("node %d value", i+1), n.batchVal, micro*n.size)
		if n.layer == nil {
			continue
		}
		l := n.layer
		bound(fmt.Sprintf("node %d patches", i+1), n.batchPatches, vectors*l.spec.In)
		bound(fmt.Sprintf("node %d pre-activations", i+1), n.batchPre, vectors*l.spec.Out)
		bound(fmt.Sprintf("node %d layer stream", i+1), l.stream, len(l.tiles)*l.rows*vectors)
		bound(fmt.Sprintf("node %d layer streamX", i+1), l.streamX, vectors*l.spec.In)
		bound(fmt.Sprintf("node %d layer batchH", i+1), l.batchH, vectors*l.spec.Out)
	}
}

// TestNetworkBatchParallelMatchesSerial extends PR 1's determinism guarantee
// to the batched path: one worker and eight workers must produce the same
// bits (run under -race in tier2).
func TestNetworkBatchParallelMatchesSerial(t *testing.T) {
	run := func(workers int) []float64 {
		withWorkers(t, workers)
		net, err := NewNetwork(noisyCfg(),
			LayerSpec{In: 12, Out: 16, Activate: true},
			LayerSpec{In: 16, Out: 3})
		if err != nil {
			t.Fatal(err)
		}
		const batch = 8
		xs := batchInputs(t, 31, batch, 12)
		out, err := net.ForwardBatchInto(nil, xs, batch)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("logit %d: serial %v, parallel %v", i, serial[i], parallel[i])
		}
	}
}

// TestCNNBatchMatchesSingle: the batched CNN path — im2col streaming,
// activation, GAP, head — must match per-image Forward bit-exactly with
// noise on, including predictions and ledgers. Nine 8×8 images give 64
// pixel columns each, so the batch spans several conv chunks of
// convChunkCols columns and ends in a ragged one-image chunk.
func TestCNNBatchMatchesSingle(t *testing.T) {
	spec := tensor.Conv2DSpec{InC: 1, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	single := newTestCNN(t, noisyCfg(), spec, 3)
	batched := newTestCNN(t, noisyCfg(), spec, 3)
	const batch = 9
	in := batched.InputSize()
	xs := make([]float64, 0, batch*in)
	for i := int64(1); i <= batch; i++ {
		xs = append(xs, testImage(i).Data()...)
	}
	pixels := spec.OutH() * spec.OutW()
	if chunk := convChunkCols / pixels; batch <= 2*chunk || batch%chunk == 0 {
		t.Fatalf("%d images of %d pixels must span >2 chunks of %d and end ragged", batch, pixels, chunk)
	}
	got, err := batched.ForwardBatchInto(nil, xs, batch)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < batch; s++ {
		want, err := single.Forward(xs[s*in : (s+1)*in])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[s*3+j] != want[j] {
				t.Fatalf("image %d logit %d: batched %v, single %v", s, j, got[s*3+j], want[j])
			}
		}
	}
	requireSameLedger(t, single.Ledger(), batched.Ledger())

	preds, err := batched.PredictBatch(nil, xs, batch)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < batch; s++ {
		want, err := single.Predict(xs[s*in : (s+1)*in])
		if err != nil {
			t.Fatal(err)
		}
		if preds[s] != want {
			t.Errorf("image %d: PredictBatch %d, Predict %d", s, preds[s], want)
		}
	}
}

// TestBatchGeometryErrors pins the error contract for malformed batches.
func TestBatchGeometryErrors(t *testing.T) {
	net, _ := twinNetworks(t)
	if _, err := net.ForwardBatchInto(nil, make([]float64, 11), 1); err == nil {
		t.Error("short inputs: want error")
	}
	if _, err := net.ForwardBatchInto(nil, nil, -1); err == nil {
		t.Error("negative batch: want error")
	}
	l := net.Layers()[0]
	if _, err := l.ForwardBatchInto(nil, make([]float64, 12), 2); err == nil {
		t.Error("layer short inputs: want error")
	}
	pe := l.Tiles()[0][0]
	if _, err := pe.MVMPassBatchInto(nil, make([]float64, 18), 2, 9, pe.Rows()); err == nil {
		t.Error("PE sample wider than bank: want error")
	}
}

// TestBatchSteadyStateAllocations: the per-call allocation count of the
// serving path must not grow with the batch size — every per-sample buffer
// is reused scratch.
func TestBatchSteadyStateAllocations(t *testing.T) {
	withWorkers(t, 1)
	net, _ := twinNetworks(t)
	measure := func(batch int) float64 {
		xs := batchInputs(t, 5, batch, 12)
		out := make([]float64, batch*3)
		preds := make([]int, batch)
		var err error
		// Warm the scratch buffers to this batch size first.
		if _, err = net.ForwardBatchInto(out, xs, batch); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if out, err = net.ForwardBatchInto(out, xs, batch); err != nil {
				t.Fatal(err)
			}
			if preds, err = net.PredictBatch(preds, xs, batch); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(2)
	large := measure(16)
	if large > small {
		t.Errorf("allocations grew with batch size: %v at batch 2, %v at batch 16", small, large)
	}
}

// TestConvBatchSteadyStateAllocations is TestBatchSteadyStateAllocations
// for a conv graph: im2col patches, pre-activations and the tile stream
// slabs are reused scratch, so the per-call allocation count must not grow
// from a batch of 2 to a batch of 16, although the larger batch streams
// through several conv chunks.
func TestConvBatchSteadyStateAllocations(t *testing.T) {
	withWorkers(t, 1)
	spec := tensor.Conv2DSpec{InC: 1, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	g := newTestCNN(t, noisyCfg(), spec, 3)
	in := g.InputSize()
	measure := func(batch int) float64 {
		xs := batchInputs(t, 5, batch, in)
		out := make([]float64, batch*3)
		preds := make([]int, batch)
		var err error
		if _, err = g.ForwardBatchInto(out, xs, batch); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if out, err = g.ForwardBatchInto(out, xs, batch); err != nil {
				t.Fatal(err)
			}
			if preds, err = g.PredictBatch(preds, xs, batch); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(2)
	large := measure(16)
	if large > small {
		t.Errorf("allocations grew with batch size: %v at batch 2, %v at batch 16", small, large)
	}
}
