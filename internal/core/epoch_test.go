package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"trident/internal/tensor"
	"trident/internal/units"
)

// labelledSet draws n random samples of width dim with labels in
// [0, classes).
func labelledSet(seed int64, n, dim, classes int) ([]*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	labels := make([]int, n)
	for i := range xs {
		x := tensor.New(dim)
		for j := range x.Data() {
			x.Data()[j] = rng.Float64()*2 - 1
		}
		xs[i], labels[i] = x, rng.Intn(classes)
	}
	return xs, labels
}

// requireSameState asserts two twins hold bit-identical weights and
// ledgers and answer the next Forward bit-identically.
func requireSameState(t *testing.T, a, b *Graph, probe []float64) {
	t.Helper()
	wa, wb := flattenAllWeights(a), flattenAllWeights(b)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("weight %d: %v vs %v", i, wa[i], wb[i])
		}
	}
	la, lb := a.Ledger(), b.Ledger()
	if math.Float64bits(float64(la.TotalEnergy())) != math.Float64bits(float64(lb.TotalEnergy())) {
		t.Errorf("TotalEnergy: %v vs %v", la.TotalEnergy(), lb.TotalEnergy())
	}
	requireSameLedger(t, la, lb)
	ya, err := a.Forward(probe)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := b.Forward(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatalf("next Forward output %d: %v vs %v", i, ya[i], yb[i])
		}
	}
}

// TestGraphTrainEpochMatchesSampleLoop pins TrainEpoch to the loops it
// replaced, on noisy twins: at batch 1 it is a TrainSample loop, and at
// batch 5 over 13 samples it is TrainBatch on 5, 5 and then 3 samples.
func TestGraphTrainEpochMatchesSampleLoop(t *testing.T) {
	xs, labels := labelledSet(3, 13, 12, 3)
	for _, batch := range []int{1, 5} {
		loop, epoch := twinNetworks(t)
		var want, got float64
		var err error
		for e := 0; e < 2; e++ {
			for at := 0; at < len(xs); at += batch {
				end := min(at+batch, len(xs))
				var packed []float64
				for _, x := range xs[at:end] {
					packed = append(packed, x.Data()...)
				}
				if want, err = loop.TrainBatch(packed, labels[at:end]); err != nil {
					t.Fatal(err)
				}
			}
			if got, err = epoch.TrainEpoch(xs, labels, batch); err != nil {
				t.Fatal(err)
			}
		}
		if got != want {
			t.Errorf("batch %d: epoch loss %v, loop loss %v", batch, got, want)
		}
		requireSameState(t, loop.Graph, epoch.Graph, xs[0].Data())
	}

	// A batch of one is exactly TrainSample.
	loop, epoch := twinNetworks(t)
	var want float64
	for i := range xs {
		var err error
		if want, err = loop.TrainSample(xs[i].Data(), labels[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := epoch.TrainEpoch(xs, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("epoch loss %v, TrainSample loss %v", got, want)
	}
	requireSameState(t, loop.Graph, epoch.Graph, xs[1].Data())

	if loss, err := epoch.TrainEpoch(nil, nil, 4); err != nil || loss != 0 {
		t.Errorf("empty set: loss %v, err %v; want 0, nil", loss, err)
	}
	if _, err := epoch.TrainEpoch(xs, labels, 0); err == nil {
		t.Error("batch 0: want error")
	}
	if _, err := epoch.TrainEpoch(xs, labels[1:], 1); err == nil {
		t.Error("label count mismatch: want error")
	}
	if _, err := epoch.TrainEpoch([]*tensor.Tensor{tensor.New(5)}, []int{0}, 1); err == nil {
		t.Error("wrong input width: want error")
	}
}

// TestGraphAccuracyMatchesPredictLoop pins Accuracy's single PredictBatch
// call to the Predict loop it replaced, on twins whose 200 nW laser makes
// detection noise matter: same correct count, bit-equal ledger, and the
// same noise stream position for the next Forward.
func TestGraphAccuracyMatchesPredictLoop(t *testing.T) {
	cfg := noisyCfg()
	cfg.PE.LaserPower = 200 * units.Nanowatt
	specs := []LayerSpec{{In: 12, Out: 16, Activate: true}, {In: 16, Out: 3}}
	loop, err := NewNetwork(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewNetwork(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	xs, labels := labelledSet(5, 40, 12, 3)
	correct := 0
	for i := range xs {
		cls, err := loop.Predict(xs[i].Data())
		if err != nil {
			t.Fatal(err)
		}
		if cls == labels[i] {
			correct++
		}
	}
	got, err := acc.Accuracy(xs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(correct) / float64(len(xs)); got != want {
		t.Errorf("Accuracy %v, Predict loop %v (%d/%d)", got, want, correct, len(xs))
	}
	requireSameState(t, loop.Graph, acc.Graph, xs[0].Data())

	if a, err := acc.Accuracy(nil, nil); err != nil || a != 0 {
		t.Errorf("empty set: accuracy %v, err %v; want 0, nil", a, err)
	}
	if _, err := acc.Accuracy(xs, labels[1:]); err == nil {
		t.Error("label count mismatch: want error")
	}
	if _, err := acc.Accuracy([]*tensor.Tensor{tensor.New(5)}, []int{0}); err == nil {
		t.Error("wrong input width: want error")
	}
}

// buildConvChain builds input → conv → GAP → dense(→2) and predicts one
// all-zero sample, returning the first error.
func buildConvChain(shape []int, spec tensor.Conv2DSpec) error {
	g, err := NewGraph(NetworkConfig{PE: PEConfig{Rows: 4, Cols: 4, DisableNoise: true}}, shape...)
	if err != nil {
		return err
	}
	out := g.Dense(g.GlobalAvgPool(g.Conv(g.Input(), spec, 1)), LayerSpec{In: spec.OutC, Out: 2}, 2)
	if err := g.SetOutput(out); err != nil {
		return err
	}
	_, err = g.Predict(make([]float64, g.InputSize()))
	return err
}

// TestGraphShapeOverflowRejected: shapes whose element count wraps int —
// an input of 2³²×2³² pixels, or a 2×2 conv whose 2³¹ padding makes
// 2³²×2³² output pixels — must fail to build with ErrShapeOverflow instead
// of building a graph that divides by a wrapped pixel count.
func TestGraphShapeOverflowRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape []int
		spec  tensor.Conv2DSpec
	}{
		{"input", []int{1, 1 << 32, 1 << 32}, tensor.Conv2DSpec{
			InC: 1, InH: 1 << 32, InW: 1 << 32, OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1, Groups: 1}},
		{"conv", []int{1, 1, 1}, tensor.Conv2DSpec{
			InC: 1, InH: 1, InW: 1, OutC: 1, KH: 2, KW: 2, StrideH: 1, StrideW: 1,
			PadH: 1 << 31, PadW: 1 << 31, Groups: 1}},
	} {
		if err := buildConvChain(tc.shape, tc.spec); !errors.Is(err, ErrShapeOverflow) {
			t.Errorf("%s: err %v, want ErrShapeOverflow", tc.name, err)
		}
	}
}

// FuzzGraphBuild builds graphs from random specs: an input of 1..32 per
// dimension (flat when w ≥ 128) and a chain of up to six
// conv/GAP/dense/add/concat nodes with dims in 1..32, each op reading three
// bytes. Builder calls may fail, but every graph SetOutput accepts must run
// Predict, PredictBatch and TrainSample on zeros without an error or a
// panic.
func FuzzGraphBuild(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(7), []byte{0, 3, 0, 1, 0, 0, 2, 2, 0})                   // conv → GAP → dense
	f.Add(uint8(1), uint8(5), uint8(5), []byte{0, 1, 8, 3, 1, 0, 4, 0, 0, 1, 0, 0, 2, 4, 0}) // conv, add, concat
	f.Add(uint8(11), uint8(0), uint8(200), []byte{2, 9, 0, 2, 2, 0})                         // flat dense stack
	f.Add(uint8(31), uint8(31), uint8(31), []byte{0, 31, 1})                                 // over the weight budget
	f.Fuzz(func(t *testing.T, c, h, w uint8, ops []byte) {
		// Keep each graph small enough for thousands of runs.
		const maxWeights, maxMACs = 1 << 10, 1 << 16
		dim := func(b byte) int { return 1 + int(b)%32 }
		shape := []int{dim(c), dim(h), dim(w)}
		if w >= 128 {
			shape = []int{dim(c) * dim(h)} // a flat input
		}
		g, err := NewGraph(NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}}, shape...)
		if err != nil {
			t.Fatal(err)
		}
		ids := []NodeID{g.Input()}
		cur := g.Input()
		for i := 0; i+2 < len(ops) && i < 18 && cur >= 0; i += 3 {
			op, a, b := ops[i]%5, ops[i+1], ops[i+2]
			prod := g.nodes[cur]
			switch op {
			case 0:
				k := 1 + int(b)%3
				spec := tensor.Conv2DSpec{
					InC: max(prod.c, 1), InH: max(prod.h, 1), InW: max(prod.w, 1), OutC: dim(a),
					KH: k, KW: k, StrideH: 1 + int(b/3)%2, StrideW: 1 + int(b/3)%2,
					PadH: int(b/6) % 2, PadW: int(b/6) % 2, Groups: 1,
				}
				weights := spec.InC * k * k * spec.OutC
				if weights > maxWeights || weights*max(spec.OutH()*spec.OutW(), 1) > maxMACs {
					continue
				}
				cur = g.Conv(cur, spec, int64(i))
			case 1:
				cur = g.GlobalAvgPool(cur)
			case 2:
				out := dim(a)
				if prod.size*out > maxWeights {
					continue
				}
				cur = g.Dense(cur, LayerSpec{In: prod.size, Out: out, Activate: b%2 == 0}, int64(i))
			case 3:
				cur = g.Add(cur, ids[int(a)%len(ids)])
			case 4:
				cur = g.Concat(cur, ids[int(a)%len(ids)])
			}
			ids = append(ids, cur)
		}
		if err := g.SetOutput(cur); err != nil {
			return
		}
		x := make([]float64, g.InputSize())
		if _, err := g.Predict(x); err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if _, err := g.PredictBatch(nil, make([]float64, 3*len(x)), 3); err != nil {
			t.Fatalf("PredictBatch: %v", err)
		}
		if _, err := g.TrainSample(x, 0); err != nil {
			t.Fatalf("TrainSample: %v", err)
		}
	})
}
