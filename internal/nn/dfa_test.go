package nn

import (
	"math"
	"testing"

	"trident/internal/tensor"
)

func denseDFABlocks(seed int64) []DFABlock {
	return []DFABlock{
		{Param: NewDense("fc1", 6, 24, seed), Act: NewReLU("r1")},
		{Param: NewDense("fc2", 24, 3, seed+1)},
	}
}

func TestNewDFATrainerValidation(t *testing.T) {
	if _, err := NewDFATrainer(nil, 3, 1); err == nil {
		t.Error("empty blocks: want error")
	}
	if _, err := NewDFATrainer([]DFABlock{
		{Param: NewDense("fc", 4, 3, 1), Act: NewReLU("r")},
	}, 3, 1); err == nil {
		t.Error("final block with activation: want error")
	}
	if _, err := NewDFATrainer(denseDFABlocks(1), 1, 1); err == nil {
		t.Error("single class: want error")
	}
	if _, err := NewDFATrainer([]DFABlock{{Param: nil}}, 3, 1); err == nil {
		t.Error("nil param layer: want error")
	}
}

// TestDFALearnsDenseTask: on a fully connected network, DFA is a working
// training rule (the premise of the Filipovich et al. design).
func TestDFALearnsDenseTask(t *testing.T) {
	tr, err := NewDFATrainer(denseDFABlocks(5), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	xs, labels := blobsForTest(120, 3, 6, 11)
	first := tr.TrainStep(0.05, xs[0], labels[0])
	for epoch := 0; epoch < 25; epoch++ {
		for i := range xs {
			tr.TrainStep(0.05, xs[i], labels[i])
		}
	}
	last := tr.TrainStep(0.05, xs[0], labels[0])
	if last >= first {
		t.Errorf("DFA loss did not decrease: %v → %v", first, last)
	}
	if acc := Accuracy(tr.Forward, xs, labels); acc < 0.9 {
		t.Errorf("DFA dense accuracy = %.2f, want ≥ 0.9", acc)
	}
}

// TestDFAFeedbackFixed: the feedback matrices must not change across steps
// (they are drawn once) — the property that distinguishes DFA from BP.
func TestDFAFeedbackFixed(t *testing.T) {
	tr, err := NewDFATrainer(denseDFABlocks(2), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	xs, labels := blobsForTest(10, 3, 6, 13)
	tr.TrainStep(0.05, xs[0], labels[0])
	snapshot := append([]float64(nil), tr.feedback[0].Data()...)
	for i := range xs {
		tr.TrainStep(0.05, xs[i], labels[i])
	}
	for i, v := range tr.feedback[0].Data() {
		if v != snapshot[i] {
			t.Fatal("feedback matrix changed during training")
		}
	}
}

// blobsForTest generates deterministic Gaussian-cluster data without
// importing the dataset package (avoiding an import cycle in tests).
func blobsForTest(n, classes, dim int, seed int64) ([]*tensor.Tensor, []int) {
	rng := newTestRNG(seed)
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64()*2 - 1
		}
	}
	var xs []*tensor.Tensor
	var labels []int
	for i := 0; i < n; i++ {
		c := i % classes
		v := make([]float64, dim)
		for d := range v {
			v[d] = centers[c][d] + rng.NormFloat64()*0.1
		}
		xs = append(xs, tensor.FromSlice(v, dim))
		labels = append(labels, c)
	}
	return xs, labels
}

func newTestRNG(seed int64) *testRNG {
	return &testRNG{state: uint64(seed)*2862933555777941757 + 3037000493}
}

// testRNG is a tiny splitmix-based generator so the test file stays
// self-contained.
type testRNG struct{ state uint64 }

func (r *testRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRNG) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *testRNG) NormFloat64() float64 {
	// Box-Muller from two uniforms; adequate for test data.
	u1 := r.Float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := r.Float64()
	return sqrtLog(u1) * cosTwoPi(u2)
}

func sqrtLog(u float64) float64  { return math.Sqrt(-2 * math.Log(u)) }
func cosTwoPi(u float64) float64 { return math.Cos(2 * math.Pi * u) }
