package nn

import (
	"math/rand"
	"testing"

	"trident/internal/fixed"
	"trident/internal/tensor"
)

func TestQATTrainerValidation(t *testing.T) {
	net := NewNetwork(NewDense("fc", 2, 2, 1))
	if _, err := NewQATTrainer(nil, SGD{LearningRate: 0.1}, 8); err == nil {
		t.Error("nil network: want error")
	}
	if _, err := NewQATTrainer(net, SGD{LearningRate: 0.1}, 64); err == nil {
		t.Error("bad bits: want error")
	}
}

// TestQATRestoresMasters: after a step, the network holds float masters,
// not the quantized copies.
func TestQATRestoresMasters(t *testing.T) {
	net := NewNetwork(NewDense("fc", 3, 2, 2))
	before := append([]float64(nil), net.Params()[0].Value.Data()...)
	qat, err := NewQATTrainer(net, SGD{LearningRate: 0}, 2) // zero LR: no update
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float64{0.3, -0.7, 0.2}, 3)
	qat.TrainStep(x, 1)
	after := net.Params()[0].Value.Data()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("master weight %d changed: %v → %v (quantized copy leaked)", i, before[i], after[i])
		}
	}
	// QuantizedAccuracy restores too, with and without device variation.
	rng := rand.New(rand.NewSource(3))
	for _, variation := range []func() float64{nil, func() float64 { return 0.1 * rng.NormFloat64() }} {
		QuantizedAccuracy(net, fixed.MustForBits(2), variation, []*tensor.Tensor{x}, []int{0})
		for i := range before {
			if before[i] != net.Params()[0].Value.Data()[i] {
				t.Fatal("QuantizedAccuracy leaked quantized weights")
			}
		}
	}
}
