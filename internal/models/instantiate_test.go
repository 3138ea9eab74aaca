package models

import (
	"testing"

	"trident/internal/nn"
	"trident/internal/tensor"
)

func TestInstantiateValidation(t *testing.T) {
	if _, err := Instantiate(GoogleNet(), 64, 10, false, 1); err == nil {
		t.Error("branched model: want error")
	}
	if _, err := Instantiate(ResNet50(), 64, 10, false, 1); err == nil {
		t.Error("ResNet-50 (branched): want error")
	}
	if _, err := Instantiate(AlexNet(), 8, 10, false, 1); err == nil {
		t.Error("tiny input: want error")
	}
	if _, err := Instantiate(VGG16(), 64, 1, false, 1); err == nil {
		t.Error("single class: want error")
	}
}

// TestInstantiateVGGAt32 builds a runnable VGG-16 at 32×32 (the CIFAR
// geometry) and checks the forward shape and trainability.
func TestInstantiateVGGAt32(t *testing.T) {
	layers, err := Instantiate(VGG16(), 32, 10, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	net := nn.NewNetwork(layers...)
	x := tensor.New(3, 32, 32)
	for i := range x.Data() {
		x.Data()[i] = 0.01 * float64(i%17)
	}
	out := net.Forward(x)
	if out.Len() != 10 {
		t.Fatalf("output = %d classes, want 10", out.Len())
	}
	// 32 → five pools of stride 2 → 1×1×512 into fc6.
	for _, l := range layers {
		if d, ok := l.(*nn.Dense); ok {
			if d.Name() == "fc6" && d.W.Value.Dim(1) != 512 {
				t.Errorf("fc6 fan-in = %d, want 512 at 32×32", d.W.Value.Dim(1))
			}
			break
		}
	}
	// A training step must run and reduce loss on a repeated sample.
	first := nn.TrainStep(net, nn.SGD{LearningRate: 0.01}, x, 3)
	last := nn.TrainStep(net, nn.SGD{LearningRate: 0.01}, x, 3)
	if last >= first {
		t.Errorf("VGG@32 loss did not decrease: %v → %v", first, last)
	}
}

// TestInstantiateAlexNetGST builds AlexNet at 96×96 with the photonic
// activation in place of ReLU.
func TestInstantiateAlexNetGST(t *testing.T) {
	layers, err := Instantiate(AlexNet(), 64, 5, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	sawGST := false
	for _, l := range layers {
		if _, ok := l.(*nn.GSTActivation); ok {
			sawGST = true
		}
		if _, ok := l.(*nn.ReLU); ok {
			t.Error("GST instantiation must not contain ReLU layers")
		}
	}
	if !sawGST {
		t.Fatal("no GST activation layers present")
	}
	x := tensor.New(3, 64, 64)
	out := nn.NewNetwork(layers...).Forward(x)
	if out.Len() != 5 {
		t.Fatalf("output = %d classes, want 5", out.Len())
	}
}

// TestInstantiateLayerCounts: the runnable chain carries the same number
// of conv and dense layers as the descriptor.
func TestInstantiateLayerCounts(t *testing.T) {
	layers, err := Instantiate(AlexNet(), 64, 10, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	var convs, denses int
	for _, l := range layers {
		switch l.(type) {
		case *nn.Conv2D:
			convs++
		case *nn.Dense:
			denses++
		}
	}
	if convs != 5 || denses != 3 {
		t.Errorf("AlexNet instance has %d convs and %d denses, want 5 and 3", convs, denses)
	}
}
