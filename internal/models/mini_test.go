package models

import (
	"testing"

	"trident/internal/dataset"
	"trident/internal/nn"
	"trident/internal/tensor"
)

// Digital miniatures of the branched evaluation architectures. The full
// GoogleNet/ResNet-50 descriptors serve the cost models; these graph
// networks carry the same *structural* ideas — inception's parallel
// branches with channel concatenation, ResNet's residual shortcut — at a
// scale the tests train in seconds, so the digital graph's joins are
// checked end to end.

// miniInception builds a one-module inception classifier on c×hw×hw inputs:
//
//	input → [1×1 | 1×1→3×3 | pool→1×1] → concat → GAP → dense
func miniInception(c, hw, classes int, seed int64) *nn.Graph {
	g := nn.NewGraph()
	in := g.Input()
	// Branch 1: 1×1 conv.
	b1 := g.Layer(nn.NewConv2D("b1/1x1", tensor.Conv2DSpec{
		InC: c, InH: hw, InW: hw, OutC: 4, KH: 1, KW: 1,
		StrideH: 1, StrideW: 1, Groups: 1,
	}, seed), in)
	b1 = g.Layer(nn.NewReLU("b1/relu"), b1)
	// Branch 2: 1×1 reduce then 3×3.
	b2 := g.Layer(nn.NewConv2D("b2/reduce", tensor.Conv2DSpec{
		InC: c, InH: hw, InW: hw, OutC: 3, KH: 1, KW: 1,
		StrideH: 1, StrideW: 1, Groups: 1,
	}, seed+1), in)
	b2 = g.Layer(nn.NewReLU("b2/relu1"), b2)
	b2 = g.Layer(nn.NewConv2D("b2/3x3", tensor.Conv2DSpec{
		InC: 3, InH: hw, InW: hw, OutC: 6, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1,
	}, seed+2), b2)
	b2 = g.Layer(nn.NewReLU("b2/relu2"), b2)
	// Branch 3: 3×3 conv as the pooled-projection stand-in (keeps shape).
	b3 := g.Layer(nn.NewConv2D("b3/proj", tensor.Conv2DSpec{
		InC: c, InH: hw, InW: hw, OutC: 2, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1,
	}, seed+3), in)
	b3 = g.Layer(nn.NewReLU("b3/relu"), b3)
	cat := g.Concat(b1, b2, b3) // 4+6+2 = 12 channels
	gap := g.Layer(nn.NewAvgPool("gap", tensor.PoolSpec{C: 12, H: hw, W: hw, K: hw, Stride: hw}), cat)
	fl := g.Layer(nn.NewFlatten("flatten"), gap)
	out := g.Layer(nn.NewDense("fc", 12, classes, seed+4), fl)
	g.SetOutput(out)
	return g
}

// miniResNet builds a two-block residual classifier on c×hw×hw inputs:
//
//	input → conv → [conv→relu→conv + shortcut] → relu → GAP → dense
func miniResNet(c, hw, classes int, seed int64) *nn.Graph {
	const width = 8
	g := nn.NewGraph()
	in := g.Input()
	stem := g.Layer(nn.NewConv2D("stem", tensor.Conv2DSpec{
		InC: c, InH: hw, InW: hw, OutC: width, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1,
	}, seed), in)
	stem = g.Layer(nn.NewReLU("stem/relu"), stem)
	// Residual block: two 3×3 convs plus the identity shortcut.
	b := g.Layer(nn.NewConv2D("res/conv1", tensor.Conv2DSpec{
		InC: width, InH: hw, InW: hw, OutC: width, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1,
	}, seed+1), stem)
	b = g.Layer(nn.NewReLU("res/relu1"), b)
	b = g.Layer(nn.NewConv2D("res/conv2", tensor.Conv2DSpec{
		InC: width, InH: hw, InW: hw, OutC: width, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1,
	}, seed+2), b)
	join := g.Add(b, stem)
	act := g.Layer(nn.NewReLU("res/relu2"), join)
	gap := g.Layer(nn.NewAvgPool("gap", tensor.PoolSpec{C: width, H: hw, W: hw, K: hw, Stride: hw}), act)
	fl := g.Layer(nn.NewFlatten("flatten"), gap)
	out := g.Layer(nn.NewDense("fc", width, classes, seed+3), fl)
	g.SetOutput(out)
	return g
}

// TestMiniInceptionTrains: the branched inception miniature learns the
// oriented-grating classes end to end.
func TestMiniInceptionTrains(t *testing.T) {
	data := dataset.MiniImages(80, 2, 1, 8, 8, 0.1, 9)
	trainSet, testSet := data.Split(0.75)
	g := miniInception(1, 8, 2, 11)
	opt := nn.SGD{LearningRate: 0.05}
	for e := 0; e < 12; e++ {
		for i := range trainSet.Inputs {
			nn.TrainStep(g, opt, trainSet.Inputs[i], trainSet.Labels[i])
		}
	}
	if acc := nn.Accuracy(g.Forward, testSet.Inputs, testSet.Labels); acc < 0.85 {
		t.Errorf("mini-inception accuracy = %.2f, want ≥ 0.85", acc)
	}
}

// TestMiniResNetTrains: the residual miniature learns too, and its shortcut
// genuinely carries gradient (removing it would change the update).
func TestMiniResNetTrains(t *testing.T) {
	data := dataset.MiniImages(80, 2, 1, 8, 8, 0.1, 13)
	trainSet, testSet := data.Split(0.75)
	g := miniResNet(1, 8, 2, 17)
	opt := nn.SGD{LearningRate: 0.05}
	first := nn.TrainStep(g, opt, trainSet.Inputs[0], trainSet.Labels[0])
	for e := 0; e < 12; e++ {
		for i := range trainSet.Inputs {
			nn.TrainStep(g, opt, trainSet.Inputs[i], trainSet.Labels[i])
		}
	}
	last := nn.TrainStep(g, opt, trainSet.Inputs[0], trainSet.Labels[0])
	if last >= first {
		t.Errorf("mini-resnet loss did not decrease: %v → %v", first, last)
	}
	if acc := nn.Accuracy(g.Forward, testSet.Inputs, testSet.Labels); acc < 0.85 {
		t.Errorf("mini-resnet accuracy = %.2f, want ≥ 0.85", acc)
	}
}

// TestMiniShapes: output widths match the class counts.
func TestMiniShapes(t *testing.T) {
	gi := miniInception(1, 8, 5, 1)
	if out := gi.Forward(dataset.MiniImages(1, 2, 1, 8, 8, 0, 1).Inputs[0]); out.Len() != 5 {
		t.Errorf("inception output = %d, want 5", out.Len())
	}
	gr := miniResNet(1, 8, 4, 1)
	if out := gr.Forward(dataset.MiniImages(1, 2, 1, 8, 8, 0, 1).Inputs[0]); out.Len() != 4 {
		t.Errorf("resnet output = %d, want 4", out.Len())
	}
}
