package core

import (
	"math"
	"testing"

	"trident/internal/dataset"
	"trident/internal/tensor"
)

func tinyConvSpec() tensor.Conv2DSpec {
	return tensor.Conv2DSpec{InC: 1, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
}

func quietCNN(t *testing.T, classes int, lr float64) *CNN {
	t.Helper()
	c, err := NewCNN(NetworkConfig{
		PE:           PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: lr,
	}, tinyConvSpec(), classes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCNNValidation(t *testing.T) {
	cfg := NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}}
	bad := tinyConvSpec()
	bad.Groups = 2
	bad.InC = 2
	bad.OutC = 6
	if _, err := NewCNN(cfg, bad, 3); err == nil {
		t.Error("grouped conv: want error")
	}
	if _, err := NewCNN(cfg, tinyConvSpec(), 1); err == nil {
		t.Error("single class: want error")
	}
	if _, err := NewCNN(cfg, tensor.Conv2DSpec{}, 3); err == nil {
		t.Error("invalid spec: want error")
	}
}

func TestCNNForwardShapeAndDeterminism(t *testing.T) {
	c := quietCNN(t, 4, 0.05)
	img := tensor.New(1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = 0.1 * float64(i%7)
	}
	l1, err := c.Forward(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1) != 4 {
		t.Fatalf("logits = %d, want 4", len(l1))
	}
	l2, err := c.Forward(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Errorf("noiseless forward not deterministic at %d: %v vs %v", i, l1[i], l2[i])
		}
	}
	if _, err := c.Forward(tensor.New(1, 4, 4)); err == nil {
		t.Error("wrong input shape: want error")
	}
}

// TestCNNForwardMatchesDigitalConv: the hardware conv forward must agree
// with a digital im2col convolution of the same (quantized) kernel within
// the analog error budget.
func TestCNNForwardMatchesDigitalConv(t *testing.T) {
	c := quietCNN(t, 3, 0.05)
	img := tensor.New(1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = math.Sin(float64(i) * 0.37)
	}
	if _, err := c.Forward(img); err != nil {
		t.Fatal(err)
	}
	// Digital reference: pre-activations from the master kernel weights.
	spec := tinyConvSpec()
	kcols := spec.InC * spec.KH * spec.KW
	k := tensor.New(spec.OutC, kcols)
	for j, row := range c.KernelWeights() {
		for i, w := range row {
			k.Set(w, j, i)
		}
	}
	ref := tensor.Conv2D(img, k, spec)
	pixels := spec.OutH() * spec.OutW()
	for oc := 0; oc < spec.OutC; oc++ {
		for p := 0; p < pixels; p += 7 {
			hw := c.nodes[c.conv].batchPre[oc*pixels+p]
			dg := ref.Data()[oc*pixels+p]
			if math.Abs(hw-dg) > 0.08 {
				t.Fatalf("pre[%d,%d]: hw %v vs digital %v", oc, p, hw, dg)
			}
		}
	}
}

// TestCNNTrainsOnMiniImages: full in-situ CNN training — optical conv
// passes, per-pixel LDSU gating, hardware outer products — separates
// procedural oriented-grating classes.
func TestCNNTrainsOnMiniImages(t *testing.T) {
	data := dataset.MiniImages(80, 2, 1, 8, 8, 0.05, 3)
	trainSet, testSet := data.Split(0.75)
	c := quietCNN(t, 2, 0.1)
	for epoch := 0; epoch < 8; epoch++ {
		for i := range trainSet.Inputs {
			if _, err := c.TrainSample(trainSet.Inputs[i], trainSet.Labels[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	correct := 0
	for i := range testSet.Inputs {
		cls, err := c.Predict(testSet.Inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		if cls == testSet.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(testSet.Len())
	if acc < 0.85 {
		t.Errorf("in-situ CNN accuracy = %.2f, want ≥ 0.85", acc)
	}
}

func TestCNNTrainReducesLoss(t *testing.T) {
	c := quietCNN(t, 2, 0.1)
	img := tensor.New(1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = math.Cos(float64(i) * 0.21)
	}
	first, err := c.TrainSample(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 15; i++ {
		last, err = c.TrainSample(img, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("CNN loss did not decrease: %v → %v", first, last)
	}
	if _, err := c.TrainSample(img, 9); err == nil {
		t.Error("bad label: want error")
	}
}

func TestCNNLedgerPopulated(t *testing.T) {
	c := quietCNN(t, 2, 0.1)
	img := tensor.New(1, 8, 8)
	if _, err := c.TrainSample(img, 0); err != nil {
		t.Fatal(err)
	}
	led := c.Ledger()
	if led.TotalEnergy() <= 0 || led.Elapsed() <= 0 {
		t.Error("CNN ledger empty after training step")
	}
	if led.Energy(CatGSTTuning) <= 0 {
		t.Error("conv training must book tuning energy (per-pixel outer products)")
	}
}
