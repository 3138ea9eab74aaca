package core

import (
	"math"
	"testing"

	"trident/internal/dataset"
	"trident/internal/tensor"
)

func deepSpecs() []tensor.Conv2DSpec {
	return []tensor.Conv2DSpec{
		{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 4, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
			StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
	}
}

func quietDeepCNN(t *testing.T, classes int, lr float64) *Graph {
	t.Helper()
	d, err := NewConvNet(NetworkConfig{
		PE:           PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: lr,
	}, deepSpecs(), classes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDeepCNNValidation(t *testing.T) {
	cfg := NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}}
	if _, err := NewConvNet(cfg, nil, 2); err == nil {
		t.Error("no stages: want error")
	}
	if _, err := NewConvNet(cfg, deepSpecs(), 1); err == nil {
		t.Error("single class: want error")
	}
	bad := deepSpecs()
	bad[1].InC = 9 // breaks stage chaining
	if _, err := NewConvNet(cfg, bad, 2); err == nil {
		t.Error("mismatched stage shapes: want error")
	}
	grp := deepSpecs()
	grp[0].Groups = 0
	if _, err := NewConvNet(cfg, grp, 2); err == nil {
		t.Error("invalid spec: want error")
	}
}

func TestDeepCNNForwardShape(t *testing.T) {
	d := quietDeepCNN(t, 3, 0.05)
	if got := len(d.Layers()); got != 3 {
		t.Fatalf("hardware layers = %d, want 2 conv + 1 head", got)
	}
	img := tensor.New(1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = math.Sin(0.31 * float64(i))
	}
	logits, err := d.Forward(img.Data())
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 3 {
		t.Fatalf("logits = %d, want 3", len(logits))
	}
	if _, err := d.Forward(tensor.New(1, 4, 4).Data()); err == nil {
		t.Error("wrong input shape: want error")
	}
}

func TestDeepCNNTrainReducesLoss(t *testing.T) {
	d := quietDeepCNN(t, 2, 0.1)
	img := tensor.New(1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = math.Cos(0.17 * float64(i))
	}
	first, err := d.TrainSample(img.Data(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 12; i++ {
		last, err = d.TrainSample(img.Data(), 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("deep CNN loss did not decrease: %v → %v", first, last)
	}
	if _, err := d.TrainSample(img.Data(), 7); err == nil {
		t.Error("bad label: want error")
	}
}

// TestDeepCNNGradientFlowsToFirstStage: training must move the FIRST
// stage's kernel — the gradient really crosses the per-pixel hardware
// transpose passes and the col2im scatter.
func TestDeepCNNGradientFlowsToFirstStage(t *testing.T) {
	d := quietDeepCNN(t, 2, 0.2)
	before := make([]float64, 0)
	for _, row := range d.Layers()[0].Weights() {
		before = append(before, append([]float64(nil), row...)...)
	}
	img := tensor.New(1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = math.Sin(0.41 * float64(i))
	}
	for i := 0; i < 5; i++ {
		if _, err := d.TrainSample(img.Data(), 0); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0.0
	idx := 0
	for _, row := range d.Layers()[0].Weights() {
		for _, w := range row {
			moved += math.Abs(w - before[idx])
			idx++
		}
	}
	if moved < 1e-6 {
		t.Errorf("first-stage kernel moved only %v — gradient did not flow", moved)
	}
}

// TestDeepCNNTrainsOnMiniImages: two hardware conv stages separate the
// grating classes end to end.
func TestDeepCNNTrainsOnMiniImages(t *testing.T) {
	data := dataset.MiniImages(80, 2, 1, 8, 8, 0.1, 19)
	trainSet, testSet := data.Split(0.75)
	d := quietDeepCNN(t, 2, 0.2)
	for epoch := 0; epoch < 10; epoch++ {
		for i := range trainSet.Inputs {
			if _, err := d.TrainSample(trainSet.Inputs[i].Data(), trainSet.Labels[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	correct := 0
	for i := range testSet.Inputs {
		cls, err := d.Predict(testSet.Inputs[i].Data())
		if err != nil {
			t.Fatal(err)
		}
		if cls == testSet.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(testSet.Len())
	if acc < 0.85 {
		t.Errorf("deep in-situ CNN accuracy = %.2f, want ≥ 0.85", acc)
	}
}

func TestDeepCNNLedger(t *testing.T) {
	d := quietDeepCNN(t, 2, 0.1)
	img := tensor.New(1, 8, 8)
	if _, err := d.TrainSample(img.Data(), 0); err != nil {
		t.Fatal(err)
	}
	led := d.Ledger()
	if led.TotalEnergy() <= 0 || led.Energy(CatGSTTuning) <= 0 {
		t.Error("deep CNN ledger missing energy")
	}
}
