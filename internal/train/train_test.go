package train

import (
	"math"
	"testing"

	"trident/internal/dataset"
	"trident/internal/device"
	"trident/internal/models"
)

// TestTableVShape checks the Table V reproduction: Trident trains faster
// than the Xavier on MobileNetV2, ResNet-50 and VGG-16 (the paper's three
// wins), with the VGG-16 margin the largest — the weight-heavy model where
// avoiding optimizer memory traffic pays most.
func TestTableVShape(t *testing.T) {
	rows, err := TableV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := map[string]TableVRow{}
	for _, r := range rows {
		byName[r.Model] = r
		if r.Xavier <= 0 || r.Trident <= 0 {
			t.Errorf("%s: non-positive training times", r.Model)
		}
	}
	for _, m := range []string{"MobileNetV2", "ResNet-50", "VGG-16"} {
		if byName[m].PercentChange >= 0 {
			t.Errorf("%s: Trident should be faster (paper Table V), got %+.1f%%", m, byName[m].PercentChange)
		}
	}
	if math.Abs(byName["MobileNetV2"].PercentChange-(-8.5)) > 10 {
		t.Errorf("MobileNetV2 change = %+.1f%%, paper -8.5%%", byName["MobileNetV2"].PercentChange)
	}
	if math.Abs(byName["VGG-16"].PercentChange-(-38.5)) > 15 {
		t.Errorf("VGG-16 change = %+.1f%%, paper -38.5%%", byName["VGG-16"].PercentChange)
	}
}

// TestTableVMagnitudes: wall-clock times must be in the paper's ballpark —
// tens of seconds for MobileNetV2 up to hundreds for VGG-16.
func TestTableVMagnitudes(t *testing.T) {
	rows, err := TableV()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.Model {
		case "MobileNetV2":
			if r.Trident.Seconds() < 10 || r.Trident.Seconds() > 100 {
				t.Errorf("MobileNetV2 Trident = %v, want tens of seconds", r.Trident)
			}
		case "VGG-16":
			if r.Trident.Seconds() < 200 || r.Trident.Seconds() > 2500 {
				t.Errorf("VGG-16 Trident = %v, want hundreds of seconds", r.Trident)
			}
			if r.Trident.Seconds() < rows[0].Trident.Seconds() {
				t.Error("VGG-16 must take longest to train")
			}
		}
	}
}

// TestStepTimesOrdering: training a sample costs more than inferring one
// (three passes plus updates).
func TestStepTimesOrdering(t *testing.T) {
	m := models.MobileNetV2()
	ts, err := TridentStepTime(m)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := XavierStepTime(m)
	if err != nil {
		t.Fatal(err)
	}
	if ts <= 0 || xs <= 0 {
		t.Fatal("step times must be positive")
	}
	// Bigger models train slower on both accelerators.
	tv, err := TridentStepTime(models.VGG16())
	if err != nil {
		t.Fatal(err)
	}
	if tv <= ts {
		t.Error("VGG-16 step must exceed MobileNetV2 step on Trident")
	}
}

// TestRunInSituLearns: the functional in-situ trainer reaches high accuracy
// on separable data and spends most of its energy on GST tuning.
func TestRunInSituLearns(t *testing.T) {
	data := dataset.Blobs(150, 3, 6, 0.1, 7)
	res, err := RunInSitu(data, 16, 10, 0.08, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.85 {
		t.Errorf("in-situ test accuracy = %.2f, want ≥ 0.85", res.TestAccuracy)
	}
	if res.Energy <= 0 {
		t.Error("energy ledger empty")
	}
	if res.TuningShare < 0.5 {
		t.Errorf("tuning share = %.2f, expected dominant per Table III", res.TuningShare)
	}
	if _, err := RunInSitu(&dataset.Set{}, 4, 1, 0.1, 1, false); err == nil {
		t.Error("empty dataset: want error")
	}
}

// TestRunInSituMinibatchLearns: the minibatch schedule must learn the same
// task through the batched reprogram-free backward path, and a batch below
// one must run the per-sample schedule exactly — same noise draws, same
// weight trajectory, same ledger.
func TestRunInSituMinibatchLearns(t *testing.T) {
	data := dataset.Blobs(150, 3, 6, 0.1, 7)
	res, err := RunInSitu(data, 16, 10, 0.08, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.85 {
		t.Errorf("batched in-situ test accuracy = %.2f, want ≥ 0.85", res.TestAccuracy)
	}
	if res.Energy <= 0 {
		t.Error("energy ledger empty")
	}
	single, err := RunInSitu(data, 16, 4, 0.08, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := RunInSitu(data, 16, 4, 0.08, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if *single != *clamped {
		t.Errorf("batch 0 diverged from the per-sample run:\n  batch 1 %+v\n  batch 0 %+v", single, clamped)
	}
	if _, err := RunInSitu(&dataset.Set{}, 4, 1, 0.1, 4, false); err == nil {
		t.Error("empty dataset: want error")
	}
}

// TestRunInSituWithNoise: analog noise must not destroy learning.
func TestRunInSituWithNoise(t *testing.T) {
	data := dataset.Blobs(150, 3, 6, 0.1, 9)
	res, err := RunInSitu(data, 16, 10, 0.08, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.80 {
		t.Errorf("noisy in-situ accuracy = %.2f, want ≥ 0.80", res.TestAccuracy)
	}
}

// TestRunMismatch reproduces the Section I motivation quantitatively on a
// tight-margin classification task: mapping offline-trained weights onto
// 6-bit thermal hardware (quantization + crosstalk-scale variation) loses
// real accuracy, while the 8-bit GST mapping is nearly lossless.
func TestRunMismatch(t *testing.T) {
	data := dataset.Blobs(1000, 12, 6, 0.35, 5)
	res, err := RunMismatch(data, 24, 30, 0.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	if res.FloatAccuracy < 0.8 {
		t.Fatalf("digital reference accuracy = %.2f, too low to measure mismatch", res.FloatAccuracy)
	}
	drop8 := res.FloatAccuracy - res.EightBit
	drop6 := res.FloatAccuracy - res.SixBit
	if drop8 > 0.01 {
		t.Errorf("8-bit mapping drop = %.3f, want ≈ lossless (≤0.01)", drop8)
	}
	if drop6 < 0.01 {
		t.Errorf("6-bit mapping drop = %.3f, want a visible loss (≥0.01)", drop6)
	}
	if res.EightBit < res.SixBit {
		t.Errorf("8-bit accuracy %.3f below 6-bit %.3f — resolution ordering broken",
			res.EightBit, res.SixBit)
	}
	if _, err := RunMismatch(&dataset.Set{}, 4, 1, 0.1, 1); err == nil {
		t.Error("empty dataset: want error")
	}
}

// TestDigitalBaseline matches the in-situ architecture digitally.
func TestDigitalBaseline(t *testing.T) {
	data := dataset.Blobs(150, 3, 6, 0.1, 7)
	acc, err := DigitalBaselineAccuracy(data, 16, 10, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("digital baseline accuracy = %.2f, want ≥ 0.85", acc)
	}
}

// TestDigitalRunsTinySet: the digital runs take the input width from the
// whole set, so a set too small to leave anything in the training split
// still runs, and an empty set is an error rather than a panic.
func TestDigitalRunsTinySet(t *testing.T) {
	one := dataset.Blobs(1, 2, 3, 0.1, 1)
	if _, err := RunMismatch(one, 4, 1, 0.1, 1); err != nil {
		t.Errorf("RunMismatch on one sample: %v", err)
	}
	if _, err := RunQAT(one, 4, 1, 0.1, 4, 1); err != nil {
		t.Errorf("RunQAT on one sample: %v", err)
	}
	if _, err := DigitalBaselineAccuracy(one, 4, 1, 0.1, 1); err != nil {
		t.Errorf("DigitalBaselineAccuracy on one sample: %v", err)
	}
	if _, err := DigitalBaselineAccuracy(&dataset.Set{}, 4, 1, 0.1, 1); err == nil {
		t.Error("DigitalBaselineAccuracy on an empty set: want error")
	}
}

// TestQuantizationErrorOrdering: the 6-bit thermal error is ≈4× the 8-bit
// GST error — the resolution argument in numbers.
func TestQuantizationErrorOrdering(t *testing.T) {
	e8 := QuantizationErrorAtBits(device.GSTBits)
	e6 := QuantizationErrorAtBits(device.ThermalBits)
	if e8 <= 0 || e6 <= 0 {
		t.Fatal("errors must be positive")
	}
	ratio := e6 / e8
	if ratio < 3 || ratio > 5 {
		t.Errorf("6-bit/8-bit RMS error ratio = %.2f, want ≈4", ratio)
	}
}

// TestRunQATRecoversLowBitLoss: quantization-aware fine-tuning recovers a
// large share of the accuracy that post-training quantization loses at
// aggressive bit widths — and therefore separates the *quantization* part
// of the paper's mismatch argument from the *device variation* part, which
// no training flow can anticipate offline.
func TestRunQATRecoversLowBitLoss(t *testing.T) {
	for _, seed := range []int64{5, 13} {
		data := dataset.Blobs(1000, 12, 6, 0.35, seed)
		r, err := RunQAT(data, 24, 30, 0.1, 2, 21)
		if err != nil {
			t.Fatal(err)
		}
		if r.FloatAccuracy < 0.8 {
			t.Fatalf("seed %d: float reference %.2f too low", seed, r.FloatAccuracy)
		}
		if r.FloatAccuracy-r.PostTraining < 0.2 {
			t.Errorf("seed %d: 2-bit PTQ drop only %.2f — regime miscalibrated",
				seed, r.FloatAccuracy-r.PostTraining)
		}
		if r.QAT < r.PostTraining+0.1 {
			t.Errorf("seed %d: QAT %.2f did not recover ≥0.1 over PTQ %.2f",
				seed, r.QAT, r.PostTraining)
		}
	}
	if _, err := RunQAT(&dataset.Set{}, 4, 1, 0.1, 4, 1); err == nil {
		t.Error("empty dataset: want error")
	}
	if _, err := RunQAT(dataset.Blobs(20, 2, 2, 0.1, 1), 4, 1, 0.1, 99, 1); err == nil {
		t.Error("bad bit width: want error")
	}
}
