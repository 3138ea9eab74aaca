package core

import (
	"math"
	"testing"

	"trident/internal/device"
	"trident/internal/units"
)

func newTestPE(t *testing.T, rows, cols int) *PE {
	t.Helper()
	pe, err := NewPE(PEConfig{Rows: rows, Cols: cols, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

func TestNewPEDefaults(t *testing.T) {
	pe, err := NewPE(PEConfig{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if pe.Rows() != device.WeightBankRows || pe.Cols() != device.WeightBankCols {
		t.Errorf("default geometry %d×%d, want %d×%d",
			pe.Rows(), pe.Cols(), device.WeightBankRows, device.WeightBankCols)
	}
}

func TestPEProgramAccounting(t *testing.T) {
	pe := newTestPE(t, 4, 4)
	w := [][]float64{
		{0.5, -0.5, 0.25, 0},
		{0.1, 0.2, 0.3, 0.4},
	}
	if err := pe.Program(w); err != nil {
		t.Fatal(err)
	}
	led := pe.Ledger()
	if led.Energy(CatGSTTuning) <= 0 {
		t.Error("programming must book GST tuning energy")
	}
	// Parallel programming: one write pass advances 300 ns.
	if got := led.Elapsed().Nanoseconds(); math.Abs(got-300) > 1e-9 {
		t.Errorf("program elapsed = %vns, want 300 (parallel)", got)
	}
}

func TestPEInferMatchesWeights(t *testing.T) {
	pe := newTestPE(t, 4, 4)
	w := [][]float64{
		{0.5, 0, 0, 0},
		{0, -0.5, 0, 0},
		{0.25, 0.25, 0.25, 0.25},
		{1, 1, 1, 1},
	}
	if err := pe.Program(w); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.8, 0.4, 0.2, 0.1}
	y, h, err := pe.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-activations match W·x up to 8-bit quantization + crosstalk.
	want := []float64{0.4, -0.2, 0.375, 1.5}
	for j := range want {
		if math.Abs(h[j]-want[j]) > 0.02 {
			t.Errorf("h[%d] = %v, want ≈%v", j, h[j], want[j])
		}
	}
	// With default threshold 0: f(h) = 0.34·(h−0) for h ≥ 0, else 0.
	for j := range y {
		var exp float64
		if h[j] >= 0 {
			exp = 0.34 * h[j]
			if exp > 1 {
				exp = 1
			}
		}
		if math.Abs(y[j]-exp) > 1e-9 {
			t.Errorf("y[%d] = %v, want %v (GST activation of %v)", j, y[j], exp, h[j])
		}
	}
}

func TestPEInferValidation(t *testing.T) {
	pe := newTestPE(t, 2, 2)
	if _, _, err := pe.Infer([]float64{1, 2, 3}); err == nil {
		t.Error("oversized input: want error")
	}
	if _, err := pe.ActivateInto(nil, []float64{1, 2, 3}); err == nil {
		t.Error("oversized pre-activation: want error")
	}
}

// TestPELDSUMatchesActivation: after Infer, the latched derivatives agree
// with which rows fired.
func TestPELDSUMatchesActivation(t *testing.T) {
	pe := newTestPE(t, 2, 2)
	if err := pe.Program([][]float64{{1, 0}, {-1, 0}}); err != nil {
		t.Fatal(err)
	}
	_, h, err := pe.Infer([]float64{0.9, 0})
	if err != nil {
		t.Fatal(err)
	}
	d := pe.Derivatives()
	if h[0] < 0 || h[1] > 0 {
		t.Fatalf("unexpected pre-activations %v", h)
	}
	if d[0] != device.ActivationDerivativeHigh {
		t.Errorf("fired row derivative = %v, want 0.34", d[0])
	}
	if d[1] != device.ActivationDerivativeLow {
		t.Errorf("silent row derivative = %v, want 0", d[1])
	}
}

// TestPEHoldPower checks the post-tuning standby power against the paper's
// 0.11 W for a full 256-MRR PE.
func TestPEHoldPower(t *testing.T) {
	pe := newTestPE(t, 16, 16)
	if got := pe.HoldPower().Watts(); math.Abs(got-0.11) > 0.01 {
		t.Errorf("hold power = %vW, want ≈0.11", got)
	}
	// A quarter-size PE holds a quarter of the power.
	small := newTestPE(t, 8, 8)
	if got, want := small.HoldPower().Watts(), pe.HoldPower().Watts()/4; math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled hold power = %v, want %v", got, want)
	}
}

// TestPEReprogramFreeWhenUnchanged: writing identical weights must cost
// nothing (non-volatile states need no refresh).
func TestPEReprogramFreeWhenUnchanged(t *testing.T) {
	pe := newTestPE(t, 2, 2)
	w := [][]float64{{0.5, -0.5}, {0.25, 0}}
	if err := pe.Program(w); err != nil {
		t.Fatal(err)
	}
	before := pe.Ledger().Energy(CatGSTTuning)
	if err := pe.Program(w); err != nil {
		t.Fatal(err)
	}
	if after := pe.Ledger().Energy(CatGSTTuning); after != before {
		t.Errorf("identical reprogram cost %v", after-before)
	}
}

// TestPENoiseBounded: with noise enabled, repeated inference scatters around
// the noiseless value with small relative spread at mW line powers.
func TestPENoiseBounded(t *testing.T) {
	noisy, err := NewPE(PEConfig{Rows: 2, Cols: 2, NoiseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := noisy.Program([][]float64{{0.5, 0.5}, {0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	const n = 300
	var mean, m2 float64
	for i := 0; i < n; i++ {
		h, err := noisy.MVMPassBatchInto(nil, []float64{0.5, 0.5}, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		mean += h[0]
	}
	mean /= n
	for i := 0; i < n; i++ {
		h, _ := noisy.MVMPassBatchInto(nil, []float64{0.5, 0.5}, 1, 2)
		d := h[0] - mean
		m2 += d * d
	}
	sigma := math.Sqrt(m2 / n)
	if math.Abs(mean-0.5) > 0.05 {
		t.Errorf("noisy mean = %v, want ≈0.5", mean)
	}
	if sigma > 0.01 {
		t.Errorf("noise σ = %v, too large for 8-bit analog operation", sigma)
	}
	if sigma == 0 {
		t.Error("noise enabled but σ = 0")
	}
}

// TestPEEnergyCategories: one inference books every pipeline category.
func TestPEEnergyCategories(t *testing.T) {
	pe := newTestPE(t, 4, 4)
	if err := pe.Program([][]float64{{1, 1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pe.Infer([]float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	led := pe.Ledger()
	for _, cat := range []EnergyCategory{CatGSTTuning, CatGSTRead, CatBPDTIA, CatCache, CatEOLaser, CatLDSU, CatActivationReset} {
		if led.Energy(cat) <= 0 {
			t.Errorf("category %s not booked", cat)
		}
	}
	// Tuning dominates — the Table III structure.
	if led.Energy(CatGSTTuning) < led.Energy(CatGSTRead) {
		t.Error("GST tuning should dominate read energy after one program+infer")
	}
}

// TestPEInferSpeedAfterProgramming: once programmed, each inference pass
// advances only one clock period — "inference can be completed at the speed
// of light ... without any delay for fetching weights or tuning".
func TestPEInferSpeedAfterProgramming(t *testing.T) {
	pe := newTestPE(t, 4, 4)
	if err := pe.Program([][]float64{{1, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	start := pe.Ledger().Elapsed()
	const passes = 10
	for i := 0; i < passes; i++ {
		if _, _, err := pe.Infer([]float64{1, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := pe.Ledger().Elapsed() - start
	want := units.Duration(passes) * device.ClockRate.Period()
	if math.Abs(elapsed.Seconds()-want.Seconds()) > 1e-15 {
		t.Errorf("10 inferences took %v, want %v (one clock each)", elapsed, want)
	}
}
