package analog

import (
	"math"
	"testing"
	"testing/quick"

	"trident/internal/device"
	"trident/internal/units"
)

func TestBPDIdealDifference(t *testing.T) {
	b := NewBPD(1)
	got := b.DetectIdeal(3*units.Milliwatt, 1*units.Milliwatt)
	want := device.BPDResponsivity * 2e-3
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("ideal detection = %v, want %v", got, want)
	}
	// Balanced inputs cancel.
	if got := b.DetectIdeal(1*units.Milliwatt, 1*units.Milliwatt); got != 0 {
		t.Errorf("balanced detection = %v, want 0", got)
	}
}

func TestBPDNoiseStatistics(t *testing.T) {
	b := NewBPD(42)
	const n = 20000
	plus, minus := 1*units.Milliwatt, 0.5*units.Milliwatt
	mean := 0.0
	var m2 float64
	for i := 0; i < n; i++ {
		v := b.Detect(plus, minus)
		mean += v
	}
	mean /= n
	ideal := b.DetectIdeal(plus, minus)
	sigma := b.NoiseSigma(plus + minus)
	if math.Abs(mean-ideal) > 5*sigma/math.Sqrt(n) {
		t.Errorf("noisy mean = %v, ideal = %v (bias beyond 5σ/√n)", mean, ideal)
	}
	for i := 0; i < n; i++ {
		d := b.Detect(plus, minus) - ideal
		m2 += d * d
	}
	got := math.Sqrt(m2 / n)
	if got < sigma*0.9 || got > sigma*1.1 {
		t.Errorf("measured noise σ = %v, predicted %v", got, sigma)
	}
}

func TestBPDNoiseSigmaDegenerate(t *testing.T) {
	b := NewBPD(1)
	// Zero power still has thermal + dark noise.
	if b.NoiseSigma(0) <= 0 {
		t.Error("noise at zero power must still be positive (thermal floor)")
	}
}

// TestSNRSupportsEightBits checks the design premise that the analog
// accumulation supports ≥8 effective bits at ~mW signal levels, which is
// what lets GST weighting deliver 8-bit MACs end to end.
func TestSNRSupportsEightBits(t *testing.T) {
	b := NewBPD(1)
	bits := b.SNRBits(1 * units.Milliwatt)
	if bits < 8 {
		t.Errorf("SNR bits at 1mW = %.1f, want ≥ 8", bits)
	}
	// At nW levels the resolution collapses — noise matters.
	if low := b.SNRBits(1 * units.Nanowatt); low >= bits {
		t.Errorf("SNR must degrade at low power: %.1f ≥ %.1f", low, bits)
	}
	if got := b.SNRBits(0); got != 0 {
		t.Errorf("SNR bits at 0 power = %v, want 0", got)
	}
}

// TestSeedlessNoiseModelMatchesBPD: the seedless closed forms must equal a
// seeded default detector's bit for bit.
func TestSeedlessNoiseModelMatchesBPD(t *testing.T) {
	b := NewBPD(7)
	for _, pw := range []units.Power{0, 40 * units.Nanowatt, 10 * units.Microwatt, 1 * units.Milliwatt} {
		if got, want := SNRBits(pw), b.SNRBits(pw); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("SNRBits(%v) = %v, seeded BPD %v", pw, got, want)
		}
		if got, want := NoiseSigma(pw), b.NoiseSigma(pw); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("NoiseSigma(%v) = %v, seeded BPD %v", pw, got, want)
		}
	}
}

func TestTIA(t *testing.T) {
	if _, err := NewTIA(0); err == nil {
		t.Error("zero gain: want error")
	}
	tia, err := NewTIA(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := tia.Amplify(1e-3); math.Abs(got-1.0) > 1e-15 {
		t.Errorf("1mA × 1kΩ = %v, want 1V", got)
	}
}

func TestADCConvert(t *testing.T) {
	a := NewADC()
	if a.Bits != 8 {
		t.Fatalf("bits = %d, want 8", a.Bits)
	}
	// Conversion is a quantization: error bounded by one LSB.
	lsb := 2.0 / 255
	for _, v := range []float64{-1, -0.33, 0, 0.5, 0.99, 1} {
		got := a.Convert(v)
		if math.Abs(got-v) > lsb {
			t.Errorf("Convert(%v) = %v, error beyond 1 LSB", v, got)
		}
	}
	if got := a.Convert(5); got != 1 {
		t.Errorf("Convert(5) = %v, want clamp to 1", got)
	}
	if got := a.Convert(-5); got != -1 {
		t.Errorf("Convert(-5) = %v, want clamp to -1", got)
	}
	if got := a.Convert(math.NaN()); got != 0 {
		t.Errorf("Convert(NaN) = %v, want 0", got)
	}
}

// Property: ADC conversion is idempotent.
func TestQuickADCIdempotent(t *testing.T) {
	a := NewADC()
	f := func(v float64) bool {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return true
		}
		once := a.Convert(v)
		return a.Convert(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestADCDominatesRowPower verifies the paper's motivating claim: one ADC
// draws more than a whole row's BPD+TIA front end, so removing the ADC is a
// first-order power win.
func TestADCDominatesRowPower(t *testing.T) {
	adc := NewADC()
	rowBudget := units.Power(float64(device.PowerBPDTIA) / float64(device.WeightBankRows))
	if adc.Power <= rowBudget {
		t.Errorf("ADC power %v should exceed per-row BPD+TIA %v", adc.Power, rowBudget)
	}
}

func TestConverterEnergies(t *testing.T) {
	adc, dac := NewADC(), NewDAC()
	if adc.EnergyPerConversion() <= 0 || dac.EnergyPerConversion() <= 0 {
		t.Error("conversion energies must be positive")
	}
	// At 14.8mW and 1.37GHz, one conversion ≈ 10.8 pJ.
	got := adc.EnergyPerConversion().Picojoules()
	if got < 5 || got > 20 {
		t.Errorf("ADC energy/conversion = %vpJ, want ≈10.8", got)
	}
}
