// Package analog models the opto-electronic front end of a photonic PE: the
// balanced photodetector (BPD) that subtracts drop- and through-port power
// to recover signed dot products, the transimpedance amplifier (TIA) whose
// programmable gain implements the Hadamard product of the backward pass,
// and the ADC/DAC converters that baseline accelerators need between layers
// but Trident eliminates.
package analog

import (
	"fmt"
	"math"
	"math/rand"

	"trident/internal/device"
	"trident/internal/units"
)

// Physical constants.
const (
	electronCharge = 1.602176634e-19 // C
	boltzmann      = 1.380649e-23    // J/K
	roomTemp       = 300.0           // K
)

// BPD is a balanced photodetector pair: two photodiodes wired back-to-back
// so the output current is R·(P_plus − P_minus). Positive and negative
// partial products land on opposite diodes, which is how a broadcast-and-
// weight bank produces signed dot products without negative light.
type BPD struct {
	Responsivity float64         // A/W
	Bandwidth    units.Frequency // detection bandwidth
	DarkCurrent  float64         // A
	LoadOhms     float64         // thermal-noise load resistance

	rng *rand.Rand
}

// NewBPD returns a BPD with the paper-consistent defaults: 1 A/W
// responsivity, bandwidth matching the 1.37 GHz symbol clock.
func NewBPD(seed int64) *BPD {
	return &BPD{
		Responsivity: device.BPDResponsivity,
		Bandwidth:    units.Frequency(device.ClockRate),
		DarkCurrent:  10e-9,
		LoadOhms:     50,
		rng:          rand.New(rand.NewSource(seed)),
	}
}

// Detect converts a differential optical power (plus − minus) into a
// photocurrent including shot and thermal noise. Noise makes the analog MAC
// inexact; its magnitude relative to the signal bounds the usable bit
// resolution of the accumulation.
func (b *BPD) Detect(plus, minus units.Power) float64 {
	signal := b.Responsivity * (plus.Watts() - minus.Watts())
	total := b.Responsivity*(plus.Watts()+minus.Watts()) + 2*b.DarkCurrent
	if total < 0 {
		total = 0
	}
	bw := b.Bandwidth.Hertz()
	shotVar := 2 * electronCharge * total * bw
	thermalVar := 4 * boltzmann * roomTemp * bw / b.LoadOhms
	sigma := math.Sqrt(shotVar + thermalVar)
	return signal + b.rng.NormFloat64()*sigma
}

// DetectIdeal converts without noise, for error-budget comparisons.
func (b *BPD) DetectIdeal(plus, minus units.Power) float64 {
	return b.Responsivity * (plus.Watts() - minus.Watts())
}

// NoiseSigma returns the RMS current noise for a given total incident power.
func (b *BPD) NoiseSigma(total units.Power) float64 {
	bw := b.Bandwidth.Hertz()
	cur := b.Responsivity*total.Watts() + 2*b.DarkCurrent
	if cur < 0 {
		cur = 0
	}
	return math.Sqrt(2*electronCharge*cur*bw + 4*boltzmann*roomTemp*bw/b.LoadOhms)
}

// SNRBits returns the effective number of bits the analog accumulation
// supports for a full-scale optical signal: log2(fullScaleCurrent / (2·σ)).
func (b *BPD) SNRBits(fullScale units.Power) float64 {
	sigma := b.NoiseSigma(fullScale)
	if sigma <= 0 {
		return 64
	}
	i := b.Responsivity * fullScale.Watts()
	if i <= 0 {
		return 0
	}
	return math.Log2(i / (2 * sigma))
}

// TIA is a transimpedance amplifier. In hardware the control unit also
// programs each row's gain to the stored derivative f'(h) during the
// gradient-vector pass, so that the electrical output is (Wᵀδ)⊙f'(h) —
// equation (3) executed in the analog domain. The functional core applies
// that gate from the latched LDSU derivatives (internal/core), so this
// model carries the fixed transimpedance only.
type TIA struct {
	GainOhms float64 // transimpedance, V/A
}

// NewTIA returns a TIA with the given transimpedance.
func NewTIA(gainOhms float64) (*TIA, error) {
	if gainOhms <= 0 {
		return nil, fmt.Errorf("analog: TIA gain %v must be positive", gainOhms)
	}
	return &TIA{GainOhms: gainOhms}, nil
}

// Amplify converts a photocurrent to a voltage: V = I·gain.
func (t *TIA) Amplify(current float64) float64 {
	return current * t.GainOhms
}

// ADC models the analog-to-digital converter baseline photonic accelerators
// place after every PE row. Its figures follow the 8-bit GHz-class SAR
// designs in the survey literature the paper's references rely on; the
// paper's point is that this device dominates power and Trident removes it.
type ADC struct {
	Bits       int
	SampleRate units.Frequency
	// Power is the conversion power draw. ≈15 mW for 8-bit at the symbol
	// clock — on par with an entire Trident PE row's BPD+TIA budget.
	Power units.Power
}

// NewADC returns an 8-bit converter at the architecture clock.
func NewADC() *ADC {
	return &ADC{Bits: 8, SampleRate: units.Frequency(device.ClockRate), Power: 14.8 * units.Milliwatt}
}

// Convert quantizes a normalized analog value in [-1, 1] to its code grid.
func (a *ADC) Convert(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		v = 1
	}
	if v < -1 {
		v = -1
	}
	// 2^bits − 1 codes span [-1, 1] symmetrically, so zero is a code.
	steps := float64(int(1)<<a.Bits - 2)
	return math.Round((v+1)/2*steps)/steps*2 - 1
}

// EnergyPerConversion returns the energy of one sample.
func (a *ADC) EnergyPerConversion() units.Energy {
	return a.Power.OverTime(a.SampleRate.Period())
}

// DAC models the digital-to-analog converter that drives input modulators.
type DAC struct {
	Bits       int
	SampleRate units.Frequency
	Power      units.Power
}

// NewDAC returns an 8-bit DAC at the architecture clock.
func NewDAC() *DAC {
	return &DAC{Bits: 8, SampleRate: units.Frequency(device.ClockRate), Power: 6.0 * units.Milliwatt}
}

// EnergyPerConversion returns the energy of one sample.
func (d *DAC) EnergyPerConversion() units.Energy {
	return d.Power.OverTime(d.SampleRate.Period())
}
