package pcm

import (
	"trident/internal/device"
	"trident/internal/units"
)

// LDSU is the Linear Derivative Storage Unit of Fig. 2d: an analog voltage
// comparator followed by a D-flip-flop. During the forward pass the
// comparator tests each pre-activation h against the activation threshold
// and the flip-flop latches the one-bit result; during the backward pass the
// stored bit programs the TIA gain to f'(h) — 0.34 above threshold, 0 below
// — so the Hadamard product of equation (3) happens without any memory
// fetch.
type LDSU struct {
	latched bool
	valid   bool
	energy  units.Energy
}

// NewLDSU returns an LDSU with no latched value.
func NewLDSU() *LDSU { return &LDSU{} }

// Latch runs the comparator on a normalized pre-activation h (threshold at
// h = 1, matching ActivationCell.ApplyNormalized) and stores the result in
// the flip-flop. Each latch event costs the LDSU power over one clock cycle.
func (l *LDSU) Latch(h float64) {
	l.latched = h >= 1
	l.valid = true
	l.energy += device.PowerLDSU.OverTime(device.ClockRate.Period())
}

// Valid reports whether a derivative has been latched since the last Clear.
func (l *LDSU) Valid() bool { return l.valid }

// Bit returns the raw flip-flop state.
func (l *LDSU) Bit() bool { return l.latched }

// Derivative returns the stored f'(h): ActivationDerivativeHigh when the
// forward pass exceeded the threshold, ActivationDerivativeLow otherwise.
// Reading an unlatched LDSU returns the low derivative — the hardware
// power-on state — so a backward pass without a forward pass produces zero
// gradient rather than garbage.
func (l *LDSU) Derivative() float64 {
	if l.latched {
		return device.ActivationDerivativeHigh
	}
	return device.ActivationDerivativeLow
}

// Clear resets the flip-flop between training samples.
func (l *LDSU) Clear() {
	l.latched = false
	l.valid = false
}

// EnergyConsumed returns the cumulative latch energy.
func (l *LDSU) EnergyConsumed() units.Energy { return l.energy }

// LDSUBank is the row of LDSUs in one PE: one per output row, latched in
// parallel with the optical activation.
type LDSUBank struct {
	units []LDSU
}

// NewLDSUBank returns a bank of n LDSUs.
func NewLDSUBank(n int) *LDSUBank { return &LDSUBank{units: make([]LDSU, n)} }

// Len returns the number of LDSUs in the bank.
func (b *LDSUBank) Len() int { return len(b.units) }

// Latch stores the comparator results for a vector of pre-activations.
// Extra LDSUs beyond len(h) are cleared.
func (b *LDSUBank) Latch(h []float64) {
	for i := range b.units {
		if i < len(h) {
			b.units[i].Latch(h[i])
		} else {
			b.units[i].Clear()
		}
	}
}

// Derivatives writes the stored f'(h) vector into dst and returns it,
// allocating if dst is nil or too short.
func (b *LDSUBank) Derivatives(dst []float64) []float64 {
	if cap(dst) < len(b.units) {
		dst = make([]float64, len(b.units))
	}
	dst = dst[:len(b.units)]
	for i := range b.units {
		dst[i] = b.units[i].Derivative()
	}
	return dst
}

// EnergyConsumed returns the total latch energy across the bank.
func (b *LDSUBank) EnergyConsumed() units.Energy {
	var e units.Energy
	for i := range b.units {
		e += b.units[i].EnergyConsumed()
	}
	return e
}
