package mrr

import (
	"fmt"
	"math"

	"trident/internal/device"
	"trident/internal/fixed"
	"trident/internal/pcm"
	"trident/internal/units"
)

// Tuner is the mechanism that programs one MRR to realize a weight
// w ∈ [-1, 1]. The three implementations correspond to the rows of Table I.
// A tuner quantizes the requested weight to its achievable resolution,
// accounts the programming energy and latency, and reports the continuous
// hold power its mechanism draws while the weight is held (zero for
// non-volatile GST, the full heater power for thermal tuning).
type Tuner interface {
	// Method names the tuning mechanism ("thermal", "electro", "gst").
	Method() string
	// Bits is the usable weight resolution.
	Bits() int
	// Volatile reports whether the weight vanishes when power is removed.
	Volatile() bool
	// Set programs the weight, returning the actually realized (quantized)
	// value and the completion time given the write was issued at now.
	Set(w float64, now units.Duration) (actual float64, done units.Duration, err error)
	// Weight returns the currently programmed weight.
	Weight() float64
	// ProgramTime is the latency of one programming event.
	ProgramTime() units.Duration
	// ProgramEnergy is the energy of one programming event.
	ProgramEnergy() units.Energy
	// HoldPower is the continuous power drawn while holding the weight.
	HoldPower() units.Power
	// EnergyConsumed is the cumulative programming energy so far.
	EnergyConsumed() units.Energy
	// Writes is the number of programming events so far.
	Writes() uint64
}

// ThermalTuner tunes by micro-heater: 1.02 nJ and 0.6 µs per event, with a
// continuous 1.7 mW hold power because the thermo-optic shift is volatile.
// Inter-channel thermal crosstalk limits the resolution to 6 bits, which is
// the paper's reason thermally tuned accelerators cannot train.
type ThermalTuner struct {
	quant  *fixed.Quantizer
	weight float64
	writes uint64
	energy units.Energy
}

// NewThermalTuner returns a thermal tuner at the crosstalk-limited 6-bit
// resolution.
func NewThermalTuner() *ThermalTuner {
	return &ThermalTuner{quant: fixed.MustForBits(device.ThermalBits)}
}

// Method implements Tuner.
func (t *ThermalTuner) Method() string { return "thermal" }

// Bits implements Tuner.
func (t *ThermalTuner) Bits() int { return device.ThermalBits }

// Volatile implements Tuner.
func (t *ThermalTuner) Volatile() bool { return true }

// Set implements Tuner.
func (t *ThermalTuner) Set(w float64, now units.Duration) (float64, units.Duration, error) {
	q := t.quant.Quantize(w)
	if q == t.weight {
		return q, now, nil
	}
	t.weight = q
	t.writes++
	t.energy += device.ThermalTuningEnergy
	return q, now + device.ThermalTuningTime, nil
}

// Weight implements Tuner.
func (t *ThermalTuner) Weight() float64 { return t.weight }

// ProgramTime implements Tuner.
func (t *ThermalTuner) ProgramTime() units.Duration { return device.ThermalTuningTime }

// ProgramEnergy implements Tuner.
func (t *ThermalTuner) ProgramEnergy() units.Energy { return device.ThermalTuningEnergy }

// HoldPower implements Tuner.
func (t *ThermalTuner) HoldPower() units.Power { return device.ThermalHoldPower }

// EnergyConsumed implements Tuner.
func (t *ThermalTuner) EnergyConsumed() units.Energy { return t.energy }

// Writes implements Tuner.
func (t *ThermalTuner) Writes() uint64 { return t.writes }

// ElectroTuner tunes by the electro-optic effect. The shift is only
// 0.18 pm/V, so realizing a weight requires detuning the ring by a fraction
// of its linewidth with DC voltages that quickly exceed the ±100 V
// practical limit — the quantitative version of the paper's "not considered
// in this work". Set returns ErrVoltageRange when the required voltage is
// out of range.
type ElectroTuner struct {
	ring   *Ring
	quant  *fixed.Quantizer
	weight float64
	writes uint64
	energy units.Energy
}

// ErrVoltageRange reports an electro-optic weight that needs more than the
// ±100 V the paper allows.
var ErrVoltageRange = fmt.Errorf("mrr: electro-optic tuning exceeds ±%.0fV", device.ElectroMaxVoltage)

// NewElectroTuner returns an electro-optic tuner acting on ring.
func NewElectroTuner(ring *Ring) *ElectroTuner {
	return &ElectroTuner{ring: ring, quant: fixed.MustForBits(device.ThermalBits)}
}

// Method implements Tuner.
func (t *ElectroTuner) Method() string { return "electro" }

// Bits implements Tuner.
func (t *ElectroTuner) Bits() int { return device.ThermalBits }

// Volatile implements Tuner.
func (t *ElectroTuner) Volatile() bool { return true }

// VoltageFor returns the DC voltage needed to realize weight w: the ring
// must be detuned by |w| of half a linewidth to modulate the drop
// transmission across its range.
func (t *ElectroTuner) VoltageFor(w float64) float64 {
	shift := t.ring.FWHM().Meters() / 2 * math.Abs(w)
	perVolt := device.ElectroTuningShift.Meters()
	return shift / perVolt
}

// Set implements Tuner.
func (t *ElectroTuner) Set(w float64, now units.Duration) (float64, units.Duration, error) {
	q := t.quant.Quantize(w)
	if v := t.VoltageFor(q); v > device.ElectroMaxVoltage {
		return t.weight, now, fmt.Errorf("%w (needs %.0fV for w=%.3f)", ErrVoltageRange, v, q)
	}
	if q == t.weight {
		return q, now, nil
	}
	t.weight = q
	t.writes++
	// Electro-optic switching energy ≈ CV²; with ring capacitance ~10 fF
	// and the required voltage this is tiny, but the DC bias network draws
	// hold power comparable to thermal designs. We charge the capacitor
	// energy per event.
	const ringCapacitance = 10e-15 // farads
	v := t.VoltageFor(q)
	t.energy += units.Energy(0.5 * ringCapacitance * v * v)
	return q, now + device.ElectroTuningTime, nil
}

// Weight implements Tuner.
func (t *ElectroTuner) Weight() float64 { return t.weight }

// ProgramTime implements Tuner.
func (t *ElectroTuner) ProgramTime() units.Duration { return device.ElectroTuningTime }

// ProgramEnergy implements Tuner.
func (t *ElectroTuner) ProgramEnergy() units.Energy {
	const ringCapacitance = 10e-15
	v := device.ElectroMaxVoltage
	return units.Energy(0.5 * ringCapacitance * v * v)
}

// HoldPower implements Tuner. The DC bias leakage is small; the dominant
// cost of electro-optic tuning is the impractical voltage, not power.
func (t *ElectroTuner) HoldPower() units.Power { return 0.1 * units.Milliwatt }

// EnergyConsumed implements Tuner.
func (t *ElectroTuner) EnergyConsumed() units.Energy { return t.energy }

// Writes implements Tuner.
func (t *ElectroTuner) Writes() uint64 { return t.writes }

// PCMTuner realizes the paper's contribution: a GST cell on the ring
// waveguide attenuates the dropped signal. 255 material states give 8-bit
// weights, programming costs 660 pJ over 300 ns, and the state is
// non-volatile, so the hold power is zero — the root of the 83.34% power
// reduction after tuning.
type PCMTuner struct {
	cell   *pcm.Cell
	quant  *fixed.Quantizer
	weight float64
}

// NewPCMTuner returns a GST tuner with a fresh (fully crystalline) cell,
// corresponding to weight −1.
func NewPCMTuner() (*PCMTuner, error) {
	cell, err := pcm.NewCell(pcm.CellConfig{})
	if err != nil {
		return nil, err
	}
	return &PCMTuner{
		cell:   cell,
		quant:  fixed.MustForBits(device.GSTBits),
		weight: -1,
	}, nil
}

// Method implements Tuner.
func (t *PCMTuner) Method() string { return "gst" }

// Bits implements Tuner.
func (t *PCMTuner) Bits() int { return device.GSTBits }

// Volatile implements Tuner.
func (t *PCMTuner) Volatile() bool { return false }

// Cell exposes the underlying GST cell for endurance inspection.
func (t *PCMTuner) Cell() *pcm.Cell { return t.cell }

// Set implements Tuner. The quantized weight maps linearly onto the cell's
// level grid: level 0 (crystalline, absorbing) is −1, the top level
// (amorphous, transmitting) is +1 — "amorphous state ... representing a
// large weight" per Section III-B.
func (t *PCMTuner) Set(w float64, now units.Duration) (float64, units.Duration, error) {
	idx := t.quant.Index(w)
	q := t.quant.Value(idx)
	done, err := t.cell.Program(idx, now)
	if err != nil {
		return t.weight, now, err
	}
	t.weight = q
	return q, done, nil
}

// Weight implements Tuner.
func (t *PCMTuner) Weight() float64 { return t.weight }

// holds reports whether w quantizes to the cell's current level, the case
// in which Set issues no pulse and changes nothing (the weight is always
// the value of the cell's level).
func (t *PCMTuner) holds(w float64) bool { return t.quant.Index(w) == t.cell.Level() }

// DriftedWeight returns the weight the ring realizes after the GST state has
// been held for the given duration: amorphous-phase structural relaxation
// shrinks the cell's transmission (pcm.TransmissionAfter), which reads as a
// smaller weight. The drift is expressed in level units via the cell's drift
// law and mapped onto the linear weight grid, clamped to [-1, 1].
func (t *PCMTuner) DriftedWeight(hold units.Duration) float64 {
	levelErr := t.cell.DriftLevelError(hold)
	if levelErr == 0 {
		return t.weight
	}
	step := 2.0 / float64(t.cell.Levels()-1)
	return clampWeight(t.weight - levelErr*step)
}

// Refresh re-issues a write pulse at the currently programmed level,
// restoring a drifted amorphous state to its nominal transmission. The pulse
// consumes one endurance cycle and the full write energy even though the
// target level is unchanged — refreshing is not free, which is why the
// remediation scheduler only refreshes out-of-tolerance cells.
func (t *PCMTuner) Refresh(now units.Duration) (done units.Duration, err error) {
	return t.cell.Rewrite(now)
}

// ProgramTime implements Tuner.
func (t *PCMTuner) ProgramTime() units.Duration { return device.GSTWriteTime }

// ProgramEnergy implements Tuner.
func (t *PCMTuner) ProgramEnergy() units.Energy { return device.GSTWriteEnergy }

// HoldPower implements Tuner: GST is non-volatile.
func (t *PCMTuner) HoldPower() units.Power { return 0 }

// EnergyConsumed implements Tuner.
func (t *PCMTuner) EnergyConsumed() units.Energy { return t.cell.EnergyConsumed() }

// Writes implements Tuner.
func (t *PCMTuner) Writes() uint64 { return t.cell.Writes() }

// IdealTuner realizes weights exactly (no quantization grid, no programming
// time, no energy, no endurance): the noiseless mathematical device used to
// pin the hardware-functional stack against the digital reference. It still
// clamps to the physical weight range [-1, 1] and still counts writes with
// the same compare-first idiom as the physical tuners, because the bank's
// realized-weight bookkeeping keys on write-count movement.
type IdealTuner struct {
	weight float64
	writes uint64
}

// NewIdealTuner returns an ideal tuner at weight 0.
func NewIdealTuner() *IdealTuner { return &IdealTuner{} }

// Method implements Tuner.
func (t *IdealTuner) Method() string { return "ideal" }

// Bits implements Tuner: the continuum, reported as the float64 mantissa.
func (t *IdealTuner) Bits() int { return 53 }

// Volatile implements Tuner.
func (t *IdealTuner) Volatile() bool { return false }

// Set implements Tuner.
func (t *IdealTuner) Set(w float64, now units.Duration) (float64, units.Duration, error) {
	q := clampWeight(w)
	if q == t.weight {
		return q, now, nil
	}
	t.weight = q
	t.writes++
	return q, now, nil
}

// Weight implements Tuner.
func (t *IdealTuner) Weight() float64 { return t.weight }

// ProgramTime implements Tuner.
func (t *IdealTuner) ProgramTime() units.Duration { return 0 }

// ProgramEnergy implements Tuner.
func (t *IdealTuner) ProgramEnergy() units.Energy { return 0 }

// HoldPower implements Tuner.
func (t *IdealTuner) HoldPower() units.Power { return 0 }

// EnergyConsumed implements Tuner.
func (t *IdealTuner) EnergyConsumed() units.Energy { return 0 }

// Writes implements Tuner.
func (t *IdealTuner) Writes() uint64 { return t.writes }

// Compile-time interface checks.
var (
	_ Tuner = (*ThermalTuner)(nil)
	_ Tuner = (*ElectroTuner)(nil)
	_ Tuner = (*PCMTuner)(nil)
	_ Tuner = (*IdealTuner)(nil)
)
