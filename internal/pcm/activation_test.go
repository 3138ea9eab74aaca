package pcm

import (
	"math"
	"testing"
	"testing/quick"

	"trident/internal/device"
	"trident/internal/units"
)

func TestActivationDefaults(t *testing.T) {
	a, err := NewActivationCell(ActivationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Threshold() != device.ActivationThresholdEnergy {
		t.Errorf("threshold = %v, want %v", a.Threshold(), device.ActivationThresholdEnergy)
	}
}

func TestActivationValidation(t *testing.T) {
	bad := []ActivationConfig{
		{Threshold: -1 * units.Picojoule},
		{Slope: -0.1},
		{MaxOutput: -1},
	}
	for i, cfg := range bad {
		if _, err := NewActivationCell(cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

// TestFigure3Shape checks the published transfer function: dead below the
// 430 pJ threshold, slope 0.34 above it.
func TestFigure3Shape(t *testing.T) {
	a, _ := NewActivationCell(ActivationConfig{})
	if got := a.Apply(200 * units.Picojoule); got != 0 {
		t.Errorf("below-threshold output = %v, want 0", got)
	}
	if got := a.Apply(429 * units.Picojoule); got != 0 {
		t.Errorf("just-below-threshold output = %v, want 0", got)
	}
	// At exactly 2× threshold, output = slope × (2−1) = 0.34.
	if got := a.Apply(2 * device.ActivationThresholdEnergy); math.Abs(got-0.34) > 1e-12 {
		t.Errorf("output at 2×threshold = %v, want 0.34", got)
	}
	// Saturation.
	if got := a.Apply(100 * device.ActivationThresholdEnergy); got != 1.0 {
		t.Errorf("saturated output = %v, want 1.0", got)
	}
	if got := a.Apply(units.Energy(math.NaN())); got != 0 {
		t.Errorf("NaN pulse output = %v, want 0", got)
	}
}

func TestActivationDerivativeTwoValued(t *testing.T) {
	a, _ := NewActivationCell(ActivationConfig{})
	if got := a.Derivative(0.5); got != device.ActivationDerivativeLow {
		t.Errorf("f'(0.5) = %v, want 0", got)
	}
	if got := a.Derivative(1.5); got != device.ActivationDerivativeHigh {
		t.Errorf("f'(1.5) = %v, want 0.34", got)
	}
	if got := a.Derivative(math.NaN()); got != 0 {
		t.Errorf("f'(NaN) = %v, want 0", got)
	}
	// Deep in saturation the derivative vanishes.
	if got := a.Derivative(100); got != 0 {
		t.Errorf("f' in saturation = %v, want 0", got)
	}
}

// Property: ApplyNormalized agrees with Apply at the corresponding pulse
// energy, and the derivative matches a finite difference away from the kink.
func TestQuickActivationConsistent(t *testing.T) {
	a, _ := NewActivationCell(ActivationConfig{})
	f := func(raw float64) bool {
		h := math.Mod(math.Abs(raw), 4)
		fromPulse := a.Apply(units.Energy(h) * a.Threshold())
		fromNorm := a.ApplyNormalized(h)
		return math.Abs(fromPulse-fromNorm) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	for _, h := range []float64{0.3, 0.7, 1.2, 1.8, 2.5} {
		fd := (a.ApplyNormalized(h+eps) - a.ApplyNormalized(h-eps)) / (2 * eps)
		if math.Abs(fd-a.Derivative(h)) > 1e-4 {
			t.Errorf("finite-difference f'(%v) = %v, Derivative = %v", h, fd, a.Derivative(h))
		}
	}
}

func TestActivationResetAccounting(t *testing.T) {
	a, _ := NewActivationCell(ActivationConfig{})
	// Reset before any firing is free.
	if e := a.Reset(); e != 0 {
		t.Errorf("reset of unfired cell = %v, want 0", e)
	}
	a.Apply(2 * device.ActivationThresholdEnergy)
	if a.Fires() != 1 {
		t.Fatalf("fires = %d, want 1", a.Fires())
	}
	e := a.Reset()
	if e <= 0 {
		t.Errorf("reset energy = %v, want positive", e)
	}
	if a.Resets() != 1 {
		t.Errorf("resets = %d, want 1", a.Resets())
	}
	// Double reset does nothing.
	if e2 := a.Reset(); e2 != 0 {
		t.Errorf("second reset = %v, want 0", e2)
	}
	// Below-threshold events do not fire and need no reset.
	a.Apply(100 * units.Picojoule)
	if a.Fires() != 1 {
		t.Errorf("below-threshold pulse fired the cell")
	}
	if a.EnergyConsumed() != e {
		t.Errorf("energy = %v, want %v", a.EnergyConsumed(), e)
	}
}

func TestActivationEndurance(t *testing.T) {
	a, _ := NewActivationCell(ActivationConfig{})
	if a.RemainingEndurance() != 1 {
		t.Errorf("fresh endurance = %v, want 1", a.RemainingEndurance())
	}
	a.Apply(2 * device.ActivationThresholdEnergy)
	a.Reset()
	if got := a.RemainingEndurance(); got >= 1 || got <= 0 {
		t.Errorf("endurance after one cycle = %v, want in (0,1)", got)
	}
}

func TestActivationCurve(t *testing.T) {
	a, _ := NewActivationCell(ActivationConfig{})
	xs, ys := a.Curve(101, 4)
	if len(xs) != 101 || len(ys) != 101 {
		t.Fatalf("curve lengths %d/%d, want 101", len(xs), len(ys))
	}
	if xs[0] != 0 || math.Abs(xs[100]-4) > 1e-12 {
		t.Errorf("x range [%v,%v], want [0,4]", xs[0], xs[100])
	}
	// Curve must be flat zero below threshold, non-decreasing overall, and
	// must not consume endurance.
	for i, x := range xs {
		if x < 1 && ys[i] != 0 {
			t.Errorf("curve(%v) = %v below threshold, want 0", x, ys[i])
		}
		if i > 0 && ys[i] < ys[i-1] {
			t.Errorf("curve decreasing at %v", x)
		}
	}
	if a.Fires() != 0 {
		t.Error("Curve must not consume endurance")
	}
	// Degenerate n is clamped.
	xs, _ = a.Curve(1, 4)
	if len(xs) != 2 {
		t.Errorf("Curve(1) length = %d, want clamp to 2", len(xs))
	}
}

func TestLDSULatchAndDerivative(t *testing.T) {
	l := NewLDSU()
	if l.Valid() {
		t.Error("fresh LDSU must not be valid")
	}
	if got := l.Derivative(); got != device.ActivationDerivativeLow {
		t.Errorf("unlatched derivative = %v, want low", got)
	}
	l.Latch(1.5)
	if !l.Valid() || !l.Bit() {
		t.Error("latch above threshold: want valid high bit")
	}
	if got := l.Derivative(); got != device.ActivationDerivativeHigh {
		t.Errorf("derivative = %v, want 0.34", got)
	}
	l.Latch(0.5)
	if l.Bit() {
		t.Error("latch below threshold: want low bit")
	}
	if l.EnergyConsumed() <= 0 {
		t.Error("latching must consume energy")
	}
	l.Clear()
	if l.Valid() || l.Bit() {
		t.Error("Clear must reset state")
	}
}

func TestLDSUBank(t *testing.T) {
	b := NewLDSUBank(4)
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	b.Latch([]float64{2, 0.5, 1.0, 3}) // h≥1 latches high
	d := b.Derivatives(nil)
	want := []float64{0.34, 0, 0.34, 0.34}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Errorf("derivative[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	// Short latch vector clears the tail.
	b.Latch([]float64{2})
	d = b.Derivatives(d)
	if d[0] != 0.34 || d[1] != 0 || d[3] != 0 {
		t.Errorf("partial latch derivatives = %v", d)
	}
	if b.EnergyConsumed() <= 0 {
		t.Error("bank energy must accumulate")
	}
}

// Property: the LDSU agrees with the activation cell's derivative for all
// unsaturated pre-activations — the bit it stores is exactly the information
// the backward pass needs.
func TestQuickLDSUMatchesActivation(t *testing.T) {
	a, _ := NewActivationCell(ActivationConfig{MaxOutput: 1e12}) // no saturation
	l := NewLDSU()
	f := func(raw float64) bool {
		h := math.Mod(math.Abs(raw), 10)
		l.Latch(h)
		return l.Derivative() == a.Derivative(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
