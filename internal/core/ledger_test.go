package core

import (
	"math"
	"strings"
	"testing"

	"trident/internal/units"
)

func TestLedgerAccumulates(t *testing.T) {
	l := NewLedger()
	l.Add(CatGSTTuning, 660*units.Picojoule)
	l.Add(CatGSTTuning, 660*units.Picojoule)
	l.Add(CatLDSU, 10*units.Picojoule)
	if got := l.Energy(CatGSTTuning).Picojoules(); math.Abs(got-1320) > 1e-9 {
		t.Errorf("tuning energy = %vpJ, want 1320", got)
	}
	if got := l.TotalEnergy().Picojoules(); math.Abs(got-1330) > 1e-9 {
		t.Errorf("total = %vpJ, want 1330", got)
	}
	l.Advance(300 * units.Nanosecond)
	l.Advance(300 * units.Nanosecond)
	if got := l.Elapsed().Nanoseconds(); math.Abs(got-600) > 1e-9 {
		t.Errorf("elapsed = %vns, want 600", got)
	}
	if p := l.AveragePower(); p <= 0 {
		t.Errorf("average power = %v, want positive", p)
	}
}

func TestLedgerMerge(t *testing.T) {
	a, b := NewLedger(), NewLedger()
	a.Add(CatCache, 1*units.Nanojoule)
	b.Add(CatCache, 2*units.Nanojoule)
	b.Add(CatEOLaser, 1*units.Picojoule)
	b.Advance(1 * units.Microsecond)
	a.Merge(b)
	if got := a.Energy(CatCache).Joules(); math.Abs(got-3e-9) > 1e-18 {
		t.Errorf("merged cache energy = %v", got)
	}
	if a.Energy(CatEOLaser) == 0 {
		t.Error("merge must carry new categories")
	}
	// Merge is energy-only: parallel PEs do not sum wall time.
	if a.Elapsed() != 0 {
		t.Errorf("merge must not add elapsed time, got %v", a.Elapsed())
	}
}

func TestLedgerPanics(t *testing.T) {
	l := NewLedger()
	for name, fn := range map[string]func(){
		"negative energy":  func() { l.Add(CatCache, -1) },
		"negative time":    func() { l.Advance(-1) },
		"unknown category": func() { l.Add(EnergyCategory("thermal"), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

// allCategories is every ledger category in declaration order.
var allCategories = []EnergyCategory{
	CatGSTTuning, CatGSTRead, CatActivationReset, CatBPDTIA, CatLDSU,
	CatEOLaser, CatCache, CatResidualJoin, CatWavelengthMerge,
}

// TestLedgerTotalFixedOrder: with all nine categories booked at magnitudes
// whose sum depends on association, TotalEnergy returns the same bits on
// every call, equal to the sum taken in declaration order.
func TestLedgerTotalFixedOrder(t *testing.T) {
	l := NewLedger()
	for i, cat := range allCategories {
		l.Add(cat, units.Energy(math.Pow(10, float64(i%4)*-5)*(1+float64(i)/7)))
	}
	var want units.Energy
	for _, cat := range allCategories {
		want += l.Energy(cat)
	}
	for i := 0; i < 1000; i++ {
		if got := l.TotalEnergy(); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("call %d: TotalEnergy %v, want declaration-order sum %v", i, got, want)
		}
	}
}

// TestLedgerBreakdownBookedOnly: Breakdown lists exactly the categories
// booked so far — including one booked with zero energy — and Merge carries
// the other ledger's booked set.
func TestLedgerBreakdownBookedOnly(t *testing.T) {
	l := NewLedger()
	if got := l.Breakdown(); len(got) != 0 {
		t.Fatalf("empty ledger breakdown %v", got)
	}
	l.Add(CatLDSU, 2*units.Picojoule)
	l.Add(CatResidualJoin, 0)
	o := NewLedger()
	o.Add(CatWavelengthMerge, 1*units.Picojoule)
	l.Merge(o)
	got := l.Breakdown()
	want := map[EnergyCategory]units.Energy{
		CatLDSU: 2 * units.Picojoule, CatResidualJoin: 0, CatWavelengthMerge: 1 * units.Picojoule,
	}
	if len(got) != len(want) {
		t.Fatalf("breakdown %v, want %v", got, want)
	}
	for cat, e := range want {
		if g, ok := got[cat]; !ok || g != e {
			t.Errorf("breakdown[%s] = %v (present %v), want %v", cat, g, ok, e)
		}
	}
	if s := l.String(); strings.Contains(s, "gst-tuning") || !strings.Contains(s, "residual-join") {
		t.Errorf("String() = %q, want only booked categories", s)
	}
	l.Reset()
	if got := l.Breakdown(); len(got) != 0 {
		t.Errorf("breakdown after Reset %v", got)
	}
}

func TestLedgerReset(t *testing.T) {
	l := NewLedger()
	l.Add(CatCache, 1)
	l.Advance(1)
	l.Reset()
	if l.TotalEnergy() != 0 || l.Elapsed() != 0 {
		t.Error("Reset must clear everything")
	}
}

func TestLedgerString(t *testing.T) {
	l := NewLedger()
	l.Add(CatGSTTuning, 660*units.Picojoule)
	l.Advance(300 * units.Nanosecond)
	s := l.String()
	if !strings.Contains(s, "gst-tuning") || !strings.Contains(s, "660pJ") {
		t.Errorf("String() = %q, missing category breakdown", s)
	}
}

func TestAveragePowerZeroTime(t *testing.T) {
	l := NewLedger()
	l.Add(CatCache, 1*units.Nanojoule)
	if got := l.AveragePower(); got != 0 {
		t.Errorf("power with no elapsed time = %v, want 0", got)
	}
}
