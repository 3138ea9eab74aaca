package mrr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trident/internal/device"
	"trident/internal/optics"
	"trident/internal/units"
)

func testPlan(t *testing.T, n int) *optics.ChannelPlan {
	t.Helper()
	p, err := optics.DefaultChannelPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewWeightBankValidation(t *testing.T) {
	p := testPlan(t, 4)
	if _, err := NewPCMWeightBank(0, 4, p); err == nil {
		t.Error("zero rows: want error")
	}
	if _, err := NewPCMWeightBank(4, 0, p); err == nil {
		t.Error("zero cols: want error")
	}
	if _, err := NewPCMWeightBank(4, 8, p); err == nil {
		t.Error("more cols than channels: want error")
	}
}

func TestProgramAndMVM(t *testing.T) {
	p := testPlan(t, 4)
	b, err := NewPCMWeightBank(3, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	w := [][]float64{
		{0.5, -0.5, 0.25, 0},
		{1, 1, 1, 1},
		{-1, 0, 0, 1},
	}
	res, err := b.Program(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// All writes proceed in parallel: elapsed is one write time.
	if res.Elapsed != device.GSTWriteTime {
		t.Errorf("elapsed = %v, want %v (parallel programming)", res.Elapsed, device.GSTWriteTime)
	}
	// Fresh cells sit at -1; every cell except the (2,0) -1 entry changes.
	if res.CellsWritten != 11 {
		t.Errorf("cells written = %d, want 11", res.CellsWritten)
	}
	wantE := units.Energy(11) * device.GSTWriteEnergy
	if math.Abs(res.Energy.Joules()-wantE.Joules()) > 1e-18 {
		t.Errorf("program energy = %v, want %v", res.Energy, wantE)
	}

	x := []float64{1, 0.5, 0.25, 0.125}
	y := b.MVMBatchInto(nil, x, 1, len(x))
	want := make([]float64, 3)
	for j := range w {
		for n := range x {
			want[j] += b.Weight(j, n) * x[n]
		}
	}
	for j := range want {
		// Crosstalk perturbs each row by at most a few 1e-3 of full scale.
		if math.Abs(y[j]-want[j]) > 5e-3 {
			t.Errorf("y[%d] = %v, want ≈%v", j, y[j], want[j])
		}
	}
}

func TestProgramDimensionErrors(t *testing.T) {
	p := testPlan(t, 2)
	b, _ := NewPCMWeightBank(2, 2, p)
	if _, err := b.Program([][]float64{{0}, {0}, {0}}, 0); err == nil {
		t.Error("too many rows: want error")
	}
	if _, err := b.Program([][]float64{{0, 0, 0}}, 0); err == nil {
		t.Error("too many cols: want error")
	}
}

func TestMVMCrosstalkSmallButPresent(t *testing.T) {
	p := testPlan(t, 8)
	b, _ := NewPCMWeightBank(1, 8, p)
	w := [][]float64{{0, 1, 1, 1, 1, 1, 1, 1}}
	if _, err := b.Program(w, 0); err != nil {
		t.Fatal(err)
	}
	// Input only on channel 0, whose own weight is 0: any output is pure
	// crosstalk through the neighbouring rings.
	x := []float64{1, 0, 0, 0, 0, 0, 0, 0}
	y := b.MVMBatchInto(nil, x, 1, len(x))
	ideal := b.IdealMVM(nil, x)
	if ideal[0] != 0 {
		t.Fatalf("ideal output = %v, want 0", ideal[0])
	}
	if y[0] <= 0 {
		t.Error("crosstalk term should be positive with all-positive neighbour weights")
	}
	if y[0] > 1e-3 {
		t.Errorf("crosstalk %v too large for a 1.6nm plan", y[0])
	}
}

func TestWorstCrosstalk(t *testing.T) {
	p := testPlan(t, 16)
	b, _ := NewPCMWeightBank(1, 16, p)
	if db := b.WorstCrosstalk(); db > -30 {
		t.Errorf("worst crosstalk = %.1f dB, want < -30 dB", db)
	}
}

func TestHoldPowerByTuningMethod(t *testing.T) {
	p := testPlan(t, 16)
	pcmBank, _ := NewPCMWeightBank(16, 16, p)
	thBank, _ := NewThermalWeightBank(16, 16, p)
	if got := pcmBank.HoldPower(); got != 0 {
		t.Errorf("PCM bank hold power = %v, want 0", got)
	}
	// 256 rings × 1.7 mW = 435.2 mW.
	if got := thBank.HoldPower().Milliwatts(); math.Abs(got-435.2) > 1e-9 {
		t.Errorf("thermal bank hold power = %vmW, want 435.2", got)
	}
}

func TestQuantizationError(t *testing.T) {
	p := testPlan(t, 4)
	pcmBank, _ := NewPCMWeightBank(2, 4, p)
	thBank, _ := NewThermalWeightBank(2, 4, p)
	w := [][]float64{{0.1234, -0.777, 3.0, 0}, {0.5, 0.5, 0.5, 0.5}}
	e8 := pcmBank.QuantizationError(w)
	e6 := thBank.QuantizationError(w)
	if e8 > 1.0/254+1e-12 {
		t.Errorf("8-bit worst error = %v, want ≤ half-step", e8)
	}
	if e6 <= e8 {
		t.Errorf("6-bit error %v should exceed 8-bit error %v", e6, e8)
	}
}

// Property: for random weight matrices and inputs, the bank MVM matches the
// exact product of its realized weights to within the crosstalk budget.
func TestQuickMVMMatchesRealizedWeights(t *testing.T) {
	p := testPlan(t, 8)
	b, err := NewPCMWeightBank(4, 8, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := make([][]float64, 4)
		for j := range w {
			w[j] = make([]float64, 8)
			for n := range w[j] {
				w[j][n] = r.Float64()*2 - 1
			}
		}
		if _, err := b.Program(w, 0); err != nil {
			return false
		}
		x := make([]float64, 8)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		y := b.MVMBatchInto(nil, x, 1, len(x))
		ideal := b.IdealMVM(nil, x)
		for j := range y {
			if math.Abs(y[j]-ideal[j]) > 8*8*2e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMVMReusesDst(t *testing.T) {
	p := testPlan(t, 2)
	b, _ := NewPCMWeightBank(2, 2, p)
	dst := make([]float64, 2)
	got := b.MVMBatchInto(dst, []float64{1, 1}, 1, 2)
	if &got[0] != &dst[0] {
		t.Error("MVM must reuse a sufficiently large dst")
	}
	// Short input vectors only engage the leading columns.
	y := b.MVMBatchInto(nil, []float64{1}, 1, 1)
	if len(y) != 2 {
		t.Errorf("output length = %d, want bank rows 2", len(y))
	}
}

func TestProgrammingEnergyAccumulates(t *testing.T) {
	p := testPlan(t, 2)
	b, _ := NewPCMWeightBank(1, 2, p)
	if _, err := b.Program([][]float64{{0.5, 0.5}}, 0); err != nil {
		t.Fatal(err)
	}
	first := b.ProgrammingEnergy()
	if _, err := b.Program([][]float64{{-0.5, -0.5}}, 0); err != nil {
		t.Fatal(err)
	}
	if b.ProgrammingEnergy() <= first {
		t.Error("reprogramming must accumulate energy")
	}
}
