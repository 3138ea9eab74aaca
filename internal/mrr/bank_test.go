package mrr

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"trident/internal/device"
	"trident/internal/optics"
	"trident/internal/pcm"
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
	y := b.MVMBatchInto(nil, x, 1, len(x), b.Rows())
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
	y := b.MVMBatchInto(nil, x, 1, len(x), b.Rows())
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
		y := b.MVMBatchInto(nil, x, 1, len(x), b.Rows())
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
	got := b.MVMBatchInto(dst, []float64{1, 1}, 1, 2, b.Rows())
	if &got[0] != &dst[0] {
		t.Error("MVM must reuse a sufficiently large dst")
	}
	// Short input vectors only engage the leading columns.
	y := b.MVMBatchInto(nil, []float64{1}, 1, 1, b.Rows())
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

// programCellByCell is the twin of WeightBank.Program that drives every
// cell through PhysicalTuner(r, c).Set, reading the write count and energy
// around each call: the bank's contract spelled out with no shortcut. It
// returns the result Program should report and the physical rows it should
// leave dirty.
func programCellByCell(t *testing.T, b *WeightBank, w [][]float64, now units.Duration) (ProgramResult, []bool) {
	t.Helper()
	var res ProgramResult
	dirty := make([]bool, b.Rows())
	for j := range w {
		pr := b.PhysicalRow(j)
		if b.RowMasked(pr) {
			continue
		}
		for n, v := range w[j] {
			tu := b.PhysicalTuner(pr, n)
			before, beforeE := tu.Writes(), tu.EnergyConsumed()
			actual, done, err := tu.Set(v, now)
			if errors.Is(err, pcm.ErrWornOut) {
				res.Worn = append(res.Worn, [2]int{pr, n})
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if tu.Writes() != before {
				b.OverridePhysicalWeight(pr, n, actual)
				dirty[pr] = true
				res.CellsWritten++
				res.Energy += tu.EnergyConsumed() - beforeE
				if d := done - now; d > res.Elapsed {
					res.Elapsed = d
				}
			}
		}
	}
	return res, dirty
}

// TestProgramSkipMatchesCellByCellSet pins Program's early skip of cells
// whose target quantizes to their current level: random matrices, mostly
// unchanged matrices with one-level moves, a worn cell, a drifted bank, a
// rotated row map and a masked row all program into a bank and into a twin
// driven cell by cell through PhysicalTuner.Set. The results, every
// tuner's writes, energy and weight, the realized weights, the dirty-row
// count and the recompiled snapshot must match bit for bit.
func TestProgramSkipMatchesCellByCellSet(t *testing.T) {
	const rows, cols = 8, 8
	p := testPlan(t, cols)
	bank, err := NewPCMWeightBank(rows, cols, p)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewPCMWeightBank(rows, cols, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	step := 2.0 / 254
	// target returns a matrix over the bank's logical rows: fresh random
	// values with probability fresh, otherwise the current weight moved by
	// −1, 0 or +1 levels (unchanged most of the time).
	target := func(fresh float64) [][]float64 {
		w := make([][]float64, rows)
		for j := range w {
			w[j] = make([]float64, cols)
			for n := range w[j] {
				cur := bank.Tuner(j, n).Weight()
				switch u := rng.Float64(); {
				case u < fresh:
					w[j][n] = rng.Float64()*2 - 1
				case u < fresh+0.1:
					w[j][n] = cur + step*float64(rng.Intn(3)-1)
				default:
					w[j][n] = cur
				}
			}
		}
		return w
	}
	now := units.Duration(0)
	round := func(label string, w [][]float64) ProgramResult {
		t.Helper()
		bank.EnsureCompiled()
		twin.EnsureCompiled()
		now += 10 * units.Microsecond
		got, err := bank.Program(w, now)
		if err != nil {
			t.Fatal(err)
		}
		want, dirty := programCellByCell(t, twin, w, now)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Program %+v, cell by cell %+v", label, got, want)
		}
		nDirty := 0
		for _, d := range dirty {
			if d {
				nDirty++
			}
		}
		if bank.DirtyRowCount() != nDirty {
			t.Fatalf("%s: %d dirty rows, cell by cell %d", label, bank.DirtyRowCount(), nDirty)
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				a, b := bank.PhysicalTuner(r, c), twin.PhysicalTuner(r, c)
				if a.Writes() != b.Writes() || a.EnergyConsumed() != b.EnergyConsumed() || a.Weight() != b.Weight() {
					t.Fatalf("%s: tuner (%d,%d) writes/energy/weight %d/%v/%v, cell by cell %d/%v/%v", label, r, c,
						a.Writes(), a.EnergyConsumed(), a.Weight(), b.Writes(), b.EnergyConsumed(), b.Weight())
				}
				if bank.PhysicalWeight(r, c) != twin.PhysicalWeight(r, c) {
					t.Fatalf("%s: realized (%d,%d) %v, cell by cell %v", label, r, c,
						bank.PhysicalWeight(r, c), twin.PhysicalWeight(r, c))
				}
			}
		}
		bank.EnsureCompiled()
		twin.EnsureCompiled()
		for k, v := range twin.weff {
			if math.Float64bits(bank.weff[k]) != math.Float64bits(v) {
				t.Fatalf("%s: compiled weff[%d] = %v, cell by cell %v", label, k, bank.weff[k], v)
			}
		}
		return got
	}
	round("fresh", target(1))
	for i := 0; i < 4; i++ {
		round("one-level moves", target(0.05))
	}
	// A worn cell: its next level change fails and is reported, not written.
	for _, b := range []*WeightBank{bank, twin} {
		cell := b.PhysicalTuner(3, 5).(*PCMTuner).Cell()
		cell.SetEnduranceLimit(float64(cell.Writes()))
	}
	w := target(0.05)
	w[3][5] = -bank.Tuner(3, 5).Weight()
	if res := round("worn cell", w); len(res.Worn) != 1 {
		t.Fatalf("worn cell: Worn = %v, want the one cell", res.Worn)
	}
	// Drift displaces the readout; unchanged cells keep the drifted value.
	for _, b := range []*WeightBank{bank, twin} {
		b.ApplyDrift(365 * 24 * 3600 * units.Second)
	}
	round("drifted", target(0.05))
	displaced := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if bank.PhysicalWeight(r, c) != bank.PhysicalTuner(r, c).Weight() {
				displaced++
			}
		}
	}
	if displaced == 0 {
		t.Fatal("drifted: no unchanged cell kept its drifted readout")
	}
	for _, b := range []*WeightBank{bank, twin} {
		b.RotateRows(3)
		b.MaskPhysicalRow(2)
	}
	round("rotated and masked", target(0.3))
}
