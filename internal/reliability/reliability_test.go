package reliability

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"trident/internal/core"
	"trident/internal/mrr"
	"trident/internal/units"
)

// TestLifetimeCampaignAcceptance is the PR's acceptance gate: a ≥10⁴-step
// training campaign with stochastic wear in which the self-test — with zero
// oracle access to the fault ledger — flags at least 90% of the cells that
// died of endurance exhaustion, while the remediation scheduler holds final
// validation accuracy within two points of the pre-fault baseline.
func TestLifetimeCampaignAcceptance(t *testing.T) {
	res, err := RunCampaign(42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 10000 {
		t.Fatalf("campaign ran %d steps, want ≥ 10000", res.Steps)
	}
	if res.WearFaults < 10 {
		t.Fatalf("only %d wear faults emerged; the endurance calibration no longer stresses the detector", res.WearFaults)
	}
	if res.DetectionRate < 0.9 {
		t.Fatalf("BIST detected %d/%d wear faults (%.1f%%), want ≥ 90%%",
			res.Detected, res.WearFaults, 100*res.DetectionRate)
	}
	if res.FinalAccuracy < res.BaselineAccuracy-0.02 {
		t.Fatalf("final accuracy %.3f fell more than 2 points below baseline %.3f",
			res.FinalAccuracy, res.BaselineAccuracy)
	}
	if res.BaselineAccuracy < 0.9 {
		t.Fatalf("baseline accuracy %.3f too weak for the recovery bound to mean anything", res.BaselineAccuracy)
	}
	t.Logf("steps=%d faults=%d detected=%d (%.0f%%) baseline=%.3f final=%.3f heals=%d masked=%d",
		res.Steps, res.WearFaults, res.Detected, 100*res.DetectionRate,
		res.BaselineAccuracy, res.FinalAccuracy, res.Heals, res.MaskedRows)
}

// TestCampaignDeterministicAcrossWorkers re-runs the full campaign serially
// and under the parallel tile engine: every timeline entry, fault count and
// suspect count must match bit-exactly — degradation, self-test and
// remediation all obey the single-writer-per-PE contract.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	prev := core.SetMaxWorkers(1)
	serial, errS := RunCampaign(42)
	core.SetMaxWorkers(8)
	parallel, errP := RunCampaign(42)
	core.SetMaxWorkers(prev)
	if errS != nil || errP != nil {
		t.Fatalf("serial err=%v parallel err=%v", errS, errP)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("campaign diverged between serial and parallel execution:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func newTestNetwork(t *testing.T) *core.Network {
	t.Helper()
	net, err := core.NewNetwork(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true, NoiseSeed: 5},
		LearningRate: 0.05,
	},
		core.LayerSpec{In: 6, Out: 16, Activate: true},
		core.LayerSpec{In: 16, Out: 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestAttachWearDeterministic(t *testing.T) {
	budgets := func(seed int64) []float64 {
		net := newTestNetwork(t)
		n, err := AttachWear(net.Graph, WearConfig{Seed: seed, MeanEndurance: 50000})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("AttachWear touched no cells")
		}
		var out []float64
		net.ForEachPE(func(_, _, _ int, pe *core.PE) {
			bank := pe.Bank()
			for r := 0; r < bank.Rows(); r++ {
				for c := 0; c < bank.Cols(); c++ {
					out = append(out, bank.PhysicalTuner(r, c).(*mrr.PCMTuner).Cell().EnduranceLimit())
				}
			}
		})
		return out
	}
	a, b := budgets(9), budgets(9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different wear budgets")
	}
	c := budgets(10)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical wear budgets")
	}
	// Budgets should scatter around the characteristic life, not collapse.
	var mean float64
	for _, v := range a {
		mean += v
	}
	mean /= float64(len(a))
	if mean < 20000 || mean > 80000 {
		t.Fatalf("mean Weibull budget %.0f implausible for λ=50000", mean)
	}
}

func TestBISTCleanNetworkHasNoSuspects(t *testing.T) {
	net := newTestNetwork(t)
	rep, err := RunBIST(net.Graph, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SuspectCount() != 0 {
		t.Fatalf("healthy network produced %d suspects: %+v", rep.SuspectCount(), rep.Suspects)
	}
	if rep.CellsTested == 0 {
		t.Fatal("BIST tested no cells")
	}
	// Full-bank coverage: every fabricated cell of every tile is probed.
	want := 0
	net.ForEachPE(func(_, _, _ int, pe *core.PE) { want += pe.Rows() * pe.Cols() })
	if rep.CellsTested != want {
		t.Fatalf("BIST tested %d cells, want full bank coverage %d", rep.CellsTested, want)
	}
}

// TestBISTLocalizesInjectedFaults pins cells at known physical positions and
// checks the self-test finds exactly the ones whose pinned value actually
// deviates from the control unit's expectation — without consulting the
// fault ledger.
func TestBISTLocalizesInjectedFaults(t *testing.T) {
	net := newTestNetwork(t)
	pe := net.Layers()[0].Tiles()[0][0]
	injected := [][2]int{{1, 2}, {4, 5}, {7, 7}}
	for _, pos := range injected {
		if err := pe.InjectFault(pos[0], pos[1], core.StuckAmorphous); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := RunBIST(net.Graph, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[[2]int]bool{}
	for _, su := range rep.Suspects {
		if su.Layer != 0 || su.TileRow != 0 || su.TileCol != 0 {
			t.Fatalf("suspect outside the faulted tile: %+v", su)
		}
		found[[2]int{su.PhysRow, su.Col}] = true
	}
	for _, pos := range injected {
		// A stuck-amorphous cell reads +1. If the nominal content already
		// sits within tolerance of +1 the deviation is genuinely invisible.
		nominal := pe.Bank().Tuner(pe.Bank().LogicalRow(pos[0]), pos[1]).Weight()
		if math.Abs(1-nominal) <= rep.Tolerance {
			continue
		}
		if !found[pos] {
			t.Fatalf("injected fault at physical %v not localized; suspects: %+v", pos, rep.Suspects)
		}
	}
}

// TestSchedulerRefreshesDrift ages the network by a long hold and checks the
// scheduler's refresh pass re-pulses the displaced cells back to nominal.
func TestSchedulerRefreshesDrift(t *testing.T) {
	net := newTestNetwork(t)
	eval := func() (float64, error) { return 1, nil }
	sched, err := NewScheduler(net.Graph, Policy{
		TimePerStep: units.Duration(24 * 3600), // one simulated day per step
	}, 1, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Check(365) // one simulated year
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed == 0 {
		t.Fatal("a year of drift refreshed no cells")
	}
	// After refresh every live cell must read its programmed weight again.
	net.ForEachPE(func(layer, tr, tc int, pe *core.PE) {
		bank := pe.Bank()
		for r := 0; r < bank.Rows(); r++ {
			if bank.RowMasked(r) {
				continue
			}
			for c := 0; c < bank.Cols(); c++ {
				if pe.Faulted(r, c) {
					continue
				}
				if got, want := bank.PhysicalWeight(r, c), bank.PhysicalTuner(r, c).Weight(); got != want {
					t.Fatalf("layer %d tile (%d,%d) cell (%d,%d) reads %v after refresh, programmed %v",
						layer, tr, tc, r, c, got, want)
				}
			}
		}
	})
}

// TestSchedulerWearLevelingPreservesAccuracy rotates the row maps every
// check and verifies inference is unaffected: the logical weights follow the
// rotation through reprogramming.
func TestSchedulerWearLevelingPreservesAccuracy(t *testing.T) {
	net := newTestNetwork(t)
	// Park the edge cells first so the baseline output already includes the
	// self-test's park-pass crosstalk; the rotation check is then exact.
	if _, err := RunBIST(net.Graph, 0, 0); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.2, 0.5, 0.1, -0.4, 0.25}
	before, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	beforeCopy := append([]float64(nil), before...)
	eval := func() (float64, error) { return 1, nil }
	sched, err := NewScheduler(net.Graph, Policy{WearLevelEvery: 1}, 1, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Check(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rotated {
		t.Fatal("WearLevelEvery=1 did not rotate on the first check")
	}
	for _, l := range net.Layers() {
		for _, row := range l.Tiles() {
			for _, pe := range row {
				if pe.Bank().RowRotation() != 1 {
					t.Fatalf("bank rotation %d, want 1", pe.Bank().RowRotation())
				}
			}
		}
	}
	after, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range beforeCopy {
		if math.Abs(after[i]-beforeCopy[i]) > 1e-12 {
			t.Fatalf("output %d changed across wear-leveling rotation: %v → %v", i, beforeCopy[i], after[i])
		}
	}
}

// TestSchedulerMasksDeadRows kills a whole physical row and checks the
// post-refresh diagnosis retires it.
func TestSchedulerMasksDeadRows(t *testing.T) {
	net := newTestNetwork(t)
	pe := net.Layers()[0].Tiles()[0][0]
	const deadRow = 3
	for c := 0; c < pe.Cols(); c++ {
		if err := pe.InjectFault(deadRow, c, core.StuckCrystalline); err != nil {
			t.Fatal(err)
		}
	}
	eval := func() (float64, error) { return 1, nil }
	sched, err := NewScheduler(net.Graph, Policy{}, 1, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := sched.maskDeadRows()
	if err != nil {
		t.Fatal(err)
	}
	if masked != 1 {
		t.Fatalf("masked %d rows, want 1", masked)
	}
	if !pe.Bank().RowMasked(deadRow) {
		t.Fatal("the dead physical row was not the one masked")
	}
}

// totalRowsCompiled sums lifetime compiled-row counts across every bank —
// the recompilation odometer the scheduler cost assertions read.
func totalRowsCompiled(net *core.Network) uint64 {
	var total uint64
	net.ForEachPE(func(_, _, _ int, pe *core.PE) {
		total += pe.Bank().RowsCompiled()
	})
	return total
}

// TestSchedulerSteadyStateRecompilesNothing pins the serving win of
// row-scoped invalidation: a drift-free health check — BIST park passes
// elided by compare-first writes, refresh finding nothing displaced — must
// recompile zero rows across the whole network, and a single displaced cell
// must cost at most two row recompiles (one when the self-test probes the
// overridden row, one when refresh restores it), never a bank rebuild.
func TestSchedulerSteadyStateRecompilesNothing(t *testing.T) {
	net := newTestNetwork(t)
	eval := func() (float64, error) { return 1, nil }
	// Zero TimePerStep: no drift aging, so nothing displaces between checks.
	sched, err := NewScheduler(net.Graph, Policy{}, 1, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	// First check settles the BIST park cells and warms every snapshot.
	if _, err := sched.Check(1); err != nil {
		t.Fatal(err)
	}
	before := totalRowsCompiled(net)
	if _, err := sched.Check(2); err != nil {
		t.Fatal(err)
	}
	if got := totalRowsCompiled(net); got != before {
		t.Fatalf("drift-free steady-state check recompiled %d rows, want 0", got-before)
	}
	// Displace one realized cell; the next check's refresh restores it.
	net.Layers()[0].Tiles()[0][0].Bank().OverridePhysicalWeight(4, 2, 0.123456)
	if _, err := sched.Check(3); err != nil {
		t.Fatal(err)
	}
	delta := totalRowsCompiled(net) - before
	if delta == 0 {
		t.Fatal("displaced cell never triggered a recompile; the override was not observed")
	}
	if delta > 2 {
		t.Fatalf("single displaced cell recompiled %d rows, want ≤2", delta)
	}
}

// TestRemediationRecompilesBanks pins the scheduler against the compiled
// weight-stationary snapshot: every remediation action — drift aging and
// refresh during Check, the wear-leveling rotation, healing reprograms and
// dead-row masking — mutates bank weight state behind the compiled matrix,
// so each must bump the bank epoch and force a recompile on the next serving
// pass. After a full year of checks plus a masked dead row, every bank's
// production kernel must still track the reference triple loop.
func TestRemediationRecompilesBanks(t *testing.T) {
	net := newTestNetwork(t)
	pe := net.Layers()[0].Tiles()[0][0]
	const deadRow = 2
	for c := 0; c < pe.Cols(); c++ {
		if err := pe.InjectFault(deadRow, c, core.StuckCrystalline); err != nil {
			t.Fatal(err)
		}
	}
	eval := func() (float64, error) { return 1, nil }
	sched, err := NewScheduler(net.Graph, Policy{
		TimePerStep:    units.Duration(24 * 3600), // one simulated day per step
		WearLevelEvery: 1,
	}, 1, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Check(365)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed == 0 || !res.Rotated {
		t.Fatalf("remediation did not exercise refresh (%d) and rotation (%v)", res.Refreshed, res.Rotated)
	}
	if _, err := sched.maskDeadRows(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	net.ForEachPE(func(layer, tr, tc int, pe *core.PE) {
		bank := pe.Bank()
		x := make([]float64, bank.Cols())
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		got := bank.MVMBatchInto(nil, x, 1, len(x))
		want := bank.ReferenceMVM(nil, x)
		for j := range want {
			diff := math.Abs(got[j] - want[j])
			scale := math.Max(math.Abs(want[j]), 1)
			if diff/scale > 1e-9 {
				t.Fatalf("layer %d tile (%d,%d) row %d: compiled %v vs reference %v after remediation",
					layer, tr, tc, j, got[j], want[j])
			}
		}
	})
}

// TestRemediationRecompilesTransposeView: once in-situ training has
// activated the banks' compiled transpose views, every remediation action
// that patches the forward snapshot — drift refresh during Check, the
// wear-leveling rotation, dead-row masking — must keep the transpose view
// in lockstep through the shared dirty-row protocol: after a full year of
// checks both compiled views still track the reference kernels, with no
// dirty rows left behind.
func TestRemediationRecompilesTransposeView(t *testing.T) {
	net := newTestNetwork(t)
	// Activate the transpose view on every bank, as a training epoch's
	// backward passes would.
	net.ForEachPE(func(layer, tr, tc int, pe *core.PE) {
		pe.Bank().EnsureTransposeCompiled()
	})
	pe := net.Layers()[0].Tiles()[0][0]
	const deadRow = 3
	for c := 0; c < pe.Cols(); c++ {
		if err := pe.InjectFault(deadRow, c, core.StuckCrystalline); err != nil {
			t.Fatal(err)
		}
	}
	eval := func() (float64, error) { return 1, nil }
	sched, err := NewScheduler(net.Graph, Policy{
		TimePerStep:    units.Duration(24 * 3600), // one simulated day per step
		WearLevelEvery: 1,
	}, 1, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Check(365)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed == 0 || !res.Rotated {
		t.Fatalf("remediation did not exercise refresh (%d) and rotation (%v)", res.Refreshed, res.Rotated)
	}
	if _, err := sched.maskDeadRows(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	net.ForEachPE(func(layer, tr, tc int, pe *core.PE) {
		bank := pe.Bank()
		if !bank.TransposeViewActive() {
			t.Fatalf("layer %d tile (%d,%d): transpose view deactivated by remediation", layer, tr, tc)
		}
		delta := make([]float64, bank.Rows())
		for i := range delta {
			delta[i] = rng.Float64()*2 - 1
		}
		got := bank.TransposeMVMBatchInto(nil, delta, 1, len(delta))
		want := bank.ReferenceTransposeMVM(nil, delta)
		for i := range want {
			diff := math.Abs(got[i] - want[i])
			scale := math.Max(math.Abs(want[i]), 1)
			if diff/scale > 1e-9 {
				t.Fatalf("layer %d tile (%d,%d) col %d: transpose view %v vs reference %v after remediation",
					layer, tr, tc, i, got[i], want[i])
			}
		}
		if n := bank.DirtyRowCount(); n != 0 {
			t.Fatalf("layer %d tile (%d,%d): %d dirty rows survive the serving pass", layer, tr, tc, n)
		}
	})
}
