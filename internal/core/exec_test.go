package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"trident/internal/tensor"
)

// ledgerCategories are the per-PE categories compared one by one: a
// per-category comparison names the category that diverged, which a
// TotalEnergy comparison cannot. The golden fixture pins exactly this list.
var ledgerCategories = []EnergyCategory{
	CatGSTTuning, CatGSTRead, CatActivationReset,
	CatBPDTIA, CatLDSU, CatEOLaser, CatCache,
}

func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetMaxWorkers(n)
	t.Cleanup(func() { SetMaxWorkers(prev) })
}

func TestRunIndexedCoversEveryIndexOnce(t *testing.T) {
	withWorkers(t, 8)
	counts := make([]int32, 1000)
	runIndexed(len(counts), func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d executed %d times, want 1", i, c)
		}
	}
}

// TestRunIndexedNestedFanOut drives fan-outs from inside fan-outs — the
// shape a multi-layer network produces when callers also parallelize — and
// must neither deadlock nor lose work. The unbuffered handoff guarantees an
// unclaimed job is executed by its submitter.
func TestRunIndexedNestedFanOut(t *testing.T) {
	withWorkers(t, 8)
	const outer, inner = 6, 40
	var total atomic.Int64
	runIndexed(outer, func(int) {
		runIndexed(inner, func(int) { total.Add(1) })
	})
	if got := total.Load(); got != outer*inner {
		t.Fatalf("nested fan-out ran %d inner calls, want %d", got, outer*inner)
	}
}

// TestRunTilesReportsLowestIndexError: when several tiles fail, the caller
// must observe the error of the lowest flattened tile index, independent of
// goroutine scheduling.
func TestRunTilesReportsLowestIndexError(t *testing.T) {
	const rt, ct = 5, 4
	failing := map[int]bool{7: true, 13: true, 18: true}
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers)
		for trial := 0; trial < 50; trial++ {
			var ran atomic.Int32
			err := runTiles(rt, ct, func(r, c int) error {
				ran.Add(1)
				if failing[r*ct+c] {
					return fmt.Errorf("tile %d failed", r*ct+c)
				}
				return nil
			})
			if err == nil || err.Error() != "tile 7 failed" {
				t.Fatalf("workers=%d trial %d: got %v, want error of tile 7", workers, trial, err)
			}
			if ran.Load() != rt*ct {
				t.Fatalf("workers=%d trial %d: %d tiles ran, want every one of %d", workers, trial, ran.Load(), rt*ct)
			}
		}
	}
}

// noisyCfg enables the full analog noise model: the determinism tests must
// hold bit-exactly even when every pass draws from the per-PE noise rngs.
func noisyCfg() NetworkConfig {
	return NetworkConfig{
		PE:           PEConfig{Rows: 8, Cols: 8},
		LearningRate: 0.05,
	}
}

// netTrace captures everything a schedule produced: per-sample losses, a
// final forward output, the flattened final weights, and the merged ledger.
type netTrace struct {
	losses  []float64
	out     []float64
	weights []float64
	energy  map[EnergyCategory]float64
	elapsed float64
}

func (tr *netTrace) requireEqual(t *testing.T, other *netTrace) {
	t.Helper()
	for i := range tr.losses {
		if tr.losses[i] != other.losses[i] {
			t.Errorf("loss[%d]: serial %v, parallel %v", i, tr.losses[i], other.losses[i])
		}
	}
	for i := range tr.out {
		if tr.out[i] != other.out[i] {
			t.Errorf("forward[%d]: serial %v, parallel %v", i, tr.out[i], other.out[i])
		}
	}
	if len(tr.weights) != len(other.weights) {
		t.Fatalf("weight count: serial %d, parallel %d", len(tr.weights), len(other.weights))
	}
	for i := range tr.weights {
		if tr.weights[i] != other.weights[i] {
			t.Errorf("weight[%d]: serial %v, parallel %v", i, tr.weights[i], other.weights[i])
			break
		}
	}
	for _, cat := range ledgerCategories {
		if tr.energy[cat] != other.energy[cat] {
			t.Errorf("ledger %s: serial %v J, parallel %v J", cat, tr.energy[cat], other.energy[cat])
		}
	}
	if tr.elapsed != other.elapsed {
		t.Errorf("ledger elapsed: serial %v s, parallel %v s", tr.elapsed, other.elapsed)
	}
}

func captureLedger(tr *netTrace, led *Ledger) {
	tr.energy = make(map[EnergyCategory]float64)
	for _, cat := range ledgerCategories {
		tr.energy[cat] = led.Energy(cat).Joules()
	}
	tr.elapsed = led.Elapsed().Seconds()
}

func flattenWeights(tr *netTrace, layers ...*DenseLayer) {
	for _, l := range layers {
		for _, row := range l.Weights() {
			tr.weights = append(tr.weights, row...)
		}
	}
}

func runNetworkSchedule(t *testing.T, workers int) *netTrace {
	t.Helper()
	prev := SetMaxWorkers(workers)
	defer SetMaxWorkers(prev)
	net, err := NewNetwork(noisyCfg(),
		LayerSpec{In: 12, Out: 16, Activate: true},
		LayerSpec{In: 16, Out: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, 12)
	tr := &netTrace{}
	for s := 0; s < 6; s++ {
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		loss, err := net.TrainSample(x, s%3)
		if err != nil {
			t.Fatal(err)
		}
		tr.losses = append(tr.losses, loss)
	}
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	tr.out = append(tr.out, out...)
	flattenWeights(tr, net.Layers()...)
	captureLedger(tr, net.Ledger())
	return tr
}

// TestNetworkParallelMatchesSerial: with noise enabled, a network trained
// through the parallel tile engine must produce bit-identical losses,
// outputs, weights and energy totals to the same network run serially —
// the ownership contract preserves every PE's noise and energy sequence.
func TestNetworkParallelMatchesSerial(t *testing.T) {
	serial := runNetworkSchedule(t, 1)
	parallel := runNetworkSchedule(t, 8)
	serial.requireEqual(t, parallel)
}

func testImage(seed int64) *tensor.Tensor {
	img := tensor.New(1, 8, 8)
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Data() {
		img.Data()[i] = rng.Float64()
	}
	return img
}

func runCNNSchedule(t *testing.T, workers int) *netTrace {
	t.Helper()
	prev := SetMaxWorkers(workers)
	defer SetMaxWorkers(prev)
	cnn := newTestCNN(t, noisyCfg(), tensor.Conv2DSpec{
		InC: 1, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}, 2)
	tr := &netTrace{}
	for s := 0; s < 3; s++ {
		loss, err := cnn.TrainSample(testImage(int64(s)).Data(), s%2)
		if err != nil {
			t.Fatal(err)
		}
		tr.losses = append(tr.losses, loss)
	}
	out, err := cnn.Forward(testImage(99).Data())
	if err != nil {
		t.Fatal(err)
	}
	tr.out = append(tr.out, out...)
	flattenWeights(tr, cnn.Layers()...)
	captureLedger(tr, cnn.Ledger())
	return tr
}

func TestCNNParallelMatchesSerial(t *testing.T) {
	serial := runCNNSchedule(t, 1)
	parallel := runCNNSchedule(t, 8)
	serial.requireEqual(t, parallel)
}

func runDeepCNNSchedule(t *testing.T, workers int) *netTrace {
	t.Helper()
	prev := SetMaxWorkers(workers)
	defer SetMaxWorkers(prev)
	d, err := NewConvNet(noisyCfg(), []tensor.Conv2DSpec{
		{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 4, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
			StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := &netTrace{}
	for s := 0; s < 3; s++ {
		loss, err := d.TrainSample(testImage(int64(s)).Data(), s%2)
		if err != nil {
			t.Fatal(err)
		}
		tr.losses = append(tr.losses, loss)
	}
	out, err := d.Forward(testImage(99).Data())
	if err != nil {
		t.Fatal(err)
	}
	tr.out = append(tr.out, out...)
	flattenWeights(tr, headFirst(d)...)
	captureLedger(tr, headFirstLedger(d))
	return tr
}

func TestDeepCNNParallelMatchesSerial(t *testing.T) {
	serial := runDeepCNNSchedule(t, 1)
	parallel := runDeepCNNSchedule(t, 8)
	serial.requireEqual(t, parallel)
}

// TestConcurrentNetworksSharedPool trains several independent networks at
// once through the shared worker pool — the -race run of this test checks
// the engine's ownership contract under genuine cross-network concurrency.
func TestConcurrentNetworksSharedPool(t *testing.T) {
	withWorkers(t, 4)
	const nets = 4
	errs := make(chan error, nets)
	var wg sync.WaitGroup
	for g := 0; g < nets; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := NewConvNet(noisyCfg(), []tensor.Conv2DSpec{
				{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
					StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
			}, 2)
			if err != nil {
				errs <- err
				return
			}
			for s := 0; s < 2; s++ {
				if _, err := d.TrainSample(testImage(int64(s)).Data(), s%2); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
