package core

// The bit-identity regression harness. Three drivers — the dense Network,
// the single-conv classifier (newTestCNN) and a two-conv NewConvNet — run
// fixed schedules over the shared execution graph, and the contract is
// that nothing observable moves: losses, outputs, final weights,
// noise-bearing ledgers and fault event streams must match the recorded
// fixtures byte for byte, serial and parallel, per-sample and batched. The
// fixtures under testdata/ were regenerated for the compiled-bank kernel
// (whose per-element summation order legitimately differs from the factored
// kernel's two-sweep accumulation) with
//
//	go test ./internal/core/ -run TestGoldenDriverBitIdentity -update-golden
//
// and every run since — any worker count — must reproduce the exact
// float64 bit patterns they record. They were regenerated again when the
// conv transpose moved onto the column-stripe pass, whose col2im sums the
// conv input gradient in a different float order; the rewrite of this
// file came out byte-identical (the two-conv schedule's weights, losses
// and ledgers round to the same bits), and golden_multitile_conv.json
// moved in two weights (see multitile_test.go).

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"trident/internal/tensor"
	"trident/internal/units"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden fixtures from the current implementation")

const goldenPath = "testdata/golden_pr5.json"

// goldenTrace is one driver schedule's full observable output, keyed by
// stream name, each value the exact float64 bit patterns in hex.
type goldenTrace map[string][]string

func bits(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return out
}

func (g goldenTrace) put(name string, vs []float64) { g[name] = bits(vs) }

func (g goldenTrace) putLedger(name string, led *Ledger) {
	vals := make([]float64, 0, len(ledgerCategories)+1)
	for _, cat := range ledgerCategories {
		vals = append(vals, led.Energy(cat).Joules())
	}
	vals = append(vals, led.Elapsed().Seconds())
	g.put(name, vals)
}

func (g goldenTrace) putWeights(name string, layers ...*DenseLayer) {
	var flat []float64
	for _, l := range layers {
		for _, row := range l.Weights() {
			flat = append(flat, row...)
		}
	}
	g.put(name, flat)
}

// goldenNetworkSchedule exercises the dense driver end to end with the full
// noise model: per-sample training, per-sample and batched inference,
// random fault injection, drift aging and wear-leveling rotation.
func goldenNetworkSchedule(t *testing.T) goldenTrace {
	t.Helper()
	net, err := NewNetwork(noisyCfg(),
		LayerSpec{In: 12, Out: 16, Activate: true},
		LayerSpec{In: 16, Out: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := goldenTrace{}
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, 12)
	var losses []float64
	for s := 0; s < 6; s++ {
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		loss, err := net.TrainSample(x, s%3)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	tr.put("losses", losses)
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	tr.put("forward", out)
	const batch = 4
	xs := batchInputs(t, 17, batch, 12)
	bout, err := net.ForwardBatchInto(nil, xs, batch)
	if err != nil {
		t.Fatal(err)
	}
	tr.put("batch-forward", bout)
	preds, err := net.PredictBatch(nil, xs, batch)
	if err != nil {
		t.Fatal(err)
	}
	pf := make([]float64, len(preds))
	for i, p := range preds {
		pf[i] = float64(p)
	}
	tr.put("batch-predict", pf)
	count, err := net.InjectRandomFaults(0.05, StuckCrystalline, 99)
	if err != nil {
		t.Fatal(err)
	}
	tr.put("fault-count", []float64{float64(count)})
	faulted, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	tr.put("forward-faulted", faulted)
	net.ApplyDrift(units.Duration(3600))
	drifted, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	tr.put("forward-drifted", drifted)
	net.RotateWearLeveling(1)
	rotated, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	tr.put("forward-rotated", rotated)
	tr.putWeights("weights", net.Layers()...)
	tr.putLedger("ledger", net.Ledger())
	var evs []float64
	for _, ev := range net.FaultEvents() {
		evs = append(evs,
			float64(ev.Layer), float64(ev.TileRow), float64(ev.TileCol),
			float64(ev.Row), float64(ev.Col),
			float64(ev.Kind), float64(ev.Cause), ev.At.Seconds())
	}
	tr.put("fault-events", evs)
	return tr
}

// headFirst lists a conv net's hardware layers head first, then the conv
// kernels in order — the order the conv-stack fixture records its weights
// and merges its ledger in.
func headFirst(g *Graph) []*DenseLayer {
	ls := g.Layers()
	return append([]*DenseLayer{ls[len(ls)-1]}, ls[:len(ls)-1]...)
}

// headFirstLedger merges a conv net's PE ledgers in headFirst order; the
// float64 energy sums depend on the merge order the fixture pins.
func headFirstLedger(g *Graph) *Ledger { return mergeTileLedgers(headFirst(g)) }

// goldenCNNSchedule exercises the single-conv classifier: training,
// per-image and batched inference.
func goldenCNNSchedule(t *testing.T) goldenTrace {
	t.Helper()
	cnn := newTestCNN(t, noisyCfg(), tensor.Conv2DSpec{
		InC: 1, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}, 2)
	tr := goldenTrace{}
	var losses []float64
	for s := 0; s < 3; s++ {
		loss, err := cnn.TrainSample(testImage(int64(s)).Data(), s%2)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	tr.put("losses", losses)
	out, err := cnn.Forward(testImage(99).Data())
	if err != nil {
		t.Fatal(err)
	}
	tr.put("forward", out)
	const batch = 4
	xs := make([]float64, 0, batch*cnn.InputSize())
	for s := int64(11); s < 11+batch; s++ {
		xs = append(xs, testImage(s).Data()...)
	}
	bout, err := cnn.ForwardBatchInto(nil, xs, batch)
	if err != nil {
		t.Fatal(err)
	}
	tr.put("batch-forward", bout)
	preds, err := cnn.PredictBatch(nil, xs, batch)
	if err != nil {
		t.Fatal(err)
	}
	pf := make([]float64, len(preds))
	for i, p := range preds {
		pf[i] = float64(p)
	}
	tr.put("batch-predict", pf)
	tr.putWeights("weights", cnn.Layers()...)
	tr.putLedger("ledger", cnn.Ledger())
	return tr
}

// newGoldenDeepCNN builds the deepcnn schedule's noisy two-conv stack:
// 1→4 channels over 8×8 pixels, then 4→6 at stride 2, and a two-class head.
func newGoldenDeepCNN(t *testing.T) *Graph {
	t.Helper()
	d, err := NewConvNet(noisyCfg(), []tensor.Conv2DSpec{
		{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 4, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
			StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// goldenDeepCNNSchedule exercises a two-conv stack, whose backward pass
// crosses the conv transpose pass and col2im.
func goldenDeepCNNSchedule(t *testing.T) goldenTrace {
	t.Helper()
	d := newGoldenDeepCNN(t)
	tr := goldenTrace{}
	var losses []float64
	for s := 0; s < 3; s++ {
		loss, err := d.TrainSample(testImage(int64(s)).Data(), s%2)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	tr.put("losses", losses)
	out, err := d.Forward(testImage(99).Data())
	if err != nil {
		t.Fatal(err)
	}
	tr.put("forward", out)
	tr.putWeights("weights", headFirst(d)...)
	tr.putLedger("ledger", headFirstLedger(d))
	return tr
}

func goldenAll(t *testing.T) map[string]goldenTrace {
	return map[string]goldenTrace{
		"network": goldenNetworkSchedule(t),
		"cnn":     goldenCNNSchedule(t),
		"deepcnn": goldenDeepCNNSchedule(t),
	}
}

// TestGoldenDriverBitIdentity pins the sequential drivers to the
// pre-refactor fixtures: every observable bit — losses, outputs, batched
// logits, predictions, weights, per-category energies, elapsed time and
// fault events — must match, at one worker and at eight.
func TestGoldenDriverBitIdentity(t *testing.T) {
	if *updateGolden {
		prev := SetMaxWorkers(1)
		defer SetMaxWorkers(prev)
		got := goldenAll(t)
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (generate with -update-golden): %v", err)
	}
	var want map[string]goldenTrace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		prev := SetMaxWorkers(workers)
		got := goldenAll(t)
		SetMaxWorkers(prev)
		for drv, wantTr := range want {
			gotTr, ok := got[drv]
			if !ok {
				t.Fatalf("workers=%d: driver %q missing from run", workers, drv)
			}
			requireTrace(t, fmt.Sprintf("workers=%d: %s", workers, drv), gotTr, wantTr)
		}
	}
}

// requireTrace reports every stream of the fixture that the run is missing
// or does not reproduce bit for bit, naming it with the given prefix.
func requireTrace(t *testing.T, prefix string, got, want goldenTrace) {
	t.Helper()
	for stream, wantBits := range want {
		gotBits, ok := got[stream]
		if !ok {
			t.Errorf("%s/%s missing from run", prefix, stream)
			continue
		}
		if len(gotBits) != len(wantBits) {
			t.Errorf("%s/%s length %d, fixture %d", prefix, stream, len(gotBits), len(wantBits))
			continue
		}
		for i := range wantBits {
			if gotBits[i] != wantBits[i] {
				t.Errorf("%s/%s[%d] = %s, fixture %s", prefix, stream, i, gotBits[i], wantBits[i])
				break
			}
		}
	}
}
