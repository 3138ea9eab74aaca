package core

import (
	"math"
	"math/rand"
	"testing"

	"trident/internal/dataset"
	"trident/internal/nn"
	"trident/internal/tensor"
)

func quietNet(t *testing.T, lr float64, specs ...LayerSpec) *Network {
	t.Helper()
	n, err := NewNetwork(NetworkConfig{
		PE:           PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: lr,
	}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(NetworkConfig{}); err == nil {
		t.Error("empty network: want error")
	}
	if _, err := NewNetwork(NetworkConfig{LearningRate: -1}, LayerSpec{In: 2, Out: 2}); err == nil {
		t.Error("negative learning rate: want error")
	}
	if _, err := NewNetwork(NetworkConfig{}, LayerSpec{In: 0, Out: 2}); err == nil {
		t.Error("zero input dim: want error")
	}
	if _, err := NewNetwork(NetworkConfig{},
		LayerSpec{In: 2, Out: 3}, LayerSpec{In: 4, Out: 2}); err == nil {
		t.Error("mismatched layer dims: want error")
	}
}

// TestForwardMatchesDigitalReference: the hardware forward pass must agree
// with a digital network of identical weights and the GST activation, up to
// 8-bit quantization and crosstalk.
func TestForwardMatchesDigitalReference(t *testing.T) {
	hw := quietNet(t, 0.05, LayerSpec{In: 8, Out: 8, Activate: true}, LayerSpec{In: 8, Out: 4})
	// Build the digital twin from the hardware's master weights.
	l1 := hw.Layers()[0].Weights()
	l2 := hw.Layers()[1].Weights()
	d1 := nn.NewDense("fc1", 8, 8, 0)
	d1.B.Value.Zero()
	for j := range l1 {
		for i := range l1[j] {
			d1.W.Value.Set(l1[j][i], j, i)
		}
	}
	act := nn.NewGSTActivation("gst", 0)
	act.MaxOut = 1.0
	d2 := nn.NewDense("fc2", 8, 4, 0)
	d2.B.Value.Zero()
	for j := range l2 {
		for i := range l2[j] {
			d2.W.Value.Set(l2[j][i], j, i)
		}
	}
	ref := nn.NewNetwork(d1, act, d2)

	x := []float64{0.5, -0.3, 0.8, 0.1, -0.7, 0.2, 0.0, 0.9}
	hwOut, err := hw.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	refOut := ref.Forward(tensor.FromSlice(append([]float64(nil), x...), 8))
	for i := range hwOut {
		if math.Abs(hwOut[i]-refOut.Data()[i]) > 0.05 {
			t.Errorf("output[%d]: hw=%v digital=%v (beyond quantization budget)",
				i, hwOut[i], refOut.Data()[i])
		}
	}
}

func TestPredict(t *testing.T) {
	hw := quietNet(t, 0.05, LayerSpec{In: 4, Out: 3})
	cls, err := hw.Predict([]float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if cls < 0 || cls > 2 {
		t.Errorf("class %d out of range", cls)
	}
}

// TestTrainSampleReducesLoss: repeated in-situ training steps on one sample
// must drive its loss down.
func TestTrainSampleReducesLoss(t *testing.T) {
	hw := quietNet(t, 0.1, LayerSpec{In: 4, Out: 8, Activate: true}, LayerSpec{In: 8, Out: 2})
	x := []float64{0.9, -0.5, 0.3, 0.7}
	first, err := hw.TrainSample(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 30; i++ {
		last, err = hw.TrainSample(x, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("in-situ loss did not decrease: %v → %v", first, last)
	}
}

// TestInSituTrainingConverges trains on separable blobs through the full
// hardware model — programming passes, optical MVMs, LDSU-gated backward
// passes, outer-product weight gradients — and requires high accuracy.
// This is the paper's core claim: training works on the same PE hardware.
func TestInSituTrainingConverges(t *testing.T) {
	data := dataset.Blobs(120, 3, 6, 0.08, 42)
	train, test := data.Split(0.75)
	hw := quietNet(t, 0.08,
		LayerSpec{In: 6, Out: 16, Activate: true},
		LayerSpec{In: 16, Out: 3},
	)
	for epoch := 0; epoch < 12; epoch++ {
		for i := range train.Inputs {
			if _, err := hw.TrainSample(train.Inputs[i].Data(), train.Labels[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	correct := 0
	for i := range test.Inputs {
		cls, err := hw.Predict(test.Inputs[i].Data())
		if err != nil {
			t.Fatal(err)
		}
		if cls == test.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.9 {
		t.Errorf("in-situ accuracy = %.2f, want ≥ 0.90", acc)
	}
}

// TestTrainingEnergyDominatedByTuning reproduces the Table III structure at
// the functional level: during training, GST weight-bank programming
// dominates the energy ledger (the paper attributes 83.34% of PE power to
// it).
func TestTrainingEnergyDominatedByTuning(t *testing.T) {
	hw := quietNet(t, 0.05, LayerSpec{In: 8, Out: 8, Activate: true}, LayerSpec{In: 8, Out: 2})
	x := []float64{0.5, 0.5, -0.5, -0.5, 0.25, 0, 0.75, -0.25}
	for i := 0; i < 5; i++ {
		if _, err := hw.TrainSample(x, 0); err != nil {
			t.Fatal(err)
		}
	}
	led := hw.Ledger()
	tuning := led.Energy(CatGSTTuning).Joules()
	total := led.TotalEnergy().Joules()
	if tuning/total < 0.5 {
		t.Errorf("tuning share = %.2f of training energy, expected dominant (>0.5)", tuning/total)
	}
}

// TestInferenceEnergyCheapAfterProgramming: once trained, repeated
// inference books no further tuning energy — the non-volatility payoff.
func TestInferenceEnergyCheapAfterProgramming(t *testing.T) {
	hw := quietNet(t, 0.05, LayerSpec{In: 4, Out: 2})
	x := []float64{0.5, 0.5, 0.5, 0.5}
	if _, err := hw.Forward(x); err != nil {
		t.Fatal(err) // first forward programs the banks
	}
	before := hw.Ledger().Energy(CatGSTTuning)
	for i := 0; i < 20; i++ {
		if _, err := hw.Forward(x); err != nil {
			t.Fatal(err)
		}
	}
	after := hw.Ledger().Energy(CatGSTTuning)
	if after != before {
		t.Errorf("inference after programming booked %v of tuning energy", after-before)
	}
}

// TestTiledLayerMatchesSmallBank: a layer larger than one bank must tile
// correctly: compare a 20→10 layer on 8×8 banks against direct matrix math.
func TestTiledLayerMatchesSmallBank(t *testing.T) {
	hw := quietNet(t, 0.05, LayerSpec{In: 20, Out: 10})
	w := hw.Layers()[0].Weights()
	x := make([]float64, 20)
	for i := range x {
		x[i] = 0.1 * float64(i%7) * sign(i)
	}
	got, err := hw.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		var want float64
		for i := 0; i < 20; i++ {
			want += w[j][i] * x[i]
		}
		if math.Abs(got[j]-want) > 0.05 {
			t.Errorf("tiled y[%d] = %v, want ≈%v", j, got[j], want)
		}
	}
	// 20→10 on 8×8 banks: ceil(10/8)×ceil(20/8) = 2×3 = 6 PEs.
	if hw.PECount() != 6 {
		t.Errorf("PE count = %d, want 6", hw.PECount())
	}
}

func sign(i int) float64 {
	if i%2 == 0 {
		return 1
	}
	return -1
}

// TestTransposeMVM checks the gradient-vector pass, as a batch of one,
// against direct Wᵀδ.
func TestTransposeMVM(t *testing.T) {
	hw := quietNet(t, 0.05, LayerSpec{In: 12, Out: 6})
	l := hw.Layers()[0]
	w := l.Weights()
	delta := []float64{0.5, -0.25, 0.75, 0.1, -0.6, 0.3}
	got, err := l.TransposeMVMBatchInto(nil, delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		var want float64
		for j := 0; j < 6; j++ {
			want += w[j][i] * delta[j]
		}
		if math.Abs(got[i]-want) > 0.05 {
			t.Errorf("Wᵀδ[%d] = %v, want ≈%v", i, got[i], want)
		}
	}
	if _, err := l.TransposeMVMBatchInto(nil, make([]float64, 3), 1); err == nil {
		t.Error("wrong delta length: want error")
	}
}

// TestOuterProductLayer checks the fused weight step against its three
// separate passes — the ΔHᵀ·X contraction with the first stream row
// assigning, the 1/B mean scale (skipped when B is 1) and the clamped
// update — bit for bit, over odd row counts, input widths off the
// four-column register tile, signed zeros, a learning rate large enough to
// clamp, and conv-shaped steps whose stream carries several rows (pixels)
// per sample. At one row the step is the plain rank-1 update W − β·δh·yᵀ.
func TestOuterProductLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []struct{ in, out, rows, batch int }{
		{10, 6, 1, 1}, {35, 17, 32, 32}, {7, 33, 5, 5}, {3, 1, 2, 2}, {16, 16, 4, 4}, {130, 9, 3, 3},
		{27, 12, 64, 1}, {27, 12, 3 * 64, 3}, {9, 5, 2 * 16, 2},
	} {
		for _, lr := range []float64{0.05, 40} {
			fused := quietNet(t, lr, LayerSpec{In: shape.in, Out: shape.out})
			ref := quietNet(t, lr, LayerSpec{In: shape.in, Out: shape.out})
			lf := fused.Layers()[0]
			dhs := make([]float64, shape.rows*shape.out)
			xs := make([]float64, shape.rows*shape.in)
			for i := range dhs {
				dhs[i] = rng.Float64()*2 - 1
				if i%7 == 0 {
					dhs[i] = math.Copysign(0, -1)
				}
			}
			for i := range xs {
				xs[i] = rng.Float64()*2 - 1
			}
			lf.applyBatchGradient(lr, dhs, xs, shape.rows, shape.batch)
			for j, row := range ref.Layers()[0].Weights() {
				for i, w := range row {
					g := dhs[j] * xs[i]
					for r := 1; r < shape.rows; r++ {
						g += dhs[r*shape.out+j] * xs[r*shape.in+i]
					}
					if shape.batch > 1 {
						g *= 1 / float64(shape.batch)
					}
					want := clamp1(w - lr*g)
					if got := lf.Weights()[j][i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%+v lr %v: W[%d][%d] = %v, separate passes %v", shape, lr, j, i, got, want)
					}
				}
			}
		}
	}
	hw := quietNet(t, 0.05, LayerSpec{In: 10, Out: 6})
	l := hw.Layers()[0]
	before := make([][]float64, 6)
	for j, row := range l.Weights() {
		before[j] = append([]float64(nil), row...)
	}
	deltaH := []float64{1, -0.5, 0.25, 0, 0.75, -1}
	y := make([]float64, 10)
	for i := range y {
		y[i] = 0.1*float64(i) - 0.4
	}
	l.applyBatchGradient(0.05, deltaH, y, 1, 1)
	for j := range deltaH {
		for i := range y {
			if want := clamp1(before[j][i] - 0.05*(deltaH[j]*y[i])); l.Weights()[j][i] != want {
				t.Errorf("W[%d][%d] = %v, want %v", j, i, l.Weights()[j][i], want)
			}
		}
	}
}

// TestWeightsStayClamped: updates must keep weights inside the physical
// [-1, 1] range of the PCM attenuator.
func TestWeightsStayClamped(t *testing.T) {
	hw := quietNet(t, 5.0, LayerSpec{In: 4, Out: 2}) // absurd learning rate
	x := []float64{1, 1, 1, 1}
	for i := 0; i < 10; i++ {
		if _, err := hw.TrainSample(x, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range hw.Layers()[0].Weights() {
		for _, w := range row {
			if w < -1 || w > 1 {
				t.Fatalf("weight %v escaped [-1,1]", w)
			}
		}
	}
}

// TestGraphSampleEntryPointsValidate: Forward, Predict and TrainSample run
// a batch of one, but ForwardBatchInto and TrainBatch accept longer input
// slices, so the single-sample entry points must reject any input that is
// not exactly InputSize() long themselves. TrainSample must also reject
// out-of-range labels without a trace: no master weight changes, no energy
// is booked and no noise is drawn, so the next Forward matches an untouched
// twin bit for bit.
func TestGraphSampleEntryPointsValidate(t *testing.T) {
	build := func() *Graph {
		net, err := NewNetwork(noisyCfg(),
			LayerSpec{In: 12, Out: 16, Activate: true},
			LayerSpec{In: 16, Out: 3})
		if err != nil {
			t.Fatal(err)
		}
		return net.Graph
	}
	g, twin := build(), build()
	for _, n := range []int{g.InputSize() - 1, g.InputSize() + 1} {
		x := make([]float64, n)
		if _, err := g.Forward(x); err == nil {
			t.Errorf("Forward with %d inputs: want error", n)
		}
		if _, err := g.Predict(x); err == nil {
			t.Errorf("Predict with %d inputs: want error", n)
		}
		if _, err := g.TrainSample(x, 0); err == nil {
			t.Errorf("TrainSample with %d inputs: want error", n)
		}
	}
	before := flattenAllWeights(g)
	x := batchInputs(t, 3, 1, g.InputSize())
	for _, label := range []int{-1, g.OutputSize()} {
		if _, err := g.TrainSample(x, label); err == nil {
			t.Errorf("TrainSample label %d: want error", label)
		}
	}
	for i, w := range flattenAllWeights(g) {
		if w != before[i] {
			t.Fatalf("weight[%d] changed by rejected TrainSample: %v → %v", i, before[i], w)
		}
	}
	// A rejected call leaves no trace: no energy booked, no noise drawn.
	if got, want := g.Ledger().TotalEnergy(), twin.Ledger().TotalEnergy(); got != want {
		t.Errorf("rejected calls booked energy: %v, untouched twin %v", got, want)
	}
	got, err := g.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Forward after rejected calls: out[%d] = %v, untouched twin %v", i, got[i], want[i])
		}
	}
}

// TestLedgerAggregation: the network ledger merges every PE and reports
// parallel (max) elapsed time.
func TestLedgerAggregation(t *testing.T) {
	hw := quietNet(t, 0.05, LayerSpec{In: 20, Out: 10})
	if _, err := hw.Forward(make([]float64, 20)); err != nil {
		t.Fatal(err)
	}
	led := hw.Ledger()
	if led.TotalEnergy() <= 0 {
		t.Error("network ledger empty after forward pass")
	}
	if led.Elapsed() <= 0 {
		t.Error("network elapsed time missing")
	}
}
