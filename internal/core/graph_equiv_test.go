package core

import (
	"math"
	"testing"

	"trident/internal/nn"
	"trident/internal/tensor"
)

// The execution-graph equivalence property: with every analog imperfection
// switched off (ideal banks, no BPD noise, no faults), the hardware graph
// is the same mathematical object as the digital reference graph — forward
// passes, one full in-situ training step, and the updated weights must all
// agree to 1e-12 relative error, residual-add and channel-concat joins
// included. The only daylight allowed is floating-point re-association
// from the tiled partial-sum merge, which sits orders of magnitude below
// the tolerance for these layer widths.

const equivTol = 1e-12

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func assertClose(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if e := relErr(got[i], want[i]); e > equivTol {
			t.Fatalf("%s[%d]: hardware %v vs digital %v (rel err %.3g)",
				what, i, got[i], want[i], e)
		}
	}
}

// equivGraphs builds the branched test model twice: on the hardware
// execution graph in ideal mode, and as an nn.Graph digital twin whose
// parameters are copied from the hardware masters (biases stay zero — the
// photonic banks carry none). Topology:
//
//	input → stem conv+GST → branch conv+GST → add(branch, stem)
//	      → concat(add, stem) → GAP → linear dense head
func equivGraphs(t *testing.T, lr float64) (*Graph, *nn.Graph, []*nn.Param) {
	t.Helper()
	const hw = 6
	cfg := NetworkConfig{
		PE:           PEConfig{Rows: 8, Cols: 8, DisableNoise: true, Ideal: true},
		LearningRate: lr,
	}
	stemSpec := tensor.Conv2DSpec{InC: 1, InH: hw, InW: hw, OutC: 4, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	branchSpec := stemSpec
	branchSpec.InC = 4

	g, err := NewGraph(cfg, 1, hw, hw)
	if err != nil {
		t.Fatal(err)
	}
	stem := g.Conv(g.Input(), stemSpec, 9001)
	branch := g.Conv(stem, branchSpec, 9002)
	res := g.Add(branch, stem)
	cat := g.Concat(res, stem)
	gap := g.GlobalAvgPool(cat)
	out := g.Dense(gap, LayerSpec{In: 8, Out: 3}, 9003)
	if err := g.SetOutput(out); err != nil {
		t.Fatal(err)
	}

	copyWeights := func(dst *tensor.Tensor, src [][]float64) {
		for j, row := range src {
			for i, w := range row {
				dst.Set(w, j, i)
			}
		}
	}
	conv1 := nn.NewConv2D("stem", stemSpec, 1)
	conv2 := nn.NewConv2D("branch", branchSpec, 1)
	head := nn.NewDense("head", 8, 3, 1)
	copyWeights(conv1.K.Value, g.layers[0].Weights())
	copyWeights(conv2.K.Value, g.layers[1].Weights())
	copyWeights(head.W.Value, g.layers[2].Weights())
	act := func(label string) *nn.GSTActivation {
		a := nn.NewGSTActivation(label, 0)
		a.MaxOut = 1.0 // the physical cell saturates at full transmission
		return a
	}

	dg := nn.NewGraph()
	s := dg.Layer(conv1, dg.Input())
	sa := dg.Layer(act("stem.gst"), s)
	b := dg.Layer(conv2, sa)
	ba := dg.Layer(act("branch.gst"), b)
	r := dg.Add(ba, sa)
	c := dg.Concat(r, sa)
	p := dg.Layer(nn.NewAvgPool("gap", tensor.PoolSpec{C: 8, H: hw, W: hw, K: hw, Stride: hw}), c)
	f := dg.Layer(nn.NewFlatten("flat"), p)
	o := dg.Layer(head, f)
	dg.SetOutput(o)

	// The trainable parameters the two stacks share: conv kernels and the
	// head matrix. The digital head's bias is excluded — it starts at zero
	// and the manual update below never touches it.
	params := []*nn.Param{conv1.K, conv2.K, head.W}
	return g, dg, params
}

func equivImage(phase float64) []float64 {
	x := make([]float64, 36)
	for i := range x {
		x[i] = 0.8 * math.Sin(0.37*float64(i)+phase)
	}
	return x
}

// TestGraphMatchesDigitalReference pins the hardware execution graph
// against nn.Graph on identical weights: noise-free forward agreement
// through both join kinds, loss agreement, and weight agreement after
// in-situ training steps, all at ≤1e-12 relative error.
func TestGraphMatchesDigitalReference(t *testing.T) {
	const lr = 0.02
	g, dg, params := equivGraphs(t, lr)

	// Forward equivalence on several inputs.
	for k := 0; k < 4; k++ {
		x := equivImage(float64(k) * 0.61)
		hwLogits, err := g.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		dgLogits := dg.Forward(tensor.FromSlice(x, 1, 6, 6))
		assertClose(t, "forward logits", hwLogits, dgLogits.Data())
	}

	// Training equivalence: the digital twin replays equation (1) by hand —
	// plain SGD with the hardware's ±1 weight clamp, biases untouched.
	digitalStep := func(x []float64, label int) float64 {
		dg.ZeroGrad()
		logits := dg.Forward(tensor.FromSlice(x, 1, 6, 6))
		loss, grad := nn.CrossEntropyLoss(logits, label)
		dg.Backward(grad)
		for _, p := range params {
			v, gr := p.Value.Data(), p.Grad.Data()
			for i := range v {
				v[i] = clamp1(v[i] - lr*gr[i])
			}
		}
		return loss
	}
	for step := 0; step < 6; step++ {
		x := equivImage(float64(step) * 0.29)
		label := step % 3
		hwLoss, err := g.TrainSample(x, label)
		if err != nil {
			t.Fatal(err)
		}
		dgLoss := digitalStep(x, label)
		if e := relErr(hwLoss, dgLoss); e > equivTol {
			t.Fatalf("step %d loss: hardware %v vs digital %v (rel err %.3g)",
				step, hwLoss, dgLoss, e)
		}
	}

	// After training, the master weights of every hardware layer must match
	// the digital parameters element-wise.
	for li, p := range params {
		w := g.layers[li].Weights()
		for j, row := range w {
			for i, hv := range row {
				dv := p.Value.At(j, i)
				if e := relErr(hv, dv); e > equivTol {
					t.Fatalf("layer %d weight (%d,%d): hardware %v vs digital %v (rel err %.3g)",
						li, j, i, hv, dv, e)
				}
			}
		}
	}

	// And the trained models still agree on fresh inputs.
	for k := 0; k < 3; k++ {
		x := equivImage(1.7 + float64(k)*0.43)
		hwLogits, err := g.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		dgLogits := dg.Forward(tensor.FromSlice(x, 1, 6, 6))
		assertClose(t, "post-training logits", hwLogits, dgLogits.Data())
	}
}

// TestGraphJoinEnergyBooked: the optical joins are not free — a forward
// pass through add and concat nodes must book their summation and
// wavelength-merge energy in the graph ledger.
func TestGraphJoinEnergyBooked(t *testing.T) {
	g, _, _ := equivGraphs(t, 0.02)
	if _, err := g.Forward(equivImage(0)); err != nil {
		t.Fatal(err)
	}
	led := g.Ledger()
	if led.Energy(CatResidualJoin) <= 0 {
		t.Error("residual add booked no energy")
	}
	if led.Energy(CatWavelengthMerge) <= 0 {
		t.Error("channel concat booked no energy")
	}
}
