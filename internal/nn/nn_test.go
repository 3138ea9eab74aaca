package nn

import (
	"math"
	"math/rand"
	"testing"

	"trident/internal/tensor"
)

// numericalGrad estimates ∂loss/∂θ for every parameter element by central
// differences, where loss is computed by eval.
func numericalGrad(p *Param, eval func() float64) []float64 {
	const eps = 1e-5
	g := make([]float64, p.Value.Len())
	for i := range g {
		orig := p.Value.Data()[i]
		p.Value.Data()[i] = orig + eps
		up := eval()
		p.Value.Data()[i] = orig - eps
		down := eval()
		p.Value.Data()[i] = orig
		g[i] = (up - down) / (2 * eps)
	}
	return g
}

// checkGradients verifies analytic parameter gradients and the input
// gradient of a single-layer network against finite differences.
func checkGradients(t *testing.T, net *Graph, x *tensor.Tensor, label int, tol float64) {
	t.Helper()
	eval := func() float64 {
		loss, _ := CrossEntropyLoss(net.Forward(x), label)
		return loss
	}
	net.ZeroGrad()
	logits := net.Forward(x)
	_, grad := CrossEntropyLoss(logits, label)
	dx := net.Backward(grad)

	for _, p := range net.Params() {
		want := numericalGrad(p, eval)
		for i := range want {
			got := p.Grad.Data()[i]
			if math.Abs(got-want[i]) > tol*(1+math.Abs(want[i])) {
				t.Fatalf("%s grad[%d] = %v, finite-diff %v", p.Name, i, got, want[i])
			}
		}
	}
	// Input gradient.
	const eps = 1e-5
	for i := 0; i < x.Len(); i += 1 + x.Len()/16 {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		up := eval()
		x.Data()[i] = orig - eps
		down := eval()
		x.Data()[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(dx.Data()[i]-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d] = %v, finite-diff %v", i, dx.Data()[i], want)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	net := NewNetwork(NewDense("fc", 6, 4, 1))
	x := tensor.New(6)
	rng := rand.New(rand.NewSource(2))
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	checkGradients(t, net, x, 2, 1e-6)
}

func TestConvGradients(t *testing.T) {
	spec := tensor.Conv2DSpec{InC: 2, InH: 5, InW: 5, OutC: 3, KH: 3, KW: 3,
		StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1}
	net := NewNetwork(
		NewConv2D("conv", spec, 3),
		NewFlatten("flat"),
		NewDense("fc", 3*spec.OutH()*spec.OutW(), 3, 4),
	)
	x := tensor.New(2, 5, 5)
	rng := rand.New(rand.NewSource(5))
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	checkGradients(t, net, x, 1, 1e-5)
}

func TestGroupedConvGradients(t *testing.T) {
	spec := tensor.Conv2DSpec{InC: 4, InH: 4, InW: 4, OutC: 4, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 4} // depthwise
	net := NewNetwork(
		NewConv2D("dw", spec, 6),
		NewFlatten("flat"),
		NewDense("fc", 4*16, 2, 7),
	)
	x := tensor.New(4, 4, 4)
	rng := rand.New(rand.NewSource(8))
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	checkGradients(t, net, x, 0, 1e-5)
}

func TestPoolingGradients(t *testing.T) {
	net := NewNetwork(
		NewConv2D("conv", tensor.Conv2DSpec{InC: 1, InH: 6, InW: 6, OutC: 2,
			KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}, 9),
		NewAvgPool("pool", tensor.PoolSpec{C: 2, H: 6, W: 6, K: 2, Stride: 2}),
		NewAvgPool("gap", tensor.PoolSpec{C: 2, H: 3, W: 3, K: 3, Stride: 3}),
		NewFlatten("flat"),
		NewDense("fc", 2, 2, 10),
	)
	x := tensor.New(1, 6, 6)
	rng := rand.New(rand.NewSource(11))
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	checkGradients(t, net, x, 1, 1e-5)
}

func TestReLUGradients(t *testing.T) {
	net := NewNetwork(
		NewDense("fc1", 5, 8, 12),
		NewReLU("relu"),
		NewDense("fc2", 8, 3, 13),
	)
	x := tensor.New(5)
	rng := rand.New(rand.NewSource(14))
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64() + 0.3 // keep most pre-activations off the kink
	}
	checkGradients(t, net, x, 1, 1e-5)
}

func TestGSTActivationGradients(t *testing.T) {
	net := NewNetwork(
		NewDense("fc1", 5, 8, 15),
		NewGSTActivation("gst", 0.1),
		NewDense("fc2", 8, 3, 16),
	)
	x := tensor.New(5)
	rng := rand.New(rand.NewSource(17))
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	checkGradients(t, net, x, 1, 1e-5)
}

func TestGSTActivationShape(t *testing.T) {
	g := NewGSTActivation("gst", 1.0)
	if got := g.Eval(0.5); got != 0 {
		t.Errorf("f(0.5) = %v, want 0 below threshold", got)
	}
	if got := g.Eval(2.0); math.Abs(got-0.34) > 1e-12 {
		t.Errorf("f(2.0) = %v, want 0.34", got)
	}
	if got := g.Derivative(2.0); got != 0.34 {
		t.Errorf("f'(2.0) = %v, want 0.34", got)
	}
	if got := g.Derivative(0.5); got != 0 {
		t.Errorf("f'(0.5) = %v, want 0", got)
	}
	if got := g.Eval(math.NaN()); got != 0 {
		t.Errorf("f(NaN) = %v, want 0", got)
	}
	// Saturating variant.
	g.MaxOut = 0.2
	if got := g.Eval(10); got != 0.2 {
		t.Errorf("saturated f = %v, want 0.2", got)
	}
	if got := g.Derivative(10); got != 0 {
		t.Errorf("saturated f' = %v, want 0", got)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	sum := 0.0
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Errorf("softmax value %v outside (0,1)", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v, want 1", sum)
	}
	// Stability with huge logits.
	p = Softmax([]float64{1000, 1000})
	if math.Abs(p[0]-0.5) > 1e-12 {
		t.Errorf("softmax(1000,1000) = %v, want 0.5", p[0])
	}
	// All -Inf falls back to uniform.
	p = Softmax([]float64{math.Inf(-1), math.Inf(-1)})
	if math.Abs(p[0]-0.5) > 1e-12 {
		t.Errorf("softmax(-Inf,-Inf) = %v, want uniform", p[0])
	}
}

func TestCrossEntropyLoss(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 0, 0}, 3)
	loss, grad := CrossEntropyLoss(logits, 1)
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Errorf("uniform loss = %v, want ln3", loss)
	}
	// Gradient sums to zero and is negative only at the label.
	sum := 0.0
	for i, g := range grad.Data() {
		sum += g
		if (i == 1) != (g < 0) {
			t.Errorf("grad[%d] = %v has wrong sign", i, g)
		}
	}
	if math.Abs(sum) > 1e-12 {
		t.Errorf("grad sum = %v, want 0", sum)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad label should panic")
		}
	}()
	CrossEntropyLoss(logits, 7)
}

func TestNetworkParamCount(t *testing.T) {
	net := NewNetwork(
		NewDense("fc1", 10, 20, 1), // 200 + 20
		NewReLU("r"),
		NewDense("fc2", 20, 5, 2), // 100 + 5
	)
	total := 0
	for _, p := range net.Params() {
		total += p.Value.Len()
	}
	if got := total; got != 325 {
		t.Errorf("param count = %d, want 325", got)
	}
}

// TestTrainingConvergesXOR trains a tiny GST-activated network on the XOR
// problem — the end-to-end check that the two-valued derivative still
// carries enough signal to learn a non-linearly-separable task.
func TestTrainingConvergesXOR(t *testing.T) {
	net := NewNetwork(
		NewDense("fc1", 2, 16, 21),
		NewGSTActivation("gst", 0.0),
		NewDense("fc2", 16, 2, 22),
	)
	xs := []*tensor.Tensor{
		tensor.FromSlice([]float64{0, 0}, 2),
		tensor.FromSlice([]float64{0, 1}, 2),
		tensor.FromSlice([]float64{1, 0}, 2),
		tensor.FromSlice([]float64{1, 1}, 2),
	}
	labels := []int{0, 1, 1, 0}
	opt := SGD{LearningRate: 0.3}
	for epoch := 0; epoch < 3000; epoch++ {
		for i := range xs {
			TrainStep(net, opt, xs[i], labels[i])
		}
	}
	if acc := Accuracy(net.Forward, xs, labels); acc != 1.0 {
		t.Errorf("XOR accuracy = %v, want 1.0", acc)
	}
}

func TestSGDStepDirection(t *testing.T) {
	net := NewNetwork(NewDense("fc", 2, 2, 30))
	x := tensor.FromSlice([]float64{1, -1}, 2)
	before, _ := CrossEntropyLoss(net.Forward(x), 0)
	for i := 0; i < 20; i++ {
		TrainStep(net, SGD{LearningRate: 0.1}, x, 0)
	}
	after, _ := CrossEntropyLoss(net.Forward(x), 0)
	if after >= before {
		t.Errorf("loss did not decrease: %v → %v", before, after)
	}
}

func TestAccuracyValidation(t *testing.T) {
	net := NewNetwork(NewDense("fc", 2, 2, 31))
	if got := Accuracy(net.Forward, nil, nil); got != 0 {
		t.Errorf("empty accuracy = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths should panic")
		}
	}()
	Accuracy(net.Forward, []*tensor.Tensor{tensor.New(2)}, []int{0, 1})
}

// TestNewNetworkMatchesLayerChain: a sequential network is a plain chain —
// training it with TrainStep is bit-identical to calling each layer's
// Forward in order, Backward in reverse and SGD.Step over the layers'
// parameters by hand, on a dense stack and on a conv stack.
func TestNewNetworkMatchesLayerChain(t *testing.T) {
	spec := tensor.Conv2DSpec{InC: 1, InH: 5, InW: 5, OutC: 2, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	for name, c := range map[string]struct {
		layers func() []Layer
		shape  []int
	}{
		"dense": {func() []Layer {
			return []Layer{NewDense("fc1", 4, 6, 41), NewGSTActivation("gst", 0), NewDense("fc2", 6, 3, 42)}
		}, []int{4}},
		"conv": {func() []Layer {
			return []Layer{NewConv2D("conv", spec, 43), NewReLU("relu"), NewFlatten("flat"), NewDense("fc", 50, 3, 44)}
		}, []int{1, 5, 5}},
	} {
		chain := c.layers()
		net := NewNetwork(c.layers()...)
		var chainParams []*Param
		for _, l := range chain {
			chainParams = append(chainParams, l.Params()...)
		}
		if len(net.Params()) != len(chainParams) {
			t.Fatalf("%s: %d params, layer chain %d", name, len(net.Params()), len(chainParams))
		}
		opt := SGD{LearningRate: 0.05}
		rng := rand.New(rand.NewSource(45))
		for step := 0; step < 24; step++ {
			x := tensor.New(c.shape...)
			for i := range x.Data() {
				x.Data()[i] = rng.NormFloat64()
			}
			label := step % 3
			got := TrainStep(net, opt, x, label)

			for _, p := range chainParams {
				p.ZeroGrad()
			}
			out := x
			for _, l := range chain {
				out = l.Forward(out)
			}
			want, grad := CrossEntropyLoss(out, label)
			for i := len(chain) - 1; i >= 0; i-- {
				grad = chain[i].Backward(grad)
			}
			opt.Step(chainParams)

			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s step %d: loss %v, layer chain %v", name, step, got, want)
			}
		}
		for i, p := range net.Params() {
			for j, v := range p.Value.Data() {
				if math.Float64bits(v) != math.Float64bits(chainParams[i].Value.Data()[j]) {
					t.Fatalf("%s: %s[%d] = %v, layer chain %v", name, p.Name, j, v, chainParams[i].Value.Data()[j])
				}
			}
		}
	}
}
