package nn

import (
	"fmt"
	"math"

	"trident/internal/tensor"
)

// NewNetwork returns a sequential network over the given layers: a graph
// whose nodes form one chain from the input to the last layer, with the
// output already set.
func NewNetwork(layers ...Layer) *Graph {
	if len(layers) == 0 {
		panic("nn: network needs at least one layer")
	}
	g := NewGraph()
	id := g.Input()
	for _, l := range layers {
		id = g.Layer(l, id)
	}
	g.SetOutput(id)
	return g
}

// Softmax writes the softmax of logits into a new slice, using the max-
// shifted form for numerical stability.
func Softmax(logits []float64) []float64 { return SoftmaxInto(make([]float64, len(logits)), logits) }

// SoftmaxInto writes the softmax of logits into dst[:len(logits)] and
// returns that slice, using the max-shifted form for numerical stability.
func SoftmaxInto(dst, logits []float64) []float64 {
	out := dst[:len(logits)]
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	if sum == 0 {
		// All logits were -Inf; fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// CrossEntropyLoss returns the softmax cross-entropy loss of logits against
// an integer label, together with ∂L/∂logits.
func CrossEntropyLoss(logits *tensor.Tensor, label int) (float64, *tensor.Tensor) {
	v := logits.Data()
	if label < 0 || label >= len(v) {
		panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, len(v)))
	}
	p := Softmax(v)
	loss := -math.Log(math.Max(p[label], 1e-300))
	grad := make([]float64, len(v))
	copy(grad, p)
	grad[label] -= 1
	return loss, tensor.FromSlice(grad, len(grad))
}

// SGD is a plain stochastic-gradient-descent optimizer — equation (1) of
// the paper: W ← W − β·δW.
type SGD struct {
	LearningRate float64
}

// Step applies one update to every parameter and leaves gradients intact
// (callers ZeroGrad explicitly, matching the accelerator's explicit weight-
// update pass).
func (s SGD) Step(params []*Param) {
	for _, p := range params {
		p.Value.AxpyInPlace(-s.LearningRate, p.Grad)
	}
}

// TrainStep runs one forward/backward/update cycle on a single example and
// returns the loss — the digital reference for what Trident does in-situ.
func TrainStep(g *Graph, opt SGD, x *tensor.Tensor, label int) float64 {
	g.ZeroGrad()
	logits := g.Forward(x)
	loss, grad := CrossEntropyLoss(logits, label)
	g.Backward(grad)
	opt.Step(g.Params())
	return loss
}

// Accuracy evaluates classification accuracy over a dataset: the fraction
// of inputs whose forward output peaks at the label. forward is any
// classifier's forward pass (Graph.Forward, DFATrainer.Forward).
func Accuracy(forward func(*tensor.Tensor) *tensor.Tensor, xs []*tensor.Tensor, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	if len(xs) != len(labels) {
		panic(fmt.Sprintf("nn: %d inputs vs %d labels", len(xs), len(labels)))
	}
	correct := 0
	for i, x := range xs {
		if forward(x).ArgMax() == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}
