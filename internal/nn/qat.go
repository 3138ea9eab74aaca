package nn

import (
	"fmt"

	"trident/internal/fixed"
	"trident/internal/tensor"
)

// Quantization-aware training (QAT) with the straight-through estimator:
// the forward and backward passes run with the parameters quantized to the
// target hardware grid, but the update applies to a full-precision master
// copy. This is the standard mitigation for the offline-train-then-map
// mismatch the paper motivates with — the extended experiments use it to
// separate how much of the 6-bit thermal accuracy loss is quantization
// (QAT recovers it) versus device variation (QAT cannot see it).
type QATTrainer struct {
	net   *Graph
	opt   SGD
	quant *fixed.Quantizer
}

// NewQATTrainer wraps a network for quantization-aware training at the
// given weight resolution.
func NewQATTrainer(net *Graph, opt SGD, bits int) (*QATTrainer, error) {
	if net == nil {
		return nil, fmt.Errorf("nn: QAT needs a network")
	}
	q, err := fixed.ForBits(bits)
	if err != nil {
		return nil, err
	}
	return &QATTrainer{net: net, opt: opt, quant: q}, nil
}

// quantizeParams swaps hardware-grid copies of the parameters in and
// returns the float masters, one slice per parameter in order. Each tensor
// is scaled by its max-abs before hitting the [-1,1] grid, the same
// per-tensor normalization the control unit applies when mapping; a
// non-nil variation adds one programming-error draw per weight, on the
// grid's scale, in parameter order.
func quantizeParams(params []*Param, q *fixed.Quantizer, variation func() float64) [][]float64 {
	saved := make([][]float64, 0, len(params))
	for _, p := range params {
		saved = append(saved, append([]float64(nil), p.Value.Data()...))
		scale := p.Value.MaxAbs()
		if scale == 0 {
			scale = 1
		}
		for i, v := range p.Value.Data() {
			w := q.Quantize(v / scale)
			if variation != nil {
				w += variation()
			}
			p.Value.Data()[i] = w * scale
		}
	}
	return saved
}

// restoreParams puts the float masters saved by quantizeParams back.
func restoreParams(params []*Param, saved [][]float64) {
	for i, p := range params {
		copy(p.Value.Data(), saved[i])
	}
}

// QuantizedAccuracy evaluates g with its parameters mapped onto the
// quantizer's grid (plus variation, when non-nil) — the deployed
// condition — and restores the float masters afterwards.
func QuantizedAccuracy(g *Graph, q *fixed.Quantizer, variation func() float64, xs []*tensor.Tensor, labels []int) float64 {
	params := g.Params()
	saved := quantizeParams(params, q, variation)
	defer restoreParams(params, saved)
	return Accuracy(g.Forward, xs, labels)
}

// TrainStep runs one QAT step: quantized forward/backward (straight-through
// gradients), full-precision update.
func (t *QATTrainer) TrainStep(x *tensor.Tensor, label int) float64 {
	params := t.net.Params()
	t.net.ZeroGrad()
	saved := quantizeParams(params, t.quant, nil)
	logits := t.net.Forward(x)
	loss, grad := CrossEntropyLoss(logits, label)
	t.net.Backward(grad)
	restoreParams(params, saved)
	t.opt.Step(params)
	return loss
}
