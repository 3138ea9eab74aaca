package nn

import (
	"fmt"
	"math"
	"math/rand"

	"trident/internal/tensor"
)

// Direct Feedback Alignment (DFA) — the training rule used by the photonic
// architecture of Filipovich et al. that the paper's related-work section
// compares against. Instead of backpropagating the error through the
// transposed weights, every hidden layer receives the output error through
// a fixed random feedback matrix B_k:
//
//	δh_k = (B_k · e) ⊙ f'(h_k)
//
// DFA avoids the transpose pass (attractive in photonics, where Wᵀ means
// re-tuning the banks), but — as the paper notes, citing Webster et al. —
// it is "not effective for training convolutional layers". The comparison
// experiments in internal/experiments quantify that gap against true
// backpropagation on this codebase's own layers.

// DFABlock pairs one parametric layer with the activation that follows it.
type DFABlock struct {
	Param Layer
	Act   Layer // nil for the final (linear) layer
}

// DFATrainer trains a stack of blocks with direct feedback alignment.
type DFATrainer struct {
	blocks   []DFABlock
	feedback []*tensor.Tensor // per hidden block: (block output size) × classes
	classes  int
	seed     int64
	lastOuts []*tensor.Tensor // per block: pre-activation output h_k
	lastActs []*tensor.Tensor // per block: activated output y_k
}

// NewDFATrainer builds a trainer over the blocks. The final block must be
// linear (Act == nil) and its output size defines the class count.
// Feedback matrices are drawn once from a scaled uniform distribution with
// the given seed and stay fixed for the whole run — the defining property
// of DFA.
func NewDFATrainer(blocks []DFABlock, classes int, seed int64) (*DFATrainer, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("nn: DFA needs at least one block")
	}
	if blocks[len(blocks)-1].Act != nil {
		return nil, fmt.Errorf("nn: DFA final block must be linear")
	}
	if classes < 2 {
		return nil, fmt.Errorf("nn: DFA needs ≥2 classes (got %d)", classes)
	}
	for i, b := range blocks {
		if b.Param == nil {
			return nil, fmt.Errorf("nn: DFA block %d has no parametric layer", i)
		}
	}
	t := &DFATrainer{
		blocks:   blocks,
		classes:  classes,
		lastOuts: make([]*tensor.Tensor, len(blocks)),
		lastActs: make([]*tensor.Tensor, len(blocks)),
	}
	// Feedback matrices are sized lazily on the first forward pass (conv
	// output sizes depend on the input geometry); remember the seed.
	t.seed = seed
	return t, nil
}

// Forward runs the block stack, caching per-block outputs.
func (t *DFATrainer) Forward(x *tensor.Tensor) *tensor.Tensor {
	for i, b := range t.blocks {
		x = b.Param.Forward(x)
		t.lastOuts[i] = x
		if b.Act != nil {
			x = b.Act.Forward(x)
		}
		t.lastActs[i] = x
	}
	return x
}

// ensureFeedback sizes the feedback matrices once output shapes are known.
func (t *DFATrainer) ensureFeedback() {
	if t.feedback != nil {
		return
	}
	rng := rand.New(rand.NewSource(t.seed))
	t.feedback = make([]*tensor.Tensor, len(t.blocks)-1)
	for i := 0; i < len(t.blocks)-1; i++ {
		n := t.lastOuts[i].Len()
		b := tensor.New(n, t.classes)
		scale := math.Sqrt(3.0 / float64(t.classes))
		for j := range b.Data() {
			b.Data()[j] = (rng.Float64()*2 - 1) * scale
		}
		t.feedback[i] = b
	}
}

// TrainStep runs one DFA update and returns the loss.
func (t *DFATrainer) TrainStep(lr float64, x *tensor.Tensor, label int) float64 {
	logits := t.Forward(x)
	t.ensureFeedback()
	loss, errGrad := CrossEntropyLoss(logits, label)

	for _, b := range t.blocks {
		for _, p := range b.Param.Params() {
			p.ZeroGrad()
		}
	}
	// Final block: exact gradient (same as BP's last layer).
	last := len(t.blocks) - 1
	t.blocks[last].Param.Backward(errGrad)
	// Hidden blocks: project the error through the fixed feedback matrix,
	// gate with the local activation derivative, and let the layer's own
	// Backward accumulate the parameter gradient.
	e := errGrad.Data()
	for i := 0; i < last; i++ {
		fb := t.feedback[i]
		n := t.lastOuts[i].Len()
		delta := make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			row := fb.Data()[j*t.classes : (j+1)*t.classes]
			for k, ev := range e {
				s += row[k] * ev
			}
			delta[j] = s
		}
		dt := tensor.FromSlice(delta, t.lastOuts[i].Shape()...)
		if t.blocks[i].Act != nil {
			// Route through the activation's derivative gate: its
			// Backward multiplies by f'(h) using its cached input.
			dt = t.blocks[i].Act.Backward(dt)
		}
		t.blocks[i].Param.Backward(dt)
	}
	for _, b := range t.blocks {
		SGD{LearningRate: lr}.Step(b.Param.Params())
	}
	return loss
}
