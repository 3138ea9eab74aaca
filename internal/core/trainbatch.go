package core

// In-situ training. TrainBatch is the graph's only training walk, and
// TrainSample is a batch of one. It runs minibatch SGD on the hardware
// model: one batched forward walk on the same resident weights for every
// sample (the weight-stationary banks never reprogram mid-batch), a
// batched backward walk whose gradient-vector passes run through the
// banks' compiled transpose views (zero programming writes — see
// transpose.go), and per layer ONE blocked digital ΔHᵀ·X GEMM in place of
// B rank-1 outer-product passes, followed by a single weight update on the
// mean gradient.
//
// Determinism contract: TrainBatch(xs, labels) output and every hardware
// side effect (noise streams, ledgers) are bit-identical at any worker
// count — every fan-out either owns disjoint output blocks or merges in
// fixed tile order. At B = 1 the 1/B gradient scale is skipped, so a
// batch of one applies the plain per-sample gradient.

import (
	"fmt"
	"math"

	"trident/internal/nn"
)

// TrainBatch runs one minibatch training step — batched forward, softmax
// cross-entropy deltas, batched backward with reprogram-free transpose
// GEMMs, and one mean-gradient update per layer — and returns the mean
// loss over the batch. Sample s occupies xs[s*In : (s+1)*In] and
// labels[s]; the batch size is len(labels).
//
// Semantics are minibatch SGD, not B sequential TrainSample steps: every
// sample sees the same weights, so for batch > 1 the result intentionally
// differs from a TrainSample loop (which updates weights between samples).
func (g *Graph) TrainBatch(xs []float64, labels []int) (float64, error) {
	if !g.outputSet {
		return 0, fmt.Errorf("core: graph output not set")
	}
	batch := len(labels)
	if batch == 0 {
		return 0, fmt.Errorf("core: empty training batch")
	}
	in := g.nodes[0].size
	if len(xs) < batch*in {
		return 0, fmt.Errorf("core: batch %d×%d needs %d inputs, have %d",
			batch, in, batch*in, len(xs))
	}
	out := g.nodes[g.output]
	classes := out.size
	// Reject bad labels before the walk books energy or draws noise.
	for _, label := range labels {
		if label < 0 || label >= classes {
			return 0, fmt.Errorf("core: label %d out of range [0,%d)", label, classes)
		}
	}
	// A full-batch walk: the backward walk reads every sample's activations.
	g.nodes[0].batchVal = xs
	for i := 1; i < len(g.nodes); i++ {
		if err := g.forwardNodeBatch(g.nodes[i], batch, 0, xs, true); err != nil {
			return 0, err
		}
	}
	g.batchDelta = growFloats(g.batchDelta, batch*classes)
	delta := g.batchDelta[:batch*classes]
	var total float64
	for s := 0; s < batch; s++ {
		label := labels[s]
		d := nn.SoftmaxInto(delta[s*classes:(s+1)*classes], out.batchVal[s*classes:(s+1)*classes])
		total += -math.Log(math.Max(d[label], 1e-300))
		d[label] -= 1
	}
	if err := g.backwardBatch(delta, batch); err != nil {
		return 0, err
	}
	return total / float64(batch), nil
}

// backwardBatch walks the graph in reverse construction order over
// sample-major gradient slabs, gating each layer node's incoming gradient
// by its LDSU-latched derivatives, running the hardware transpose passes
// and the weight update; join and pool nodes route gradients digitally,
// accumulating at fan-out points in fixed node order.
func (g *Graph) backwardBatch(delta []float64, batch int) error {
	for _, n := range g.nodes {
		n.gradSet = false
	}
	g.accumulateBatch(g.output, delta, batch)
	for i := len(g.nodes) - 1; i >= 1; i-- {
		n := g.nodes[i]
		if !n.gradSet {
			continue
		}
		if err := g.backwardNodeBatch(n, batch); err != nil {
			return err
		}
	}
	return nil
}

// accumulateBatch adds a sample-major gradient slab to a node: the first
// contribution is copied, later ones (branch fan-out) add element-wise in
// fixed node order.
func (g *Graph) accumulateBatch(id NodeID, vals []float64, batch int) {
	n := g.nodes[id]
	if n.kind == nodeInput {
		return
	}
	n.batchGrad = growFloats(n.batchGrad, batch*n.size)
	if !n.gradSet {
		copy(n.batchGrad[:batch*n.size], vals[:batch*n.size])
		n.gradSet = true
		return
	}
	for i, v := range vals[:batch*n.size] {
		n.batchGrad[i] += v
	}
}

func (g *Graph) backwardNodeBatch(n *graphNode, batch int) error {
	switch n.kind {
	case nodeDense:
		return g.backwardDenseBatch(n, batch)
	case nodeConv:
		return g.backwardConvBatch(n, batch)
	case nodeGAP:
		prod := g.nodes[n.in[0]]
		pixels := prod.h * prod.w
		n.batchDeltaH = growFloats(n.batchDeltaH, batch*prod.size)
		scale := 1 / float64(pixels)
		for s := 0; s < batch; s++ {
			grad := n.batchGrad[s*n.size:]
			dh := n.batchDeltaH[s*prod.size : (s+1)*prod.size]
			for oc := 0; oc < n.size; oc++ {
				t := grad[oc] * scale
				for p := 0; p < pixels; p++ {
					dh[oc*pixels+p] = t
				}
			}
		}
		g.accumulateBatch(n.in[0], n.batchDeltaH[:batch*prod.size], batch)
	case nodeAdd:
		g.accumulateBatch(n.in[0], n.batchGrad[:batch*n.size], batch)
		g.accumulateBatch(n.in[1], n.batchGrad[:batch*n.size], batch)
	case nodeConcat:
		off := 0
		for _, id := range n.in {
			sz := g.nodes[id].size
			n.batchDeltaH = growFloats(n.batchDeltaH, batch*sz)
			piece := n.batchDeltaH[:batch*sz]
			for s := 0; s < batch; s++ {
				copy(piece[s*sz:(s+1)*sz], n.batchGrad[s*n.size+off:s*n.size+off+sz])
			}
			g.accumulateBatch(id, piece, batch)
			off += sz
		}
	}
	return nil
}

// backwardDenseBatch gates the batch's gradient slab by the derivatives
// the LDSU latches from the forward pre-activations (a linear layer passes
// it through), runs ONE batched transpose GEMM through the forward-resident
// banks for the producer's gradient, and applies a single mean-gradient
// update contracted as one blocked ΔHᵀ·X GEMM over the whole batch (see
// applyBatchGradient).
func (g *Graph) backwardDenseBatch(n *graphNode, batch int) error {
	l := n.layer
	out := l.spec.Out
	dh := growFloats(n.batchDeltaH, batch*out)
	n.batchDeltaH = dh
	if l.spec.Activate {
		for i, h := range l.batchH[:batch*out] {
			dh[i] = n.batchGrad[i] * l.actCells.Derivative(h)
		}
	} else {
		copy(dh, n.batchGrad[:batch*out])
	}
	prod := g.nodes[n.in[0]]
	if prod.kind != nodeInput {
		raw, err := l.TransposeMVMBatchInto(n.batchDIn, dh[:batch*out], batch)
		if err != nil {
			return err
		}
		n.batchDIn = raw
		g.accumulateBatch(n.in[0], raw[:batch*l.spec.In], batch)
	}
	l.applyBatchGradient(g.cfg.LearningRate, dh[:batch*out], prod.batchVal, batch, batch)
	return nil
}

// backwardConvBatch gates every sample's gradient map into pixel-major
// deltas and, when the producer takes a gradient, compacts the batch's
// active pixel rows (a row with any non-zero delta) into one slab in
// sample-then-pixel order. The slab makes ONE reprogram-free transpose
// pass through the column stripes — each PE sees the rows in that order,
// so its noise draws and ledger equal one pass per sample — and each row's
// patch gradient is then scattered by col2im into its sample's
// input-gradient row, pixels in ascending order. A batch with no active
// pixel makes no pass, so it books nothing. One mean-gradient update
// closes the node: the dense weight step over the batch's samples·pixels
// patch rows.
func (g *Graph) backwardConvBatch(n *graphNode, batch int) error {
	l := n.layer
	out, in := l.spec.Out, l.spec.In
	pixels := n.h * n.w
	prod := g.nodes[n.in[0]]
	backprop := prod.kind != nodeInput
	n.batchDeltaH = growFloats(n.batchDeltaH, batch*n.size)
	n.activeRows, n.activeDelta = n.activeRows[:0], n.activeDelta[:0]
	for smp := 0; smp < batch; smp++ {
		pre := n.batchPre[smp*n.size : (smp+1)*n.size]
		grad := n.batchGrad[smp*n.size : (smp+1)*n.size]
		for p := 0; p < pixels; p++ {
			dh := n.batchDeltaH[(smp*pixels+p)*out : (smp*pixels+p+1)*out]
			on := false
			for j := range dh {
				v := grad[j*pixels+p] * l.actCells.Derivative(pre[p*out+j])
				dh[j] = v
				on = on || v != 0
			}
			if backprop && on {
				n.activeRows = append(n.activeRows, smp*pixels+p)
				n.activeDelta = append(n.activeDelta, dh...)
			}
		}
	}
	if backprop {
		dIn := growFloats(n.batchDIn, batch*prod.size)
		n.batchDIn = dIn
		clear(dIn)
		if rows := len(n.activeRows); rows > 0 {
			patchGrad, err := l.TransposeMVMBatchInto(n.batchPatchGrad, n.activeDelta, rows)
			if err != nil {
				return err
			}
			n.batchPatchGrad = patchGrad
			for k, r := range n.activeRows {
				smp := r / pixels
				col2imAddRows(dIn[smp*prod.size:(smp+1)*prod.size], patchGrad[k*in:(k+1)*in], 0, n.spec, r%pixels)
			}
		}
		g.accumulateBatch(n.in[0], dIn, batch)
	}
	l.applyBatchGradient(g.cfg.LearningRate, n.batchDeltaH[:batch*n.size], n.batchPatches, batch*pixels, batch)
	return nil
}

// gradRowBlock is the weight-row granularity of the digital weight step:
// each worker owns whole row blocks, so every gradient cell is accumulated
// by exactly one goroutine in ascending stream-row order — bit-identical at
// any worker count.
const gradRowBlock = 16

// applyBatchGradient is a layer's whole weight step, fused into one pass
// per row block: the rows stream rows of deltas dhs (Out wide) and inputs
// xs (In wide) — one per sample for a dense layer, one per sample and
// output pixel for a conv kernel — contract as one digital GEMM,
// δW[j][i] = Σ_r δh[r,j]·x[r,i], which is divided by the batch size
// (skipped when divisor is 1) and applied as the equation (1) update
// W ← clamp(W − β·δW) while still in registers. Rows shard across the
// worker pool in fixed blocks of gradRowBlock, each row swept four columns
// at a time; each cell accumulates its stream rows in ascending order and
// the first row assigns rather than adds (so a −0 product survives as it
// would in a zeroed-then-assigned buffer), which keeps every weight
// bit-identical to separate contract, scale and update passes at any
// worker count. The row blocks run as capture-free stripe jobs (see
// runStripes), so a step that runs in-line allocates nothing.
func (l *DenseLayer) applyBatchGradient(beta float64, dhs, xs []float64, rows, divisor int) {
	blocks := (l.spec.Out + gradRowBlock - 1) / gradRowBlock
	_ = runStripes(blocks, gradStep{l, beta, dhs, xs, rows, divisor}, gradBlock) // gradBlock never fails
	l.state = bankStale
}

// gradStep is one applyBatchGradient call, handed to every row-block job.
type gradStep struct {
	l             *DenseLayer
	beta          float64
	dhs, xs       []float64
	rows, divisor int
}

// gradBlock is applyBatchGradient's job for weight-row block bi.
func gradBlock(a gradStep, bi int) (int, error) {
	j0 := bi * gradRowBlock
	for j := j0; j < min(j0+gradRowBlock, a.l.spec.Out); j++ {
		a.l.updateRow(a.beta, a.dhs, a.xs, a.rows, a.divisor, j)
	}
	return 0, nil
}

// updateRow runs applyBatchGradient for row j.
func (l *DenseLayer) updateRow(beta float64, dhs, xs []float64, rows, divisor, j int) {
	out, in := l.spec.Out, l.spec.In
	inv := 1 / float64(divisor)
	// step turns a summed gradient cell into the updated weight.
	step := func(w, g float64) float64 {
		if divisor > 1 {
			g *= inv
		}
		return clamp1(w - beta*g)
	}
	w := l.w[j][:in]
	i := 0
	for ; i+4 <= in; i += 4 {
		d := dhs[j]
		x := xs[i : i+4 : i+4]
		a0, a1, a2, a3 := d*x[0], d*x[1], d*x[2], d*x[3]
		for r := 1; r < rows; r++ {
			d = dhs[r*out+j]
			x = xs[r*in+i : r*in+i+4 : r*in+i+4]
			a0 += d * x[0]
			a1 += d * x[1]
			a2 += d * x[2]
			a3 += d * x[3]
		}
		w[i], w[i+1], w[i+2], w[i+3] = step(w[i], a0), step(w[i+1], a1), step(w[i+2], a2), step(w[i+3], a3)
	}
	for ; i < in; i++ {
		a := dhs[j] * xs[i]
		for r := 1; r < rows; r++ {
			a += dhs[r*out+j] * xs[r*in+i]
		}
		w[i] = step(w[i], a)
	}
}
