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
	"trident/internal/tensor"
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
	g.nodes[0].batchVal = xs
	for i := 1; i < len(g.nodes); i++ {
		if err := g.forwardTrainNodeBatch(g.nodes[i], batch); err != nil {
			return 0, err
		}
	}
	g.batchDelta = growFloats(g.batchDelta, batch*classes)
	delta := g.batchDelta[:batch*classes]
	var total float64
	for s := 0; s < batch; s++ {
		label := labels[s]
		probs := nn.Softmax(out.batchVal[s*classes : (s+1)*classes])
		total += -math.Log(math.Max(probs[label], 1e-300))
		d := delta[s*classes : (s+1)*classes]
		copy(d, probs)
		d[label] -= 1
	}
	if err := g.backwardBatch(delta, batch); err != nil {
		return 0, err
	}
	return total / float64(batch), nil
}

// forwardTrainNodeBatch is forwardNodeBatch plus per-sample training state:
// dense nodes snapshot the batch's LDSU-latched derivatives, conv nodes
// keep every sample's im2col patches and pre-activations in sample-major
// slabs (the serving path reuses one chunk's slab). Join and pool nodes
// carry no training state and reuse the serving kernels.
func (g *Graph) forwardTrainNodeBatch(n *graphNode, batch int) error {
	prod := g.nodes[n.in[0]]
	switch n.kind {
	case nodeDense:
		l := n.layer
		y, err := l.ForwardBatchInto(n.batchVal, prod.batchVal, batch)
		if err != nil {
			return err
		}
		n.batchVal = y
		out := l.spec.Out
		n.batchDerivs = growFloats(n.batchDerivs, batch*out)
		h := l.batchH
		for i := range n.batchDerivs[:batch*out] {
			if l.spec.Activate {
				n.batchDerivs[i] = l.actCells.Derivative(h[i])
			} else {
				n.batchDerivs[i] = 1
			}
		}
	case nodeConv:
		return g.convForward(n, batch, prod.batchVal, true)
	default:
		return g.forwardNodeBatch(n, batch, g.batchValOf)
	}
	return nil
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

// backwardDenseBatch gates the batch's gradient slab by the latched
// derivatives, runs ONE batched transpose GEMM through the forward-resident
// banks for the producer's gradient, contracts the weight gradient as one
// blocked ΔHᵀ·X GEMM over the whole batch, and applies a single
// mean-gradient update.
func (g *Graph) backwardDenseBatch(n *graphNode, batch int) error {
	l := n.layer
	out := l.spec.Out
	dh := growFloats(n.batchDeltaH, batch*out)
	n.batchDeltaH = dh
	for i := range dh[:batch*out] {
		dh[i] = n.batchGrad[i] * n.batchDerivs[i]
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
	grad := l.gradScratch()
	l.outerProductBatchInto(grad, dh[:batch*out], prod.batchVal, batch)
	scaleGrad(grad, batch)
	l.ApplyUpdate(g.cfg.LearningRate, grad)
	return nil
}

// backwardConvBatch gates every sample's gradient map and builds its
// active-pixel mask, runs the reprogram-free transpose/col2im passes per
// sample (each itself pixel-batched through the bank GEMM), accumulates the
// kernel gradient digitally across the batch, and applies one mean-gradient
// update.
func (g *Graph) backwardConvBatch(n *graphNode, batch int) error {
	s := n.spec
	l := n.layer
	pixels := s.OutH() * s.OutW()
	dsz := s.OutC * pixels
	n.batchDeltaH = growFloats(n.batchDeltaH, batch*dsz)
	if cap(n.batchActive) < batch*pixels {
		n.batchActive = make([]bool, batch*pixels)
	}
	for smp := 0; smp < batch; smp++ {
		pre := n.batchPre[smp*dsz : (smp+1)*dsz]
		grad := n.batchGrad[smp*dsz : (smp+1)*dsz]
		dh := n.batchDeltaH[smp*dsz : (smp+1)*dsz]
		active := n.batchActive[smp*pixels : (smp+1)*pixels]
		for p := range active {
			active[p] = false
		}
		for i, gv := range grad {
			v := gv * n.act.Derivative(pre[i])
			dh[i] = v
			if v != 0 {
				active[i%pixels] = true
			}
		}
	}
	prod := g.nodes[n.in[0]]
	if prod.kind != nodeInput {
		if n.dIn == nil {
			n.dIn = tensor.New(s.InC, s.InH, s.InW)
		}
		n.batchDIn = growFloats(n.batchDIn, batch*prod.size)
		for smp := 0; smp < batch; smp++ {
			n.dIn.Zero()
			err := streamTransposeCol2im(l, s, n.batchDeltaH[smp*dsz:(smp+1)*dsz],
				n.batchActive[smp*pixels:(smp+1)*pixels], &n.dInPart, n.dIn)
			if err != nil {
				return err
			}
			copy(n.batchDIn[smp*prod.size:(smp+1)*prod.size], n.dIn.Data())
		}
		g.accumulateBatch(n.in[0], n.batchDIn[:batch*prod.size], batch)
	}
	kernGrad := l.gradScratch()
	patchDim := s.InC * s.KH * s.KW
	for smp := 0; smp < batch; smp++ {
		err := l.streamOuterProduct(n.batchPatches[smp*patchDim*pixels:(smp+1)*patchDim*pixels],
			n.batchDeltaH[smp*dsz:(smp+1)*dsz], n.batchActive[smp*pixels:(smp+1)*pixels],
			pixels, kernGrad)
		if err != nil {
			return err
		}
	}
	scaleGrad(kernGrad, batch)
	l.ApplyUpdate(g.cfg.LearningRate, kernGrad)
	return nil
}

// scaleGrad turns the batch-summed gradient into the mean gradient. Skipped
// entirely at batch 1, where the sum already is the sample's gradient (and
// even ×1.0 is not always a float no-op for NaN payloads).
func scaleGrad(grad [][]float64, batch int) {
	if batch <= 1 {
		return
	}
	inv := 1 / float64(batch)
	for j := range grad {
		row := grad[j]
		for i := range row {
			row[i] *= inv
		}
	}
}

// outerProductBatchInto contracts the batch's rank-1 weight-gradient
// updates into one blocked digital GEMM: grad[j][i] = Σ_s δh[s,j]·x[s,i],
// kernel rows sharded across the worker pool in fixed blocks, samples
// accumulated in ascending order per cell — bit-identical at any worker
// count. The first sample assigns rather than adds, so the gradient needs
// no zeroing and batch 1 is the plain rank-1 product δh·xᵀ.
func (l *DenseLayer) outerProductBatchInto(grad [][]float64, dhs, xs []float64, batch int) {
	out, in := l.spec.Out, l.spec.In
	blocks := (out + gradRowBlock - 1) / gradRowBlock
	RunIndexed(blocks, func(bi int) {
		j0 := bi * gradRowBlock
		j1 := min(j0+gradRowBlock, out)
		for j := j0; j < j1; j++ {
			row := grad[j][:in]
			dh := dhs[j]
			for i, xv := range xs[:in] {
				row[i] = dh * xv
			}
			for s := 1; s < batch; s++ {
				dh = dhs[s*out+j]
				x := xs[s*in : (s+1)*in]
				for i, xv := range x {
					row[i] += dh * xv
				}
			}
		}
	})
}
