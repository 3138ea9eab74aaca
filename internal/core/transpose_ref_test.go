package core

// The retired per-tile conv transpose, kept as the reference the column-
// stripe conv backward is bounded against (TestConvTransposeMatchesTileMajorReference).
// Each sample fanned out once per tile, each tile scattered its col2im
// into its own buffer, and the buffers merged tile-major; the stripe pass
// sums row tiles first and runs col2im pixel-major, so only the float
// summation order of the conv input gradient differs. The exported shims
// below let the external bound test drive it on models.HardwareMiniBranched.

import (
	"trident/internal/nn"
	"trident/internal/tensor"
)

// ensureDInPart sizes the per-tile conv input-gradient buffers (tiles × n,
// flat-backed) that streamTransposeCol2im scatters into.
func ensureDInPart(partBuf *[][]float64, tiles, n int) [][]float64 {
	dInPart := *partBuf
	if dInPart == nil || len(dInPart) < tiles || len(dInPart[0]) < n {
		flat := make([]float64, tiles*n)
		dInPart = make([][]float64, tiles)
		for t := range dInPart {
			dInPart[t] = flat[t*n : (t+1)*n]
		}
		*partBuf = dInPart
	}
	return dInPart
}

// streamTransposeCol2im runs a conv node's gradient-vector passes
// reprogram-free: deltaH holds one sample's deltas pixel-major (pixels ×
// Out), and each forward tile gathers the active pixels' delta slices into
// a pixel-major slab, streams them through its bank's compiled
// transpose view in one batched adjoint GEMM (pixels in ascending order, so
// the PE's noise and energy sequence equals the serial per-pixel loop), and
// scatters its patch-gradient rows via col2im into a per-tile buffer. The
// buffers merge into dst in fixed tile order, independent of worker count.
func streamTransposeCol2im(l *DenseLayer, s tensor.Conv2DSpec, deltaH []float64, active []bool, partBuf *[][]float64, dst *tensor.Tensor) error {
	pixels := s.OutH() * s.OutW()
	nact := 0
	for _, a := range active[:pixels] {
		if a {
			nact++
		}
	}
	if nact == 0 {
		return nil // dst is pre-zeroed by the caller; nothing to scatter
	}
	if l.state != bankForward {
		if err := l.programForward(); err != nil {
			return err
		}
	}
	rt, ct := len(l.tiles), len(l.tiles[0])
	n := dst.Len()
	dInPart := ensureDInPart(partBuf, rt*ct, n)
	l.stream = growFloats(l.stream, rt*ct*l.rows*pixels)
	l.streamX = growFloats(l.streamX, rt*ct*l.cols*pixels)
	dSlab, oSlab := l.stream, l.streamX
	if err := runTiles(rt, ct, func(r, c int) error {
		pe := l.tiles[r][c]
		j0 := r * l.rows
		j1 := min(j0+l.rows, l.spec.Out)
		i0 := c * l.cols
		i1 := min(i0+l.cols, l.spec.In)
		m := j1 - j0
		buf := dInPart[r*ct+c][:n]
		for i := range buf {
			buf[i] = 0
		}
		din := dSlab[(r*ct+c)*l.rows*pixels:][: m*nact : m*nact]
		idx := 0
		for p := 0; p < pixels; p++ {
			if !active[p] {
				continue
			}
			copy(din[idx*m:(idx+1)*m], deltaH[p*l.spec.Out+j0:p*l.spec.Out+j1])
			idx++
		}
		o := oSlab[(r*ct+c)*l.cols*pixels:][: l.cols*nact : l.cols*nact]
		if _, err := pe.TransposePassBatchInto(o, din, nact, m, pe.Cols()); err != nil {
			return err
		}
		idx = 0
		for p := 0; p < pixels; p++ {
			if !active[p] {
				continue
			}
			col2imAddRows(buf, o[idx*l.cols:][:i1-i0], i0, s, p)
			idx++
		}
		return nil
	}); err != nil {
		return err
	}
	out := dst.Data()
	for t := 0; t < rt*ct; t++ {
		for i, v := range dInPart[t][:n] {
			if v != 0 {
				out[i] += v
			}
		}
	}
	return nil
}

// referenceBackwardConvBatch is the retired backwardConvBatch: it gates the
// batch into pixel-major deltas with a per-sample active-pixel mask, runs
// streamTransposeCol2im once per sample, and applies the same weight step.
func referenceBackwardConvBatch(g *Graph, n *graphNode, batch int) error {
	s := n.spec
	l := n.layer
	out := l.spec.Out
	pixels := n.h * n.w
	n.batchDeltaH = growFloats(n.batchDeltaH, batch*n.size)
	batchActive := make([]bool, batch*pixels)
	for smp := 0; smp < batch; smp++ {
		pre := n.batchPre[smp*n.size : (smp+1)*n.size]
		grad := n.batchGrad[smp*n.size : (smp+1)*n.size]
		dh := n.batchDeltaH[smp*n.size : (smp+1)*n.size]
		active := batchActive[smp*pixels : (smp+1)*pixels]
		for p := range active {
			on := false
			for j := 0; j < out; j++ {
				v := grad[j*pixels+p] * l.actCells.Derivative(pre[p*out+j])
				dh[p*out+j] = v
				on = on || v != 0
			}
			active[p] = on
		}
	}
	prod := g.nodes[n.in[0]]
	if prod.kind != nodeInput {
		dIn := tensor.New(s.InC, s.InH, s.InW)
		var dInPart [][]float64
		n.batchDIn = growFloats(n.batchDIn, batch*prod.size)
		for smp := 0; smp < batch; smp++ {
			dIn.Zero()
			err := streamTransposeCol2im(l, s, n.batchDeltaH[smp*n.size:(smp+1)*n.size],
				batchActive[smp*pixels:(smp+1)*pixels], &dInPart, dIn)
			if err != nil {
				return err
			}
			copy(n.batchDIn[smp*prod.size:(smp+1)*prod.size], dIn.Data())
		}
		g.accumulateBatch(n.in[0], n.batchDIn[:batch*prod.size], batch)
	}
	l.applyBatchGradient(g.cfg.LearningRate, n.batchDeltaH[:batch*n.size], n.batchPatches, batch*pixels, batch)
	return nil
}

// ReferenceTrainBatch is TrainBatch with every conv node's backward run
// through referenceBackwardConvBatch; it returns nothing but the error, the
// bound test compares side effects.
func ReferenceTrainBatch(g *Graph, xs []float64, labels []int) error {
	batch := len(labels)
	g.nodes[0].batchVal = xs
	for i := 1; i < len(g.nodes); i++ {
		if err := g.forwardNodeBatch(g.nodes[i], batch, 0, xs, true); err != nil {
			return err
		}
	}
	out := g.nodes[g.output]
	classes := out.size
	delta := make([]float64, batch*classes)
	for s, label := range labels {
		d := nn.SoftmaxInto(delta[s*classes:(s+1)*classes], out.batchVal[s*classes:(s+1)*classes])
		d[label] -= 1
	}
	for _, n := range g.nodes {
		n.gradSet = false
	}
	g.accumulateBatch(g.output, delta, batch)
	for i := len(g.nodes) - 1; i >= 1; i-- {
		n := g.nodes[i]
		if !n.gradSet {
			continue
		}
		var err error
		if n.kind == nodeConv {
			err = referenceBackwardConvBatch(g, n, batch)
		} else {
			err = g.backwardNodeBatch(n, batch)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ConvInputGrads copies the last backward pass's input-gradient slab of
// every conv node that has a layer producer, in node order.
func ConvInputGrads(g *Graph, batch int) [][]float64 {
	var out [][]float64
	for _, n := range g.nodes {
		if n.kind != nodeConv || g.nodes[n.in[0]].kind == nodeInput {
			continue
		}
		size := g.nodes[n.in[0]].size
		out = append(out, append([]float64(nil), n.batchDIn[:batch*size]...))
	}
	return out
}

// NextNoiseDraw advances pe's detection-noise stream by one unit-sigma
// draw and returns it (0 when noise is off).
func NextNoiseDraw(pe *PE) float64 {
	if pe.noise == nil {
		return 0
	}
	v := []float64{0}
	pe.noise.addNoise(v, 1)
	return v[0]
}
