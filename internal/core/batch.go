package core

// The layer-level forward path. Trident serves edge workloads weight-
// stationary: once a layer's W is resident in the PCM banks, any number of
// input vectors can stream through without reprogramming. Every forward
// pass — serving, training and the batch-of-one Forward, dense layers and
// conv kernels alike — streams its B input vectors through each tile
// back-to-back, so the per-batch cost is one fan-out plus B optical passes
// per tile, with every scratch buffer reused across samples and across
// calls. A conv node's vectors are its samples' im2col patch rows, one per
// output pixel (see Graph.convForward).
//
// Determinism contract: each tile PE sees its vectors in batch order, one
// noise draw and one ledger booking per vector, so a sample's outputs,
// noise stream and bookings are the same whether it runs alone or inside
// a batch.
//
// Parallelism is one level: the layer's row-tile stripes fan out across the
// worker pool here — one job per stripe, which reprograms its stale banks,
// runs its column tiles' passes, merges their partial sums and fires the
// activation, so a layer pass is a single fan-out of rt jobs. Each bank's
// compiled batch GEMM runs on its stripe's goroutine: on the chip a bank is
// one PE, and it is the PEs that compute in parallel.
//
// Every pass computes only a tile's live extent. The last row tile of a
// layer whose output count is not a multiple of the bank height J holds
// m < J live rows (a 6-output conv on 8-row banks uses 6 of its tile's 8
// rows), and its forward pass runs the bank GEMM over those m rows alone;
// the transpose pass does the same for the live columns of a partial
// column tile. A dead row still takes its detection-noise draw and its
// clocks, so noise streams and ledgers are those of a full pass (see
// PE.MVMPassBatchInto).

import (
	"fmt"
	"math"
)

// ForwardBatchInto runs the layer on a batch: sample s occupies
// xs[s*In : (s+1)*In] and its activated outputs land in
// dst[s*Out : (s+1)*Out], both sample-major (dst grown only when nil or
// short). An activated layer keeps its pre-activations in its batchH
// scratch, from which the training walk reads the latched derivatives; a
// linear layer sums its tiles straight into dst.
//
// The pass is one fan-out over row tiles (see forwardStripe): each job owns
// one stripe of the tile grid, reprograms a stale bank in place, streams the
// batch through its column tiles in ascending order, merges their partial
// sums into its own output rows and fires the GST activation on the
// stripe's first tile. Every output element therefore sees the same
// additions in the same order, and every PE the same program → pass →
// activate sequence, at any worker count. The banks count as holding W
// only once every stripe has programmed.
func (l *DenseLayer) ForwardBatchInto(dst, xs []float64, batch int) ([]float64, error) {
	in, out := l.spec.In, l.spec.Out
	if batch < 0 || len(xs) < batch*in {
		return nil, fmt.Errorf("core: batch %d×%d needs %d inputs, have %d", batch, in, batch*in, len(xs))
	}
	rt, ct := len(l.tiles), len(l.tiles[0])
	if ct > 1 {
		// Column tiles see a strided slice of each sample; gather each
		// column tile's sample-major slab once, before the fan-out, so every
		// stripe streams it through its bank's register-blocked kernel.
		l.streamX = growFloats(l.streamX, batch*in)
		for c := 0; c < ct; c++ {
			i0 := c * l.cols
			i1 := min(i0+l.cols, in)
			n := i1 - i0
			buf := l.streamX[i0*batch : i1*batch]
			for s := 0; s < batch; s++ {
				copy(buf[s*n:(s+1)*n], xs[s*in+i0:s*in+i1])
			}
		}
	}
	l.stream = growFloats(l.stream, rt*l.rows*batch)
	if l.spec.Activate {
		l.batchH = growFloats(l.batchH, batch*out)
	}
	dst = growFloats(dst, batch*out)
	stale := l.state != bankForward
	if err := runStripes(rt, stripeArgs{l, dst, xs, batch, stale}, forwardStripe); err != nil {
		return nil, err
	}
	l.state = bankForward
	return dst, nil
}

// stripeArgs is one layer pass's input, handed to every stripe job.
type stripeArgs struct {
	l        *DenseLayer
	dst, src []float64
	batch    int
	stale    bool // the banks do not hold W: program each tile first
}

// forwardStripe is ForwardBatchInto's job for row tile r. It returns the
// flattened (r, c) index of the tile that failed with its error.
func forwardStripe(a stripeArgs, r int) (int, error) {
	l, batch := a.l, a.batch
	in, out := l.spec.In, l.spec.Out
	ct := len(l.tiles[0])
	j0 := r * l.rows
	j1 := min(j0+l.rows, out)
	m := j1 - j0
	h := a.dst
	if l.spec.Activate {
		h = l.batchH
	}
	for s := 0; s < batch; s++ {
		clear(h[s*out+j0 : s*out+j1])
	}
	part := l.stream[r*l.rows*batch:][: l.rows*batch : l.rows*batch]
	for c := 0; c < ct; c++ {
		pe := l.tiles[r][c]
		if a.stale {
			if err := pe.Program(l.tileBlock(pe, r, c)); err != nil {
				return r*ct + c, err
			}
		}
		i0 := c * l.cols
		i1 := min(i0+l.cols, in)
		// A single column tile spans the whole input, which then is the
		// tile's sample-major stream as it stands.
		xt := a.src[:batch*in]
		if ct > 1 {
			xt = l.streamX[i0*batch : i1*batch]
		}
		if _, err := pe.MVMPassBatchInto(part, xt, batch, i1-i0, m); err != nil {
			return r*ct + c, err
		}
		for s := 0; s < batch; s++ {
			hs := h[s*out+j0 : s*out+j1]
			for j, v := range part[s*l.rows : s*l.rows+m] {
				hs[j] += v
			}
		}
	}
	if !l.spec.Activate {
		return 0, nil
	}
	pe := l.tiles[r][0]
	for s := 0; s < batch; s++ {
		if _, err := pe.ActivateInto(a.dst[s*out+j0:s*out+j1], h[s*out+j0:s*out+j1]); err != nil {
			return r * ct, err
		}
	}
	return 0, nil
}

// argmax returns the index of the largest value (first wins on ties).
func argmax(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// argmaxRows writes the argmax class of each classes-wide row of the
// sample-major logits into dst, reusing dst when large enough.
func argmaxRows(dst []int, logits []float64, batch, classes int) []int {
	if cap(dst) < batch {
		dst = make([]int, batch)
	}
	dst = dst[:batch]
	for s := range dst {
		dst[s] = argmax(logits[s*classes : (s+1)*classes])
	}
	return dst
}
