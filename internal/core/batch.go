package core

// The layer-level forward path. Trident serves edge workloads weight-
// stationary: once a layer's W is resident in the PCM banks, any number of
// input vectors can stream through without reprogramming. Every forward
// pass — serving, training and the batch-of-one Forward — streams its B
// samples through each tile back-to-back, so the per-batch cost is one tile
// fan-out plus B optical passes per tile, with every scratch buffer reused
// across samples and across calls.
//
// Determinism contract: each tile PE sees its samples in batch order, one
// noise draw and one ledger booking per sample, so a sample's outputs,
// noise stream and bookings are the same whether it runs alone or inside
// a batch.
//
// Parallelism is two-level: tiles fan out across the worker pool here, and
// inside each tile the bank's compiled batch GEMM fans its row blocks out
// across the same pool (PEs install core.RunIndexed as the bank's
// ParallelFor hook). When the outer fan-out saturates the pool the inner
// one degrades to in-line execution, so a single-tile network still uses
// every worker on the bank GEMM while a many-tile network parallelizes
// across tiles — without oversubscription in either case.

import (
	"fmt"
	"math"
)

// MVMBatchInto runs forward-layout optical passes for a whole batch: sample
// s occupies xs[s*In : (s+1)*In] and its pre-activations land in
// dst[s*Out : (s+1)*Out], both sample-major. Tiles fan out across the worker
// pool; each tile streams every sample through its bank in batch order, and
// the per-tile partial sums are merged afterwards per sample in fixed
// (rowTile, colTile) order, so results are bit-identical to B calls with a
// batch of one.
func (l *DenseLayer) MVMBatchInto(dst, xs []float64, batch int) ([]float64, error) {
	in, out := l.spec.In, l.spec.Out
	if batch < 0 || len(xs) < batch*in {
		return nil, fmt.Errorf("core: batch %d×%d needs %d inputs, have %d", batch, in, batch*in, len(xs))
	}
	if l.state != bankForward {
		if err := l.programForward(); err != nil {
			return nil, err
		}
	}
	rt, ct := len(l.tiles), len(l.tiles[0])
	rows := l.rows
	l.stream = growFloats(l.stream, rt*ct*rows*batch)
	slab := l.stream
	if ct > 1 {
		// Column tiles see a strided slice of each sample; gather them into
		// per-tile sample-major slabs so the whole batch can stream through
		// the bank's register-blocked kernel in one call. The O(batch·In)
		// copy is negligible next to the O(batch·Out·In) optical passes.
		l.streamX = growFloats(l.streamX, rt*ct*l.cols*batch)
	}
	inSlab := l.streamX
	if err := runTiles(rt, ct, func(r, c int) error {
		pe := l.tiles[r][c]
		i0 := c * l.cols
		i1 := min(i0+l.cols, in)
		n := i1 - i0
		tileOut := slab[(r*ct+c)*rows*batch:][: rows*batch : rows*batch]
		xt := xs[:batch*in]
		if ct > 1 {
			buf := inSlab[(r*ct+c)*l.cols*batch:][: n*batch : n*batch]
			for s := 0; s < batch; s++ {
				copy(buf[s*n:(s+1)*n], xs[s*in+i0:s*in+i1])
			}
			xt = buf
		}
		// With a single column tile, i0 = 0 and n = In: xs itself is the
		// tile's sample-major input stream.
		_, err := pe.MVMPassBatchInto(tileOut, xt, batch, n)
		return err
	}); err != nil {
		return nil, err
	}
	dst = growFloats(dst, batch*out)
	for i := range dst {
		dst[i] = 0
	}
	for s := 0; s < batch; s++ {
		h := dst[s*out : (s+1)*out]
		for r := 0; r < rt; r++ {
			j0 := r * rows
			j1 := min(j0+rows, out)
			for c := 0; c < ct; c++ {
				part := slab[((r*ct+c)*batch+s)*rows:]
				for j := j0; j < j1; j++ {
					h[j] += part[j-j0]
				}
			}
		}
	}
	return dst, nil
}

// ForwardBatchInto runs the layer on a batch: tile MVM passes, electronic
// partial-sum merge, then the GST activation (when enabled) on the row-tile
// PEs, each row tile walking its samples in batch order. dst receives the
// activated outputs sample-major (grown only when nil or short); the
// pre-activations stay in the layer's batchH scratch, from which the
// training walk reads the latched derivatives.
func (l *DenseLayer) ForwardBatchInto(dst, xs []float64, batch int) ([]float64, error) {
	out := l.spec.Out
	h, err := l.MVMBatchInto(l.batchH, xs, batch)
	if err != nil {
		return nil, err
	}
	l.batchH = h
	dst = growFloats(dst, batch*out)
	if !l.spec.Activate {
		copy(dst, h[:batch*out])
		return dst, nil
	}
	if err := runTiles(len(l.tiles), 1, func(r, _ int) error {
		j0 := r * l.rows
		j1 := min(j0+l.rows, out)
		pe := l.tiles[r][0]
		for s := 0; s < batch; s++ {
			if _, err := pe.ActivateInto(dst[s*out+j0:s*out+j1], h[s*out+j0:s*out+j1]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return dst, nil
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
