package core

// The layer-level backward kernel. Every gradient-vector pass Wᵀ·δ is
// served from the *forward* tile grid: each bank keeps the weights it
// already holds for inference and answers the adjoint query from its
// compiled transpose view (mrr/transpose.go), so the backward pass performs
// zero bank programming — no tuner write pulses, no endurance cycles, and
// no forward/backward epoch ping-pong.
//
// Geometry note: tile (r, c) holds W[j0:j1, i0:i1] and contributes
// out[i0:i1] from δ[j0:j1], so the backward pass has no square-bank
// restriction.

import "fmt"

// TransposeMVMBatchInto computes Wᵀ·δ (the gradient-vector pass before the
// Hadamard product) for a whole batch, reprogram-free from the forward tile
// grid's compiled transpose views: sample s occupies ds[s*Out : (s+1)*Out]
// and its input gradient lands in dst[s*In : (s+1)*In], both sample-major.
// The banks must hold the forward weights; a stale layer reprograms forward
// (not transpose) in place, so serving and training share one resident
// layout. The pass is one fan-out over column tiles (see transposeStripe):
// each job streams the whole batch through its row tiles' register-blocked
// adjoint GEMMs in ascending order and merges them into its own input
// columns, so every sample's result is independent of the batch it rides
// in and of the worker count.
func (l *DenseLayer) TransposeMVMBatchInto(dst, ds []float64, batch int) ([]float64, error) {
	in, out := l.spec.In, l.spec.Out
	if batch < 0 || len(ds) < batch*out {
		return nil, fmt.Errorf("core: transpose batch %d×%d needs %d deltas, have %d",
			batch, out, batch*out, len(ds))
	}
	rt, ct := len(l.tiles), len(l.tiles[0])
	if rt > 1 {
		// Row tiles see a strided slice of each sample's delta; gather each
		// row tile's sample-major slab once, before the fan-out (the adjoint
		// twin of ForwardBatchInto's column-tile gather).
		l.stream = growFloats(l.stream, batch*out)
		for r := 0; r < rt; r++ {
			j0 := r * l.rows
			j1 := min(j0+l.rows, out)
			m := j1 - j0
			buf := l.stream[j0*batch : j1*batch]
			for s := 0; s < batch; s++ {
				copy(buf[s*m:(s+1)*m], ds[s*out+j0:s*out+j1])
			}
		}
	}
	l.streamX = growFloats(l.streamX, ct*l.cols*batch)
	dst = growFloats(dst, batch*in)
	stale := l.state != bankForward
	if err := runStripes(ct, stripeArgs{l, dst, ds, batch, stale}, transposeStripe); err != nil {
		return nil, err
	}
	l.state = bankForward
	return dst, nil
}

// transposeStripe is TransposeMVMBatchInto's job for column tile c: its row
// tiles run in ascending order, each partial added into the stripe's own
// input-gradient columns. It returns the flattened (r, c) index of the tile
// that failed with its error.
func transposeStripe(a stripeArgs, c int) (int, error) {
	l, batch := a.l, a.batch
	in, out := l.spec.In, l.spec.Out
	rt, ct := len(l.tiles), len(l.tiles[0])
	i0 := c * l.cols
	i1 := min(i0+l.cols, in)
	for s := 0; s < batch; s++ {
		clear(a.dst[s*in+i0 : s*in+i1])
	}
	part := l.streamX[c*l.cols*batch:][: l.cols*batch : l.cols*batch]
	for r := 0; r < rt; r++ {
		pe := l.tiles[r][c]
		if a.stale {
			if err := pe.Program(l.tileBlock(pe, r, c)); err != nil {
				return r*ct + c, err
			}
		}
		j0 := r * l.rows
		j1 := min(j0+l.rows, out)
		// A single row tile spans every output, so the deltas are the
		// tile's sample-major stream as they stand.
		dt := a.src[:batch*out]
		if rt > 1 {
			dt = l.stream[j0*batch : j1*batch]
		}
		if _, err := pe.TransposePassBatchInto(part, dt, batch, j1-j0, i1-i0); err != nil {
			return r*ct + c, err
		}
		for s := 0; s < batch; s++ {
			g := a.dst[s*in+i0 : s*in+i1]
			for i, v := range part[s*l.cols : s*l.cols+i1-i0] {
				g[i] += v
			}
		}
	}
	return 0, nil
}
