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

import (
	"fmt"

	"trident/internal/tensor"
)

// TransposeMVMBatchInto computes Wᵀ·δ (the gradient-vector pass before the
// Hadamard product) for a whole batch, reprogram-free from the forward tile
// grid's compiled transpose views: sample s occupies ds[s*Out : (s+1)*Out]
// and its input gradient lands in dst[s*In : (s+1)*In], both sample-major.
// The banks must hold the forward weights; a stale layer reprograms forward
// (not transpose) first, so serving and training share one resident
// layout. Tiles fan out across the worker pool, each streaming the whole
// batch through the bank's register-blocked adjoint GEMM; per-tile partials
// merge per sample in fixed (rowTile, colTile) order, so every sample's
// result is independent of the batch it rides in and of the worker count.
func (l *DenseLayer) TransposeMVMBatchInto(dst, ds []float64, batch int) ([]float64, error) {
	in, out := l.spec.In, l.spec.Out
	if batch < 0 || len(ds) < batch*out {
		return nil, fmt.Errorf("core: transpose batch %d×%d needs %d deltas, have %d",
			batch, out, batch*out, len(ds))
	}
	if l.state != bankForward {
		if err := l.programForward(); err != nil {
			return nil, err
		}
	}
	rt, ct := len(l.tiles), len(l.tiles[0])
	l.stream = growFloats(l.stream, rt*ct*l.rows*batch)
	l.streamX = growFloats(l.streamX, rt*ct*l.cols*batch)
	dSlab, oSlab := l.stream, l.streamX
	if err := runTiles(rt, ct, func(r, c int) error {
		pe := l.tiles[r][c]
		j0 := r * l.rows
		j1 := min(j0+l.rows, out)
		m := j1 - j0
		dt := ds[:batch*out]
		if rt > 1 {
			// Row tiles see a strided slice of each sample's delta; gather
			// them into per-tile sample-major slabs (the adjoint twin of
			// MVMBatchInto's column-tile gather).
			buf := dSlab[(r*ct+c)*l.rows*batch:][: m*batch : m*batch]
			for s := 0; s < batch; s++ {
				copy(buf[s*m:(s+1)*m], ds[s*out+j0:s*out+j1])
			}
			dt = buf
		}
		// With a single row tile, j0 = 0 and m = Out: ds itself is the
		// tile's sample-major delta stream.
		o := oSlab[(r*ct+c)*l.cols*batch:][: l.cols*batch : l.cols*batch]
		_, err := pe.TransposePassBatchInto(o, dt, batch, m)
		return err
	}); err != nil {
		return nil, err
	}
	dst = growFloats(dst, batch*in)
	for i := range dst[:batch*in] {
		dst[i] = 0
	}
	for s := 0; s < batch; s++ {
		g := dst[s*in : (s+1)*in]
		for r := 0; r < rt; r++ {
			for c := 0; c < ct; c++ {
				part := oSlab[((r*ct+c)*batch+s)*l.cols:]
				i0 := c * l.cols
				i1 := min(i0+l.cols, in)
				for i := i0; i < i1; i++ {
					g[i] += part[i-i0]
				}
			}
		}
	}
	return dst, nil
}

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
// reprogram-free: each forward tile gathers the active pixels' delta slices
// into a sample-major slab, streams them through its bank's compiled
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
			row := din[idx*m:]
			for j := j0; j < j1; j++ {
				row[j-j0] = deltaH[j*pixels+p]
			}
			idx++
		}
		o := oSlab[(r*ct+c)*l.cols*pixels:][: l.cols*nact : l.cols*nact]
		if _, err := pe.TransposePassBatchInto(o, din, nact, m); err != nil {
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
