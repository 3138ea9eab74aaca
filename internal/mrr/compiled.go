package mrr

// The compiled weight-stationary snapshot. A PCM bank's optical transfer
// function is constant between programming events — the whole premise of
// non-volatile photonic weights — yet a per-pass kernel re-derives it on
// every pass: leaked-input scatter, rowMap resolution and mask checks per
// row, two sweeps over each weight row per sample. This file pays those
// costs once per weight-state change instead, and pays only for what the
// change touched.
//
// compileRow folds everything a pass observes about one logical row into the
// flat row-major effective-weight matrix:
//
//	Weff[j][i] = w_ji + Σ_{d=1..R} leak(d)·(w_j,i−d + w_j,i+d)
//
// with out-of-range neighbour indices dropped, the wear-leveling rotation
// resolved (logical row j reads physical row rowMap[j]) and masked rows
// emitted as all-zero. The identity behind it: a per-pass kernel computes
// y_j = Σ_i w_ji·x_i + Σ_m w_jm·xleak[m] with
// xleak[m] = Σ_i leak(|m−i|)·x_i; re-associating the double sum per input
// channel gives y_j = Σ_i x_i·Weff[j][i] — exact for any input length n ≤ N,
// because channels i ≥ n contribute nothing to either form.
//
// Invalidation is two-tier (bank.go). Row-scoped mutators — Program pulses,
// Refresh pulses, weight overrides, row masking — mark only the affected
// physical rows dirty; ensureCompiled then recompiles just those rows in
// place, reusing the weff buffer, in O(dirty·N·R) instead of O(J·N·R). The
// crosstalk band needs no row-neighbour widening: it couples channels
// (columns within a row), so Weff[j] depends on exactly one physical row's
// weights, and a row mutation perturbs exactly one compiled row. Whole-bank
// mutators — ApplyDrift, RotateRows — set dirtyAll and force a full rebuild.
// Nothing else may write weff.
//
// Recompilation and the batched GEMM run on the goroutine that called them.
// The simulator's parallelism is across PEs, one bank each (core's tile
// stripes). The banks the workloads build are 4×4 to 32×32, too small for
// a split of one bank's rows across workers to repay its fan-out.

// Panel geometry for the compiled GEMM.
const (
	// gemmSampleBlock bounds the sample-panel width of the cache-blocked
	// GEMM: a row panel is streamed against at most this many samples before
	// moving on, keeping the active x-vectors resident in cache.
	gemmSampleBlock = 32
	// gemmColBlock bounds the k-panel (column) width: 512 columns × 8 B =
	// 4 KiB per row slice, so the micro-kernel's working set (2 weight rows
	// + 4 inputs) stays within a 32 KiB L1 even at large bank widths. The
	// running accumulator round-trips through dst between k-panels — an
	// exact float64 store/load — so per-element accumulation order, and
	// therefore bit-identity between batch sizes, is unchanged.
	gemmColBlock = 512
)

// ensureCompiled brings the snapshot up to date: a full rebuild after a
// whole-bank invalidation (or on first use), an in-place dirty-row pass
// after row-scoped mutations, nothing at all when the epoch hasn't moved.
func (b *WeightBank) ensureCompiled() {
	if b.weff != nil && b.compiledAt == b.epoch {
		return
	}
	if b.weff == nil {
		// The one allocation of the snapshot's lifetime: bank dimensions are
		// fixed at construction, so every later rebuild — full or
		// incremental — reuses this buffer.
		b.weff = make([]float64, b.rows*b.cols)
		b.dirtyAll = true
	}
	if b.dirtyAll {
		b.compileAllRows()
	} else {
		b.compileDirtyRows()
	}
	b.dirtyAll = false
	if b.nDirty > 0 {
		b.nDirty = 0
		for pr := range b.dirty {
			b.dirty[pr] = false
		}
	}
	b.compiledAt = b.epoch
}

// EnsureCompiled is the public face of ensureCompiled: it (re)compiles the
// snapshot if any weight-state mutation is pending and is a no-op otherwise.
// Serving layers call it to pay recompilation latency at a chosen moment —
// after a reliability pass, before opening the request window — instead of
// inside the first MVM that follows; the recompile benchmarks time it
// directly.
func (b *WeightBank) EnsureCompiled() { b.ensureCompiled() }

// compileAllRows rebuilds every row of the snapshot.
func (b *WeightBank) compileAllRows() {
	for j := 0; j < b.rows; j++ {
		b.compileRow(j)
	}
	b.rowsCompiled.Add(uint64(b.rows))
}

// compileDirtyRows recompiles, in place, exactly the logical rows whose
// serving physical row is marked dirty. rowMap is a bijection, so the stale
// logical rows number nDirty.
func (b *WeightBank) compileDirtyRows() {
	n := 0
	for j := 0; j < b.rows; j++ {
		if b.dirty[b.rowMap[j]] {
			b.compileRow(j)
			n++
		}
	}
	if n > 0 {
		b.rowsCompiled.Add(uint64(n))
	}
}

// compileRow materializes one logical row of the effective-weight matrix.
// It is the single definition of the folding — full rebuilds and dirty-row
// passes run exactly this code, so an incrementally-patched snapshot is
// byte-identical to a from-scratch compile (pinned by compiled_test.go).
// When the transpose view is active (transpose.go) the freshly compiled row
// is mirrored into WeffT's column j in the same call — one dirty physical
// row patches both views under one epoch, with no separate transpose
// bookkeeping to drift out of sync.
func (b *WeightBank) compileRow(j int) {
	cols := b.cols
	row := b.weff[j*cols : (j+1)*cols]
	wj, ok := b.rowWeights(j)
	if !ok {
		for i := range row {
			row[i] = 0
		}
		b.patchTransposeRow(j, row)
		return
	}
	band := b.band
	for i := 0; i < cols; i++ {
		acc := wj[i]
		for d := 1; d < len(band); d++ {
			leak := band[d]
			if m := i - d; m >= 0 {
				acc += leak * wj[m]
			}
			if m := i + d; m < cols {
				acc += leak * wj[m]
			}
		}
		row[i] = acc
	}
	b.patchTransposeRow(j, row)
}

// compiledMVMBatch is the production kernel: a cache-blocked GEMM over the
// compiled matrix. Every accumulator sums its (row, sample) dot in
// ascending column order, so outputs are bit-identical to running each
// sample as a batch of one. Geometry is validated by the caller
// (batchPrepare); dst is sample-major batch×rows, xs sample-major
// batch×n. Only the live rows [0, m) are computed, and rows m..rows−1 of
// dst are not written.
func (b *WeightBank) compiledMVMBatch(dst, xs []float64, batch, n, m int) {
	b.ensureCompiled()
	gemmRowRange(b.weff, b.cols, b.rows, dst, xs, m, batch, n)
}

// gemmRowRange computes output rows [0, j1) for the whole batch with
// sample-panel × k-panel cache blocking: a panel of at most gemmSampleBlock
// samples is streamed against the row range one gemmColBlock-wide column
// panel at a time, so the weight and input slices the micro-kernel touches
// stay cache-resident. k-panels run in ascending column order and the
// accumulator round-trips through dst exactly, so every output element is a
// plain ascending dot whatever the batch size.
//
// The kernel is parameterized on the compiled matrix rather than bound to
// Weff: mat row j is mat[j*ld : j*ld+n] and each sample's outputs occupy
// outRows entries of dst. The forward batch GEMM passes (weff, cols, rows);
// the transpose batch GEMM (transpose.go) passes (wefft, rows, cols) — the
// backward path runs literally this code, so its bit-identity properties
// are inherited rather than re-proven.
func gemmRowRange(mat []float64, ld, outRows int, dst, xs []float64, j1, batch, n int) {
	if n == 0 {
		// Degenerate empty input: every dot is empty, the outputs are zero.
		for s := 0; s < batch; s++ {
			d := dst[s*outRows : (s+1)*outRows]
			for j := 0; j < j1; j++ {
				d[j] = 0
			}
		}
		return
	}
	for s0 := 0; s0 < batch; s0 += gemmSampleBlock {
		s1 := min(s0+gemmSampleBlock, batch)
		for k0 := 0; k0 < n; k0 += gemmColBlock {
			k1 := min(k0+gemmColBlock, n)
			gemmPanel(mat, ld, outRows, dst, xs, j1, s0, s1, k0, k1, n, k0 == 0)
		}
	}
}

// gemmPanel is the register-blocked micro-kernel over one (row-range,
// sample-panel, k-panel) tile: 2 output rows × 4 samples per step, eight
// independent accumulators living in registers, so each effective-weight
// row streamed from memory is used eight times instead of once. On the
// first k-panel the accumulators start at zero and the store initializes
// dst; on later panels they resume from dst — a float64 round-trip is
// exact, so every output element remains a plain ascending dot of one
// (row, sample) pair: a batch of one, which runs only the sample-remainder
// loop, is bit-identical to the same sample inside any larger batch.
func gemmPanel(mat []float64, ld, outRows int, dst, xs []float64, j1, s0, s1, k0, k1, n int, first bool) {
	kw := k1 - k0
	s := s0
	for ; s+4 <= s1; s += 4 {
		x0 := xs[(s+0)*n+k0 : (s+0)*n+k1]
		x1 := xs[(s+1)*n+k0 : (s+1)*n+k1]
		x2 := xs[(s+2)*n+k0 : (s+2)*n+k1]
		x3 := xs[(s+3)*n+k0 : (s+3)*n+k1]
		d0 := dst[(s+0)*outRows : (s+1)*outRows]
		d1 := dst[(s+1)*outRows : (s+2)*outRows]
		d2 := dst[(s+2)*outRows : (s+3)*outRows]
		d3 := dst[(s+3)*outRows : (s+4)*outRows]
		j := 0
		for ; j+2 <= j1; j += 2 {
			ra := mat[(j+0)*ld+k0 : (j+0)*ld+k1]
			rb := mat[(j+1)*ld+k0 : (j+1)*ld+k1]
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			if !first {
				a0, a1, a2, a3 = d0[j], d1[j], d2[j], d3[j]
				b0, b1, b2, b3 = d0[j+1], d1[j+1], d2[j+1], d3[j+1]
			}
			for i := 0; i < kw; i++ {
				wa, wb := ra[i], rb[i]
				v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
				a0 += wa * v0
				a1 += wa * v1
				a2 += wa * v2
				a3 += wa * v3
				b0 += wb * v0
				b1 += wb * v1
				b2 += wb * v2
				b3 += wb * v3
			}
			d0[j], d1[j], d2[j], d3[j] = a0, a1, a2, a3
			d0[j+1], d1[j+1], d2[j+1], d3[j+1] = b0, b1, b2, b3
		}
		for ; j < j1; j++ {
			row := mat[j*ld+k0 : j*ld+k1]
			var a0, a1, a2, a3 float64
			if !first {
				a0, a1, a2, a3 = d0[j], d1[j], d2[j], d3[j]
			}
			for i := 0; i < kw; i++ {
				w := row[i]
				a0 += w * x0[i]
				a1 += w * x1[i]
				a2 += w * x2[i]
				a3 += w * x3[i]
			}
			d0[j], d1[j], d2[j], d3[j] = a0, a1, a2, a3
		}
	}
	// Sample remainder (all of a batch of one): single-sample column over
	// the same k-panel, same resume-from-dst accumulation.
	for ; s < s1; s++ {
		x := xs[s*n+k0 : s*n+k1]
		d := dst[s*outRows : (s+1)*outRows]
		for j := 0; j < j1; j++ {
			row := mat[j*ld+k0 : j*ld+k1]
			var acc float64
			if !first {
				acc = d[j]
			}
			for i, w := range row {
				acc += w * x[i]
			}
			d[j] = acc
		}
	}
}
