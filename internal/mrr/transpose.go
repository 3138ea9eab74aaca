package mrr

import "fmt"

// The compiled transpose view: the backward half of the compiled kernel.
//
// Photonic in-memory primitives serve Wᵀ·δ from the same stored weights as
// the forward pass — the delta vector is launched down the row bus and each
// column's drops accumulate — so the backward pass costs no programming
// pulses, no endurance cycles, and no epoch ping-pong between forward and
// backward orientations. This file gives the simulator the same property:
// WeffT is a second, column-major image of the *same* compiled snapshot as
// Weff, so Wᵀ·δ runs the same cache-blocked GEMM as the forward pass
// (compiled.go), with the transpose resolved once at compile time instead
// of once per inner-loop iteration.
//
// The two views share one dirty protocol. WeffT stays nil until the first
// transpose pass (serving-only banks never allocate it); activation is a
// plain transpose copy of an up-to-date Weff. From then on compileRow —
// the single definition of the crosstalk folding — mirrors every row it
// compiles into WeffT's column j, so a dirty physical row patches both
// views under the one epoch/dirty/nDirty bookkeeping of bank.go. There is
// no separate transpose epoch to fall out of sync, and EnsureCompiled (the
// reliability scheduler's warm-compile hook) keeps both views fresh once
// the transpose view is active.
//
// The adjoint the transpose view computes is exactly the forward operator's:
// out[i] = Σ_j Weff[j][i]·δ_j, crosstalk folded along the forward pass's
// channels. That differs from physically reprogramming Wᵀ into a bank
// (where the band would couple Wᵀ's channels, i.e. W's *rows*) — the
// compiled view is the mathematically correct gradient of the forward pass,
// which reprogramming would only approximate while burning endurance.
// ReferenceTransposeMVM pins the compiled view ≤1e-12 against a direct
// evaluation from stored weights across all seven mutators
// (transpose_test.go).

// patchTransposeRow mirrors one freshly compiled Weff row into the
// transpose view's column j; a no-op until the view is activated.
func (b *WeightBank) patchTransposeRow(j int, row []float64) {
	if b.wefft == nil {
		return
	}
	rows := b.rows
	for i, v := range row {
		b.wefft[i*rows+j] = v
	}
}

// ensureTransposeCompiled brings both compiled views up to date. The
// forward snapshot recompiles first (patching WeffT per row when active);
// first use allocates WeffT and fills it with a plain transpose copy of the
// now-fresh Weff.
func (b *WeightBank) ensureTransposeCompiled() {
	b.ensureCompiled()
	if b.wefft != nil {
		return
	}
	b.wefft = make([]float64, b.rows*b.cols)
	rows, cols := b.rows, b.cols
	for j := 0; j < rows; j++ {
		row := b.weff[j*cols : (j+1)*cols]
		for i, v := range row {
			b.wefft[i*rows+j] = v
		}
	}
}

// EnsureTransposeCompiled activates (if needed) and freshens the transpose
// view, recompiling the shared snapshot first when weight state changed.
// No training path calls it: the first transpose MVM activates the view
// lazily. Tests and benchmarks call it to materialize the view before they
// inspect or time it.
func (b *WeightBank) EnsureTransposeCompiled() { b.ensureTransposeCompiled() }

// TransposeViewActive reports whether the compiled transpose view has been
// materialized. Observability for the wear/reliability suite: a bank that
// never ran a backward pass must report false (the view is pay-as-you-go),
// and once true, EnsureCompiled keeps both views patched.
func (b *WeightBank) TransposeViewActive() bool { return b.wefft != nil }

// tmvmPrepare is the transpose twin of mvmPrepare for
// ReferenceTransposeMVM: dst sizes to the bank's column count (the
// transpose output width) and the delta length clamps to the row count.
func (b *WeightBank) tmvmPrepare(dst, delta []float64) ([]float64, int) {
	if cap(dst) < b.cols {
		dst = make([]float64, b.cols)
	}
	dst = dst[:b.cols]
	m := len(delta)
	if m > b.rows {
		m = b.rows
	}
	return dst, m
}

// tbatchPrepare validates batched transpose-MVM geometry (panicking on a
// wiring error in the caller, like batchPrepare) and sizes dst to
// batch×cols.
func (b *WeightBank) tbatchPrepare(dst, ds []float64, batch, m int) []float64 {
	if m < 0 || m > b.rows {
		panic(fmt.Sprintf("mrr: transpose batch sample width %d outside bank rows %d", m, b.rows))
	}
	if batch < 0 || len(ds) < batch*m {
		panic(fmt.Sprintf("mrr: transpose batch %d×%d needs %d inputs, have %d", batch, m, batch*m, len(ds)))
	}
	if cap(dst) < batch*b.cols {
		dst = make([]float64, batch*b.cols)
	}
	return dst[:batch*b.cols]
}

// compiledTransposeMVMBatch is the backward kernel: the forward path's
// cache-blocked GEMM run over the transpose view (mat = wefft, ld = rows,
// outRows = cols), so results are bit-identical whatever batch a delta
// rides in. Geometry is validated by the caller (tbatchPrepare); dst is
// sample-major batch×cols, ds sample-major batch×m. Only the live columns
// [0, n) are computed, and columns n..cols−1 of dst are not written.
func (b *WeightBank) compiledTransposeMVMBatch(dst, ds []float64, batch, m, n int) {
	b.ensureTransposeCompiled()
	gemmRowRange(b.wefft, b.rows, b.cols, dst, ds, n, batch, m)
}

// TransposeMVMBatchInto computes the bank's adjoint pass out = Weffᵀ·δ for
// each of a batch of delta vectors (len m ≤ J): the gradient the forward
// operator MVMBatchInto induces on its input, crosstalk included. It is
// served from the compiled transpose view — no bank reprogramming, no
// endurance writes, no invalidation of the forward snapshot. Sample s
// occupies ds[s*m : (s+1)*m] and its outputs land in dst[s*N : (s+1)*N],
// both sample-major; a single delta is a batch of one. It runs the same
// register-blocked GEMM as the forward path over the transpose view,
// bit-identical whatever batch a delta rides in. It panics on inconsistent
// geometry; dst is allocated when nil or short.
//
// Only the live columns [0, n) are computed (n = N for a full pass), and
// dst[s*N+n : (s+1)*N] is left as it was: a partial column tile has no
// layer input behind its columns n..N−1. Column i's result is
// bit-identical to the full pass's. It panics when n lies outside [0, N].
func (b *WeightBank) TransposeMVMBatchInto(dst, ds []float64, batch, m, n int) []float64 {
	if n < 0 || n > b.cols {
		panic(fmt.Sprintf("mrr: live columns %d outside bank cols %d", n, b.cols))
	}
	dst = b.tbatchPrepare(dst, ds, batch, m)
	b.compiledTransposeMVMBatch(dst, ds, batch, m, n)
	return dst
}

// ReferenceTransposeMVM evaluates out[i] = Σ_j Weff[j][i]·δ_j directly from
// the stored weights — rotation resolved, masked rows zero, crosstalk band
// folded along the forward pass's channels — without touching either
// compiled view. It is the test oracle the transpose property suite pins
// the compiled view against (≤1e-12 across all seven mutators).
func (b *WeightBank) ReferenceTransposeMVM(dst, delta []float64) []float64 {
	dst, m := b.tmvmPrepare(dst, delta)
	cols := b.cols
	band := b.band
	for i := range dst {
		dst[i] = 0
	}
	for j, dj := range delta[:m] {
		if dj == 0 {
			continue
		}
		wj, ok := b.rowWeights(j)
		if !ok {
			continue
		}
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
			dst[i] += acc * dj
		}
	}
	return dst
}
