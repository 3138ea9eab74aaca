package mrr

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"trident/internal/units"
)

// Tests for the incremental dirty-row recompilation protocol (bank.go,
// compiled.go): row-scoped mutators must dirty exactly the rows they touch,
// whole-bank mutators must invalidate everything, and an incrementally
// patched snapshot must be byte-identical to a from-scratch compile after
// any mutation sequence — including at the crosstalk-band edges and under
// the worker-pool-parallel compile and GEMM paths.

// testParallelFor builds a goroutine-pool ParallelFor for tests: workers
// claim indices from a shared atomic counter, the shape of the production
// core.RunIndexed fan-out. Determinism must come from the bank's row-block
// ownership, not from this scheduler — which is exactly what the
// bit-identity assertions below pin.
func testParallelFor(workers int) ParallelFor {
	return func(n int, fn func(int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(i)
				}
			}()
		}
		wg.Wait()
	}
}

// fullCompileFrom rebuilds the bank's snapshot from scratch (dropping the
// weff buffer forces the full-compile path) and returns a copy — the oracle
// every incremental recompile is compared against.
func fullCompileFrom(b *WeightBank) []float64 {
	b.weff = nil
	b.EnsureCompiled()
	return append([]float64(nil), b.weff...)
}

// assertSnapshotExact asserts two compiled snapshots are bit-identical.
// Incremental patching runs the same compileRow code as a full rebuild, so
// any difference at all means a row was left stale (or dirtied wrongly).
func assertSnapshotExact(t *testing.T, got, want []float64, cols int, context string) {
	t.Helper()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: weff[%d] (row %d col %d): incremental %v, from-scratch %v",
				context, k, k/cols, k%cols, got[k], want[k])
		}
	}
}

// TestIncrementalRecompileMatchesFullCompile is the dirty-tracking property
// test: at 16/64/256 widths it interleaves all seven weight-state mutators
// with random row targets — plus forced mutations at the band edges (first/
// last column, first/last row) — and after every step asserts that the
// incrementally recompiled snapshot is bit-identical to a from-scratch full
// compile and that the compiled MVM tracks ReferenceMVM to ≤1e-12 relative
// error. A mutator that under-dirtied (stale row) or a recompile that
// skipped a dirty row fails the exact comparison immediately.
func TestIncrementalRecompileMatchesFullCompile(t *testing.T) {
	const year = 365 * 24 * 3600 * units.Second
	for _, width := range []int{16, 64, 256} {
		width := width
		t.Run(fmt.Sprintf("%dx%d", width, width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + width)))
			b := wideBank(t, rng, width)
			b.EnsureCompiled()
			steps := 24
			if width >= 256 {
				steps = 10 // each step pays an O(J·N·r) oracle compile
			}
			var now units.Duration
			for step := 0; step < steps; step++ {
				switch step % 10 {
				case 0:
					w := make([][]float64, width)
					for j := range w {
						w[j] = make([]float64, width)
						for i := range w[j] {
							w[j][i] = rng.Float64()*2 - 1
						}
					}
					if _, err := b.Program(w, now); err != nil {
						t.Fatal(err)
					}
				case 1:
					b.Refresh(now)
				case 2:
					b.ApplyDrift(units.Duration(rng.Float64()) * year)
				case 3:
					b.OverrideWeight(rng.Intn(width), rng.Intn(width), rng.Float64()*2-1)
				case 4:
					b.OverridePhysicalWeight(rng.Intn(width), rng.Intn(width), rng.Float64()*2-1)
				case 5:
					if b.MaskedRowCount() < width/4 {
						b.MaskPhysicalRow(rng.Intn(width))
					}
				case 6:
					b.RotateRows(1 + rng.Intn(width-1))
				case 7:
					// Band-edge columns: the compiled fold drops out-of-range
					// neighbours at columns 0 and N−1; a dirtying bug that
					// mishandled the clipped band would surface here.
					b.OverrideWeight(rng.Intn(width), 0, rng.Float64()*2-1)
					b.OverrideWeight(rng.Intn(width), width-1, rng.Float64()*2-1)
				case 8:
					// Boundary rows of the bank.
					b.OverridePhysicalWeight(0, rng.Intn(width), rng.Float64()*2-1)
					b.OverridePhysicalWeight(width-1, rng.Intn(width), rng.Float64()*2-1)
				case 9:
					// Interleave a no-op (same-value override) with a real one:
					// the no-op must not mask the real row's dirtiness.
					r, c := rng.Intn(width), rng.Intn(width)
					b.OverrideWeight(r, c, b.Weight(r, c))
					b.OverrideWeight(rng.Intn(width), rng.Intn(width), rng.Float64()*2-1)
				}
				now += units.Second
				b.EnsureCompiled()
				inc := append([]float64(nil), b.weff...)
				full := fullCompileFrom(b)
				assertSnapshotExact(t, inc, full, width, fmt.Sprintf("step %d", step))
				x := randomInput(rng, width, step%3)
				got, want := b.MVMBatchInto(nil, x, 1, len(x)), b.ReferenceMVM(nil, x)
				for j := range want {
					diff := math.Abs(got[j] - want[j])
					if scale := math.Max(math.Abs(want[j]), 1); diff/scale > 1e-12 {
						t.Fatalf("step %d row %d: compiled %v reference %v (rel err %.3g)",
							step, j, got[j], want[j], diff/scale)
					}
				}
			}
		})
	}
}

// TestMutatorLeavesNoRowStale is the per-mutator staleness test: each of the
// seven mutators is applied to a freshly compiled bank and the incrementally
// recompiled snapshot must match a from-scratch compile exactly. Unlike the
// interleaved property test, a failure here names the offending mutator.
func TestMutatorLeavesNoRowStale(t *testing.T) {
	const year = 365 * 24 * 3600 * units.Second
	const width = 16
	mutators := []struct {
		name string
		call func(t *testing.T, b *WeightBank)
	}{
		{"Program", func(t *testing.T, b *WeightBank) {
			rng := rand.New(rand.NewSource(5))
			w := [][]float64{nil, nil, nil, make([]float64, width)}
			for i := range w[3] {
				w[3][i] = rng.Float64()*2 - 1
			}
			if _, err := b.Program(w, units.Second); err != nil {
				t.Fatal(err)
			}
		}},
		{"Refresh", func(t *testing.T, b *WeightBank) {
			b.ApplyDrift(year)
			b.EnsureCompiled() // settle the whole-bank invalidation first
			b.Refresh(2 * units.Second)
		}},
		{"ApplyDrift", func(t *testing.T, b *WeightBank) { b.ApplyDrift(year) }},
		{"OverrideWeight", func(t *testing.T, b *WeightBank) { b.OverrideWeight(3, 0, 0.987) }},
		{"OverridePhysicalWeight", func(t *testing.T, b *WeightBank) { b.OverridePhysicalWeight(width-1, width-1, -0.654) }},
		{"MaskPhysicalRow", func(t *testing.T, b *WeightBank) { b.MaskPhysicalRow(2) }},
		{"RotateRows", func(t *testing.T, b *WeightBank) { b.RotateRows(3) }},
	}
	for _, m := range mutators {
		m := m
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			b := wideBank(t, rng, width)
			b.EnsureCompiled()
			m.call(t, b)
			b.EnsureCompiled()
			inc := append([]float64(nil), b.weff...)
			assertSnapshotExact(t, inc, fullCompileFrom(b), width, m.name)
		})
	}
}

// TestRowScopedMutatorsDirtyOnlyAffectedRows pins the fine half of the
// invalidation protocol: row-scoped mutators must mark exactly the rows
// they touched, whole-bank mutators must invalidate everything, and
// recompilation must clear the debt.
func TestRowScopedMutatorsDirtyOnlyAffectedRows(t *testing.T) {
	const width = 16
	rng := rand.New(rand.NewSource(31))
	b := wideBank(t, rng, width)
	b.EnsureCompiled()
	if got := b.DirtyRowCount(); got != 0 {
		t.Fatalf("freshly compiled bank reports %d dirty rows", got)
	}
	b.OverrideWeight(4, 7, 0.321)
	if got := b.DirtyRowCount(); got != 1 {
		t.Fatalf("one overridden cell dirtied %d rows, want 1", got)
	}
	b.OverrideWeight(4, 9, -0.321) // same row again: still one dirty row
	if got := b.DirtyRowCount(); got != 1 {
		t.Fatalf("second override on the same row dirtied %d rows, want 1", got)
	}
	b.OverridePhysicalWeight(b.PhysicalRow(11), 0, 0.555)
	if got := b.DirtyRowCount(); got != 2 {
		t.Fatalf("override on a second row dirtied %d rows, want 2", got)
	}
	b.MaskPhysicalRow(b.PhysicalRow(2))
	if got := b.DirtyRowCount(); got != 3 {
		t.Fatalf("masking a third row dirtied %d rows, want 3", got)
	}
	b.EnsureCompiled()
	if got := b.DirtyRowCount(); got != 0 {
		t.Fatalf("recompile left %d dirty rows", got)
	}
	b.ApplyDrift(365 * 24 * 3600 * units.Second)
	if got := b.DirtyRowCount(); got != width {
		t.Fatalf("ApplyDrift dirtied %d rows, want the whole bank (%d)", got, width)
	}
	b.EnsureCompiled()
	b.RotateRows(1)
	if got := b.DirtyRowCount(); got != width {
		t.Fatalf("RotateRows dirtied %d rows, want the whole bank (%d)", got, width)
	}
}

// TestRefreshDirtiesOnlyRefreshedRows displaces a single row's realized
// weight and asserts Refresh dirties only that row — the serving win the
// reliability scheduler depends on: a check that refreshes a handful of
// rows must cost a handful of row recompiles, not a bank rebuild.
func TestRefreshDirtiesOnlyRefreshedRows(t *testing.T) {
	const width = 16
	rng := rand.New(rand.NewSource(37))
	b := wideBank(t, rng, width)
	b.EnsureCompiled()
	// Displace one realized weight away from its programmed tuner state.
	// (OverridePhysicalWeight models the displacement; compile past its own
	// row-dirtying so only Refresh's invalidation remains observable.)
	b.OverridePhysicalWeight(6, 3, 0.123456)
	b.EnsureCompiled()
	epoch := b.Epoch()
	b.Refresh(units.Second)
	if got := b.DirtyRowCount(); got != 1 {
		t.Fatalf("refresh of one displaced cell dirtied %d rows, want 1", got)
	}
	if b.Epoch() == epoch {
		t.Fatal("refresh that issued a pulse did not bump the epoch")
	}
	b.EnsureCompiled()
	assertSnapshotExact(t, append([]float64(nil), b.weff...), fullCompileFrom(b), width, "post-refresh")
}

// TestNoOpMutationsKeepSnapshot pins the free-fast-path contract: a Refresh
// with nothing displaced, a Program re-issuing identical values (elided by
// compare-first write logic), and a same-value override must leave the
// epoch, the dirty set and the compiled snapshot untouched — so steady-state
// scheduler checks cost zero recompiled rows.
func TestNoOpMutationsKeepSnapshot(t *testing.T) {
	const width = 16
	rng := rand.New(rand.NewSource(43))
	b := wideBank(t, rng, width)
	b.EnsureCompiled()
	epoch, compiled := b.Epoch(), b.RowsCompiled()
	b.Refresh(units.Second)
	b.OverrideWeight(5, 5, b.Weight(5, 5))
	if b.Epoch() != epoch {
		t.Fatal("no-op mutations bumped the epoch")
	}
	if got := b.DirtyRowCount(); got != 0 {
		t.Fatalf("no-op mutations dirtied %d rows", got)
	}
	b.EnsureCompiled()
	if got := b.RowsCompiled(); got != compiled {
		t.Fatalf("no-op mutations recompiled %d rows", got-compiled)
	}
}

// TestCompiledParallelBitIdentical runs the worker-pool-parallel compile and
// batch-GEMM paths against a serial twin: same seed, same mutation sequence,
// ParallelFor installed on one bank only, at several worker counts. The
// compiled snapshots and every batched output must be bit-identical — the
// row-block ownership contract — including after a bulk dirty-row recompile
// large enough to shard and with inputs narrower than the bank.
func TestCompiledParallelBitIdentical(t *testing.T) {
	const width, batch = 256, 12
	build := func() *WeightBank {
		return wideBank(t, rand.New(rand.NewSource(77)), width)
	}
	serial := build()
	serial.EnsureCompiled()
	xs := make([]float64, batch*width)
	xrng := rand.New(rand.NewSource(78))
	for i := range xs {
		xs[i] = xrng.Float64()*2 - 1
	}
	mutate := func(b *WeightBank) {
		mrng := rand.New(rand.NewSource(79))
		for k := 0; k < 3*compileRowBlock; k++ { // enough rows to shard the dirty pass
			b.OverrideWeight(mrng.Intn(width), mrng.Intn(width), mrng.Float64()*2-1)
		}
	}
	wantFresh := append([]float64(nil), serial.MVMBatchInto(nil, xs, batch, width)...)
	narrow := width / 2
	wantNarrow := append([]float64(nil), serial.MVMBatchInto(nil, xs[:batch*narrow], batch, narrow)...)
	mutate(serial)
	serial.EnsureCompiled()
	wantWeff := append([]float64(nil), serial.weff...)
	wantMut := serial.MVMBatchInto(nil, xs, batch, width)
	for _, workers := range []int{1, 2, 8} {
		p := build()
		p.SetParallelFor(testParallelFor(workers))
		p.EnsureCompiled() // parallel full compile
		for s, tag := range []struct {
			got, want []float64
		}{
			{p.MVMBatchInto(nil, xs, batch, width), wantFresh},
			{p.MVMBatchInto(nil, xs[:batch*narrow], batch, narrow), wantNarrow},
		} {
			for k := range tag.want {
				if tag.got[k] != tag.want[k] {
					t.Fatalf("workers=%d stage %d: output[%d] parallel %v serial %v",
						workers, s, k, tag.got[k], tag.want[k])
				}
			}
		}
		mutate(p)
		p.EnsureCompiled() // parallel dirty-row recompile
		assertSnapshotExact(t, p.weff, wantWeff, width, fmt.Sprintf("workers=%d post-mutation", workers))
		got := p.MVMBatchInto(nil, xs, batch, width)
		for k := range wantMut {
			if got[k] != wantMut[k] {
				t.Fatalf("workers=%d post-mutation output[%d]: parallel %v serial %v",
					workers, k, got[k], wantMut[k])
			}
		}
	}
}

// TestRecompileAllocationFree pins the steady-state allocation contract: the
// weff buffer is allocated once, so neither a full recompile nor an
// incremental dirty-row recompile may allocate.
func TestRecompileAllocationFree(t *testing.T) {
	const width = 64
	rng := rand.New(rand.NewSource(53))
	b := wideBank(t, rng, width)
	b.EnsureCompiled()
	if n := testing.AllocsPerRun(20, func() {
		b.RotateRows(1)
		b.EnsureCompiled()
	}); n > 0 {
		t.Fatalf("full recompile allocates %.1f times per run", n)
	}
	sign := 1.0
	if n := testing.AllocsPerRun(20, func() {
		b.OverrideWeight(7, 9, sign*0.42)
		sign = -sign
		b.EnsureCompiled()
	}); n > 0 {
		t.Fatalf("incremental recompile allocates %.1f times per run", n)
	}
}
