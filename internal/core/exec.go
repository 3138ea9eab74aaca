package core

// The tile-execution engine. Trident's throughput rests on every PE tile
// operating concurrently — each MRR bank filters its wavelengths in the same
// clock — so the functional model fans per-tile passes out across a shared,
// GOMAXPROCS-bounded worker pool instead of walking the tile grid serially.
//
// The concurrency contract is ownership-based: a PE's rng, scratch buffers
// and Ledger have exactly one writer at any time, because work is always
// decomposed so that each tile (and therefore each PE) is driven by exactly
// one goroutine per pass. Per-tile results land in per-tile buffers and are
// merged by the caller in a fixed tile order after the fan-out completes, so
// results — including the analog noise sequences and energy totals — are
// bit-identical regardless of how many workers execute the passes.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"trident/internal/units"
)

// workerCap holds the configured parallelism limit; 0 means the default
// (GOMAXPROCS at the time of the call).
var workerCap atomic.Int64

// SetMaxWorkers bounds how many goroutines — including the calling one —
// execute tile passes concurrently. n = 1 forces serial in-line execution
// (the determinism tests compare this against the parallel path); n ≤ 0
// restores the GOMAXPROCS default. It returns the previous setting so tests
// can restore it.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerCap.Swap(int64(n)))
}

// MaxWorkers reports the current concurrency limit for tile execution.
func MaxWorkers() int {
	if v := workerCap.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// tilePool is the process-wide worker pool. Workers are spawned once, on
// first parallel use, and are reused for every subsequent pass — no per-call
// goroutine spawn. The pool keeps a few workers even on a single-core host
// so the parallel path stays exercisable (tests force it on via
// SetMaxWorkers); with the default cap such hosts still run serially.
var tilePool struct {
	once sync.Once
	jobs chan func()
	size int
}

func tilePoolInit() {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	tilePool.size = n - 1
	// Unbuffered: a job is handed off only when a worker is actually free
	// to run it, which keeps nested fan-outs deadlock-free (an unclaimed
	// job is simply executed by the submitting goroutine itself).
	tilePool.jobs = make(chan func())
	for i := 0; i < tilePool.size; i++ {
		go func() {
			for job := range tilePool.jobs {
				job()
			}
		}()
	}
}

// runIndexed executes fn(i) for every i in [0, n), fanning the indices out
// across the worker pool. Indices are claimed one at a time from a shared
// counter; the caller participates too, so when every pool worker is busy
// (or the cap is 1) the loop degrades to in-line serial execution instead of
// blocking. runIndexed returns only after all n calls have finished. fn must
// confine its writes to per-index (or per-owned-tile) state.
func runIndexed(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	limit := MaxWorkers()
	if n == 1 || limit <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	tilePool.once.Do(tilePoolInit)
	var next atomic.Int64
	var wg sync.WaitGroup
	claim := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	helpers := min(limit-1, n-1, tilePool.size)
enlist:
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		job := func() { defer wg.Done(); claim() }
		select {
		case tilePool.jobs <- job:
		default:
			// Every pool worker is occupied (typically a nested fan-out);
			// stop enlisting and do the remaining work in-line.
			wg.Done()
			break enlist
		}
	}
	claim()
	wg.Wait()
}

// RunIndexed exposes the index fan-out to sibling packages and, through
// mrr.ParallelFor, to the weight banks themselves: PEs install it as the
// bank's ParallelFor hook so snapshot recompilation and the compiled batch
// GEMM shard row blocks across the same pool that runs tile fan-outs.
// Nested fan-outs are safe — when every pool worker is busy the inner call
// degrades to in-line serial execution (see runIndexed) — and fn must keep
// its writes confined to per-index state.
func RunIndexed(n int, fn func(int)) { runIndexed(n, fn) }

// runTiles runs fn over every (r, c) of an rt×ct tile grid, in parallel.
// When several tiles fail, the error of the lowest flattened tile index is
// reported, so the error a caller observes never depends on goroutine
// scheduling.
func runTiles(rt, ct int, fn func(r, c int) error) error {
	var (
		mu   sync.Mutex
		at   = -1
		kept error
	)
	runIndexed(rt*ct, func(i int) {
		if err := fn(i/ct, i%ct); err != nil {
			mu.Lock()
			if at < 0 || i < at {
				at, kept = i, err
			}
			mu.Unlock()
		}
	})
	return kept
}

// RunTiles exposes the tile fan-out to sibling packages (the reliability
// engine runs its self-test passes tile-parallel under the same ownership
// contract): fn is called once per (r, c) of an rt×ct grid, with per-tile
// results confined to per-tile state and merged by the caller in fixed
// order. See runTiles for the error-selection rule.
func RunTiles(rt, ct int, fn func(r, c int) error) error {
	return runTiles(rt, ct, fn)
}

// growFloats returns s resized to n, reallocating only when the capacity is
// insufficient. Contents are unspecified; callers overwrite or zero.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// gradScratch returns the layer's reusable Out×In gradient buffer, zeroed,
// backed by a single allocation.
func (l *DenseLayer) gradScratch() [][]float64 {
	if l.gradBuf == nil {
		flat := make([]float64, l.spec.Out*l.spec.In)
		l.gradBuf = make([][]float64, l.spec.Out)
		for j := range l.gradBuf {
			l.gradBuf[j] = flat[j*l.spec.In : (j+1)*l.spec.In]
		}
	}
	for j := range l.gradBuf {
		row := l.gradBuf[j]
		for i := range row {
			row[i] = 0
		}
	}
	return l.gradBuf
}

// streamMVM runs the layer's forward tile passes for a whole im2col pixel
// stream: patches is the (In × pixels) patch matrix (pixel-minor layout, as
// produced by tensor.Im2Col) and pre receives the (Out × pixels)
// pre-activations. The stream is decomposed tile-major: each worker owns one
// (rowTile, colTile) bank, gathers its slice of every patch column into a
// pixel-major slab, and streams the whole pixel stream through the bank's
// register-blocked batch kernel — each PE still sees exactly the per-pixel
// call sequence of the serial schedule (the batch kernel is bit-identical
// per sample), preserving its noise draws and energy bookings bit-exactly,
// while distinct tiles run concurrently. Column-tile partial sums land in
// per-tile slabs and are merged afterwards in fixed (r, c) order.
func (l *DenseLayer) streamMVM(patches []float64, pixels int, pre []float64) error {
	if l.state != bankForward {
		if err := l.programForward(); err != nil {
			return err
		}
	}
	rt, ct := len(l.tiles), len(l.tiles[0])
	rows := l.rows
	l.stream = growFloats(l.stream, rt*ct*rows*pixels)
	slab := l.stream
	// The im2col matrix is pixel-minor; the batched bank kernel wants each
	// tile's inputs pixel-major, so each tile gathers its slice transposed
	// (O(In·pixels) copy work).
	l.streamX = growFloats(l.streamX, rt*ct*l.cols*pixels)
	inSlab := l.streamX
	if err := runTiles(rt, ct, func(r, c int) error {
		pe := l.tiles[r][c]
		i0 := c * l.cols
		i1 := min(i0+l.cols, l.spec.In)
		n := i1 - i0
		out := slab[(r*ct+c)*rows*pixels:][: rows*pixels : rows*pixels]
		buf := inSlab[(r*ct+c)*l.cols*pixels:][: n*pixels : n*pixels]
		for k := i0; k < i1; k++ {
			kr := patches[k*pixels : (k+1)*pixels]
			for p := 0; p < pixels; p++ {
				buf[p*n+(k-i0)] = kr[p]
			}
		}
		_, err := pe.MVMPassBatchInto(out, buf, pixels, n)
		return err
	}); err != nil {
		return err
	}
	for i := range pre[:l.spec.Out*pixels] {
		pre[i] = 0
	}
	for r := 0; r < rt; r++ {
		j0 := r * l.rows
		j1 := min(j0+l.rows, l.spec.Out)
		for c := 0; c < ct; c++ {
			tile := slab[(r*ct+c)*rows*pixels:]
			for p := 0; p < pixels; p++ {
				for j := j0; j < j1; j++ {
					pre[j*pixels+p] += tile[p*rows+j-j0]
				}
			}
		}
	}
	return nil
}

// gradRowBlock is the kernel-row granularity of the digital weight-gradient
// GEMMs: each worker owns whole row blocks, so every gradient cell is
// accumulated by exactly one goroutine in ascending pixel/sample order —
// bit-identical at any worker count.
const gradRowBlock = 16

// streamOuterProduct accumulates the convolution kernel gradient
// δK[j][i] += Σ_p δh[j,p]·patch[i,p] over the active pixels, in the digital
// control unit: δh and the im2col patches are electronic values the
// pipeline already holds, so the contraction is a blocked digital GEMM —
// no broadcast programming, no bank writes, no optical passes. Kernel rows
// shard across the worker pool in fixed blocks; each row accumulates its
// pixels in ascending order, so the result is worker-count independent. The
// contraction adds into grad (callers zero it via gradScratch), which lets
// the batched trainer accumulate samples by calling it once per sample.
func (l *DenseLayer) streamOuterProduct(patches []float64, deltaH []float64, active []bool, pixels int, grad [][]float64) error {
	out, in := l.spec.Out, l.spec.In
	blocks := (out + gradRowBlock - 1) / gradRowBlock
	RunIndexed(blocks, func(bi int) {
		j0 := bi * gradRowBlock
		j1 := min(j0+gradRowBlock, out)
		for j := j0; j < j1; j++ {
			row := grad[j][:in]
			dh := deltaH[j*pixels : (j+1)*pixels]
			for i := 0; i < in; i++ {
				pr := patches[i*pixels : (i+1)*pixels]
				acc := row[i]
				for p, d := range dh {
					if d != 0 && active[p] {
						acc += d * pr[p]
					}
				}
				row[i] = acc
			}
		}
	})
	return nil
}

// mergeTileLedgers merges the per-PE ledgers of the given layers into one
// aggregate: energy is additive across tiles, while elapsed time is the
// maximum across PEs — tiles run in parallel in hardware.
func mergeTileLedgers(layers []*DenseLayer) *Ledger {
	out := NewLedger()
	var maxElapsed units.Duration
	for _, l := range layers {
		for _, row := range l.tiles {
			for _, pe := range row {
				out.Merge(pe.Ledger())
				if e := pe.Ledger().Elapsed(); e > maxElapsed {
					maxElapsed = e
				}
			}
		}
	}
	out.Advance(maxElapsed)
	return out
}
