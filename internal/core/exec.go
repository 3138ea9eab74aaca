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

// fanOut is the shared state of one parallel runIndexed call, kept in one
// allocation.
type fanOut struct {
	next atomic.Int64
	wg   sync.WaitGroup
	n    int
	fn   func(int)
}

// claim runs fn on indices claimed one at a time until none are left.
func (f *fanOut) claim() {
	for {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		f.fn(i)
	}
}

// help is a pool worker's share of the fan-out.
func (f *fanOut) help() {
	defer f.wg.Done()
	f.claim()
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
	if serialFanOut(n) {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	tilePool.once.Do(tilePoolInit)
	f := &fanOut{n: n, fn: fn}
	help := f.help // one job value, handed to every enlisted worker
	helpers := min(MaxWorkers()-1, n-1, tilePool.size)
enlist:
	for h := 0; h < helpers; h++ {
		f.wg.Add(1)
		select {
		case tilePool.jobs <- help:
		default:
			// Every pool worker is occupied (typically a nested fan-out);
			// stop enlisting and do the remaining work in-line.
			f.wg.Done()
			break enlist
		}
	}
	f.claim()
	f.wg.Wait()
}

// RunIndexed exposes the index fan-out to sibling packages and, through
// mrr.ParallelFor, to the weight banks themselves: PEs install it as the
// bank's ParallelFor hook so snapshot recompilation and the compiled batch
// GEMM shard row blocks across the same pool that runs tile fan-outs.
// Nested fan-outs are safe — when every pool worker is busy the inner call
// degrades to in-line serial execution (see runIndexed) — and fn must keep
// its writes confined to per-index state.
func RunIndexed(n int, fn func(int)) { runIndexed(n, fn) }

// serialFanOut reports whether a fan-out of n jobs runs in-line on the
// calling goroutine: a single job, or a worker cap of one.
func serialFanOut(n int) bool { return n == 1 || MaxWorkers() <= 1 }

// runTiles runs fn over every (r, c) of an rt×ct tile grid, in parallel.
// When several tiles fail, the error of the lowest flattened tile index is
// reported, so the error a caller observes never depends on goroutine
// scheduling.
func runTiles(rt, ct int, fn func(r, c int) error) error {
	return runTilesArg(rt, ct, fn, func(fn func(r, c int) error, r, c int) error { return fn(r, c) })
}

// runTilesArg is runTiles for a job given as a plain function plus an
// argument passed by value. A serial fan-out calls job in-line, so unlike a
// closure handed to runTiles it allocates nothing — the conv stream makes
// one fan-out per chunk.
func runTilesArg[A any](rt, ct int, arg A, job func(arg A, r, c int) error) error {
	if serialFanOut(rt * ct) {
		var kept error
		for i := 0; i < rt*ct; i++ {
			if err := job(arg, i/ct, i%ct); err != nil && kept == nil {
				kept = err
			}
		}
		return kept
	}
	first := &firstError{at: -1}
	runIndexed(rt*ct, func(i int) {
		if err := job(arg, i/ct, i%ct); err != nil {
			first.keep(i, err)
		}
	})
	return first.err
}

// firstError keeps the error of the lowest index among concurrent failures.
type firstError struct {
	mu  sync.Mutex
	at  int
	err error
}

func (f *firstError) keep(i int, err error) {
	f.mu.Lock()
	if f.at < 0 || i < f.at {
		f.at, f.err = i, err
	}
	f.mu.Unlock()
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

// streamMVM runs the layer's forward tile passes for the im2col pixel
// streams of `batch` samples: patches holds each sample's (In × pixels)
// patch matrix (pixel-minor, as tensor.Im2ColInto writes it) and pre
// receives each sample's (Out × pixels) pre-activations, both sample-major.
// The stream is decomposed tile-major: each worker owns one (rowTile,
// colTile) bank, gathers its slice of every sample's patch columns into one
// column-major slab of batch·pixels columns, and streams it through the
// bank with a single register-blocked batch pass. Each PE still sees sample
// 0's pixels, then sample 1's, and so on — the per-pixel call sequence of
// the serial schedule, which the batch kernel reproduces bit for bit — so
// its noise draws and energy bookings are unchanged, while distinct tiles
// run concurrently. Column-tile partial sums land in per-tile slabs and are
// merged afterwards in fixed (r, c) order. The scratch grows with
// batch·pixels, so callers bound the columns per call (see convChunkCols).
func (l *DenseLayer) streamMVM(patches []float64, batch, pixels int, pre []float64) error {
	if l.state != bankForward {
		if err := l.programForward(); err != nil {
			return err
		}
	}
	out := l.spec.Out
	rt, ct := len(l.tiles), len(l.tiles[0])
	rows := l.rows
	cols := batch * pixels
	l.stream = growFloats(l.stream, rt*ct*rows*cols)
	l.streamX = growFloats(l.streamX, rt*ct*l.cols*cols)
	if err := runTilesArg(rt, ct, streamArgs{l, patches, batch, pixels}, streamTile); err != nil {
		return err
	}
	slab := l.stream
	pre = pre[:batch*out*pixels]
	for i := range pre {
		pre[i] = 0
	}
	for r := 0; r < rt; r++ {
		j0 := r * l.rows
		j1 := min(j0+l.rows, out)
		for c := 0; c < ct; c++ {
			tile := slab[(r*ct+c)*rows*cols:]
			for s := 0; s < batch; s++ {
				ps := pre[s*out*pixels : (s+1)*out*pixels]
				ts := tile[s*pixels*rows : (s+1)*pixels*rows]
				for p := 0; p < pixels; p++ {
					for j := j0; j < j1; j++ {
						ps[j*pixels+p] += ts[p*rows+j-j0]
					}
				}
			}
		}
	}
	return nil
}

// streamArgs is one streamMVM call's input, handed to every tile job.
type streamArgs struct {
	l             *DenseLayer
	patches       []float64
	batch, pixels int
}

// streamTile is streamMVM's job for tile (r, c). The im2col matrices are
// pixel-minor, while the batched bank kernel wants each tile's inputs
// column-major, so the tile gathers its slice of every sample's patch rows
// transposed (O(In·cols) copy work) before its one batch pass.
func streamTile(a streamArgs, r, c int) error {
	l := a.l
	ct := len(l.tiles[0])
	cols := a.batch * a.pixels
	i0 := c * l.cols
	i1 := min(i0+l.cols, l.spec.In)
	n := i1 - i0
	tileOut := l.stream[(r*ct+c)*l.rows*cols:][: l.rows*cols : l.rows*cols]
	buf := l.streamX[(r*ct+c)*l.cols*cols:][: n*cols : n*cols]
	patchSize := l.spec.In * a.pixels
	for s := 0; s < a.batch; s++ {
		sp := a.patches[s*patchSize : (s+1)*patchSize]
		sb := buf[s*a.pixels*n : (s+1)*a.pixels*n]
		for k := i0; k < i1; k++ {
			for p, v := range sp[k*a.pixels : (k+1)*a.pixels] {
				sb[p*n+k-i0] = v
			}
		}
	}
	_, err := l.tiles[r][c].MVMPassBatchInto(tileOut, buf, cols, n)
	return err
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
