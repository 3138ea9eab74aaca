package core

// The tile-execution engine. Trident's throughput rests on every PE tile
// operating concurrently — each MRR bank filters its wavelengths in the same
// clock — so the functional model fans per-tile passes out across a shared,
// GOMAXPROCS-bounded worker pool instead of walking the tile grid serially.
// This is the simulator's one level of parallelism: a bank's own passes and
// recompiles run on the goroutine that drives its PE. Fan-outs may still
// overlap — pipeline stages and serve replicas each drive their own graph
// from their own goroutine — so enlisting a worker never blocks.
//
// The concurrency contract is ownership-based: a PE's rng, scratch buffers
// and Ledger have exactly one writer at any time, because work is always
// decomposed so that each tile (and therefore each PE) is driven by exactly
// one goroutine per pass. Every layer pass, dense or conv, is one fan-out
// over stripes of tiles (runStripes): a job owns a tile row or column and
// merges its tiles' results in fixed order itself. Whole-grid work
// (programming, drift, compilation) runs one-tile stripes through
// runTiles, its per-tile results merged by the caller in fixed tile order
// after the fan-out. Either way results, including the
// analog noise sequences and energy totals, are bit-identical regardless
// of how many workers execute the passes.

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

// serialFanOut reports whether a fan-out of n jobs runs in-line on the
// calling goroutine: a single job, or a worker cap of one.
func serialFanOut(n int) bool { return n == 1 || MaxWorkers() <= 1 }

// runTiles runs fn over every (r, c) of an rt×ct tile grid, in parallel,
// as rt·ct one-tile stripes. When several tiles fail, the error of the
// lowest flattened tile index is reported, so the error a caller observes
// never depends on goroutine scheduling.
func runTiles(rt, ct int, fn func(r, c int) error) error {
	return runStripes(rt*ct, tileJob{fn, ct}, func(j tileJob, i int) (int, error) { return i, j.fn(i/j.ct, i%j.ct) })
}

// tileJob is one runTiles call, handed to every one-tile stripe.
type tileJob struct {
	fn func(r, c int) error
	ct int
}

// runStripes runs job(arg, i) for every i in [0, n) across the worker pool.
// A job owns a stripe of tiles — a tile row or column walked in fixed order
// — and reports the flattened (r, c) index of the tile that failed along
// with its error. When several stripes fail, the error of the lowest tile
// index is reported, so it never depends on scheduling. A serial fan-out
// calls job in-line and allocates nothing.
func runStripes[A any](n int, arg A, job func(arg A, i int) (at int, err error)) error {
	if serialFanOut(n) {
		kept, keptAt := error(nil), 0
		for i := 0; i < n; i++ {
			if at, err := job(arg, i); err != nil && (kept == nil || at < keptAt) {
				kept, keptAt = err, at
			}
		}
		return kept
	}
	first := &firstError{at: -1}
	runIndexed(n, func(i int) {
		if at, err := job(arg, i); err != nil {
			first.keep(at, err)
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
