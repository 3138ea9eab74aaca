package mrr

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"trident/internal/fixed"
	"trident/internal/optics"
	"trident/internal/pcm"
	"trident/internal/units"
)

// WeightBank is a J×N array of tuned add-drop MRRs sharing one WDM bus: the
// matrix-vector engine of a broadcast-and-weight PE. Row j filters the N
// input wavelengths through its N rings and accumulates them on one balanced
// photodetector, producing y_j = Σ_n w_jn·x_n in a single optical transit.
//
// The bank distinguishes logical rows (the matrix rows the control unit
// addresses) from physical rows (the fabricated rings). A rotating
// logical→physical map lets the controller wear-level write traffic across
// rings, and physical rows can be masked out when their cells die beyond
// repair — the bank keeps serving with the dead row contributing zero.
// Internal storage (rings, tuners, weights) is physical; Program, MVM,
// Weight and Tuner address logical rows through the map.
type WeightBank struct {
	rows, cols int
	plan       *optics.ChannelPlan
	rings      [][]*Ring
	tuners     [][]Tuner
	weights    [][]float64 // realized (quantized) weights, physical layout
	crosstalk  []float64   // drop leakage vs. channel distance
	bandRadius int         // largest distance with leakage ≥ crosstalkFloor
	band       []float64   // crosstalk[0..bandRadius] clipped at the floor
	rowMap     []int       // logical row → physical row
	rotation   int         // current rotation offset of rowMap
	masked     []bool      // physical rows retired from service

	// Compiled weight-stationary snapshot (see compiled.go). epoch counts
	// weight-state mutations; the flat effective-weight matrix weff is
	// rebuilt lazily on the first MVM after compiledAt falls behind.
	// Invalidation is tracked per physical row: row-scoped mutators set
	// dirty[pr] so the recompiler touches only the stale rows, while
	// whole-bank mutators (drift, rotation) set dirtyAll and force a full
	// rebuild. rowMap is a bijection, so nDirty is exactly the number of
	// stale logical rows.
	epoch      uint64
	compiledAt uint64
	weff       []float64 // rows×cols row-major effective weights
	dirty      []bool    // physical rows whose compiled image is stale
	nDirty     int       // count of set entries in dirty
	dirtyAll   bool      // whole-snapshot invalidation pending

	// wefft is the compiled transpose view WeffT (cols×rows row-major,
	// wefft[i*rows+j] == weff[j*cols+i]), serving Wᵀ·δ for the backward
	// pass without reprogramming the bank (see transpose.go). It stays nil
	// until the first transpose pass — inference-only banks never pay for
	// it — and once active it shares weff's dirty protocol: compileRow
	// patches both views, so there is no second epoch and no separate
	// invalidation bookkeeping.
	wefft []float64

	// pfor, when non-nil, shards recompilation and the compiled batch GEMM
	// across fixed row blocks (see compiled.go); rowsCompiled counts row
	// compiles over the bank's lifetime for incremental-recompile
	// observability. The counter is atomic only because compile blocks run
	// concurrently under pfor — the bank itself stays single-writer.
	pfor         ParallelFor
	rowsCompiled atomic.Uint64
}

// ParallelFor runs fn(i) for every i in [0, n) and returns only after all n
// calls complete. Implementations may execute calls concurrently; the bank
// guarantees distinct indices write disjoint state (row-block ownership), so
// a correct implementation yields bit-identical results at any worker count.
type ParallelFor func(n int, fn func(int))

// SetParallelFor installs the worker-pool hook the bank uses to shard
// recompilation and the compiled batch GEMM across row blocks (the
// tile-execution engine's pool, for banks living inside a PE). nil — the
// default — keeps the bank fully serial. Banks below the parallel work
// thresholds in compiled.go ignore the hook, so attaching it to small PE
// banks costs nothing.
func (b *WeightBank) SetParallelFor(p ParallelFor) { b.pfor = p }

// crosstalkFloor is the leakage level below which a neighbour's contribution
// is indistinguishable from zero at the detector: coefficients under it are
// clipped from the effective crosstalk band at bank construction, bounding
// every kernel's per-pass leak work to O(n·bandRadius).
const crosstalkFloor = 1e-9

// drifter is the tuner capability of reporting a time-drifted weight
// (implemented by PCMTuner; volatile tuners do not drift, they vanish).
type drifter interface {
	DriftedWeight(hold units.Duration) float64
}

// refresher is the tuner capability of re-issuing a write pulse at the
// current level to undo drift (implemented by PCMTuner).
type refresher interface {
	Refresh(now units.Duration) (units.Duration, error)
}

// NewTunerFunc constructs the tuner for the ring at (row, col).
type NewTunerFunc func(ring *Ring, row, col int) (Tuner, error)

// NewWeightBank builds a J×N bank on plan (which must have ≥ N channels),
// creating one ring per cell resonant at its column's wavelength and one
// tuner per ring via newTuner.
func NewWeightBank(rows, cols int, plan *optics.ChannelPlan, newTuner NewTunerFunc) (*WeightBank, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("mrr: bank dimensions %d×%d must be positive", rows, cols)
	}
	if plan.Len() < cols {
		return nil, fmt.Errorf("mrr: plan has %d channels, bank needs %d", plan.Len(), cols)
	}
	b := &WeightBank{
		rows:    rows,
		cols:    cols,
		plan:    plan,
		rings:   make([][]*Ring, rows),
		tuners:  make([][]Tuner, rows),
		weights: make([][]float64, rows),
		rowMap:  make([]int, rows),
		masked:  make([]bool, rows),
		dirty:   make([]bool, rows),
	}
	for j := range b.rowMap {
		b.rowMap[j] = j
	}
	for j := 0; j < rows; j++ {
		b.rings[j] = make([]*Ring, cols)
		b.tuners[j] = make([]Tuner, cols)
		b.weights[j] = make([]float64, cols)
		for n := 0; n < cols; n++ {
			ring, err := NewRing(plan.Channel(n).Wavelength)
			if err != nil {
				return nil, err
			}
			tuner, err := newTuner(ring, j, n)
			if err != nil {
				return nil, fmt.Errorf("mrr: tuner (%d,%d): %w", j, n, err)
			}
			b.rings[j][n] = ring
			b.tuners[j][n] = tuner
			b.weights[j][n] = tuner.Weight()
		}
	}
	// Precompute the crosstalk profile: the drop leakage a ring inflicts on
	// a channel k slots away. Distance 0 is the intended signal (excluded).
	b.crosstalk = make([]float64, cols)
	ref := b.rings[0][0]
	for k := 1; k < cols; k++ {
		offset := units.Length(float64(k) * float64(plan.Spacing()))
		b.crosstalk[k] = ref.CrosstalkAt(offset)
	}
	// Effective band radius: the largest channel distance whose leakage is
	// still above the detector floor. The scan runs once here; every kernel
	// pass and every crosstalk-profile consumer reuses the clipped radius
	// instead of rescanning the profile.
	for k := cols - 1; k >= 1; k-- {
		if b.crosstalk[k] >= crosstalkFloor {
			b.bandRadius = k
			break
		}
	}
	b.rebuildBand()
	return b, nil
}

// rebuildBand hoists the clipped crosstalk band out of the kernels: band[d]
// for d in [1, bandRadius] is the leakage at distance d, with any sub-floor
// coefficient inside the radius zeroed so no kernel needs a per-iteration
// floor branch. band[0] (the intended signal) is always zero.
func (b *WeightBank) rebuildBand() {
	b.band = make([]float64, b.bandRadius+1)
	for d := 1; d <= b.bandRadius; d++ {
		if c := b.crosstalk[d]; c >= crosstalkFloor {
			b.band[d] = c
		}
	}
}

// NewPCMWeightBank builds a bank with GST tuners on every ring — a Trident
// weight bank.
func NewPCMWeightBank(rows, cols int, plan *optics.ChannelPlan) (*WeightBank, error) {
	return NewWeightBank(rows, cols, plan, func(*Ring, int, int) (Tuner, error) {
		return NewPCMTuner()
	})
}

// NewThermalWeightBank builds a bank with thermal tuners — a DEAP-CNN-style
// weight bank.
func NewThermalWeightBank(rows, cols int, plan *optics.ChannelPlan) (*WeightBank, error) {
	return NewWeightBank(rows, cols, plan, func(*Ring, int, int) (Tuner, error) {
		return NewThermalTuner(), nil
	})
}

// NewIdealWeightBank builds a bank with ideal tuners and no inter-channel
// crosstalk: the exact-arithmetic device used to pin the hardware execution
// path against the digital reference. Geometry and row-map behavior are
// identical to the physical banks; only the analog error terms are removed.
func NewIdealWeightBank(rows, cols int, plan *optics.ChannelPlan) (*WeightBank, error) {
	b, err := NewWeightBank(rows, cols, plan, func(*Ring, int, int) (Tuner, error) {
		return NewIdealTuner(), nil
	})
	if err != nil {
		return nil, err
	}
	for k := range b.crosstalk {
		b.crosstalk[k] = 0
	}
	b.bandRadius = 0
	b.rebuildBand()
	b.invalidate()
	return b, nil
}

// invalidate bumps the weight-state epoch and marks the whole compiled
// snapshot stale. It is the coarse half of the invalidation protocol,
// reserved for mutations whose reach a single row cannot bound: ApplyDrift
// relaxes every live cell, and RotateRows remaps every logical row onto a
// different physical row. Every mutation of what an MVM can observe must
// route through this or invalidateRow; compiled_test.go asserts each public
// mutator does.
func (b *WeightBank) invalidate() {
	b.epoch++
	b.dirtyAll = true
}

// invalidateRow is the row-scoped half of the invalidation protocol: it
// bumps the weight-state epoch and marks only physical row pr stale, so the
// next recompile touches one row instead of J. Crosstalk needs no
// row-neighbour widening here: the band couples *channels* — columns within
// a row — so Weff[j] depends on exactly one physical row's weights
// (rowWeights(j)); a mutation of physical row pr perturbs only the compiled
// image of the logical row it serves. The incremental-vs-full property tests
// in compiled_test.go pin this, including mutations at the band edges.
func (b *WeightBank) invalidateRow(pr int) {
	b.epoch++
	if b.dirtyAll || b.dirty[pr] {
		return
	}
	b.dirty[pr] = true
	b.nDirty++
}

// Epoch returns the bank's weight-state epoch: a counter bumped by every
// mutation that actually changes what an MVM can observe. The compiled
// snapshot is keyed on it, and tests use it to prove no mutator forgets to
// invalidate. Mutations that provably change nothing — a compare-first
// Program pass that elides every pulse, a Refresh with no displaced cells, a
// fault pin re-applied at its current value — leave the epoch (and therefore
// the compiled snapshot) untouched.
func (b *WeightBank) Epoch() uint64 { return b.epoch }

// DirtyRowCount reports how many physical rows are marked stale for the next
// incremental recompile; a whole-bank invalidation pending reports the full
// row count. Observability for the invalidation protocol (see compiled.go).
func (b *WeightBank) DirtyRowCount() int {
	if b.weff != nil && b.compiledAt == b.epoch {
		return 0
	}
	if b.dirtyAll || b.weff == nil {
		return b.rows
	}
	return b.nDirty
}

// RowsCompiled reports the cumulative number of effective-weight rows
// compiled over the bank's lifetime: a full compile adds Rows, an
// incremental pass adds only the stale-row count. The reliability suite uses
// it to assert that periodic refresh traffic stays off the full-recompile
// path.
func (b *WeightBank) RowsCompiled() uint64 { return b.rowsCompiled.Load() }

// Rows returns J.
func (b *WeightBank) Rows() int { return b.rows }

// Cols returns N.
func (b *WeightBank) Cols() int { return b.cols }

// Tuner returns the tuner at logical (row, col) for inspection.
func (b *WeightBank) Tuner(row, col int) Tuner { return b.tuners[b.rowMap[row]][col] }

// PhysicalTuner returns the tuner of the fabricated ring at physical
// (row, col), independent of the current wear-leveling rotation.
func (b *WeightBank) PhysicalTuner(row, col int) Tuner { return b.tuners[row][col] }

// Weight returns the realized weight at logical (row, col).
func (b *WeightBank) Weight(row, col int) float64 { return b.weights[b.rowMap[row]][col] }

// PhysicalWeight returns the realized weight of the fabricated ring at
// physical (row, col).
func (b *WeightBank) PhysicalWeight(row, col int) float64 { return b.weights[row][col] }

// PhysicalRow returns the physical row currently serving the given logical
// row.
func (b *WeightBank) PhysicalRow(logical int) int { return b.rowMap[logical] }

// LogicalRow returns the logical row currently served by the given physical
// row.
func (b *WeightBank) LogicalRow(physical int) int {
	for lj, pr := range b.rowMap {
		if pr == physical {
			return lj
		}
	}
	return -1
}

// RotateRows advances the wear-leveling rotation by k: logical row j is
// remapped to physical row (j + rotation) mod J, spreading write traffic of
// hot logical rows across all fabricated rings over time. The weights stay
// with their physical rings, so logical reads are stale until the caller
// reprograms the bank. Rotation remaps every logical row at once, so it is a
// whole-bank invalidation — the coarse half of the protocol in compiled.go.
// It returns the new rotation offset.
func (b *WeightBank) RotateRows(k int) int {
	b.rotation = ((b.rotation+k)%b.rows + b.rows) % b.rows
	for j := range b.rowMap {
		b.rowMap[j] = (j + b.rotation) % b.rows
	}
	b.invalidate()
	return b.rotation
}

// RowRotation returns the current wear-leveling rotation offset.
func (b *WeightBank) RowRotation() int { return b.rotation }

// MaskPhysicalRow retires a fabricated row from service: its logical output
// reads zero and Program skips its cells. Masking is the graceful-degradation
// endpoint for rows whose cells died beyond repair.
func (b *WeightBank) MaskPhysicalRow(row int) {
	if row < 0 || row >= b.rows {
		panic(fmt.Sprintf("mrr: mask row %d outside %d-row bank", row, b.rows))
	}
	b.masked[row] = true
	b.invalidateRow(row)
}

// RowMasked reports whether the physical row is retired.
func (b *WeightBank) RowMasked(row int) bool { return b.masked[row] }

// MaskedRowCount returns how many physical rows are retired.
func (b *WeightBank) MaskedRowCount() int {
	n := 0
	for _, m := range b.masked {
		if m {
			n++
		}
	}
	return n
}

// OverrideWeight forces the realized weight at logical (row, col) without
// driving the tuner — the fault-modeling hook: a stuck cell keeps
// transmitting its pinned value no matter what was programmed. It panics on
// out-of-range positions (a wiring error in the caller). A no-op override
// (the cell already reads the pinned value — the common case when fault
// pins are re-applied after every pass) leaves the weight state untouched,
// so it neither bumps the epoch nor dirties the row.
func (b *WeightBank) OverrideWeight(row, col int, w float64) {
	if row < 0 || row >= b.rows || col < 0 || col >= b.cols {
		panic(fmt.Sprintf("mrr: override (%d,%d) outside %d×%d bank", row, col, b.rows, b.cols))
	}
	pr := b.rowMap[row]
	if v := clampWeight(w); b.weights[pr][col] != v {
		b.weights[pr][col] = v
		b.invalidateRow(pr)
	}
}

// OverridePhysicalWeight is OverrideWeight addressing the fabricated ring at
// physical (row, col) — faults pin hardware cells, which stay put while the
// wear-leveling rotation moves logical rows around them.
func (b *WeightBank) OverridePhysicalWeight(row, col int, w float64) {
	if row < 0 || row >= b.rows || col < 0 || col >= b.cols {
		panic(fmt.Sprintf("mrr: override (%d,%d) outside %d×%d bank", row, col, b.rows, b.cols))
	}
	if v := clampWeight(w); b.weights[row][col] != v {
		b.weights[row][col] = v
		b.invalidateRow(row)
	}
}

// ProgramResult summarizes one bank programming operation.
type ProgramResult struct {
	// Elapsed is the wall time of the operation. All rings program in
	// parallel ("all of the MRRs can be tuned in parallel"), so this is
	// the maximum single-cell write time, not the sum.
	Elapsed units.Duration
	// Energy is the total programming energy across all written cells.
	Energy units.Energy
	// CellsWritten counts cells whose state actually changed.
	CellsWritten int
	// Worn lists the physical (row, col) cells whose write pulse failed on
	// exhausted switching endurance during this operation. A worn cell is
	// not an abort: the rest of the bank programs normally and the dead
	// cell keeps transmitting its last state — the caller converts these
	// into stuck-cell fault events.
	Worn [][2]int
}

// Program writes the weight matrix W (dimensions ≤ J×N; missing entries
// keep their value) into the bank, logical row j landing on physical row
// rowMap[j]. Each weight is quantized by its tuner. Programming is issued at
// time now and proceeds for all cells in parallel. Cells whose endurance is
// exhausted are reported in ProgramResult.Worn rather than failing the pass;
// masked (retired) physical rows are skipped entirely.
func (b *WeightBank) Program(w [][]float64, now units.Duration) (ProgramResult, error) {
	if len(w) > b.rows {
		return ProgramResult{}, fmt.Errorf("mrr: %d weight rows exceed bank rows %d", len(w), b.rows)
	}
	var res ProgramResult
	res.Elapsed = 0
	for j := range w {
		if len(w[j]) > b.cols {
			return res, fmt.Errorf("mrr: row %d has %d weights, bank cols %d", j, len(w[j]), b.cols)
		}
		pr := b.rowMap[j]
		if b.masked[pr] {
			continue
		}
		// Invalidation is row-scoped: the row goes stale on its first issued
		// pulse, so reprogramming a handful of rows (or re-issuing values the
		// compare-first logic elides entirely) no longer costs a whole-bank
		// recompile on the next pass.
		rowWritten := false
		for n := range w[j] {
			t := b.tuners[pr][n]
			before := t.Writes()
			beforeE := t.EnergyConsumed()
			actual, done, err := t.Set(w[j][n], now)
			if err != nil {
				if errors.Is(err, pcm.ErrWornOut) {
					res.Worn = append(res.Worn, [2]int{pr, n})
					continue
				}
				return res, fmt.Errorf("mrr: programming (%d,%d): %w", j, n, err)
			}
			// The realized weight moves only when a pulse was actually
			// issued: the compare-first write logic skips cells already at
			// the target level, and a skipped pulse cannot undo drift — the
			// displaced readout stays until Refresh or a real write.
			if t.Writes() != before {
				b.weights[pr][n] = actual
				if !rowWritten {
					rowWritten = true
					b.invalidateRow(pr)
				}
				res.CellsWritten++
				res.Energy += t.EnergyConsumed() - beforeE
				if d := done - now; d > res.Elapsed {
					res.Elapsed = d
				}
			}
		}
	}
	return res, nil
}

// ApplyDrift overwrites the realized weights with each cell's time-drifted
// readout after holding state for the given duration: the read-side effect
// of amorphous-phase structural relaxation as simulated time advances.
// Tuners without a drift model (volatile mechanisms) are left untouched.
// The programmed tuner state is not modified — a subsequent Refresh or
// reprogram restores the nominal weights. Drift relaxes every live cell at
// once, so it is a whole-bank invalidation.
func (b *WeightBank) ApplyDrift(hold units.Duration) {
	b.invalidate()
	for pr := range b.tuners {
		if b.masked[pr] {
			continue
		}
		for n, t := range b.tuners[pr] {
			if d, ok := t.(drifter); ok {
				b.weights[pr][n] = d.DriftedWeight(hold)
			}
		}
	}
}

// Refresh re-issues write pulses on every cell whose realized weight has
// been displaced from its programmed state (by ApplyDrift), restoring the
// nominal weights. Each refresh pulse consumes one endurance cycle and the
// full write energy; cells with no endurance left are reported in Worn and
// keep their displaced state. Masked rows are skipped. Invalidation is
// row-scoped: only rows where a pulse actually lands go stale, so the
// reliability scheduler's periodic refresh of a few displaced rows — or a
// refresh that finds nothing displaced at all — no longer invalidates the
// whole compiled snapshot.
func (b *WeightBank) Refresh(now units.Duration) ProgramResult {
	var res ProgramResult
	for pr := range b.tuners {
		if b.masked[pr] {
			continue
		}
		rowWritten := false
		for n, t := range b.tuners[pr] {
			r, ok := t.(refresher)
			if !ok || b.weights[pr][n] == t.Weight() {
				continue
			}
			beforeE := t.EnergyConsumed()
			done, err := r.Refresh(now)
			if err != nil {
				if errors.Is(err, pcm.ErrWornOut) {
					res.Worn = append(res.Worn, [2]int{pr, n})
					continue
				}
				// Refresh can only fail on endurance; anything else is a
				// modeling bug surfaced loudly.
				panic(fmt.Sprintf("mrr: refresh (%d,%d): %v", pr, n, err))
			}
			b.weights[pr][n] = t.Weight()
			if !rowWritten {
				rowWritten = true
				b.invalidateRow(pr)
			}
			res.CellsWritten++
			res.Energy += t.EnergyConsumed() - beforeE
			if d := done - now; d > res.Elapsed {
				res.Elapsed = d
			}
		}
	}
	return res
}

// mvmPrepare is the preamble shared by every MVM kernel: it sizes dst to
// the bank's row count (allocating only when nil or short) and clamps the
// input length to the bank width. Keeping it in one place guarantees the
// sizing semantics cannot drift between kernels.
func (b *WeightBank) mvmPrepare(dst, x []float64) ([]float64, int) {
	if cap(dst) < b.rows {
		dst = make([]float64, b.rows)
	}
	dst = dst[:b.rows]
	n := len(x)
	if n > b.cols {
		n = b.cols
	}
	return dst, n
}

// rowWeights resolves logical row j through the wear-leveling rotation map:
// it returns the serving physical row's weight slice, or ok = false when
// that physical row is masked (retired), in which case the row's output is
// zero. This is the single definition of the rotation/masking semantics
// every MVM kernel must share.
func (b *WeightBank) rowWeights(j int) (wj []float64, ok bool) {
	pr := b.rowMap[j]
	if b.masked[pr] {
		return nil, false
	}
	return b.weights[pr], true
}

// MVM computes the bank's optical matrix-vector product y = W·x for a
// normalized input vector x (len ≤ N), including inter-channel crosstalk:
// each ring also drops a small amount of its neighbours' channels, so
//
//	y_j = Σ_n w_jn·x_n + Σ_n Σ_{m≠n} w_jm·leak(|m−n|)·x_n
//
// The bank is weight-stationary, so the whole transfer function — weights,
// crosstalk band, wear-leveling rotation and dead-row masking — is constant
// between weight-state mutations. The production kernel exploits that: it
// compiles a flat effective-weight matrix Weff once per epoch (see
// compiled.go) and serves every pass as a single contiguous GEMV with zero
// per-row indirection; ReferenceMVM keeps the O(rows·n·N) triple loop as the
// test oracle. The result is written into dst, which is allocated if nil or
// short. The lazily-recompiled snapshot makes a bank single-writer: callers
// follow the one-goroutine-per-PE ownership contract of the tile-execution
// engine.
func (b *WeightBank) MVM(dst, x []float64) []float64 {
	dst, n := b.mvmPrepare(dst, x)
	b.compiledMVM(dst, x[:n])
	return dst
}

// batchPrepare validates batched-MVM geometry (panicking on a wiring error
// in the caller, like MVMBatchInto always has) and sizes dst to batch×rows,
// allocating only when nil or short.
func (b *WeightBank) batchPrepare(dst, xs []float64, batch, n int) []float64 {
	if n < 0 || n > b.cols {
		panic(fmt.Sprintf("mrr: batch sample width %d outside bank cols %d", n, b.cols))
	}
	if batch < 0 || len(xs) < batch*n {
		panic(fmt.Sprintf("mrr: batch %d×%d needs %d inputs, have %d", batch, n, batch*n, len(xs)))
	}
	if cap(dst) < batch*b.rows {
		dst = make([]float64, batch*b.rows)
	}
	return dst[:batch*b.rows]
}

// MVMBatchInto streams a batch of input vectors through the weight-
// stationary bank: sample s occupies xs[s*n : (s+1)*n] and its outputs land
// in dst[s*J : (s+1)*J], both sample-major. It runs the register-blocked
// compiled kernel (compiled.go), which amortizes each effective-weight row
// across four samples at a time while staying bit-identical to per-sample
// MVM calls; the steady-state path performs zero per-sample allocations. It
// panics on inconsistent geometry (a wiring error in the caller). dst is
// allocated when nil or short.
func (b *WeightBank) MVMBatchInto(dst, xs []float64, batch, n int) []float64 {
	dst = b.batchPrepare(dst, xs, batch, n)
	b.compiledMVMBatch(dst, xs, batch, n)
	return dst
}

// ReferenceMVM computes the bank MVM with the original O(rows·n·N)
// triple-loop kernel, straight from the stored weights. It is the test
// oracle: the property suites pin the compiled kernel against it to 1e-12
// relative error, and the benchmark trajectory gates the compiled kernel's
// speedup over it.
func (b *WeightBank) ReferenceMVM(dst, x []float64) []float64 {
	dst, n := b.mvmPrepare(dst, x)
	for j := 0; j < b.rows; j++ {
		wj, ok := b.rowWeights(j)
		if !ok {
			dst[j] = 0
			continue
		}
		var acc float64
		for i := 0; i < n; i++ {
			acc += wj[i] * x[i]
		}
		// Crosstalk: channel i leaks into the ring at column m with
		// attenuation crosstalk[|m−i|]. The leaked power carries the
		// neighbouring ring's weight. Distances beyond the band radius sit
		// under the detector floor by construction, so the walk is bounded
		// to the pre-clipped band instead of re-checking the floor per ring.
		for i := 0; i < n; i++ {
			xi := x[i]
			if xi == 0 {
				continue
			}
			for m := 0; m < b.cols; m++ {
				d := m - i
				if d < 0 {
					d = -d
				}
				if d == 0 || d > b.bandRadius {
					continue
				}
				acc += wj[m] * b.band[d] * xi
			}
		}
		dst[j] = acc
	}
	return dst
}

// IdealMVM computes y = W·x with the realized weights but without
// crosstalk, for error-budget comparisons.
func (b *WeightBank) IdealMVM(dst, x []float64) []float64 {
	dst, n := b.mvmPrepare(dst, x)
	for j := 0; j < b.rows; j++ {
		wj, ok := b.rowWeights(j)
		if !ok {
			dst[j] = 0
			continue
		}
		var acc float64
		for i := 0; i < n; i++ {
			acc += wj[i] * x[i]
		}
		dst[j] = acc
	}
	return dst
}

// CrosstalkProfile returns a copy of the bank's drop-leakage calibration:
// entry d is the linear leakage a ring inflicts on a channel d slots away
// (entry 0, the intended signal, is zero). The profile is a fabrication
// characterization constant — the control unit's self-test uses it to
// predict what a healthy bank should measure, without reading any cell
// state.
func (b *WeightBank) CrosstalkProfile() []float64 {
	return append([]float64(nil), b.crosstalk...)
}

// BandRadius returns the effective crosstalk band radius: the largest
// channel distance whose leakage coefficient is at least the detector
// floor (1e-9 linear). It is computed once at construction; the MVM
// kernels, the self-test expectation model and the crosstalk reporters all
// share this clipped radius rather than rescanning the profile. A radius
// of zero means no neighbour leaks measurably.
func (b *WeightBank) BandRadius() int { return b.bandRadius }

// WorstCrosstalk returns the largest single-neighbour leakage coefficient
// within the effective band, in dB. For a legal channel plan this is below
// −30 dB; a bank whose whole profile sits under the detector floor reports
// −Inf.
func (b *WeightBank) WorstCrosstalk() float64 {
	worst := 0.0
	for _, c := range b.crosstalk[1 : b.bandRadius+1] {
		if c > worst {
			worst = c
		}
	}
	return optics.LinearToDB(worst)
}

// HoldPower returns the continuous power the bank draws to keep its weights
// in place: zero for a PCM bank, rings×1.7 mW for a thermal bank.
func (b *WeightBank) HoldPower() units.Power {
	var p units.Power
	for j := range b.tuners {
		for _, t := range b.tuners[j] {
			p += t.HoldPower()
		}
	}
	return p
}

// ProgrammingEnergy returns the cumulative tuning energy across all cells.
func (b *WeightBank) ProgrammingEnergy() units.Energy {
	var e units.Energy
	for j := range b.tuners {
		for _, t := range b.tuners[j] {
			e += t.EnergyConsumed()
		}
	}
	return e
}

// QuantizationError returns the worst |requested − realized| weight error
// the bank's resolution would introduce when programming matrix w, without
// writing anything. All tuners in a bank share a resolution.
func (b *WeightBank) QuantizationError(w [][]float64) float64 {
	q := fixed.MustForBits(b.tuners[0][0].Bits())
	worst := 0.0
	for j := range w {
		for n := range w[j] {
			if e := math.Abs(q.Error(clampWeight(w[j][n]))); e > worst {
				worst = e
			}
		}
	}
	return worst
}

func clampWeight(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}
