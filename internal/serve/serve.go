// Package serve implements the network-facing inference front-end: a
// deadline-aware micro-batching layer between concurrent callers and one
// photonic accelerator. Concurrent requests coalesce into micro-batches
// under a time/size window and run through the batched forward path, so the
// weight-programming and streaming amortization the kernels earn is visible
// to network clients, not just offline benchmarks.
//
// Robustness is the contract, not an afterthought:
//
//   - Admission control. Every request carries a context; requests whose
//     deadline cannot be met given the current queue and service-time
//     estimate are rejected up front with ErrDeadline, and a bounded queue
//     applies backpressure (ErrQueueFull) instead of unbounded goroutine
//     growth.
//   - Exactly-once outcomes. Every submitted request ends in exactly one of
//     {result, typed rejection, deadline error} — a per-request settle flag
//     arbitrates between the dispatcher delivering a result and the caller
//     abandoning the wait, so no request is ever lost or double-counted.
//   - Maintenance draining. The batcher owns a single execute token; the
//     dispatcher holds it for the duration of each batch, and maintenance
//     (BIST, drift refresh, wear-leveling rotation, chaos injection)
//     acquires it through Acquire, so a bank mutation never races an MVM.
//   - Graceful shutdown. Shutdown stops admission, flushes the queued
//     requests through the engine, and — past the caller's hard timeout —
//     cancels the in-flight batch at the next node checkpoint.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Typed rejection errors. Every Submit failure wraps exactly one of these
// (or the request context's error), so callers and the HTTP layer can map
// outcomes without string matching.
var (
	// ErrBadInput rejects a feature vector of the wrong width.
	ErrBadInput = errors.New("serve: bad input")
	// ErrQueueFull is the backpressure rejection: the bounded queue is at
	// capacity and the caller should retry after the estimated wait.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrShuttingDown rejects work during connection-draining shutdown.
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrDeadline is the admission-control rejection: the request's
	// deadline cannot be met given the current queue and service estimate,
	// so it is refused before consuming a queue slot.
	ErrDeadline = errors.New("serve: deadline unattainable")
)

// Engine is the inference surface the batcher drives. *core.Graph
// implements it; tests substitute slow or failing engines.
type Engine interface {
	// PredictBatchCtx classifies batch row-major samples, honouring
	// cancellation at node granularity.
	PredictBatchCtx(ctx context.Context, dst []int, xs []float64, batch int) ([]int, error)
	// InputSize is the feature width of one sample.
	InputSize() int
}

// Health is the degradation snapshot surfaced on /readyz and /stats. It is
// captured only while the execute token is held (the accelerator's ledger
// and fault counters are not safe to read mid-batch) and cached, so the
// HTTP handlers never touch the graph.
type Health struct {
	// Degraded reports that the accelerator is serving in degraded mode:
	// BIST has masked rows or stuck faults are present.
	Degraded bool `json:"degraded"`
	// Faults is the current stuck-cell count; MaskedRows the retired rows.
	Faults     int `json:"faults"`
	MaskedRows int `json:"masked_rows"`
	// EnergyJ, AvgPowerW and SimElapsedS summarize the energy ledger.
	EnergyJ     float64 `json:"energy_j"`
	AvgPowerW   float64 `json:"avg_power_w"`
	SimElapsedS float64 `json:"sim_elapsed_s"`
	// Energy is the per-category ledger breakdown in joules.
	Energy map[string]float64 `json:"energy_breakdown_j,omitempty"`
	// WearDrawDown is the mean per-cell endurance fraction consumed by
	// lifetime writes (0 = pristine banks, ≥1 = exhausted); WornCells
	// counts cells past their budget. A wear-aware router steers traffic
	// toward replicas with the lowest draw-down.
	WearDrawDown float64 `json:"wear_draw_down"`
	WornCells    int     `json:"worn_cells"`
}

// Config parameterizes a Batcher. Zero values select the documented
// defaults.
type Config struct {
	// MaxBatch caps one micro-batch (default 16). A batch dispatches as
	// soon as it is full.
	MaxBatch int
	// MaxWait is the time window: a partial batch dispatches once its
	// oldest request has waited this long (default 2ms).
	MaxWait time.Duration
	// QueueCap bounds the admission queue (default 4×MaxBatch). A full
	// queue rejects with ErrQueueFull instead of queueing unboundedly.
	QueueCap int
	// Probe captures a Health snapshot. It is called only while the
	// execute token is held. Nil disables health reporting.
	Probe func() Health
	// Journal, when non-nil, records every executed batch (and, via
	// Acquire holders, every bank mutation) in execution order for
	// offline bit-identity replay.
	Journal *Journal
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	return c
}

type outcome struct {
	class int
	err   error
}

type request struct {
	x   []float64
	enq time.Time
	// done carries the single outcome; buffered so the dispatcher never
	// blocks delivering to a caller that is about to abandon the wait.
	done chan outcome
	// settled arbitrates exactly-once delivery: whoever wins the
	// compare-and-swap (dispatcher with a result, or caller on deadline)
	// owns the outcome accounting.
	settled atomic.Bool
}

// Batcher coalesces concurrent Submit calls into micro-batches and owns
// the accelerator's execute token.
type Batcher struct {
	cfg Config
	eng Engine

	queue chan *request
	// gate is the execute token (capacity 1). The dispatcher holds it
	// across each engine call; maintenance holds it across each bank
	// mutation. Whoever holds it has exclusive use of the accelerator.
	gate  chan struct{}
	stopc chan struct{}

	// baseCtx cancels only at hard-shutdown: it aborts an in-flight batch
	// at the engine's next node checkpoint.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// mu guards closed. Submit enqueues under the read lock; Shutdown
	// sets closed under the write lock, so once Shutdown proceeds no new
	// request can slip past the flush.
	mu     sync.RWMutex
	closed bool

	wg       sync.WaitGroup
	drainers atomic.Int64 // maintenance waiters/holders, for wait estimates
	health   atomic.Value // Health
	stats    *stats

	// Dispatcher-goroutine scratch, reused across batches.
	xbuf   []float64
	clsBuf []int
}

// NewBatcher starts a batcher over eng and its dispatcher goroutine.
func NewBatcher(eng Engine, cfg Config) *Batcher {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	b := &Batcher{
		cfg:        cfg,
		eng:        eng,
		queue:      make(chan *request, cfg.QueueCap),
		gate:       make(chan struct{}, 1),
		stopc:      make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
		stats:      newStats(cfg.MaxBatch),
	}
	if cfg.Probe != nil {
		b.health.Store(cfg.Probe()) // batcher not serving yet: safe
	} else {
		b.health.Store(Health{})
	}
	b.wg.Add(1)
	go b.dispatch()
	return b
}

// Submit classifies one sample. It blocks until the request resolves:
// a class, a typed rejection (ErrBadInput, ErrQueueFull, ErrShuttingDown,
// ErrDeadline), or the request context's own error if the deadline expires
// while queued. Exactly one of those happens for every call.
func (b *Batcher) Submit(ctx context.Context, x []float64) (int, error) {
	b.stats.submitted()
	if want := b.eng.InputSize(); len(x) != want {
		b.stats.badInput()
		return 0, fmt.Errorf("%w: got %d features, want %d", ErrBadInput, len(x), want)
	}
	if deadline, ok := ctx.Deadline(); ok {
		if wait := b.EstimateWait(); time.Now().Add(wait).After(deadline) {
			b.stats.rejectedDeadline()
			return 0, fmt.Errorf("%w: estimated wait %v, budget %v",
				ErrDeadline, wait.Round(time.Microsecond), time.Until(deadline).Round(time.Microsecond))
		}
	}
	req := &request{x: x, enq: time.Now(), done: make(chan outcome, 1)}
	// Enqueue under the read lock: Shutdown flips closed under the write
	// lock before flushing, so a request either observes closed or is in
	// the queue before the flush drains it — never lost in between.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		b.stats.rejectedShutdown()
		return 0, ErrShuttingDown
	}
	select {
	case b.queue <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.stats.rejectedQueueFull()
		return 0, fmt.Errorf("%w: %d queued", ErrQueueFull, b.cfg.QueueCap)
	}
	select {
	case out := <-req.done:
		return out.class, out.err
	case <-ctx.Done():
		if req.settled.CompareAndSwap(false, true) {
			b.stats.deadlineExpired()
			return 0, fmt.Errorf("serve: abandoned in queue: %w", ctx.Err())
		}
		// The dispatcher won the settle race: the outcome is in (or
		// about to hit) the buffered channel.
		out := <-req.done
		return out.class, out.err
	}
}

// Acquire claims the execute token for a maintenance window, blocking
// until the in-flight batch (if any) completes. It returns a release
// function; between Acquire and release the holder has exclusive use of
// the accelerator and may mutate banks freely. Acquire implements
// reliability.Gate, so a remediation scheduler wired via SetGate drains
// the batcher automatically around every health check.
func (b *Batcher) Acquire(ctx context.Context) (func(), error) {
	b.drainers.Add(1)
	select {
	case b.gate <- struct{}{}:
		start := time.Now()
		var once sync.Once
		return func() {
			once.Do(func() {
				b.stats.observeMaint(time.Since(start))
				<-b.gate
				b.drainers.Add(-1)
			})
		}, nil
	case <-ctx.Done():
		b.drainers.Add(-1)
		return nil, ctx.Err()
	case <-b.baseCtx.Done():
		b.drainers.Add(-1)
		return nil, fmt.Errorf("%w: batcher stopped", ErrShuttingDown)
	}
}

// EstimateWait predicts how long a request submitted now would wait: the
// batch window, plus the queued work ahead of it at the smoothed
// per-sample service time, plus a smoothed maintenance penalty when a
// maintenance window is pending or in progress. Admission control compares
// this against request deadlines.
func (b *Batcher) EstimateWait() time.Duration {
	est := b.cfg.MaxWait + time.Duration(len(b.queue)+1)*b.stats.perSampleEstimate()
	if b.drainers.Load() > 0 {
		est += b.stats.maintEstimate()
	}
	return est
}

// Health returns the cached degradation snapshot.
func (b *Batcher) Health() Health {
	h, _ := b.health.Load().(Health)
	return h
}

// RefreshHealth re-probes health under the execute token. Maintenance
// calls it after every check so masking/degradation is visible promptly.
func (b *Batcher) RefreshHealth(ctx context.Context) error {
	if b.cfg.Probe == nil {
		return nil
	}
	release, err := b.Acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	b.health.Store(b.cfg.Probe())
	return nil
}

// Accepting reports whether Submit still admits new requests.
func (b *Batcher) Accepting() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return !b.closed
}

// Draining reports whether a maintenance window is pending or in progress:
// some holder is waiting on or owns the execute token via Acquire. A
// router uses this to shift traffic to warm sibling replicas instead of
// queueing new work behind the drain.
func (b *Batcher) Draining() bool { return b.drainers.Load() > 0 }

// QueueDepth returns the current number of queued requests.
func (b *Batcher) QueueDepth() int { return len(b.queue) }

// Stats returns a point-in-time metrics snapshot.
func (b *Batcher) Stats() Snapshot {
	return b.stats.snapshot(len(b.queue), b.Health(), !b.Accepting())
}

// Shutdown drains gracefully: it stops admission, flushes every queued
// request through the engine, and waits for the dispatcher. If ctx expires
// first, it hard-cancels — the in-flight batch aborts at the engine's next
// node checkpoint and the remaining requests resolve with a shutdown
// error. Either way every in-flight request gets an outcome. Idempotent.
func (b *Batcher) Shutdown(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stopc)
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		b.baseCancel()
		return nil
	case <-ctx.Done():
		b.baseCancel() // hard timeout: abort at next node checkpoint
		<-done
		return fmt.Errorf("serve: hard shutdown: %w", ctx.Err())
	}
}

func (b *Batcher) dispatch() {
	defer b.wg.Done()
	for {
		select {
		case first := <-b.queue:
			b.runBatch(b.collect(first))
		case <-b.stopc:
			b.flush()
			return
		}
	}
}

// collect grows a batch from first until the size cap, the time window, or
// shutdown — whichever comes first.
func (b *Batcher) collect(first *request) []*request {
	batch := make([]*request, 1, b.cfg.MaxBatch)
	batch[0] = first
	timer := time.NewTimer(b.cfg.MaxWait)
	defer timer.Stop()
	for len(batch) < b.cfg.MaxBatch {
		select {
		case r := <-b.queue:
			batch = append(batch, r)
		case <-timer.C:
			return batch
		case <-b.stopc:
			return batch
		}
	}
	return batch
}

// flush drains the queue after stopc: every request admitted before
// Shutdown flipped closed still runs through the engine.
func (b *Batcher) flush() {
	for {
		batch := make([]*request, 0, b.cfg.MaxBatch)
		for filling := true; filling && len(batch) < b.cfg.MaxBatch; {
			select {
			case r := <-b.queue:
				batch = append(batch, r)
			default:
				filling = false
			}
		}
		if len(batch) == 0 {
			return
		}
		b.runBatch(batch)
	}
}

// runBatch executes one micro-batch under the execute token and settles
// every member exactly once.
func (b *Batcher) runBatch(batch []*request) {
	live := batch[:0:0]
	for _, r := range batch {
		if r.settled.Load() { // caller already abandoned the wait
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	select {
	case b.gate <- struct{}{}:
	case <-b.baseCtx.Done():
		b.fail(live, fmt.Errorf("%w: hard shutdown before dispatch", ErrShuttingDown))
		return
	}
	start := time.Now()
	n, width := len(live), b.eng.InputSize()
	if cap(b.xbuf) < n*width {
		b.xbuf = make([]float64, n*width)
	}
	xs := b.xbuf[:n*width]
	for i, r := range live {
		copy(xs[i*width:(i+1)*width], r.x)
	}
	if cap(b.clsBuf) < n {
		b.clsBuf = make([]int, n)
	}
	classes, err := b.eng.PredictBatchCtx(b.baseCtx, b.clsBuf[:n], xs, n)
	if err == nil {
		if b.cfg.Journal != nil {
			b.cfg.Journal.Record(Op{
				Kind:    OpBatch,
				Inputs:  append([]float64(nil), xs...),
				Batch:   n,
				Classes: append([]int(nil), classes...),
			})
		}
	}
	if b.cfg.Probe != nil {
		b.health.Store(b.cfg.Probe())
	}
	<-b.gate
	if err != nil {
		if b.baseCtx.Err() != nil {
			err = fmt.Errorf("%w: %v", ErrShuttingDown, err)
		}
		b.fail(live, err)
		return
	}
	b.stats.observeBatch(n, time.Since(start))
	for i, r := range live {
		if r.settled.CompareAndSwap(false, true) {
			b.stats.served(time.Since(r.enq))
			r.done <- outcome{class: classes[i]}
		}
	}
}

// fail settles every still-waiting member of batch with err.
func (b *Batcher) fail(batch []*request, err error) {
	for _, r := range batch {
		if r.settled.CompareAndSwap(false, true) {
			if errors.Is(err, ErrShuttingDown) {
				b.stats.rejectedShutdown()
			} else {
				b.stats.failed()
			}
			r.done <- outcome{err: err}
		}
	}
}
