package serve

import (
	"sort"
	"sync"
	"time"
)

// latWindow is the sliding latency window percentiles are computed over.
const latWindow = 4096

// ewmaAlpha smooths the per-sample service time and maintenance-window
// duration estimates admission control uses.
const ewmaAlpha = 0.3

// defaultPerSample seeds the service-time estimate before the first batch
// completes, so admission control has something to compare against.
const defaultPerSample = 200 * time.Microsecond

// stats is the batcher's metrics collector. All methods are safe for
// concurrent use.
type stats struct {
	mu sync.Mutex

	nSubmitted, nServed, nFailed                   uint64
	nRejectedQueueFull, nRejectedDeadline          uint64
	nRejectedShutdown, nDeadlineExpired, nBadInput uint64
	nBatches                                       uint64
	batchHist                                      []uint64 // index = batch size
	lat                                            []time.Duration
	latCursor                                      int
	latFull                                        bool
	perSample, maint                               time.Duration
}

func newStats(maxBatch int) *stats {
	return &stats{
		batchHist: make([]uint64, maxBatch+1),
		lat:       make([]time.Duration, latWindow),
	}
}

func (s *stats) bump(field *uint64) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
}

func (s *stats) submitted()         { s.bump(&s.nSubmitted) }
func (s *stats) failed()            { s.bump(&s.nFailed) }
func (s *stats) rejectedQueueFull() { s.bump(&s.nRejectedQueueFull) }
func (s *stats) rejectedDeadline()  { s.bump(&s.nRejectedDeadline) }
func (s *stats) rejectedShutdown()  { s.bump(&s.nRejectedShutdown) }
func (s *stats) deadlineExpired()   { s.bump(&s.nDeadlineExpired) }
func (s *stats) badInput()          { s.bump(&s.nBadInput) }

// served records one delivered result and its end-to-end latency.
func (s *stats) served(latency time.Duration) {
	s.mu.Lock()
	s.nServed++
	s.lat[s.latCursor] = latency
	s.latCursor++
	if s.latCursor == len(s.lat) {
		s.latCursor = 0
		s.latFull = true
	}
	s.mu.Unlock()
}

// observeBatch records one executed batch: size histogram and the smoothed
// per-sample service time.
func (s *stats) observeBatch(size int, elapsed time.Duration) {
	s.mu.Lock()
	s.nBatches++
	if size < len(s.batchHist) {
		s.batchHist[size]++
	}
	per := elapsed / time.Duration(size)
	if s.perSample == 0 {
		s.perSample = per
	} else {
		s.perSample = time.Duration((1-ewmaAlpha)*float64(s.perSample) + ewmaAlpha*float64(per))
	}
	s.mu.Unlock()
}

// observeMaint records the duration of one maintenance window.
func (s *stats) observeMaint(elapsed time.Duration) {
	s.mu.Lock()
	if s.maint == 0 {
		s.maint = elapsed
	} else {
		s.maint = time.Duration((1-ewmaAlpha)*float64(s.maint) + ewmaAlpha*float64(elapsed))
	}
	s.mu.Unlock()
}

// perSampleEstimate is the smoothed service time per sample, seeded with a
// conservative default before the first batch lands.
func (s *stats) perSampleEstimate() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.perSample == 0 {
		return defaultPerSample
	}
	return s.perSample
}

// maintEstimate is the smoothed maintenance-window duration.
func (s *stats) maintEstimate() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maint
}

// Snapshot is the point-in-time metrics view exported on /stats.
type Snapshot struct {
	Submitted         uint64 `json:"submitted"`
	Served            uint64 `json:"served"`
	Failed            uint64 `json:"failed"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedDeadline  uint64 `json:"rejected_deadline"`
	RejectedShutdown  uint64 `json:"rejected_shutdown"`
	DeadlineExpired   uint64 `json:"deadline_expired"`
	BadInput          uint64 `json:"bad_input"`

	Batches uint64 `json:"batches"`
	// BatchSizeHist[i] counts batches of size i (index 0 unused).
	BatchSizeHist []uint64 `json:"batch_size_hist"`
	QueueDepth    int      `json:"queue_depth"`
	Draining      bool     `json:"draining"`

	P50Ms       float64 `json:"latency_p50_ms"`
	P99Ms       float64 `json:"latency_p99_ms"`
	PerSampleUs float64 `json:"per_sample_us"`
	MaintMs     float64 `json:"maintenance_ms"`

	Health Health `json:"health"`
}

// Lost returns the number of submitted requests not accounted for by any
// outcome counter — the soak test's zero-lost-requests invariant is
// Lost() == 0 with every caller returned.
func (sn Snapshot) Lost() int64 {
	accounted := sn.Served + sn.Failed + sn.RejectedQueueFull + sn.RejectedDeadline +
		sn.RejectedShutdown + sn.DeadlineExpired + sn.BadInput
	return int64(sn.Submitted) - int64(accounted)
}

func (s *stats) snapshot(queueDepth int, h Health, draining bool) Snapshot {
	s.mu.Lock()
	sn := Snapshot{
		Submitted:         s.nSubmitted,
		Served:            s.nServed,
		Failed:            s.nFailed,
		RejectedQueueFull: s.nRejectedQueueFull,
		RejectedDeadline:  s.nRejectedDeadline,
		RejectedShutdown:  s.nRejectedShutdown,
		DeadlineExpired:   s.nDeadlineExpired,
		BadInput:          s.nBadInput,
		Batches:           s.nBatches,
		BatchSizeHist:     append([]uint64(nil), s.batchHist...),
		QueueDepth:        queueDepth,
		Draining:          draining,
		PerSampleUs:       float64(s.perSample) / float64(time.Microsecond),
		MaintMs:           float64(s.maint) / float64(time.Millisecond),
		Health:            h,
	}
	n := s.latCursor
	if s.latFull {
		n = len(s.lat)
	}
	window := append([]time.Duration(nil), s.lat[:n]...)
	s.mu.Unlock()
	if len(window) > 0 {
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		sn.P50Ms = float64(percentile(window, 0.50)) / float64(time.Millisecond)
		sn.P99Ms = float64(percentile(window, 0.99)) / float64(time.Millisecond)
	}
	return sn
}

// Aggregate merges per-replica snapshots into one fleet view: counters and
// batch-size histograms are summed (so the ledger identity survives —
// aggregate Lost() is the sum of the parts'), queue depths add, and the
// fleet is draining only when every part is. Latency percentiles and rate
// estimates cannot be recovered exactly from already-reduced snapshots, so
// they are served-weighted means of the per-replica values — a documented
// approximation, good enough for the /stats dashboard and exact when the
// replicas are similarly loaded. Health is taken from the most degraded
// part (max faults+masked rows) since a fleet is as healthy as its worst
// replica makes visible.
func Aggregate(snaps ...Snapshot) Snapshot {
	var agg Snapshot
	if len(snaps) == 0 {
		return agg
	}
	agg.Draining = true
	var weight float64
	worst := -1
	for i, sn := range snaps {
		agg.Submitted += sn.Submitted
		agg.Served += sn.Served
		agg.Failed += sn.Failed
		agg.RejectedQueueFull += sn.RejectedQueueFull
		agg.RejectedDeadline += sn.RejectedDeadline
		agg.RejectedShutdown += sn.RejectedShutdown
		agg.DeadlineExpired += sn.DeadlineExpired
		agg.BadInput += sn.BadInput
		agg.Batches += sn.Batches
		agg.QueueDepth += sn.QueueDepth
		agg.Draining = agg.Draining && sn.Draining
		if len(sn.BatchSizeHist) > len(agg.BatchSizeHist) {
			agg.BatchSizeHist = append(agg.BatchSizeHist,
				make([]uint64, len(sn.BatchSizeHist)-len(agg.BatchSizeHist))...)
		}
		for j, c := range sn.BatchSizeHist {
			agg.BatchSizeHist[j] += c
		}
		w := float64(sn.Served)
		agg.P50Ms += w * sn.P50Ms
		agg.P99Ms += w * sn.P99Ms
		agg.PerSampleUs += w * sn.PerSampleUs
		agg.MaintMs += w * sn.MaintMs
		weight += w
		if deg := sn.Health.Faults + sn.Health.MaskedRows; worst < 0 || deg > snaps[worst].Health.Faults+snaps[worst].Health.MaskedRows {
			agg.Health = sn.Health
			worst = i
		}
	}
	if weight > 0 {
		agg.P50Ms /= weight
		agg.P99Ms /= weight
		agg.PerSampleUs /= weight
		agg.MaintMs /= weight
	} else {
		agg.P50Ms, agg.P99Ms, agg.PerSampleUs, agg.MaintMs = 0, 0, 0, 0
	}
	return agg
}

// percentile reads the p-quantile from a sorted window (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	idx := int(p * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
