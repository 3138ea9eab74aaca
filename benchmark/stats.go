package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark treats it as measured rather than as one outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted
// ascending values, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the nearest-rank p-quantile
// position of an n-sample set.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// tailPercentiles are the candidates highestPercentile picks from.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// highestPercentile returns the highest of tailPercentiles that has at
// least minBeyond of n samples beyond it, or 0 when even the median has
// fewer.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// sortedCopy returns vals sorted ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median returns the median of vals (mean of the middle pair for an even
// count), or 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// latencySummary is the reported view of one set of per-request latencies.
type latencySummary struct {
	N       int     `json:"n"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	P99Ms   float64 `json:"p99_ms"`
	Beyond  int     `json:"p99_beyond"`
	TailPct float64 `json:"tail_pct"`
	TailMs  float64 `json:"tail_ms"`
}

// summarize reduces per-request latencies in milliseconds. A failed
// request is passed in as failedMs, a value above any latency limit.
func summarize(ms []float64) latencySummary {
	s := sortedCopy(ms)
	tail := highestPercentile(len(s))
	return latencySummary{
		N:       len(s),
		P50Ms:   percentile(s, 0.5),
		P90Ms:   percentile(s, 0.9),
		P99Ms:   percentile(s, 0.99),
		Beyond:  beyond(len(s), 0.99),
		TailPct: tail * 100,
		TailMs:  percentile(s, tail),
	}
}

// rateWindow is the bucket width of rateMeter.
const rateWindow = time.Second

// rateMeter counts completed samples in fixed windows from a start time,
// so throughput can be reported as the median window rate, which a short
// stall of the host does not move.
type rateMeter struct {
	start  time.Time
	counts []float64
}

func newRateMeter(start time.Time) *rateMeter { return &rateMeter{start: start} }

// add counts n samples completed at the given instant.
func (m *rateMeter) add(at time.Time, n int) {
	i := int(at.Sub(m.start) / rateWindow)
	if i < 0 {
		return
	}
	for len(m.counts) <= i {
		m.counts = append(m.counts, 0)
	}
	m.counts[i] += float64(n)
}

// merge adds another meter's counts (same start) into m.
func (m *rateMeter) merge(o *rateMeter) {
	for len(m.counts) < len(o.counts) {
		m.counts = append(m.counts, 0)
	}
	for i, c := range o.counts {
		m.counts[i] += c
	}
}

// windows returns the sample counts of the whole windows that end by end,
// a window without a completion counting 0.
func (m *rateMeter) windows(end time.Time) []float64 {
	full := int(end.Sub(m.start) / rateWindow)
	for len(m.counts) < full {
		m.counts = append(m.counts, 0)
	}
	return m.counts[:full]
}

// perSecond returns the median rate over the windows that end by end, or
// the overall rate when the run is shorter than one window.
func (m *rateMeter) perSecond(end time.Time) float64 {
	if w := m.windows(end); len(w) > 0 {
		return median(w) / rateWindow.Seconds()
	}
	var total float64
	for _, c := range m.counts {
		total += c
	}
	return total / end.Sub(m.start).Seconds()
}
