package main

import (
	"testing"
	"time"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	s := ramp(100)
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, // 10 samples above the 99.9th
		{9999, 0.99},   // only 9 above the 99.9th
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{100, 0.9},
		{20, 0.5},
		{19, 0},
		{0, 0},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := highestPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v has only %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestSummarizeCountsFailuresAsSlowest(t *testing.T) {
	const failedMs = 1e6
	lat := ramp(1000)
	for i := 0; i < 20; i++ {
		lat[i] = failedMs // 2% of requests failed
	}
	s := summarize(lat)
	if s.N != 1000 || s.Beyond != 10 {
		t.Fatalf("n=%d beyond=%d, want 1000 and 10", s.N, s.Beyond)
	}
	if s.P99Ms != failedMs {
		t.Errorf("p99 = %v, want the failure value %v", s.P99Ms, failedMs)
	}
	if s.TailPct != 99 {
		t.Errorf("tail percentile = %v, want 99", s.TailPct)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if in[0] != 4 {
		t.Errorf("median reordered its input")
	}
}

func TestCollectReportsEveryDeclaredMetric(t *testing.T) {
	rep := newReport()
	for n := range endToEnd {
		rep.e2e.put(n, 1)
	}
	rep.layer.put("serve.batches", 7)
	got, err := collect(rep, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(perLayer) || got["serve.batches"].Value != 7 || got["mrr.dirty_rows"].Value != 0 {
		t.Errorf("traced metrics = %v", got)
	}
	delete(rep.e2e, "setup_s")
	if _, err := collect(rep, false); err == nil {
		t.Error("a missing end-to-end metric was not reported")
	}
	rep.e2e.put("setup_s", 1)
	rep.e2e.put("undeclared", 1)
	if _, err := collect(rep, false); err == nil {
		t.Error("an undeclared metric was not reported")
	}
}

func TestRateMeterMedianWindow(t *testing.T) {
	start := time.Unix(100, 0)
	m := newRateMeter(start)
	o := newRateMeter(start)
	// Windows 0..4 complete 10, 12, 2 (a stall), 11 and 9 samples; window 5
	// is partial and must not count.
	for w, n := range []int{10, 12, 2, 11, 9, 50} {
		at := start.Add(time.Duration(w)*time.Second + 500*time.Millisecond)
		m.add(at, n/2)
		o.add(at, n-n/2)
	}
	m.merge(o)
	if got := m.perSecond(start.Add(5*time.Second + 100*time.Millisecond)); got != 10 {
		t.Errorf("median window rate = %v, want 10", got)
	}
	// A window with no completion at all counts as zero.
	if got := m.perSecond(start.Add(9 * time.Second)); got != 9 {
		t.Errorf("with three empty windows the median = %v, want 9", got)
	}
	short := newRateMeter(start)
	short.add(start.Add(100*time.Millisecond), 5)
	if got := short.perSecond(start.Add(500 * time.Millisecond)); got != 10 {
		t.Errorf("sub-window run rate = %v, want 10", got)
	}
}
