package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer. Times
// are nanoseconds since the tracer's origin; Parent indexes the causing
// span (-1 for a root) and Req ties together the spans of one request
// (0 when the span belongs to no single request).
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	Req    int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
type tracer struct {
	origin time.Time
	max    int

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(max int) *tracer {
	return &tracer{origin: time.Now(), max: max}
}

// since converts a wall-clock instant to tracer nanoseconds.
func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.origin))
}

// add records one span from wall-clock instants and returns its index
// (-1 when untraced or over the span budget).
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Start: t.since(start), End: t.since(end), Parent: parent, Req: req}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// snapshot returns the recorded spans and the count dropped over budget.
func (t *tracer) snapshot() ([]span, int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once, and child
// time outside the parent's interval is ignored).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	if len(ivs) == 0 {
		return 0
	}
	var total int64
	curLo, curHi := ivs[0].lo, ivs[0].hi
	for _, v := range ivs[1:] {
		if v.lo <= curHi {
			if v.hi > curHi {
				curHi = v.hi
			}
			continue
		}
		total += curHi - curLo
		curLo, curHi = v.lo, v.hi
	}
	return total + curHi - curLo
}

// spanDurationsMs returns the durations, in milliseconds, of every span
// with the given name; with self set it returns self times instead.
func spanDurationsMs(spans []span, self []int64, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self != nil {
			d = self[i]
		}
		out = append(out, float64(d)/1e6)
	}
	return out
}

// spanRecord is the on-disk form of one span.
type spanRecord struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req,omitempty"`
}

// writeSpans writes spans as gzipped JSON lines, one span per line, in
// recording order (so Parent is a line index).
func writeSpans(path string, spans []span, self []int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		rec := spanRecord{Name: s.Name, Start: s.Start, End: s.End, Self: self[i], Parent: s.Parent, Req: s.Req}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
