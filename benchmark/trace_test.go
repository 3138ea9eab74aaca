package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: [10,50] counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // only [90,100] lies inside the parent
		{Name: "a.child", Start: 12, End: 14, Parent: 1},
		{Name: "other", Start: 0, End: 100, Parent: -1},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 2, 30, 30, 2, 100}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimeOfRequestIsTheReplySegment(t *testing.T) {
	// The serve split: wait and exec children leave the reply as the
	// handler span's self time.
	spans := []span{
		{Name: "serve.handler", Start: 1000, End: 1900, Parent: -1, Req: 7},
		{Name: "serve.wait", Start: 1000, End: 1500, Parent: 0, Req: 7},
		{Name: "serve.exec", Start: 1500, End: 1600, Parent: 0, Req: 7},
	}
	got := spanDurationsMs(spans, selfTimes(spans), "serve.handler")
	if len(got) != 1 || got[0] != 300e-6 {
		t.Errorf("reply = %v ms, want [0.0003]", got)
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	if i := tr.add("x", time.Now(), time.Now(), -1, 1); i != -1 {
		t.Errorf("nil tracer add = %d, want -1", i)
	}
	if s, d := tr.snapshot(); s != nil || d != 0 {
		t.Errorf("nil tracer snapshot = %v, %d", s, d)
	}
}

func TestTracerBudgetDropsAndCounts(t *testing.T) {
	tr := newTracer(2)
	now := time.Now()
	p := tr.add("p", now, now.Add(time.Millisecond), -1, 1)
	c := tr.add("c", now, now.Add(time.Microsecond), p, 1)
	if p != 0 || c != 1 {
		t.Fatalf("indices %d %d, want 0 1", p, c)
	}
	if i := tr.add("over", now, now, -1, 0); i != -1 {
		t.Errorf("over-budget add = %d, want -1", i)
	}
	spans, dropped := tr.snapshot()
	if len(spans) != 2 || dropped != 1 || spans[1].Parent != 0 || spans[0].End-spans[0].Start != int64(time.Millisecond) {
		t.Errorf("spans %+v dropped %d", spans, dropped)
	}
}

func TestWriteSpansRoundTrip(t *testing.T) {
	spans := []span{
		{Name: "serve.handler", Start: 5, End: 50, Parent: -1, Req: 3},
		{Name: "serve.wait", Start: 5, End: 20, Parent: 0, Req: 3},
	}
	path := filepath.Join(t.TempDir(), "trace", "spans.jsonl.gz")
	if err := writeSpans(path, spans, selfTimes(spans)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var got []spanRecord
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		var r spanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []spanRecord{
		{Name: "serve.handler", Start: 5, End: 50, Self: 30, Parent: -1, Req: 3},
		{Name: "serve.wait", Start: 5, End: 20, Self: 15, Parent: 0, Req: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("read %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
