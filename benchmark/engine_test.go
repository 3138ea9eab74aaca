package main

import (
	"context"
	"sync"
	"testing"
)

// rowEngine is a two-wide fake engine that classifies a row by its first
// element.
type rowEngine struct{}

func (rowEngine) InputSize() int { return 2 }

func (rowEngine) PredictBatchCtx(_ context.Context, dst []int, xs []float64, batch int) ([]int, error) {
	for i := 0; i < batch; i++ {
		dst[i] = int(xs[2*i])
	}
	return dst, nil
}

func TestEngineAttributesRowsToRequests(t *testing.T) {
	idx := newReqIndex()
	tr := newTracer(16)
	e := &timedEngine{eng: rowEngine{}, idx: idx, tr: tr}
	rows := [][]float64{{1, 0.5}, {2, 0.25}, {3, 0.125}}
	for i, r := range rows {
		if err := idx.begin(r, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	// One batch carries requests 102 and 100 (out of order) and a row
	// whose request has already given up; request 101 is never batched.
	xs := append(append(append([]float64{}, rows[2]...), rows[0]...), 9, 9)
	dst := make([]int, 3)
	if _, err := e.PredictBatchCtx(context.Background(), dst, xs, 3); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 3 || dst[1] != 1 {
		t.Errorf("decorator changed the engine's output: %v", dst)
	}
	spans, _ := tr.snapshot()
	if len(spans) != 1 || spans[0].Name != "core.batch" {
		t.Fatalf("spans = %+v, want one core.batch", spans)
	}
	for _, i := range []int{0, 2} {
		st := idx.finish(rows[i])
		if !st.ok || tr.since(st.start) != spans[0].Start || tr.since(st.end) != spans[0].End {
			t.Errorf("request %d: stamp %+v does not match batch span %+v", 100+i, st, spans[0])
		}
	}
	if st := idx.finish(rows[1]); st.ok {
		t.Errorf("request 101 was never batched but has stamp %+v", st)
	}
	if got := e.unattributed.Load(); got != 1 {
		t.Errorf("unattributed rows = %d, want 1", got)
	}
	if e.rows.Load() != 3 || e.busy.Load() <= 0 {
		t.Errorf("rows %d busy %d", e.rows.Load(), e.busy.Load())
	}
}

func TestReqIndexRejectsDuplicateInFlightInput(t *testing.T) {
	idx := newReqIndex()
	row := []float64{0.1, 0.2}
	if err := idx.begin(row, 1); err != nil {
		t.Fatal(err)
	}
	if err := idx.begin(append([]float64(nil), row...), 2); err == nil {
		t.Error("a second in-flight request with the same input was accepted")
	}
	idx.finish(row)
	if err := idx.begin(row, 3); err != nil {
		t.Errorf("input reusable after finish: %v", err)
	}
}

func TestEngineAttributionConcurrent(t *testing.T) {
	idx := newReqIndex()
	e := &timedEngine{eng: rowEngine{}, idx: idx}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dst := make([]int, 1)
			for i := 0; i < 200; i++ {
				row := []float64{float64(c), float64(i)}
				id := int64(c*1000 + i + 1)
				if err := idx.begin(row, id); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.PredictBatchCtx(context.Background(), dst, row, 1); err != nil {
					t.Error(err)
					return
				}
				if st := idx.finish(row); !st.ok {
					t.Errorf("request %d lost its stamp", id)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if e.unattributed.Load() != 0 || e.rows.Load() != 8*200 {
		t.Errorf("unattributed %d rows %d", e.unattributed.Load(), e.rows.Load())
	}
}
