package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"trident/internal/serve"
)

// rowKey hashes the bit patterns of one input row (FNV-1a). Every request
// of the traced serve run carries a distinct input, so the key identifies
// the request that sent a batch row.
func rowKey(row []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range row {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}

// batchStamp is the execution interval of the batch a request rode in.
type batchStamp struct {
	start, end time.Time
	ok         bool
}

// reqIndex maps the inputs of in-flight requests to their request ids, so
// the engine decorator can attribute each batch row to its request.
type reqIndex struct {
	mu   sync.Mutex
	live map[uint64]*reqEntry
}

type reqEntry struct {
	id    int64
	stamp batchStamp
}

func newReqIndex() *reqIndex {
	return &reqIndex{live: make(map[uint64]*reqEntry)}
}

// begin registers a request's input before it is sent.
func (x *reqIndex) begin(row []float64, id int64) error {
	k := rowKey(row)
	x.mu.Lock()
	defer x.mu.Unlock()
	if prev, dup := x.live[k]; dup {
		return fmt.Errorf("request %d has the same input as in-flight request %d", id, prev.id)
	}
	x.live[k] = &reqEntry{id: id}
	return nil
}

// finish unregisters a request and returns the batch stamp the engine left
// for it (ok is false when no batch carried it, e.g. it was rejected).
func (x *reqIndex) finish(row []float64) batchStamp {
	k := rowKey(row)
	x.mu.Lock()
	defer x.mu.Unlock()
	e := x.live[k]
	delete(x.live, k)
	if e == nil {
		return batchStamp{}
	}
	return e.stamp
}

// stamp records a batch interval against the request that owns row and
// returns its id, or 0 when no in-flight request owns it.
func (x *reqIndex) stamp(row []float64, start, end time.Time) int64 {
	k := rowKey(row)
	x.mu.Lock()
	defer x.mu.Unlock()
	e := x.live[k]
	if e == nil {
		return 0
	}
	e.stamp = batchStamp{start: start, end: end, ok: true}
	return e.id
}

// timedEngine decorates a serving engine: it stamps each batch's start and
// end, attributes every row to its request through idx, and totals the
// time the engine was busy.
type timedEngine struct {
	eng serve.Engine
	idx *reqIndex
	tr  *tracer

	busy         atomic.Int64 // ns inside the wrapped engine
	rows         atomic.Int64
	unattributed atomic.Int64 // rows whose request had already given up
}

func (e *timedEngine) InputSize() int { return e.eng.InputSize() }

func (e *timedEngine) PredictBatchCtx(ctx context.Context, dst []int, xs []float64, batch int) ([]int, error) {
	start := time.Now()
	out, err := e.eng.PredictBatchCtx(ctx, dst, xs, batch)
	end := time.Now()
	e.busy.Add(int64(end.Sub(start)))
	e.rows.Add(int64(batch))
	e.tr.add("core.batch", start, end, -1, 0)
	w := e.eng.InputSize()
	for r := 0; r < batch; r++ {
		if e.idx.stamp(xs[r*w:(r+1)*w], start, end) == 0 {
			e.unattributed.Add(1)
		}
	}
	return out, err
}
