package core

import (
	"context"
	"errors"
	"testing"
)

func ctxTestNetwork(t *testing.T) *Network {
	t.Helper()
	net, err := NewNetwork(NetworkConfig{
		PE:           PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.08,
	},
		LayerSpec{In: 6, Out: 16, Activate: true},
		LayerSpec{In: 16, Out: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestPredictBatchCtxCancelled pins the cancellation checkpoint: a batch
// dispatched with a dead context aborts before touching the first node and
// returns no partial output.
func TestPredictBatchCtxCancelled(t *testing.T) {
	net := ctxTestNetwork(t)
	xs := make([]float64, 4*6)
	for i := range xs {
		xs[i] = float64(i%7) * 0.1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	classes, err := net.PredictBatchCtx(ctx, nil, xs, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if classes != nil {
		t.Fatalf("cancelled batch returned partial output %v", classes)
	}
	if _, err := net.ForwardBatchIntoCtx(ctx, nil, xs, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("forward: got %v, want context.Canceled", err)
	}
}

// TestPredictBatchCtxMatchesPlain proves the context plumbing is free: the
// ctx-aware path with a live context is bit-identical to PredictBatch.
func TestPredictBatchCtxMatchesPlain(t *testing.T) {
	a, b := ctxTestNetwork(t), ctxTestNetwork(t)
	xs := make([]float64, 8*6)
	for i := range xs {
		xs[i] = float64((i*13)%11)*0.05 - 0.25
	}
	plain, err := a.PredictBatch(nil, xs, 8)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := b.PredictBatchCtx(context.Background(), nil, xs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != withCtx[i] {
			t.Fatalf("sample %d: plain %d, ctx %d", i, plain[i], withCtx[i])
		}
	}
}

// cancelAfter is a live context until its Err has been called `live`
// times, then a cancelled one; calls counts every Err call.
type cancelAfter struct {
	context.Context
	live, calls int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls > c.live {
		return context.Canceled
	}
	return nil
}

// TestForwardBatchCtxCancelledBetweenMicroBatches: a context cancelled
// after the first micro-batch's two nodes stops the walk before the second
// micro-batch's first node, returning the context error and no output.
func TestForwardBatchCtxCancelledBetweenMicroBatches(t *testing.T) {
	net := ctxTestNetwork(t)
	const batch = denseMicroBatch + 8
	xs := make([]float64, batch*6)
	for i := range xs {
		xs[i] = float64(i%7) * 0.1
	}
	ctx := &cancelAfter{Context: context.Background(), live: 2}
	out, err := net.ForwardBatchIntoCtx(ctx, nil, xs, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("cancelled batch returned partial output %v", out)
	}
	if ctx.calls != 3 {
		t.Fatalf("context checked %d times, want 3 (two nodes, then the next micro-batch)", ctx.calls)
	}
}
