package core_test

// Pipeline bit-identity property tests. These live in an external test
// package so they can drive the partition planning end-to-end through
// internal/dataflow and the branched model builder in internal/models —
// the same path the serving layer uses.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"trident/internal/core"
	"trident/internal/dataflow"
	"trident/internal/models"
	"trident/internal/tensor"
)

// noisyPipelineCfg keeps the full analog noise model on: bit-identity must
// hold even when every bank pass draws from the per-PE noise streams.
func noisyPipelineCfg() core.NetworkConfig {
	return core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8},
		LearningRate: 0.05,
	}
}

// buildPipelineDeepCNN is a three-conv NewConvNet graph (6 nodes: input, 3
// convs, GAP, dense) — deep enough for a genuine 4-stage partition.
func buildPipelineDeepCNN(t *testing.T) *core.Graph {
	t.Helper()
	g, err := core.NewConvNet(noisyPipelineCfg(), []tensor.Conv2DSpec{
		{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 4, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
			StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
		{InC: 6, InH: 4, InW: 4, OutC: 8, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildPipelineBranched carries both join kinds (residual add + channel
// concat), so the partitioner must keep the whole branch span in one stage.
func buildPipelineBranched(t *testing.T) *core.Graph {
	t.Helper()
	g, err := models.HardwareMiniBranched(noisyPipelineCfg(), 1, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pipelineBatchInput(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()*2 - 1
	}
	return xs
}

func requireSameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", label, i, got[i], want[i])
		}
	}
}

func requireSameLedger(t *testing.T, label string, got, want *core.Ledger) {
	t.Helper()
	gb, wb := got.Breakdown(), want.Breakdown()
	if len(gb) != len(wb) {
		t.Fatalf("%s: ledger has %d categories, want %d", label, len(gb), len(wb))
	}
	for cat, w := range wb {
		if g := gb[cat]; g != w {
			t.Fatalf("%s: ledger %s = %v, want %v (bit-exact)", label, cat, g, w)
		}
	}
	if got.Elapsed() != want.Elapsed() {
		t.Fatalf("%s: ledger elapsed %v, want %v", label, got.Elapsed(), want.Elapsed())
	}
}

// TestGraphPipelinedBatchBitIdentical is the tentpole correctness bar:
// pipelined execution reproduces the sequential batched path bit-for-bit —
// outputs, noise streams and energy ledgers — at stage counts 1/2/4 and
// worker counts 1/8, on a deep sequential model and a branched one, with the
// analog noise model on. A follow-up sequential batch on both graphs then
// proves the pipelined pass left every per-PE RNG stream in the same state
// the sequential pass did.
func TestGraphPipelinedBatchBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *core.Graph
	}{
		{"DeepCNN", buildPipelineDeepCNN},
		{"Branched", buildPipelineBranched},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			for _, k := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/workers=%d/K=%d", tc.name, workers, k), func(t *testing.T) {
					prev := core.SetMaxWorkers(workers)
					defer core.SetMaxWorkers(prev)
					ref := tc.build(t)
					shard := tc.build(t)
					const batch = 13 // deliberately not a multiple of any micro size
					xs := pipelineBatchInput(batch*ref.InputSize(), 7)

					want, err := ref.ForwardBatchInto(nil, xs, batch)
					if err != nil {
						t.Fatal(err)
					}
					cuts, err := dataflow.PlanStages(shard, k)
					if err != nil {
						t.Fatal(err)
					}
					p, err := core.NewPipeline(shard, cuts, 0)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.ForwardBatchPipelined(nil, xs, batch)
					if err != nil {
						t.Fatal(err)
					}
					requireSameFloats(t, "pipelined output", got, want)
					requireSameLedger(t, "after pipelined batch", shard.Ledger(), ref.Ledger())
					if occ := p.StageOccupancy(); len(occ) != p.Stages() {
						t.Fatalf("occupancy has %d entries for %d stages", len(occ), p.Stages())
					}

					// RNG stream continuity: the next *sequential* batch on
					// both graphs must still agree, so the pipelined pass
					// advanced every noise stream exactly as sequential did.
					xs2 := pipelineBatchInput(batch*ref.InputSize(), 8)
					want2, err := ref.ForwardBatchInto(nil, xs2, batch)
					if err != nil {
						t.Fatal(err)
					}
					got2, err := shard.ForwardBatchInto(nil, xs2, batch)
					if err != nil {
						t.Fatal(err)
					}
					requireSameFloats(t, "follow-up sequential output", got2, want2)
					requireSameLedger(t, "after follow-up batch", shard.Ledger(), ref.Ledger())
				})
			}
		}
	}
}

// TestGraphPipelinedPredictBatchMatches pins the serving entry point: the
// pipeline's PredictBatchCtx (the serve.Engine hook) classifies exactly like
// the sequential Graph.PredictBatch.
func TestGraphPipelinedPredictBatchMatches(t *testing.T) {
	ref := buildPipelineDeepCNN(t)
	shard := buildPipelineDeepCNN(t)
	cuts, err := dataflow.PlanStages(shard, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPipeline(shard, cuts, 0)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 9
	xs := pipelineBatchInput(batch*ref.InputSize(), 21)
	want, err := ref.PredictBatch(nil, xs, batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.PredictBatchCtx(context.Background(), nil, xs, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d classified %d, want %d", i, got[i], want[i])
		}
	}
}

// TestGraphPipelinedBatchCancelled: a cancelled context surfaces as that
// context's error from every stage shape, never as partial output.
func TestGraphPipelinedBatchCancelled(t *testing.T) {
	g := buildPipelineDeepCNN(t)
	cuts, err := dataflow.PlanStages(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPipeline(g, cuts, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const batch = 8
	xs := pipelineBatchInput(batch*g.InputSize(), 3)
	if _, err := p.ForwardBatchPipelinedCtx(ctx, nil, xs, batch); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline returned %v, want context.Canceled", err)
	}
}

// TestGraphPipelineRejectsIllegalCuts: boundaries crossed by a live branch
// value, non-increasing cut lists and unsealed graphs are construction
// errors, not silent corruption.
func TestGraphPipelineRejectsIllegalCuts(t *testing.T) {
	g := buildPipelineBranched(t)
	// Node 2 (body conv) is inside the residual branch: stem's output is
	// still live past it, so a cut there is illegal.
	if _, err := core.NewPipeline(g, []int{2}, 0); err == nil {
		t.Fatal("cut through a live branch accepted")
	}
	if _, err := core.NewPipeline(g, []int{4, 1}, 0); err == nil {
		t.Fatal("non-increasing cuts accepted")
	}
	if _, err := core.NewPipeline(g, []int{0}, 0); err == nil {
		t.Fatal("cut before the first executable node accepted")
	}
	if _, err := core.NewPipeline(g, []int{1}, -1); err == nil {
		t.Fatal("negative micro-batch accepted")
	}
	unsealed, err := core.NewGraph(noisyPipelineCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewPipeline(unsealed, nil, 0); err == nil {
		t.Fatal("unsealed graph accepted")
	}
}

// TestGraphPipelinePlanLegalMask pins the legality rule on the branched
// miniature, where it is hand-checkable: stem feeds the add and the concat,
// so only the boundaries after stem (node 1), concat (node 4) and GAP
// (node 5) are legal.
func TestGraphPipelinePlanLegalMask(t *testing.T) {
	g := buildPipelineBranched(t)
	costs, legal := g.PipelinePlan()
	if len(costs) != 6 || len(legal) != 6 {
		t.Fatalf("plan has %d costs / %d legal entries, want 6/6", len(costs), len(legal))
	}
	want := []bool{true, false, false, true, true, false} // after nodes 1..6
	for i, w := range want {
		if legal[i] != w {
			t.Fatalf("cut after node %d legal=%v, want %v", i+1, legal[i], w)
		}
	}
}
