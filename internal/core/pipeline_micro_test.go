package core

import (
	"testing"

	"trident/internal/tensor"
)

// TestPipelineAutoMicroBatch pins the auto micro-batch rule: ⌈batch/(8K)⌉
// raised to ⌈microMinPasses / costliest stage's passes per sample⌉ and
// clamped to the batch, while an explicit size is only clamped to the
// batch. The four-conv CNN costs 128, 320, 112, 112, 1 and 1 tile passes
// per sample on 8×8 banks (dataflow.PlanStages cuts it after conv2 for two
// stages, and after conv1 and conv2 when asked for four); the 35→24→10 MLP
// costs 15 and 6.
func TestPipelineAutoMicroBatch(t *testing.T) {
	cfg := NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}, LearningRate: 0.1}
	conv := func(inC, inH, outC, stride int) tensor.Conv2DSpec {
		return tensor.Conv2DSpec{InC: inC, InH: inH, InW: inH, OutC: outC, KH: 3, KW: 3,
			StrideH: stride, StrideW: stride, PadH: 1, PadW: 1, Groups: 1}
	}
	cnn, err := NewConvNet(cfg, []tensor.Conv2DSpec{
		conv(1, 8, 4, 1), conv(4, 8, 6, 1), conv(6, 8, 6, 2), conv(6, 4, 8, 1),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := NewNetwork(cfg, LayerSpec{In: 35, Out: 24, Activate: true}, LayerSpec{In: 24, Out: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		g     *Graph
		cuts  []int
		micro int
		batch int
		want  int
	}{
		{"cnn K=2 batch 64", cnn, []int{2}, 0, 64, 4},    // split 4 > floor 3
		{"cnn K=2 batch 16", cnn, []int{2}, 0, 16, 3},    // floor ⌈1024/448⌉
		{"cnn K=2 batch 2", cnn, []int{2}, 0, 2, 2},      // clamped to the batch
		{"cnn K=3 batch 64", cnn, []int{1, 2}, 0, 64, 4}, // floor ⌈1024/320⌉ > split 3
		{"cnn K=3 batch 16", cnn, []int{1, 2}, 0, 16, 4},
		{"mlp K=2 batch 16", mlp.Graph, []int{1}, 0, 16, 16},   // one micro-batch
		{"mlp K=2 batch 200", mlp.Graph, []int{1}, 0, 200, 69}, // floor ⌈1024/15⌉
		{"explicit 5 batch 64", cnn, []int{2}, 5, 64, 5},
		{"explicit 5 batch 3", cnn, []int{2}, 5, 3, 3},
	} {
		p, err := NewPipeline(tc.g, tc.cuts, tc.micro)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := p.microFor(tc.batch); got != tc.want {
			t.Errorf("%s: micro-batch %d, want %d", tc.name, got, tc.want)
		}
	}
}
