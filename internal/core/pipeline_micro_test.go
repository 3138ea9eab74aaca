package core

import (
	"testing"

	"trident/internal/tensor"
)

// TestPipelineAutoMicroBatch pins the auto micro-batch rule, ⌈batch/(8K)⌉,
// while an explicit size is only clamped to the batch. The cuts are the
// ones dataflow.PlanStages picks: the four-conv CNN after conv2 for two
// stages and after conv1 and conv2 when asked for four; the 35→24→10 MLP
// after its hidden layer.
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
		{"cnn K=2 batch 64", cnn, []int{2}, 0, 64, 4}, // 16 micro-batches, cnn-offline's shape
		{"cnn K=2 batch 16", cnn, []int{2}, 0, 16, 1},
		{"cnn K=2 batch 2", cnn, []int{2}, 0, 2, 1},
		{"cnn K=3 batch 64", cnn, []int{1, 2}, 0, 64, 3}, // ⌈64/24⌉
		{"cnn K=3 batch 16", cnn, []int{1, 2}, 0, 16, 1},
		{"mlp K=2 batch 16", mlp.Graph, []int{1}, 0, 16, 1},
		{"mlp K=2 batch 200", mlp.Graph, []int{1}, 0, 200, 13}, // ⌈200/16⌉
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

// TestPipelineStageErrorReleasesConsumers: a failing stage ends the call
// with its error and no output, whether it is the producer (its closed
// channel must release the consumer, or the call hangs) or the consumer.
// Each failure is forced by shrinking the width the pipeline reads for the
// stage's input node, so the stage's dense layer rejects its short input.
func TestPipelineStageErrorReleasesConsumers(t *testing.T) {
	cfg := NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}, LearningRate: 0.1}
	for stage := 0; stage < 2; stage++ {
		mlp, err := NewNetwork(cfg, LayerSpec{In: 35, Out: 24, Activate: true}, LayerSpec{In: 24, Out: 10})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPipeline(mlp.Graph, []int{1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		mlp.nodes[stage].size--
		const batch = 8
		out, err := p.ForwardBatchPipelined(nil, make([]float64, batch*35), batch)
		if err == nil || out != nil {
			t.Fatalf("stage %d failing: output %v, error %v; want no output and an error", stage, out, err)
		}
	}
}
