package core

import (
	"testing"

	"trident/internal/tensor"
)

// TestPipelineAutoMicroBatch: every stage of an auto-sized pipeline runs
// the graph's own micro-batch (4 samples for the four-conv CNN on 8×8
// images, denseMicroBatch for the MLP) whatever the stage count, so stage
// memory is bounded like the sequential walk's; an explicit size replaces
// it. The cuts are the ones dataflow.PlanStages picks: the CNN after conv2
// for two stages and after conv1 and conv2 for three; the 35→24→10 MLP
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
		want  int
	}{
		{"cnn K=2", cnn, []int{2}, 0, 4}, // cnn-offline's shape: a 64-image batch runs 16 micro-batches
		{"cnn K=3", cnn, []int{1, 2}, 0, 4},
		{"mlp K=2", mlp.Graph, []int{1}, 0, denseMicroBatch},
		{"explicit 5", cnn, []int{2}, 5, 5},
	} {
		p, err := NewPipeline(tc.g, tc.cuts, tc.micro)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for s, st := range p.stages {
			if st.micro != tc.want {
				t.Errorf("%s: stage %d micro-batch %d, want %d", tc.name, s, st.micro, tc.want)
			}
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
