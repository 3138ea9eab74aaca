package core

// Conv input-gradient regression. The deepcnn schedule in golden_test.go
// pins only what lies downstream of the conv transpose pass (weights,
// losses, ledgers), and a wrong low-order bit in the conv input gradient
// can round away before it reaches any of them. This fixture records that
// gradient itself: the second conv's input gradient (the gradient on the
// first conv's output) from one TrainBatch on a fresh deepcnn stack. The
// second conv's kernel matrix is 6×36 on 8×8 banks, so its transpose pass
// crosses a partial row tile (6 of 8 rows) and a partial column tile (4 of
// 8 columns). The fixture was recorded with
//
//	go test ./internal/core/ -run TestGoldenConvInputGradient -update-golden
//
// and every run since, at any worker count, must reproduce its bits.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

const convGradGoldenPath = "testdata/golden_conv_input_grad.json"

// goldenConvInputGradSchedule runs one TrainBatch of four images through a
// fresh deepcnn stack and records the loss and the second conv's input
// gradient, sample-major.
func goldenConvInputGradSchedule(t *testing.T) goldenTrace {
	t.Helper()
	g := newGoldenDeepCNN(t)
	const batch = 4
	xs := make([]float64, 0, batch*g.InputSize())
	labels := make([]int, batch)
	for s := 0; s < batch; s++ {
		xs = append(xs, testImage(int64(20+s)).Data()...)
		labels[s] = s % 2
	}
	loss, err := g.TrainBatch(xs, labels)
	if err != nil {
		t.Fatal(err)
	}
	var convs []*graphNode
	for _, n := range g.nodes {
		if n.kind == nodeConv {
			convs = append(convs, n)
		}
	}
	if len(convs) != 2 {
		t.Fatalf("deepcnn stack has %d conv nodes, want 2", len(convs))
	}
	conv2 := convs[1]
	prod := g.nodes[conv2.in[0]]
	tr := goldenTrace{}
	tr.put("loss", []float64{loss})
	tr.put("conv2-input-grad", conv2.batchDIn[:batch*prod.size])
	return tr
}

// TestGoldenConvInputGradient pins the deepcnn stack's second-conv input
// gradient to its fixture at one, two and eight workers.
func TestGoldenConvInputGradient(t *testing.T) {
	if *updateGolden {
		prev := SetMaxWorkers(1)
		defer SetMaxWorkers(prev)
		data, err := json.MarshalIndent(goldenConvInputGradSchedule(t), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(convGradGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", convGradGoldenPath)
		return
	}
	raw, err := os.ReadFile(convGradGoldenPath)
	if err != nil {
		t.Fatalf("missing fixture (generate with -update-golden): %v", err)
	}
	var want goldenTrace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		prev := SetMaxWorkers(workers)
		got := goldenConvInputGradSchedule(t)
		SetMaxWorkers(prev)
		if len(got) != len(want) {
			t.Errorf("workers=%d: %d streams, fixture %d", workers, len(got), len(want))
		}
		requireTrace(t, fmt.Sprintf("workers=%d: conv-input-grad", workers), got, want)
	}
}
