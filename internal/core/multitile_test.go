package core

// Multi-tile conv regression. Every conv the other fixtures pin fits one
// bank row tile (OutC ≤ 8 on 8×8 banks); this stack spreads each kernel
// matrix over a 2×4 and a 2×14 tile grid, so the forward stripe merge, the
// transpose stripe merge, col2im and the weight step all cross tile
// boundaries. The fixture was recorded with
//
//	go test ./internal/core/ -run TestGoldenMultiTileConv -update-golden
//
// and every run since, at any worker count, must reproduce its bits. It
// was last re-recorded when the conv transpose moved from per-tile col2im
// buffers merged tile-major onto the column-stripe pass (row tiles summed
// first, col2im pixel-major): that reorders the float sums of the conv
// input gradient, and two trained weights moved by one ulp. Outputs,
// losses and the ledger did not move.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"trident/internal/tensor"
)

const multiTileGoldenPath = "testdata/golden_multitile_conv.json"

// newMultiTileConvNet builds the noisy two-conv stack — 3→12 channels over
// 8×8 pixels (In 27: rt 2, ct 4), then 12→10 at stride 2 (In 108: rt 2,
// ct 14) — with a three-class head.
func newMultiTileConvNet(t *testing.T) *Graph {
	t.Helper()
	g, err := NewConvNet(noisyCfg(), []tensor.Conv2DSpec{
		{InC: 3, InH: 8, InW: 8, OutC: 12, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 12, InH: 8, InW: 8, OutC: 10, KH: 3, KW: 3,
			StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rt, ct := len(g.Layers()[0].Tiles()), len(g.Layers()[0].Tiles()[0]); rt != 2 || ct != 4 {
		t.Fatalf("first conv tile grid %d×%d, want 2×4", rt, ct)
	}
	return g
}

// goldenMultiTileConvSchedule runs the multi-tile stack through a forward
// pass, a batched forward of six images (two conv chunks at 64 pixels), two
// TrainBatch steps of three and a forward on the trained weights.
func goldenMultiTileConvSchedule(t *testing.T) goldenTrace {
	t.Helper()
	g := newMultiTileConvNet(t)
	in := g.InputSize()
	tr := goldenTrace{}
	out, err := g.Forward(batchInputs(t, 5, 1, in))
	if err != nil {
		t.Fatal(err)
	}
	tr.put("forward", out)
	const serveBatch = 6
	bout, err := g.ForwardBatchInto(nil, batchInputs(t, 6, serveBatch, in), serveBatch)
	if err != nil {
		t.Fatal(err)
	}
	tr.put("batch-forward", bout)
	var losses []float64
	for step := 0; step < 2; step++ {
		loss, err := g.TrainBatch(batchInputs(t, int64(7+step), 3, in), []int{step % 3, (step + 1) % 3, (step + 2) % 3})
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	tr.put("losses", losses)
	trained, err := g.Forward(batchInputs(t, 5, 1, in))
	if err != nil {
		t.Fatal(err)
	}
	tr.put("forward-trained", trained)
	tr.putWeights("weights", g.Layers()...)
	tr.putLedger("ledger", g.Ledger())
	return tr
}

// TestGoldenMultiTileConv pins the multi-tile conv stack to its fixture at
// one, two and eight workers.
func TestGoldenMultiTileConv(t *testing.T) {
	if *updateGolden {
		prev := SetMaxWorkers(1)
		defer SetMaxWorkers(prev)
		data, err := json.MarshalIndent(goldenMultiTileConvSchedule(t), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(multiTileGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", multiTileGoldenPath)
		return
	}
	raw, err := os.ReadFile(multiTileGoldenPath)
	if err != nil {
		t.Fatalf("missing fixture (generate with -update-golden): %v", err)
	}
	var want goldenTrace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		prev := SetMaxWorkers(workers)
		got := goldenMultiTileConvSchedule(t)
		SetMaxWorkers(prev)
		if len(got) != len(want) {
			t.Errorf("workers=%d: %d streams, fixture %d", workers, len(got), len(want))
		}
		requireTrace(t, fmt.Sprintf("workers=%d: multitile", workers), got, want)
	}
}
