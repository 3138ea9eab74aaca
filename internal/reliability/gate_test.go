package reliability

import (
	"context"
	"errors"
	"testing"

	"trident/internal/core"
)

// countingGate records the acquire/release protocol Check is required to
// follow: acquire exactly once per check, before any bank access, release
// exactly once on the way out.
type countingGate struct {
	acquires, releases int
	err                error
}

func (g *countingGate) Acquire(context.Context) (func(), error) {
	if g.err != nil {
		return nil, g.err
	}
	g.acquires++
	return func() { g.releases++ }, nil
}

func TestSchedulerAcquiresGatePerCheck(t *testing.T) {
	net := newTestNetwork(t)
	eval := func() (float64, error) { return 1, nil }
	sched, err := NewScheduler(net.Graph, Policy{}, 1, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := &countingGate{}
	sched.SetGate(gate)
	for step := 500; step <= 1500; step += 500 {
		if _, err := sched.Check(step); err != nil {
			t.Fatal(err)
		}
	}
	if gate.acquires != 3 || gate.releases != 3 {
		t.Fatalf("gate acquired %d / released %d times across 3 checks", gate.acquires, gate.releases)
	}
}

func TestSchedulerGateErrorAborts(t *testing.T) {
	net := newTestNetwork(t)
	eval := func() (float64, error) { return 1, nil }
	sched, err := NewScheduler(net.Graph, Policy{}, 1, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("drain refused")
	sched.SetGate(&countingGate{err: sentinel})
	if _, err := sched.Check(500); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the gate's refusal", err)
	}
}

// TestSchedulerMasksWithoutHeal pins the serving-mode degradation path: a
// scheduler with no healing hook (no training data exists at inference
// time) must still escalate to row masking when accuracy stays below
// target — previously masking was only reachable through the heal branch.
func TestSchedulerMasksWithoutHeal(t *testing.T) {
	net := newTestNetwork(t)
	pe := net.Layers()[0].Tiles()[0][0]
	const deadRow = 2
	for c := 0; c < pe.Cols(); c++ {
		if err := pe.InjectFault(deadRow, c, core.StuckCrystalline); err != nil {
			t.Fatal(err)
		}
	}
	eval := func() (float64, error) { return 0.5, nil } // persistently below target
	sched, err := NewScheduler(net.Graph, Policy{}, 1, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Check(500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Healed {
		t.Fatal("healing reported with no heal hook installed")
	}
	if res.MaskedRows != 1 {
		t.Fatalf("masked %d rows without heal, want 1", res.MaskedRows)
	}
	if !pe.Bank().RowMasked(deadRow) {
		t.Fatal("the stuck row was not the one masked")
	}
}

// TestCampaignCtxCancelReturnsPartialResult pins the SIGINT contract: a
// cancelled campaign stops at a sample boundary and still reports a
// complete partial summary instead of an error.
func TestCampaignCtxCancelReturnsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel up front: the campaign must stop before step 1
	res, err := RunCampaignCtx(ctx, 42)
	if err != nil {
		t.Fatalf("cancelled campaign errored: %v", err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled campaign not flagged Interrupted")
	}
	if res.Steps != 0 {
		t.Fatalf("cancelled-up-front campaign ran %d steps", res.Steps)
	}
	if res.DetectionRate != 1 {
		t.Fatalf("no wear faults can have occurred, detection rate %v", res.DetectionRate)
	}
}
