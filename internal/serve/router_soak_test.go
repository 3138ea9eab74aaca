package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trident/internal/core"
)

// buildSoakNet builds one of the two soak topologies.
func buildSoakNet(t *testing.T, in, hidden, classes int) *core.Network {
	t.Helper()
	net, err := core.NewNetwork(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.08,
	},
		core.LayerSpec{In: in, Out: hidden, Activate: true},
		core.LayerSpec{In: hidden, Out: classes},
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRouterSoak is the replica-era acceptance soak: two models × two
// replicas, each replica with its own chaos injector and maintainer,
// under the race detector. It asserts the routed serving invariants end
// to end:
//
//  1. Zero lost requests — the router ledger and every replica ledger
//     account for each submission exactly once, across drain handoffs.
//  2. Replica bit-identity — every replica is fanned out from the same
//     trained snapshot and, before chaos strikes, classifies a probe
//     batch exactly like a single-instance reference graph.
//  3. Drain-tolerance — for every replica, a held maintenance drain
//     leaves the model serving: requests land on the warm sibling.
//  4. Maintenance coverage — ≥2 forced windows complete on each replica
//     while traffic and chaos are live.
//  5. Journal replay — each replica's op journal (its own batches, chaos
//     mutations, and maintenance windows, in recorded serialization
//     order) replays bit-identically on a twin built from the same
//     snapshot.
func TestRouterSoak(t *testing.T) {
	const (
		replicasPer = 2
		clients     = 8
		perClient   = 25
		drainProbes = 5 // routed submits proven to land on the sibling per drain
	)
	type modelSpec struct {
		name                string
		in, hidden, classes int
	}
	specs := []modelSpec{
		{name: "alpha", in: 6, hidden: 16, classes: 3},
		{name: "beta", in: 4, hidden: 12, classes: 2},
	}

	rt := NewRouter()
	type replica struct {
		model string
		inst  *Instance
		chaos *Chaos
	}
	var fleet []replica
	bases := map[string]*core.Network{}
	for si, spec := range specs {
		base := buildSoakNet(t, spec.in, spec.hidden, spec.classes)
		bases[spec.name] = base

		// Pre-chaos bit-identity: every replica must classify exactly like
		// a single-instance reference graph built from the same snapshot.
		ref, err := base.Replicate()
		if err != nil {
			t.Fatal(err)
		}
		probe := makeProbe(spec.in, 32, int64(900+si))
		want, err := ref.PredictBatch(nil, probe, 32)
		if err != nil {
			t.Fatal(err)
		}
		want = append([]int(nil), want...)

		insts := make([]*Instance, 0, replicasPer)
		for i := 0; i < replicasPer; i++ {
			rep, err := base.Replicate()
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.PredictBatch(nil, probe, 32)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s replica %d diverges from reference pre-chaos at probe %d: %d != %d",
						spec.name, i, k, got[k], want[k])
				}
			}
			mcfg := MaintainerConfig{Seed: int64(31 + si*10 + i), Policy: servePolicy()}
			inst, err := NewGraphInstance(fmt.Sprintf("%s/replica-%d", spec.name, i), rep.Graph,
				Config{MaxBatch: 8, MaxWait: time.Millisecond, QueueCap: 64, Journal: NewJournal()}, &mcfg)
			if err != nil {
				t.Fatal(err)
			}
			chaos := NewChaos(rep.Graph, inst.Batcher(), inst.Journal(),
				ChaosConfig{Seed: int64(51 + si*10 + i), FaultFraction: 0.01, Stall: time.Millisecond})
			insts = append(insts, inst)
			fleet = append(fleet, replica{model: spec.name, inst: inst, chaos: chaos})
		}
		if err := rt.AddModel(spec.name, insts...); err != nil {
			t.Fatal(err)
		}
	}

	var (
		results        atomic.Int64
		rejections     atomic.Int64
		deadlineErrs   atomic.Int64
		unclassified   atomic.Int64
		totalSubmitted atomic.Int64
		clientsDone    sync.WaitGroup
		chaosDone      sync.WaitGroup
	)

	// Per-replica chaos: stalls, drift spikes, wear-fault bursts, each
	// behind that replica's execute token and journaled there.
	chaosCtx, stopChaos := context.WithCancel(context.Background())
	for _, rep := range fleet {
		chaosDone.Add(1)
		go func(rep replica) {
			defer chaosDone.Done()
			for i := 0; chaosCtx.Err() == nil; i++ {
				if err := rep.chaos.Strike(chaosCtx, i); err != nil && chaosCtx.Err() == nil {
					t.Errorf("chaos strike %d on %s: %v", i, rep.inst.Name(), err)
					return
				}
				select {
				case <-time.After(8 * time.Millisecond):
				case <-chaosCtx.Done():
				}
			}
		}(rep)
	}

	widths := map[string]int{}
	for _, spec := range specs {
		widths[spec.name] = spec.in
	}
	submitOne := func(model string, rng *rand.Rand, tight int) {
		x := make([]float64, widths[model])
		for k := range x {
			x[k] = rng.Float64()*2 - 1
		}
		ctx := context.Background()
		var cancel context.CancelFunc = func() {}
		switch tight {
		case 0:
			ctx, cancel = context.WithTimeout(ctx, 4*time.Millisecond)
		case 1:
			ctx, cancel = context.WithTimeout(ctx, 500*time.Millisecond)
		}
		totalSubmitted.Add(1)
		_, err := rt.Submit(ctx, model, x)
		cancel()
		switch {
		case err == nil:
			results.Add(1)
		case errors.Is(err, ErrQueueFull),
			errors.Is(err, ErrDeadline),
			errors.Is(err, ErrShuttingDown),
			errors.Is(err, ErrAllDraining):
			rejections.Add(1)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			deadlineErrs.Add(1)
		default:
			unclassified.Add(1)
			t.Errorf("unclassified outcome on %s: %v", model, err)
		}
	}

	for c := 0; c < clients; c++ {
		clientsDone.Add(1)
		go func(c int) {
			defer clientsDone.Done()
			rng := rand.New(rand.NewSource(int64(2000 + c)))
			for i := 0; i < perClient; i++ {
				submitOne(specs[(c+i)%len(specs)].name, rng, i%3)
				time.Sleep(time.Duration(rng.Intn(800)) * time.Microsecond)
			}
		}(c)
	}

	// Drain-tolerance + maintenance coverage, replica by replica, while
	// client traffic and chaos run. For each replica: hold its execute
	// token (exactly what a maintenance window does) and prove the model
	// still serves via the warm sibling; then complete two real
	// maintenance windows on it.
	drainRng := rand.New(rand.NewSource(777))
	for _, rep := range fleet {
		var sibling *Instance
		for _, other := range rt.Replicas(rep.model) {
			if other != rep.inst {
				sibling = other
			}
		}
		release, err := rep.inst.Batcher().Acquire(context.Background())
		if err != nil {
			t.Fatalf("drain %s: %v", rep.inst.Name(), err)
		}
		if !rep.inst.Draining() {
			t.Fatalf("%s not draining while token held", rep.inst.Name())
		}
		sibBefore := sibling.Stats().Served
		for p := 0; p < drainProbes; p++ {
			x := make([]float64, widths[rep.model])
			for k := range x {
				x[k] = drainRng.Float64()*2 - 1
			}
			// The sibling's chaos injector briefly holds its own token, so a
			// probe may catch the model momentarily all-draining; that is a
			// legitimate (counted) rejection, and the probe retries until the
			// sibling proves it absorbs the drained replica's traffic.
			served := false
			for attempt := 0; attempt < 200 && !served; attempt++ {
				totalSubmitted.Add(1)
				ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
				_, err := rt.Submit(ctx, rep.model, x)
				cancel()
				switch {
				case err == nil:
					results.Add(1)
					served = true
				case errors.Is(err, ErrAllDraining), errors.Is(err, ErrQueueFull):
					rejections.Add(1)
					time.Sleep(2 * time.Millisecond)
				default:
					t.Fatalf("submit while %s drains: %v — sibling did not absorb traffic", rep.inst.Name(), err)
				}
			}
			if !served {
				t.Fatalf("model %s never served while %s drained", rep.model, rep.inst.Name())
			}
		}
		if got := sibling.Stats().Served; got < sibBefore+drainProbes {
			t.Fatalf("sibling %s served %d during %s's drain, want ≥ %d",
				sibling.Name(), got-sibBefore, rep.inst.Name(), drainProbes)
		}
		release()

		for w := 0; w < 2; w++ {
			time.Sleep(5 * time.Millisecond)
			if _, err := rep.inst.Maintainer().CheckNow(context.Background()); err != nil {
				t.Fatalf("maintenance window %d on %s: %v", w, rep.inst.Name(), err)
			}
		}
	}

	clientsDone.Wait()
	stopChaos()
	chaosDone.Wait()

	sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer scancel()
	if err := rt.Shutdown(sctx); err != nil {
		t.Fatalf("router shutdown: %v", err)
	}

	// Invariant 1: zero lost requests at both ledgers.
	if unclassified.Load() != 0 {
		t.Fatalf("%d unclassified outcomes", unclassified.Load())
	}
	if got := results.Load() + rejections.Load() + deadlineErrs.Load(); got != totalSubmitted.Load() {
		t.Fatalf("outcome sum %d != submissions %d: lost requests", got, totalSubmitted.Load())
	}
	sn := rt.Snapshot()
	if sn.Submitted != uint64(totalSubmitted.Load()) {
		t.Fatalf("router saw %d submissions, clients made %d", sn.Submitted, totalSubmitted.Load())
	}
	if sn.Lost() != 0 {
		t.Fatalf("router ledger lost %d: %+v", sn.Lost(), sn)
	}
	if sn.Failed != 0 {
		t.Fatalf("%d requests failed outright", sn.Failed)
	}
	if sn.Served == 0 || sn.Served != uint64(results.Load()) {
		t.Fatalf("router served %d, clients got %d", sn.Served, results.Load())
	}
	for _, ms := range sn.Models {
		if ms.Aggregate.Lost() != 0 {
			t.Fatalf("model %s aggregate lost %d: %+v", ms.Name, ms.Aggregate.Lost(), ms.Aggregate)
		}
		for _, repSn := range ms.Replicas {
			if repSn.Stats.Lost() != 0 {
				t.Fatalf("replica %s lost %d: %+v", repSn.Name, repSn.Stats.Lost(), repSn.Stats)
			}
		}
	}

	// Invariants 4 + 5: per-replica maintenance coverage and journal
	// replay on a snapshot twin.
	for _, rep := range fleet {
		if got := rep.inst.Maintainer().Checks(); got < 2 {
			t.Fatalf("%s completed %d maintenance windows, want ≥ 2", rep.inst.Name(), got)
		}
		j := rep.inst.Journal()
		if j.CountKind(OpCheck) < 2 {
			t.Fatalf("%s journal holds %d maintenance windows, want ≥ 2", rep.inst.Name(), j.CountKind(OpCheck))
		}
		twin, err := bases[rep.model].Replicate()
		if err != nil {
			t.Fatal(err)
		}
		check, err := TwinChecker(twin.Graph, rep.inst.MaintainerConfig())
		if err != nil {
			t.Fatal(err)
		}
		batches, mismatches, err := j.Replay(twin.Graph, check)
		if err != nil {
			t.Fatalf("replaying %s journal: %v", rep.inst.Name(), err)
		}
		if batches != j.CountKind(OpBatch) {
			t.Fatalf("%s replayed %d of %d batches", rep.inst.Name(), batches, j.CountKind(OpBatch))
		}
		if mismatches != 0 {
			t.Fatalf("%s: %d of %d replayed batches diverged on the twin", rep.inst.Name(), mismatches, batches)
		}
	}
	if sn.Handoffs > 0 {
		t.Logf("router absorbed %d queue-full/drain handoffs", sn.Handoffs)
	}
	t.Logf("router soak: %d submitted = %d served + %d rejected + %d deadline across %d replicas; %d all-draining rejections",
		totalSubmitted.Load(), results.Load(), rejections.Load(), deadlineErrs.Load(), len(fleet), sn.AllDraining)
}
