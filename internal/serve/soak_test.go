package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeSoak is the acceptance soak: ten concurrent clients with mixed
// deadlines hammer a chaos-enabled server through forced maintenance
// windows, under the race detector. It asserts the three serving
// invariants end to end:
//
//  1. Zero lost requests — every Submit resolves exactly once, to a
//     result, a typed rejection, or a deadline error, and the outcome
//     counters sum back to the submission count.
//  2. Bit-identity — replaying the op journal (batches, chaos mutations,
//     maintenance windows, in recorded order) on a twin graph reproduces
//     every served class exactly, proving no MVM ever raced a bank
//     mutation.
//  3. Graceful shutdown — after the clients finish, Shutdown drains every
//     queued request without dropping any.
func TestServeSoak(t *testing.T) {
	const (
		clients     = 10
		perClient   = 30
		maintenance = 3
	)
	net := buildServeNet(t)
	j := NewJournal()
	b := NewBatcher(net.Graph, Config{
		MaxBatch: 8, MaxWait: time.Millisecond, QueueCap: 64,
		Probe: GraphHealth(net.Graph), Journal: j,
	})
	m, err := NewMaintainer(net.Graph, b, j, MaintainerConfig{Seed: 21, Policy: servePolicy()})
	if err != nil {
		t.Fatal(err)
	}
	chaos := NewChaos(net.Graph, b, j, ChaosConfig{Seed: 23, FaultFraction: 0.01, Stall: 2 * time.Millisecond})

	var (
		results        atomic.Int64 // served classes
		rejections     atomic.Int64 // typed rejections (queue/shutdown/admission)
		deadlineErrs   atomic.Int64 // expired while queued
		unclassified   atomic.Int64 // anything else = lost-request bug
		totalSubmitted atomic.Int64
		clientsDone    sync.WaitGroup
		chaosDone      = make(chan struct{})
	)
	// Chaos runs through the whole client phase: stalls, drift spikes,
	// wear-fault bursts, each behind the execute token.
	chaosCtx, stopChaos := context.WithCancel(context.Background())
	go func() {
		defer close(chaosDone)
		for i := 0; chaosCtx.Err() == nil; i++ {
			if err := chaos.Strike(chaosCtx, i); err != nil && chaosCtx.Err() == nil {
				t.Errorf("chaos strike %d: %v", i, err)
				return
			}
			select {
			case <-time.After(2 * time.Millisecond):
			case <-chaosCtx.Done():
			}
		}
	}()

	for c := 0; c < clients; c++ {
		clientsDone.Add(1)
		go func(c int) {
			defer clientsDone.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < perClient; i++ {
				x := make([]float64, 6)
				for k := range x {
					x[k] = rng.Float64()*2 - 1
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch i % 3 {
				case 0: // tight deadline: may be rejected at admission or expire queued
					ctx, cancel = context.WithTimeout(ctx, 3*time.Millisecond)
				case 1: // generous deadline
					ctx, cancel = context.WithTimeout(ctx, 500*time.Millisecond)
				}
				totalSubmitted.Add(1)
				_, err := b.Submit(ctx, x)
				cancel()
				switch {
				case err == nil:
					results.Add(1)
				case errors.Is(err, ErrQueueFull),
					errors.Is(err, ErrDeadline),
					errors.Is(err, ErrShuttingDown):
					rejections.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					deadlineErrs.Add(1)
				default:
					unclassified.Add(1)
					t.Errorf("client %d request %d: unclassified outcome %v", c, i, err)
				}
			}
		}(c)
	}

	// Force maintenance windows while traffic and chaos are both live.
	for w := 0; w < maintenance; w++ {
		time.Sleep(15 * time.Millisecond)
		if _, err := m.CheckNow(context.Background()); err != nil {
			t.Fatalf("maintenance window %d: %v", w, err)
		}
	}
	clientsDone.Wait()
	stopChaos()
	<-chaosDone

	// Graceful shutdown must drain whatever is still queued.
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := b.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	if m.Checks() < 2 {
		t.Fatalf("only %d maintenance windows ran, want >= 2", m.Checks())
	}
	if unclassified.Load() != 0 {
		t.Fatalf("%d requests resolved to an unclassified outcome", unclassified.Load())
	}
	if got := results.Load() + rejections.Load() + deadlineErrs.Load(); got != totalSubmitted.Load() {
		t.Fatalf("outcome sum %d != submissions %d: lost requests", got, totalSubmitted.Load())
	}
	sn := b.Stats()
	if sn.Submitted != uint64(totalSubmitted.Load()) {
		t.Fatalf("batcher saw %d submissions, clients made %d", sn.Submitted, totalSubmitted.Load())
	}
	if sn.Lost() != 0 {
		t.Fatalf("stats ledger lost %d requests: %+v", sn.Lost(), sn)
	}
	if sn.Failed != 0 {
		t.Fatalf("%d requests failed outright: %+v", sn.Failed, sn)
	}
	if sn.Served == 0 {
		t.Fatal("soak served nothing")
	}
	if sn.Served != uint64(results.Load()) {
		t.Fatalf("batcher served %d, clients got %d results", sn.Served, results.Load())
	}

	// Bit-identity: replay the journal on a twin graph with a twin
	// scheduler; every served batch must reproduce exactly.
	twin := buildServeNet(t)
	check, err := TwinChecker(twin.Graph, MaintainerConfig{Seed: 21, Policy: servePolicy()})
	if err != nil {
		t.Fatal(err)
	}
	batches, mismatches, err := j.Replay(twin.Graph, check)
	if err != nil {
		t.Fatalf("journal replay: %v", err)
	}
	if batches != j.CountKind(OpBatch) || batches == 0 {
		t.Fatalf("replayed %d batches, journal has %d", batches, j.CountKind(OpBatch))
	}
	if mismatches != 0 {
		t.Fatalf("%d of %d replayed batches diverged: an MVM raced a bank mutation", mismatches, batches)
	}
	if j.CountKind(OpCheck) < 2 {
		t.Fatalf("journal recorded %d maintenance windows, want >= 2", j.CountKind(OpCheck))
	}
	t.Logf("soak: %d submitted = %d served + %d rejected + %d deadline; %d batches, %d chaos mutations, %d maintenance windows, p99 %.2fms",
		totalSubmitted.Load(), results.Load(), rejections.Load(), deadlineErrs.Load(),
		batches, j.CountKind(OpDrift)+j.CountKind(OpFaults), j.CountKind(OpCheck), sn.P99Ms)
}
