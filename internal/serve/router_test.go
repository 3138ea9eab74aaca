package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newFakeInstance builds a named instance over a fakeEngine with a fixed
// health snapshot, refreshed into the batcher cache so Score() sees it.
func newFakeInstance(t *testing.T, name string, eng *fakeEngine, cfg Config, h Health) *Instance {
	t.Helper()
	cfg.Probe = func() Health { return h }
	inst := NewInstance(name, eng, cfg)
	if err := inst.b.RefreshHealth(context.Background()); err != nil {
		t.Fatalf("refresh health for %s: %v", name, err)
	}
	return inst
}

func TestRouterRegistrationValidation(t *testing.T) {
	rt := NewRouter()
	a := NewInstance("m/0", &fakeEngine{width: 2}, Config{MaxWait: 100 * time.Microsecond})
	defer mustShutdown(t, a.b)
	if err := rt.AddModel("", a); err == nil {
		t.Fatal("empty model name accepted")
	}
	if err := rt.AddModel("m"); err == nil {
		t.Fatal("zero replicas accepted")
	}
	wide := NewInstance("m/1", &fakeEngine{width: 3}, Config{MaxWait: 100 * time.Microsecond})
	defer mustShutdown(t, wide.b)
	if err := rt.AddModel("m", a, wide); err == nil {
		t.Fatal("mismatched replica input widths accepted")
	}
	if err := rt.AddModel("m", a); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddModel("m", a); err == nil {
		t.Fatal("duplicate model accepted")
	}
	if got := rt.Models(); len(got) != 1 || got[0] != "m" {
		t.Fatalf("models %v", got)
	}
	if rt.DefaultModel() != "m" {
		t.Fatalf("default model %q", rt.DefaultModel())
	}
}

func TestRouterUnknownModelAccounting(t *testing.T) {
	rt := NewRouter()
	if _, err := rt.Submit(context.Background(), "ghost", []float64{1}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("got %v, want ErrUnknownModel", err)
	}
	sn := rt.Snapshot()
	if sn.UnknownModel != 1 || sn.Lost() != 0 {
		t.Fatalf("ledger %+v lost %d", sn, sn.Lost())
	}
}

// TestRouterPrefersHealthyReplica pins the routing policy: with equal
// queue state, traffic goes to the replica with fewer masked rows and less
// wear — the score penalties, not round-robin, pick the target.
func TestRouterPrefersHealthyReplica(t *testing.T) {
	cfg := Config{MaxBatch: 4, MaxWait: 200 * time.Microsecond}
	worn := &fakeEngine{width: 2}
	fresh := &fakeEngine{width: 2}
	instWorn := newFakeInstance(t, "m/worn", worn, cfg, Health{MaskedRows: 3, WearDrawDown: 0.8})
	instFresh := newFakeInstance(t, "m/fresh", fresh, cfg, Health{})
	defer mustShutdown(t, instWorn.b)
	defer mustShutdown(t, instFresh.b)
	if instWorn.Score() <= instFresh.Score() {
		t.Fatalf("worn score %v not above fresh %v", instWorn.Score(), instFresh.Score())
	}
	rt := NewRouter()
	if err := rt.AddModel("m", instWorn, instFresh); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := rt.Submit(context.Background(), "m", []float64{1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fresh.calls.Load(); got == 0 {
		t.Fatal("healthy replica never served")
	}
	if got := worn.calls.Load(); got != 0 {
		t.Fatalf("worn replica served %d batches despite a healthy sibling", got)
	}
	sn := rt.Snapshot()
	if sn.Served != 10 || sn.Lost() != 0 {
		t.Fatalf("ledger %+v", sn)
	}
}

// TestRouterDrainShiftsTraffic pins drain-tolerance: while one replica's
// maintenance holds the execute token, the router serves from the warm
// sibling; when every replica drains, it degrades to ErrAllDraining.
func TestRouterDrainShiftsTraffic(t *testing.T) {
	cfg := Config{MaxBatch: 4, MaxWait: 200 * time.Microsecond}
	a := &fakeEngine{width: 1}
	bEng := &fakeEngine{width: 1}
	instA := newFakeInstance(t, "m/0", a, cfg, Health{})
	instB := newFakeInstance(t, "m/1", bEng, cfg, Health{WearDrawDown: 0.5}) // worse score: A preferred when warm
	defer mustShutdown(t, instA.b)
	defer mustShutdown(t, instB.b)
	rt := NewRouter()
	if err := rt.AddModel("m", instA, instB); err != nil {
		t.Fatal(err)
	}

	// A is preferred while both are warm.
	if _, err := rt.Submit(context.Background(), "m", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if a.calls.Load() == 0 {
		t.Fatal("preferred replica did not serve")
	}

	// Drain A (a maintenance window holding the token): traffic shifts to B.
	releaseA, err := instA.b.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !instA.Draining() {
		t.Fatal("instance A not draining while token held")
	}
	before := bEng.calls.Load()
	if _, err := rt.Submit(context.Background(), "m", []float64{1}); err != nil {
		t.Fatalf("submit during sibling drain: %v", err)
	}
	if bEng.calls.Load() == before {
		t.Fatal("warm sibling did not pick up drained replica's traffic")
	}

	// Drain B too: the model degrades honestly instead of queueing.
	releaseB, err := instB.b.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(context.Background(), "m", []float64{1}); !errors.Is(err, ErrAllDraining) {
		t.Fatalf("got %v, want ErrAllDraining", err)
	}
	releaseA()
	releaseB()

	sn := rt.Snapshot()
	if sn.AllDraining != 1 || sn.Served != 2 || sn.Lost() != 0 {
		t.Fatalf("ledger %+v lost %d", sn, sn.Lost())
	}
}

// TestRouterQueueFullHandoff pins the handoff path: when the preferred
// replica rejects with ErrQueueFull, the router retries the next-best
// sibling instead of surfacing backpressure, and counts the handoff.
func TestRouterQueueFullHandoff(t *testing.T) {
	// Preferred replica: clean health but a stuffed queue behind a slow
	// engine. Sibling: idle but wear-penalized, so the router tries the
	// stuffed one first.
	slow := &fakeEngine{width: 1, delay: 200 * time.Millisecond}
	idle := &fakeEngine{width: 1}
	instSlow := newFakeInstance(t, "m/slow", slow,
		Config{MaxBatch: 1, MaxWait: 100 * time.Microsecond, QueueCap: 1}, Health{})
	instIdle := newFakeInstance(t, "m/idle", idle,
		Config{MaxBatch: 4, MaxWait: 100 * time.Microsecond}, Health{MaskedRows: 1000})
	defer mustShutdown(t, instIdle.b)
	rt := NewRouter()
	if err := rt.AddModel("m", instSlow, instIdle); err != nil {
		t.Fatal(err)
	}
	// Fill the slow replica: one request in flight, one parked in its queue.
	// The second filler is sent only once the first is in the engine: sent
	// together, both could reach the one-slot queue at once and the second
	// would be rejected instead of parked.
	var wg sync.WaitGroup
	fill := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			instSlow.Submit(context.Background(), []float64{1}) //nolint:errcheck // filler traffic
		}()
	}
	fill()
	waitFor(t, func() bool { return slow.inFlight.Load() == 1 })
	fill()
	waitFor(t, func() bool { return instSlow.b.QueueDepth() == 1 })
	if instSlow.Score() >= instIdle.Score() {
		t.Fatalf("test premise broken: slow score %v not below idle %v",
			instSlow.Score(), instIdle.Score())
	}
	if _, err := rt.Submit(context.Background(), "m", []float64{1}); err != nil {
		t.Fatalf("submit with full preferred replica: %v", err)
	}
	if idle.calls.Load() == 0 {
		t.Fatal("handoff target never served")
	}
	sn := rt.Snapshot()
	if sn.Handoffs == 0 {
		t.Fatal("router recorded no handoff")
	}
	if sn.Served != 1 || sn.Lost() != 0 {
		t.Fatalf("ledger %+v lost %d", sn, sn.Lost())
	}
	wg.Wait()
	mustShutdown(t, instSlow.b)
}

// TestHTTPAllDraining503 pins the degraded-model HTTP contract: every
// replica draining → 503 with the typed code and an honest Retry-After.
func TestHTTPAllDraining503(t *testing.T) {
	b := NewBatcher(&fakeEngine{width: 1}, Config{MaxBatch: 1, MaxWait: 100 * time.Microsecond})
	srv := httptest.NewServer(NewSingleServer(b).Handler())
	defer srv.Close()
	release, err := b.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"input":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if er.Code != codeAllDraining {
		t.Fatalf("code %q, want %q", er.Code, codeAllDraining)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("all-draining 503 without Retry-After")
	}
	// Readyz mirrors it: no warm replica anywhere → draining.
	r2, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d, want 503 while all replicas drain", r2.StatusCode)
	}
	release()
	waitFor(t, func() bool { return !b.Draining() })
	r3, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d after release, want 200", r3.StatusCode)
	}
	mustShutdown(t, b)
}

// TestHTTPModelsListing pins GET /models: names in registration order,
// replica names, and warm/draining counts that move with the gate.
func TestHTTPModelsListing(t *testing.T) {
	cfg := Config{MaxBatch: 2, MaxWait: 100 * time.Microsecond}
	a0 := newFakeInstance(t, "alpha/0", &fakeEngine{width: 1}, cfg, Health{})
	a1 := newFakeInstance(t, "alpha/1", &fakeEngine{width: 1}, cfg, Health{})
	b0 := newFakeInstance(t, "beta/0", &fakeEngine{width: 2}, cfg, Health{})
	defer mustShutdown(t, a0.b)
	defer mustShutdown(t, a1.b)
	defer mustShutdown(t, b0.b)
	rt := NewRouter()
	if err := rt.AddModel("alpha", a0, a1); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddModel("beta", b0); err != nil {
		t.Fatal(err)
	}
	if rt.DefaultModel() != "" {
		t.Fatalf("multi-model router has default %q", rt.DefaultModel())
	}
	srv := httptest.NewServer(NewServer(rt).Handler())
	defer srv.Close()

	release, err := a1.b.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	release()
	if len(listing) != 2 || listing[0].Name != "alpha" || listing[1].Name != "beta" {
		t.Fatalf("listing %+v", listing)
	}
	if listing[0].Warm != 1 || listing[0].Draining != 1 {
		t.Fatalf("alpha warm/draining %d/%d, want 1/1", listing[0].Warm, listing[0].Draining)
	}
	if got := listing[0].Replicas; len(got) != 2 || got[0] != "alpha/0" || got[1] != "alpha/1" {
		t.Fatalf("alpha replicas %v", got)
	}

	// POST /models is refused; /predict without model on a multi-model
	// router is a 404 (no default to fall back to).
	respPost, err := http.Post(srv.URL+"/models", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	respPost.Body.Close()
	if respPost.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /models status %d, want 405", respPost.StatusCode)
	}
	respNoModel, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"input":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	respNoModel.Body.Close()
	if respNoModel.StatusCode != http.StatusNotFound {
		t.Fatalf("model-less predict on multi-model router: status %d, want 404", respNoModel.StatusCode)
	}
}

// TestRouterShutdownDrainsAll pins Router.Shutdown: every replica of every
// model stops accepting and settles its queue.
func TestRouterShutdownDrainsAll(t *testing.T) {
	cfg := Config{MaxBatch: 2, MaxWait: 100 * time.Microsecond}
	insts := []*Instance{
		newFakeInstance(t, "a/0", &fakeEngine{width: 1}, cfg, Health{}),
		newFakeInstance(t, "a/1", &fakeEngine{width: 1}, cfg, Health{}),
		newFakeInstance(t, "b/0", &fakeEngine{width: 1}, cfg, Health{}),
	}
	rt := NewRouter()
	if err := rt.AddModel("a", insts[0], insts[1]); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddModel("b", insts[2]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		model := "a"
		if i%3 == 2 {
			model = "b"
		}
		if _, err := rt.Submit(context.Background(), model, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		if inst.Accepting() {
			t.Fatalf("%s still accepting after router shutdown", inst.Name())
		}
	}
	if _, err := rt.Submit(context.Background(), "a", []float64{1}); !errors.Is(err, ErrAllDraining) {
		t.Fatalf("post-shutdown submit: %v, want ErrAllDraining", err)
	}
	sn := rt.Snapshot()
	if sn.Served != 6 || sn.Lost() != 0 {
		t.Fatalf("ledger %+v lost %d", sn, sn.Lost())
	}
}
