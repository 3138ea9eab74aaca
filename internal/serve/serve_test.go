package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trident/internal/core"
	"trident/internal/reliability"
	"trident/internal/train"
	"trident/internal/units"
)

// fakeEngine is a configurable Engine: class = first feature of each
// sample, optional service delay, optional hold (each call blocks until the
// channel is closed), optional injected failure, and tracking of concurrent
// entry so tests can prove the execute token serializes.
type fakeEngine struct {
	width       int
	delay       time.Duration
	hold        chan struct{}
	fail        error
	calls       atomic.Int32
	inFlight    atomic.Int32
	maxInFlight atomic.Int32
}

func (f *fakeEngine) InputSize() int { return f.width }

func (f *fakeEngine) PredictBatchCtx(ctx context.Context, dst []int, xs []float64, batch int) ([]int, error) {
	n := f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	for {
		old := f.maxInFlight.Load()
		if n <= old || f.maxInFlight.CompareAndSwap(old, n) {
			break
		}
	}
	f.calls.Add(1)
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.hold != nil {
		select {
		case <-f.hold:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.fail != nil {
		return nil, f.fail
	}
	if cap(dst) < batch {
		dst = make([]int, batch)
	}
	dst = dst[:batch]
	for i := 0; i < batch; i++ {
		dst[i] = int(xs[i*f.width])
	}
	return dst, nil
}

func mustShutdown(t *testing.T, b *Batcher) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSubmitCoalescesAndServes(t *testing.T) {
	eng := &fakeEngine{width: 2}
	b := NewBatcher(eng, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	defer mustShutdown(t, b)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	classes := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			classes[i], errs[i] = b.Submit(context.Background(), []float64{float64(i), 0})
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if classes[i] != i {
			t.Fatalf("request %d: class %d", i, classes[i])
		}
	}
	sn := b.Stats()
	if sn.Served != 8 || sn.Lost() != 0 {
		t.Fatalf("served %d lost %d, want 8/0", sn.Served, sn.Lost())
	}
	if sn.Batches == 0 || sn.Batches > 8 {
		t.Fatalf("batches %d out of range", sn.Batches)
	}
}

func TestSubmitRejectsBadInput(t *testing.T) {
	b := NewBatcher(&fakeEngine{width: 3}, Config{})
	defer mustShutdown(t, b)
	if _, err := b.Submit(context.Background(), []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("got %v, want ErrBadInput", err)
	}
	if sn := b.Stats(); sn.BadInput != 1 || sn.Lost() != 0 {
		t.Fatalf("bad accounting: %+v", sn)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	eng := &fakeEngine{width: 1, hold: make(chan struct{})}
	b := NewBatcher(eng, Config{MaxBatch: 1, MaxWait: 100 * time.Microsecond, QueueCap: 2})
	defer mustShutdown(t, b)
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), []float64{float64(i)}); err != nil {
				t.Errorf("queued request %d: %v", i, err)
			}
		}()
	}
	// The first request goes alone and is held inside the engine before the
	// next two are sent: sent together, all three could reach the two-slot
	// queue before the dispatcher dequeued one, and the third would be
	// rejected instead of queued.
	submit(0)
	waitFor(t, func() bool { return eng.inFlight.Load() == 1 })
	submit(1)
	submit(2)
	waitFor(t, func() bool { return b.QueueDepth() == 2 })
	if _, err := b.Submit(context.Background(), []float64{9}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	close(eng.hold)
	wg.Wait()
	sn := b.Stats()
	if sn.RejectedQueueFull != 1 || sn.Served != 3 || sn.Lost() != 0 {
		t.Fatalf("bad accounting: %+v", sn)
	}
}

func TestAdmissionRejectsUnattainableDeadline(t *testing.T) {
	b := NewBatcher(&fakeEngine{width: 1}, Config{MaxWait: 2 * time.Millisecond})
	defer mustShutdown(t, b)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
	defer cancel()
	if _, err := b.Submit(ctx, []float64{1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if sn := b.Stats(); sn.RejectedDeadline != 1 || sn.Lost() != 0 {
		t.Fatalf("bad accounting: %+v", sn)
	}
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	b := NewBatcher(&fakeEngine{width: 1}, Config{MaxBatch: 1, MaxWait: time.Millisecond})
	defer mustShutdown(t, b)
	release, err := b.Acquire(context.Background()) // block dispatch
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = b.Submit(ctx, []float64{1})
	release()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if sn := b.Stats(); sn.DeadlineExpired != 1 || sn.Lost() != 0 {
		t.Fatalf("bad accounting: %+v", sn)
	}
}

// TestMaintenanceDrains proves the drain protocol: Acquire returns only
// once the in-flight batch has left the engine, no batch starts while the
// token is held, and the engine never sees concurrent entry.
func TestMaintenanceDrains(t *testing.T) {
	eng := &fakeEngine{width: 1, delay: 5 * time.Millisecond}
	b := NewBatcher(eng, Config{MaxBatch: 4, MaxWait: 500 * time.Microsecond})
	defer mustShutdown(t, b)
	var wg sync.WaitGroup
	submit := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := b.Submit(context.Background(), []float64{float64(i)}); err != nil {
					t.Errorf("submit: %v", err)
				}
			}(i)
		}
	}
	submit(4)
	waitFor(t, func() bool { return eng.inFlight.Load() == 1 })
	release, err := b.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.inFlight.Load(); got != 0 {
		t.Fatalf("engine still in flight (%d) while maintenance holds the token", got)
	}
	calls := eng.calls.Load()
	submit(4) // these must queue behind the maintenance window
	time.Sleep(3 * time.Millisecond)
	if got := eng.calls.Load(); got != calls {
		t.Fatalf("batch dispatched during maintenance window (%d -> %d calls)", calls, got)
	}
	release()
	wg.Wait()
	if max := eng.maxInFlight.Load(); max != 1 {
		t.Fatalf("engine entered concurrently: max in-flight %d", max)
	}
	if sn := b.Stats(); sn.Served != 8 || sn.Lost() != 0 {
		t.Fatalf("bad accounting: %+v", sn)
	}
}

func TestGracefulShutdownFlushesQueue(t *testing.T) {
	eng := &fakeEngine{width: 1, delay: time.Millisecond}
	b := NewBatcher(eng, Config{MaxBatch: 2, MaxWait: 200 * time.Microsecond, QueueCap: 16})
	release, err := b.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var served atomic.Int32
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), []float64{float64(i)}); err == nil {
				served.Add(1)
			} else {
				t.Errorf("flushed request %d: %v", i, err)
			}
		}(i)
	}
	// All six must be admitted before shutdown flips closed: four in the
	// queue, two collected by the gate-blocked dispatcher. The settle
	// sleep covers the nanosecond window between a Submit passing its
	// counter and landing in the queue.
	waitFor(t, func() bool { return b.Stats().Submitted == 6 && b.QueueDepth() == 4 })
	time.Sleep(5 * time.Millisecond)
	release()
	mustShutdown(t, b)
	wg.Wait()
	if served.Load() != 6 {
		t.Fatalf("served %d of 6 queued requests through graceful shutdown", served.Load())
	}
	if _, err := b.Submit(context.Background(), []float64{1}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: got %v, want ErrShuttingDown", err)
	}
	if sn := b.Stats(); sn.Lost() != 0 {
		t.Fatalf("lost %d requests", sn.Lost())
	}
}

func TestHardShutdownCancelsInFlight(t *testing.T) {
	eng := &fakeEngine{width: 1, delay: 10 * time.Second} // parks until ctx cancels
	b := NewBatcher(eng, Config{MaxBatch: 1, MaxWait: 100 * time.Microsecond})
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), []float64{1})
		errc <- err
	}()
	waitFor(t, func() bool { return eng.inFlight.Load() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := b.Shutdown(ctx); err == nil {
		t.Fatal("hard shutdown returned nil, want deadline error")
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("in-flight request got %v, want ErrShuttingDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never resolved after hard shutdown")
	}
	if sn := b.Stats(); sn.RejectedShutdown != 1 || sn.Lost() != 0 {
		t.Fatalf("bad accounting: %+v", sn)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// --- HTTP front-end ---

func TestHTTPPredictAndOps(t *testing.T) {
	eng := &fakeEngine{width: 3}
	b := NewBatcher(eng, Config{MaxBatch: 4, MaxWait: 500 * time.Microsecond})
	srv := httptest.NewServer(NewSingleServer(b).Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [4096]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}

	resp, body := post(`{"input":[2,0,0]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d body %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil || pr.Class != 2 {
		t.Fatalf("predict: body %s err %v", body, err)
	}

	if resp, body := post(`{"input":[2,0,0`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON: status %d body %s", resp.StatusCode, body)
	}
	if resp, body := post(`{"input":[1]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input: status %d body %s", resp.StatusCode, body)
	}
	if resp, body := post(`{"input":[2,0,0],"deadline_ms":0.001}`); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("hopeless deadline: status %d body %s", resp.StatusCode, body)
	}

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", ep, resp.StatusCode)
		}
	}
	resp2, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sn RouterSnapshot
	if err := json.NewDecoder(resp2.Body).Decode(&sn); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp2.Body.Close()
	if sn.Submitted == 0 || sn.Lost() != 0 {
		t.Fatalf("stats: %+v", sn)
	}
	if len(sn.Models) != 1 || sn.Models[0].Name != "default" || len(sn.Models[0].Replicas) != 1 {
		t.Fatalf("stats models: %+v", sn.Models)
	}
	if agg := sn.Models[0].Aggregate; agg.Lost() != 0 || agg.Served == 0 {
		t.Fatalf("stats aggregate: %+v", agg)
	}

	mustShutdown(t, b)
	if resp, body := post(`{"input":[2,0,0]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining predict: status %d body %s", resp.StatusCode, body)
	}
	resp3, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d", resp3.StatusCode)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	// A slow engine (not a drain: the router maps all-replicas-draining to
	// 503) backs the queue up so the overflow request bounces with 429.
	eng := &fakeEngine{width: 1, delay: 100 * time.Millisecond}
	b := NewBatcher(eng, Config{MaxBatch: 1, MaxWait: 100 * time.Microsecond, QueueCap: 2})
	srv := httptest.NewServer(NewSingleServer(b).Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"input":[1]}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	waitFor(t, func() bool { return b.QueueDepth() == 2 })
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"input":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	wg.Wait()
	mustShutdown(t, b)
}

// TestFailingEngineSettlesEveryLayer: an engine error is an outcome, not a
// lost request. The same failing replica is driven through its batcher,
// through the router and through the HTTP handler; at every layer Failed
// counts each failed request and the ledger identity Lost() == 0 holds,
// and HTTP answers a typed 500.
func TestFailingEngineSettlesEveryLayer(t *testing.T) {
	boom := errors.New("engine on fire")
	inst := NewInstance("m/0", &fakeEngine{width: 2, fail: boom}, Config{MaxBatch: 4, MaxWait: 100 * time.Microsecond})
	defer mustShutdown(t, inst.b)
	rt := NewRouter()
	if err := rt.AddModel("m", inst); err != nil {
		t.Fatal(err)
	}
	h := NewServer(rt).Handler()
	x := []float64{1, 0}
	check := func(layer string, replicaFailed, routerFailed uint64) {
		t.Helper()
		if sn := inst.Stats(); sn.Failed != replicaFailed || sn.Lost() != 0 {
			t.Fatalf("after %s: replica failed %d lost %d, want %d/0", layer, sn.Failed, sn.Lost(), replicaFailed)
		}
		if sn := rt.Snapshot(); sn.Failed != routerFailed || sn.Lost() != 0 {
			t.Fatalf("after %s: router failed %d lost %d, want %d/0", layer, sn.Failed, sn.Lost(), routerFailed)
		}
	}

	for i := 0; i < 3; i++ {
		if _, err := inst.Batcher().Submit(context.Background(), x); !errors.Is(err, boom) {
			t.Fatalf("batcher submit %d: got %v, want the engine's error", i, err)
		}
	}
	check("batcher", 3, 0)

	for i := 0; i < 3; i++ {
		if _, err := rt.Submit(context.Background(), "m", x); !errors.Is(err, boom) {
			t.Fatalf("router submit %d: got %v, want the engine's error", i, err)
		}
	}
	check("router", 6, 3)

	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"model":"m","input":[1,0]}`))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		var body errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("HTTP %d: body %q: %v", i, rec.Body.String(), err)
		}
		if rec.Code != http.StatusInternalServerError || body.Code != codeInternal {
			t.Fatalf("HTTP %d: status %d code %q, want 500 %q", i, rec.Code, body.Code, codeInternal)
		}
	}
	check("HTTP", 8, 5)
}

func TestHTTPMethodAndContentTypeRejections(t *testing.T) {
	b := NewBatcher(&fakeEngine{width: 1}, Config{MaxBatch: 1, MaxWait: 100 * time.Microsecond})
	srv := httptest.NewServer(NewSingleServer(b).Handler())
	defer srv.Close()
	defer mustShutdown(t, b)

	decodeErr := func(resp *http.Response) errorResponse {
		t.Helper()
		defer resp.Body.Close()
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("error body decode: %v", err)
		}
		return er
	}

	// Non-POST /predict: 405 with an Allow header and a typed code.
	for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, srv.URL+"/predict", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s /predict: status %d, want 405", method, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("%s /predict: Allow %q, want POST", method, allow)
		}
		if er := decodeErr(resp); er.Code != codeMethod {
			t.Fatalf("%s /predict: code %q, want %q", method, er.Code, codeMethod)
		}
	}

	// Explicit non-JSON Content-Type: typed 400 before the body is parsed.
	resp, err := http.Post(srv.URL+"/predict", "text/plain", strings.NewReader(`{"input":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("text/plain: status %d, want 400", resp.StatusCode)
	}
	if er := decodeErr(resp); er.Code != codeBadMedia {
		t.Fatalf("text/plain: code %q, want %q", er.Code, codeBadMedia)
	}

	// JSON with parameters and +json suffixes pass the gate.
	for _, ct := range []string{"application/json; charset=utf-8", "application/vnd.trident+json"} {
		resp, err := http.Post(srv.URL+"/predict", ct, strings.NewReader(`{"input":[1]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", ct, resp.StatusCode)
		}
	}

	// Malformed JSON keeps its own code, distinct from the media-type one.
	resp, err = http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"input":`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON: status %d, want 400", resp.StatusCode)
	}
	if er := decodeErr(resp); er.Code != codeBadJSON {
		t.Fatalf("truncated JSON: code %q, want %q", er.Code, codeBadJSON)
	}

	// Unknown model on a single-model server: 404 with the typed code.
	resp, err = http.Post(srv.URL+"/predict", "application/json",
		strings.NewReader(`{"model":"nope","input":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", resp.StatusCode)
	}
	if er := decodeErr(resp); er.Code != codeUnknownModel {
		t.Fatalf("unknown model: code %q, want %q", er.Code, codeUnknownModel)
	}
}

// --- Real graph: maintainer, chaos, journal replay ---

func buildServeNet(t *testing.T) *core.Network {
	t.Helper()
	net, err := core.NewNetwork(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.08,
	},
		core.LayerSpec{In: 6, Out: 16, Activate: true},
		core.LayerSpec{In: 16, Out: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func servePolicy() reliability.Policy {
	return reliability.Policy{TimePerStep: 30 * units.Second, BISTRepeats: 1}
}

// TestGraphInstanceJournalOptIn: the op journal keeps a copy of every batch
// forever, so an instance records one only when Config.Journal is set.
// Without it the instance still serves, and Journal() is nil.
func TestGraphInstanceJournalOptIn(t *testing.T) {
	net := buildServeNet(t)
	x := []float64{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}
	want, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Journal{nil, NewJournal()} {
		inst, err := NewGraphInstance("m/replica-0", net.Graph,
			Config{MaxBatch: 1, MaxWait: time.Millisecond, Journal: j}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inst.Submit(context.Background(), x)
		mustShutdown(t, inst.Batcher())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("journal %v: served class %d, want %d", j != nil, got, want)
		}
		if sn := inst.Stats(); sn.Served != 1 || sn.Lost() != 0 {
			t.Errorf("journal %v: stats %+v, want 1 served, 0 lost", j != nil, sn)
		}
		if inst.Journal() != j {
			t.Fatalf("Journal() = %p, want the configured %p", inst.Journal(), j)
		}
		if j != nil && j.CountKind(OpBatch) != 1 {
			t.Errorf("configured journal holds %d batches, want 1", j.CountKind(OpBatch))
		}
	}
}

// TestJournalReplayBitIdentical drives a serving stack sequentially —
// batches, chaos mutations, forced maintenance windows — then replays the
// journal on a twin graph and demands bitwise-identical classes for every
// served batch.
func TestJournalReplayBitIdentical(t *testing.T) {
	net := buildServeNet(t)
	j := NewJournal()
	b := NewBatcher(net.Graph, Config{
		MaxBatch: 4, MaxWait: 500 * time.Microsecond,
		Probe: GraphHealth(net.Graph), Journal: j,
	})
	m, err := NewMaintainer(net.Graph, b, j, MaintainerConfig{Seed: 11, Policy: servePolicy()})
	if err != nil {
		t.Fatal(err)
	}
	chaos := NewChaos(net.Graph, b, j, ChaosConfig{Seed: 13, FaultFraction: 0.02})
	rng := rand.New(rand.NewSource(99))
	sample := func() []float64 {
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		return x
	}
	ctx := context.Background()
	for round := 0; round < 6; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			x := sample()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := b.Submit(ctx, x); err != nil {
					t.Errorf("submit: %v", err)
				}
			}()
		}
		wg.Wait()
		if err := chaos.Strike(ctx, round); err != nil {
			t.Fatalf("strike %d: %v", round, err)
		}
		if round == 2 || round == 4 {
			if _, err := m.CheckNow(ctx); err != nil {
				t.Fatalf("check: %v", err)
			}
		}
	}
	if m.Checks() != 2 {
		t.Fatalf("checks %d, want 2", m.Checks())
	}
	if !b.Health().Degraded {
		t.Fatal("chaos injected stuck faults but health is not degraded")
	}
	mustShutdown(t, b)

	twin := buildServeNet(t)
	check, err := TwinChecker(twin.Graph, MaintainerConfig{Seed: 11, Policy: servePolicy()})
	if err != nil {
		t.Fatal(err)
	}
	batches, mismatches, err := j.Replay(twin.Graph, check)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if want := j.CountKind(OpBatch); batches != want || batches == 0 {
		t.Fatalf("replayed %d batches, journal has %d", batches, want)
	}
	if mismatches != 0 {
		t.Fatalf("%d of %d replayed batches diverged from served classes", mismatches, batches)
	}
	if j.CountKind(OpCheck) != 2 || j.CountKind(OpFaults) == 0 || j.CountKind(OpDrift) == 0 {
		t.Fatalf("journal op mix: checks %d faults %d drift %d",
			j.CountKind(OpCheck), j.CountKind(OpFaults), j.CountKind(OpDrift))
	}
}

// TestJournalReplayCatchesDivergedTwin is the negative half of the replay
// contract: a journal served by one trained model, replayed on a model
// trained from another seed, must report mismatches — otherwise the zero
// mismatches every bit-identity test asserts would prove nothing. The same
// journal on a true twin (same seed) still replays clean.
func TestJournalReplayCatchesDivergedTwin(t *testing.T) {
	served, err := train.NewServeModel(train.ServeBlobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal()
	b := NewBatcher(served.Graph, Config{MaxBatch: 4, MaxWait: 100 * time.Microsecond, Journal: j})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 32; i++ {
		x := make([]float64, served.InputSize())
		for k := range x {
			x[k] = rng.Float64()*2 - 1
		}
		if _, err := b.Submit(context.Background(), x); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	mustShutdown(t, b)
	for _, tc := range []struct {
		seed     int64
		diverged bool
	}{{1, false}, {2, true}} {
		twin, err := train.NewServeModel(train.ServeBlobs, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		batches, mismatches, err := j.Replay(twin.Graph, nil)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", tc.seed, err)
		}
		if batches != j.CountKind(OpBatch) || batches == 0 {
			t.Fatalf("seed %d: replayed %d batches, journal has %d", tc.seed, batches, j.CountKind(OpBatch))
		}
		if tc.diverged && mismatches == 0 {
			t.Fatalf("twin trained from seed %d replayed %d batches with no mismatch", tc.seed, batches)
		}
		if !tc.diverged && mismatches != 0 {
			t.Fatalf("true twin replayed %d of %d batches with mismatches", mismatches, batches)
		}
	}
}

// TestMaintainerRunTicks exercises the background maintenance loop against
// live traffic and clean exit on shutdown.
func TestMaintainerRunTicks(t *testing.T) {
	net := buildServeNet(t)
	b := NewBatcher(net.Graph, Config{MaxBatch: 4, MaxWait: 500 * time.Microsecond, Probe: GraphHealth(net.Graph)})
	m, err := NewMaintainer(net.Graph, b, nil, MaintainerConfig{Seed: 3, Policy: servePolicy()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx, 2*time.Millisecond) }()
	x := []float64{0.1, -0.2, 0.3, -0.4, 0.5, -0.6}
	for i := 0; i < 20; i++ {
		if _, err := b.Submit(context.Background(), x); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitFor(t, func() bool { return m.Checks() >= 2 })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	mustShutdown(t, b)
	if sn := b.Stats(); sn.Served != 20 || sn.Lost() != 0 {
		t.Fatalf("bad accounting: %+v", sn)
	}
}

// TestSchedulerGateAcquired proves the reliability wiring: a scheduler
// with the batcher installed as its Gate drains serving traffic around
// every check.
func TestSchedulerGateAcquired(t *testing.T) {
	eng := &fakeEngine{width: 1, delay: time.Millisecond}
	b := NewBatcher(eng, Config{MaxBatch: 2, MaxWait: 200 * time.Microsecond})
	defer mustShutdown(t, b)
	net := buildServeNet(t)
	eval := func() (float64, error) { return 1.0, nil }
	sched, err := reliability.NewScheduler(net.Graph, servePolicy(), 1.0, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.SetGate(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.Submit(context.Background(), []float64{float64(i)}); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
	}()
	waitFor(t, func() bool { return b.Stats().Served >= 1 })
	for step := 500; step <= 1500; step += 500 {
		if _, err := sched.Check(step); err != nil {
			t.Fatalf("check at %d: %v", step, err)
		}
		waitFor(t, func() bool { return eng.calls.Load() > 0 })
	}
	close(stop)
	wg.Wait()
	if max := eng.maxInFlight.Load(); max != 1 {
		t.Fatalf("engine entered concurrently under checks: %d", max)
	}
}
