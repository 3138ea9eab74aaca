package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"trident/internal/core"
	"trident/internal/dataset"
	"trident/internal/reliability"
	"trident/internal/serve"
	"trident/internal/train"
	"trident/internal/units"
)

// serve-mixed: a closed loop of in-process clients POSTing /predict to the
// HTTP handler of a router that fronts two models with two replicas each,
// while maintenance windows run round-robin across the replicas.
const (
	serveClients  = 32
	servePool     = 2048 // distinct request inputs per model
	serveReplicas = 2
	serveWarmup   = time.Second
	checkEvery    = 40 * time.Millisecond
	tightDeadline = 100  // ms
	looseDeadline = 1000 // ms
	// spanEvery samples the traced requests that keep spans: every
	// request is timed, one in spanEvery also keeps its spans.
	spanEvery = 8
)

// serveKinds are the fronted models and their traffic shares (3:1).
var serveKinds = []struct {
	kind   train.ServeModelKind
	weight float64
}{
	{train.ServeBlobs, 0.75},
	{train.ServeDigits, 0.25},
}

// serveModel is one fronted model with its request pool: inputs, the
// un-served reference replica's classes and the encoded request bodies.
type serveModel struct {
	name   string
	weight float64
	inputs [][]float64
	ref    []int
	bodies [][]byte
	cost   chipCost
}

// serveFleet is one set-up of the serve-mixed workload.
type serveFleet struct {
	rt      *serve.Router
	handler http.Handler
	models  []*serveModel
	maints  []*serve.Maintainer
	graphs  []*core.Graph
	engines []*timedEngine // traced run only
	idx     *reqIndex      // traced run only
	trainMs float64
}

// poolSet regenerates the request pool for a model kind: blobs from the
// training distribution (its centres depend on the seed), digits from a
// fresh noise seed over the fixed glyphs.
func poolSet(kind train.ServeModelKind, seed int64) (*dataset.Set, error) {
	switch kind {
	case train.ServeBlobs:
		return dataset.Blobs(servePool, 3, 6, 0.1, seed), nil
	case train.ServeDigits:
		return dataset.Digits(servePool, 7, 5, 0.05, seed+7919), nil
	}
	return nil, fmt.Errorf("no request pool for model %q", kind)
}

func setupServe(seed int64, tr *tracer) (*serveFleet, error) {
	f := &serveFleet{rt: serve.NewRouter()}
	if tr != nil {
		f.idx = newReqIndex()
	}
	seen := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(seed))
	for _, sk := range serveKinds {
		start := time.Now()
		trained, err := train.NewServeModel(sk.kind, seed)
		if err != nil {
			return nil, err
		}
		f.trainMs += float64(time.Since(start)) / 1e6
		tr.add("train.serve_model", start, time.Now(), -1, 0)

		set, err := poolSet(sk.kind, seed)
		if err != nil {
			return nil, err
		}
		m := &serveModel{name: string(sk.kind), weight: sk.weight}
		ref, err := trained.Replicate()
		if err != nil {
			return nil, err
		}
		before := readChip(ref.Graph)
		for _, x := range set.Inputs {
			in := x.Data()
			k := rowKey(in)
			if seen[k] {
				return nil, fmt.Errorf("request pool has a repeated input")
			}
			seen[k] = true
			cls, err := ref.Predict(in)
			if err != nil {
				return nil, err
			}
			m.inputs = append(m.inputs, in)
			m.ref = append(m.ref, cls)
			req := serve.PredictRequest{Model: m.name, Input: in}
			switch rng.Intn(3) {
			case 0:
				req.DeadlineMs = tightDeadline
			case 1:
				req.DeadlineMs = looseDeadline
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			m.bodies = append(m.bodies, body)
		}
		m.cost = costBetween(before, readChip(ref.Graph), len(set.Inputs))
		f.models = append(f.models, m)

		insts := make([]*serve.Instance, 0, serveReplicas)
		for i := 0; i < serveReplicas; i++ {
			rep, err := trained.Replicate()
			if err != nil {
				return nil, err
			}
			inst, maint, err := f.instance(fmt.Sprintf("%s/replica-%d", m.name, i), rep.Graph, seed, tr)
			if err != nil {
				return nil, err
			}
			insts = append(insts, inst)
			f.maints = append(f.maints, maint)
			f.graphs = append(f.graphs, rep.Graph)
		}
		if err := f.rt.AddModel(m.name, insts...); err != nil {
			return nil, err
		}
	}
	f.handler = serve.NewServer(f.rt).Handler()
	return f, nil
}

// instance builds one replica. Untraced it is the stock graph instance;
// traced it is the same wiring over a timing engine decorator, with the
// graph health probe and a maintainer attached by hand.
func (f *serveFleet) instance(name string, g *core.Graph, seed int64, tr *tracer) (*serve.Instance, *serve.Maintainer, error) {
	cfg := serve.Config{MaxBatch: 16, MaxWait: 2 * time.Millisecond, QueueCap: 64}
	mcfg := serve.MaintainerConfig{
		Seed:   seed,
		Policy: reliability.Policy{TimePerStep: 30 * units.Second, BISTRepeats: 1, WearLevelEvery: 4},
	}
	if tr == nil {
		inst, err := serve.NewGraphInstance(name, g, cfg, &mcfg)
		if err != nil {
			return nil, nil, err
		}
		return inst, inst.Maintainer(), nil
	}
	eng := &timedEngine{eng: g, idx: f.idx, tr: tr}
	cfg.Probe = serve.GraphHealth(g)
	inst := serve.NewInstance(name, eng, cfg)
	m, err := serve.NewMaintainer(g, inst.Batcher(), inst.Journal(), mcfg)
	if err != nil {
		return nil, nil, err
	}
	f.engines = append(f.engines, eng)
	return inst, m, nil
}

func (f *serveFleet) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return f.rt.Shutdown(ctx)
}

// replyWriter is a minimal http.ResponseWriter reused across one client's
// requests.
type replyWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *replyWriter) Header() http.Header { return w.header }

func (w *replyWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *replyWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *replyWriter) reset() {
	clear(w.header)
	w.code = 0
	w.body.Reset()
}

// clientTally is one client's outcome over the measured window.
type clientTally struct {
	latMs      []float64
	attempted  int64
	failed     int64
	ok         int64
	mismatched int64
	codes      map[int]int64
	waitMs     []float64
	execMs     []float64
	rate       *rateMeter
	err        error
}

func runServe(opts options) (*report, error) {
	f, setupS, err := timeSetups(
		func() (*serveFleet, error) { return setupServe(opts.seed, opts.tr) },
		func(old *serveFleet) { _ = old.shutdown() }) // no request ever reached a discarded set-up
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.e2e.put("setup_s", setupS)
	rep.layer.put("train.serve_model_ms", f.trainMs)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	warmEnd := start.Add(serveWarmup)
	end := warmEnd.Add(time.Duration(opts.seconds * float64(time.Second)))
	windowMs := float64(end.Sub(warmEnd)) / 1e6

	tallies := make([]clientTally, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c] = f.client(c, opts, warmEnd, end, windowMs)
		}(c)
	}

	// Maintenance: one CheckNow every checkEvery, round-robin over the
	// replicas, for the whole run.
	var checkMs []float64
	var refreshed, checkErrs int64
	stop := make(chan struct{})
	maintDone := make(chan struct{})
	go func() {
		defer close(maintDone)
		tick := time.NewTicker(checkEvery)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			res, err := f.maints[i%len(f.maints)].CheckNow(ctx)
			t1 := time.Now()
			if err != nil {
				checkErrs++
				continue
			}
			if t0.After(warmEnd) {
				checkMs = append(checkMs, float64(t1.Sub(t0))/1e6)
				refreshed += int64(res.Refreshed)
				opts.tr.add("reliability.check", t0, t1, -1, 0)
			}
		}
	}()

	time.Sleep(time.Until(warmEnd))
	snap0 := f.rt.Snapshot()
	busy0, rows0 := f.engineTotals()
	compiled0 := f.rowsCompiled()
	wg.Wait()
	close(stop)
	<-maintDone
	snap1 := f.rt.Snapshot()
	busy1, rows1 := f.engineTotals()
	compiled1 := f.rowsCompiled()
	if err := f.shutdown(); err != nil {
		return nil, fmt.Errorf("router shutdown: %w", err)
	}
	final := f.rt.Snapshot()

	var lat, wait, exec []float64
	codes := map[int]int64{}
	var served, mismatched int64
	rate := newRateMeter(warmEnd)
	for _, t := range tallies {
		if t.err != nil {
			return nil, t.err
		}
		rep.attempted += t.attempted
		rep.failed += t.failed
		served += t.ok
		mismatched += t.mismatched
		rate.merge(t.rate)
		lat = append(lat, t.latMs...)
		wait = append(wait, t.waitMs...)
		exec = append(exec, t.execMs...)
		for c, n := range t.codes {
			codes[c] += n
		}
	}
	if checkErrs > 0 {
		rep.fail("serve-mixed: %d maintenance checks failed", checkErrs)
	}
	if mismatched > 0 {
		rep.fail("serve-mixed: %d replies differ from the reference replica", mismatched)
	}
	if lost := final.Lost(); lost != 0 {
		rep.fail("serve-mixed: router ledger lost %d requests", lost)
	}
	if served == 0 {
		rep.fail("serve-mixed: no request was served")
	}

	rep.latency = summarize(lat)
	rep.e2e.put("samples_per_s", rate.perSecond(end))
	rep.e2e.put("latency_p50_ms", rep.latency.P50Ms)
	costs := make([]chipCost, len(f.models))
	weights := make([]float64, len(f.models))
	for i, m := range f.models {
		costs[i], weights[i] = m.cost, m.weight
	}
	putChip(rep, mix(costs, weights))

	// Router and batcher counters over the measured window.
	var dServed, dBatches uint64
	for mi := range snap1.Models {
		for ri := range snap1.Models[mi].Replicas {
			a, b := snap0.Models[mi].Replicas[ri].Stats, snap1.Models[mi].Replicas[ri].Stats
			dServed += b.Served - a.Served
			dBatches += b.Batches - a.Batches
		}
	}
	if dBatches > 0 {
		rep.layer.put("serve.batch_size_mean", float64(dServed)/float64(dBatches))
	}
	rep.layer.put("serve.batches", float64(dBatches))
	rep.layer.put("serve.handoffs", float64(snap1.Handoffs-snap0.Handoffs))
	rep.layer.put("serve.rejected", float64((snap1.Rejected+snap1.DeadlineErrs+snap1.AllDraining)-
		(snap0.Rejected+snap0.DeadlineErrs+snap0.AllDraining)))
	rep.layer.put("mrr.rows_compiled_per_sample", float64(compiled1-compiled0)/float64(max(dServed, 1)))

	// Reliability: window check times, end-of-run bank health.
	sc := sortedCopy(checkMs)
	rep.layer.put("reliability.checks", float64(len(sc)))
	rep.layer.put("reliability.refresh_pulses", float64(refreshed))
	if len(sc) > 0 {
		rep.layer.put("reliability.check_ms_p50", percentile(sc, 0.5))
		rep.layer.put("reliability.check_ms_max", sc[len(sc)-1])
	}
	var masked, dirty int
	var wear float64
	for _, g := range f.graphs {
		masked += g.MaskedRowCount()
		_, d := bankCounters(g)
		dirty += d
		wear += reliability.WearSummary(g).MeanDrawDown / float64(len(f.graphs))
	}
	rep.layer.put("reliability.masked_rows", float64(masked))
	rep.layer.put("reliability.wear_draw_down", wear)
	rep.layer.put("mrr.dirty_rows", float64(dirty))

	if opts.tr != nil {
		if err := f.traceLayers(rep, opts.tr, wait, exec, busy1-busy0, rows1-rows0, windowMs); err != nil {
			return nil, err
		}
	}
	rep.notes["http_codes"] = codes
	rep.notes["served"] = served
	rep.notes["maintenance_checks"] = len(checkMs)
	rep.notes["router_final"] = map[string]any{"submitted": final.Submitted, "served": final.Served, "lost": final.Lost()}
	return rep, nil
}

// client runs one closed-loop client until end and tallies the requests
// it started inside [warmEnd, end).
func (f *serveFleet) client(c int, opts options, warmEnd, end time.Time, windowMs float64) clientTally {
	t := clientTally{codes: map[int]int64{}, rate: newRateMeter(warmEnd)}
	rng := rand.New(rand.NewSource(opts.seed*1_000_003 + int64(c)))
	next := make([]int, len(f.models))
	w := &replyWriter{header: http.Header{}}
	var resp serve.PredictResponse
	for seq := int64(0); ; seq++ {
		mi := 0
		if rng.Float64() >= f.models[0].weight {
			mi = 1
		}
		m := f.models[mi]
		// Client c owns pool entries c, c+32, c+64, ..., so no two
		// in-flight requests carry the same input.
		i := (c + serveClients*next[mi]) % servePool
		next[mi]++
		id := int64(c+1)<<40 | seq
		if f.idx != nil {
			if err := f.idx.begin(m.inputs[i], id); err != nil {
				t.err = err
				return t
			}
		}
		req, err := http.NewRequest(http.MethodPost, "/predict", bytes.NewReader(m.bodies[i]))
		if err != nil {
			t.err = err
			return t
		}
		req.Header.Set("Content-Type", "application/json")
		w.reset()
		t0 := time.Now()
		if !t0.Before(end) {
			if f.idx != nil {
				f.idx.finish(m.inputs[i])
			}
			return t
		}
		f.handler.ServeHTTP(w, req)
		t1 := time.Now()
		var st batchStamp
		if f.idx != nil {
			st = f.idx.finish(m.inputs[i])
		}
		good := w.code == http.StatusOK && json.Unmarshal(w.body.Bytes(), &resp) == nil
		if good && resp.Class != m.ref[i] {
			t.mismatched++
		}
		if t0.Before(warmEnd) {
			continue
		}
		t.attempted++
		t.codes[w.code]++
		if !good {
			t.failed++
			t.latMs = append(t.latMs, windowMs) // a failure misses any limit
			continue
		}
		t.ok++
		t.latMs = append(t.latMs, float64(t1.Sub(t0))/1e6)
		t.rate.add(t1, 1)
		if st.ok {
			t.waitMs = append(t.waitMs, float64(st.start.Sub(t0))/1e6)
			t.execMs = append(t.execMs, float64(st.end.Sub(st.start))/1e6)
			if seq%spanEvery == 0 {
				h := opts.tr.add("serve.handler", t0, t1, -1, id)
				opts.tr.add("serve.wait", t0, st.start, h, id)
				opts.tr.add("serve.exec", st.start, st.end, h, id)
			}
		}
	}
}

// engineTotals sums busy time and rows over the traced engine decorators.
func (f *serveFleet) engineTotals() (busyNs, rows int64) {
	for _, e := range f.engines {
		busyNs += e.busy.Load()
		rows += e.rows.Load()
	}
	return busyNs, rows
}

func (f *serveFleet) rowsCompiled() uint64 {
	var n uint64
	for _, g := range f.graphs {
		n += rowsCompiled(g)
	}
	return n
}

// traceLayers derives the serve per-layer metrics from the spans and the
// engine decorators, then measures core allocations on a quiet replica.
func (f *serveFleet) traceLayers(rep *report, tr *tracer, wait, exec []float64, busyNs, rows int64, windowMs float64) error {
	spans, _ := tr.snapshot()
	self := selfTimes(spans)
	handler := sortedCopy(spanDurationsMs(spans, nil, "serve.handler"))
	reply := sortedCopy(spanDurationsMs(spans, self, "serve.handler"))
	ws, es := sortedCopy(wait), sortedCopy(exec)
	rep.layer.put("serve.handler_ms_p50", percentile(handler, 0.5))
	rep.layer.put("serve.reply_ms_p50", percentile(reply, 0.5))
	rep.layer.put("serve.wait_ms_p50", percentile(ws, 0.5))
	rep.layer.put("serve.wait_ms_p99", percentile(ws, 0.99))
	rep.layer.put("serve.exec_ms_p50", percentile(es, 0.5))
	rep.layer.put("serve.engine_busy_frac", float64(busyNs)/1e6/windowMs/float64(len(f.engines)))
	if rows > 0 {
		rep.layer.put("core.exec_ns_per_sample", float64(busyNs)/float64(rows))
	}
	var unattributed int64
	for _, e := range f.engines {
		unattributed += e.unattributed.Load()
	}
	rep.notes["serve_split_samples"] = map[string]any{"wait": len(ws), "exec": len(es), "handler": len(handler), "unattributed_rows": unattributed}

	// Allocations of the core batch call, on a replica graph after the
	// fleet has shut down, so no other goroutine allocates meanwhile.
	m := f.models[0]
	const batch = 16
	g := f.graphs[0]
	w := g.InputSize()
	xs := make([]float64, 0, batch*w)
	for i := 0; i < batch; i++ {
		xs = append(xs, m.inputs[i]...)
	}
	dst := make([]int, batch)
	allocs, bytes, err := allocsPerCall(200, func() error {
		_, err := g.PredictBatch(dst, xs, batch)
		return err
	})
	if err != nil {
		return err
	}
	rep.layer.put("core.allocs_per_sample", allocs/batch)
	rep.layer.put("core.bytes_per_sample", bytes/batch)
	return nil
}
