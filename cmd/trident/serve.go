package main

// The serve subcommand: a replica-oriented micro-batching inference front
// end over HTTP. It trains one or more small MLPs in situ on synthetic
// workloads (see internal/train's serve-model constructors), fans each
// out into N bit-identical replicas from the trained snapshot, and fronts
// the fleet with a wear-aware router: requests name a model, the router
// scores that model's replicas by estimated wait plus masked-row and
// endurance-draw-down penalties, and maintenance windows drain one
// replica while warm siblings keep serving. A model with every replica
// draining degrades to 503 with an honest Retry-After. SIGINT/SIGTERM
// drain in-flight connections before exit; -chaos turns on the per-replica
// fault injector used by the soak test (drift spikes, wear-fault bursts,
// engine stalls).

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"trident/internal/reliability"
	"trident/internal/serve"
	"trident/internal/train"
	"trident/internal/units"
)

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8089", "listen address")
	model := fs.String("model", "blobs", "model to serve: "+strings.Join(train.ServeModelKinds(), "|"))
	models := fs.String("models", "", "comma-separated model list (overrides -model), e.g. blobs,digits")
	replicas := fs.Int("replicas", 1, "replicas per model, fanned out bit-identically from the trained snapshot")
	batch := fs.Int("batch", 16, "micro-batch size cap (per replica)")
	wait := fs.Duration("wait", 2*time.Millisecond, "batch collection window")
	queue := fs.Int("queue", 64, "admission queue capacity (per replica)")
	grace := fs.Duration("grace", 5*time.Second, "shutdown drain budget before in-flight work is cancelled")
	maint := fs.Duration("maint", 30*time.Second, "maintenance window interval per replica (0 disables BIST/refresh)")
	chaosOn := fs.Bool("chaos", false, "inject drift spikes, wear faults and stalls per replica (for soak testing)")
	seed := fs.Int64("seed", 42, "dataset / probe / chaos seed")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	if *replicas < 1 {
		log.Fatal("serve: -replicas must be ≥ 1")
	}
	kinds := []string{*model}
	if *models != "" {
		kinds = strings.Split(*models, ",")
	}

	// SIGINT/SIGTERM start the graceful drain: the listener stops
	// accepting, queued requests flush on every replica, and after -grace
	// the batchers cancel whatever is still in flight.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	rt := serve.NewRouter()
	for _, k := range kinds {
		kind := train.ServeModelKind(strings.TrimSpace(k))
		// Train once; every replica (including the first) is fanned out
		// from the same trained snapshot via Replicate so the fleet is
		// bit-identical: same weights, same programmed write history.
		trained, err := train.NewServeModel(kind, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained %s (%s), fanning out %d replica(s)\n",
			kind, train.ServeModelDims(kind), *replicas)
		insts := make([]*serve.Instance, 0, *replicas)
		for i := 0; i < *replicas; i++ {
			rep, err := trained.Replicate()
			if err != nil {
				log.Fatal(err)
			}
			name := fmt.Sprintf("%s/replica-%d", kind, i)
			cfg := serve.Config{MaxBatch: *batch, MaxWait: *wait, QueueCap: *queue}
			var mcfg *serve.MaintainerConfig
			if *maint > 0 {
				mcfg = &serve.MaintainerConfig{
					Seed:   *seed,
					Policy: reliability.Policy{TimePerStep: 30 * units.Second, BISTRepeats: 1},
				}
			}
			inst, err := serve.NewGraphInstance(name, rep.Graph, cfg, mcfg)
			if err != nil {
				log.Fatal(err)
			}
			if m := inst.Maintainer(); m != nil {
				// Stagger the per-replica maintenance loops so windows on
				// sibling replicas do not line up — the router always has a
				// warm sibling to shift traffic to.
				delay := *maint * time.Duration(i) / time.Duration(*replicas)
				go func(m *serve.Maintainer, delay time.Duration) {
					select {
					case <-ctx.Done():
						return
					case <-time.After(delay):
					}
					if err := m.Run(ctx, *maint); err != nil {
						log.Printf("maintenance loop (%s): %v", name, err)
					}
				}(m, delay)
			}
			if *chaosOn {
				chaos := serve.NewChaos(inst.Graph(), inst.Batcher(), inst.Journal(),
					serve.ChaosConfig{Seed: *seed + int64(i)*7919})
				go chaos.Run(ctx)
			}
			insts = append(insts, inst)
		}
		if err := rt.AddModel(string(kind), insts...); err != nil {
			log.Fatal(err)
		}
	}
	if *chaosOn {
		fmt.Println("chaos injection ON: drift spikes, wear faults and stalls are live on every replica")
	}

	fmt.Printf("serving %d model(s) × %d replica(s) on http://%s  (batch ≤%d, window %v, queue %d, maintenance every %v)\n",
		len(kinds), *replicas, *addr, *batch, *wait, *queue, *maint)
	fmt.Println("endpoints: POST /predict  GET /models  GET /healthz  GET /readyz  GET /stats")
	srv := serve.NewServer(rt)
	if err := srv.ListenAndServe(ctx, *addr, *grace); err != nil {
		log.Fatal(err)
	}

	sn := rt.Snapshot()
	fmt.Printf("drained: routed %d requests — %d served, %d rejected, %d deadline, %d handoffs, %d all-draining (lost %d)\n",
		sn.Submitted, sn.Served, sn.Rejected, sn.DeadlineErrs, sn.Handoffs, sn.AllDraining, sn.Lost())
	for _, ms := range sn.Models {
		agg := ms.Aggregate
		fmt.Printf("  %s: served %d of %d submitted across %d replica(s), %d batches, p50 %.2fms p99 %.2fms\n",
			ms.Name, agg.Served, agg.Submitted, len(ms.Replicas), agg.Batches, agg.P50Ms, agg.P99Ms)
		for _, rep := range ms.Replicas {
			h := rep.Stats.Health
			fmt.Printf("    %s: served %d, %d maintenance checks, masked_rows=%d wear=%.4f energy=%.3gJ\n",
				rep.Name, rep.Stats.Served, rep.Checks, rep.Masked, rep.Wear, h.EnergyJ)
		}
	}
}
