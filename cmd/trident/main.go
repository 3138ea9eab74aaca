// Command trident is the interactive front end of the simulator. It maps
// CNN workloads onto the modelled accelerators, runs functional in-situ
// training demos, and dumps device-level detail.
//
// Usage:
//
//	trident infer  [-model VGG-16] [-accel Trident] [-batch 32] [-layers]
//	trident train  [-model mlp|branched] [-samples 600] [-hidden 16] [-epochs 10] [-batch 1] [-noise] [-lifetime]
//	trident serve  [-addr localhost:8089] [-model blobs] [-models blobs,spirals] [-replicas 2] [-batch 16] [-wait 2ms] [-queue 64] [-maint 30s] [-chaos]
//	trident sweep  [-model ResNet-50]
//	trident cache  [-model VGG-16]
//	trident export [-o trident-state.json] [-epochs 8]
//	trident trace  [-model AlexNet] [-o trident-trace.json]
//	trident devices
//
// The hot-path benchmarks and their speedup gates live in the go test
// harness (bench_test.go): run them with `make bench` or `make
// bench-profile`, or build a standalone binary with `go test -c`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"trident/internal/accel"
	"trident/internal/core"
	"trident/internal/dataflow"
	"trident/internal/dataset"
	"trident/internal/device"
	"trident/internal/experiments"
	"trident/internal/models"
	"trident/internal/reliability"
	"trident/internal/report"
	"trident/internal/trace"
	"trident/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trident: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "infer":
		cmdInfer(os.Args[2:])
	case "train":
		cmdTrain(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "sweep":
		cmdSweep(os.Args[2:])
	case "cache":
		cmdCache(os.Args[2:])
	case "export":
		cmdExport(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
	case "devices":
		cmdDevices()
	default:
		fmt.Fprintf(os.Stderr, "trident: unknown command %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: trident <command> [flags]

commands:
  infer    map a CNN onto an accelerator and report latency/energy
  train    run functional in-situ training on synthetic data
           (-model branched: residual+concat graph on the photonic core;
            -lifetime: compressed wear-out campaign with BIST + self-healing)
  serve    train one or more small models and serve them over HTTP through a
           wear-aware replica router with deadline-aware micro-batching,
           admission control and staggered background maintenance
           (-models blobs,spirals,digits -replicas N; GET /models lists them)
  sweep    sweep the PE budget for one model
  cache    analyze on-chip memory behaviour for one model
  export   train in-situ and save the network state; verify a reload round-trip
  trace    write a Chrome trace of the weight-stationary schedule
  devices  print the device parameter sheet

benchmarks: make bench (gated trajectory), make bench-profile (pprof), or
go test -c for a standalone benchmark binary`)
	os.Exit(2)
}

func photonicByName(name string) (accel.PhotonicConfig, bool) {
	all := append([]accel.PhotonicConfig{accel.Trident()}, accel.PhotonicBaselines()...)
	for _, c := range all {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return accel.PhotonicConfig{}, false
}

func cmdInfer(args []string) {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	modelName := fs.String("model", "VGG-16", "workload (GoogleNet, MobileNetV2, VGG-16, AlexNet, ResNet-50)")
	accelName := fs.String("accel", "Trident", "accelerator (Trident, DEAP-CNN, CrossLight, PIXEL)")
	batch := fs.Int("batch", accel.DefaultBatch, "weight-programming amortization batch")
	layers := fs.Bool("layers", false, "print the per-layer mapping")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	m := models.ByName(*modelName)
	if m == nil {
		log.Fatalf("unknown model %q", *modelName)
	}
	cfg, ok := photonicByName(*accelName)
	if !ok {
		log.Fatalf("unknown accelerator %q", *accelName)
	}
	res, err := accel.EvaluatePhotonicBatch(cfg, m, *batch)
	if err != nil {
		log.Fatal(err)
	}
	g := cfg.Geometry()
	fmt.Printf("%s on %s (%d PEs × %d MRRs, %v budget)\n",
		m.Name, cfg.Name, g.PEs, g.Rows*g.Cols, device.PowerBudget)
	fmt.Printf("  parameters          %d\n", m.TotalWeights())
	fmt.Printf("  MACs/inference      %d\n", m.TotalMACs())
	fmt.Printf("  latency (batch 1)   %v\n", res.Latency)
	fmt.Printf("  throughput (b=%d)   %.1f inf/s\n", *batch, res.Throughput)
	fmt.Printf("  energy/inference    %v\n", res.Energy)
	for k, v := range res.EnergyBreakdown {
		fmt.Printf("    %-8s %v\n", k, v)
	}
	if *layers {
		mp, err := dataflow.Map(m, g)
		if err != nil {
			log.Fatal(err)
		}
		t := report.NewTable("per-layer mapping", "layer", "tiles", "waves", "pixels", "tune events")
		for _, l := range mp.Layers {
			t.AddRow(l.Name, fmt.Sprintf("%d", l.Tiles), fmt.Sprintf("%d", l.Waves),
				fmt.Sprintf("%d", l.Pixels), fmt.Sprintf("%d", l.TuneEvents))
		}
		fmt.Println()
		fmt.Print(t.String())
	}
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	samples := fs.Int("samples", 600, "synthetic samples")
	classes := fs.Int("classes", 3, "classes")
	dim := fs.Int("dim", 6, "input dimensionality")
	hidden := fs.Int("hidden", 16, "hidden units")
	epochs := fs.Int("epochs", 10, "epochs")
	lr := fs.Float64("lr", 0.08, "learning rate (β)")
	noise := fs.Bool("noise", false, "enable analog BPD noise")
	seed := fs.Int64("seed", 42, "dataset seed")
	lifetime := fs.Bool("lifetime", false, "run the lifetime wear-out campaign instead of plain training")
	model := fs.String("model", "mlp", "architecture: mlp (dense stack) or branched (residual+concat mini-model)")
	batch := fs.Int("batch", 1, "minibatch size (mlp only): >1 trains via the batched reprogram-free backward path")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	if *lifetime {
		cmdLifetime(*seed)
		return
	}
	switch {
	case *samples < 1:
		log.Fatalf("-samples %d: need at least 1 sample", *samples)
	case *classes < 2:
		log.Fatalf("-classes %d: need at least 2 classes", *classes)
	case *dim < 1:
		log.Fatalf("-dim %d: need at least 1 input dimension", *dim)
	}
	var data *dataset.Set
	var res *train.InSituResult
	var err error
	switch *model {
	case "branched":
		const hw = 8
		data = dataset.MiniImages(*samples, *classes, 1, hw, hw, 0.05, *seed)
		fmt.Printf("in-situ training: %d images, %d classes, branched graph (conv→conv→add→concat→GAP→dense), %d epochs\n",
			*samples, *classes, *epochs)
		res, err = train.RunBranched(data, *epochs, *lr, *noise)
	case "mlp":
		data = dataset.Blobs(*samples, *classes, *dim, 0.1, *seed)
		fmt.Printf("in-situ training: %d samples, %d classes, %d→%d→%d network, %d epochs",
			*samples, *classes, *dim, *hidden, *classes, *epochs)
		if *batch > 1 {
			fmt.Printf(", batch %d", *batch)
		}
		fmt.Println()
		res, err = train.RunInSitu(data, *hidden, *epochs, *lr, *batch, *noise)
	default:
		log.Fatalf("unknown -model %q (want mlp or branched)", *model)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  train accuracy   %.1f%%\n", res.TrainAccuracy*100)
	fmt.Printf("  test accuracy    %.1f%%\n", res.TestAccuracy*100)
	fmt.Printf("  final loss       %.4f\n", res.FinalLoss)
	fmt.Printf("  energy           %v (%.1f%% GST tuning)\n", res.Energy, res.TuningShare*100)
	if *model == "mlp" {
		digital, err := train.DigitalBaselineAccuracy(data, *hidden, *epochs, *lr, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  digital baseline %.1f%%\n", digital*100)
	}
}

// cmdLifetime runs the compressed wear-out campaign: a network trains in
// situ while GST cells exhaust Weibull endurance budgets, the built-in
// self-test localizes the deaths without oracle access, and the remediation
// scheduler refreshes, wear-levels, heals and masks to hold accuracy.
// SIGINT/SIGTERM stop the campaign at a sample boundary and the partial
// summary still prints, so an interrupted run is never killed mid-write.
func cmdLifetime(seed int64) {
	fmt.Println("lifetime campaign: compressed wear-out with BIST, wear-leveling and self-healing")
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, err := reliability.RunCampaignCtx(ctx, seed)
	if err != nil {
		log.Fatal(err)
	}
	if res.Interrupted {
		fmt.Println("interrupted: campaign stopped early, partial results follow")
	}
	fmt.Print(experiments.LifetimeTable(res).String())
	fmt.Printf("  baseline accuracy  %.1f%%\n", res.BaselineAccuracy*100)
	fmt.Printf("  final accuracy     %.1f%%\n", res.FinalAccuracy*100)
	fmt.Printf("  wear faults        %d (%d detected by BIST, %.0f%%)\n",
		res.WearFaults, res.Detected, 100*res.DetectionRate)
	fmt.Printf("  healing runs       %d\n", res.Heals)
	fmt.Printf("  masked rows        %d\n", res.MaskedRows)
	fmt.Printf("  writes/cell        mean %.0f, max %d\n", res.MeanCellWrites, res.MaxCellWrites)
}

func cmdSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	modelName := fs.String("model", "ResNet-50", "workload")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	m := models.ByName(*modelName)
	if m == nil {
		log.Fatalf("unknown model %q", *modelName)
	}
	t := report.NewTable(fmt.Sprintf("PE sweep for %s", m.Name),
		"PEs", "power", "throughput (inf/s)", "energy/inference")
	cfg := accel.Trident()
	for _, pes := range []int{4, 8, 16, 32, 44, 64, 88} {
		g := dataflow.Geometry{PEs: pes, Rows: device.WeightBankRows, Cols: device.WeightBankCols}
		mp, err := dataflow.Map(m, g)
		if err != nil {
			log.Fatal(err)
		}
		period := device.ClockRate.Period().Seconds()
		stream := float64(mp.TotalStreamCycles()) * accel.VectorCyclesPerSymbol * period
		tune := float64(mp.TotalWaves()) * cfg.TuneTime.Seconds()
		perInf := tune/accel.DefaultBatch + stream
		powerW := float64(pes) * cfg.PEPower().Watts()
		active := float64(mp.TotalActivePECycles()) * accel.VectorCyclesPerSymbol * period
		energy := float64(mp.TotalTuneEvents())*cfg.TuneEnergy.Joules()/accel.DefaultBatch +
			cfg.StreamPower().Watts()*active
		t.AddRow(fmt.Sprintf("%d", pes), fmt.Sprintf("%.1fW", powerW),
			fmt.Sprintf("%.1f", 1/perInf), fmt.Sprintf("%.2fmJ", energy*1e3))
	}
	fmt.Print(t.String())
	fmt.Printf("(30W budget admits %d PEs)\n", cfg.MaxPEs(device.PowerBudget))
}

func cmdCache(args []string) {
	fs := flag.NewFlagSet("cache", flag.ExitOnError)
	modelName := fs.String("model", "VGG-16", "workload")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	m := models.ByName(*modelName)
	if m == nil {
		log.Fatalf("unknown model %q", *modelName)
	}
	g := accel.Trident().Geometry()
	mp, err := dataflow.Map(m, g)
	if err != nil {
		log.Fatal(err)
	}
	ca := mp.AnalyzeCache(0, 0)
	t := report.NewTable(
		fmt.Sprintf("on-chip memory behaviour of %s (%v PE cache, %v L2)", m.Name, ca.PECache, ca.L2),
		"layer", "output bytes", "fits L2", "pixel block", "partial-sum spill (B)")
	for _, l := range ca.Layers {
		fits := "yes"
		if !l.FitsL2 {
			fits = "NO"
		}
		t.AddRow(l.Name, fmt.Sprintf("%d", l.OutputBytes), fits,
			fmt.Sprintf("%d", l.PixelBlock), fmt.Sprintf("%d", l.SpillBytes))
	}
	fmt.Print(t.String())
	fmt.Printf("total partial-sum spill: %d bytes/inference; all activations fit L2: %v\n",
		ca.TotalSpillBytes(), ca.AllOutputsFitL2())
}

func cmdExport(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	out := fs.String("o", "trident-state.json", "output state file")
	epochs := fs.Int("epochs", 8, "training epochs before export")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	data := dataset.Blobs(300, 3, 6, 0.1, 42)
	cfg := core.NetworkConfig{PE: core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true}, LearningRate: 0.08}
	net, err := core.NewNetwork(cfg,
		core.LayerSpec{In: 6, Out: 16, Activate: true},
		core.LayerSpec{In: 16, Out: 3})
	if err != nil {
		log.Fatal(err)
	}
	for e := 0; e < *epochs; e++ {
		if _, err := net.TrainEpoch(data.Inputs, data.Labels, 1); err != nil {
			log.Fatal(err)
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	// Round-trip verification: reload on fresh hardware and compare
	// predictions.
	rf, err := os.Open(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	loaded, err := core.LoadNetwork(rf, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The original's predictions are the labels the reloaded copy is
	// scored against.
	xs := make([]float64, 0, len(data.Inputs)*net.InputSize())
	for _, x := range data.Inputs {
		xs = append(xs, x.Data()...)
	}
	want, err := net.PredictBatch(nil, xs, len(data.Inputs))
	if err != nil {
		log.Fatal(err)
	}
	agreement, err := loaded.Accuracy(data.Inputs, want)
	if err != nil {
		log.Fatal(err)
	}
	agree := int(math.Round(agreement * float64(len(want))))
	fmt.Printf("saved %s; reload agreement %d/%d predictions\n", *out, agree, len(data.Inputs))
}

func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	modelName := fs.String("model", "AlexNet", "workload")
	out := fs.String("o", "trident-trace.json", "output file (load in chrome://tracing or Perfetto)")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	m := models.ByName(*modelName)
	if m == nil {
		log.Fatalf("unknown model %q", *modelName)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := trace.Export(f, m, accel.Trident()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func cmdDevices() {
	fmt.Print(experiments.TableI().String())
	fmt.Println()
	fmt.Print(experiments.TableIII().String())
	fmt.Println()
	fmt.Printf("Clock %v, channel spacing %v, GST levels %d (%d-bit), endurance %.0g cycles\n",
		device.ClockRate, device.ChannelSpacing, device.GSTLevels, device.GSTBits, device.GSTEnduranceCycles)
}
