package main

import (
	"fmt"
	"math"
	"time"

	"trident/internal/core"
	"trident/internal/dataflow"
	"trident/internal/dataset"
	"trident/internal/tensor"
)

// cnn-offline: seeded 8×8 images streamed in fixed batches through a
// four-conv CNN with the analog noise model on, via a two-stage pipeline.
// No request touches serve and no bank is written while measuring.
const (
	cnnBatch  = 64
	cnnPool   = 1024 // images per pass over the input set
	cnnStages = 2
	// cnnChips splits the measured seconds over this many freshly built
	// chips: in one process, two of eight builds of the same graph ran
	// about 20% slower than the rest on every repeat.
	cnnChips = 4
)

// cnnSpecs is the four-conv stack: 1×8×8 → 4×8×8 → 6×8×8 → 6×4×4 → 8×4×4,
// then global average pooling and a dense 8→3 classifier.
var cnnSpecs = []tensor.Conv2DSpec{
	{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
	{InC: 4, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
	{InC: 6, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
	{InC: 6, InH: 4, InW: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
}

const cnnClasses = 3

// cnnGraph builds the CNN on 8×8 banks. Its weights are fixed; the seed
// only generates the images.
func cnnGraph(pe core.PEConfig) (*core.Graph, error) {
	pe.Rows, pe.Cols = 8, 8
	g, err := core.NewGraph(core.NetworkConfig{PE: pe, LearningRate: 0.1}, 1, 8, 8)
	if err != nil {
		return nil, err
	}
	cur := g.Input()
	for i, s := range cnnSpecs {
		cur = g.Conv(cur, s, int64(i))
	}
	cur = g.GlobalAvgPool(cur)
	cur = g.Dense(cur, core.LayerSpec{In: cnnSpecs[len(cnnSpecs)-1].OutC, Out: cnnClasses}, int64(len(cnnSpecs)))
	if err := g.SetOutput(cur); err != nil {
		return nil, err
	}
	return g, nil
}

// cnnChip is one noisy chip driven through its stage pipeline.
type cnnChip struct {
	g      *core.Graph
	pipe   *core.Pipeline
	planMs float64
}

func newCNNChip() (*cnnChip, error) {
	g, err := cnnGraph(core.PEConfig{})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cuts, err := dataflow.PlanStages(g, cnnStages)
	if err != nil {
		return nil, err
	}
	planMs := float64(time.Since(start)) / 1e6
	pipe, err := core.NewPipeline(g, cuts, 0)
	if err != nil {
		return nil, err
	}
	return &cnnChip{g: g, pipe: pipe, planMs: planMs}, nil
}

// cnnSetup is one set-up of the cnn-offline workload.
type cnnSetup struct {
	chip  *cnnChip
	twin  *core.Graph // identical chip for the sequential reference
	xs    []float64
	exact []int // classes of a noise-free, exact-arithmetic twin
}

func setupCNN(seed int64) (*cnnSetup, error) {
	s := &cnnSetup{}
	var err error
	if s.chip, err = newCNNChip(); err != nil {
		return nil, err
	}
	if s.twin, err = cnnGraph(core.PEConfig{}); err != nil {
		return nil, err
	}
	exact, err := cnnGraph(core.PEConfig{Ideal: true, DisableNoise: true})
	if err != nil {
		return nil, err
	}
	set := dataset.MiniImages(cnnPool, cnnClasses, 1, 8, 8, 0.1, seed)
	s.xs = make([]float64, 0, cnnPool*s.twin.InputSize())
	for _, x := range set.Inputs {
		s.xs = append(s.xs, x.Data()...)
	}
	if s.exact, err = exact.PredictBatch(nil, s.xs, cnnPool); err != nil {
		return nil, err
	}
	return s, nil
}

// argmax returns the index of the largest of row.
func argmax(row []float64) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

func runCNN(opts options) (*report, error) {
	// One stage per CPU: each stage runs its tile passes on its own
	// goroutine. With the tile pool also fanning out inside the stages,
	// the median batch latency spread 25% between identical runs on a
	// shared 2-CPU host; serial tiles kept it near 9%.
	core.SetMaxWorkers(1)
	s, setupS, err := timeSetups(func() (*cnnSetup, error) { return setupCNN(opts.seed) }, func(*cnnSetup) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.e2e.put("setup_s", setupS)
	chip := s.chip
	rep.layer.put("dataflow.plan_ms", chip.planMs)
	var maxCost, sum float64
	infos := chip.pipe.StageInfos()
	for _, st := range infos {
		sum += float64(st.Cost)
		maxCost = math.Max(maxCost, float64(st.Cost))
	}
	rep.layer.put("dataflow.stage_cost_imbalance", maxCost/(sum/float64(len(infos))))
	in := s.twin.InputSize()
	batches := cnnPool / cnnBatch
	batchOf := func(b int) []float64 { return s.xs[b*cnnBatch*in : (b+1)*cnnBatch*in] }

	// First pass, from fresh graphs, is the deterministic window: its
	// first batch is checked bit for bit against the sequential path on
	// the twin, and its chip cost and its class agreement with the exact
	// twin are reported. It also warms the chip up.
	var out []float64
	before := readChip(chip.g)
	agree := 0
	for b := 0; b < batches; b++ {
		if out, err = chip.pipe.ForwardBatchPipelined(out, batchOf(b), cnnBatch); err != nil {
			return nil, err
		}
		if b == 0 {
			ref, err := s.twin.ForwardBatchInto(nil, batchOf(0), cnnBatch)
			if err != nil {
				return nil, err
			}
			for i := range ref {
				if math.Float64bits(ref[i]) != math.Float64bits(out[i]) {
					rep.fail("cnn-offline: pipelined output %d differs from the sequential path", i)
					break
				}
			}
		}
		for i := 0; i < cnnBatch; i++ {
			if argmax(out[i*cnnClasses:(i+1)*cnnClasses]) == s.exact[b*cnnBatch+i] {
				agree++
			}
		}
	}
	putChip(rep, costBetween(before, readChip(chip.g), cnnPool))
	rep.layer.put("core.noise_agreement", float64(agree)/cnnPool)
	rep.notes["noise_agreement"] = float64(agree) / cnnPool

	// Measured window, split over cnnChips chips; each later chip is
	// built and warmed by one pass outside the timing.
	var lat, windows []float64
	var occMin, occMax, busyNs float64
	var compiled uint64
	segment := time.Duration(opts.seconds * float64(time.Second) / cnnChips)
	for c := 0; c < cnnChips; c++ {
		if c > 0 {
			if chip, err = newCNNChip(); err != nil {
				return nil, err
			}
			for b := 0; b < batches; b++ {
				if out, err = chip.pipe.ForwardBatchPipelined(out, batchOf(b), cnnBatch); err != nil {
					return nil, err
				}
			}
		}
		compiled0 := rowsCompiled(chip.g)
		start := time.Now()
		end := start.Add(segment)
		rate := newRateMeter(start)
		for b, req := 0, int64(1); ; b, req = (b+1)%batches, req+1 {
			t0 := time.Now()
			if !t0.Before(end) {
				break
			}
			rep.attempted++
			out, err = chip.pipe.ForwardBatchPipelined(out, batchOf(b), cnnBatch)
			t1 := time.Now()
			if err != nil {
				rep.failed++
				lat = append(lat, float64(segment)/1e6)
				continue
			}
			busyNs += float64(t1.Sub(t0))
			lat = append(lat, float64(t1.Sub(t0))/1e6)
			rate.add(t1, cnnBatch)
			opts.tr.add("core.pipeline_batch", t0, t1, -1, req)
			occ := chip.pipe.StageOccupancy()
			lo, hi := occ[0], occ[0]
			for _, o := range occ {
				lo, hi = math.Min(lo, o), math.Max(hi, o)
			}
			occMin += lo
			occMax += hi
		}
		windows = append(windows, rate.windows(end)...)
		compiled += rowsCompiled(chip.g) - compiled0
	}
	done := rep.attempted - rep.failed
	if done == 0 {
		rep.fail("cnn-offline: no batch completed")
		return rep, nil
	}
	samples := float64(done * cnnBatch)
	rep.latency = summarize(lat)
	rate := samples / (cnnChips * segment.Seconds()) // runs shorter than a window per chip
	if len(windows) > 0 {
		rate = median(windows) / rateWindow.Seconds()
	}
	rep.e2e.put("samples_per_s", rate)
	rep.e2e.put("latency_p50_ms", rep.latency.P50Ms)
	rep.layer.put("core.exec_ns_per_sample", busyNs/samples)
	rep.layer.put("core.stage_occupancy_min", occMin/float64(done))
	rep.layer.put("core.stage_occupancy_max", occMax/float64(done))
	_, dirty := bankCounters(chip.g)
	rep.layer.put("mrr.rows_compiled_per_sample", float64(compiled)/samples)
	rep.layer.put("mrr.dirty_rows", float64(dirty))
	if opts.tr != nil {
		allocs, bytes, err := allocsPerCall(50, func() error {
			out, err = chip.pipe.ForwardBatchPipelined(out, batchOf(0), cnnBatch)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.layer.put("core.allocs_per_sample", allocs/cnnBatch)
		rep.layer.put("core.bytes_per_sample", bytes/cnnBatch)
	}
	rep.notes["stages"] = fmt.Sprintf("%d (cuts %v)", chip.pipe.Stages(), chip.pipe.Cuts())
	return rep, nil
}
