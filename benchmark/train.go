package main

import (
	"fmt"
	"math"
	"time"

	"trident/internal/core"
	"trident/internal/dataset"
)

// train-insitu: a 35→128→10 MLP trained in situ with Graph.TrainBatch and
// the analog noise model on, over seeded noisy digit glyphs, evaluated on a
// held-out set. The first epochs are the deterministic window; training
// then continues over the same data for the measured seconds.
const (
	trainHidden  = 128
	trainBatch   = 32
	trainEpochs  = 3 // epochs in the deterministic window
	trainSamples = 2048
	testSamples  = 1024
	digitNoise   = 0.3
	// accuracyFloor is the held-out accuracy the deterministic window must
	// reach; the seeded runs this benchmark was tuned on reach 0.97 or more.
	accuracyFloor = 0.9
)

// trainSetup is one set-up of the train-insitu workload.
type trainSetup struct {
	g              *core.Graph
	xs, testXs     []float64
	labels, testLb []int
	in             int
}

func setupTrain(seed int64) (*trainSetup, error) {
	set := dataset.Digits(trainSamples+testSamples, 7, 5, digitNoise, seed)
	tr, te := set.Split(float64(trainSamples) / float64(set.Len()))
	s := &trainSetup{in: set.Inputs[0].Len(), labels: tr.Labels, testLb: te.Labels}
	for _, x := range tr.Inputs {
		s.xs = append(s.xs, x.Data()...)
	}
	for _, x := range te.Inputs {
		s.testXs = append(s.testXs, x.Data()...)
	}
	var err error
	s.g, err = trainGraph(s.in)
	return s, err
}

// trainGraph builds the MLP and programs its banks. Its initial weights and
// noise streams are fixed; the seed only generates the data.
func trainGraph(in int) (*core.Graph, error) {
	g, err := core.NewGraph(core.NetworkConfig{PE: core.PEConfig{Rows: 8, Cols: 8}, LearningRate: 0.1}, in)
	if err != nil {
		return nil, err
	}
	h := g.Dense(g.Input(), core.LayerSpec{In: in, Out: trainHidden, Activate: true}, 0)
	out := g.Dense(h, core.LayerSpec{In: trainHidden, Out: 10}, 1)
	if err := g.SetOutput(out); err != nil {
		return nil, err
	}
	return g, nil
}

// step runs TrainBatch on batch b of the training set and checks the loss.
func (s *trainSetup) step(b int) error {
	lo := b * trainBatch
	loss, err := s.g.TrainBatch(s.xs[lo*s.in:(lo+trainBatch)*s.in], s.labels[lo:lo+trainBatch])
	if err != nil {
		return err
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("loss is %v", loss)
	}
	return nil
}

func runTrain(opts options) (*report, error) {
	s, setupS, err := timeSetups(func() (*trainSetup, error) { return setupTrain(opts.seed) }, func(*trainSetup) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.e2e.put("setup_s", setupS)
	batches := len(s.labels) / trainBatch

	// Deterministic window: the first epochs from the fresh network, then
	// the held-out evaluation.
	before := readChip(s.g)
	compiled0 := rowsCompiled(s.g)
	for ep := 0; ep < trainEpochs; ep++ {
		for b := 0; b < batches; b++ {
			if err := s.step(b); err != nil {
				return nil, fmt.Errorf("train-insitu: %w", err)
			}
		}
	}
	trained := trainEpochs * batches * trainBatch
	putChip(rep, costBetween(before, readChip(s.g), trained))
	compiled, dirty := bankCounters(s.g)
	rep.layer.put("mrr.rows_compiled_per_sample", float64(compiled-compiled0)/float64(trained))
	rep.layer.put("mrr.dirty_rows", float64(dirty))
	t0 := time.Now()
	cls, err := s.g.PredictBatch(nil, s.testXs, len(s.testLb))
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	opts.tr.add("core.eval", t0, t1, -1, 0)
	rep.layer.put("core.eval_ms", float64(t1.Sub(t0))/1e6)
	correct := 0
	for i, c := range cls {
		if c == s.testLb[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(cls))
	if acc < accuracyFloor {
		rep.fail("train-insitu: held-out accuracy %.4f is below the floor %.2f", acc, accuracyFloor)
	}
	rep.layer.put("train.accuracy", acc)
	rep.notes["accuracy"] = acc

	// Measured window: training continues over the same batches.
	var stepMs []float64
	start := time.Now()
	end := start.Add(time.Duration(opts.seconds * float64(time.Second)))
	rate := newRateMeter(start)
	var last time.Time
	for b, id := 0, int64(1); ; b, id = (b+1)%batches, id+1 {
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		rep.attempted++
		err := s.step(b)
		last = time.Now()
		if err != nil {
			rep.failed++
			rep.fail("train-insitu: step %d: %v", id, err)
			stepMs = append(stepMs, float64(end.Sub(start))/1e6)
			continue
		}
		stepMs = append(stepMs, float64(last.Sub(t0))/1e6)
		rate.add(last, trainBatch)
		opts.tr.add("core.train_batch", t0, last, -1, id)
	}
	done := rep.attempted - rep.failed
	samples := float64(done * trainBatch)
	rep.latency = summarize(stepMs)
	rep.e2e.put("samples_per_s", rate.perSecond(end))
	rep.e2e.put("latency_p50_ms", rep.latency.P50Ms)
	rep.layer.put("core.train_batch_ms_p50", rep.latency.P50Ms)
	rep.layer.put("core.exec_ns_per_sample", float64(last.Sub(start).Nanoseconds())/samples)
	if opts.tr != nil {
		allocs, bytes, err := allocsPerCall(100, func() error { return s.step(0) })
		if err != nil {
			return nil, err
		}
		rep.layer.put("core.allocs_per_sample", allocs/trainBatch)
		rep.layer.put("core.bytes_per_sample", bytes/trainBatch)
	}
	return rep, nil
}
