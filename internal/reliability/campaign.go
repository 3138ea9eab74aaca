package reliability

import (
	"context"
	"fmt"

	"trident/internal/core"
	"trident/internal/dataset"
	"trident/internal/units"
)

// The lifetime campaign: a whole deployed life compressed into one run.
// A network trains in situ for tens of thousands of steps while every write
// draws against its cell's Weibull endurance budget; cells die mid-training
// as stuck faults, drift ages the banks between checks, and the remediation
// scheduler keeps the part serving. The campaign records a timeline and —
// only after the run, for scoring — compares the scheduler's suspect set
// against the simulator's fault ledger to measure detection coverage.

// The campaign's one calibration: a 6-class blob task, a 6→16→6 network on
// noise-free 8×8 PEs (the campaign's assertions are about degradation, not
// read noise), 6 warmup epochs to a healthy baseline, then 21 supervised
// epochs — about 10⁴ steps. The Weibull endurance budgets (seed 7, λ =
// 1600 writes, k = 6) are sized to the reprogram-free training path, whose
// only per-step GST writes are the post-update forward recompiles (~760
// mean / ~1,900 max writes per cell over the horizon at seed 42), so about
// an eighth of the cells die inside it. The wear seed stays pinned: the
// Weibull realization is part of the calibration, while the campaign seed
// varies the dataset and the noise seeds. Each step stands for 30 simulated
// seconds of drift, and wear-levelling rotates the row maps every fourth
// check.
const (
	campaignSamples      = 600
	campaignClasses      = 6
	campaignDim          = 6
	campaignSpread       = 0.25
	campaignHidden       = 16
	campaignPESize       = 8
	campaignLearningRate = 0.08
	campaignWarmupEpochs = 6
	campaignEpochs       = 21
)

var (
	campaignWear   = WearConfig{Seed: 7, MeanEndurance: 1600, Shape: 6}
	campaignPolicy = Policy{TimePerStep: 30 * units.Second, WearLevelEvery: 4}
)

// TimelineRow is one health-check snapshot of the campaign.
type TimelineRow struct {
	Step    int
	SimTime units.Duration
	// Faults is the simulator's stuck-cell count — oracle data recorded
	// for reporting only, never visible to the scheduler.
	Faults int
	// Suspects is the scheduler's cumulative distinct suspect count;
	// NewSuspects the cells first flagged at this check.
	Suspects, NewSuspects int
	Accuracy              float64
	Healed                bool
	MaskedRows            int
	Rotated               bool
}

// CampaignResult summarizes a lifetime campaign.
type CampaignResult struct {
	// Steps is the number of supervised training steps (warmup and healing
	// epochs excluded).
	Steps int
	// BaselineAccuracy is the post-warmup, pre-wear validation accuracy;
	// FinalAccuracy the validation accuracy after the last check.
	BaselineAccuracy, FinalAccuracy float64
	// WearFaults is the oracle count of cells that died of endurance
	// exhaustion; Detected of those, how many the self-test ever flagged.
	WearFaults, Detected int
	// DetectionRate is Detected/WearFaults (1 when no cell died).
	DetectionRate float64
	// Heals counts healing interventions; MaskedRows retired rows.
	Heals, MaskedRows int
	// MaxCellWrites and MeanCellWrites summarize lifetime write traffic
	// per cell — the control unit's own issue counters, the telemetry that
	// sizes endurance budgets.
	MaxCellWrites  uint64
	MeanCellWrites float64
	Timeline       []TimelineRow
	// Interrupted reports that the campaign was cancelled mid-run (SIGINT
	// on the CLI): the summary and detection scoring cover only the steps
	// that actually executed.
	Interrupted bool
}

// RunCampaign executes one lifetime campaign: warmup training to a healthy
// baseline, wear attachment, then supervised training with periodic
// scheduler checks and a final check, followed by oracle-side detection
// scoring. seed drives the dataset and the network's noise processes; one
// seed reproduces the whole campaign bit-exactly, including under the
// parallel tile engine.
func RunCampaign(seed int64) (*CampaignResult, error) {
	return RunCampaignCtx(context.Background(), seed)
}

// RunCampaignCtx is RunCampaign with cooperative cancellation: the context
// is checked between training samples and between checks, so an interrupted
// campaign stops at a sample boundary — never mid-write — runs its summary
// and detection scoring over the completed prefix, and returns a partial
// result with Interrupted set instead of an error.
func RunCampaignCtx(ctx context.Context, seed int64) (*CampaignResult, error) {
	data := dataset.Blobs(campaignSamples, campaignClasses, campaignDim, campaignSpread, seed)
	trainSet, testSet := data.Split(0.8)
	net, err := core.NewNetwork(core.NetworkConfig{
		PE: core.PEConfig{
			Rows: campaignPESize, Cols: campaignPESize,
			DisableNoise: true, NoiseSeed: seed + 11,
		},
		LearningRate: campaignLearningRate,
	},
		core.LayerSpec{In: campaignDim, Out: campaignHidden, Activate: true},
		core.LayerSpec{In: campaignHidden, Out: campaignClasses},
	)
	if err != nil {
		return nil, err
	}
	trainEpoch := func() error {
		_, err := net.TrainEpoch(trainSet.Inputs, trainSet.Labels, 1)
		return err
	}
	evalAcc := func() (float64, error) { return net.Accuracy(testSet.Inputs, testSet.Labels) }
	for e := 0; e < campaignWarmupEpochs; e++ {
		if ctx.Err() != nil {
			break // partial warmup; supervise loop exits immediately below
		}
		if err := trainEpoch(); err != nil {
			return nil, fmt.Errorf("reliability: warmup epoch %d: %w", e, err)
		}
	}
	baseline, err := evalAcc()
	if err != nil {
		return nil, err
	}
	if _, err := AttachWear(net.Graph, campaignWear); err != nil {
		return nil, err
	}
	heal := func(epochs int) error {
		for k := 0; k < epochs; k++ {
			if err := trainEpoch(); err != nil {
				return err
			}
		}
		return nil
	}
	sched, err := NewScheduler(net.Graph, campaignPolicy, baseline, evalAcc, heal)
	if err != nil {
		return nil, err
	}
	result := &CampaignResult{BaselineAccuracy: baseline, FinalAccuracy: baseline}
	steps := 0
	check := func() error {
		res, err := sched.Check(steps)
		if err != nil {
			return err
		}
		result.Timeline = append(result.Timeline, TimelineRow{
			Step: res.Step, SimTime: res.SimTime,
			Faults:   net.FaultCount(), // oracle, reporting only
			Suspects: res.Suspects, NewSuspects: res.NewSuspects,
			Accuracy: res.Accuracy, Healed: res.Healed,
			MaskedRows: res.MaskedRows, Rotated: res.Rotated,
		})
		result.FinalAccuracy = res.Accuracy
		return nil
	}
supervise:
	for e := 0; e < campaignEpochs; e++ {
		for i := range trainSet.Inputs {
			if ctx.Err() != nil {
				result.Interrupted = true
				break supervise
			}
			if _, err := net.TrainSample(trainSet.Inputs[i].Data(), trainSet.Labels[i]); err != nil {
				return nil, fmt.Errorf("reliability: campaign step %d: %w", steps, err)
			}
			steps++
			if steps%CheckEvery == 0 {
				if err := check(); err != nil {
					return nil, err
				}
			}
		}
	}
	if steps%CheckEvery != 0 && !result.Interrupted {
		if err := check(); err != nil {
			return nil, err
		}
	}
	result.Steps = steps
	result.Heals = sched.Heals()
	result.MaskedRows = net.MaskedRowCount()
	var writeSum, cells uint64
	net.ForEachPE(func(_, _, _ int, pe *core.PE) {
		bank := pe.Bank()
		for r := 0; r < bank.Rows(); r++ {
			for c := 0; c < bank.Cols(); c++ {
				w := bank.PhysicalTuner(r, c).Writes()
				writeSum += w
				cells++
				if w > result.MaxCellWrites {
					result.MaxCellWrites = w
				}
			}
		}
	})
	if cells > 0 {
		result.MeanCellWrites = float64(writeSum) / float64(cells)
	}
	// Oracle-side scoring, after the fact: which endurance deaths did the
	// self-test flag? The scheduler never saw this ledger.
	for _, ev := range net.FaultEvents() {
		if ev.Cause != core.CauseWear {
			continue
		}
		result.WearFaults++
		if sched.Suspected(ev.Layer, ev.TileRow, ev.TileCol, ev.Row, ev.Col) {
			result.Detected++
		}
	}
	result.DetectionRate = 1
	if result.WearFaults > 0 {
		result.DetectionRate = float64(result.Detected) / float64(result.WearFaults)
	}
	return result, nil
}
