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

// CampaignConfig parameterizes a lifetime campaign. Zero values select the
// documented defaults.
type CampaignConfig struct {
	// Seed drives the dataset, the network's noise processes and the wear
	// budgets; one seed reproduces the whole campaign bit-exactly.
	Seed int64
	// Dataset shape: Samples points, Classes clusters, Dim features,
	// Spread cluster noise (defaults 600 / 6 / 6 / 0.25).
	Samples, Classes, Dim int
	Spread                float64
	// Hidden is the hidden-layer width (default 16).
	Hidden int
	// PERows/PECols set the tile bank geometry (default 8×8).
	PERows, PECols int
	// LearningRate for the in-situ update rule (default 0.08).
	LearningRate float64
	// Noisy enables BPD read noise (off by default: the campaign's
	// assertions are about degradation, not read noise).
	Noisy bool
	// WarmupEpochs trains before wear attaches, establishing the pre-fault
	// baseline (default 6). Epochs is the degradation phase the scheduler
	// supervises (default 21 — with the default dataset that is ~10⁴
	// steps).
	WarmupEpochs, Epochs int
	// Wear is the endurance model attached after warmup.
	Wear WearConfig
	// Policy drives the remediation scheduler.
	Policy Policy
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Samples <= 0 {
		c.Samples = 600
	}
	if c.Classes <= 0 {
		c.Classes = 6
	}
	if c.Dim <= 0 {
		c.Dim = 6
	}
	if c.Spread <= 0 {
		c.Spread = 0.25
	}
	if c.Hidden <= 0 {
		c.Hidden = 16
	}
	if c.PERows <= 0 {
		c.PERows = 8
	}
	if c.PECols <= 0 {
		c.PECols = 8
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.08
	}
	if c.WarmupEpochs <= 0 {
		c.WarmupEpochs = 6
	}
	if c.Epochs <= 0 {
		c.Epochs = 21
	}
	return c
}

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
// scoring. Deterministic for a fixed config, including under the parallel
// tile engine.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return RunCampaignCtx(context.Background(), cfg)
}

// RunCampaignCtx is RunCampaign with cooperative cancellation: the context
// is checked between training samples and between checks, so an interrupted
// campaign stops at a sample boundary — never mid-write — runs its summary
// and detection scoring over the completed prefix, and returns a partial
// result with Interrupted set instead of an error.
func RunCampaignCtx(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	cfg = cfg.withDefaults()
	data := dataset.Blobs(cfg.Samples, cfg.Classes, cfg.Dim, cfg.Spread, cfg.Seed)
	trainSet, testSet := data.Split(0.8)
	if trainSet.Len() == 0 || testSet.Len() == 0 {
		return nil, fmt.Errorf("reliability: campaign dataset too small (%d samples)", cfg.Samples)
	}
	net, err := core.NewNetwork(core.NetworkConfig{
		PE: core.PEConfig{
			Rows: cfg.PERows, Cols: cfg.PECols,
			DisableNoise: !cfg.Noisy, NoiseSeed: cfg.Seed + 11,
		},
		LearningRate: cfg.LearningRate,
	},
		core.LayerSpec{In: cfg.Dim, Out: cfg.Hidden, Activate: true},
		core.LayerSpec{In: cfg.Hidden, Out: cfg.Classes},
	)
	if err != nil {
		return nil, err
	}
	trainEpoch := func() error {
		_, err := net.TrainEpoch(trainSet.Inputs, trainSet.Labels, 1)
		return err
	}
	evalAcc := func() (float64, error) { return net.Accuracy(testSet.Inputs, testSet.Labels) }
	for e := 0; e < cfg.WarmupEpochs; e++ {
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
	if _, err := AttachWear(net.Graph, cfg.Wear); err != nil {
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
	sched, err := NewScheduler(net.Graph, cfg.Policy, baseline, evalAcc, heal)
	if err != nil {
		return nil, err
	}
	result := &CampaignResult{BaselineAccuracy: baseline, FinalAccuracy: baseline}
	checkEvery := sched.policy.CheckEvery
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
	for e := 0; e < cfg.Epochs; e++ {
		for i := range trainSet.Inputs {
			if ctx.Err() != nil {
				result.Interrupted = true
				break supervise
			}
			if _, err := net.TrainSample(trainSet.Inputs[i].Data(), trainSet.Labels[i]); err != nil {
				return nil, fmt.Errorf("reliability: campaign step %d: %w", steps, err)
			}
			steps++
			if steps%checkEvery == 0 {
				if err := check(); err != nil {
					return nil, err
				}
			}
		}
	}
	if steps%checkEvery != 0 && !result.Interrupted {
		if err := check(); err != nil {
			return nil, err
		}
	}
	result.Steps = steps
	result.Heals = sched.Heals()
	result.MaskedRows = sched.maskedRows()
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
