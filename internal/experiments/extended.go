package experiments

// Extended experiments beyond the paper's printed artifacts: quantitative
// versions of the claims its argument rests on (Section II's resolution
// limit, Section III's endurance and retention, Section VI's DFA
// comparison), plus an analog-noise ablation on the functional model.

import (
	"fmt"

	"trident/internal/accel"
	"trident/internal/analog"

	"trident/internal/core"
	"trident/internal/dataflow"
	"trident/internal/dataset"
	"trident/internal/device"
	"trident/internal/models"
	"trident/internal/mrr"
	"trident/internal/nn"
	"trident/internal/optics"
	"trident/internal/pcm"
	"trident/internal/report"
	"trident/internal/tensor"
	"trident/internal/units"
)

// DFAResult compares backpropagation against direct feedback alignment on
// the same convolutional architecture — the paper's Section VI argument
// for why it uses true BP (enabled by the LDSU + Wᵀ re-encoding) rather
// than the DFA of Filipovich et al.
type DFAResult struct {
	BPAccuracy  float64
	DFAAccuracy float64
	Gap         float64
}

// DFAComparison trains a two-conv-layer classifier on procedural images
// with both rules and returns held-out accuracies.
func DFAComparison(seed int64) (*DFAResult, error) {
	spec1 := tensor.Conv2DSpec{InC: 1, InH: 12, InW: 12, OutC: 6, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	spec2 := tensor.Conv2DSpec{InC: 6, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3,
		StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1}
	const classes = 6
	const epochs = 8
	const lr = 0.02
	data := dataset.MiniImages(240, classes, 1, 12, 12, 0.5, seed)
	trainSet, testSet := data.Split(0.75)
	flatDim := spec2.OutC * spec2.OutH() * spec2.OutW()

	bp := nn.NewNetwork(
		nn.NewConv2D("c1", spec1, seed), nn.NewReLU("r1"),
		nn.NewConv2D("c2", spec2, seed+1), nn.NewReLU("r2"),
		nn.NewFlatten("fl"),
		nn.NewDense("fc", flatDim, classes, seed+2),
	)
	for e := 0; e < epochs; e++ {
		for i := range trainSet.Inputs {
			nn.TrainStep(bp, nn.SGD{LearningRate: lr}, trainSet.Inputs[i], trainSet.Labels[i])
		}
	}
	bpAcc := nn.Accuracy(bp.Forward, testSet.Inputs, testSet.Labels)

	dfa, err := nn.NewDFATrainer([]nn.DFABlock{
		{Param: nn.NewConv2D("c1", spec1, seed), Act: nn.NewReLU("r1")},
		{Param: nn.NewConv2D("c2", spec2, seed+1), Act: nn.NewReLU("r2")},
		{Param: nn.NewDense("fc", flatDim, classes, seed+2)},
	}, classes, seed+5)
	if err != nil {
		return nil, err
	}
	for e := 0; e < epochs; e++ {
		for i := range trainSet.Inputs {
			dfa.TrainStep(lr, trainSet.Inputs[i], trainSet.Labels[i])
		}
	}
	dfaAcc := nn.Accuracy(dfa.Forward, testSet.Inputs, testSet.Labels)
	return &DFAResult{BPAccuracy: bpAcc, DFAAccuracy: dfaAcc, Gap: bpAcc - dfaAcc}, nil
}

// ResolutionVsPitch tabulates the thermal crosstalk resolution analysis:
// the usable bits of a thermally tuned bank against ring pitch, with GST's
// pitch-independent 8 bits as the reference — the quantitative Section II-B.
func ResolutionVsPitch() (*report.Table, error) {
	t := report.NewTable("Extended: usable weight resolution vs. ring pitch",
		"Pitch", "Thermal bits", "GST bits", "Thermal trains?", "GST trains?")
	for _, pitch := range []units.Length{
		10 * units.Micrometer, 20 * units.Micrometer, 40 * units.Micrometer,
		80 * units.Micrometer, 160 * units.Micrometer,
	} {
		rep, err := mrr.ResolutionAt(pitch)
		if err != nil {
			return nil, err
		}
		t.AddRow(pitch.String(),
			fmt.Sprintf("%d", rep.ThermalBits), fmt.Sprintf("%d", rep.GSTBits),
			yesNo(rep.ThermalTrainingCapable), yesNo(rep.GSTTrainingCapable))
	}
	return t, nil
}

// EnduranceAnalysis projects cell lifetime under sustained in-situ training
// at the Table V throughput of each workload.
func EnduranceAnalysis() (*report.Table, error) {
	rows, err := TableVData()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extended: GST endurance under continuous training",
		"Model", "samples/s", "bank writes/s", "lifetime (years)")
	for _, r := range rows {
		samplesPerSec := 50000.0 / r.Trident.Seconds()
		writesPerSec := samplesPerSec * 3 / 8 // 3 layouts per mini-batch of 8
		est, err := pcm.EstimateLifetime(writesPerSec)
		if err != nil {
			return nil, err
		}
		years := est.Lifetime.Seconds() / (365.25 * 24 * 3600)
		t.AddRow(r.Model, samplesPerSec, writesPerSec, years)
	}
	return t, nil
}

// DriftAnalysis tabulates the weight error drift introduces over deployment
// timescales for a mid-range and a fully amorphous cell.
func DriftAnalysis() (*report.Table, error) {
	t := report.NewTable("Extended: GST state drift (8-bit levels of weight error)",
		"Hold time", "mid-level cell", "fully amorphous cell", "retention OK")
	mid, err := pcm.NewCell(pcm.CellConfig{})
	if err != nil {
		return nil, err
	}
	if _, err := mid.Program(127, 0); err != nil {
		return nil, err
	}
	top, err := pcm.NewCell(pcm.CellConfig{})
	if err != nil {
		return nil, err
	}
	if _, err := top.Program(254, 0); err != nil {
		return nil, err
	}
	day := 24 * 3600 * units.Second
	for _, hold := range []struct {
		name string
		d    units.Duration
	}{
		{"1 hour", 3600 * units.Second},
		{"1 day", day},
		{"1 month", 30 * day},
		{"1 year", 365 * day},
		{"10 years", device.GSTRetention},
	} {
		ok := mid.RetentionOK(hold.d) && top.RetentionOK(hold.d)
		t.AddRow(hold.name, mid.DriftLevelError(hold.d), top.DriftLevelError(hold.d), yesNo(ok))
	}
	return t, nil
}

// NoiseSweepRow is one laser-power operating point of the analog ablation.
type NoiseSweepRow struct {
	LaserPower units.Power
	SNRBits    float64
	Accuracy   float64
}

// NoiseSweep trains the functional in-situ network at several laser line
// powers: lower optical power means fewer effective analog bits at the
// photodetector, and below ~8 bits training degrades — tying the
// architecture's bit-resolution argument to the physical noise floor.
func NoiseSweep(seed int64) ([]NoiseSweepRow, error) {
	data := dataset.Blobs(150, 3, 6, 0.1, seed)
	trainSet, testSet := data.Split(0.8)
	var out []NoiseSweepRow
	for _, pw := range []units.Power{
		1 * units.Milliwatt,
		10 * units.Microwatt,
		200 * units.Nanowatt,
		40 * units.Nanowatt,
	} {
		net, err := core.NewNetwork(core.NetworkConfig{
			PE:           core.PEConfig{Rows: 8, Cols: 8, LaserPower: pw, NoiseSeed: seed},
			LearningRate: 0.08,
		},
			core.LayerSpec{In: 6, Out: 16, Activate: true},
			core.LayerSpec{In: 16, Out: 3},
		)
		if err != nil {
			return nil, err
		}
		for e := 0; e < 8; e++ {
			if _, err := net.TrainEpoch(trainSet.Inputs, trainSet.Labels, 1); err != nil {
				return nil, err
			}
		}
		acc, err := net.Accuracy(testSet.Inputs, testSet.Labels)
		if err != nil {
			return nil, err
		}
		out = append(out, NoiseSweepRow{LaserPower: pw, SNRBits: analog.SNRBits(pw), Accuracy: acc})
	}
	return out, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// FaultRecoveryRow is one operating point of the stuck-cell study.
type FaultRecoveryRow struct {
	FaultRate float64
	Kind      core.FaultKind
	Clean     float64 // accuracy before faults
	Hurt      float64 // accuracy right after injection
	Healed    float64 // accuracy after continued in-situ training
}

// FaultRecovery quantifies the operational benefit of unified
// train/inference hardware: after a fraction of GST cells die stuck, the
// paper's in-situ training loop — running on the *same faulty hardware* —
// recovers most of the lost accuracy, because gradients flow through the
// dead cells and the surviving weights compensate. The offline-trained
// flow has no such recovery path.
func FaultRecovery(seed int64) ([]FaultRecoveryRow, error) {
	var out []FaultRecoveryRow
	for _, rate := range []float64{0.05, 0.10, 0.20} {
		data := dataset.Blobs(900, 12, 6, 0.3, seed)
		trainSet, testSet := data.Split(0.8)
		net, err := core.NewNetwork(core.NetworkConfig{
			PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
			LearningRate: 0.08,
		},
			core.LayerSpec{In: 6, Out: 24, Activate: true},
			core.LayerSpec{In: 24, Out: 12},
		)
		if err != nil {
			return nil, err
		}
		eval := func() (float64, error) { return net.Accuracy(testSet.Inputs, testSet.Labels) }
		epoch := func() error {
			_, err := net.TrainEpoch(trainSet.Inputs, trainSet.Labels, 1)
			return err
		}
		for e := 0; e < 10; e++ {
			if err := epoch(); err != nil {
				return nil, err
			}
		}
		clean, err := eval()
		if err != nil {
			return nil, err
		}
		if _, err := net.InjectRandomFaults(rate, core.StuckCrystalline, seed+7); err != nil {
			return nil, err
		}
		hurt, err := eval()
		if err != nil {
			return nil, err
		}
		for e := 0; e < 10; e++ {
			if err := epoch(); err != nil {
				return nil, err
			}
		}
		healed, err := eval()
		if err != nil {
			return nil, err
		}
		out = append(out, FaultRecoveryRow{
			FaultRate: rate, Kind: core.StuckCrystalline,
			Clean: clean, Hurt: hurt, Healed: healed,
		})
	}
	return out, nil
}

// PropagationShare quantifies the paper's "forwarded between layers
// without any delay" claim: the optical time-of-flight between PEs is
// nanoseconds against the microsecond-scale clocked streaming, so
// propagation never appears in the latency budget.
type PropagationShare struct {
	Model           string
	StreamTime      units.Duration
	TuneTime        units.Duration
	PropagationTime units.Duration
	PropagationFrac float64
}

// PropagationShares evaluates the split for every workload at batch 1.
func PropagationShares() ([]PropagationShare, error) {
	cfg := accel.Trident()
	g := cfg.Geometry()
	// 1 cm of waveguide between consecutive PEs (a generous chip-scale
	// span) at the silicon group index.
	hop := optics.NewWaveguide(1 * units.Centimeter).PropagationDelay()
	var out []PropagationShare
	for _, m := range models.All() {
		mp, err := dataflow.Map(m, g)
		if err != nil {
			return nil, err
		}
		period := device.ClockRate.Period().Seconds()
		stream := float64(mp.TotalStreamCycles()) * accel.VectorCyclesPerSymbol * period
		tune := float64(mp.TotalWaves()) * cfg.TuneTime.Seconds()
		prop := float64(len(mp.Layers)) * hop.Seconds()
		total := stream + tune + prop
		out = append(out, PropagationShare{
			Model:           m.Name,
			StreamTime:      units.Duration(stream),
			TuneTime:        units.Duration(tune),
			PropagationTime: units.Duration(prop),
			PropagationFrac: prop / total,
		})
	}
	return out, nil
}
