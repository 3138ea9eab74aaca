// Package train implements the training-side evaluation of the paper:
//
//   - the Table V estimate of wall-clock time to train 50,000 images on the
//     two training-capable accelerators (Trident and the NVIDIA AGX
//     Xavier), derived — as the paper does — from inference throughput
//     plus the training-specific overheads of each architecture;
//   - helpers that run real in-situ training on the functional Trident
//     model (internal/core) against a digital reference, including the
//     trained-offline-then-mapped mismatch experiment that motivates
//     unified training/inference hardware in Section I.
package train

import (
	"fmt"
	"math"
	"math/rand"

	"trident/internal/accel"
	"trident/internal/core"
	"trident/internal/dataflow"
	"trident/internal/dataset"
	"trident/internal/device"
	"trident/internal/fixed"
	"trident/internal/models"
	"trident/internal/nn"
	"trident/internal/units"
)

// TrainingImages is the corpus size of Table V.
const TrainingImages = 50000

// MiniBatch is the weight-update granularity assumed for the Table V
// estimate: gradients accumulate over MiniBatch samples before the banks
// (or DRAM-resident weights) are rewritten.
const MiniBatch = 8

// PassesPerSample is the number of array sweeps one backpropagation step
// needs: the forward pass, the gradient-vector pass (Wᵀδ) and the
// outer-product pass (δh·yᵀ) — the three columns of Table II.
const PassesPerSample = 3

// TridentStepTime returns the per-sample training time on Trident: three
// streaming sweeps of the model plus the three bank reprogramming sweeps
// (forward, transpose and broadcast layouts) amortized over the mini-batch.
func TridentStepTime(m *models.Model) (units.Duration, error) {
	cfg := accel.Trident()
	mp, err := dataflow.Map(m, cfg.Geometry())
	if err != nil {
		return 0, err
	}
	period := device.ClockRate.Period().Seconds()
	stream := float64(mp.TotalStreamCycles()) * accel.VectorCyclesPerSymbol * period
	tune := float64(mp.TotalWaves()) * cfg.TuneTime.Seconds()
	step := PassesPerSample*stream + PassesPerSample*tune/MiniBatch
	return units.Duration(step), nil
}

// XavierStepTime returns the per-sample training time on the AGX Xavier:
// three compute sweeps plus the optimizer's weight traffic (read weights,
// write gradients, write updated weights) amortized over the mini-batch.
func XavierStepTime(m *models.Model) (units.Duration, error) {
	cfg := accel.AGXXavier()
	r, err := accel.EvaluateElectronic(cfg, m)
	if err != nil {
		return 0, err
	}
	optimizerBytes := 4 * float64(m.TotalWeights()) // fp8/int8 weights + fp16 state
	optim := optimizerBytes / cfg.MemoryBandwidth / MiniBatch
	step := PassesPerSample*r.Latency.Seconds() + optim
	return units.Duration(step), nil
}

// TableVRow is one row of the training-time comparison.
type TableVRow struct {
	Model         string
	Xavier        units.Duration
	Trident       units.Duration
	PercentChange float64 // (Trident − Xavier)/Xavier × 100, negative = Trident faster
}

// TableV computes the time to train TrainingImages images for the Table V
// model set.
func TableV() ([]TableVRow, error) {
	set := []*models.Model{
		models.MobileNetV2(), models.GoogleNet(), models.ResNet50(), models.VGG16(),
	}
	var rows []TableVRow
	for _, m := range set {
		ts, err := TridentStepTime(m)
		if err != nil {
			return nil, err
		}
		xs, err := XavierStepTime(m)
		if err != nil {
			return nil, err
		}
		tTotal := units.Duration(ts.Seconds() * TrainingImages)
		xTotal := units.Duration(xs.Seconds() * TrainingImages)
		rows = append(rows, TableVRow{
			Model:         m.Name,
			Xavier:        xTotal,
			Trident:       tTotal,
			PercentChange: (tTotal.Seconds() - xTotal.Seconds()) / xTotal.Seconds() * 100,
		})
	}
	return rows, nil
}

// InSituResult summarizes a functional in-situ training run.
type InSituResult struct {
	TrainAccuracy float64
	TestAccuracy  float64
	FinalLoss     float64
	Energy        units.Energy
	TuningShare   float64 // fraction of energy spent programming GST
}

// RunInSitu trains a two-layer GST-activated network on the hardware model
// and evaluates it. The network is sized dim → hidden → classes. Each
// epoch walks the training set in batches of the given size through
// Graph.TrainEpoch: one batched forward, reprogram-free transpose GEMMs on
// the backward walk, and one mean-gradient update per layer per batch, so
// the banks reprogram once per batch instead of once per sample. batch ≤ 1
// is the per-sample schedule (a batch of one IS a TrainSample step).
func RunInSitu(data *dataset.Set, hidden, epochs int, lr float64, batch int, noisy bool) (*InSituResult, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("train: empty dataset")
	}
	dim := data.Inputs[0].Len()
	net, err := core.NewNetwork(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: !noisy, NoiseSeed: 11},
		LearningRate: lr,
	},
		core.LayerSpec{In: dim, Out: hidden, Activate: true},
		core.LayerSpec{In: hidden, Out: data.Classes},
	)
	if err != nil {
		return nil, err
	}
	return fitAndScore(net.Graph, data, epochs, max(batch, 1))
}

// RunBranched trains the branched hardware miniature — residual add plus
// channel concat on the shared execution graph — in-situ on image data, one
// sample at a time, and evaluates it. Inputs must be C×H×W tensors with
// square spatial extent.
func RunBranched(data *dataset.Set, epochs int, lr float64, noisy bool) (*InSituResult, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("train: empty dataset")
	}
	img := data.Inputs[0]
	if img.Rank() != 3 || img.Dim(1) != img.Dim(2) {
		return nil, fmt.Errorf("train: branched model needs square C×H×W inputs, got shape %v", img.Shape())
	}
	g, err := models.HardwareMiniBranched(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: !noisy, NoiseSeed: 11},
		LearningRate: lr,
	}, img.Dim(0), img.Dim(1), data.Classes)
	if err != nil {
		return nil, err
	}
	return fitAndScore(g, data, epochs, 1)
}

// fitAndScore is the shared tail of the in-situ runs: split the data 80/20,
// train epochs passes over the training split in batches of the given
// size, then score both splits and summarize the ledger.
func fitAndScore(g *core.Graph, data *dataset.Set, epochs, batch int) (*InSituResult, error) {
	trainSet, testSet := data.Split(0.8)
	var loss float64
	for e := 0; e < epochs; e++ {
		var err error
		if loss, err = g.TrainEpoch(trainSet.Inputs, trainSet.Labels, batch); err != nil {
			return nil, err
		}
	}
	trainAcc, err := g.Accuracy(trainSet.Inputs, trainSet.Labels)
	if err != nil {
		return nil, err
	}
	testAcc, err := g.Accuracy(testSet.Inputs, testSet.Labels)
	if err != nil {
		return nil, err
	}
	led := g.Ledger()
	return &InSituResult{
		TrainAccuracy: trainAcc,
		TestAccuracy:  testAcc,
		FinalLoss:     loss,
		Energy:        led.TotalEnergy(),
		TuningShare:   led.Energy(core.CatGSTTuning).Joules() / led.TotalEnergy().Joules(),
	}, nil
}

// MismatchResult compares offline-trained-then-mapped accuracy against the
// full-precision reference — the Section I motivation: "the resulting
// mismatch between trained and implemented weights leads to sub-optimal
// accuracy at inference time".
type MismatchResult struct {
	FloatAccuracy float64 // digital fp reference
	EightBit      float64 // mapped onto 8-bit GST weights
	SixBit        float64 // mapped onto 6-bit thermal weights
}

// RunMismatch trains a small network digitally, then quantizes its weights
// at the two hardware resolutions and re-evaluates.
func RunMismatch(data *dataset.Set, hidden, epochs int, lr float64, seed int64) (*MismatchResult, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("train: empty dataset")
	}
	trainSet, testSet := data.Split(0.8)
	net := trainMLP(trainSet, data.Inputs[0].Len(), hidden, epochs, lr, seed)
	// Mapping digital weights onto hardware loses accuracy through two
	// mechanisms the paper names: finite resolution (quantization to the
	// tuner's grid) and manufacturing/programming variation the offline
	// model cannot see. The optical bank realizes weights on [-1,1], so
	// each tensor is scaled by its max-abs first (the control unit's
	// best-effort normalization) and larger digital weights saturate —
	// exactly the mapping loss the paper describes. The variation scale
	// tracks what limits each mechanism's resolution in the first place:
	// thermal banks sit at 6 bits *because* crosstalk-induced variation is
	// about one step there (σ = 1 LSB), while optically programmed GST
	// lands within half a level (σ = 0.5 LSB, citing the 255-level
	// demonstrations).
	evalQuantized := func(bits int, variationSeed int64) float64 {
		q := fixed.MustForBits(bits)
		sigma := 0.5 * q.Step()
		if bits <= device.ThermalBits {
			sigma = 1.0 * q.Step()
		}
		rng := rand.New(rand.NewSource(variationSeed))
		variation := func() float64 { return rng.NormFloat64() * sigma }
		return nn.QuantizedAccuracy(net, q, variation, testSet.Inputs, testSet.Labels)
	}
	floatAcc := nn.Accuracy(net.Forward, testSet.Inputs, testSet.Labels)
	// Average the mapped accuracies over several device-variation draws so
	// the comparison is not hostage to one lucky perturbation.
	const draws = 5
	var acc8, acc6 float64
	for d := int64(0); d < draws; d++ {
		acc8 += evalQuantized(device.GSTBits, seed+100+d)
		acc6 += evalQuantized(device.ThermalBits, seed+200+d)
	}
	return &MismatchResult{
		FloatAccuracy: floatAcc,
		EightBit:      acc8 / draws,
		SixBit:        acc6 / draws,
	}, nil
}

// trainMLP builds the digital reference of the in-situ MLP — dim → hidden
// with the GST activation (saturating at 1) → classes, its two dense
// layers seeded seed and seed+1 — and SGD-trains it for epochs in-order
// passes over trainSet.
func trainMLP(trainSet *dataset.Set, dim, hidden, epochs int, lr float64, seed int64) *nn.Graph {
	act := nn.NewGSTActivation("gst", 0)
	act.MaxOut = 1.0
	net := nn.NewNetwork(
		nn.NewDense("fc1", dim, hidden, seed),
		act,
		nn.NewDense("fc2", hidden, trainSet.Classes, seed+1),
	)
	opt := nn.SGD{LearningRate: lr}
	for e := 0; e < epochs; e++ {
		for i := range trainSet.Inputs {
			nn.TrainStep(net, opt, trainSet.Inputs[i], trainSet.Labels[i])
		}
	}
	return net
}

// DigitalBaselineAccuracy trains the same architecture purely digitally and
// returns test accuracy — the yardstick for in-situ runs.
func DigitalBaselineAccuracy(data *dataset.Set, hidden, epochs int, lr float64, seed int64) (float64, error) {
	if data.Len() == 0 {
		return 0, fmt.Errorf("train: empty dataset")
	}
	trainSet, testSet := data.Split(0.8)
	net := trainMLP(trainSet, data.Inputs[0].Len(), hidden, epochs, lr, seed)
	return nn.Accuracy(net.Forward, testSet.Inputs, testSet.Labels), nil
}

// QuantizationErrorAtBits returns the RMS weight error of quantizing a
// standard-normal weight population at the given resolution, normalized to
// the 8-bit error — the quantitative version of "8-bit resolution ...
// enough for NN training" vs. thermal's 6 bits.
func QuantizationErrorAtBits(bits int) float64 {
	q := fixed.MustForBits(bits)
	const n = 4096
	var mse float64
	for i := 0; i < n; i++ {
		v := -1 + 2*float64(i)/(n-1)
		e := q.Error(v)
		mse += e * e
	}
	return math.Sqrt(mse / n)
}

// QATResult compares deployment accuracy of three training flows at a
// target bit width: plain float training then post-training quantization,
// quantization-aware training, and the float reference.
type QATResult struct {
	FloatAccuracy float64
	PostTraining  float64 // float-trained, quantized at deploy time
	QAT           float64 // trained against the quantized grid
}

// RunQAT measures how much of the low-bit mapping loss quantization-aware
// training recovers. Both flows share the architecture, data order and
// learning rate; only the training rule differs.
func RunQAT(data *dataset.Set, hidden, epochs int, lr float64, bits int, seed int64) (*QATResult, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("train: empty dataset")
	}
	trainSet, testSet := data.Split(0.8)
	q, err := fixed.ForBits(bits)
	if err != nil {
		return nil, err
	}

	// Flow 1: plain float training.
	net := trainMLP(trainSet, data.Inputs[0].Len(), hidden, epochs, lr, seed)
	floatAcc := nn.Accuracy(net.Forward, testSet.Inputs, testSet.Labels)
	ptq := nn.QuantizedAccuracy(net, q, nil, testSet.Inputs, testSet.Labels)

	// Flow 2: quantization-aware fine-tuning from the float model — the
	// standard deployment recipe. Once both float scores are taken, the
	// trained network continues training against the quantized grid at a
	// reduced rate.
	qat, err := nn.NewQATTrainer(net, nn.SGD{LearningRate: lr / 4}, bits)
	if err != nil {
		return nil, err
	}
	fineTune := epochs/2 + 1
	for e := 0; e < fineTune; e++ {
		for i := range trainSet.Inputs {
			qat.TrainStep(trainSet.Inputs[i], trainSet.Labels[i])
		}
	}
	qatAcc := nn.QuantizedAccuracy(net, q, nil, testSet.Inputs, testSet.Labels)
	return &QATResult{FloatAccuracy: floatAcc, PostTraining: ptq, QAT: qatAcc}, nil
}
