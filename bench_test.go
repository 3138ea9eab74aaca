package trident

// The benchmark harness: one Benchmark per paper table and figure (each
// regenerates the artifact end to end), plus micro-benchmarks on the
// simulator's hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// and compare the printed artifacts against EXPERIMENTS.md. For a host
// without the source tree, `go test -c` builds the same harness into a
// standalone trident.test binary (run it with -test.run='^$' -test.bench=.).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trident/internal/accel"
	"trident/internal/core"
	"trident/internal/dataflow"
	"trident/internal/dataset"
	"trident/internal/device"
	"trident/internal/eventsim"
	"trident/internal/experiments"
	"trident/internal/models"
	"trident/internal/mrr"
	"trident/internal/optics"
	"trident/internal/pcm"
	"trident/internal/serve"
	"trident/internal/tensor"
	"trident/internal/train"
)

// BenchmarkTableI_TuningMethods regenerates Table I (device constants) and
// times one programming event of each tuner mechanism.
func BenchmarkTableI_TuningMethods(b *testing.B) {
	b.ReportAllocs()
	thermal := mrr.NewThermalTuner()
	gst, err := mrr.NewPCMTuner()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := rng.Float64()*2 - 1
		if _, _, err := thermal.Set(w, 0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := gst.Set(w, 0); err != nil {
			b.Fatal(err)
		}
		_ = experiments.TableI()
	}
}

// BenchmarkTableIII_PowerBreakdown regenerates the PE power table.
func BenchmarkTableIII_PowerBreakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := experiments.TableIII()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIV_TOPS regenerates the accelerator comparison, including
// the first-principles Trident TOPS computation.
func BenchmarkTableIV_TOPS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.TableIVData()
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTableV_TrainingTime regenerates the 50,000-image training-time
// estimates (four full dataflow mappings per iteration).
func BenchmarkTableV_TrainingTime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableVData()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFigure3_ActivationCurve samples the GST activation transfer
// function.
func BenchmarkFigure3_ActivationCurve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure3(256)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Series[0].X) != 256 {
			b.Fatal("bad curve")
		}
	}
}

// BenchmarkFigure4_PhotonicEnergy regenerates the 5-model × 4-accelerator
// energy comparison.
func BenchmarkFigure4_PhotonicEnergy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4Data()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 20 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFigure5_Area regenerates the chip-area breakdown.
func BenchmarkFigure5_Area(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := experiments.Figure5()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure6_InferencesPerSecond regenerates the 5-model ×
// 7-accelerator throughput comparison.
func BenchmarkFigure6_InferencesPerSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6Data()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 35 {
			b.Fatal("bad row count")
		}
	}
}

// --- micro-benchmarks on simulator hot paths ---

// BenchmarkOpticalMVM times one 16×16 optical matrix-vector pass through a
// programmed PCM weight bank (with crosstalk, without noise).
func BenchmarkOpticalMVM(b *testing.B) {
	b.ReportAllocs()
	pe, err := core.NewPE(core.PEConfig{DisableNoise: true})
	if err != nil {
		b.Fatal(err)
	}
	w := make([][]float64, 16)
	rng := rand.New(rand.NewSource(2))
	for j := range w {
		w[j] = make([]float64, 16)
		for i := range w[j] {
			w[j][i] = rng.Float64()*2 - 1
		}
	}
	if err := pe.Program(w); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64()
	}
	out := make([]float64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pe.MVMPassInto(out, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPEProgram times reprogramming a full 256-cell weight bank.
func BenchmarkPEProgram(b *testing.B) {
	b.ReportAllocs()
	pe, err := core.NewPE(core.PEConfig{DisableNoise: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	w := make([][]float64, 16)
	for j := range w {
		w[j] = make([]float64, 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range w {
			for k := range w[j] {
				w[j][k] = rng.Float64()*2 - 1
			}
		}
		if err := pe.Program(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInSituTrainStep times one full hardware training step (forward,
// gradient-vector, outer-product, update, reprogram) on a 6→16→3 network.
func BenchmarkInSituTrainStep(b *testing.B) {
	b.ReportAllocs()
	net, err := core.NewNetwork(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.05,
	},
		core.LayerSpec{In: 6, Out: 16, Activate: true},
		core.LayerSpec{In: 16, Out: 3},
	)
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.5, -0.3, 0.8, 0.1, -0.7, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainSample(x, i%3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGSTProgram times one phase-change cell write.
func BenchmarkGSTProgram(b *testing.B) {
	b.ReportAllocs()
	cell, err := pcm.NewCell(pcm.CellConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.Program(i%device.GSTLevels, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// trainBenchBatch is the minibatch size of the training-throughput pair:
// both benchmarks process exactly trainBenchBatch samples per op, so their
// ns/op ratio is a per-sample speedup.
const trainBenchBatch = 32

// trainBenchNet builds the 256→256→classes training benchmark network on
// 32×32 banks — an 8×8 tile grid on the wide layer, the geometry the ≥2×
// batched-training gate is measured on.
func trainBenchNet(b *testing.B) *core.Network {
	b.Helper()
	net, err := core.NewNetwork(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 32, Cols: 32, DisableNoise: true},
		LearningRate: 0.05,
	},
		core.LayerSpec{In: 256, Out: 256, Activate: true},
		core.LayerSpec{In: 256, Out: 3},
	)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkTrainStep times trainBenchBatch sequential TrainSample steps per
// op on the 256×256 layer — the per-sample schedule in which every step
// pays forward, backward AND the post-update bank reprogram. The reference
// side of the ≥2× batched-training gate.
func BenchmarkTrainStep(b *testing.B) {
	b.Run("256x256", func(b *testing.B) {
		net := trainBenchNet(b)
		xs := benchInput(trainBenchBatch*256, 5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := 0; s < trainBenchBatch; s++ {
				if _, err := net.TrainSample(xs[s*256:(s+1)*256], s%3); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*trainBenchBatch/b.Elapsed().Seconds(), "samples/sec")
	})
}

// BenchmarkTrainBatch times one TrainBatch minibatch of the same
// trainBenchBatch samples per op: one batched forward on resident weights,
// reprogram-free batched transpose GEMMs, one blocked ΔHᵀ·X contraction and
// one weight update per layer. The fast side of the ≥2× gate.
func BenchmarkTrainBatch(b *testing.B) {
	b.Run("256x256", func(b *testing.B) {
		net := trainBenchNet(b)
		xs := benchInput(trainBenchBatch*256, 5)
		labels := make([]int, trainBenchBatch)
		for s := range labels {
			labels[s] = s % 3
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.TrainBatch(xs, labels); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*trainBenchBatch/b.Elapsed().Seconds(), "samples/sec")
	})
}

// BenchmarkTransposeCompiled times the compiled transpose GEMV — the Wᵀ·δ
// backward pass served from the shared snapshot's transpose view with zero
// bank reprogramming — across the bank-geometry sweep.
func BenchmarkTransposeCompiled(b *testing.B) {
	for _, size := range bankSizes {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			bank := benchBank(b, size)
			bank.EnsureTransposeCompiled()
			delta := benchInput(size, 11)
			dst := make([]float64, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = bank.TransposeMVM(dst, delta)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "MVMs/sec")
		})
	}
}

// BenchmarkDataflowMapResNet50 times a full weight-stationary mapping of
// ResNet-50 onto the 44-PE array.
func BenchmarkDataflowMapResNet50(b *testing.B) {
	b.ReportAllocs()
	m := models.ResNet50()
	g := dataflow.Geometry{PEs: device.TridentPEs, Rows: 16, Cols: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataflow.Map(m, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConv2DIm2col times the im2col convolution on a mid-network
// ResNet-shaped layer.
func BenchmarkConv2DIm2col(b *testing.B) {
	b.ReportAllocs()
	s := tensor.Conv2DSpec{InC: 64, InH: 28, InW: 28, OutC: 64, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	in := tensor.New(s.InC, s.InH, s.InW)
	k := tensor.New(s.OutC, s.InC*s.KH*s.KW)
	rng := rand.New(rand.NewSource(4))
	for i := range in.Data() {
		in.Data()[i] = rng.NormFloat64()
	}
	for i := range k.Data() {
		k.Data()[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tensor.Conv2D(in, k, s)
		if out.Len() == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkMatMul times the parallel GEMM on a 256×256 product.
func BenchmarkMatMul(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	a := tensor.New(256, 256)
	c := tensor.New(256, 256)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
		c.Data()[i] = rng.NormFloat64()
	}
	dst := tensor.New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, a, c)
	}
}

// BenchmarkEvaluateAllAccelerators times one full seven-accelerator,
// five-model evaluation sweep (the whole evaluation section in one call).
func BenchmarkEvaluateAllAccelerators(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range models.All() {
			for _, c := range append([]accel.PhotonicConfig{accel.Trident()}, accel.PhotonicBaselines()...) {
				if _, err := accel.EvaluatePhotonic(c, m); err != nil {
					b.Fatal(err)
				}
			}
			for _, e := range accel.ElectronicBaselines() {
				if _, err := accel.EvaluateElectronic(e, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkInSituEpoch times a full in-situ training epoch on synthetic
// blobs (150 samples through the hardware model).
func BenchmarkInSituEpoch(b *testing.B) {
	b.ReportAllocs()
	data := dataset.Blobs(150, 3, 6, 0.1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.RunInSitu(data, 16, 1, 0.08, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStudy regenerates the design-choice ablation table
// (Trident vs its -ADC / -Volatile / -SlowTune variants).
func BenchmarkAblationStudy(b *testing.B) {
	b.ReportAllocs()
	m := models.ResNet50()
	for i := 0; i < b.N; i++ {
		rows, err := accel.AblationStudy(m)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkHardwareCNNTrainStep times one in-situ training step of the
// functional convolutional classifier (per-pixel optical passes and
// hardware outer products on an 8×8 image).
func BenchmarkHardwareCNNTrainStep(b *testing.B) {
	b.ReportAllocs()
	cnn, err := core.NewCNN(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.1,
	}, tensor.Conv2DSpec{InC: 1, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}, 2)
	if err != nil {
		b.Fatal(err)
	}
	img := tensor.New(1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = 0.3 * float64(i%5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cnn.TrainSample(img, i%2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- bank-kernel and batched-path microbenchmarks ---
//
// These feed the benchmark trajectory (`make bench`): cmd/benchjson parses
// their output into a BENCH_PR*.json file and enforces the speedup gates
// listed in its gate table.

// bankSizes are the square bank geometries the kernel benchmarks sweep: the
// paper's 16×16 PE bank plus 64- and 256-column stress widths on the
// extended (multi-comb) channel plan.
var bankSizes = []int{16, 64, 256}

// benchBank builds a programmed size×size PCM bank for kernel benchmarks.
func benchBank(b *testing.B, size int) *mrr.WeightBank {
	b.Helper()
	plan, err := optics.NewExtendedChannelPlan(size)
	if err != nil {
		b.Fatal(err)
	}
	bank, err := mrr.NewPCMWeightBank(size, size, plan)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(size)))
	w := make([][]float64, size)
	for j := range w {
		w[j] = make([]float64, size)
		for i := range w[j] {
			w[j][i] = rng.Float64()*2 - 1
		}
	}
	if _, err := bank.Program(w, 0); err != nil {
		b.Fatal(err)
	}
	return bank
}

func benchInput(size int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, size)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// BenchmarkBankMVM times the production bank path (the compiled-snapshot
// GEMV) — the numerator of the ≥3× compiled-vs-reference trajectory gate
// on the 64×64 geometry.
func BenchmarkBankMVM(b *testing.B) {
	for _, size := range bankSizes {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			bank := benchBank(b, size)
			x := benchInput(size, 9)
			dst := make([]float64, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = bank.MVM(dst, x)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "MVMs/sec")
		})
	}
}

// BenchmarkBankMVMReference times the reference triple-loop kernel on the
// same banks — the denominator of the ≥3× trajectory gate.
func BenchmarkBankMVMReference(b *testing.B) {
	for _, size := range bankSizes {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			bank := benchBank(b, size)
			x := benchInput(size, 9)
			dst := make([]float64, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = bank.ReferenceMVM(dst, x)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "MVMs/sec")
		})
	}
}

// BenchmarkBankMVMBatch streams 32-sample batches through the production
// bank path (the register-blocked compiled kernel), reporting per-sample
// throughput — the single-threaded denominator of the ≥1.5× parallel-batch
// gate on the 256×256 geometry.
func BenchmarkBankMVMBatch(b *testing.B) {
	const batch = 32
	for _, size := range bankSizes {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			bank := benchBank(b, size)
			xs := benchInput(batch*size, 9)
			dst := make([]float64, batch*size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = bank.MVMBatchInto(dst, xs, batch, size)
			}
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "MVMs/sec")
		})
	}
}

// BenchmarkBankRecompileFull times a whole-snapshot rebuild: RotateRows(0)
// is a pure whole-bank invalidation (the row map is unchanged, so every
// iteration recompiles an identical bank), and EnsureCompiled pays the full
// O(J·N·r) compile. The denominator of the ≥5× incremental-recompile gate;
// ReportAllocs pins the steady-state zero-allocation contract on the reused
// weff buffer.
func BenchmarkBankRecompileFull(b *testing.B) {
	for _, size := range bankSizes {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			bank := benchBank(b, size)
			bank.EnsureCompiled()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bank.RotateRows(0)
				bank.EnsureCompiled()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recompiles/sec")
		})
	}
}

// BenchmarkBankRecompileIncremental times the dirty-row path: one cell
// override (alternating values so the mutation is never a no-op) dirties a
// single row, and EnsureCompiled recompiles just that row in place — the
// reliability scheduler's refresh-a-few-rows regime. The numerator of the
// ≥5× gate against BenchmarkBankRecompileFull on the 256×256 geometry.
func BenchmarkBankRecompileIncremental(b *testing.B) {
	for _, size := range bankSizes {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			bank := benchBank(b, size)
			bank.EnsureCompiled()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := 0.4321
				if i%2 == 1 {
					v = -v
				}
				bank.OverrideWeight(size/2, size/2, v)
				bank.EnsureCompiled()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recompiles/sec")
		})
	}
}

// BenchmarkBankMVMBatchParallel is BenchmarkBankMVMBatch with the tile
// engine's worker pool installed as the bank's ParallelFor hook — the
// configuration every PE-owned bank runs in production. The numerator of
// the ≥1.5× parallel-batch gate on the 256×256 geometry at GOMAXPROCS
// workers (the gate is recorded but waived on single-CPU hosts, where no
// parallel speedup is physically available).
func BenchmarkBankMVMBatchParallel(b *testing.B) {
	const batch = 32
	for _, size := range bankSizes {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			bank := benchBank(b, size)
			bank.SetParallelFor(core.RunIndexed)
			xs := benchInput(batch*size, 9)
			dst := make([]float64, batch*size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = bank.MVMBatchInto(dst, xs, batch, size)
			}
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "MVMs/sec")
		})
	}
}

// BenchmarkBankProgram times full-bank reprogramming across the same
// geometry sweep (two alternating weight sets so the compare-first write
// logic cannot elide the writes).
func BenchmarkBankProgram(b *testing.B) {
	for _, size := range bankSizes {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			bank := benchBank(b, size)
			sets := make([][][]float64, 2)
			rng := rand.New(rand.NewSource(77))
			for s := range sets {
				sets[s] = make([][]float64, size)
				for j := range sets[s] {
					sets[s][j] = make([]float64, size)
					for i := range sets[s][j] {
						sets[s][j][i] = rng.Float64()*2 - 1
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bank.Program(sets[i%2], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBankGeometryDSE regenerates the weight-bank design-space
// exploration (25 geometries, each fully re-provisioned and mapped).
func BenchmarkBankGeometryDSE(b *testing.B) {
	b.ReportAllocs()
	m := models.ResNet50()
	for i := 0; i < b.N; i++ {
		pts, err := accel.ExploreBankGeometry(m, device.PowerBudget)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 25 {
			b.Fatal("bad point count")
		}
	}
}

// BenchmarkEventSimSerial times the discrete-event validation schedule of
// ResNet-50 on the 44-PE array.
func BenchmarkEventSimSerial(b *testing.B) {
	b.ReportAllocs()
	m := models.ResNet50()
	cfg := accel.Trident()
	for i := 0; i < b.N; i++ {
		r, err := eventsim.Simulate(m, cfg, eventsim.Serial, accel.DefaultBatch)
		if err != nil {
			b.Fatal(err)
		}
		if r.Latency <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkDeepCNNTrainStep times one in-situ training step through two
// stacked hardware convolution stages (per-pixel transpose and
// outer-product passes at every stage).
func BenchmarkDeepCNNTrainStep(b *testing.B) {
	b.ReportAllocs()
	d, err := core.NewDeepCNN(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.1,
	}, []tensor.Conv2DSpec{
		{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 4, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
			StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
	}, 2)
	if err != nil {
		b.Fatal(err)
	}
	img := tensor.New(1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = 0.2 * float64(i%7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.TrainSample(img, i%2); err != nil {
			b.Fatal(err)
		}
	}
}

// serveBenchNet builds the serving-benchmark workload: a wider MLP than
// the unit-test miniatures so the batched forward path has real work to
// amortize per-request overhead against.
func serveBenchNet(b *testing.B) *core.Network {
	b.Helper()
	net, err := core.NewNetwork(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.08,
	},
		core.LayerSpec{In: 32, Out: 64, Activate: true},
		core.LayerSpec{In: 64, Out: 8},
	)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// benchServe drives b.N requests through a serving batcher from
// serveClients concurrent clients and reports requests/second. The fixed
// client count models a steady p99-bounded load; the config under test
// decides whether requests coalesce.
func benchServe(b *testing.B, cfg serve.Config) {
	net := serveBenchNet(b)
	bt := serve.NewBatcher(net.Graph, cfg)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := bt.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	const serveClients = 16
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]float64, serveClients)
	for c := range inputs {
		x := make([]float64, 32)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		inputs[c] = x
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := bt.Submit(context.Background(), inputs[c]); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// BenchmarkServeBatcher measures serving throughput with micro-batching
// on: up to 16 concurrent requests coalesce into one batched forward pass.
func BenchmarkServeBatcher(b *testing.B) {
	benchServe(b, serve.Config{MaxBatch: 16, MaxWait: 100 * time.Microsecond, QueueCap: 64})
}

// BenchmarkServeUnbatched is the degenerate-window baseline: the same
// serving stack forced to one request per engine pass, so the pair
// isolates exactly what coalescing buys at the same concurrency.
func BenchmarkServeUnbatched(b *testing.B) {
	benchServe(b, serve.Config{MaxBatch: 1, MaxWait: 100 * time.Microsecond, QueueCap: 64})
}

// benchRouter drives b.N routed requests through one model with the given
// replica count while a churn goroutine forces maintenance-style drains:
// round-robin over the replicas, it acquires each execute token, holds it
// ~1ms (a BIST-window stand-in using the exact drain path real
// maintenance takes), and releases. With one replica every hold stalls
// the world; with two the router shifts traffic to the warm sibling, so
// the pair isolates what replica fan-out buys under maintenance churn.
func benchRouter(b *testing.B, replicas int) {
	base := serveBenchNet(b)
	rt := serve.NewRouter()
	insts := make([]*serve.Instance, replicas)
	for i := range insts {
		rep, err := base.Replicate()
		if err != nil {
			b.Fatal(err)
		}
		inst, err := serve.NewGraphInstance(fmt.Sprintf("m/replica-%d", i), rep.Graph,
			serve.Config{MaxBatch: 16, MaxWait: 100 * time.Microsecond, QueueCap: 64}, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts[i] = inst
	}
	if err := rt.AddModel("m", insts...); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()

	churnCtx, stopChurn := context.WithCancel(context.Background())
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; churnCtx.Err() == nil; i++ {
			inst := insts[i%len(insts)]
			release, err := inst.Batcher().Acquire(churnCtx)
			if err != nil {
				return
			}
			select {
			case <-time.After(time.Millisecond):
			case <-churnCtx.Done():
			}
			release()
			select {
			case <-time.After(500 * time.Microsecond):
			case <-churnCtx.Done():
			}
		}
	}()

	const serveClients = 16
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]float64, serveClients)
	for c := range inputs {
		x := make([]float64, 32)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		inputs[c] = x
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				// All replicas draining (single-replica churn window) and
				// transient backpressure are retried, not failed — the
				// benchmark measures end-to-end goodput under churn.
				for {
					_, err := rt.Submit(context.Background(), "m", inputs[c])
					if err == nil {
						break
					}
					if errors.Is(err, serve.ErrAllDraining) || errors.Is(err, serve.ErrQueueFull) {
						time.Sleep(200 * time.Microsecond)
						continue
					}
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	stopChurn()
	<-churnDone
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// BenchmarkRouterOneReplica is the churn baseline: a single replica means
// every maintenance hold stops the model cold and requests queue or
// bounce until the window ends.
func BenchmarkRouterOneReplica(b *testing.B) {
	benchRouter(b, 1)
}

// BenchmarkRouterTwoReplicas is the drain-tolerance case: the router
// shifts traffic to the warm sibling during each hold. The benchjson gate
// requires ≥1.3× the single-replica throughput, waived below two CPUs
// where the siblings cannot actually run concurrently.
func BenchmarkRouterTwoReplicas(b *testing.B) {
	benchRouter(b, 2)
}

// pipeBenchBatch is the per-op batch size of the pipelined-execution pair:
// both benchmarks push exactly this many samples per op, so their ns/op
// ratio is the batch-throughput speedup of stage pipelining.
const pipeBenchBatch = 64

// pipeBenchGraph builds the pipelined-throughput workload: a four-conv
// DeepCNN graph (input, four convs, GAP, dense — seven nodes), deep enough
// that a 4-stage cut puts real convolution work in every stage. Noise is
// off so the pair times the execution schedule, not the RNG.
func pipeBenchGraph(b *testing.B) *core.Graph {
	b.Helper()
	d, err := core.NewDeepCNN(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.1,
	}, []tensor.Conv2DSpec{
		{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 4, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 6, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
			StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
		{InC: 6, InH: 4, InW: 4, OutC: 8, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	return d.Graph
}

// BenchmarkDeepCNNBatchSequential streams pipeBenchBatch-sample batches
// through the sequential batched forward path — the reference side of the
// ≥1.4× pipelined-execution gate.
func BenchmarkDeepCNNBatchSequential(b *testing.B) {
	g := pipeBenchGraph(b)
	xs := benchInput(pipeBenchBatch*g.InputSize(), 13)
	var dst []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = g.ForwardBatchInto(dst, xs, pipeBenchBatch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*pipeBenchBatch/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkDeepCNNBatchPipelined streams the same batches through a
// 4-stage pipeline over the same graph shape: each stage owns a contiguous
// node span on its own simulated chip and micro-batches flow through
// double-buffered boundaries, so stage k computes micro-batch b while
// stage k+1 computes b−1. The fast side of the ≥1.4× gate (recorded but
// waived below four CPUs, where four stages cannot actually overlap).
func BenchmarkDeepCNNBatchPipelined(b *testing.B) {
	g := pipeBenchGraph(b)
	cuts, err := dataflow.PlanStages(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewPipeline(g, cuts, 0)
	if err != nil {
		b.Fatal(err)
	}
	xs := benchInput(pipeBenchBatch*g.InputSize(), 13)
	var dst []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = p.ForwardBatchPipelined(dst, xs, pipeBenchBatch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*pipeBenchBatch/b.Elapsed().Seconds(), "samples/sec")
}
