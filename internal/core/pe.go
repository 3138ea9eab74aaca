package core

import (
	"fmt"
	"math"
	"math/rand"

	"trident/internal/analog"
	"trident/internal/device"
	"trident/internal/mrr"
	"trident/internal/optics"
	"trident/internal/pcm"
	"trident/internal/units"
)

// Mode selects which Table II operand mapping a PE executes.
type Mode int

// PE operating modes (the three columns of Table II).
const (
	// ModeInference: bank holds W_k, inputs carry x_k, BPD output is
	// y = W·x, which then passes through the GST activation.
	ModeInference Mode = iota
	// ModeGradient: bank holds W_{k+1}ᵀ, inputs carry δh_{k+1}, and the
	// TIAs are programmed to the stored f'(h_k) so the output is
	// δh_k = (Wᵀδ) ⊙ f'(h) — equation (3).
	ModeGradient
	// ModeOuterProduct: bank holds y_{k-1}ᵀ broadcast across rows, inputs
	// carry δh_k, and the output rows form δW_k = δh·yᵀ — equation (2).
	ModeOuterProduct
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeInference:
		return "inference"
	case ModeGradient:
		return "gradient"
	case ModeOuterProduct:
		return "outer-product"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// PEConfig parameterizes a processing element.
type PEConfig struct {
	Rows int // J, output rows; default device.WeightBankRows
	Cols int // N, input wavelengths; default device.WeightBankCols
	// LaserPower is the full-scale optical power per wavelength.
	LaserPower units.Power
	// NoiseSeed seeds the analog noise processes.
	NoiseSeed int64
	// DisableNoise turns off BPD noise (for bit-exactness tests).
	DisableNoise bool
	// ActivationThreshold is the normalized pre-activation level at which
	// the GST activation cell fires. The control unit sets it by scaling
	// the E/O drive so that the 430 pJ physical threshold corresponds to
	// this numeric value.
	ActivationThreshold float64
	// Ideal swaps the PCM weight bank for an exact-arithmetic bank (no
	// quantization, no crosstalk, free writes). Used by the equivalence
	// tests that pin the hardware execution path against the digital
	// reference; combine with DisableNoise for a fully deterministic PE.
	Ideal bool
}

// PE is one Trident processing element: a J×N PCM-MRR weight bank, one
// balanced photodetector + TIA per row, one LDSU per row and one GST
// activation cell per row (Fig. 1).
type PE struct {
	cfg    PEConfig
	bank   *mrr.WeightBank
	lasers *optics.LaserBank
	fes    []*analog.RowFrontEnd
	ldsu   *pcm.LDSUBank
	acts   []*pcm.ActivationCell
	ledger *Ledger
	rng    *rand.Rand
	faults []fault      // stuck cells (see faults.go)
	events []FaultEvent // fault history in occurrence order
	// noiseRel is the relative RMS analog noise at full scale, derived
	// from the BPD noise model.
	noiseRel float64
	scratch  []float64

	// Reusable scratch owned by this PE. A PE is driven by exactly one
	// goroutine at a time (the tile-execution engine decomposes work per
	// tile), so these need no locking.
	normBuf   []float64   // threshold-normalized pre-activations (len Rows)
	derivBuf  []float64   // LDSU derivative reads (len Rows)
	bcastRows [][]float64 // broadcast-programming row views (len Rows)
	blockBuf  [][]float64 // weight-block staging rows (len Rows)
	blockData []float64   // backing store for blockBuf (Rows×Cols)
}

// NewPE builds a processing element. Zero config fields take the paper's
// defaults (16×16 bank, 1 mW lines).
func NewPE(cfg PEConfig) (*PE, error) {
	if cfg.Rows == 0 {
		cfg.Rows = device.WeightBankRows
	}
	if cfg.Cols == 0 {
		cfg.Cols = device.WeightBankCols
	}
	if cfg.Rows < 0 || cfg.Cols < 0 {
		return nil, fmt.Errorf("core: PE bank %d×%d must be positive", cfg.Rows, cfg.Cols)
	}
	if cfg.LaserPower == 0 {
		cfg.LaserPower = 1 * units.Milliwatt
	}
	plan, err := optics.DefaultChannelPlan(cfg.Cols)
	if err != nil {
		return nil, fmt.Errorf("core: PE channel plan: %w", err)
	}
	newBank := mrr.NewPCMWeightBank
	if cfg.Ideal {
		newBank = mrr.NewIdealWeightBank
	}
	bank, err := newBank(cfg.Rows, cfg.Cols, plan)
	if err != nil {
		return nil, fmt.Errorf("core: PE weight bank: %w", err)
	}
	// Hand the bank the tile engine's worker pool so snapshot recompilation
	// and the compiled batch GEMM shard across it. Row-block ownership keeps
	// results bit-identical at any worker count, and nested fan-outs (a
	// tile-parallel pass reaching a bank-parallel kernel) degrade to in-line
	// execution when the pool is saturated.
	bank.SetParallelFor(RunIndexed)
	lasers, err := optics.NewLaserBank(plan, cfg.LaserPower)
	if err != nil {
		return nil, fmt.Errorf("core: PE lasers: %w", err)
	}
	pe := &PE{
		cfg:       cfg,
		bank:      bank,
		lasers:    lasers,
		ldsu:      pcm.NewLDSUBank(cfg.Rows),
		ledger:    NewLedger(),
		rng:       rand.New(rand.NewSource(cfg.NoiseSeed)),
		normBuf:   make([]float64, cfg.Rows),
		bcastRows: make([][]float64, cfg.Rows),
		blockBuf:  make([][]float64, cfg.Rows),
		blockData: make([]float64, cfg.Rows*cfg.Cols),
	}
	for j := 0; j < cfg.Rows; j++ {
		fe, err := analog.NewRowFrontEnd(cfg.NoiseSeed + int64(j) + 1)
		if err != nil {
			return nil, err
		}
		pe.fes = append(pe.fes, fe)
		act, err := pcm.NewActivationCell(pcm.ActivationConfig{})
		if err != nil {
			return nil, err
		}
		pe.acts = append(pe.acts, act)
	}
	if !cfg.DisableNoise {
		bpd := pe.fes[0].BPD
		full := cfg.LaserPower
		pe.noiseRel = bpd.NoiseSigma(full) / (bpd.Responsivity * full.Watts())
	}
	return pe, nil
}

// Rows returns J.
func (p *PE) Rows() int { return p.cfg.Rows }

// Cols returns N.
func (p *PE) Cols() int { return p.cfg.Cols }

// Ledger returns the PE's energy/time ledger.
func (p *PE) Ledger() *Ledger { return p.ledger }

// Bank exposes the weight bank (for endurance and quantization inspection).
func (p *PE) Bank() *mrr.WeightBank { return p.bank }

// Program writes a weight tile into the PCM-MRR bank. All cells program in
// parallel (300 ns wall time per pass); energy is booked per changed cell.
// Cells whose switching endurance ran out during the pass do not abort it:
// each surfaces as a stuck-crystalline wear fault event and the PE keeps
// serving with the cell pinned (see faults.go).
func (p *PE) Program(w [][]float64) error {
	res, err := p.bank.Program(w, p.ledger.Elapsed())
	if err != nil {
		return err
	}
	p.ledger.Add(CatGSTTuning, res.Energy)
	p.ledger.Advance(res.Elapsed)
	for _, worn := range res.Worn {
		p.wearFault(worn[0], worn[1])
	}
	// Stuck cells ignore the write pulses they just received.
	p.applyFaults()
	return nil
}

// ApplyDrift ages the bank's readout by the given hold duration: every GST
// cell's realized weight relaxes per the amorphous drift law, after which
// stuck cells are re-pinned (dead material drifts nowhere). The programmed
// levels are untouched; RefreshWeights or any reprogramming pass restores
// the nominal weights.
func (p *PE) ApplyDrift(hold units.Duration) {
	p.bank.ApplyDrift(hold)
	p.applyFaults()
}

// RefreshWeights re-issues write pulses on every drift-displaced cell,
// restoring nominal weights at the cost of one endurance cycle and the full
// write energy per refreshed cell. Cells that turn out worn surface as wear
// fault events, exactly as in Program.
func (p *PE) RefreshWeights() {
	res := p.bank.Refresh(p.ledger.Elapsed())
	p.ledger.Add(CatGSTTuning, res.Energy)
	p.ledger.Advance(res.Elapsed)
	for _, worn := range res.Worn {
		p.wearFault(worn[0], worn[1])
	}
	p.applyFaults()
}

// step books the per-symbol energies common to every optical pass: E/O
// encoding of n inputs, the GST read pulses that bias the bank, the BPD+TIA
// front ends, and the per-PE cache activity, then advances one clock.
func (p *PE) step(n int) {
	period := device.ClockRate.Period()
	p.ledger.Add(CatEOLaser, p.lasers.EncodeEnergy(n))
	// Read power is a per-bank budget (Table III row over 256 cells).
	readShare := units.Power(float64(device.PowerGSTRead) *
		float64(p.cfg.Rows*p.cfg.Cols) / float64(device.MRRsPerPE))
	p.ledger.Add(CatGSTRead, readShare.OverTime(period))
	feShare := units.Power(float64(device.PowerBPDTIA) *
		float64(p.cfg.Rows) / float64(device.WeightBankRows))
	p.ledger.Add(CatBPDTIA, feShare.OverTime(period))
	p.ledger.Add(CatCache, device.PowerCache.OverTime(period))
	p.ledger.Advance(period)
}

// noisy perturbs an analog value with the BPD noise model. The vector sum
// of n contributions carries √n of the single-channel noise.
func (p *PE) noisy(v float64, n int) float64 {
	if p.cfg.DisableNoise || p.noiseRel == 0 {
		return v
	}
	sigma := p.noiseRel * math.Sqrt(float64(n))
	return v + p.rng.NormFloat64()*sigma
}

// MVMPass runs one optical matrix-vector pass through the bank: encode x,
// filter through the rings, detect on the BPDs. It returns the noisy analog
// pre-activations and books one clock of pipeline energy.
func (p *PE) MVMPass(x []float64) ([]float64, error) {
	return p.MVMPassInto(nil, x)
}

// MVMPassInto is MVMPass writing into a caller-owned buffer: dst is
// allocated only when nil or too small, so the steady-state hot path is
// allocation-free.
func (p *PE) MVMPassInto(dst, x []float64) ([]float64, error) {
	if len(x) > p.cfg.Cols {
		return nil, fmt.Errorf("core: input length %d exceeds bank cols %d", len(x), p.cfg.Cols)
	}
	dst = growFloats(dst, p.cfg.Rows)
	p.scratch = p.bank.MVM(p.scratch, x)
	for j := range dst {
		dst[j] = p.noisy(p.scratch[j], len(x))
	}
	p.step(len(x))
	return dst, nil
}

// MVMPassBatchInto streams a batch of input vectors through the weight-
// stationary bank in one call: sample s occupies xs[s*n : (s+1)*n] and its
// noisy pre-activations land in dst[s*Rows : (s+1)*Rows], both sample-major.
// The whole batch runs through the bank's register-blocked compiled kernel
// first (the bank draws no randomness, and its batch output is bit-identical
// to per-sample MVM calls), then noise and pipeline energy are applied per
// sample in batch order — so the outputs, the PE's noise stream and its
// ledger are bit-identical to calling MVMPassInto once per sample. The
// steady-state path allocates nothing.
func (p *PE) MVMPassBatchInto(dst, xs []float64, batch, n int) ([]float64, error) {
	if n > p.cfg.Cols {
		return nil, fmt.Errorf("core: batch sample width %d exceeds bank cols %d", n, p.cfg.Cols)
	}
	if batch < 0 || len(xs) < batch*n {
		return nil, fmt.Errorf("core: batch %d×%d needs %d inputs, have %d", batch, n, batch*n, len(xs))
	}
	dst = growFloats(dst, batch*p.cfg.Rows)
	dst = p.bank.MVMBatchInto(dst, xs, batch, n)
	for s := 0; s < batch; s++ {
		out := dst[s*p.cfg.Rows : (s+1)*p.cfg.Rows]
		for j := range out {
			out[j] = p.noisy(out[j], n)
		}
		p.step(n)
	}
	return dst, nil
}

// TransposePassBatchInto executes the adjoint optical pass out = Wᵀ·δ for a
// batch of delta vectors against the same stored weights the forward pass
// reads: each delta is launched down the row bus and each column's drops
// accumulate, so the bank is never reprogrammed — no tuner write pulses, no
// endurance cycles, and the compiled forward snapshot stays valid. Sample s
// occupies ds[s*m : (s+1)*m] and its noisy input-gradients land in
// dst[s*Cols : (s+1)*Cols], both sample-major. Like MVMPassBatchInto, the
// whole batch runs through the bank's compiled transpose view first (the
// bank draws no randomness and its batch output is bit-identical to
// per-sample TransposeMVM calls), then detection noise and pipeline energy
// are booked per sample in batch order, exactly like a forward pass of the
// same optical depth — so a sample's result does not depend on the batch
// it rides in, and the steady state is allocation-free.
func (p *PE) TransposePassBatchInto(dst, ds []float64, batch, m int) ([]float64, error) {
	if m > p.cfg.Rows {
		return nil, fmt.Errorf("core: batch delta width %d exceeds bank rows %d", m, p.cfg.Rows)
	}
	if batch < 0 || len(ds) < batch*m {
		return nil, fmt.Errorf("core: batch %d×%d needs %d inputs, have %d", batch, m, batch*m, len(ds))
	}
	dst = growFloats(dst, batch*p.cfg.Cols)
	dst = p.bank.TransposeMVMBatchInto(dst, ds, batch, m)
	for s := 0; s < batch; s++ {
		out := dst[s*p.cfg.Cols : (s+1)*p.cfg.Cols]
		for i := range out {
			out[i] = p.noisy(out[i], m)
		}
		p.step(m)
	}
	return dst, nil
}

// Activate pushes accumulated pre-activations h (len ≤ Rows) through the
// PE's GST activation cells and latches the LDSUs. It returns the activated
// outputs and books the recrystallization energy for cells that fired.
func (p *PE) Activate(h []float64) ([]float64, error) {
	return p.ActivateInto(nil, h)
}

// ActivateInto is Activate writing into a caller-owned buffer (allocated
// only when nil or too small).
func (p *PE) ActivateInto(dst, h []float64) ([]float64, error) {
	if len(h) > p.cfg.Rows {
		return nil, fmt.Errorf("core: %d pre-activations exceed bank rows %d", len(h), p.cfg.Rows)
	}
	// LDSU latches the comparator result relative to the activation
	// threshold (normalized so the threshold sits at 1).
	norm := p.normBuf[:len(h)]
	for j, v := range h {
		norm[j] = p.normalizeToThreshold(v)
	}
	p.ldsu.Latch(norm)
	p.ledger.Add(CatLDSU, device.PowerLDSU.OverTime(device.ClockRate.Period()))
	y := growFloats(dst, len(h))
	fired := false
	for j, v := range norm {
		y[j] = p.acts[j].ApplyNormalized(v) * p.thresholdScale()
		if v >= 1 {
			fired = true
		}
	}
	if fired {
		var reset units.Energy
		for _, a := range p.acts {
			reset += a.Reset()
		}
		p.ledger.Add(CatActivationReset, reset)
	}
	return y, nil
}

// Infer executes one full ModeInference pass on input x: optical MVM,
// balanced detection, GST activation, LDSU latch. It returns the activated
// outputs and the raw pre-activations.
func (p *PE) Infer(x []float64) (y, h []float64, err error) {
	h, err = p.MVMPass(x)
	if err != nil {
		return nil, nil, err
	}
	y, err = p.Activate(h)
	if err != nil {
		return nil, nil, err
	}
	return y, h, nil
}

// normalizeToThreshold maps a numeric pre-activation onto threshold units
// (threshold at 1). With threshold θ ≤ 0 the mapping shifts so that h = θ
// lands at 1.
func (p *PE) normalizeToThreshold(h float64) float64 {
	return h - p.cfg.ActivationThreshold + 1
}

// thresholdScale converts activation-cell output (threshold units) back to
// numeric units; with the shift mapping this is 1.
func (p *PE) thresholdScale() float64 { return 1 }

// GradientPass executes ModeGradient: the bank holds Wᵀ (programmed by the
// caller), inputs carry the upstream error δ, and the TIAs apply the
// latched derivatives, returning δh = (Wᵀδ) ⊙ f'(h).
func (p *PE) GradientPass(delta []float64) ([]float64, error) {
	return p.GradientPassInto(nil, delta)
}

// GradientPassInto is GradientPass writing into a caller-owned buffer
// (allocated only when nil or too small).
func (p *PE) GradientPassInto(dst, delta []float64) ([]float64, error) {
	if len(delta) > p.cfg.Cols {
		return nil, fmt.Errorf("core: delta length %d exceeds bank cols %d", len(delta), p.cfg.Cols)
	}
	p.scratch = p.bank.MVM(p.scratch, delta)
	p.derivBuf = p.ldsu.Derivatives(p.derivBuf)
	derivs := p.derivBuf
	out := growFloats(dst, p.cfg.Rows)
	for j := range out {
		v := p.noisy(p.scratch[j], len(delta))
		// TIA programmed to f'(h_j): the Hadamard product in analog.
		if err := p.fes[j].TIA.SetScale(derivs[j]); err != nil {
			return nil, err
		}
		out[j] = v * derivs[j]
	}
	p.step(len(delta))
	return out, nil
}

// OuterProductPass executes ModeOuterProduct: the bank rows hold copies of
// yᵀ, inputs carry δh, and each row's output is one row of δW = δh·yᵀ. The
// PE computes Rows outer-product rows per pass; the caller supplies y
// pre-programmed via ProgramBroadcast.
func (p *PE) OuterProductPass(deltaH []float64, y []float64) ([][]float64, error) {
	out := make([][]float64, len(deltaH))
	for j := range out {
		out[j] = make([]float64, len(y))
	}
	if err := p.OuterProductPassInto(out, deltaH, y); err != nil {
		return nil, err
	}
	return out, nil
}

// OuterProductPassInto is OuterProductPass writing row j of the outer
// product into dst[j] (each at least len(y) long), avoiding the per-pass row
// allocations.
func (p *PE) OuterProductPassInto(dst [][]float64, deltaH, y []float64) error {
	if len(dst) < len(deltaH) {
		return fmt.Errorf("core: %d destination rows for %d δh entries", len(dst), len(deltaH))
	}
	return p.outerProductInto(dst, deltaH, y, false)
}

// outerProductInto computes the outer-product rows, either overwriting or
// accumulating into dst — the accumulate form is the per-pixel streaming
// path of the convolution backward, where rank-1 updates sum in the PE
// caches.
func (p *PE) outerProductInto(dst [][]float64, deltaH, y []float64, accumulate bool) error {
	if len(y) > p.cfg.Cols {
		return fmt.Errorf("core: y length %d exceeds bank cols %d", len(y), p.cfg.Cols)
	}
	if len(deltaH) > p.cfg.Rows {
		return fmt.Errorf("core: δh length %d exceeds bank rows %d", len(deltaH), p.cfg.Rows)
	}
	// The bank holds y on every row; feeding δh_j on row j's drive yields
	// row j of the outer product. Physically each row sees its scalar
	// δh_j modulating the shared y spectrum; numerically: δW[j][i] =
	// δh[j]·y_realized[i] where y_realized is the quantized bank content.
	for j := range deltaH {
		row := dst[j]
		for i := range y {
			v := p.noisy(deltaH[j]*p.bank.Weight(j, i), 1)
			if accumulate {
				row[i] += v
			} else {
				row[i] = v
			}
		}
		// TIAs act as plain amplifiers in this mode.
		if err := p.fes[j%len(p.fes)].TIA.SetScale(1); err != nil {
			return err
		}
	}
	p.step(len(y))
	return nil
}

// ProgramBroadcast writes the same vector y into every bank row — the
// outer-product operand layout of Table II ("encoded with y_{k-1}ᵀ from N
// inputs, to utilize the entire weight bank").
func (p *PE) ProgramBroadcast(y []float64) error {
	if len(y) > p.cfg.Cols {
		return fmt.Errorf("core: broadcast length %d exceeds bank cols %d", len(y), p.cfg.Cols)
	}
	for j := range p.bcastRows {
		p.bcastRows[j] = y
	}
	return p.Program(p.bcastRows)
}

// Derivatives exposes the LDSU bank contents (for tests and the trainer).
func (p *PE) Derivatives() []float64 { return p.ldsu.Derivatives(nil) }

// ClearLDSU resets the derivative latches between samples.
func (p *PE) ClearLDSU() { p.ldsu.Clear() }

// HoldPower returns the PE's standby power once programmed: zero bank hold
// power (non-volatile GST) plus the electronic front ends — the 0.11 W
// figure of Section IV scaled to this PE's geometry.
func (p *PE) HoldPower() units.Power {
	post := device.PostTuningPEPower()
	scale := float64(p.cfg.Rows*p.cfg.Cols) / float64(device.MRRsPerPE)
	return units.Power(float64(post) * scale)
}
