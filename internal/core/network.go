package core

import (
	"fmt"

	"trident/internal/device"
	"trident/internal/nn"
)

// LayerSpec describes one dense layer mapped onto Trident PEs.
type LayerSpec struct {
	In, Out int
	// Activate selects whether the layer's outputs pass through the GST
	// activation cells. The final classifier layer runs linear ("the GST
	// activation cell can be set to a fully amorphous state, effectively
	// eliminating the activation cell" — Section III-C).
	Activate bool
}

// NetworkConfig parameterizes a hardware-mapped network.
type NetworkConfig struct {
	// PE geometry and analog behaviour shared by all tiles.
	PE PEConfig
	// LearningRate is β in equation (1).
	LearningRate float64
	// Momentum is the heavy-ball coefficient µ applied by the control
	// unit's update stage (0 = the paper's plain equation (1)). The
	// velocity buffer lives in the PE caches / L2, not in photonics.
	Momentum float64
}

// DenseLayer is one network layer spread over a grid of PE tiles in the
// weight-stationary style: tile (r, c) holds the weight block
// W[r·J:(r+1)·J, c·N:(c+1)·N].
type DenseLayer struct {
	spec     LayerSpec
	w        [][]float64 // control-unit master copy (float), out×in
	tiles    [][]*PE     // [rowTile][colTile]
	rows     int         // J per tile
	cols     int         // N per tile
	state    bankState   // whether the banks hold the current master weights
	lastX    []float64
	lastH    []float64
	lastY    []float64
	derivs   []float64
	actCells *nn.GSTActivation
	momentum float64
	velocity [][]float64 // heavy-ball state, allocated on first update

	// Execution-engine scratch, reused across passes. part holds one
	// partial-sum buffer per tile (indexed rowTile*colTiles+colTile) so
	// concurrent tile passes never write shared accumulators; the merge
	// into the layer output happens afterwards in fixed tile order.
	part    [][]float64
	hBuf    []float64   // forward accumulator scratch
	tBuf    []float64   // transpose-pass accumulator scratch
	gradBuf [][]float64 // outer-product gradient scratch (see gradScratch)
	stream  []float64   // per-tile sample-stream slabs (conv + batch paths)
	streamX []float64   // per-tile sample-major input gathers (conv + batch)
	batchH  []float64   // batched pre-activation accumulator (batch×Out)
}

// bankState tracks whether the tile banks hold the current master weights.
type bankState int

const (
	bankForward bankState = iota // W (inference layout), up to date
	bankStale                    // master weights changed; banks outdated
)

// Network is a stack of DenseLayers executed on Trident hardware, capable
// of inference and in-situ backpropagation training: a thin sequential
// constructor over the shared execution graph (see graph.go), which
// supplies Forward/Predict/TrainSample, the batched serving paths and the
// reliability-facing management methods.
type Network struct {
	*Graph
}

// NewNetwork builds a hardware network for the given layer stack. Initial
// weights are Kaiming-uniform via a deterministic per-layer seed and are
// programmed into the PCM banks immediately.
func NewNetwork(cfg NetworkConfig, specs ...LayerSpec) (*Network, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: network needs at least one layer")
	}
	for li, spec := range specs {
		if spec.In <= 0 || spec.Out <= 0 {
			return nil, fmt.Errorf("core: layer %d dims %d→%d must be positive", li, spec.In, spec.Out)
		}
		if li > 0 && specs[li-1].Out != spec.In {
			return nil, fmt.Errorf("core: layer %d input %d does not match previous output %d",
				li, spec.In, specs[li-1].Out)
		}
	}
	g, err := NewGraph(cfg, specs[0].In)
	if err != nil {
		return nil, err
	}
	cur := g.Input()
	for li, spec := range specs {
		cur = g.Dense(cur, spec, int64(li))
	}
	if err := g.SetOutput(cur); err != nil {
		return nil, err
	}
	return &Network{Graph: g}, nil
}

func newDenseLayer(cfg NetworkConfig, spec LayerSpec, seed int64) (*DenseLayer, error) {
	peCfg := cfg.PE
	if peCfg.Rows == 0 {
		peCfg.Rows = device.WeightBankRows
	}
	if peCfg.Cols == 0 {
		peCfg.Cols = device.WeightBankCols
	}
	l := &DenseLayer{
		spec:     spec,
		rows:     peCfg.Rows,
		cols:     peCfg.Cols,
		momentum: cfg.Momentum,
	}
	l.actCells = nn.NewGSTActivation("gst", peCfg.ActivationThreshold)
	l.actCells.MaxOut = 1.0 // the physical cell saturates at full transmission
	// Master weights: Kaiming uniform, like the digital reference.
	ref := nn.NewDense("init", spec.In, spec.Out, seed+1000)
	l.w = make([][]float64, spec.Out)
	for j := range l.w {
		l.w[j] = make([]float64, spec.In)
		for i := range l.w[j] {
			l.w[j][i] = ref.W.Value.At(j, i)
		}
	}
	rt := (spec.Out + l.rows - 1) / l.rows
	ct := (spec.In + l.cols - 1) / l.cols
	l.tiles = make([][]*PE, rt)
	for r := 0; r < rt; r++ {
		l.tiles[r] = make([]*PE, ct)
		for c := 0; c < ct; c++ {
			tc := peCfg
			tc.NoiseSeed = seed*7919 + int64(r)*101 + int64(c)
			pe, err := NewPE(tc)
			if err != nil {
				return nil, err
			}
			l.tiles[r][c] = pe
		}
	}
	partFlat := make([]float64, rt*ct*l.rows)
	l.part = make([][]float64, rt*ct)
	for t := range l.part {
		l.part[t] = partFlat[t*l.rows : (t+1)*l.rows]
	}
	if err := l.programForward(); err != nil {
		return nil, err
	}
	return l, nil
}

// tileBlock stages the weight block for tile (r, c), clamped at the matrix
// edges, into the destination PE's reusable block scratch.
func (l *DenseLayer) tileBlock(pe *PE, r, c int) [][]float64 {
	j0 := r * l.rows
	j1 := min(j0+l.rows, l.spec.Out)
	i0 := c * l.cols
	i1 := min(i0+l.cols, l.spec.In)
	blk := pe.blockBuf[:j1-j0]
	for j := j0; j < j1; j++ {
		row := pe.blockData[(j-j0)*pe.cfg.Cols:][: i1-i0 : i1-i0]
		copy(row, l.w[j][i0:i1])
		blk[j-j0] = row
	}
	return blk
}

// programForward writes W into the tile banks; all tiles program
// concurrently (in hardware every cell of every bank tunes in parallel).
func (l *DenseLayer) programForward() error {
	if err := runTiles(len(l.tiles), len(l.tiles[0]), func(r, c int) error {
		pe := l.tiles[r][c]
		return pe.Program(l.tileBlock(pe, r, c))
	}); err != nil {
		return err
	}
	l.state = bankForward
	return nil
}

// MVMInto runs one forward-layout optical matrix-vector pass through the
// tile grid into a caller-owned buffer, without touching the layer's saved
// training state: the primitive shared by Forward and by the
// convolutional streaming paths. All tiles run their
// optical passes concurrently — every bank filters its wavelengths in the
// same clock — with per-tile partial sums merged afterwards in fixed
// (rowTile, colTile) order, so the result is independent of scheduling.
func (l *DenseLayer) MVMInto(dst, x []float64) ([]float64, error) {
	if len(x) != l.spec.In {
		return nil, fmt.Errorf("core: layer input %d, want %d", len(x), l.spec.In)
	}
	if l.state != bankForward {
		if err := l.programForward(); err != nil {
			return nil, err
		}
	}
	ct := len(l.tiles[0])
	if err := runTiles(len(l.tiles), ct, func(r, c int) error {
		i0 := c * l.cols
		i1 := min(i0+l.cols, l.spec.In)
		_, err := l.tiles[r][c].MVMPassInto(l.part[r*ct+c], x[i0:i1])
		return err
	}); err != nil {
		return nil, err
	}
	h := growFloats(dst, l.spec.Out)
	for j := range h {
		h[j] = 0
	}
	for r := range l.tiles {
		j0 := r * l.rows
		j1 := min(j0+l.rows, l.spec.Out)
		for c := range l.tiles[r] {
			part := l.part[r*ct+c]
			for j := j0; j < j1; j++ {
				h[j] += part[j-j0]
			}
		}
	}
	return h, nil
}

// Forward runs the layer on hardware: tile MVM passes, electronic partial-
// sum accumulation across column tiles, then the GST activation (if
// enabled) on the row-tile PEs.
func (l *DenseLayer) Forward(x []float64) ([]float64, error) {
	h, err := l.MVMInto(l.hBuf, x)
	if err != nil {
		return nil, err
	}
	l.hBuf = h
	l.lastX = append(l.lastX[:0], x...)
	l.lastH = append(l.lastH[:0], h...)
	y := make([]float64, len(h))
	if l.spec.Activate {
		// One activation row per row tile; the GST cells of distinct
		// tiles fire concurrently.
		if err := runTiles(len(l.tiles), 1, func(r, _ int) error {
			j0 := r * l.rows
			j1 := min(j0+l.rows, l.spec.Out)
			_, err := l.tiles[r][0].ActivateInto(y[j0:j1], h[j0:j1])
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		copy(y, h)
	}
	l.lastY = append(l.lastY[:0], y...)
	// Record derivatives for the backward pass (what the LDSUs latched).
	l.derivs = l.derivs[:0]
	for _, hv := range h {
		if l.spec.Activate {
			l.derivs = append(l.derivs, l.actCells.Derivative(hv))
		} else {
			l.derivs = append(l.derivs, 1)
		}
	}
	return y, nil
}

// TransposeMVMInto computes Wᵀ·δ (the gradient-vector pass before the
// Hadamard product), writing into a caller-owned buffer. It is served from
// the forward-resident banks' compiled transpose views — no reprogramming,
// no endurance writes (transpose.go).
func (l *DenseLayer) TransposeMVMInto(dst, delta []float64) ([]float64, error) {
	if len(delta) != l.spec.Out {
		return nil, fmt.Errorf("core: layer delta %d, want %d", len(delta), l.spec.Out)
	}
	return l.compiledTransposeMVMInto(dst, delta)
}

// OuterProductInto computes δW = δh·yᵀ in the digital control unit: both
// operands are electronic values the pipeline has already detected (δh from
// the gradient pass, y latched at forward time), so the rank-1 update is
// plain digital multiply-accumulate — no broadcast programming, no bank
// writes, no optical passes. The ModeOuterProduct hardware path survives at
// the PE level (OuterProductPass) for direct Table II experiments.
func (l *DenseLayer) OuterProductInto(grad [][]float64, deltaH, y []float64) error {
	if len(deltaH) != l.spec.Out || len(y) != l.spec.In {
		return fmt.Errorf("core: outer product dims %d×%d, want %d×%d",
			len(deltaH), len(y), l.spec.Out, l.spec.In)
	}
	for j, dh := range deltaH {
		row := grad[j][:len(y)]
		for i, yv := range y {
			row[i] = dh * yv
		}
	}
	return nil
}

// ApplyUpdate performs the equation (1) update W ← W − β·v on the
// control-unit master copy, where v is the plain gradient at µ = 0 and the
// heavy-ball velocity v ← µ·v + δW otherwise. Banks are reprogrammed
// lazily on the next forward pass.
func (l *DenseLayer) ApplyUpdate(beta float64, grad [][]float64) {
	if l.momentum > 0 && l.velocity == nil {
		l.velocity = make([][]float64, l.spec.Out)
		for j := range l.velocity {
			l.velocity[j] = make([]float64, l.spec.In)
		}
	}
	for j := range l.w {
		for i := range l.w[j] {
			step := grad[j][i]
			if l.momentum > 0 {
				l.velocity[j][i] = l.momentum*l.velocity[j][i] + grad[j][i]
				step = l.velocity[j][i]
			}
			l.w[j][i] = clamp1(l.w[j][i] - beta*step)
		}
	}
	l.state = bankStale
}

func clamp1(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// Weights returns the master weight matrix (shared; callers must not
// mutate).
func (l *DenseLayer) Weights() [][]float64 { return l.w }

// Tiles exposes the layer's PE grid (shared; callers must not mutate the
// grid itself). Tile (r, c) holds the forward-layout weight block
// W[r·J:(r+1)·J, c·N:(c+1)·N].
func (l *DenseLayer) Tiles() [][]*PE { return l.tiles }

// TileDims returns the per-tile bank geometry (J rows, N cols).
func (l *DenseLayer) TileDims() (rows, cols int) { return l.rows, l.cols }

// Spec returns the layer's shape.
func (l *DenseLayer) Spec() LayerSpec { return l.spec }

// EnsureForward (re)programs the forward weight layout into the tile banks
// unless it is already resident — the precondition for self-test passes,
// which probe the banks with basis vectors through the inference path.
func (l *DenseLayer) EnsureForward() error {
	if l.state == bankForward {
		return nil
	}
	return l.programForward()
}

// Invalidate marks the tile banks stale so the next pass reprograms them —
// required after an out-of-band change to the logical→physical row maps.
func (l *DenseLayer) Invalidate() { l.state = bankStale }

// Derivs returns the latched derivative vector of the last forward pass.
func (l *DenseLayer) Derivs() []float64 { return l.derivs }
