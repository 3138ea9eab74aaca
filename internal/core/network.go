package core

import (
	"fmt"

	"trident/internal/device"
	"trident/internal/nn"
	"trident/internal/tensor"
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
	actCells *nn.GSTActivation

	// Execution-engine scratch, reused across passes. The stream slabs hold
	// one region per tile so concurrent tile passes never write shared
	// accumulators; the merge into the layer output happens afterwards in
	// fixed tile order.
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

// NewConvNet builds a convolutional classifier over the execution graph:
// the conv specs in order, each kernel matrix resident in PCM-MRR banks
// with the GST activation per pixel, then global average pooling and a
// dense head of `classes` outputs. Conv i is seeded 301+i and the head 401.
// Graph.Conv rejects grouped, invalid and mis-chained specs.
func NewConvNet(cfg NetworkConfig, specs []tensor.Conv2DSpec, classes int) (*Graph, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: conv net needs ≥1 conv layer")
	}
	if classes < 2 {
		return nil, fmt.Errorf("core: conv net needs ≥2 classes (got %d)", classes)
	}
	first := specs[0]
	g, err := NewGraph(cfg, first.InC, first.InH, first.InW)
	if err != nil {
		return nil, err
	}
	cur := g.Input()
	for i, s := range specs {
		cur = g.Conv(cur, s, 301+int64(i))
	}
	gap := g.GlobalAvgPool(cur)
	out := g.Dense(gap, LayerSpec{In: specs[len(specs)-1].OutC, Out: classes}, 401)
	if err := g.SetOutput(out); err != nil {
		return nil, fmt.Errorf("core: conv net: %w", err)
	}
	return g, nil
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
		spec: spec,
		rows: peCfg.Rows,
		cols: peCfg.Cols,
	}
	l.actCells = nn.NewGSTActivation("gst", 0)
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

// ApplyUpdate performs the equation (1) update W ← W − β·δW on the
// control-unit master copy. Banks are reprogrammed lazily on the next
// forward pass.
func (l *DenseLayer) ApplyUpdate(beta float64, grad [][]float64) {
	for j := range l.w {
		for i := range l.w[j] {
			l.w[j][i] = clamp1(l.w[j][i] - beta*grad[j][i])
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
