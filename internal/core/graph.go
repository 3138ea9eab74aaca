package core

// The shared execution graph. Both stacks — the digital reference
// (internal/nn) and this hardware-functional core — describe a model as a
// DAG of input/layer/concat/add nodes; here every layer node is a
// hardware-mapped stage whose weights live in tiled PCM-MRR banks, and the
// graph walk drives the Table II passes (forward MVM, gradient-vector
// transpose, outer product) through the PR 1 worker pool exactly once,
// instead of per-driver. The sequential drivers (Network, CNN, DeepCNN)
// are thin constructors over this graph; branched models add residual-add
// and channel-concat join nodes that model the optical summation and
// wavelength-merge cost.
//
// There is one execution walk: ForwardBatchInto for inference and
// TrainBatch for training (trainbatch.go). Forward, Predict and TrainSample
// run it with a batch of one.
//
// Determinism contract: the topological order is the construction order,
// every node's hardware passes run in that fixed order, and gradient
// accumulation at fan-out points copies the first contribution and adds
// later ones in node order — so losses, outputs, noise streams and ledgers
// of a sequential chain are bit-identical to the pre-graph drivers, serial
// or parallel.

import (
	"context"
	"fmt"

	"trident/internal/device"
	"trident/internal/nn"
	"trident/internal/tensor"
	"trident/internal/units"
)

// NodeID names a node in an execution graph.
type NodeID int

type nodeKind int

const (
	nodeInput nodeKind = iota
	nodeDense
	nodeConv
	nodeGAP
	nodeAdd
	nodeConcat
)

// graphNode is one stage of the execution graph, with its hardware layer
// (dense and conv nodes) and its reusable batch state and scratch.
// Image-shaped values are CHW with c > 0; flat vectors have c = 0.
type graphNode struct {
	kind nodeKind
	in   []NodeID
	size int
	c    int
	h    int
	w    int

	layer *DenseLayer       // dense weights / conv kernel matrix on PEs
	spec  tensor.Conv2DSpec // conv nodes only
	act   *nn.GSTActivation // conv per-pixel activation

	// batchVal holds the node's output for the whole batch, sample-major.
	batchVal []float64

	// joinEvents counts optical join passes booked at this node (adds and
	// concats, one per sample). Keeping an integer count per node instead of
	// accumulating float energy on a shared graph ledger makes the booking
	// order-independent and single-writer-per-node, so pipelined stages can
	// book joins concurrently and the materialized ledger stays bit-identical
	// to the sequential walk.
	joinEvents int64

	// Backward scratch: conv input gradients go one sample at a time.
	gradSet bool           // batchGrad holds a contribution this step
	dIn     *tensor.Tensor // conv: one sample's ∂L/∂(input map)
	dInPart [][]float64    // conv: per-tile input-gradient buffers

	// Conv forward slabs, sample-major: serving reuses one chunk's worth
	// for every chunk of a batch, training keeps the whole batch for the
	// backward walk (see convForward).
	batchPatches []float64 // conv: samples×(In·pixels) im2col patches
	batchPre     []float64 // conv: samples×(Out·pixels) pre-activations

	// Batched-training state and scratch (TrainBatch), all sample-major.
	batchDerivs []float64 // dense: batch×Out LDSU-latched derivatives
	batchActive []bool    // conv: batch×pixels active-pixel masks
	batchGrad   []float64 // batch×size upstream gradient slab
	batchDeltaH []float64 // gated delta slab (Out dense, OutC·pixels conv)
	batchDIn    []float64 // batch×(producer size) input-gradient slab
}

// Graph is a hardware-mapped execution DAG: node 0 is the input, layer
// nodes execute on tiled PEs, and join nodes merge branches optically.
// Build it with Dense/Conv/GlobalAvgPool/Add/Concat, seal it with
// SetOutput, then run the batched paths or their batch-of-one wrappers
// Forward, Predict and TrainSample.
type Graph struct {
	cfg       NetworkConfig
	nodes     []*graphNode
	output    NodeID
	outputSet bool
	layers    []*DenseLayer // every hardware layer, in construction order
	buildErr  error

	// Batched-serving scratch (see PredictBatch), reused across calls.
	batchLogits []float64

	// Batched-training scratch (see TrainBatch), reused across calls;
	// sampleLabel is TrainSample's one-element label batch.
	batchDelta  []float64
	sampleLabel [1]int
}

// NewGraph starts a graph whose input is a flat vector ([n]) or a CHW
// image ([c h w]). The config is shared by every layer node added later.
func NewGraph(cfg NetworkConfig, inputShape ...int) (*Graph, error) {
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.05
	}
	if cfg.LearningRate < 0 {
		return nil, fmt.Errorf("core: learning rate %v must be positive", cfg.LearningRate)
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		return nil, fmt.Errorf("core: momentum %v outside [0,1)", cfg.Momentum)
	}
	in := &graphNode{kind: nodeInput}
	switch len(inputShape) {
	case 1:
		if inputShape[0] <= 0 {
			return nil, fmt.Errorf("core: graph input size %d must be positive", inputShape[0])
		}
		in.size = inputShape[0]
	case 3:
		c, h, w := inputShape[0], inputShape[1], inputShape[2]
		if c <= 0 || h <= 0 || w <= 0 {
			return nil, fmt.Errorf("core: graph input shape %v must be positive", inputShape)
		}
		in.c, in.h, in.w = c, h, w
		in.size = c * h * w
	default:
		return nil, fmt.Errorf("core: graph input shape must be [n] or [c h w], got %v", inputShape)
	}
	return &Graph{cfg: cfg, nodes: []*graphNode{in}}, nil
}

// Input returns the input node's ID.
func (g *Graph) Input() NodeID { return 0 }

// fail records the first build error and returns the invalid node ID;
// subsequent builder calls become no-ops and SetOutput surfaces the error.
func (g *Graph) fail(format string, args ...any) NodeID {
	if g.buildErr == nil {
		g.buildErr = fmt.Errorf(format, args...)
	}
	return NodeID(-1)
}

func (g *Graph) failErr(err error) NodeID {
	if g.buildErr == nil {
		g.buildErr = err
	}
	return NodeID(-1)
}

// producer resolves a builder argument, recording an error for IDs that
// don't name an existing node.
func (g *Graph) producer(id NodeID) (*graphNode, bool) {
	if g.buildErr != nil {
		return nil, false
	}
	if int(id) < 0 || int(id) >= len(g.nodes) {
		g.fail("core: graph node %d not defined", id)
		return nil, false
	}
	return g.nodes[id], true
}

func (g *Graph) push(n *graphNode) NodeID {
	g.nodes = append(g.nodes, n)
	return NodeID(len(g.nodes) - 1)
}

// Dense appends a dense layer node fed by `in`. Weights are Kaiming
// uniform from the deterministic seed and are programmed into the PCM
// banks immediately.
func (g *Graph) Dense(in NodeID, spec LayerSpec, seed int64) NodeID {
	prod, ok := g.producer(in)
	if !ok {
		return -1
	}
	if spec.In <= 0 || spec.Out <= 0 {
		return g.fail("core: dense node dims %d→%d must be positive", spec.In, spec.Out)
	}
	if prod.size != spec.In {
		return g.fail("core: dense node input %d does not match producer output %d", spec.In, prod.size)
	}
	l, err := newDenseLayer(g.cfg, spec, seed)
	if err != nil {
		return g.failErr(err)
	}
	g.layers = append(g.layers, l)
	return g.push(&graphNode{kind: nodeDense, in: []NodeID{in}, size: spec.Out, layer: l})
}

// Conv appends a convolution node fed by `in`: the kernel matrix
// (OutC × InC·KH·KW) lives in PCM-MRR banks, the control unit lowers each
// image to im2col patches streamed one per clock, and the GST activation
// fires per output pixel.
func (g *Graph) Conv(in NodeID, spec tensor.Conv2DSpec, seed int64) NodeID {
	prod, ok := g.producer(in)
	if !ok {
		return -1
	}
	if err := spec.Validate(); err != nil {
		return g.failErr(err)
	}
	if spec.Groups != 1 {
		return g.fail("core: conv node supports groups=1 (got %d)", spec.Groups)
	}
	if prod.c == 0 {
		return g.fail("core: conv node needs an image-shaped producer")
	}
	if prod.c != spec.InC || prod.h != spec.InH || prod.w != spec.InW {
		return g.fail("core: conv node input [%d %d %d] does not match producer [%d %d %d]",
			spec.InC, spec.InH, spec.InW, prod.c, prod.h, prod.w)
	}
	l, err := newDenseLayer(g.cfg, LayerSpec{In: spec.InC * spec.KH * spec.KW, Out: spec.OutC}, seed)
	if err != nil {
		return g.failErr(err)
	}
	act := nn.NewGSTActivation("gst", g.cfg.PE.ActivationThreshold)
	act.MaxOut = 1.0 // the physical cell saturates at full transmission
	g.layers = append(g.layers, l)
	return g.push(&graphNode{
		kind: nodeConv, in: []NodeID{in},
		size: spec.OutC * spec.OutH() * spec.OutW(),
		c:    spec.OutC, h: spec.OutH(), w: spec.OutW(),
		layer: l, spec: spec, act: act,
	})
}

// GlobalAvgPool appends a global-average-pooling node collapsing an
// image-shaped producer to one value per channel (digital control-unit
// work, like the im2col bookkeeping).
func (g *Graph) GlobalAvgPool(in NodeID) NodeID {
	prod, ok := g.producer(in)
	if !ok {
		return -1
	}
	if prod.c == 0 {
		return g.fail("core: global average pool needs an image-shaped producer")
	}
	return g.push(&graphNode{kind: nodeGAP, in: []NodeID{in}, size: prod.c})
}

// Add appends a residual-add join: the two branch signals sum optically
// and one balanced-photodetector/TIA event per element converts the
// combined power back to charge (booked under CatResidualJoin).
func (g *Graph) Add(a, b NodeID) NodeID {
	pa, ok := g.producer(a)
	if !ok {
		return -1
	}
	pb, ok := g.producer(b)
	if !ok {
		return -1
	}
	if pa.size != pb.size || pa.c != pb.c || pa.h != pb.h || pa.w != pb.w {
		return g.fail("core: add node branches have mismatched shapes (%d vs %d elements)", pa.size, pb.size)
	}
	return g.push(&graphNode{kind: nodeAdd, in: []NodeID{a, b}, size: pa.size, c: pa.c, h: pa.h, w: pa.w})
}

// Concat appends a channel-concat join over ≥2 image-shaped branches with
// matching spatial dims: the branch combs merge onto one wavelength plan,
// costing an E/O re-encode per element (booked under CatWavelengthMerge).
func (g *Graph) Concat(ins ...NodeID) NodeID {
	if len(ins) < 2 {
		return g.fail("core: concat node needs ≥2 inputs (got %d)", len(ins))
	}
	var first *graphNode
	channels := 0
	for _, id := range ins {
		p, ok := g.producer(id)
		if !ok {
			return -1
		}
		if p.c == 0 {
			return g.fail("core: concat node needs image-shaped producers")
		}
		if first == nil {
			first = p
		} else if p.h != first.h || p.w != first.w {
			return g.fail("core: concat node spatial dims [%d %d] do not match [%d %d]",
				p.h, p.w, first.h, first.w)
		}
		channels += p.c
	}
	return g.push(&graphNode{
		kind: nodeConcat, in: append([]NodeID(nil), ins...),
		size: channels * first.h * first.w,
		c:    channels, h: first.h, w: first.w,
	})
}

// SetOutput seals the graph, surfacing any error recorded while building.
func (g *Graph) SetOutput(id NodeID) error {
	if g.buildErr != nil {
		return g.buildErr
	}
	if int(id) <= 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("core: graph output node %d not defined", id)
	}
	g.output = id
	g.outputSet = true
	return nil
}

// bookJoin books one optical join pass at this node. The energy is
// materialized later by joinLedger from the integer event count, so booking
// is a single atomic-free increment with one writer per node (the stage that
// owns the node) and the ledger is independent of execution interleaving.
func (n *graphNode) bookJoin() { n.joinEvents++ }

// joinLedger materializes the optical join-node energy from the per-node
// event counts in fixed node order: each event is n.size per-element
// detections (add) or re-encodes (concat) drawing the per-element power for
// one clock period. Multiplying the exact per-pass energy by an integer
// count yields the same float64 as the sequential accumulation did, pass by
// pass, because each node's passes all cost the identical amount.
func (g *Graph) joinLedger() *Ledger {
	out := NewLedger()
	period := device.ClockRate.Period()
	for _, n := range g.nodes {
		if n.joinEvents == 0 {
			continue
		}
		var cat EnergyCategory
		var per units.Power
		switch n.kind {
		case nodeAdd:
			cat, per = CatResidualJoin, residualJoinPower()
		case nodeConcat:
			cat, per = CatWavelengthMerge, wavelengthMergePower()
		default:
			continue
		}
		perPass := units.Energy(float64(per.OverTime(period)) * float64(n.size))
		out.Add(cat, units.Energy(float64(perPass)*float64(n.joinEvents)))
		out.Advance(units.Duration(float64(period) * float64(n.joinEvents)))
	}
	return out
}

// residualJoinPower is the per-element detection cost of an add node: one
// balanced-photodetector/TIA front-end event (the same front end a bank
// row uses, PowerBPDTIA being the per-PE figure across WeightBankRows
// detector rows).
func residualJoinPower() units.Power {
	return units.Power(device.PowerBPDTIA.Watts() / float64(device.WeightBankRows))
}

// wavelengthMergePower is the per-element re-encode cost of a concat node:
// one E/O modulation event per merged element (PowerEOLaser being the
// per-PE figure across WeightBankCols wavelength channels).
func wavelengthMergePower() units.Power {
	return units.Power(device.PowerEOLaser.Watts() / float64(device.WeightBankCols))
}

// Forward runs one sample through the graph as a batch of one (see
// ForwardBatchInto) and returns the output node's value in a fresh slice.
func (g *Graph) Forward(x []float64) ([]float64, error) {
	if len(x) != g.InputSize() {
		return nil, fmt.Errorf("core: graph input %d, want %d", len(x), g.InputSize())
	}
	return g.ForwardBatchInto(nil, x, 1)
}

// Predict returns the argmax class (first wins on ties).
func (g *Graph) Predict(x []float64) (int, error) {
	y, err := g.Forward(x)
	if err != nil {
		return 0, err
	}
	return argmax(y), nil
}

// TrainSample runs one full in-situ training step — forward pass, backward
// gradient-vector passes, weight-gradient contraction, and the equation (1)
// update — entirely through the hardware model, as a TrainBatch of one. It
// returns the cross-entropy loss.
func (g *Graph) TrainSample(x []float64, label int) (float64, error) {
	if len(x) != g.InputSize() {
		return 0, fmt.Errorf("core: graph input %d, want %d", len(x), g.InputSize())
	}
	g.sampleLabel[0] = label
	return g.TrainBatch(x, g.sampleLabel[:])
}

// col2imAddRows scatters rows [j0, j0+len(rows)) of one pixel's patch
// gradient back onto the flat input map.
func col2imAddRows(dst []float64, rows []float64, j0 int, s tensor.Conv2DSpec, pixel int) {
	outW := s.OutW()
	oy := pixel / outW
	ox := pixel % outW
	for rr, v := range rows {
		if v == 0 {
			continue
		}
		r := j0 + rr
		c := r / (s.KH * s.KW)
		kh := (r / s.KW) % s.KH
		kw := r % s.KW
		iy := oy*s.StrideH - s.PadH + kh
		ix := ox*s.StrideW - s.PadW + kw
		if iy < 0 || iy >= s.InH || ix < 0 || ix >= s.InW {
			continue
		}
		dst[c*s.InH*s.InW+iy*s.InW+ix] += v
	}
}

// ForwardBatch runs a full batched inference through the graph, returning
// the output sample-major in a fresh slice. See ForwardBatchInto.
func (g *Graph) ForwardBatch(xs []float64, batch int) ([]float64, error) {
	return g.ForwardBatchInto(nil, xs, batch)
}

// ForwardBatchInto streams a batch through every node in topological
// order: sample s's input occupies xs[s*In : (s+1)*In] and its output
// lands in dst[s*Out : (s+1)*Out]. Each node processes the whole batch
// before the next node starts, each tile seeing its samples in batch
// order, so outputs, noise streams and ledgers are bit-identical to
// calling Forward once per sample. Serving-only: no training state is
// saved (TrainBatch runs its own forward walk).
func (g *Graph) ForwardBatchInto(dst, xs []float64, batch int) ([]float64, error) {
	return g.ForwardBatchIntoCtx(context.Background(), dst, xs, batch)
}

// ForwardBatchIntoCtx is ForwardBatchInto with cancellation checkpoints
// between node stages: when ctx is cancelled the walk stops before the next
// node runs and the context's error is returned. A batch that completes is
// bit-identical to an uncancelled one — cancellation never yields partial
// output, it yields an error. This is the hook the serving front-end uses to
// abort in-flight micro-batches on hard shutdown without tearing a bank
// pass in half: checkpoints sit *between* hardware passes, so a cancelled
// batch leaves every bank in a consistent state.
func (g *Graph) ForwardBatchIntoCtx(ctx context.Context, dst, xs []float64, batch int) ([]float64, error) {
	if !g.outputSet {
		return nil, fmt.Errorf("core: graph output not set")
	}
	in := g.nodes[0].size
	if batch < 0 || len(xs) < batch*in {
		return nil, fmt.Errorf("core: batch %d×%d needs %d inputs, have %d",
			batch, in, batch*in, len(xs))
	}
	g.nodes[0].batchVal = xs
	for i := 1; i < len(g.nodes); i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: batched forward cancelled before node %d: %w", i, err)
		}
		if err := g.forwardNodeBatch(g.nodes[i], batch, g.batchValOf); err != nil {
			return nil, err
		}
	}
	out := g.nodes[g.output]
	dst = growFloats(dst, batch*out.size)
	copy(dst, out.batchVal[:batch*out.size])
	return dst, nil
}

// batchValOf is the default batch-value resolver: a node's input comes from
// its producer's graph-owned batch scratch. Pipeline stages substitute a
// resolver that redirects only the stage's external input to the
// double-buffered handoff slot (see pipeline.go); every intra-stage edge
// still resolves here.
func (g *Graph) batchValOf(id NodeID) []float64 { return g.nodes[id].batchVal }

// forwardNodeBatch runs one node over a whole batch, reading producer
// values through `val` (shape metadata still comes from the producer node —
// only the backing data is resolver-supplied).
func (g *Graph) forwardNodeBatch(n *graphNode, batch int, val func(NodeID) []float64) error {
	prod := g.nodes[n.in[0]]
	switch n.kind {
	case nodeDense:
		y, err := n.layer.ForwardBatchInto(n.batchVal, val(n.in[0]), batch)
		if err != nil {
			return err
		}
		n.batchVal = y
	case nodeConv:
		return g.convForward(n, batch, val(n.in[0]), false)
	case nodeGAP:
		pixels := prod.h * prod.w
		n.batchVal = growFloats(n.batchVal, batch*n.size)
		pv := val(n.in[0])
		for smp := 0; smp < batch; smp++ {
			data := pv[smp*prod.size : (smp+1)*prod.size]
			gap := n.batchVal[smp*n.size : (smp+1)*n.size]
			for oc := 0; oc < n.size; oc++ {
				var s float64
				for p := 0; p < pixels; p++ {
					s += data[oc*pixels+p]
				}
				gap[oc] = s / float64(pixels)
			}
		}
	case nodeAdd:
		n.batchVal = growFloats(n.batchVal, batch*n.size)
		av, bv := val(n.in[0]), val(n.in[1])
		for smp := 0; smp < batch; smp++ {
			a := av[smp*n.size : (smp+1)*n.size]
			b := bv[smp*n.size : (smp+1)*n.size]
			out := n.batchVal[smp*n.size : (smp+1)*n.size]
			for i := range out {
				out[i] = a[i] + b[i]
			}
			n.bookJoin()
		}
	case nodeConcat:
		n.batchVal = growFloats(n.batchVal, batch*n.size)
		for smp := 0; smp < batch; smp++ {
			out := n.batchVal[smp*n.size : (smp+1)*n.size]
			off := 0
			for _, id := range n.in {
				p := g.nodes[id]
				copy(out[off:off+p.size], val(id)[smp*p.size:(smp+1)*p.size])
				off += p.size
			}
			n.bookJoin()
		}
	}
	return nil
}

// convChunkCols bounds the pixel columns of one conv streamMVM call: a
// chunk carries as many whole samples as fit (at least one), so the
// per-tile stream scratch is the same size for any batch.
const convChunkCols = 256

// convForward is the one conv forward walk, shared by serving and training.
// pv holds the producer's values for the whole batch. Samples go in chunks
// of whole samples of at most convChunkCols pixel columns: each sample of a
// chunk is lowered by im2col into the node's sample-major batchPatches
// slab, one streamMVM call streams the chunk through every tile, and the
// GST activation fires per output pixel. Serving (keep false) reuses a slab
// of one chunk; training (keep true) keeps every sample's patches and
// pre-activations for the backward walk. Every tile sees the samples in
// batch order either way, so outputs, noise streams and ledgers do not
// depend on the chunking.
func (g *Graph) convForward(n *graphNode, batch int, pv []float64, keep bool) error {
	inSize := g.nodes[n.in[0]].size
	s := n.spec
	pixels := s.OutH() * s.OutW()
	patchSize := s.InC * s.KH * s.KW * pixels
	chunk := max(1, convChunkCols/pixels)
	slab := min(batch, chunk)
	if keep {
		slab = batch
	}
	n.batchVal = growFloats(n.batchVal, batch*n.size)
	n.batchPatches = growFloats(n.batchPatches, slab*patchSize)
	n.batchPre = growFloats(n.batchPre, slab*n.size)
	for s0 := 0; s0 < batch; s0 += chunk {
		s1 := min(s0+chunk, batch)
		at := 0
		if keep {
			at = s0
		}
		patches := n.batchPatches[at*patchSize : (at+s1-s0)*patchSize]
		pre := n.batchPre[at*n.size : (at+s1-s0)*n.size]
		for smp := s0; smp < s1; smp++ {
			tensor.Im2ColInto(patches[(smp-s0)*patchSize:], pv[smp*inSize:(smp+1)*inSize], s, 0)
		}
		if err := n.layer.streamMVM(patches, s1-s0, pixels, pre); err != nil {
			return err
		}
		out := n.batchVal[s0*n.size : s1*n.size]
		for i, h := range pre {
			out[i] = n.act.Eval(h)
		}
	}
	return nil
}

// PredictBatch returns the argmax class per sample, reusing dst when large
// enough. The logits buffer is graph-owned scratch, so repeated serving
// calls allocate nothing.
func (g *Graph) PredictBatch(dst []int, xs []float64, batch int) ([]int, error) {
	return g.PredictBatchCtx(context.Background(), dst, xs, batch)
}

// PredictBatchCtx is PredictBatch with the cancellation checkpoints of
// ForwardBatchIntoCtx.
func (g *Graph) PredictBatchCtx(ctx context.Context, dst []int, xs []float64, batch int) ([]int, error) {
	logits, err := g.ForwardBatchIntoCtx(ctx, g.batchLogits, xs, batch)
	if err != nil {
		return nil, err
	}
	g.batchLogits = logits
	classes := g.nodes[g.output].size
	if cap(dst) < batch {
		dst = make([]int, batch)
	}
	dst = dst[:batch]
	for s := 0; s < batch; s++ {
		dst[s] = argmax(logits[s*classes : (s+1)*classes])
	}
	return dst, nil
}

// InputSize returns the flat element count of the graph's input node.
func (g *Graph) InputSize() int { return g.nodes[0].size }

// Config returns the network configuration the graph was built with — the
// recipe replica construction reuses so twins come up on identical
// hardware settings.
func (g *Graph) Config() NetworkConfig { return g.cfg }

// OutputSize returns the flat element count of the output node (0 until
// SetOutput has sealed the graph).
func (g *Graph) OutputSize() int {
	if !g.outputSet {
		return 0
	}
	return g.nodes[g.output].size
}

// MaskedRowCount returns the number of retired physical bank rows across
// the whole graph — the serving front-end's graceful-degradation signal.
func (g *Graph) MaskedRowCount() int {
	total := 0
	for _, l := range g.layers {
		for _, row := range l.tiles {
			for _, pe := range row {
				total += pe.Bank().MaskedRowCount()
			}
		}
	}
	return total
}

// Layers returns every hardware layer in construction order (dense layers
// and conv kernels alike).
func (g *Graph) Layers() []*DenseLayer { return g.layers }

// Ledger returns a merged energy ledger: every PE tile of every layer,
// plus the optical join-node bookings.
func (g *Graph) Ledger() *Ledger {
	out := mergeTileLedgers(g.layers)
	joins := g.joinLedger()
	out.Merge(joins)
	if j := joins.Elapsed(); j > out.Elapsed() {
		out.Advance(j - out.Elapsed())
	}
	return out
}

// PECount returns the number of PE tiles in the graph.
func (g *Graph) PECount() int {
	total := 0
	for _, l := range g.layers {
		for _, row := range l.tiles {
			total += len(row)
		}
	}
	return total
}

// ForEachPE walks every PE tile in fixed (layer, tileRow, tileCol) order —
// the deterministic iteration the reliability engine uses to seed per-cell
// wear budgets and collect health state. Layer indices follow construction
// order.
func (g *Graph) ForEachPE(fn func(layer, tileRow, tileCol int, pe *PE)) {
	for li, l := range g.layers {
		for r := range l.tiles {
			for c, pe := range l.tiles[r] {
				fn(li, r, c, pe)
			}
		}
	}
}

// CompileBanks brings every bank's compiled effective-weight snapshot up to
// date, paying any pending recompilation — full after drift or rotation,
// dirty-rows-only after refresh pulses or overrides — at a moment the
// caller chooses instead of inside the first pass that follows. The
// reliability scheduler calls it at the end of each health check so serving
// resumes on warm snapshots. Tiles compile concurrently; each bank has a
// single writer, so the compiled images are independent of scheduling.
func (g *Graph) CompileBanks() {
	for _, l := range g.layers {
		tiles := l.tiles
		_ = runTiles(len(tiles), len(tiles[0]), func(r, c int) error {
			tiles[r][c].Bank().EnsureCompiled()
			return nil
		})
	}
}

// ApplyDrift ages every bank's readout by the given hold duration (see
// PE.ApplyDrift). Tiles age concurrently; each PE's state has a single
// writer, so the result is independent of scheduling.
func (g *Graph) ApplyDrift(hold units.Duration) {
	for _, l := range g.layers {
		tiles := l.tiles
		_ = runTiles(len(tiles), len(tiles[0]), func(r, c int) error {
			tiles[r][c].ApplyDrift(hold)
			return nil
		})
	}
}

// RotateWearLeveling advances every bank's logical→physical row rotation by
// k and invalidates the layers, so the next pass redistributes the weight
// rows across physical rings. Write traffic that concentrates on hot
// logical rows is thereby spread over all fabricated cells — classic
// wear-leveling, at the cost of one full reprogramming pass.
func (g *Graph) RotateWearLeveling(k int) {
	for _, l := range g.layers {
		for _, row := range l.tiles {
			for _, pe := range row {
				pe.bank.RotateRows(k)
			}
		}
		l.Invalidate()
	}
}

// InjectRandomFaults pins approximately `fraction` of every tile bank's
// cells across the whole graph, seeded deterministically. It returns the
// total number of pinned cells.
func (g *Graph) InjectRandomFaults(fraction float64, kind FaultKind, seed int64) (int, error) {
	if fraction < 0 || fraction > 1 {
		return 0, fmt.Errorf("core: fault fraction %v outside [0,1]", fraction)
	}
	total := 0
	for li, l := range g.layers {
		for r := range l.tiles {
			for c, pe := range l.tiles[r] {
				count := int(fraction * float64(pe.Rows()*pe.Cols()))
				if count == 0 && fraction > 0 {
					count = 1
				}
				if _, err := pe.InjectRandomFaults(count, kind,
					seed+int64(li)*1000+int64(r)*100+int64(c)); err != nil {
					return total, err
				}
				total += count
			}
		}
	}
	return total, nil
}

// FaultCount returns the number of stuck cells across the graph.
func (g *Graph) FaultCount() int {
	total := 0
	for _, l := range g.layers {
		for _, row := range l.tiles {
			for _, pe := range row {
				total += pe.FaultCount()
			}
		}
	}
	return total
}

// FaultEvents returns every fault event across the graph, merged in fixed
// (layer, tileRow, tileCol, occurrence) order so the list is deterministic
// regardless of how many workers executed the passes that triggered them.
func (g *Graph) FaultEvents() []NetworkFaultEvent {
	var out []NetworkFaultEvent
	for li, l := range g.layers {
		for r := range l.tiles {
			for c, pe := range l.tiles[r] {
				for _, ev := range pe.FaultEvents() {
					out = append(out, NetworkFaultEvent{Layer: li, TileRow: r, TileCol: c, FaultEvent: ev})
				}
			}
		}
	}
	return out
}
