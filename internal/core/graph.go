package core

// The shared execution graph. Both stacks — the digital reference
// (internal/nn) and this hardware-functional core — describe a model as a
// DAG of input/layer/concat/add nodes; here every layer node is a
// hardware-mapped stage whose weights live in tiled PCM-MRR banks, and the
// graph walk drives the Table II passes (forward MVM, gradient-vector
// transpose, outer product) through the worker pool exactly once.
// Sequential models are plain constructors over this graph — NewConvNet
// for conv stacks, NewNetwork (whose Network wrapper only adds state and
// replicas) for dense stacks; branched models add residual-add and
// channel-concat join nodes that model the optical summation and
// wavelength-merge cost.
//
// There is one execution walk: ForwardBatchInto for inference and
// TrainBatch for training (trainbatch.go). Forward, Predict and TrainSample
// run it with a batch of one; TrainEpoch and Accuracy run it over a whole
// labelled set.
//
// Determinism contract: the topological order is the construction order,
// every node's hardware passes run in that fixed order, and gradient
// accumulation at fan-out points copies the first contribution and adds
// later ones in node order — so losses, outputs, noise streams and ledgers
// of a sequential chain are bit-identical to the pre-graph drivers, serial
// or parallel.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"trident/internal/device"
	"trident/internal/tensor"
	"trident/internal/units"
)

// NodeID names a node in an execution graph.
type NodeID int

// ErrShapeOverflow reports a graph shape whose element count does not fit
// in an int.
var ErrShapeOverflow = errors.New("core: shape element count overflows int")

// mulDims returns the product of positive dims, or false when it overflows
// int.
func mulDims(dims ...int) (int, bool) {
	n := 1
	for _, d := range dims {
		if n > math.MaxInt/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

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

	// batchVal holds the node's output, sample-major: one micro-batch after
	// a forward walk (forwardStage), the whole batch after TrainBatch's.
	batchVal []float64

	// joinEvents counts optical join passes booked at this node (adds and
	// concats, one per sample). Keeping an integer count per node instead of
	// accumulating float energy on a shared graph ledger makes the booking
	// order-independent and single-writer-per-node, so pipelined stages can
	// book joins concurrently and the materialized ledger stays bit-identical
	// to the sequential walk.
	joinEvents int64

	gradSet bool // batchGrad holds a contribution this step

	// Conv forward slabs, sample-major and pixel-major within a sample:
	// serving reuses one chunk's worth for every chunk of a batch, training
	// keeps the whole batch for the backward walk (see convForward).
	batchPatches []float64 // conv: samples×pixels×In im2col patch rows
	batchPre     []float64 // conv: samples×pixels×Out pre-activations

	// Batched-training state and scratch (TrainBatch), all sample-major.
	// A conv node's transpose streams only its active pixel rows, compacted
	// in sample-then-pixel order (see backwardConvBatch).
	batchGrad      []float64 // batch×size upstream gradient slab
	batchDeltaH    []float64 // gated delta slab (Out dense, pixels×OutC conv)
	batchDIn       []float64 // batch×(producer size) input-gradient slab
	activeRows     []int     // conv: sample·pixels+pixel of each active row
	activeDelta    []float64 // conv: active rows' gated deltas, rows×OutC
	batchPatchGrad []float64 // conv: active rows' patch gradients, rows×In
}

// Graph is a hardware-mapped execution DAG: node 0 is the input, layer
// nodes execute on tiled PEs, and join nodes merge branches optically.
// Build it with Dense/Conv/GlobalAvgPool/Add/Concat, seal it with
// SetOutput, then run the batched paths, their batch-of-one wrappers
// Forward, Predict and TrainSample, or the whole-set TrainEpoch and
// Accuracy.
type Graph struct {
	cfg       NetworkConfig
	nodes     []*graphNode
	output    NodeID
	outputSet bool
	layers    []*DenseLayer // every hardware layer, in construction order
	buildErr  error

	// The forward walk's node range and micro-batch size, set by SetOutput
	// (see forwardStage); batchLogits is PredictBatch's reused scratch.
	whole       pipeStage
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
		size, ok := mulDims(c, h, w)
		if !ok {
			return nil, fmt.Errorf("%w: graph input shape %v", ErrShapeOverflow, inputShape)
		}
		in.c, in.h, in.w = c, h, w
		in.size = size
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
	// The node value (OutC·pixels) and one sample's im2col patches
	// (InC·KH·KW·pixels) must both be addressable.
	size, ok := mulDims(spec.OutC, spec.OutH(), spec.OutW())
	if _, okPatches := mulDims(spec.InC, spec.KH, spec.KW, spec.OutH(), spec.OutW()); !ok || !okPatches {
		return g.failErr(fmt.Errorf("%w: conv node %d→%d channels over %dx%d pixels with a %dx%d kernel",
			ErrShapeOverflow, spec.InC, spec.OutC, spec.OutH(), spec.OutW(), spec.KH, spec.KW))
	}
	l, err := newDenseLayer(g.cfg, LayerSpec{In: spec.InC * spec.KH * spec.KW, Out: spec.OutC}, seed)
	if err != nil {
		return g.failErr(err)
	}
	g.layers = append(g.layers, l)
	return g.push(&graphNode{
		kind: nodeConv, in: []NodeID{in},
		size: size,
		c:    spec.OutC, h: spec.OutH(), w: spec.OutW(),
		layer: l, spec: spec,
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

// denseMicroBatch is the forward walk's micro-batch on a graph without a
// conv node: the compiled GEMM's sample panel (mrr's gemmSampleBlock).
const denseMicroBatch = 32

// SetOutput seals the graph, surfacing any error recorded while building.
// It also fixes the forward walk's micro-batch size from the graph's shape:
// as many whole samples as keep the widest conv node within convChunkCols
// pixel rows, or denseMicroBatch without a conv node.
func (g *Graph) SetOutput(id NodeID) error {
	if g.buildErr != nil {
		return g.buildErr
	}
	if int(id) <= 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("core: graph output node %d not defined", id)
	}
	g.output = id
	g.outputSet = true
	g.whole = pipeStage{lo: 1, hi: len(g.nodes) - 1, micro: denseMicroBatch}
	pixels := 0
	for _, n := range g.nodes {
		if n.kind == nodeConv && n.h*n.w > pixels {
			pixels = n.h * n.w
			g.whole.micro = max(1, convChunkCols/pixels)
		}
	}
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

// TrainEpoch runs one in-situ training epoch over a labelled set: it walks
// xs in order, batch samples at a time, through TrainBatch and returns the
// last batch's loss. The trailing partial batch trains at its natural size;
// a batch of one is exactly a TrainSample loop. An empty set trains nothing.
func (g *Graph) TrainEpoch(xs []*tensor.Tensor, labels []int, batch int) (float64, error) {
	if batch < 1 {
		return 0, fmt.Errorf("core: training batch %d must be positive", batch)
	}
	if len(xs) != len(labels) {
		return 0, fmt.Errorf("core: %d inputs vs %d labels", len(xs), len(labels))
	}
	in := g.InputSize()
	buf := make([]float64, min(batch, len(xs))*in)
	var loss float64
	for at := 0; at < len(xs); at += batch {
		end := min(at+batch, len(xs))
		if err := g.pack(buf, xs[at:end]); err != nil {
			return 0, err
		}
		var err error
		if loss, err = g.TrainBatch(buf[:(end-at)*in], labels[at:end]); err != nil {
			return 0, err
		}
	}
	return loss, nil
}

// Accuracy scores the graph on a labelled set with one PredictBatch call:
// the fraction of samples whose argmax class matches the label, and 0 for
// an empty set. Outputs, noise streams and ledgers are those of a Predict
// loop over the set.
func (g *Graph) Accuracy(xs []*tensor.Tensor, labels []int) (float64, error) {
	if len(xs) != len(labels) {
		return 0, fmt.Errorf("core: %d inputs vs %d labels", len(xs), len(labels))
	}
	if len(xs) == 0 {
		return 0, nil
	}
	buf := make([]float64, len(xs)*g.InputSize())
	if err := g.pack(buf, xs); err != nil {
		return 0, err
	}
	pred, err := g.PredictBatch(nil, buf, len(xs))
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, cls := range pred {
		if cls == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs)), nil
}

// pack copies xs into dst sample-major, checking that every sample has the
// graph's input size.
func (g *Graph) pack(dst []float64, xs []*tensor.Tensor) error {
	in := g.InputSize()
	for i, x := range xs {
		if x.Len() != in {
			return fmt.Errorf("core: graph input %d, want %d", x.Len(), in)
		}
		copy(dst[i*in:], x.Data())
	}
	return nil
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

// ForwardBatchInto streams a batch through every node in topological
// order: sample s's input occupies xs[s*In : (s+1)*In] and its output
// lands in dst[s*Out : (s+1)*Out]. The walk runs the whole graph over one
// micro-batch at a time (see forwardStage), each tile seeing its samples in
// batch order, so outputs, noise streams and ledgers are bit-identical to
// calling Forward once per sample. Serving-only: no training state is
// saved (TrainBatch runs its own forward walk).
func (g *Graph) ForwardBatchInto(dst, xs []float64, batch int) ([]float64, error) {
	return g.ForwardBatchIntoCtx(context.Background(), dst, xs, batch)
}

// ForwardBatchIntoCtx is ForwardBatchInto with cancellation checkpoints
// before every node of every micro-batch: when ctx is cancelled the walk
// stops before the next node runs and the context's error is returned. A
// batch that completes is bit-identical to an uncancelled one —
// cancellation never yields partial output, it yields an error. This is the
// hook the serving front-end uses to abort in-flight micro-batches on hard
// shutdown without tearing a bank pass in half: checkpoints sit *between*
// hardware passes, so a cancelled batch leaves every bank in a consistent
// state.
func (g *Graph) ForwardBatchIntoCtx(ctx context.Context, dst, xs []float64, batch int) ([]float64, error) {
	if !g.outputSet {
		return nil, fmt.Errorf("core: graph output not set")
	}
	in := g.nodes[0].size
	if batch < 0 || len(xs) < batch*in {
		return nil, fmt.Errorf("core: batch %d×%d needs %d inputs, have %d",
			batch, in, batch*in, len(xs))
	}
	dst = growFloats(dst, batch*g.nodes[g.output].size)
	if err := g.forwardStage(ctx, &g.whole, xs, dst, batch); err != nil {
		return nil, err
	}
	return dst, nil
}

// forwardStage is the one forward walk: ForwardBatchIntoCtx runs it over
// the whole graph and each pipeline stage over its node range. It runs st's
// nodes over `batch` samples, st.micro at a time, in ascending micro-batch
// order (or in the order indices arrive on st.recv, until it closes), with
// in holding node st.inID's value for the batch, and checks ctx before every
// node. The range holding the graph output copies each micro-batch's output
// into dst; a stage with a successor copies its boundary value into the
// successor's buffer and sends the index on. Node values and layer scratch
// hold one micro-batch, so forward memory follows the graph, not the batch.
// Pipeline stages also time their compute for StageOccupancy.
func (g *Graph) forwardStage(ctx context.Context, st *pipeStage, in, dst []float64, batch int) error {
	w := g.nodes[st.inID].size
	outSize := g.nodes[g.output].size
	holdsOut := st.lo <= int(g.output) && int(g.output) <= st.hi
	micro := st.micro
	st.busy = 0
	for k := 0; k*micro < batch; k++ {
		mb := k
		if st.recv != nil {
			var ok bool
			if mb, ok = <-st.recv; !ok {
				return nil // upstream stage failed and reports the error
			}
		}
		off := mb * micro
		n := min(micro, batch-off)
		cur := in[off*w : (off+n)*w]
		var t0 time.Time
		if st.p != nil {
			t0 = time.Now()
		}
		for i := st.lo; i <= st.hi; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: batched forward cancelled before node %d: %w", i, err)
			}
			if err := g.forwardNodeBatch(g.nodes[i], n, st.inID, cur, false); err != nil {
				return err
			}
		}
		if st.p != nil {
			st.busy += time.Since(t0)
		}
		if holdsOut {
			copy(dst[off*outSize:(off+n)*outSize], g.nodes[g.output].batchVal[:n*outSize])
		}
		if st.next != nil {
			b := g.nodes[st.hi]
			copy(st.next.in[off*b.size:(off+n)*b.size], b.batchVal[:n*b.size])
			st.next.recv <- mb
		}
	}
	return nil
}

// valOf returns node id's batch value: in when id is the walk's external
// input inID, else the node's graph-owned scratch.
func (g *Graph) valOf(id, inID NodeID, in []float64) []float64 {
	if id == inID {
		return in
	}
	return g.nodes[id].batchVal
}

// forwardNodeBatch runs one node over a batch, reading its producers'
// values through valOf: in is the value of the walk's external input inID.
// keep is convForward's: training keeps a conv node's whole-batch slabs.
func (g *Graph) forwardNodeBatch(n *graphNode, batch int, inID NodeID, in []float64, keep bool) error {
	prod := g.nodes[n.in[0]]
	pv := g.valOf(n.in[0], inID, in)
	switch n.kind {
	case nodeDense:
		y, err := n.layer.ForwardBatchInto(n.batchVal, pv, batch)
		if err != nil {
			return err
		}
		n.batchVal = y
	case nodeConv:
		return g.convForward(n, batch, pv, keep)
	case nodeGAP:
		pixels := prod.h * prod.w
		n.batchVal = growFloats(n.batchVal, batch*n.size)
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
		av, bv := pv, g.valOf(n.in[1], inID, in)
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
				copy(out[off:off+p.size], g.valOf(id, inID, in)[smp*p.size:(smp+1)*p.size])
				off += p.size
			}
			n.bookJoin()
		}
	}
	return nil
}

// convChunkCols bounds the pixel rows of one conv layer pass: a chunk
// carries as many whole samples as fit (at least one), so the stripe
// scratch is the same size for any batch.
const convChunkCols = 256

// convForward is the one conv forward walk, shared by serving and training.
// pv holds the producer's values for the whole batch. Samples go in chunks
// of whole samples of at most convChunkCols pixels: each sample of a chunk
// is lowered pixel-major into the node's batchPatches slab, one patch row
// per output pixel, so the chunk is a batch of samples·pixels input vectors
// for the kernel layer's dense pass (its Activate is false). The pass
// leaves pixel-major pre-activations in batchPre, and the GST curve fires
// per output pixel into the CHW node value. Serving (keep false) reuses a
// slab of one chunk; training (keep true) keeps every sample's patches and
// pre-activations for the backward walk. Every tile sees the samples in
// batch order either way, so outputs, noise streams and ledgers do not
// depend on the chunking.
func (g *Graph) convForward(n *graphNode, batch int, pv []float64, keep bool) error {
	inSize := g.nodes[n.in[0]].size
	l := n.layer
	out := l.spec.Out
	pixels := n.h * n.w
	patchSize := l.spec.In * pixels
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
		for smp := s0; smp < s1; smp++ {
			tensor.Im2ColInto(patches[(smp-s0)*patchSize:], pv[smp*inSize:(smp+1)*inSize], n.spec, 0)
		}
		pre, err := l.ForwardBatchInto(n.batchPre[at*n.size:(at+s1-s0)*n.size], patches, (s1-s0)*pixels)
		if err != nil {
			return err
		}
		for smp := s0; smp < s1; smp++ {
			hs := pre[(smp-s0)*n.size : (smp-s0+1)*n.size]
			vs := n.batchVal[smp*n.size : (smp+1)*n.size]
			for p := 0; p < pixels; p++ {
				for j, h := range hs[p*out : (p+1)*out] {
					vs[j*pixels+p] = l.actCells.Eval(h)
				}
			}
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
	return argmaxRows(dst, logits, batch, g.nodes[g.output].size), nil
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
	g.ForEachPE(func(_, _, _ int, pe *PE) { total += pe.Bank().MaskedRowCount() })
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
	g.ForEachPE(func(_, _, _ int, _ *PE) { total++ })
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
	g.ForEachPE(func(_, _, _ int, pe *PE) { pe.bank.RotateRows(k) })
	for _, l := range g.layers {
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
	var err error
	g.ForEachPE(func(li, r, c int, pe *PE) {
		if err != nil {
			return
		}
		count := int(fraction * float64(pe.Rows()*pe.Cols()))
		if count == 0 && fraction > 0 {
			count = 1
		}
		if _, err = pe.InjectRandomFaults(count, kind,
			seed+int64(li)*1000+int64(r)*100+int64(c)); err == nil {
			total += count
		}
	})
	return total, err
}

// FaultCount returns the number of stuck cells across the graph.
func (g *Graph) FaultCount() int {
	total := 0
	g.ForEachPE(func(_, _, _ int, pe *PE) { total += pe.FaultCount() })
	return total
}

// FaultEvents returns every fault event across the graph, merged in fixed
// (layer, tileRow, tileCol, occurrence) order so the list is deterministic
// regardless of how many workers executed the passes that triggered them.
func (g *Graph) FaultEvents() []NetworkFaultEvent {
	var out []NetworkFaultEvent
	g.ForEachPE(func(li, r, c int, pe *PE) {
		for _, ev := range pe.FaultEvents() {
			out = append(out, NetworkFaultEvent{Layer: li, TileRow: r, TileCol: c, FaultEvent: ev})
		}
	})
	return out
}
