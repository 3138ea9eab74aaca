package core

// Pipelined stage-sharded execution. A sealed Graph is partitioned into K
// contiguous stages — each stage a run of consecutive nodes whose hardware
// layers act as one simulated chip — and micro-batches stream through
// double-buffered inter-stage queues so stage k computes micro-batch b while
// stage k+1 computes b−1. Steady-state throughput approaches the slowest
// stage instead of the sum of stages, which is the weight-stationary payoff:
// every bank already holds its layer's weights permanently, so concurrent
// stage execution costs no reprogramming. The overlap starts only once the
// pipeline has filled and ends as it drains, and at each end every stage
// but the slowest idles for one micro-batch; the auto micro-batch size
// (microFor) cuts a call into up to about 8K micro-batches so that this
// bubble is a small slice of the call, but keeps each micro-batch large
// enough that per-handoff overhead does not outweigh what it saves.
//
// Determinism contract (same bar as the rest of the package): outputs, noise
// streams and energy ledgers are bit-identical to the unpipelined
// ForwardBatchInto at any stage count, micro-batch size and worker count.
// The argument: stages own disjoint node ranges, so every layer, PE and
// per-node scratch buffer has exactly one writer; each PE sees its samples
// in ascending global order (micro-batches are dispatched in order within a
// stage), and the batched path is itself bit-identical to per-sample
// forwards, so any micro-batch split reproduces the full-batch streams; and
// join energy is booked as per-node integer event counts materialized in
// fixed node order (graph.go), so booking is order-independent.
//
// Legal cuts: a stage boundary may fall only after node p when no node
// before p is consumed after p — then exactly one value (node p's output)
// crosses the boundary, and branches (Add/Concat joins) stay whole within a
// stage. PipelinePlan exposes the per-node costs and the legal-cut mask;
// internal/dataflow turns them into a balanced partition.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// PipelinePlan describes the sealed graph to the stage partitioner: one cost
// per executable node (nodes 1..N−1, the input node excluded) on the
// dataflow cost model — dense nodes cost their tile count, conv nodes tile
// count × output pixels (one streamed im2col column per pixel), joins and
// pools cost 1 — and a mask marking after which of those nodes a stage cut
// is legal. legal[i] covers a cut after node i+1; a cut is legal when every
// value produced before it is also consumed before it, so only the cut
// node's output crosses the boundary.
func (g *Graph) PipelinePlan() (costs []int64, legal []bool) {
	n := len(g.nodes)
	lastUse := make([]int, n)
	for i := range lastUse {
		lastUse[i] = i // unconsumed nodes are their own last use
	}
	for i, nd := range g.nodes {
		for _, id := range nd.in {
			if i > lastUse[id] {
				lastUse[id] = i
			}
		}
	}
	costs = make([]int64, n-1)
	legal = make([]bool, n-1)
	maxUse := lastUse[0]
	for i := 1; i < n; i++ {
		nd := g.nodes[i]
		switch nd.kind {
		case nodeDense:
			costs[i-1] = int64(len(nd.layer.tiles) * len(nd.layer.tiles[0]))
		case nodeConv:
			costs[i-1] = int64(len(nd.layer.tiles)*len(nd.layer.tiles[0])) *
				int64(nd.spec.OutH()*nd.spec.OutW())
		default:
			costs[i-1] = 1
		}
		// A cut after node i is legal when nothing produced before i
		// outlives it; node i's own output is the one crossing value.
		if i < n-1 {
			legal[i-1] = maxUse <= i
		}
		if lastUse[i] > maxUse {
			maxUse = lastUse[i]
		}
	}
	return costs, legal
}

// pipeStage is one simulated chip: a contiguous node range [lo, hi], the
// single external producer feeding it, and the double-buffered input slots
// it owns (the upstream stage copies the boundary value in, this stage reads
// it back out — ping-pong over two slots so the producer is never stalled
// behind a single in-flight buffer).
type pipeStage struct {
	lo, hi int    // node index range, inclusive
	inID   NodeID // external producer: the preceding cut node (0 = graph input)
	slots  [2][]float64
	busy   time.Duration // compute time this ForwardBatchPipelined call
}

// pipeToken hands a filled input slot downstream. Slot ownership round-trips
// through two channels per boundary: `ready` carries filled slot indices
// down, `free` carries drained ones back up; both have capacity 2, matching
// the two slots, so sends never block and the channel handoff provides the
// happens-before edge between the producer's copy and the consumer's read.
type pipeToken struct {
	slot int
}

// Pipeline drives one sealed Graph through stage-sharded micro-batched
// execution. It is not safe for concurrent calls — it shares the graph's
// scratch buffers exactly like the sequential batched path (the serving
// batcher's execute token already serializes callers, and the drain protocol
// therefore still fences the whole pipeline before BIST/refresh).
type Pipeline struct {
	g      *Graph
	stages []*pipeStage
	cuts   []int // node indices the partition cut after (diagnostics)
	micro  int   // configured micro-batch size; 0 = auto (see microFor)
	floor  int   // auto size's lower bound: ⌈microMinPasses / bottleneck cost⌉
	out    int   // stage index owning the graph output node

	occ    []float64 // last call's per-stage occupancy (busy/wall)
	logits []float64 // PredictBatchCtx scratch
}

// NewPipeline shards a sealed graph into len(cuts)+1 contiguous stages, each
// cut falling after the given node index. Cuts must be strictly increasing,
// inside [1, N−2], and legal per PipelinePlan — use dataflow.PlanStages to
// compute a balanced legal cut set. microBatch fixes the micro-batch size; 0
// picks ⌈batch/(8K)⌉ per call, but never fewer samples than carry
// microMinPasses tile passes through the costliest stage (see microFor).
func NewPipeline(g *Graph, cuts []int, microBatch int) (*Pipeline, error) {
	if !g.outputSet {
		return nil, fmt.Errorf("core: pipeline needs a sealed graph (output not set)")
	}
	if microBatch < 0 {
		return nil, fmt.Errorf("core: micro-batch %d must be ≥ 0", microBatch)
	}
	costs, legal := g.PipelinePlan()
	prev := 0
	for _, c := range cuts {
		if c <= prev || c > len(g.nodes)-2 {
			return nil, fmt.Errorf("core: pipeline cut after node %d invalid (want strictly increasing in [1,%d])",
				c, len(g.nodes)-2)
		}
		if !legal[c-1] {
			return nil, fmt.Errorf("core: pipeline cut after node %d crosses a live value (a branch or skip edge spans it)", c)
		}
		prev = c
	}
	p := &Pipeline{g: g, cuts: append([]int(nil), cuts...), micro: microBatch}
	lo := 1
	in := NodeID(0)
	for _, c := range cuts {
		p.stages = append(p.stages, &pipeStage{lo: lo, hi: c, inID: in})
		lo, in = c+1, NodeID(c)
	}
	p.stages = append(p.stages, &pipeStage{lo: lo, hi: len(g.nodes) - 1, inID: in})
	var bottleneck int64
	for i, st := range p.stages {
		if st.lo <= int(g.output) && int(g.output) <= st.hi {
			p.out = i
		}
		var cost int64
		for j := st.lo; j <= st.hi; j++ {
			cost += costs[j-1]
		}
		bottleneck = max(bottleneck, cost)
	}
	p.floor = int((microMinPasses + bottleneck - 1) / bottleneck)
	p.occ = make([]float64, len(p.stages))
	return p, nil
}

// Stages returns the stage count K.
func (p *Pipeline) Stages() int { return len(p.stages) }

// Cuts returns the node indices each stage boundary falls after.
func (p *Pipeline) Cuts() []int { return append([]int(nil), p.cuts...) }

// InputSize returns the graph input width (the serve.Engine contract).
func (p *Pipeline) InputSize() int { return p.g.InputSize() }

// StageOccupancy returns each stage's busy-time fraction of the last
// ForwardBatchPipelined call's wall time — the serving stats' per-stage
// utilization signal. A balanced pipeline at steady state reads near-equal
// fractions; a dominant stage reads ~1.0 while its neighbours idle.
func (p *Pipeline) StageOccupancy() []float64 {
	return append([]float64(nil), p.occ...)
}

// StageInfo describes one stage for logs and /stats.
type StageInfo struct {
	Nodes         int   // executable nodes in the stage
	PEs           int   // PE tiles across the stage's layers
	BoundaryElems int   // elements crossing into the next stage (0 for the last)
	Cost          int64 // dataflow cost-model total
}

// StageInfos returns the per-stage shape of the partition.
func (p *Pipeline) StageInfos() []StageInfo {
	costs, _ := p.g.PipelinePlan()
	infos := make([]StageInfo, len(p.stages))
	for i, st := range p.stages {
		info := StageInfo{Nodes: st.hi - st.lo + 1}
		for j := st.lo; j <= st.hi; j++ {
			n := p.g.nodes[j]
			info.Cost += costs[j-1]
			if n.layer != nil {
				info.PEs += len(n.layer.tiles) * len(n.layer.tiles[0])
			}
		}
		if i < len(p.stages)-1 {
			info.BoundaryElems = p.g.nodes[st.hi].size
		}
		infos[i] = info
	}
	return infos
}

// microPerStage is the auto micro-batch rule's split: a call is cut into
// at most about microPerStage·K micro-batches, which makes the pipeline's
// fill and drain a small slice of the call.
const microPerStage = 8

// microMinPasses bounds the auto micro-batch size from below: a micro-batch
// carries at least this many tile passes (PipelinePlan's cost unit) through
// the costliest stage, so the fixed cost of each stage handoff and node
// fan-out stays a small share of the work it moves. Measured on the
// four-conv CNN (448 passes per sample in its costlier stage at K=2, 320 at
// K=4) micro-batches of 1 and 2 ran slower than 4 at batches of 16 and 64;
// on the serving MLPs (15 passes per sample) every split ran slower than
// one micro-batch per call (DESIGN.md §16).
const microMinPasses = 1024

// microFor picks the micro-batch size for one call: the configured size
// clamped to the batch, or ⌈batch/(microPerStage·K)⌉ raised to the
// pipeline's floor (microMinPasses over its costliest stage's passes per
// sample) and clamped to the batch. With whole-call stage times T_k, a call
// of M micro-batches takes about max_k T_k + (Σ_k T_k − max_k T_k)/M plus
// M times the per-micro-batch overhead: the pipeline fills and drains once,
// and every stage but the slowest idles for one micro-batch at each end, so
// the bubble shrinks as 1/M while the overhead grows with M.
func (p *Pipeline) microFor(batch int) int {
	if p.micro > 0 {
		return min(p.micro, batch)
	}
	split := microPerStage * len(p.stages)
	return min(max((batch+split-1)/split, p.floor), batch)
}

// ForwardBatchPipelined streams a batch through the stage pipeline; see
// ForwardBatchPipelinedCtx.
func (p *Pipeline) ForwardBatchPipelined(dst, xs []float64, batch int) ([]float64, error) {
	return p.ForwardBatchPipelinedCtx(context.Background(), dst, xs, batch)
}

// ForwardBatchPipelinedCtx runs one batched inference with each stage on its
// own goroutine, micro-batches flowing through the double-buffered boundary
// slots. Outputs and ledgers are bit-identical to ForwardBatchIntoCtx (see
// the package comment above for the argument). Cancellation checkpoints sit
// between node passes inside every stage, exactly like the sequential path:
// a cancelled call returns the context error and never partial output, and
// every bank is left in a consistent state because checkpoints never split a
// hardware pass.
func (p *Pipeline) ForwardBatchPipelinedCtx(ctx context.Context, dst, xs []float64, batch int) ([]float64, error) {
	g := p.g
	in := g.nodes[0].size
	if batch < 0 || len(xs) < batch*in {
		return nil, fmt.Errorf("core: batch %d×%d needs %d inputs, have %d",
			batch, in, batch*in, len(xs))
	}
	outSize := g.nodes[g.output].size
	dst = growFloats(dst, batch*outSize)
	if batch == 0 {
		return dst, nil
	}

	micro := p.microFor(batch)
	nMicro := (batch + micro - 1) / micro
	K := len(p.stages)

	// Pre-size every boundary slot before the workers launch so no slice
	// header is written concurrently with a read.
	for s := 1; s < K; s++ {
		st := p.stages[s]
		want := micro * g.nodes[st.inID].size
		for i := range st.slots {
			st.slots[i] = growFloats(st.slots[i], want)
		}
	}
	ready := make([]chan pipeToken, K)
	free := make([]chan int, K)
	for s := 1; s < K; s++ {
		ready[s] = make(chan pipeToken, 2)
		free[s] = make(chan int, 2)
		free[s] <- 0
		free[s] <- 1
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, K)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < K; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := p.stages[s]
			st.busy = 0
			for mb := 0; mb < nMicro; mb++ {
				off := mb * micro
				n := micro
				if off+n > batch {
					n = batch - off
				}
				// Resolve this micro-batch's external input: the raw xs
				// window for stage 0, a filled handoff slot otherwise.
				var cur []float64
				tok := pipeToken{slot: -1}
				if s == 0 {
					cur = xs[off*in : (off+n)*in]
				} else {
					select {
					case tok = <-ready[s]:
					case <-pctx.Done():
						errs[s] = p.cancelErr(ctx, st.lo)
						return
					}
					cur = st.slots[tok.slot]
				}
				val := func(id NodeID) []float64 {
					if id == st.inID {
						return cur
					}
					return g.nodes[id].batchVal
				}
				t0 := time.Now()
				for i := st.lo; i <= st.hi; i++ {
					if pctx.Err() != nil {
						errs[s] = p.cancelErr(ctx, i)
						return
					}
					if err := g.forwardNodeBatch(g.nodes[i], n, val); err != nil {
						errs[s] = err
						cancel()
						return
					}
				}
				st.busy += time.Since(t0)
				if tok.slot >= 0 {
					free[s] <- tok.slot // drained: hand the slot back upstream
				}
				if s == p.out {
					copy(dst[off*outSize:(off+n)*outSize], g.nodes[g.output].batchVal[:n*outSize])
				}
				if s < K-1 {
					// Copy the boundary value into a free downstream slot;
					// only after the copy lands may this stage overwrite its
					// own batchVal with the next micro-batch.
					b := g.nodes[st.hi]
					var idx int
					select {
					case idx = <-free[s+1]:
					case <-pctx.Done():
						errs[s] = p.cancelErr(ctx, st.hi)
						return
					}
					copy(p.stages[s+1].slots[idx][:n*b.size], b.batchVal[:n*b.size])
					ready[s+1] <- pipeToken{slot: idx}
				}
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(start)
	for s, st := range p.stages {
		f := 0.0
		if wall > 0 {
			f = float64(st.busy) / float64(wall)
		}
		if f > 1 {
			f = 1
		}
		p.occ[s] = f
	}
	// Deterministic error selection: the lowest-indexed stage's error wins.
	// Stages cancelled by a sibling's failure record nil (cancelErr), so the
	// surviving error is the root cause; external cancellation surfaces as
	// the context error regardless of which stage noticed first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: pipelined forward cancelled: %w", err)
	}
	return dst, nil
}

// cancelErr classifies a pipeline cancellation observed before node i: the
// caller's context going down is that context's error (wrapped like the
// sequential path's checkpoint message); an internal cancel triggered by a
// sibling stage's failure is nil here — the failing stage reports the root
// cause and this stage just unwinds.
func (p *Pipeline) cancelErr(ctx context.Context, node int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: batched forward cancelled before node %d: %w", node, err)
	}
	return nil
}

// PredictBatchCtx implements serve.Engine over the pipelined path, so an
// Instance can dispatch its micro-batches into the pipeline unchanged: one
// pipelined forward into pipeline-owned logits scratch, then a per-sample
// argmax. Classes are bit-identical to Graph.PredictBatchCtx because the
// logits are.
func (p *Pipeline) PredictBatchCtx(ctx context.Context, dst []int, xs []float64, batch int) ([]int, error) {
	logits, err := p.ForwardBatchPipelinedCtx(ctx, p.logits, xs, batch)
	if err != nil {
		return nil, err
	}
	p.logits = logits
	return argmaxRows(dst, logits, batch, p.g.nodes[p.g.output].size), nil
}
