package core

// Pipelined stage-sharded execution. A sealed Graph is partitioned into K
// contiguous stages — each stage a run of consecutive nodes whose hardware
// layers act as one simulated chip — and micro-batches stream from stage to
// stage so stage k computes micro-batch b while stage k+1 computes b−1.
// Each downstream stage owns one full-batch input buffer that its upstream
// neighbour fills at each micro-batch's own offset, and one channel per cut
// carries the indices of finished micro-batches. Steady-state throughput
// approaches the slowest stage instead of the sum of stages, which is the
// weight-stationary payoff: every bank already holds its layer's weights
// permanently, so concurrent stage execution costs no reprogramming. The
// overlap starts only once the pipeline has filled and ends as it drains,
// and at each end every stage but the slowest idles for one micro-batch.
// The auto micro-batch size is the graph's own (see SetOutput), the one the
// sequential walk runs, so stage memory is bounded the same way; a
// 64-image batch of cnn-offline's CNN runs as 16 micro-batches of 4, and
// the bubble is a small slice of the call.
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
// single external producer feeding it, and — for every stage but the first
// — a full-batch copy of that producer's output, which the upstream stage
// fills one micro-batch at a time. Graph.whole is a range of its own.
type pipeStage struct {
	lo, hi int           // node index range, inclusive
	inID   NodeID        // external producer: the preceding cut node (0 = graph input)
	in     []float64     // upstream output for the whole call (stages ≥ 1)
	recv   chan int      // indices of the filled micro-batches of in (stages ≥ 1)
	next   *pipeStage    // downstream stage (all but the last pipeline stage)
	micro  int           // samples per micro-batch
	busy   time.Duration // compute time of the last call (pipeline stages only)
	p      *Pipeline     // nil for Graph.whole
	run    func()        // p's runStage for this stage, a method value made once
	err    error         // this call's result
}

// Pipeline drives one sealed Graph through stage-sharded micro-batched
// execution. It is not safe for concurrent calls: it shares the graph's
// scratch buffers exactly like the sequential batched path.
type Pipeline struct {
	g      *Graph
	stages []*pipeStage
	cuts   []int // node indices the partition cut after (diagnostics)

	occ []float64 // last call's per-stage occupancy (busy/wall)

	// The call's arguments, read by every stage.
	dst, xs []float64
	batch   int
	wg      sync.WaitGroup
}

// NewPipeline shards a sealed graph into len(cuts)+1 contiguous stages, each
// cut falling after the given node index. Cuts must be strictly increasing,
// inside [1, N−2], and legal per PipelinePlan — use dataflow.PlanStages to
// compute a balanced legal cut set. microBatch fixes the micro-batch size; 0
// runs the graph's own (see SetOutput).
func NewPipeline(g *Graph, cuts []int, microBatch int) (*Pipeline, error) {
	if !g.outputSet {
		return nil, fmt.Errorf("core: pipeline needs a sealed graph (output not set)")
	}
	if microBatch < 0 {
		return nil, fmt.Errorf("core: micro-batch %d must be ≥ 0", microBatch)
	}
	_, legal := g.PipelinePlan()
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
	if microBatch == 0 {
		microBatch = g.whole.micro
	}
	p := &Pipeline{g: g, cuts: append([]int(nil), cuts...)}
	lo := 1
	in := NodeID(0)
	for _, hi := range append(p.cuts, len(g.nodes)-1) {
		st := &pipeStage{lo: lo, hi: hi, inID: in, micro: microBatch, p: p}
		st.run = st.runStage
		if k := len(p.stages); k > 0 {
			p.stages[k-1].next = st
		}
		p.stages = append(p.stages, st)
		lo, in = hi+1, NodeID(hi)
	}
	p.occ = make([]float64, len(p.stages))
	return p, nil
}

// Stages returns the stage count K.
func (p *Pipeline) Stages() int { return len(p.stages) }

// Cuts returns the node indices each stage boundary falls after.
func (p *Pipeline) Cuts() []int { return append([]int(nil), p.cuts...) }

// StageOccupancy returns each stage's busy-time fraction of the last
// ForwardBatchPipelined call's wall time. A balanced pipeline at steady
// state reads near-equal fractions; a dominant stage reads ~1.0 while its
// neighbours idle.
func (p *Pipeline) StageOccupancy() []float64 {
	return append([]float64(nil), p.occ...)
}

// StageInfo describes one stage for logs and reports.
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

// ForwardBatchPipelined runs one batched inference with each stage on its
// own goroutine. Outputs and ledgers are bit-identical to ForwardBatchInto
// (see the package comment above for the argument). Each stage runs the
// forward walk (forwardStage) over its node range, handing micro-batch b to
// stage s+1 through s+1's buffer at b's offset and then b on the cut's
// channel; the send orders that copy before the consumer's read. No region
// is written twice in a call, so a producer never waits, and a failed stage
// closes its channel to release its consumers, which finish without error:
// the call returns the lowest-indexed stage's error, never partial output.
func (p *Pipeline) ForwardBatchPipelined(dst, xs []float64, batch int) ([]float64, error) {
	g := p.g
	in := g.nodes[0].size
	if batch < 0 || len(xs) < batch*in {
		return nil, fmt.Errorf("core: batch %d×%d needs %d inputs, have %d",
			batch, in, batch*in, len(xs))
	}
	dst = growFloats(dst, batch*g.nodes[g.output].size)
	if batch == 0 {
		return dst, nil
	}
	p.dst, p.xs, p.batch = dst, xs, batch
	micro := p.stages[0].micro
	nMicro := (batch + micro - 1) / micro

	// Size every boundary buffer and make every cut's channel before the
	// workers launch, so no field is written concurrently with a read.
	for _, st := range p.stages[1:] {
		st.in = growFloats(st.in, batch*g.nodes[st.inID].size)
		st.recv = make(chan int, nMicro)
	}
	start := time.Now()
	for _, st := range p.stages {
		p.wg.Add(1)
		go st.run()
	}
	p.wg.Wait()
	wall := time.Since(start)
	for s, st := range p.stages {
		f := 0.0
		if wall > 0 {
			f = float64(st.busy) / float64(wall)
		}
		p.occ[s] = min(f, 1)
	}
	// Deterministic error selection: a stage released by a failed upstream
	// neighbour records nil, so the lowest-indexed error is the root cause.
	for _, st := range p.stages {
		if st.err != nil {
			return nil, st.err
		}
	}
	return dst, nil
}

// runStage is a stage's worker, launched through its run method value so a
// call allocates no closure; it closes its outgoing channel on return.
func (st *pipeStage) runStage() {
	p := st.p
	defer p.wg.Done()
	if st.next != nil {
		defer close(st.next.recv)
	}
	in := st.in
	if st.recv == nil {
		in = p.xs
	}
	st.err = p.g.forwardStage(context.Background(), st, in, p.dst, p.batch)
}
