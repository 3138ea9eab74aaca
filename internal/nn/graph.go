package nn

import (
	"fmt"

	"trident/internal/tensor"
)

// Graph is the digital reference's one model type: a directed acyclic
// network of layers (NewNetwork builds a plain chain) supporting the two
// join operations the branched evaluation models need: channel-wise
// concatenation (inception modules) and element-wise addition (residual
// shortcuts).
// Nodes may only reference earlier nodes, so insertion order is a
// topological order and forward/backward are single passes.
type Graph struct {
	nodes  []graphNode
	output NodeID
	// forward state
	values []*tensor.Tensor
	grads  []*tensor.Tensor
}

// NodeID names a node in the graph.
type NodeID int

type nodeKind int

const (
	nodeInput nodeKind = iota
	nodeLayer
	nodeConcat
	nodeAdd
)

type graphNode struct {
	kind   nodeKind
	layer  Layer
	inputs []NodeID
	// concat bookkeeping: channel count of each input at the last forward.
	splitC []int
	shape  []int
}

// NewGraph returns a graph with a single input node (ID 0).
func NewGraph() *Graph {
	g := &Graph{}
	g.nodes = append(g.nodes, graphNode{kind: nodeInput})
	return g
}

// Input returns the input node's ID.
func (g *Graph) Input() NodeID { return 0 }

// check panics on a reference to a node that does not exist yet — a wiring
// error in the builder.
func (g *Graph) check(ids ...NodeID) {
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(g.nodes) {
			panic(fmt.Sprintf("nn: graph node %d not defined yet", id))
		}
	}
}

// Layer appends a layer node consuming `in`. Each Layer instance may
// appear in at most one node: layers cache their forward inputs for the
// backward pass, so sharing an instance across nodes would corrupt
// gradients (the check panics on reuse).
func (g *Graph) Layer(l Layer, in NodeID) NodeID {
	if l == nil {
		panic("nn: nil layer")
	}
	for _, n := range g.nodes {
		if n.kind == nodeLayer && n.layer == l {
			panic(fmt.Sprintf("nn: layer %q already placed in the graph", l.Name()))
		}
	}
	g.check(in)
	g.nodes = append(g.nodes, graphNode{kind: nodeLayer, layer: l, inputs: []NodeID{in}})
	return NodeID(len(g.nodes) - 1)
}

// Concat appends a channel-wise concatenation of CHW inputs with matching
// spatial dimensions.
func (g *Graph) Concat(ins ...NodeID) NodeID {
	if len(ins) < 2 {
		panic("nn: Concat needs ≥2 inputs")
	}
	g.check(ins...)
	g.nodes = append(g.nodes, graphNode{kind: nodeConcat, inputs: append([]NodeID(nil), ins...)})
	return NodeID(len(g.nodes) - 1)
}

// Add appends an element-wise sum (residual join) of two inputs with
// identical shapes.
func (g *Graph) Add(a, b NodeID) NodeID {
	g.check(a, b)
	g.nodes = append(g.nodes, graphNode{kind: nodeAdd, inputs: []NodeID{a, b}})
	return NodeID(len(g.nodes) - 1)
}

// SetOutput marks the graph's output node.
func (g *Graph) SetOutput(id NodeID) {
	g.check(id)
	g.output = id
}

// Params collects every layer's parameters.
func (g *Graph) Params() []*Param {
	var ps []*Param
	for _, n := range g.nodes {
		if n.kind == nodeLayer {
			ps = append(ps, n.layer.Params()...)
		}
	}
	return ps
}

// ZeroGrad clears all parameter gradients.
func (g *Graph) ZeroGrad() {
	for _, p := range g.Params() {
		p.ZeroGrad()
	}
}

// Forward evaluates the graph on x.
func (g *Graph) Forward(x *tensor.Tensor) *tensor.Tensor {
	if g.output == 0 && len(g.nodes) > 1 {
		panic("nn: graph output not set")
	}
	g.values = make([]*tensor.Tensor, len(g.nodes))
	g.values[0] = x
	for i := 1; i < len(g.nodes); i++ {
		n := &g.nodes[i]
		switch n.kind {
		case nodeLayer:
			g.values[i] = n.layer.Forward(g.values[n.inputs[0]])
		case nodeConcat:
			g.values[i] = g.concatForward(n)
		case nodeAdd:
			a, b := g.values[n.inputs[0]], g.values[n.inputs[1]]
			out := a.Clone()
			out.AddInPlace(b)
			g.values[i] = out
		}
		n.shape = append([]int(nil), g.values[i].Shape()...)
	}
	return g.values[g.output]
}

func (g *Graph) concatForward(n *graphNode) *tensor.Tensor {
	first := g.values[n.inputs[0]]
	if first.Rank() != 3 {
		panic(fmt.Sprintf("nn: Concat needs CHW inputs, got rank %d", first.Rank()))
	}
	h, w := first.Dim(1), first.Dim(2)
	totalC := 0
	n.splitC = n.splitC[:0]
	for _, id := range n.inputs {
		v := g.values[id]
		if v.Rank() != 3 || v.Dim(1) != h || v.Dim(2) != w {
			panic(fmt.Sprintf("nn: Concat spatial mismatch %v vs [%d %d]", v.Shape(), h, w))
		}
		n.splitC = append(n.splitC, v.Dim(0))
		totalC += v.Dim(0)
	}
	out := tensor.New(totalC, h, w)
	off := 0
	for _, id := range n.inputs {
		v := g.values[id]
		copy(out.Data()[off:off+v.Len()], v.Data())
		off += v.Len()
	}
	return out
}

// Backward propagates ∂L/∂output through the graph, accumulating parameter
// gradients, and returns ∂L/∂input.
func (g *Graph) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if g.values == nil {
		panic("nn: Backward before Forward")
	}
	g.grads = make([]*tensor.Tensor, len(g.nodes))
	g.grads[g.output] = grad
	for i := len(g.nodes) - 1; i >= 1; i-- {
		gi := g.grads[i]
		if gi == nil {
			continue // node not on a path to the output
		}
		n := &g.nodes[i]
		switch n.kind {
		case nodeLayer:
			g.accumulate(n.inputs[0], n.layer.Backward(gi))
		case nodeConcat:
			off := 0
			for _, id := range n.inputs {
				v := g.values[id]
				part := tensor.New(v.Shape()...)
				copy(part.Data(), gi.Data()[off:off+v.Len()])
				off += v.Len()
				g.accumulate(id, part)
			}
		case nodeAdd:
			g.accumulate(n.inputs[0], gi)
			g.accumulate(n.inputs[1], gi.Clone())
		}
	}
	if g.grads[0] == nil {
		return tensor.New(g.values[0].Shape()...)
	}
	return g.grads[0]
}

// accumulate adds a gradient contribution to node id.
func (g *Graph) accumulate(id NodeID, grad *tensor.Tensor) {
	if g.grads[id] == nil {
		g.grads[id] = grad
		return
	}
	g.grads[id].AddInPlace(grad)
}
