package nn

import (
	"math"
	"math/rand"
	"testing"

	"trident/internal/tensor"
)

// branchedTestGraph builds a small graph exercising both joins:
//
//	in → convA ─┬─ concat(convA, convB) → flatten → fc
//	in → convB ─┘                with a residual add on convA
func branchedTestGraph(seed int64) (*Graph, int) {
	g := NewGraph()
	in := g.Input()
	specA := tensor.Conv2DSpec{InC: 2, InH: 5, InW: 5, OutC: 3, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	a := g.Layer(NewConv2D("convA", specA, seed), in)
	a = g.Layer(NewReLU("reluA"), a)
	// Residual on branch A.
	a2 := g.Layer(NewConv2D("convA2", tensor.Conv2DSpec{InC: 3, InH: 5, InW: 5,
		OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}, seed+1), a)
	res := g.Add(a2, a)
	b := g.Layer(NewConv2D("convB", tensor.Conv2DSpec{InC: 2, InH: 5, InW: 5,
		OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1, Groups: 1}, seed+2), in)
	cat := g.Concat(res, b) // 5 channels × 5×5
	fl := g.Layer(NewFlatten("flat"), cat)
	out := g.Layer(NewDense("fc", 5*25, 3, seed+3), fl)
	g.SetOutput(out)
	return g, 3
}

// TestGraphGradientsNumerically verifies every parameter gradient of the
// branched graph against central differences — the join operations must
// route and sum gradients exactly.
func TestGraphGradientsNumerically(t *testing.T) {
	g, _ := branchedTestGraph(3)
	x := tensor.New(2, 5, 5)
	rng := rand.New(rand.NewSource(5))
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	label := 1
	eval := func() float64 {
		loss, _ := CrossEntropyLoss(g.Forward(x), label)
		return loss
	}
	g.ZeroGrad()
	loss, grad := CrossEntropyLoss(g.Forward(x), label)
	_ = loss
	dx := g.Backward(grad)

	const eps = 1e-5
	for _, p := range g.Params() {
		for i := 0; i < p.Value.Len(); i += 1 + p.Value.Len()/12 {
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + eps
			up := eval()
			p.Value.Data()[i] = orig - eps
			down := eval()
			p.Value.Data()[i] = orig
			want := (up - down) / (2 * eps)
			got := p.Grad.Data()[i]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d] = %v, finite-diff %v", p.Name, i, got, want)
			}
		}
	}
	// Input gradient too (flows through both branches and the residual).
	for i := 0; i < x.Len(); i += 5 {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		up := eval()
		x.Data()[i] = orig - eps
		down := eval()
		x.Data()[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(dx.Data()[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d] = %v, finite-diff %v", i, dx.Data()[i], want)
		}
	}
}

func TestGraphForwardShapes(t *testing.T) {
	g, classes := branchedTestGraph(7)
	out := g.Forward(tensor.New(2, 5, 5))
	if out.Len() != classes {
		t.Fatalf("output = %d, want %d", out.Len(), classes)
	}
}

func TestGraphBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil layer":      func() { NewGraph().Layer(nil, 0) },
		"future node":    func() { NewGraph().Layer(NewReLU("r"), 5) },
		"concat one":     func() { NewGraph().Concat(0) },
		"unset output":   func() { g := NewGraph(); g.Layer(NewReLU("r"), 0); g.Forward(tensor.New(1)) },
		"backward first": func() { g := NewGraph(); g.Backward(tensor.New(1)) },
		"layer reuse": func() {
			g := NewGraph()
			r := NewReLU("r")
			a := g.Layer(r, 0)
			g.Layer(r, a)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConcatShapeMismatchPanics(t *testing.T) {
	g := NewGraph()
	in := g.Input()
	a := g.Layer(NewConv2D("a", tensor.Conv2DSpec{InC: 1, InH: 4, InW: 4, OutC: 1,
		KH: 1, KW: 1, StrideH: 1, StrideW: 1, Groups: 1}, 1), in)
	b := g.Layer(NewAvgPool("p", tensor.PoolSpec{C: 1, H: 4, W: 4, K: 2, Stride: 2}), in)
	cat := g.Concat(a, b)
	g.SetOutput(cat)
	defer func() {
		if recover() == nil {
			t.Error("spatial mismatch should panic")
		}
	}()
	g.Forward(tensor.New(1, 4, 4))
}
