// Package nn implements the neural-network substrate the accelerator
// executes: layers with forward and backward passes, the GST photonic
// activation as a drop-in non-linearity, softmax cross-entropy loss and SGD.
// It serves both as the digital reference (what prior accelerators train
// offline) and as the computational skeleton the Trident functional model
// plugs its analog arithmetic into.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"trident/internal/device"
	"trident/internal/tensor"
)

// Param is one trainable parameter tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network. Forward consumes the
// previous layer's activation; Backward consumes ∂L/∂output, accumulates
// parameter gradients, and returns ∂L/∂input.
type Layer interface {
	Name() string
	Forward(in *tensor.Tensor) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Dense is a fully connected layer y = W·x + b.
type Dense struct {
	label   string
	W       *Param
	B       *Param
	lastIn  *tensor.Tensor
	useBias bool
}

// NewDense returns a fully connected layer initialized with the Kaiming
// uniform scheme (the standard for ReLU-family activations), seeded
// deterministically.
func NewDense(label string, in, out int, seed int64) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: dense dims %d→%d must be positive", in, out))
	}
	rng := rand.New(rand.NewSource(seed))
	w := tensor.New(out, in)
	bound := math.Sqrt(6.0 / float64(in))
	for i := range w.Data() {
		w.Data()[i] = (rng.Float64()*2 - 1) * bound
	}
	return &Dense{
		label:   label,
		W:       &Param{Name: label + ".W", Value: w, Grad: tensor.New(out, in)},
		B:       &Param{Name: label + ".b", Value: tensor.New(out), Grad: tensor.New(out)},
		useBias: true,
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.label }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward implements Layer for a flat input vector.
func (d *Dense) Forward(in *tensor.Tensor) *tensor.Tensor {
	x := in.Reshape(in.Len())
	d.lastIn = x
	y := tensor.MatVec(nil, d.W.Value, x.Data())
	if d.useBias {
		for i := range y {
			y[i] += d.B.Value.Data()[i]
		}
	}
	return tensor.FromSlice(y, len(y))
}

// Backward implements Layer: accumulates ∂L/∂W = g·xᵀ (the outer product the
// Trident PE computes in its weight-update mode) and returns Wᵀ·g.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := grad.Data()
	out, in := d.W.Value.Dim(0), d.W.Value.Dim(1)
	if len(g) != out {
		panic(fmt.Sprintf("nn: %s backward grad len %d, want %d", d.label, len(g), out))
	}
	x := d.lastIn.Data()
	wg := d.W.Grad.Data()
	for i := 0; i < out; i++ {
		gi := g[i]
		if gi == 0 {
			continue
		}
		row := wg[i*in : (i+1)*in]
		for j := 0; j < in; j++ {
			row[j] += gi * x[j]
		}
	}
	if d.useBias {
		bg := d.B.Grad.Data()
		for i := range g {
			bg[i] += g[i]
		}
	}
	wt := tensor.Transpose(d.W.Value)
	dx := tensor.MatVec(nil, wt, g)
	return tensor.FromSlice(dx, len(dx))
}

// Conv2D is a (grouped) convolution layer on CHW maps.
type Conv2D struct {
	label  string
	Spec   tensor.Conv2DSpec
	K      *Param
	lastIn *tensor.Tensor
}

// NewConv2D returns a convolution layer with Kaiming-uniform kernels.
func NewConv2D(label string, spec tensor.Conv2DSpec, seed int64) *Conv2D {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	fanIn := spec.InC / spec.Groups * spec.KH * spec.KW
	k := tensor.New(spec.OutC, fanIn)
	bound := math.Sqrt(6.0 / float64(fanIn))
	for i := range k.Data() {
		k.Data()[i] = (rng.Float64()*2 - 1) * bound
	}
	return &Conv2D{
		label: label,
		Spec:  spec,
		K:     &Param{Name: label + ".K", Value: k, Grad: tensor.New(spec.OutC, fanIn)},
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.label }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.K} }

// Forward implements Layer.
func (c *Conv2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	c.lastIn = in
	return tensor.Conv2D(in, c.K.Value, c.Spec)
}

// Backward implements Layer using the im2col decomposition: with P the
// patch matrix, Y = K·P, so ∂K = G·Pᵀ and ∂P = Kᵀ·G scattered back.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s := c.Spec
	cg := s.InC / s.Groups
	ocg := s.OutC / s.Groups
	cols := s.OutH() * s.OutW()
	kcols := cg * s.KH * s.KW
	dx := tensor.New(s.InC, s.InH, s.InW)
	gd := grad.Data()
	for g := 0; g < s.Groups; g++ {
		patches := tensor.Im2Col(nil, c.lastIn, s, g)
		gslice := tensor.FromSlice(gd[g*ocg*cols:(g+1)*ocg*cols], ocg, cols)
		// ∂K for this group.
		dk := tensor.MatMul(nil, gslice, tensor.Transpose(patches))
		kg := c.K.Grad.Data()[g*ocg*kcols : (g+1)*ocg*kcols]
		for i, v := range dk.Data() {
			kg[i] += v
		}
		// ∂P = Kᵀ·G, then col2im scatter-add.
		kslice := tensor.FromSlice(c.K.Value.Data()[g*ocg*kcols:(g+1)*ocg*kcols], ocg, kcols)
		dp := tensor.MatMul(nil, tensor.Transpose(kslice), gslice)
		c.col2imAdd(dx, dp, g)
	}
	return dx
}

// col2imAdd scatters the patch-gradient matrix back onto the input gradient.
func (c *Conv2D) col2imAdd(dx, dp *tensor.Tensor, g int) {
	s := c.Spec
	cg := s.InC / s.Groups
	outW := s.OutW()
	cols := s.OutH() * outW
	dd := dx.Data()
	pd := dp.Data()
	for r := 0; r < cg*s.KH*s.KW; r++ {
		ch := g*cg + r/(s.KH*s.KW)
		kh := (r / s.KW) % s.KH
		kw := r % s.KW
		base := ch * s.InH * s.InW
		row := pd[r*cols : (r+1)*cols]
		for oc := 0; oc < cols; oc++ {
			iy := (oc/outW)*s.StrideH - s.PadH + kh
			ix := (oc%outW)*s.StrideW - s.PadW + kw
			if iy < 0 || iy >= s.InH || ix < 0 || ix >= s.InW {
				continue
			}
			dd[base+iy*s.InW+ix] += row[oc]
		}
	}
}

// AvgPool is an average-pooling layer.
type AvgPool struct {
	label string
	Spec  tensor.PoolSpec
}

// NewAvgPool returns an average-pooling layer.
func NewAvgPool(label string, spec tensor.PoolSpec) *AvgPool {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &AvgPool{label: label, Spec: spec}
}

// Name implements Layer.
func (a *AvgPool) Name() string { return a.label }

// Params implements Layer.
func (a *AvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (a *AvgPool) Forward(in *tensor.Tensor) *tensor.Tensor {
	return tensor.AvgPool2D(in, a.Spec)
}

// Backward implements Layer: each input in a window receives 1/K² of the
// output gradient.
func (a *AvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s := a.Spec
	dx := tensor.New(s.C, s.H, s.W)
	outH, outW := s.OutH(), s.OutW()
	norm := 1 / float64(s.K*s.K)
	for c := 0; c < s.C; c++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				g := grad.Data()[c*outH*outW+oy*outW+ox] * norm
				for ky := 0; ky < s.K; ky++ {
					for kx := 0; kx < s.K; kx++ {
						iy, ix := oy*s.Stride+ky, ox*s.Stride+kx
						dx.Data()[c*s.H*s.W+iy*s.W+ix] += g
					}
				}
			}
		}
	}
	return dx
}

// Flatten reshapes a CHW map into a vector.
type Flatten struct {
	label     string
	lastShape []int
}

// NewFlatten returns a flatten layer.
func NewFlatten(label string) *Flatten { return &Flatten{label: label} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.label }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(in *tensor.Tensor) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], in.Shape()...)
	return in.Reshape(in.Len())
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.lastShape...)
}

// ReLU is the digital rectified linear activation — what the CNN zoo
// specifies and what baseline accelerators evaluate in the electronic
// domain after an ADC round trip.
type ReLU struct {
	label  string
	lastIn *tensor.Tensor
}

// NewReLU returns a ReLU layer.
func NewReLU(label string) *ReLU { return &ReLU{label: label} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.label }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	r.lastIn = in
	out := in.Clone()
	out.Apply(func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	})
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := grad.Clone()
	for i, x := range r.lastIn.Data() {
		if x < 0 {
			dx.Data()[i] = 0
		}
	}
	return dx
}

// GSTActivation is the photonic non-linearity of Fig. 3 in normalized form:
//
//	f(h) = 0                         h < θ
//	f(h) = s·(h−θ)                   h ≥ θ (below saturation)
//
// with s = 0.34 and a two-valued derivative, exactly what the LDSU latches.
// Used in place of ReLU it makes the digital reference bit-compatible with
// the Trident functional model.
type GSTActivation struct {
	label     string
	Threshold float64
	Slope     float64
	MaxOut    float64
	lastIn    *tensor.Tensor
}

// NewGSTActivation returns the activation with the paper's constants and
// the given normalized threshold.
func NewGSTActivation(label string, threshold float64) *GSTActivation {
	return &GSTActivation{
		label:     label,
		Threshold: threshold,
		Slope:     device.ActivationDerivativeHigh,
		MaxOut:    math.Inf(1),
	}
}

// Name implements Layer.
func (g *GSTActivation) Name() string { return g.label }

// Params implements Layer.
func (g *GSTActivation) Params() []*Param { return nil }

// Forward implements Layer.
func (g *GSTActivation) Forward(in *tensor.Tensor) *tensor.Tensor {
	g.lastIn = in
	out := in.Clone()
	out.Apply(g.Eval)
	return out
}

// Eval applies the scalar transfer function.
func (g *GSTActivation) Eval(h float64) float64 {
	if math.IsNaN(h) || h < g.Threshold {
		return 0
	}
	y := g.Slope * (h - g.Threshold)
	if y > g.MaxOut {
		return g.MaxOut
	}
	return y
}

// Derivative returns the two-valued f'(h).
func (g *GSTActivation) Derivative(h float64) float64 {
	if math.IsNaN(h) || h < g.Threshold {
		return 0
	}
	if g.Slope*(h-g.Threshold) >= g.MaxOut {
		return 0
	}
	return g.Slope
}

// Backward implements Layer.
func (g *GSTActivation) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := grad.Clone()
	for i, h := range g.lastIn.Data() {
		dx.Data()[i] *= g.Derivative(h)
	}
	return dx
}

// Compile-time interface checks.
var (
	_ Layer = (*Dense)(nil)
	_ Layer = (*Conv2D)(nil)
	_ Layer = (*AvgPool)(nil)
	_ Layer = (*Flatten)(nil)
	_ Layer = (*ReLU)(nil)
	_ Layer = (*GSTActivation)(nil)
)
