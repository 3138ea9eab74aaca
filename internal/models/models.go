// Package models describes the CNN workloads of the paper's evaluation —
// AlexNet, VGG-16, GoogleNet (Inception v1), ResNet-50 and MobileNetV2 —
// layer by layer, with exact parameter and multiply-accumulate counts.
//
// The descriptors are consumed by the dataflow cost model: energy and
// latency of an accelerator depend only on layer geometry (channel counts,
// spatial sizes, kernel shapes), not on trained weight values, so the
// descriptors carry no weights. All models take 224×224×3 inputs and emit
// 1000 classes, matching Section IV.
package models

import (
	"fmt"

	"trident/internal/tensor"
)

// LayerKind classifies a layer for cost accounting.
type LayerKind int

// Layer kinds.
const (
	KindConv LayerKind = iota
	KindDense
	KindMaxPool
	KindAvgPool
	KindActivation
	KindConcat // inception branch join; free in hardware, kept for structure
)

// String returns the kind name.
func (k LayerKind) String() string {
	switch k {
	case KindConv:
		return "conv"
	case KindDense:
		return "dense"
	case KindMaxPool:
		return "maxpool"
	case KindAvgPool:
		return "avgpool"
	case KindActivation:
		return "activation"
	case KindConcat:
		return "concat"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// LayerSpec is one layer of a workload.
type LayerSpec struct {
	Name string
	Kind LayerKind
	// Conv is set for KindConv layers.
	Conv tensor.Conv2DSpec
	// InFeatures/OutFeatures are set for KindDense layers.
	InFeatures, OutFeatures int
	// Pool geometry for KindMaxPool/KindAvgPool layers. Global marks a
	// global average pool (window = whole feature map).
	PoolK, PoolStride int
	PoolCeil          bool
	Global            bool
	// MACs is the multiply-accumulate count of one forward pass.
	MACs int64
	// Weights is the parameter count (kernel/matrix plus bias).
	Weights int64
	// Activations is the element count of this layer's output — the data
	// volume that moves to the next layer (or through an ADC, for
	// baseline accelerators).
	Activations int64
}

// Model is a full workload.
type Model struct {
	Name   string
	Layers []LayerSpec
}

// TotalMACs returns the MAC count of one inference.
func (m *Model) TotalMACs() int64 {
	var s int64
	for _, l := range m.Layers {
		s += l.MACs
	}
	return s
}

// TotalWeights returns the parameter count.
func (m *Model) TotalWeights() int64 {
	var s int64
	for _, l := range m.Layers {
		s += l.Weights
	}
	return s
}

// TotalActivations returns the summed activation volume across layers —
// the inter-layer traffic of one inference.
func (m *Model) TotalActivations() int64 {
	var s int64
	for _, l := range m.Layers {
		s += l.Activations
	}
	return s
}

// ComputeLayers returns only the MAC-bearing layers (conv and dense).
func (m *Model) ComputeLayers() []LayerSpec {
	var out []LayerSpec
	for _, l := range m.Layers {
		if l.Kind == KindConv || l.Kind == KindDense {
			out = append(out, l)
		}
	}
	return out
}

// builder tracks the running CHW shape while assembling a model.
type builder struct {
	m       *Model
	c, h, w int
}

func newBuilder(name string, c, h, w int) *builder {
	return &builder{m: &Model{Name: name}, c: c, h: h, w: w}
}

// conv appends a convolution (with bias) followed by an implicit update of
// the running shape. Returns the builder for chaining.
func (b *builder) conv(name string, outC, k, stride, pad int) *builder {
	return b.convHW(name, outC, k, k, stride, pad, 1)
}

// convHW appends a general (possibly grouped) convolution.
func (b *builder) convHW(name string, outC, kh, kw, stride, pad, groups int) *builder {
	spec := tensor.Conv2DSpec{
		InC: b.c, InH: b.h, InW: b.w,
		OutC: outC, KH: kh, KW: kw,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad, Groups: groups,
	}
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("models: %s/%s: %v", b.m.Name, name, err))
	}
	acts := int64(outC) * int64(spec.OutH()) * int64(spec.OutW())
	b.m.Layers = append(b.m.Layers, LayerSpec{
		Name:        name,
		Kind:        KindConv,
		Conv:        spec,
		MACs:        spec.MACs(),
		Weights:     spec.WeightCount() + int64(outC), // + bias
		Activations: acts,
	})
	b.c, b.h, b.w = outC, spec.OutH(), spec.OutW()
	return b
}

// dwconv appends a depthwise convolution (groups = channels).
func (b *builder) dwconv(name string, k, stride, pad int) *builder {
	return b.convHW(name, b.c, k, k, stride, pad, b.c)
}

// relu appends an activation layer over the current shape.
func (b *builder) relu(name string) *builder {
	acts := int64(b.c) * int64(b.h) * int64(b.w)
	b.m.Layers = append(b.m.Layers, LayerSpec{
		Name: name, Kind: KindActivation, Activations: acts,
	})
	return b
}

// maxpool appends max pooling. ceil selects ceiling-mode shape arithmetic
// (GoogleNet uses it).
func (b *builder) maxpool(name string, k, stride int, ceil bool) *builder {
	return b.pool(name, KindMaxPool, k, stride, ceil)
}

func (b *builder) pool(name string, kind LayerKind, k, stride int, ceil bool) *builder {
	outH := (b.h-k)/stride + 1
	outW := (b.w-k)/stride + 1
	if ceil { // ceiling-mode pooling: round the stride division up
		outH = (b.h-k+stride-1)/stride + 1
		outW = (b.w-k+stride-1)/stride + 1
	}
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("models: %s/%s pool collapses (%dx%d k=%d s=%d)", b.m.Name, name, b.h, b.w, k, stride))
	}
	acts := int64(b.c) * int64(outH) * int64(outW)
	b.m.Layers = append(b.m.Layers, LayerSpec{
		Name: name, Kind: kind, Activations: acts,
		PoolK: k, PoolStride: stride, PoolCeil: ceil,
	})
	b.h, b.w = outH, outW
	return b
}

// globalAvgPool reduces the spatial dims to 1×1.
func (b *builder) globalAvgPool(name string) *builder {
	b.m.Layers = append(b.m.Layers, LayerSpec{
		Name: name, Kind: KindAvgPool, Activations: int64(b.c), Global: true,
	})
	b.h, b.w = 1, 1
	return b
}

// dense appends a fully connected layer (with bias) on the flattened shape.
func (b *builder) dense(name string, out int) *builder {
	in := b.c * b.h * b.w
	b.m.Layers = append(b.m.Layers, LayerSpec{
		Name: name, Kind: KindDense,
		InFeatures: in, OutFeatures: out,
		MACs:        int64(in) * int64(out),
		Weights:     int64(in)*int64(out) + int64(out),
		Activations: int64(out),
	})
	b.c, b.h, b.w = out, 1, 1
	return b
}

// concat records an inception join producing outC channels at the current
// spatial size.
func (b *builder) concat(name string, outC int) *builder {
	b.c = outC
	b.m.Layers = append(b.m.Layers, LayerSpec{
		Name: name, Kind: KindConcat,
		Activations: int64(outC) * int64(b.h) * int64(b.w),
	})
	return b
}
