package models

import (
	"fmt"

	"trident/internal/nn"
	"trident/internal/tensor"
)

// Instantiate builds the runnable layer chain of a sequential model
// descriptor (nn.NewNetwork runs it) at an arbitrary square input
// resolution: the same channel counts, kernels, strides and classifier
// widths, with spatial sizes (and the first classifier's fan-in)
// recomputed for the smaller input. This is how the test-suite runs "real
// VGG-16-shaped" networks at laptop scale: the 224×224 evaluation geometry
// feeds the cost models, the scaled instance feeds the functional ones.
//
// classes overrides the final classifier width (the descriptors' 1000-way
// ImageNet head is rarely wanted at small scale). useGST selects the GST
// photonic activation instead of ReLU for every activation layer.
func Instantiate(m *Model, inputHW, classes int, useGST bool, seed int64) ([]nn.Layer, error) {
	if !m.Sequential {
		return nil, fmt.Errorf("models: %s is branched; only sequential models (AlexNet, VGG-16) can be replayed as a chain", m.Name)
	}
	if inputHW < 16 {
		return nil, fmt.Errorf("models: input %d too small (minimum 16)", inputHW)
	}
	if classes < 2 {
		return nil, fmt.Errorf("models: classes %d must be ≥ 2", classes)
	}
	c, h, w := 3, inputHW, inputHW
	var layers []nn.Layer
	denseSeen := false
	lastDense := -1
	for i, l := range m.Layers {
		if l.Kind == KindDense {
			lastDense = i
		}
	}
	newAct := func(name string) nn.Layer {
		if useGST {
			a := nn.NewGSTActivation(name, 0)
			a.MaxOut = 1.0
			return a
		}
		return nn.NewReLU(name)
	}
	for i, l := range m.Layers {
		switch l.Kind {
		case KindConv:
			spec := l.Conv
			spec.InC, spec.InH, spec.InW = c, h, w
			if err := spec.Validate(); err != nil {
				return nil, fmt.Errorf("models: %s/%s at %d input: %w", m.Name, l.Name, inputHW, err)
			}
			layers = append(layers, nn.NewConv2D(l.Name, spec, seed+int64(i)))
			c, h, w = spec.OutC, spec.OutH(), spec.OutW()
		case KindDense:
			in := c * h * w
			if !denseSeen {
				layers = append(layers, nn.NewFlatten("flatten"))
				denseSeen = true
			}
			out := l.OutFeatures
			if i == lastDense {
				out = classes
			}
			layers = append(layers, nn.NewDense(l.Name, in, out, seed+int64(i)))
			c, h, w = out, 1, 1
		case KindMaxPool, KindAvgPool:
			k, stride := l.PoolK, l.PoolStride
			if l.Global {
				k, stride = h, h
			}
			if k > h || k > w {
				return nil, fmt.Errorf("models: %s/%s window %d exceeds %dx%d map at %d input",
					m.Name, l.Name, k, h, w, inputHW)
			}
			spec := tensor.PoolSpec{C: c, H: h, W: w, K: k, Stride: stride}
			if err := spec.Validate(); err != nil {
				return nil, fmt.Errorf("models: %s/%s: %w", m.Name, l.Name, err)
			}
			if l.Kind == KindMaxPool {
				layers = append(layers, nn.NewMaxPool(l.Name, spec))
			} else {
				layers = append(layers, nn.NewAvgPool(l.Name, spec))
			}
			h, w = spec.OutH(), spec.OutW()
		case KindActivation:
			layers = append(layers, newAct(l.Name))
		case KindConcat:
			return nil, fmt.Errorf("models: %s contains a concat; not sequential", m.Name)
		}
	}
	return layers, nil
}
