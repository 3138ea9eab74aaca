package models

import (
	"trident/internal/core"
	"trident/internal/tensor"
)

// Hardware miniature of the branched evaluation architectures: the
// structural ideas of GoogleNet and ResNet-50 — parallel branches,
// residual shortcut, channel merge — expressed on the hardware-functional
// execution graph, so it trains in-situ through the PCM banks, GST
// activations and LDSU backward passes instead of the digital reference.

// HardwareMiniBranched builds a residual-plus-concat miniature on c×hw×hw
// inputs, entirely on Trident hardware:
//
//	input → stem conv → body conv → add(body, stem) → concat(add, stem) → GAP → dense
//
// Both convolutions carry the GST photonic activation; the residual join
// models optical summation and the concat models the wavelength merge. The
// classifier head runs linear, like the sequential drivers.
func HardwareMiniBranched(cfg core.NetworkConfig, c, hw, classes int) (*core.Graph, error) {
	const width = 8
	g, err := core.NewGraph(cfg, c, hw, hw)
	if err != nil {
		return nil, err
	}
	in := g.Input()
	stem := g.Conv(in, tensor.Conv2DSpec{
		InC: c, InH: hw, InW: hw, OutC: width, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1,
	}, 501)
	body := g.Conv(stem, tensor.Conv2DSpec{
		InC: width, InH: hw, InW: hw, OutC: width, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1,
	}, 502)
	res := g.Add(body, stem)
	cat := g.Concat(res, stem) // 2·width channels
	gap := g.GlobalAvgPool(cat)
	out := g.Dense(gap, core.LayerSpec{In: 2 * width, Out: classes}, 503)
	if err := g.SetOutput(out); err != nil {
		return nil, err
	}
	return g, nil
}
