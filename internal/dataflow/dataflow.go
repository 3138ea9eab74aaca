// Package dataflow maps CNN workloads onto a photonic PE array under the
// weight-stationary dataflow the paper evaluates with (Section IV: "a
// weight stationary dataflow is used"), playing the role MAESTRO plays in
// the paper: turning layer geometry into tile counts, cycle counts, tuning
// events and traffic volumes that the accelerator models convert into
// energy and latency.
//
// Mapping model. A convolution is lowered to a GEMM by im2col: a weight
// matrix of OutC rows × (InC/G·KH·KW) columns applied to OutH·OutW input
// vectors ("pixels"). The weight matrix is partitioned into J×N tiles, each
// resident in one PE's weight bank. With P physical PEs, tiles are
// processed in waves of P: each wave programs its tiles (all rings in
// parallel) and then streams every pixel through at one vector per clock.
// Partial sums across column tiles accumulate electronically in the PE
// cache. Dense layers are the single-pixel case.
package dataflow

import (
	"fmt"

	"trident/internal/models"
)

// Geometry describes the PE array a workload is mapped onto.
type Geometry struct {
	PEs  int // physical processing elements
	Rows int // J: weight-bank rows per PE
	Cols int // N: weight-bank columns per PE
}

// Validate checks the geometry.
func (g Geometry) Validate() error {
	if g.PEs <= 0 || g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("dataflow: geometry %+v must be positive", g)
	}
	return nil
}

// LayerMapping is the mapping result for one compute layer.
type LayerMapping struct {
	Name string
	Kind models.LayerKind
	// Tiles is the number of J×N weight tiles the layer's matrix needs
	// (RowTiles × ColTiles × Groups).
	Tiles int64
	// RowTiles and ColTiles describe the per-group tile grid; Groups is
	// the convolution group count.
	RowTiles, ColTiles, Groups int64
	// Waves is ⌈Tiles/PEs⌉: how many times the array must be reprogrammed
	// to sweep the layer once.
	Waves int64
	// Pixels is the number of input vectors streamed per tile (OutH·OutW
	// for conv, 1 for dense).
	Pixels int64
	// StreamCycles is Waves × Pixels: the clocked compute time of the
	// layer in vector-pass cycles.
	StreamCycles int64
	// TuneEvents is the number of weight-cell writes (tiles × cells,
	// clipped to the true matrix extent).
	TuneEvents int64
	// MACs is the layer's total multiply-accumulates (from the model).
	MACs int64
	// ActivationElems is the layer's output element count — each one
	// passes through an activation (photonic or digital) and, on baseline
	// accelerators, an ADC.
	ActivationElems int64
	// InputElems is the layer's input element count per inference.
	InputElems int64
}

// Mapping is a whole-model mapping.
type Mapping struct {
	Model    string
	Geometry Geometry
	Layers   []LayerMapping
}

// Map lowers every compute layer of the model onto the geometry.
func Map(m *models.Model, g Geometry) (*Mapping, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	out := &Mapping{Model: m.Name, Geometry: g}
	var prevElems int64 = 3 * 224 * 224
	for _, l := range m.Layers {
		switch l.Kind {
		case models.KindConv:
			s := l.Conv
			// Each group is an independent (OutC/G)×(InC/G·KH·KW) matrix.
			rowsM := int64(s.OutC / s.Groups)
			colsM := int64(s.InC/s.Groups) * int64(s.KH) * int64(s.KW)
			pixels := int64(s.OutH()) * int64(s.OutW())
			lm := mapMatrix(l.Name, l.Kind, g, rowsM, colsM, pixels, int64(s.Groups))
			lm.MACs = l.MACs
			lm.ActivationElems = l.Activations
			lm.InputElems = prevElems
			out.Layers = append(out.Layers, lm)
			prevElems = l.Activations
		case models.KindDense:
			lm := mapMatrix(l.Name, l.Kind, g, int64(l.OutFeatures), int64(l.InFeatures), 1, 1)
			lm.MACs = l.MACs
			lm.ActivationElems = l.Activations
			lm.InputElems = prevElems
			out.Layers = append(out.Layers, lm)
			prevElems = l.Activations
		default:
			// Pooling/activation/concat layers carry no weight tiles; they
			// contribute activation traffic, which the compute layers
			// already record via ActivationElems.
			prevElems = l.Activations
		}
	}
	return out, nil
}

// mapMatrix tiles a rowsM×colsM weight matrix (per group) onto the array.
func mapMatrix(name string, kind models.LayerKind, g Geometry, rowsM, colsM, pixels, groups int64) LayerMapping {
	rowTiles := ceilDiv(rowsM, int64(g.Rows))
	colTiles := ceilDiv(colsM, int64(g.Cols))
	tiles := rowTiles * colTiles * groups
	waves := ceilDiv(tiles, int64(g.PEs))
	return LayerMapping{
		Name:         name,
		Kind:         kind,
		Tiles:        tiles,
		RowTiles:     rowTiles,
		ColTiles:     colTiles,
		Groups:       groups,
		Waves:        waves,
		Pixels:       pixels,
		StreamCycles: waves * pixels,
		// Every cell of the true matrix is written once per sweep; edge
		// tiles are partial, so count matrix cells, not tile capacity.
		TuneEvents: rowsM * colsM * groups,
		MACs:       0, // filled by caller from the model
	}
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// TotalActivePECycles sums tiles × pixels across layers: the number of
// (PE, cycle) pairs actually streaming data. Energy scales with this —
// idle PEs in a partially filled wave are clock-gated — while wall time
// scales with TotalStreamCycles.
func (m *Mapping) TotalActivePECycles() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.Tiles * l.Pixels
	}
	return t
}

// TotalStreamCycles sums the clocked compute cycles across layers.
func (m *Mapping) TotalStreamCycles() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.StreamCycles
	}
	return t
}

// TotalWaves sums reprogramming waves across layers.
func (m *Mapping) TotalWaves() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.Waves
	}
	return t
}

// TotalTuneEvents sums weight-cell writes for one full sweep of the model.
func (m *Mapping) TotalTuneEvents() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.TuneEvents
	}
	return t
}

// TotalMACs sums MACs (equals the model's own count; asserted in tests).
func (m *Mapping) TotalMACs() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.MACs
	}
	return t
}

// TotalActivationElems sums activation outputs across compute layers — the
// per-inference ADC conversion count on baseline accelerators.
func (m *Mapping) TotalActivationElems() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.ActivationElems
	}
	return t
}

// TotalInputElems sums per-layer input vectors' element counts (the E/O
// modulation traffic).
func (m *Mapping) TotalInputElems() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.InputElems
	}
	return t
}

// Dataflow selects the loop order of the mapping. The paper evaluates with
// WeightStationary; OutputStationary is modelled as the ablation that shows
// why: holding outputs resident means the *weights* stream, and on a
// photonic array every streamed weight is a physical re-tune of a GST (or
// thermal) cell — energy and latency per MAC instead of per layer sweep.
type Dataflow int

// Dataflow kinds.
const (
	WeightStationary Dataflow = iota
	OutputStationary
)

// String names the dataflow.
func (d Dataflow) String() string {
	switch d {
	case WeightStationary:
		return "weight-stationary"
	case OutputStationary:
		return "output-stationary"
	default:
		return fmt.Sprintf("dataflow(%d)", int(d))
	}
}

// OutputStationaryCost summarizes the streamed-weight cost of mapping the
// model output-stationary on the same geometry.
type OutputStationaryCost struct {
	// TuneEvents is the number of weight-cell writes per inference: every
	// MAC's weight must be driven into a ring before it can multiply.
	TuneEvents int64
	// Waves is the number of sequential reprogramming rounds: each round
	// re-tunes the full array and computes one MAC per cell.
	Waves int64
}

// MapOutputStationary computes the streamed-weight cost. Each round, the
// array's Rows×Cols×PEs cells each receive a new weight (one tune event)
// and contribute one MAC; total rounds = MACs / cells.
func MapOutputStationary(m *models.Model, g Geometry) (OutputStationaryCost, error) {
	if err := g.Validate(); err != nil {
		return OutputStationaryCost{}, err
	}
	cells := int64(g.PEs) * int64(g.Rows) * int64(g.Cols)
	macs := m.TotalMACs()
	waves := (macs + cells - 1) / cells
	return OutputStationaryCost{
		TuneEvents: macs, // one write per streamed weight
		Waves:      waves,
	}, nil
}
