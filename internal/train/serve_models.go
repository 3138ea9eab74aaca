package train

// Serving-model constructors: each trains a small MLP in situ on a
// synthetic workload and hands the trained network to the caller. The
// serve subcommand uses these so a multi-model deployment fronts
// genuinely different graphs — different input widths, class counts, and
// trained weights — instead of N copies of one demo net. Noise is
// disabled so served classes are deterministic: journal replays, replica
// fan-out (Network.Replicate) and repeated curls all agree bit-exactly.

import (
	"fmt"
	"sort"

	"trident/internal/core"
	"trident/internal/dataset"
)

// ServeModelKind names a trainable serving model.
type ServeModelKind string

const (
	// ServeBlobs is the 6→16→3 Gaussian-blobs classifier — the historical
	// `trident serve` demo model.
	ServeBlobs ServeModelKind = "blobs"
	// ServeSpirals is a 2→24→2 classifier on interleaved spirals, a
	// harder nonlinear boundary at tiny input width.
	ServeSpirals ServeModelKind = "spirals"
	// ServeDigits is a 35→24→10 classifier on synthetic 7×5 digit glyphs.
	ServeDigits ServeModelKind = "digits"
)

// ServeModelKinds lists the available kinds in stable order.
func ServeModelKinds() []string {
	kinds := []string{string(ServeBlobs), string(ServeSpirals), string(ServeDigits)}
	sort.Strings(kinds)
	return kinds
}

// serveRecipe is one model's training setup.
type serveRecipe struct {
	data    func(seed int64) *dataset.Set
	hidden  int
	epochs  int
	lr      float64
	dimDesc string
}

func serveRecipes() map[ServeModelKind]serveRecipe {
	return map[ServeModelKind]serveRecipe{
		ServeBlobs: {
			data:   func(seed int64) *dataset.Set { return dataset.Blobs(600, 3, 6, 0.1, seed) },
			hidden: 16, epochs: 6, lr: 0.08, dimDesc: "6→16→3",
		},
		ServeSpirals: {
			data:   func(seed int64) *dataset.Set { return dataset.Spirals(400, 0.05, seed) },
			hidden: 24, epochs: 12, lr: 0.06, dimDesc: "2→24→2",
		},
		ServeDigits: {
			data:   func(seed int64) *dataset.Set { return dataset.Digits(400, 7, 5, 0.05, seed) },
			hidden: 24, epochs: 8, lr: 0.06, dimDesc: "35→24→10",
		},
	}
}

// NewServeModel trains the named model kind in situ and returns the
// trained network, ready for serving or replica fan-out via
// Network.Replicate. The same (kind, seed) pair always yields the same
// trained weights.
func NewServeModel(kind ServeModelKind, seed int64) (*core.Network, error) {
	rec, ok := serveRecipes()[kind]
	if !ok {
		return nil, fmt.Errorf("train: unknown serve model %q (have %v)", kind, ServeModelKinds())
	}
	data := rec.data(seed)
	dim := data.Inputs[0].Len()
	net, err := core.NewNetwork(
		core.NetworkConfig{
			PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
			LearningRate: rec.lr,
		},
		core.LayerSpec{In: dim, Out: rec.hidden, Activate: true},
		core.LayerSpec{In: rec.hidden, Out: data.Classes},
	)
	if err != nil {
		return nil, err
	}
	for e := 0; e < rec.epochs; e++ {
		if _, err := net.TrainEpoch(data.Inputs, data.Labels, 1); err != nil {
			return nil, fmt.Errorf("train: serve model %q epoch %d: %w", kind, e, err)
		}
	}
	return net, nil
}

// ServeModelDims describes the named kind's topology for banners and
// usage text ("6→16→3"); empty for unknown kinds.
func ServeModelDims(kind ServeModelKind) string {
	return serveRecipes()[kind].dimDesc
}

// blobsEval regenerates the blobs training distribution for accuracy
// checks against a served model.
func blobsEval(seed int64) *dataset.Set {
	return serveRecipes()[ServeBlobs].data(seed)
}
