package dataset

import (
	"math"
	"testing"

	"trident/internal/nn"
)

func TestBlobsBasic(t *testing.T) {
	s := Blobs(100, 4, 8, 0.05, 1)
	if s.Len() != 100 || s.Classes != 4 {
		t.Fatalf("len=%d classes=%d", s.Len(), s.Classes)
	}
	counts := map[int]int{}
	for _, l := range s.Labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	for c, n := range counts {
		if n != 25 {
			t.Errorf("class %d count = %d, want 25 (balanced)", c, n)
		}
	}
	if s.Inputs[0].Len() != 8 {
		t.Errorf("dim = %d, want 8", s.Inputs[0].Len())
	}
}

func TestBlobsDeterministic(t *testing.T) {
	a := Blobs(50, 3, 4, 0.1, 7)
	b := Blobs(50, 3, 4, 0.1, 7)
	for i := range a.Inputs {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.Inputs[i].Data() {
			if a.Inputs[i].Data()[j] != b.Inputs[i].Data()[j] {
				t.Fatal("inputs differ across identical seeds")
			}
		}
	}
	c := Blobs(50, 3, 4, 0.1, 8)
	same := true
	for j := range a.Inputs[0].Data() {
		if a.Inputs[0].Data()[j] != c.Inputs[0].Data()[j] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should produce different data")
	}
}

func TestBlobsPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Blobs(0, 2, 2, 0.1, 1) },
		func() { Blobs(10, 1, 2, 0.1, 1) },
		func() { Blobs(10, 2, 0, 0.1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry should panic")
				}
			}()
			fn()
		}()
	}
}

func TestSplit(t *testing.T) {
	s := Blobs(100, 2, 2, 0.1, 2)
	train, test := s.Split(0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Errorf("split sizes %d/%d, want 80/20", train.Len(), test.Len())
	}
	// Degenerate fractions clamp.
	tr, te := s.Split(-1)
	if tr.Len() != 0 || te.Len() != 100 {
		t.Error("negative fraction should clamp to 0")
	}
	tr, te = s.Split(2)
	if tr.Len() != 100 || te.Len() != 0 {
		t.Error("fraction >1 should clamp to 1")
	}
}

func TestSpirals(t *testing.T) {
	s := Spirals(200, 0.01, 3)
	if s.Len() != 200 || s.Classes != 2 {
		t.Fatalf("len=%d classes=%d", s.Len(), s.Classes)
	}
	// The two spirals must be radially interleaved: class is not a
	// function of radius, so a linear classifier on radius fails. Verify
	// both classes appear at similar radii ranges.
	var rmax [2]float64
	var rmin = [2]float64{math.Inf(1), math.Inf(1)}
	for i, x := range s.Inputs {
		r := math.Hypot(x.Data()[0], x.Data()[1])
		c := s.Labels[i]
		if r > rmax[c] {
			rmax[c] = r
		}
		if r < rmin[c] {
			rmin[c] = r
		}
	}
	for c := 0; c < 2; c++ {
		if rmax[c]-rmin[c] < 0.3 {
			t.Errorf("class %d radius span too small: [%v,%v]", c, rmin[c], rmax[c])
		}
	}
}

func TestMiniImages(t *testing.T) {
	s := MiniImages(40, 4, 1, 8, 8, 0.05, 4)
	if s.Len() != 40 || s.Classes != 4 {
		t.Fatalf("len=%d classes=%d", s.Len(), s.Classes)
	}
	sh := s.Inputs[0].Shape()
	if sh[0] != 1 || sh[1] != 8 || sh[2] != 8 {
		t.Errorf("image shape %v, want [1 8 8]", sh)
	}
	// Images must carry non-trivial signal.
	if s.Inputs[0].MaxAbs() < 0.1 {
		t.Error("image appears empty")
	}
}

func TestShuffleKeepsPairs(t *testing.T) {
	// After shuffling, each input must stay with its original label:
	// regenerate without shuffle and compare as multisets keyed on the
	// first coordinate.
	s := Blobs(60, 3, 2, 0.0, 5) // zero spread: inputs are exactly the class centers
	seen := map[float64]int{}
	for i, x := range s.Inputs {
		key := x.Data()[0]
		if prev, ok := seen[key]; ok && prev != s.Labels[i] {
			t.Fatalf("same center maps to two labels: %d vs %d", prev, s.Labels[i])
		}
		seen[key] = s.Labels[i]
	}
	if len(seen) != 3 {
		t.Errorf("expected exactly 3 distinct centers, got %d", len(seen))
	}
}

func TestDigits(t *testing.T) {
	s := Digits(50, 8, 6, 0.02, 7)
	if s.Len() != 50 || s.Classes != 10 {
		t.Fatalf("len=%d classes=%d", s.Len(), s.Classes)
	}
	sh := s.Inputs[0].Shape()
	if sh[0] != 1 || sh[1] != 8 || sh[2] != 6 {
		t.Errorf("shape %v, want [1 8 6]", sh)
	}
	// A "1" must be dimmer (fewer segments) than an "8".
	var one, eight float64
	for i, l := range s.Labels {
		sum := 0.0
		for _, v := range s.Inputs[i].Data() {
			if v > 0.3 {
				sum += v
			}
		}
		switch l {
		case 1:
			one = sum
		case 8:
			eight = sum
		}
	}
	if one >= eight {
		t.Errorf("segment mass: one=%v eight=%v, want one < eight", one, eight)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad geometry should panic")
		}
	}()
	Digits(10, 4, 4, 0.1, 1)
}

// TestDigitsLearnable: a small network separates the ten digits.
func TestDigitsLearnable(t *testing.T) {
	s := Digits(400, 8, 6, 0.05, 3)
	train, test := s.Split(0.8)
	net := nn.NewNetwork(
		nn.NewFlatten("fl"),
		nn.NewDense("fc1", 48, 32, 4),
		nn.NewReLU("r"),
		nn.NewDense("fc2", 32, 10, 5),
	)
	opt := nn.SGD{LearningRate: 0.05}
	for e := 0; e < 20; e++ {
		for i := range train.Inputs {
			nn.TrainStep(net, opt, train.Inputs[i], train.Labels[i])
		}
	}
	if acc := nn.Accuracy(net.Forward, test.Inputs, test.Labels); acc < 0.95 {
		t.Errorf("digits accuracy = %.2f, want ≥ 0.95", acc)
	}
}
