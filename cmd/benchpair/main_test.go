package main

import (
	"math"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q := quartiles([]float64{5, 1, 4, 2, 3})
	if q != [3]float64{2, 3, 4} {
		t.Errorf("quartiles of 1..5 = %v, want [2 3 4]", q)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

// TestSignTest pins the two-sided p-values the gain rule reads at 10 pairs.
func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		want         float64
	}{
		{10, 0, 2.0 / 1024},
		{9, 1, 22.0 / 1024},
		{8, 2, 112.0 / 1024},
		{5, 5, 1},
		{0, 0, 1},
	} {
		if got := signTest(tc.wins, tc.losses); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", tc.wins, tc.losses, got, tc.want)
		}
	}
	if need, ok := winsNeeded(10); !ok || need != 9 {
		t.Errorf("winsNeeded(10) = %d, %v; want 9, true", need, ok)
	}
	if _, ok := winsNeeded(5); ok {
		t.Error("winsNeeded(5): 5 of 5 gives p 0.0625, so no gain is detectable")
	}
}

// TestDetectable: the smallest detectable change is at least the parent's
// interquartile range, and a paired spread wider than that raises it.
func TestDetectable(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shifted := make([]float64, len(parent))
	spread := make([]float64, len(parent))
	for i, v := range parent {
		shifted[i] = v - 20
		spread[i] = v - 20 + float64(10*(i%2)) // paired differences -20 and -10
	}
	d, ok := detectable(parent, shifted)
	if q := quartiles(parent); !ok || d != q[2]-q[0] {
		t.Errorf("constant shift: detectable = %v, %v; want the parent's interquartile range %v", d, ok, q[2]-q[0])
	}
	if d2, ok := detectable(parent, spread); !ok || d2 <= d {
		t.Errorf("spread shift: detectable = %v, %v; want more than %v", d2, ok, d)
	}
}
