package core

import (
	"math"
	"math/rand"
	"testing"

	"trident/internal/analog"
	"trident/internal/device"
	"trident/internal/units"
)

// peekZiggurat classifies the next draw of g without consuming it: which
// ziggurat path its first word takes (0 rectangle, 1 base-strip tail,
// 2 wedge test).
func peekZiggurat(g *gaussStream) int {
	tap, feed := g.tap-1, g.feed-1
	if tap < 0 {
		tap += gaussLen
	}
	if feed < 0 {
		feed += gaussLen
	}
	j := zigIndex(g.vec[feed] + g.vec[tap])
	switch i := j & 0x7F; {
	case absInt32(j) < zigK[i]:
		return 0
	case i == 0:
		return 1
	default:
		return 2
	}
}

// TestGaussStreamMatchesMathRand pins the noise stream to math/rand bit for
// bit: for each seed, two million draws equal rand.New(rand.NewSource(seed))
// .NormFloat64(), and both slow paths (the base-strip tail and the wedge
// test, each of which reads extra words) must have run.
func TestGaussStreamMatchesMathRand(t *testing.T) {
	const draws = 2_000_000
	for _, seed := range []int64{0, 1, -5, 7919, 1 << 40} {
		g := newGaussStream(seed)
		ref := rand.New(rand.NewSource(seed))
		var paths [3]int
		var v [1]float64
		for d := 0; d < draws; d++ {
			paths[peekZiggurat(g)]++
			v[0] = 0
			g.addNoise(v[:], 1)
			if want := ref.NormFloat64(); math.Float64bits(v[0]) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: got %v, math/rand %v", seed, d, v[0], want)
			}
		}
		if paths[1] == 0 || paths[2] == 0 {
			t.Fatalf("seed %d: slow paths never ran (tail %d, wedge %d of %d draws)",
				seed, paths[1], paths[2], draws)
		}
		// The streams stay in step after the slow paths' extra words.
		if got, want := g.next()&math.MaxInt64, ref.Int63(); got != want {
			t.Fatalf("seed %d: word after %d draws: got %d, math/rand %d", seed, draws, got, want)
		}
	}
}

// TestPEAddNoiseMatchesPerValueLoop checks a PE's noise pass, on every
// length from 1 to 700 in one continuing stream, against the per-value
// math/rand loop it replaces: vs[j] = v + NormFloat64()*σ, σ = rel·√n.
func TestPEAddNoiseMatchesPerValueLoop(t *testing.T) {
	const seed = 42
	pe, err := NewPE(PEConfig{Rows: 4, Cols: 4, NoiseSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	full := 1 * units.Milliwatt
	rel := analog.NoiseSigma(full) / (device.BPDResponsivity * full.Watts())
	ref := rand.New(rand.NewSource(seed))
	vals := rand.New(rand.NewSource(99))
	for length := 1; length <= 700; length++ {
		n := 1 + length%16
		vs := make([]float64, length)
		want := make([]float64, length)
		for j := range vs {
			vs[j] = vals.NormFloat64()
		}
		sigma := rel * math.Sqrt(float64(n))
		for j, v := range vs {
			want[j] = v + ref.NormFloat64()*sigma
		}
		pe.addNoise(vs, n)
		for j := range vs {
			if math.Float64bits(vs[j]) != math.Float64bits(want[j]) {
				t.Fatalf("length %d value %d: got %v, per-value loop %v", length, j, vs[j], want[j])
			}
		}
	}
}

func TestNoiseOffPEBuildsNoGenerator(t *testing.T) {
	off := newTestPE(t, 4, 4)
	if off.noise != nil {
		t.Error("a noise-off PE built a noise generator")
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	clean := append([]float64(nil), x...)
	off.addNoise(x, 4)
	for j := range x {
		if x[j] != clean[j] {
			t.Fatalf("noise-off addNoise changed value %d: %v → %v", j, clean[j], x[j])
		}
	}
	on, err := NewPE(PEConfig{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	if on.noise == nil {
		t.Error("a noisy PE has no noise generator")
	}
}

// TestBookSymbolsMatchesSingleClocks pins the register-summed ledger
// booking to n one-clock bookings through the ledger's own Add and Advance,
// bit for bit, and an empty batch to no booking at all.
func TestBookSymbolsMatchesSingleClocks(t *testing.T) {
	pe := newTestPE(t, 4, 4)
	encode := 3.3 * units.Picojoule
	pe.bookSymbols(encode, 0)
	if len(pe.Ledger().Breakdown()) != 0 || pe.Ledger().Elapsed() != 0 {
		t.Fatal("an empty batch booked energy or time")
	}
	s := NewLedger()
	for _, n := range []int{1, 7, 256} {
		pe.bookSymbols(encode, n)
		for k := 0; k < n; k++ {
			s.Add(CatEOLaser, encode)
			s.Add(CatGSTRead, pe.readEnergy)
			s.Add(CatBPDTIA, pe.feEnergy)
			s.Add(CatCache, pe.cacheEnergy)
			s.Advance(pe.period)
		}
	}
	b := pe.Ledger()
	for _, cat := range []EnergyCategory{CatEOLaser, CatGSTRead, CatBPDTIA, CatCache} {
		if math.Float64bits(float64(b.Energy(cat))) != math.Float64bits(float64(s.Energy(cat))) {
			t.Errorf("%s: batched %v, single clocks %v", cat, b.Energy(cat), s.Energy(cat))
		}
	}
	if b.Elapsed() != s.Elapsed() || len(b.Breakdown()) != 4 {
		t.Errorf("elapsed %v vs %v, %d categories booked", b.Elapsed(), s.Elapsed(), len(b.Breakdown()))
	}
}
