package core

import (
	"math"
	"math/rand"
)

// gaussStream is the PE's detection-noise generator. It returns exactly the
// values rand.New(rand.NewSource(seed)).NormFloat64() returns, in the same
// order, but keeps the generator state in one struct the noise loop can
// hold in registers instead of calling through Rand → Source per draw.
//
// The state is math/rand's own: an additive lagged-Fibonacci register of
// gaussLen words with tap gaussTap, x[n] = x[n−607] + x[n−273] (mod 2⁶⁴).
// Normal variates come from the Marsaglia–Tsang ziggurat with math/rand's
// 128 strips and the same word-consumption order, so the two streams agree
// bit for bit (TestGaussStreamMatchesMathRand pins it).
type gaussStream struct {
	tap, feed int
	vec       [gaussLen]int64
}

const (
	gaussLen = 607
	gaussTap = 273
	// zigR is the ziggurat's base-strip edge (math/rand's rn).
	zigR = 3.442619855899
)

// Ziggurat tables, built at init from the Marsaglia–Tsang recurrence; the
// values equal math/rand's literal kn/wn/fn tables entry for entry. zigW
// holds float32 widths widened to float64 (an exact conversion) so the fast
// path multiplies in float64 exactly as NormFloat64 does.
var (
	zigK [128]uint32
	zigW [128]float64
	zigF [128]float32
)

func init() {
	const m1 = 1 << 31
	const vn = 9.91256303526217e-3 // area of each strip
	dn := zigR
	tn := dn
	q := vn / math.Exp(-.5*dn*dn)
	zigK[0] = uint32((dn / q) * m1)
	zigW[0] = float64(float32(q / m1))
	zigW[127] = float64(float32(dn / m1))
	zigF[0] = 1
	zigF[127] = float32(math.Exp(-.5 * dn * dn))
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(vn/dn+math.Exp(-.5*dn*dn)))
		zigK[i+1] = uint32((dn / tn) * m1)
		tn = dn
		zigF[i] = float32(math.Exp(-.5 * dn * dn))
		zigW[i] = float64(float32(dn / m1))
	}
}

// newGaussStream returns the stream rand.NewSource(seed) would drive. Rather
// than re-deriving math/rand's seeding, it draws gaussLen words from a real
// source — each draw rewrites exactly one register slot with the word it
// returns, so after gaussLen draws the words are the register — and then
// runs the recurrence backwards gaussLen steps to recover the state before
// draw 0.
func newGaussStream(seed int64) *gaussStream {
	src := rand.NewSource(seed).(rand.Source64)
	g := &gaussStream{tap: 0, feed: gaussLen - gaussTap}
	for k := 0; k < gaussLen; k++ {
		g.next() // only to step the positions; the slot is overwritten
		g.vec[g.feed] = int64(src.Uint64())
	}
	// g.tap/g.feed are back at their seeded positions; unwind each step.
	for k := 0; k < gaussLen; k++ {
		g.vec[g.feed] -= g.vec[g.tap]
		if g.tap++; g.tap == gaussLen {
			g.tap = 0
		}
		if g.feed++; g.feed == gaussLen {
			g.feed = 0
		}
	}
	return g
}

// next advances the register one step and returns the new word (math/rand's
// rngSource.Uint64).
func (g *gaussStream) next() int64 {
	if g.tap--; g.tap < 0 {
		g.tap += gaussLen
	}
	if g.feed--; g.feed < 0 {
		g.feed += gaussLen
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return x
}

// zigIndex maps one register word to the signed 32-bit ziggurat draw
// NormFloat64 takes from Rand.Uint32: bits 31..62 of the word.
func zigIndex(x int64) int32 { return int32(uint32(uint64(x) >> 31)) }

// uniform is Rand.Float64: a 63-bit word over 2⁶³, redrawn on rounding to 1.
func (g *gaussStream) uniform() float64 {
	for {
		if f := float64(g.next()&math.MaxInt64) / (1 << 63); f != 1 {
			return f
		}
	}
}

// addNoise adds sigma times one standard normal draw to every value of vs,
// in index order. The common case (over 98% of draws) is inline with the
// register positions in locals; the rest finish in tail.
func (g *gaussStream) addNoise(vs []float64, sigma float64) {
	tap, feed := g.tap, g.feed
	for k, v := range vs {
		if tap--; tap < 0 {
			tap += gaussLen
		}
		if feed--; feed < 0 {
			feed += gaussLen
		}
		x := g.vec[feed] + g.vec[tap]
		g.vec[feed] = x
		j := zigIndex(x)
		i := j & 0x7F
		if absInt32(j) < zigK[i] {
			vs[k] = v + (float64(j)*zigW[i])*sigma
			continue
		}
		g.tap, g.feed = tap, feed
		vs[k] = v + g.tail(j)*sigma
		tap, feed = g.tap, g.feed
	}
	g.tap, g.feed = tap, feed
}

// tail finishes a draw whose first word j missed its strip's rectangle: the
// base strip samples the tail beyond zigR, any other strip tests its wedge
// and redraws on rejection — reading words in NormFloat64's order.
func (g *gaussStream) tail(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * zigW[i]
		if absInt32(j) < zigK[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(g.uniform()) * (1.0 / zigR)
				y := -math.Log(g.uniform())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigR + x
			}
			return -zigR - x
		}
		if zigF[i]+float32(g.uniform())*(zigF[i-1]-zigF[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = zigIndex(g.next())
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
