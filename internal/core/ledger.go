// Package core implements the Trident accelerator itself: processing
// elements built from PCM-tuned MRR weight banks, balanced photodetectors,
// programmable TIAs, GST activation cells and LDSUs, composed into an
// accelerator that executes both inference and in-situ backpropagation
// training on the same hardware (Table II of the paper).
package core

import (
	"fmt"
	"sort"
	"strings"

	"trident/internal/units"
)

// EnergyCategory labels a ledger entry. The categories mirror the rows of
// Table III so a simulated run can be cross-checked against the paper's
// power breakdown.
type EnergyCategory string

// Ledger categories.
const (
	CatGSTTuning       EnergyCategory = "gst-tuning"
	CatGSTRead         EnergyCategory = "gst-read"
	CatActivationReset EnergyCategory = "activation-reset"
	CatBPDTIA          EnergyCategory = "bpd-tia"
	CatLDSU            EnergyCategory = "ldsu"
	CatEOLaser         EnergyCategory = "eo-laser"
	CatCache           EnergyCategory = "cache"
	// CatResidualJoin books the balanced-detection cost of a residual add
	// node: the two branch signals combine optically and one BPD/TIA
	// front-end event per element converts the sum back to charge.
	CatResidualJoin EnergyCategory = "residual-join"
	// CatWavelengthMerge books the E/O re-encode cost of a channel-concat
	// node: merged channel groups are re-modulated onto one wavelength comb
	// before the next bank, one modulator event per element.
	CatWavelengthMerge EnergyCategory = "wavelength-merge"
)

// Category indices, in declaration order. The ledger stores its energy in
// a fixed array indexed by these, so every sum over categories runs in the
// same order; hot paths (PE.stepEncoded) book through them directly.
const (
	catGSTTuning = iota
	catGSTRead
	catActivationReset
	catBPDTIA
	catLDSU
	catEOLaser
	catCache
	catResidualJoin
	catWavelengthMerge
	numCategories
)

// categories maps an index back to its category.
var categories = [numCategories]EnergyCategory{
	CatGSTTuning, CatGSTRead, CatActivationReset, CatBPDTIA, CatLDSU,
	CatEOLaser, CatCache, CatResidualJoin, CatWavelengthMerge,
}

// categoryIndex returns cat's index, or -1 for an unknown category.
func categoryIndex(cat EnergyCategory) int {
	for i, c := range categories {
		if c == cat {
			return i
		}
	}
	return -1
}

// Ledger accumulates energy by category and elapsed simulated time. The
// zero value is an empty ledger.
type Ledger struct {
	energy  [numCategories]units.Energy
	booked  uint16 // bit i set once category i has been booked
	elapsed units.Duration
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Add books energy under a category. Negative energy and unknown
// categories are bugs in the caller and panic.
func (l *Ledger) Add(cat EnergyCategory, e units.Energy) {
	if e < 0 {
		panic(fmt.Sprintf("core: negative energy %v for %s", e, cat))
	}
	i := categoryIndex(cat)
	if i < 0 {
		panic(fmt.Sprintf("core: unknown energy category %q", cat))
	}
	l.add(i, e)
}

// add books non-negative energy under category index i.
func (l *Ledger) add(i int, e units.Energy) {
	l.energy[i] += e
	l.booked |= 1 << i
}

// Advance moves simulated time forward. Negative durations panic.
func (l *Ledger) Advance(d units.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("core: negative time advance %v", d))
	}
	l.elapsed += d
}

// Elapsed returns the simulated wall time.
func (l *Ledger) Elapsed() units.Duration { return l.elapsed }

// Energy returns the energy booked under one category (zero for a category
// never booked or unknown).
func (l *Ledger) Energy(cat EnergyCategory) units.Energy {
	if i := categoryIndex(cat); i >= 0 {
		return l.energy[i]
	}
	return 0
}

// Breakdown returns the energy of every category booked so far, in a fresh
// map the caller may keep.
func (l *Ledger) Breakdown() map[EnergyCategory]units.Energy {
	out := make(map[EnergyCategory]units.Energy, numCategories)
	for i, e := range l.energy {
		if l.booked&(1<<i) != 0 {
			out[categories[i]] = e
		}
	}
	return out
}

// TotalEnergy returns the energy summed over all categories in declaration
// order, so the result is the same bits on every call.
func (l *Ledger) TotalEnergy() units.Energy {
	var t units.Energy
	for _, e := range l.energy {
		t += e
	}
	return t
}

// AveragePower returns total energy over elapsed time (zero if no time has
// passed).
func (l *Ledger) AveragePower() units.Power {
	return l.TotalEnergy().OverTime(l.elapsed)
}

// Merge adds another ledger's energy (not its elapsed time — time is
// parallel across PEs, energy is additive).
func (l *Ledger) Merge(o *Ledger) {
	for i, e := range o.energy {
		if o.booked&(1<<i) != 0 {
			l.add(i, e)
		}
	}
}

// Reset clears the ledger.
func (l *Ledger) Reset() { *l = Ledger{} }

// String renders the breakdown sorted by category for stable output.
func (l *Ledger) String() string {
	cats := make([]string, 0, numCategories)
	for i, c := range categories {
		if l.booked&(1<<i) != 0 {
			cats = append(cats, string(c))
		}
	}
	sort.Strings(cats)
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed %v, total %v", l.elapsed, l.TotalEnergy())
	for _, c := range cats {
		fmt.Fprintf(&b, "\n  %-18s %v", c, l.Energy(EnergyCategory(c)))
	}
	return b.String()
}
