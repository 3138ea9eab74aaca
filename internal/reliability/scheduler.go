package reliability

import (
	"context"
	"fmt"

	"trident/internal/core"
	"trident/internal/units"
)

// The remediation scheduler. It owns the detect→diagnose→repair loop of a
// deployed part: between training (or serving) intervals it ages the banks
// by the wall-clock time that passed, self-tests them, and applies the
// cheapest repair that restores health — refresh pulses for drift, row-map
// rotation to spread write wear, bounded in-situ healing epochs when
// validation accuracy sags, and row masking as the graceful-degradation
// endpoint. It never reads simulator fault state: every decision comes from
// BIST reports and the validation probe.

// CheckEvery is the number of training (or serving) steps between health
// checks: the campaign driver calls Check at this cadence and the serving
// maintainer advances its simulated step by it per maintenance window.
const CheckEvery = 500

// The scheduler's fixed remediation rules. Every check runs the drift
// refresh pass; one healing intervention is healEpochs in-situ epochs
// (training re-routes gradient flow around pinned cells); healing triggers
// when validation accuracy falls more than accuracyDrop below baseline; and
// masking retires a physical row once a post-refresh self-test still finds
// at least half its cells stuck.
const (
	healEpochs   = 2
	accuracyDrop = 0.02
)

// Policy sets the scheduler's knobs. Zero values select the documented
// defaults.
type Policy struct {
	// BISTRepeats is the number of averaged probe passes per basis vector
	// (RunBIST's default 2 when zero) — averaging suppresses read noise.
	BISTRepeats int
	// TimePerStep is the simulated deployment time one training step
	// represents. Each check ages the banks by TimePerStep × steps-since-
	// last-check before self-testing, so drift accrues with the campaign
	// horizon. Zero disables drift aging.
	TimePerStep units.Duration
	// WearLevelEvery rotates every bank's logical→physical row map by one
	// row after every k-th check (0 disables wear-leveling).
	WearLevelEvery int
}

// CheckResult reports one scheduler health check.
type CheckResult struct {
	Step int
	// SimTime is the simulated deployment time at the check.
	SimTime units.Duration
	// NewSuspects counts cells flagged for the first time this check;
	// Suspects is the cumulative distinct count.
	NewSuspects, Suspects int
	// Refreshed counts drift-refresh write pulses issued this check.
	Refreshed int
	// Accuracy is the validation accuracy after any remediation.
	Accuracy float64
	// Healed reports whether an in-situ healing intervention ran.
	Healed bool
	// MaskedRows is the cumulative count of retired physical rows.
	MaskedRows int
	// Rotated reports whether wear-leveling advanced the row maps.
	Rotated bool
}

// Gate is the drain/permit protocol between the scheduler and a serving
// front-end: Acquire blocks until no micro-batch is in flight and no new one
// can start, then returns a release function. While the permit is held the
// scheduler owns the banks exclusively — BIST park-and-probe passes, refresh
// pulses, row-map rotation and masking never race an MVM. The serving
// batcher implements this (serve.Batcher); a nil gate means the caller
// already guarantees exclusivity (the training campaign calls Check between
// samples).
type Gate interface {
	Acquire(ctx context.Context) (release func(), err error)
}

// Scheduler drives periodic health checks over one network. The validation
// probe and the healing routine are injected: the scheduler decides *when*
// to remediate, the campaign owns the data.
type Scheduler struct {
	net      *core.Graph
	policy   Policy
	baseline float64
	eval     func() (float64, error)
	heal     func(epochs int) error
	gate     Gate

	seen     map[suspectKey]Suspect
	checks   int
	lastStep int
	heals    int
}

// NewScheduler builds a scheduler for net. baseline is the pre-degradation
// validation accuracy remediation tries to hold; eval measures current
// validation accuracy; heal runs bounded in-situ training epochs (nil
// disables healing).
func NewScheduler(net *core.Graph, policy Policy, baseline float64,
	eval func() (float64, error), heal func(epochs int) error) (*Scheduler, error) {
	if net == nil {
		return nil, fmt.Errorf("reliability: nil network")
	}
	if eval == nil {
		return nil, fmt.Errorf("reliability: scheduler needs a validation probe")
	}
	return &Scheduler{
		net:      net,
		policy:   policy,
		baseline: baseline,
		eval:     eval,
		heal:     heal,
		seen:     make(map[suspectKey]Suspect),
	}, nil
}

// SetGate installs the drain/permit gate Check acquires before touching the
// banks. Install it before the first Check; passing nil removes the gate.
func (s *Scheduler) SetGate(g Gate) { s.gate = g }

// State is the scheduler's cumulative remediation history — the health
// signal a wear-aware router consumes alongside EstimateWait when scoring
// replicas. It is a plain value snapshot; reading it must be serialized
// with Check by the caller (the serving maintainer does this under its own
// lock).
type State struct {
	// Checks is the number of completed health checks; LastStep the
	// training/serving step of the most recent one.
	Checks, LastStep int
	// Suspects is the cumulative count of distinct BIST-flagged cells.
	Suspects int
	// MaskedRows is the cumulative count of retired physical rows.
	MaskedRows int
	// Heals counts in-situ healing interventions.
	Heals int
}

// State returns the cumulative remediation snapshot. Not safe to call
// concurrently with Check — wrap it behind whatever serializes checks.
func (s *Scheduler) State() State {
	return State{
		Checks:     s.checks,
		LastStep:   s.lastStep,
		Suspects:   len(s.seen),
		MaskedRows: s.net.MaskedRowCount(),
		Heals:      s.heals,
	}
}

// Heals returns how many healing interventions have run.
func (s *Scheduler) Heals() int { return s.heals }

// Suspected reports whether the self-test has ever flagged the fabricated
// cell at the given network position — the hook the campaign's oracle-side
// scoring uses to measure detection coverage.
func (s *Scheduler) Suspected(layer, tileRow, tileCol, physRow, col int) bool {
	_, ok := s.seen[suspectKey{layer, tileRow, tileCol, physRow, col}]
	return ok
}

// absorb merges a report into the cumulative suspect set, returning how many
// cells were flagged for the first time.
func (s *Scheduler) absorb(rep *BISTReport) int {
	fresh := 0
	for _, su := range rep.Suspects {
		if _, ok := s.seen[su.key()]; !ok {
			s.seen[su.key()] = su
			fresh++
		}
	}
	return fresh
}

// refreshAll re-pulses every drift-displaced cell. Walks PEs in fixed order;
// refresh traffic is rare enough that parallelism buys nothing here. Each
// refreshed row dirties only itself in the bank's compiled snapshot, so a
// check that refreshes a handful of rows costs a handful of row recompiles —
// not a full O(J·N·r) rebuild per bank (pinned by the scheduler recompile
// test).
func (s *Scheduler) refreshAll() int {
	before := s.writes()
	s.net.ForEachPE(func(_, _, _ int, pe *core.PE) {
		pe.RefreshWeights()
	})
	return int(s.writes() - before)
}

// writes sums lifetime write pulses across every cell (cheap bookkeeping
// read, used to report refresh volume).
func (s *Scheduler) writes() uint64 {
	var total uint64
	s.net.ForEachPE(func(_, _, _ int, pe *core.PE) {
		bank := pe.Bank()
		for r := 0; r < bank.Rows(); r++ {
			for c := 0; c < bank.Cols(); c++ {
				total += bank.PhysicalTuner(r, c).Writes()
			}
		}
	})
	return total
}

// belowTarget reports whether acc violates the baseline slack.
func (s *Scheduler) belowTarget(acc float64) bool {
	return acc < s.baseline-accuracyDrop
}

// Check runs one full health check at the given training step: drift aging,
// self-test, drift refresh, periodic wear-leveling, then accuracy-driven
// healing and (if healing alone cannot recover, or no healing routine is
// installed) row masking. It must not run concurrently with a pass: the
// training campaign calls it between samples, and a serving front-end
// installs a Gate (SetGate) so the check drains in-flight micro-batches
// first and holds new ones back until the banks are consistent again.
func (s *Scheduler) Check(step int) (CheckResult, error) {
	if s.gate != nil {
		release, err := s.gate.Acquire(context.Background())
		if err != nil {
			return CheckResult{Step: step}, fmt.Errorf("reliability: maintenance permit: %w", err)
		}
		defer release()
	}
	p := s.policy
	res := CheckResult{Step: step, SimTime: units.Duration(float64(step)) * p.TimePerStep}
	if p.TimePerStep > 0 && step > s.lastStep {
		hold := units.Duration(float64(step-s.lastStep)) * p.TimePerStep
		s.net.ApplyDrift(hold)
	}
	rep, err := RunBIST(s.net, p.BISTRepeats)
	if err != nil {
		return res, err
	}
	res.NewSuspects = s.absorb(rep)
	res.Refreshed = s.refreshAll()
	s.checks++
	if p.WearLevelEvery > 0 && s.checks%p.WearLevelEvery == 0 {
		s.net.RotateWearLeveling(1)
		res.Rotated = true
	}
	acc, err := s.eval()
	if err != nil {
		return res, err
	}
	if s.belowTarget(acc) {
		if s.heal != nil {
			if err := s.heal(healEpochs); err != nil {
				return res, err
			}
			s.heals++
			res.Healed = true
			if acc, err = s.eval(); err != nil {
				return res, err
			}
		}
		// Healing alone did not recover (or a serving deployment has no
		// training data to heal with): retire rows the post-refresh self-test
		// still finds stuck and keep serving degraded rather than going dark.
		if s.belowTarget(acc) {
			masked, err := s.maskDeadRows()
			if err != nil {
				return res, err
			}
			if masked > 0 {
				if s.heal != nil {
					if err := s.heal(healEpochs); err != nil {
						return res, err
					}
					s.heals++
				}
				if acc, err = s.eval(); err != nil {
					return res, err
				}
			}
		}
	}
	res.Accuracy = acc
	res.Suspects = len(s.seen)
	res.MaskedRows = s.net.MaskedRowCount()
	s.lastStep = step
	// Pay any pending snapshot recompilation now — row-scoped after refresh
	// pulses or masking, full after drift aging or wear-leveling — so the
	// serving window that follows reopens on warm banks instead of stalling
	// its first pass on a rebuild.
	s.net.CompileBanks()
	return res, nil
}

// maskDeadRows runs a fresh post-refresh self-test — cells still out of
// tolerance now are stuck, not drifted — and retires every physical row
// whose stuck-suspect count reaches half its cells (at least one). It
// returns how many rows were newly masked.
func (s *Scheduler) maskDeadRows() (int, error) {
	rep, err := RunBIST(s.net, s.policy.BISTRepeats)
	if err != nil {
		return 0, err
	}
	s.absorb(rep)
	type rowKey struct{ layer, tileRow, tileCol, physRow int }
	counts := make(map[rowKey]int)
	for _, su := range rep.Suspects {
		counts[rowKey{su.Layer, su.TileRow, su.TileCol, su.PhysRow}]++
	}
	masked := 0
	layers := s.net.Layers()
	// Walk suspects in report order (deterministic) rather than map order.
	done := make(map[rowKey]bool)
	for _, su := range rep.Suspects {
		rk := rowKey{su.Layer, su.TileRow, su.TileCol, su.PhysRow}
		if done[rk] {
			continue
		}
		done[rk] = true
		pe := layers[su.Layer].Tiles()[su.TileRow][su.TileCol]
		threshold := max(pe.Cols()/2, 1)
		if counts[rk] < threshold || pe.Bank().RowMasked(su.PhysRow) {
			continue
		}
		if err := pe.MaskRow(su.PhysRow); err != nil {
			return masked, err
		}
		masked++
	}
	return masked, nil
}
