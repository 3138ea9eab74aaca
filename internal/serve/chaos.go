package serve

import (
	"context"
	"fmt"
	"time"

	"trident/internal/core"
	"trident/internal/units"
)

// Chaos injects runtime faults into a live serving stack: wear-fault
// bursts, drift spikes, and artificial stalls. Every injection acquires
// the execute token first, exactly like real maintenance, so chaos
// exercises the same drain protocol the soak test asserts — and every
// state-changing strike is journaled, so the bit-identity replay covers
// chaotic runs too.
//
// Strikes are deterministic: event i of a Chaos with seed S always
// produces the same mutation, so a failing soak reproduces exactly.

// ChaosConfig parameterizes fault injection.
type ChaosConfig struct {
	// Seed derives every per-event seed; one seed reproduces the whole
	// strike sequence.
	Seed int64
	// FaultFraction is the bank fraction hit per wear burst (default
	// 0.005 — a handful of cells on small graphs).
	FaultFraction float64
	// Stall is how long a stall strike holds the execute token (default
	// 3ms — long enough to pile up a queue at serving rates).
	Stall time.Duration
}

// A drift spike ages the banks by chaosDriftHold of simulated time, and Run
// strikes every chaosInterval.
const (
	chaosDriftHold = 600 * units.Second
	chaosInterval  = 10 * time.Millisecond
)

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.FaultFraction <= 0 {
		c.FaultFraction = 0.005
	}
	if c.Stall <= 0 {
		c.Stall = 3 * time.Millisecond
	}
	return c
}

// Chaos drives fault injection against one graph through one batcher.
type Chaos struct {
	cfg ChaosConfig
	g   *core.Graph
	b   *Batcher
	j   *Journal
}

// NewChaos builds a chaos injector journaling to j (nil disables
// journaling — but then replay cannot reproduce the run).
func NewChaos(g *core.Graph, b *Batcher, j *Journal, cfg ChaosConfig) *Chaos {
	return &Chaos{cfg: cfg.withDefaults(), g: g, b: b, j: j}
}

// Strike executes chaos event i: a stall, a drift spike, or a wear-fault
// burst, cycling by index. It drains the batcher, applies the mutation
// under the execute token, journals it, and releases. Deterministic in i.
func (c *Chaos) Strike(ctx context.Context, i int) error {
	release, err := c.b.Acquire(ctx)
	if err != nil {
		return fmt.Errorf("serve: chaos strike %d: %w", i, err)
	}
	defer release()
	switch i % 3 {
	case 0: // stall: hold the token, let the queue build
		select {
		case <-time.After(c.cfg.Stall):
		case <-ctx.Done():
		}
	case 1: // drift spike
		c.g.ApplyDrift(chaosDriftHold)
		c.j.Record(Op{Kind: OpDrift, Hold: chaosDriftHold})
	case 2: // wear-fault burst
		seed := c.cfg.Seed + int64(i)*1000003
		if _, err := c.g.InjectRandomFaults(c.cfg.FaultFraction, core.StuckCrystalline, seed); err != nil {
			return fmt.Errorf("serve: chaos strike %d: %w", i, err)
		}
		c.j.Record(Op{
			Kind: OpFaults, Fraction: c.cfg.FaultFraction,
			FaultKind: core.StuckCrystalline, Seed: seed,
		})
	}
	return nil
}

// Run strikes every chaosInterval until ctx cancels or the batcher shuts down.
// It returns the number of strikes executed.
func (c *Chaos) Run(ctx context.Context) int {
	strikes := 0
	t := time.NewTicker(chaosInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return strikes
		case <-t.C:
			if err := c.Strike(ctx, strikes); err != nil {
				return strikes
			}
			strikes++
		}
	}
}
