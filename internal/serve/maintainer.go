package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"trident/internal/core"
	"trident/internal/reliability"
)

// GraphHealth captures a degradation/energy snapshot from g. It reads the
// ledger and fault counters, so it must only run while the execute token
// is held — pass it as Config.Probe and the batcher guarantees that.
func GraphHealth(g *core.Graph) func() Health {
	return func() Health {
		led := g.Ledger()
		breakdown := led.Breakdown()
		energy := make(map[string]float64, len(breakdown))
		for cat, e := range breakdown {
			energy[string(cat)] = e.Joules()
		}
		faults := g.FaultCount()
		masked := g.MaskedRowCount()
		wear := reliability.WearSummary(g)
		return Health{
			Degraded:     faults > 0 || masked > 0,
			Faults:       faults,
			MaskedRows:   masked,
			EnergyJ:      led.TotalEnergy().Joules(),
			AvgPowerW:    led.AveragePower().Watts(),
			SimElapsedS:  led.Elapsed().Seconds(),
			Energy:       energy,
			WearDrawDown: wear.MeanDrawDown,
			WornCells:    wear.WornOut,
		}
	}
}

// MaintainerConfig parameterizes the serving-mode remediation loop.
type MaintainerConfig struct {
	// Policy drives the underlying reliability scheduler. Each maintenance
	// window advances the simulated step by reliability.CheckEvery, so
	// TimePerStep×CheckEvery of drift accrues between checks.
	Policy reliability.Policy
	// Seed drives the deterministic probe inputs.
	Seed int64
}

// probeSamples is the self-probe batch size.
const probeSamples = 64

// Maintainer runs the remediation scheduler against a live serving
// batcher. It is the serving-mode counterpart of the lifetime campaign
// driver: instead of a training loop calling Check every N steps, a
// wall-clock ticker calls Check between batches, draining the batcher via
// the execute token so BIST probes and bank mutations never race an MVM.
//
// Serving has no labelled validation data, so the accuracy probe is
// self-referential: a fixed batch of deterministic probe inputs is
// classified at startup (the healthy reference), and each check measures
// agreement with that reference. Falling agreement triggers the same
// refresh → mask escalation the campaign uses — healing is disabled
// (heal=nil) because there is nothing to train on; masking is the
// graceful-degradation path and the batcher surfaces it as degraded mode.
type Maintainer struct {
	sched *reliability.Scheduler
	b     *Batcher
	gate  *schedGate

	mu     sync.Mutex
	step   int
	checks int
}

// schedGate adapts the batcher's execute token to reliability.Gate and
// journals each maintenance window at the moment the token is actually
// held — after the in-flight batch drains, before the first probe — so
// the journal records the true serialization order.
type schedGate struct {
	b       *Batcher
	j       *Journal
	pending atomic.Int64 // step of the check about to run
}

func (sg *schedGate) Acquire(ctx context.Context) (func(), error) {
	release, err := sg.b.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	sg.j.Record(Op{Kind: OpCheck, Step: int(sg.pending.Load())})
	return release, nil
}

// NewMaintainer builds a maintainer over g and b, journaling windows to j
// (nil disables journaling). It captures the healthy probe reference under
// the execute token, so it is safe to call while b is already serving.
func NewMaintainer(g *core.Graph, b *Batcher, j *Journal, cfg MaintainerConfig) (*Maintainer, error) {
	if g == nil || b == nil {
		return nil, fmt.Errorf("serve: maintainer needs a graph and a batcher")
	}
	release, err := b.Acquire(context.Background())
	if err != nil {
		return nil, err
	}
	sched, err := probeScheduler(g, cfg)
	release()
	if err != nil {
		return nil, err
	}
	gate := &schedGate{b: b, j: j}
	sched.SetGate(gate)
	return &Maintainer{sched: sched, b: b, gate: gate}, nil
}

// probeScheduler builds the serving-mode reliability scheduler over g.
// Serving has no labelled data, so its accuracy probe is the agreement of a
// deterministic probe batch with the classes g gives that batch now, at
// construction (the healthy reference). It reads g's banks: the caller must
// hold the execute token, or own g outright.
func probeScheduler(g *core.Graph, cfg MaintainerConfig) (*reliability.Scheduler, error) {
	probe := makeProbe(g.InputSize(), probeSamples, cfg.Seed)
	reference, err := g.PredictBatch(nil, probe, probeSamples)
	if err != nil {
		return nil, fmt.Errorf("serve: probe reference: %w", err)
	}
	reference = append([]int(nil), reference...)
	eval := func() (float64, error) {
		classes, err := g.PredictBatch(nil, probe, probeSamples)
		if err != nil {
			return 0, err
		}
		agree := 0
		for i := range classes {
			if classes[i] == reference[i] {
				agree++
			}
		}
		return float64(agree) / float64(len(classes)), nil
	}
	// heal=nil: no training data in serving mode; the scheduler escalates
	// straight from refresh to row masking (graceful degradation).
	return reliability.NewScheduler(g, cfg.Policy, 1.0, eval, nil)
}

// makeProbe builds the deterministic probe batch.
func makeProbe(width, samples int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	probe := make([]float64, samples*width)
	for i := range probe {
		probe[i] = rng.Float64()*2 - 1
	}
	return probe
}

// CheckNow forces one maintenance window immediately: it advances the
// simulated step, drains the batcher via the gate, runs the full BIST /
// refresh / rotate / mask check, and refreshes the cached health snapshot.
// Serialized with itself; safe to call concurrently with serving.
func (m *Maintainer) CheckNow(ctx context.Context) (reliability.CheckResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.step += reliability.CheckEvery
	m.gate.pending.Store(int64(m.step))
	res, err := m.sched.Check(m.step)
	if err != nil {
		return res, err
	}
	m.checks++
	if err := m.b.RefreshHealth(ctx); err != nil {
		return res, err
	}
	return res, nil
}

// SchedulerState returns the underlying remediation scheduler's cumulative
// state (checks, suspects, masked rows, heals). It serializes with CheckNow
// under the maintainer's lock, so the router and the /models listing can
// observe scheduler state while maintenance runs.
func (m *Maintainer) SchedulerState() reliability.State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sched.State()
}

// Checks returns how many maintenance windows have completed.
func (m *Maintainer) Checks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checks
}

// TwinChecker builds the replay-side counterpart of a maintainer for a
// twin graph: a fresh reliability scheduler with the same policy and the
// same deterministic self-probe reference, returned as the check hook
// Journal.Replay feeds OpCheck entries into. A journal recorded by a
// maintainer with cfg replays bit-identically through a twin checker built
// from the same cfg on a twin graph.
func TwinChecker(g *core.Graph, cfg MaintainerConfig) (func(step int) error, error) {
	if g == nil {
		return nil, fmt.Errorf("serve: twin checker needs a graph")
	}
	sched, err := probeScheduler(g, cfg)
	if err != nil {
		return nil, err
	}
	return func(step int) error {
		_, err := sched.Check(step)
		return err
	}, nil
}

// Run ticks maintenance windows every interval until ctx cancels or the
// batcher shuts down. It returns nil on either clean exit.
func (m *Maintainer) Run(ctx context.Context, every time.Duration) error {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
			if _, err := m.CheckNow(ctx); err != nil {
				if ctx.Err() != nil || errors.Is(err, ErrShuttingDown) {
					return nil
				}
				return err
			}
		}
	}
}
