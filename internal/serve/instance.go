package serve

import (
	"context"
	"fmt"
	"time"

	"trident/internal/core"
	"trident/internal/reliability"
)

// An Instance is one self-contained serving replica: an engine (usually a
// core.Graph), its micro-batcher, its op journal, and — for real graphs —
// its maintainer. Bundling them gives the router a uniform unit it can
// score, drain, and hand traffic between. Every accelerator-coupled
// resource is per-instance: the journal records only this replica's
// serialization order (so it replays bit-identically on a twin regardless
// of what sibling replicas did), and the maintainer drains only this
// replica's execute token.
type Instance struct {
	name  string
	eng   Engine
	b     *Batcher
	j     *Journal
	m     *Maintainer
	graph *core.Graph // nil for synthetic engines
	mcfg  MaintainerConfig
}

// Routing-score penalties. The score is a wait-equivalent duration, so
// health signals are expressed as added latency: each masked row and each
// percentage of consumed endurance makes a replica look slower to the
// router by a fixed amount. See DESIGN.md §15 for the formula.
const (
	// maskedRowScorePenalty is added per retired physical row: a masked
	// replica still answers, but siblings with intact banks are preferred.
	maskedRowScorePenalty = 250 * time.Microsecond
	// wearScorePenalty is the full-scale penalty at MeanDrawDown = 1
	// (endurance exhausted). Draw-down scales it linearly, spreading
	// programming traffic toward the least-worn replica — fleet-level
	// wear-leveling, mirroring row rotation one level up.
	wearScorePenalty = 5 * time.Millisecond
)

// NewInstance bundles an engine into a named serving instance: a batcher
// started over eng, recording into cfg.Journal when one is set. The journal
// is opt-in because it keeps a copy of every batch forever; soaks, chaos
// runs and replay tests set it, production serving leaves it nil. For
// hardware graphs use NewGraphInstance, which also wires the health probe
// and the maintainer.
func NewInstance(name string, eng Engine, cfg Config) *Instance {
	return &Instance{
		name: name,
		eng:  eng,
		b:    NewBatcher(eng, cfg),
		j:    cfg.Journal,
	}
}

// NewGraphInstance builds an instance over a hardware graph: optional
// journal, batcher with the graph health probe, and — when mcfg is non-nil — a
// maintainer whose reliability scheduler drains this instance's batcher
// through the execute token. The maintainer is constructed but not
// running; drive it with Maintainer().Run or CheckNow.
func NewGraphInstance(name string, g *core.Graph, cfg Config, mcfg *MaintainerConfig) (*Instance, error) {
	if g == nil {
		return nil, fmt.Errorf("serve: instance %q needs a graph", name)
	}
	if cfg.Probe == nil {
		cfg.Probe = GraphHealth(g)
	}
	inst := NewInstance(name, g, cfg)
	inst.graph = g
	if mcfg != nil {
		m, err := NewMaintainer(g, inst.b, inst.j, *mcfg)
		if err != nil {
			sctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			inst.b.Shutdown(sctx) //nolint:errcheck // construction failed; best-effort stop
			return nil, err
		}
		inst.m = m
		inst.mcfg = *mcfg
	}
	return inst, nil
}

// Name returns the instance's routing name (conventionally model/replica-i).
func (inst *Instance) Name() string { return inst.name }

// Batcher returns the instance's micro-batcher.
func (inst *Instance) Batcher() *Batcher { return inst.b }

// Journal returns the instance's op journal, or nil when Config.Journal
// was not set. It records only this replica's accelerator history, so it
// replays on a twin of this replica alone.
func (inst *Instance) Journal() *Journal { return inst.j }

// Maintainer returns the instance's maintainer, or nil when none was
// configured (synthetic engines, maintenance disabled).
func (inst *Instance) Maintainer() *Maintainer { return inst.m }

// Graph returns the underlying hardware graph, or nil for synthetic
// engines.
func (inst *Instance) Graph() *core.Graph { return inst.graph }

// MaintainerConfig returns the maintenance configuration the instance was
// built with — the recipe TwinChecker needs to replay this replica's
// journal on a twin.
func (inst *Instance) MaintainerConfig() MaintainerConfig { return inst.mcfg }

// Submit forwards one request to the instance's batcher.
func (inst *Instance) Submit(ctx context.Context, x []float64) (int, error) {
	return inst.b.Submit(ctx, x)
}

// Draining reports whether a maintenance window is pending or in progress
// on this instance.
func (inst *Instance) Draining() bool { return inst.b.Draining() }

// Accepting reports whether the instance still admits new requests.
func (inst *Instance) Accepting() bool { return inst.b.Accepting() }

// Health returns the cached degradation snapshot.
func (inst *Instance) Health() Health { return inst.b.Health() }

// Stats returns the instance's metrics snapshot.
func (inst *Instance) Stats() Snapshot { return inst.b.Stats() }

// EstimateWait returns the batcher's current wait estimate.
func (inst *Instance) EstimateWait() time.Duration { return inst.b.EstimateWait() }

// SchedulerState returns the maintainer's cumulative scheduler state, or
// the zero state when the instance has no maintainer.
func (inst *Instance) SchedulerState() reliability.State {
	if inst.m == nil {
		return reliability.State{}
	}
	return inst.m.SchedulerState()
}

// Score is the instance's routing score — a wait-equivalent duration the
// router minimizes over warm replicas:
//
//	score = EstimateWait                       (queue + service + pending maintenance)
//	      + MaskedRows · maskedRowScorePenalty (degraded banks serve last)
//	      + WearDrawDown · wearScorePenalty    (worn banks serve last)
//
// The wait term keeps latency first-order; the health terms break ties
// toward the healthiest, least-worn replica, so endurance draw-down
// spreads across siblings instead of concentrating on one.
func (inst *Instance) Score() time.Duration {
	h := inst.b.Health()
	score := inst.b.EstimateWait()
	score += time.Duration(h.MaskedRows) * maskedRowScorePenalty
	score += time.Duration(h.WearDrawDown * float64(wearScorePenalty))
	return score
}

// Shutdown drains the instance's batcher gracefully (see Batcher.Shutdown).
func (inst *Instance) Shutdown(ctx context.Context) error {
	return inst.b.Shutdown(ctx)
}
