package serve

import (
	"fmt"
	"sync"

	"trident/internal/core"
	"trident/internal/units"
)

// The op journal proves the drain protocol. Everything that touches the
// accelerator — served batches, chaos mutations, maintenance checks — is
// recorded in execution order while the execute token is held, so the
// journal IS the serialization the gate enforces. Replaying it against a
// twin graph (same config, same seeds) must reproduce every served class
// bit-identically; any interleaving bug (an MVM racing a bank mutation)
// shows up as a replay mismatch.

// OpKind labels one journal entry.
type OpKind string

// Journal op kinds.
const (
	// OpBatch is one served micro-batch: inputs and the classes returned.
	OpBatch OpKind = "batch"
	// OpDrift is a chaos drift spike: ApplyDrift(Hold).
	OpDrift OpKind = "drift"
	// OpFaults is a chaos wear-fault burst: InjectRandomFaults.
	OpFaults OpKind = "faults"
	// OpCheck is one maintenance window: scheduler Check at Step.
	OpCheck OpKind = "check"
)

// Op is one journal entry. Only the fields for its Kind are set.
type Op struct {
	Kind OpKind

	// OpBatch.
	Inputs  []float64
	Batch   int
	Classes []int

	// OpDrift.
	Hold units.Duration

	// OpFaults.
	Fraction  float64
	FaultKind core.FaultKind
	Seed      int64

	// OpCheck.
	Step int
}

// Journal records accelerator-touching ops in execution order. A nil
// *Journal is a valid no-op recorder, so production servers pay nothing.
type Journal struct {
	mu  sync.Mutex
	ops []Op
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Record appends one op. Callers must hold the execute token — that is
// what makes the recorded order the true execution order.
func (j *Journal) Record(op Op) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.ops = append(j.ops, op)
	j.mu.Unlock()
}

// Ops returns a copy of the journal.
func (j *Journal) Ops() []Op {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Op(nil), j.ops...)
}

// CountKind returns how many ops of one kind were recorded.
func (j *Journal) CountKind(kind OpKind) int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, op := range j.ops {
		if op.Kind == kind {
			n++
		}
	}
	return n
}

// Replay re-executes the journal against twin — a fresh graph built with
// the same config and seeds as the served one — and check, a twin
// maintenance hook (nil skips OpCheck entries). It returns the number of
// batch ops replayed and how many produced classes different from the ones
// actually served. A correct drain protocol replays with zero mismatches:
// the journal order fully determines the accelerator's state trajectory.
func (j *Journal) Replay(twin *core.Graph, check func(step int) error) (batches, mismatches int, err error) {
	for i, op := range j.Ops() {
		switch op.Kind {
		case OpBatch:
			classes, err := twin.PredictBatch(nil, op.Inputs, op.Batch)
			if err != nil {
				return batches, mismatches, fmt.Errorf("serve: replay op %d: %w", i, err)
			}
			batches++
			for k := range classes {
				if classes[k] != op.Classes[k] {
					mismatches++
					break
				}
			}
		case OpDrift:
			twin.ApplyDrift(op.Hold)
		case OpFaults:
			if _, err := twin.InjectRandomFaults(op.Fraction, op.FaultKind, op.Seed); err != nil {
				return batches, mismatches, fmt.Errorf("serve: replay op %d: %w", i, err)
			}
		case OpCheck:
			if check == nil {
				continue
			}
			if err := check(op.Step); err != nil {
				return batches, mismatches, fmt.Errorf("serve: replay op %d: %w", i, err)
			}
		default:
			return batches, mismatches, fmt.Errorf("serve: replay op %d: unknown kind %q", i, op.Kind)
		}
	}
	return batches, mismatches, nil
}
