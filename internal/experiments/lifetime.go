package experiments

import (
	"fmt"

	"trident/internal/reliability"
	"trident/internal/report"
)

// LifetimeTable renders a campaign's health-check timeline as the
// wear/accuracy table the CLI and the fault-tolerance example print.
func LifetimeTable(res *reliability.CampaignResult) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Lifetime campaign — %d steps, %d wear faults, %d/%d detected (%.0f%%)",
			res.Steps, res.WearFaults, res.Detected, res.WearFaults, 100*res.DetectionRate),
		"step", "sim time", "faults", "suspects", "new", "accuracy", "healed", "masked", "rotated",
	)
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return ""
	}
	for _, row := range res.Timeline {
		t.AddRow(
			row.Step,
			row.SimTime.String(),
			row.Faults,
			row.Suspects,
			row.NewSuspects,
			fmt.Sprintf("%.3f", row.Accuracy),
			mark(row.Healed),
			row.MaskedRows,
			mark(row.Rotated),
		)
	}
	return t
}
