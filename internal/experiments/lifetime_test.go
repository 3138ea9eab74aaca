package experiments

import (
	"strings"
	"testing"

	"trident/internal/reliability"
)

func TestLifetimeCampaignAndTable(t *testing.T) {
	res, err := reliability.RunCampaign(42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 10000 {
		t.Fatalf("lifetime campaign ran %d steps, want ≥ 10000", res.Steps)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("lifetime campaign recorded no health checks")
	}
	tab := LifetimeTable(res)
	out := tab.String()
	if !strings.Contains(out, "Lifetime campaign") {
		t.Fatalf("table missing title:\n%s", out)
	}
	// One rendered line per health check, plus header/frame.
	if got := strings.Count(out, "\n"); got < len(res.Timeline) {
		t.Fatalf("table renders %d lines for %d timeline rows:\n%s", got, len(res.Timeline), out)
	}
}
