package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/engine"
)

// micro returns the absolute minimum configuration for exercising the
// figure runners end to end.
func micro() Params {
	p := Quick()
	p.Objects = 8
	p.WarmupSeconds = 40
	p.Timestamps = 1
	p.RangeWindows = 3
	p.KNNPoints = 2
	return p
}

func TestAllFigureRunnersExecute(t *testing.T) {
	base := micro()
	for id, run := range Figures() {
		// Shrink the heavier sweeps further: keep only the sweep mechanics.
		fig, err := run(base)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if fig.ID != id {
			t.Errorf("figure %s reports ID %s", id, fig.ID)
		}
		if len(fig.Points) == 0 {
			t.Errorf("figure %s has no points", id)
		}
		var buf bytes.Buffer
		if err := fig.Write(&buf); err != nil {
			t.Errorf("figure %s: Write: %v", id, err)
		}
		if !strings.Contains(buf.String(), "# Figure "+id) {
			t.Errorf("figure %s: header missing", id)
		}
		buf.Reset()
		if err := fig.WriteCSV(&buf); err != nil {
			t.Errorf("figure %s: WriteCSV: %v", id, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != len(fig.Points)+1 {
			t.Errorf("figure %s: CSV rows = %d, want %d", id, len(lines), len(fig.Points)+1)
		}
		for _, line := range lines {
			if strings.Count(line, ",") != len(fig.Metrics) {
				t.Errorf("figure %s: bad CSV row %q", id, line)
			}
		}
	}
}

func TestTweakHookApplies(t *testing.T) {
	p := micro()
	applied := false
	p.Tweak = func(c *engine.Config) { applied = true }
	if _, err := Run(p); err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Error("Tweak hook not invoked")
	}
}

func TestAblationRunnersExecute(t *testing.T) {
	base := micro()
	for name, run := range Ablations() {
		fig, err := run(base)
		if err != nil {
			t.Fatalf("ablation %s: %v", name, err)
		}
		if len(fig.Points) < 2 {
			t.Errorf("ablation %s has %d points", name, len(fig.Points))
		}
	}
	ids := AblationIDs()
	if len(ids) != len(Ablations()) {
		t.Error("AblationIDs out of sync")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Error("AblationIDs not sorted")
		}
	}
}
