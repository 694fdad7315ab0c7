package collector

import (
	"testing"
	"unsafe"

	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/walkgraph"
)

// maxStreakBytes bounds the history a full-retention collector keeps per
// detected object-second of the simulator's default trace: the 8.6 B it
// measures (178,890 detected object-seconds in 48,365 streaks of 24 B, with
// append's slack), plus a quarter. One 24-byte entry per detected second,
// the layout before streaks, comes to 40.7 B on the same trace.
const maxStreakBytes = 8.6 * 1.25

// TestHistoryFootprint streams the simulator's default trace — the office
// plan and deployment, 1,000 objects, 600 s — into NewWithHistory and into
// the per-entry reference, and holds the collector's retained history
// (slice capacities times element sizes) per detected object-second under
// maxStreakBytes. The figure is deterministic: same seed, same appends.
func TestHistoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 600 s of 1,000 objects")
	}
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	g, err := walkgraph.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 1000
	world := sim.MustNew(g, rfid.NewSensor(dep), tc, 1)
	c, ref := NewWithHistory(), newRef(true)
	for i := 0; i < 600; i++ {
		tm, raws := world.Step()
		if err := c.IngestSecond(tm, raws); err != nil {
			t.Fatal(err)
		}
		c.DrainEvents()
		ref.ingest(tm, raws)
	}

	var seconds, streaks, streakBytes, entryBytes int
	for _, tr := range c.all {
		streaks += len(tr.log.streaks)
		streakBytes += cap(tr.log.streaks) * int(unsafe.Sizeof(streak{}))
		for _, s := range tr.log.streaks {
			seconds += int(s.to - s.from + 1)
		}
	}
	for _, runs := range ref.runs {
		entryBytes += cap(runs) * int(unsafe.Sizeof(refRun{}))
		for _, r := range runs {
			entryBytes += cap(r.entries) * int(unsafe.Sizeof(model.AggregatedReading{}))
		}
	}
	perSecond := float64(streakBytes) / float64(seconds)
	t.Logf("%d detected object-seconds in %d streaks: %.1f B each as streaks, %.1f B as one entry per second",
		seconds, streaks, perSecond, float64(entryBytes)/float64(seconds))
	if perSecond > maxStreakBytes {
		t.Errorf("history costs %.2f B per detected object-second, bound %.2f", perSecond, maxStreakBytes)
	}
}
