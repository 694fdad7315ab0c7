package health

import (
	"testing"

	"repro/internal/model"
)

func mustMonitor(t *testing.T, n int) *Monitor {
	t.Helper()
	m, err := NewMonitor(DefaultConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reading builds a well-stamped raw reading.
func reading(obj model.ObjectID, rd model.ReaderID, t model.Time) model.RawReading {
	return model.RawReading{Object: obj, Reader: rd, Time: t}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero (disabled) config must validate, got %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.SuspectMissed = float64(bad.ExpectHorizon) // not strictly above
	if err := bad.Validate(); err == nil {
		t.Fatal("SuspectMissed <= ExpectHorizon must be rejected")
	}
	bad = DefaultConfig()
	bad.DeadMissed = bad.SuspectMissed - 1
	if err := bad.Validate(); err == nil {
		t.Fatal("DeadMissed < SuspectMissed must be rejected")
	}
}

func TestDisabledMonitorIsInert(t *testing.T) {
	m, err := NewMonitor(Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for sec := model.Time(1); sec <= 50; sec++ {
		if m.ObserveSecond(sec, nil) {
			t.Fatal("disabled monitor reported a state change")
		}
	}
	if m.Unhealthy() != nil {
		t.Fatal("disabled monitor has an unhealthy set")
	}
}

// TestSteadyTrafficStaysLive: a reader with steady traffic, plus a reader
// that never reads, both stay LIVE (no traffic means no expectation).
func TestSteadyTrafficStaysLive(t *testing.T) {
	m := mustMonitor(t, 2)
	for sec := model.Time(1); sec <= 100; sec++ {
		m.ObserveSecond(sec, []model.RawReading{reading(1, 0, sec)})
	}
	if got := m.readers[0].state; got != Live {
		t.Fatalf("steady reader state = %v, want live", got)
	}
	if got := m.readers[1].state; got != Live {
		t.Fatalf("silent-forever reader state = %v, want live", got)
	}
	if m.Unhealthy() != nil {
		t.Fatal("unexpected unhealthy set")
	}
}

// TestSingleVanishDoesNotFlag: one object walking out of a reader's range
// (e.g. into an uncovered room) must never flag the reader — a lone vanish
// accrues at most ExpectHorizon misses, below SuspectMissed by construction.
func TestSingleVanishDoesNotFlag(t *testing.T) {
	m := mustMonitor(t, 1)
	for sec := model.Time(1); sec <= 30; sec++ {
		m.ObserveSecond(sec, []model.RawReading{reading(7, 0, sec)})
	}
	// The object vanishes; the reader sees nothing, forever.
	for sec := model.Time(31); sec <= 120; sec++ {
		m.ObserveSecond(sec, nil)
	}
	if got := m.readers[0].state; got != Live {
		t.Fatalf("reader flagged %v after a single object vanished, want live", got)
	}
}

// TestMassVanishGoesSuspectThenDead: three objects going dark simultaneously
// is the signature of a dying range; the reader must pass SUSPECT on the way
// to DEAD.
func TestMassVanishGoesSuspectThenDead(t *testing.T) {
	m := mustMonitor(t, 2)
	feed := func(sec model.Time) []model.RawReading {
		return []model.RawReading{
			reading(1, 0, sec), reading(2, 0, sec), reading(3, 0, sec),
			reading(9, 1, sec), // keep reader 1 alive as a control
		}
	}
	for sec := model.Time(1); sec <= 30; sec++ {
		m.ObserveSecond(sec, feed(sec))
	}
	sawSuspect := false
	var deadAt model.Time
	for sec := model.Time(31); sec <= 60 && deadAt == 0; sec++ {
		m.ObserveSecond(sec, []model.RawReading{reading(9, 1, sec)})
		switch m.readers[0].state {
		case Suspect:
			sawSuspect = true
		case Dead:
			deadAt = sec
		}
	}
	if !sawSuspect {
		t.Error("reader never passed through SUSPECT")
	}
	if deadAt == 0 {
		t.Fatalf("reader never declared DEAD; state=%v missed=%v", m.readers[0].state, m.Snapshot(60)[0].Missed)
	}
	if got := m.readers[1].state; got != Live {
		t.Fatalf("control reader state = %v, want live", got)
	}
	un := m.Unhealthy()
	if un == nil || !un[0] || un[1] {
		t.Fatalf("unhealthy set = %v, want reader 0 only", un)
	}
}

// TestHandoffReleasesExpectation: objects handed off to a neighboring reader
// release the previous reader immediately — a drained hallway segment is not
// an outage.
func TestHandoffReleasesExpectation(t *testing.T) {
	m := mustMonitor(t, 2)
	for sec := model.Time(1); sec <= 20; sec++ {
		m.ObserveSecond(sec, []model.RawReading{
			reading(1, 0, sec), reading(2, 0, sec), reading(3, 0, sec),
		})
	}
	// All three hand off to reader 1 and keep reading there.
	for sec := model.Time(21); sec <= 80; sec++ {
		m.ObserveSecond(sec, []model.RawReading{
			reading(1, 1, sec), reading(2, 1, sec), reading(3, 1, sec),
		})
	}
	if got := m.readers[0].state; got != Live {
		t.Fatalf("handed-off reader state = %v, want live", got)
	}
}

// TestReleaseSuppressesExpectation: a released object (the engine releases
// every object the collector reports an ENTER for) leaves its reader
// expecting nothing, so the reader stays LIVE even when several released
// objects vanish together.
func TestReleaseSuppressesExpectation(t *testing.T) {
	m := mustMonitor(t, 1)
	for sec := model.Time(1); sec <= 20; sec++ {
		m.ObserveSecond(sec, []model.RawReading{
			reading(1, 0, sec), reading(2, 0, sec), reading(3, 0, sec),
		})
	}
	// All three vanish at once, but every vanish is explained by an ENTER.
	m.Release(1)
	m.Release(2)
	m.Release(3)
	for sec := model.Time(21); sec <= 120; sec++ {
		m.ObserveSecond(sec, nil)
	}
	if got := m.readers[0].state; got != Live {
		t.Fatalf("reader flagged %v after explained vanishes, want live", got)
	}
}

// TestRecoveryHysteresis: a DEAD reader needs RecoverSeconds consecutive
// reading seconds before it is trusted LIVE again; a single flap is not
// enough.
func TestRecoveryHysteresis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecoverSeconds = 3
	m, err := NewMonitor(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sec := model.Time(0)
	step := func(raws []model.RawReading) {
		sec++
		m.ObserveSecond(sec, raws)
	}
	traffic := func(t model.Time) []model.RawReading {
		return []model.RawReading{reading(1, 0, t), reading(2, 0, t), reading(3, 0, t)}
	}
	for i := 0; i < 30; i++ {
		step(traffic(sec + 1))
	}
	for i := 0; i < 30; i++ {
		step(nil)
	}
	if got := m.readers[0].state; got != Dead {
		t.Fatalf("state after mass vanish = %v, want dead", got)
	}
	// One flap second, then silence again: still not LIVE.
	step(traffic(sec + 1))
	if got := m.readers[0].state; got != Dead {
		t.Fatalf("state after a single flap = %v, want dead (hysteresis)", got)
	}
	step(nil)
	step(traffic(sec + 1))
	step(traffic(sec + 1))
	if got := m.readers[0].state; got != Live {
		// Streak broke at the silent second; two more make 2 < 3.
		t.Logf("state after broken streak = %v (expected not yet live)", got)
	}
	step(traffic(sec + 1))
	if got := m.readers[0].state; got != Live {
		t.Fatalf("state after %d consecutive reading seconds = %v, want live", cfg.RecoverSeconds, got)
	}
	if m.Unhealthy() != nil {
		t.Fatal("unhealthy set must be nil after full recovery")
	}
}

// TestSuspectRecoversOnFirstReading: SUSPECT is statistical, so one real
// detection clears it.
func TestSuspectRecoversOnFirstReading(t *testing.T) {
	m := mustMonitor(t, 1)
	sec := model.Time(0)
	for i := 0; i < 20; i++ {
		sec++
		m.ObserveSecond(sec, []model.RawReading{reading(1, 0, sec), reading(2, 0, sec)})
	}
	for m.readers[0].state == Live {
		sec++
		m.ObserveSecond(sec, nil)
		if sec > 200 {
			t.Fatal("two vanished objects never drove the reader to SUSPECT")
		}
	}
	if got := m.readers[0].state; got != Suspect {
		t.Fatalf("state = %v, want suspect", got)
	}
	sec++
	m.ObserveSecond(sec, []model.RawReading{reading(5, 0, sec)})
	if got := m.readers[0].state; got != Live {
		t.Fatalf("state after reading = %v, want live", got)
	}
}

// TestMisstampedReadingProvesLiveness: a reading with a skewed stamp still
// resets the reader's silence clock (its radio works; its clock is broken).
func TestMisstampedReadingProvesLiveness(t *testing.T) {
	m := mustMonitor(t, 1)
	sec := model.Time(0)
	for i := 0; i < 20; i++ {
		sec++
		m.ObserveSecond(sec, []model.RawReading{reading(1, 0, sec), reading(2, 0, sec)})
	}
	// Objects vanish, but the reader keeps emitting mis-stamped readings.
	for i := 0; i < 40; i++ {
		sec++
		m.ObserveSecond(sec, []model.RawReading{{Object: 1, Reader: 0, Time: sec + 3}})
	}
	if got := m.readers[0].state; got != Live {
		t.Fatalf("state = %v, want live (mis-stamped readings prove liveness)", got)
	}
}

// TestSnapshotFields sanity-checks the externally served record.
func TestSnapshotFields(t *testing.T) {
	m := mustMonitor(t, 2)
	m.ObserveSecond(1, []model.RawReading{reading(1, 0, 1)})
	m.ObserveSecond(2, nil)
	m.ObserveSecond(3, nil)
	snap := m.Snapshot(3)
	if len(snap) != 2 {
		t.Fatalf("snapshot size %d, want 2", len(snap))
	}
	if snap[0].SilenceSeconds != 2 {
		t.Errorf("reader 0 silence = %d, want 2", snap[0].SilenceSeconds)
	}
	if snap[1].SilenceSeconds != -1 {
		t.Errorf("never-read reader silence = %d, want -1", snap[1].SilenceSeconds)
	}
	if snap[0].StateName != "live" {
		t.Errorf("state name %q, want live", snap[0].StateName)
	}
	if snap[0].LastRead != 1 {
		t.Errorf("lastRead %d, want 1", snap[0].LastRead)
	}
}

// TestReplayedSecondIgnored: feeding a second at or before the monitor's
// clock (the recovery replay overlap case) must not change anything.
func TestReplayedSecondIgnored(t *testing.T) {
	m := mustMonitor(t, 1)
	for sec := model.Time(1); sec <= 10; sec++ {
		m.ObserveSecond(sec, []model.RawReading{reading(1, 0, sec)})
	}
	if m.ObserveSecond(5, nil) {
		t.Fatal("replayed second changed state")
	}
	if got := m.Snapshot(10)[0].LastRead; got != 10 {
		t.Fatalf("lastRead = %d after replay, want 10", got)
	}
}

// TestGhostReadsAttributeDeterministically: objects read by two readers in
// the same second, with as many samples each, are attributed to the lower
// reader ID, as the collector aggregates them — so when they then vanish,
// that reader and only that reader expects them back. Run repeatedly: an
// attribution that followed map order would flag one reader in some runs
// and the other in the rest.
func TestGhostReadsAttributeDeterministically(t *testing.T) {
	for run := 0; run < 40; run++ {
		m := mustMonitor(t, 4)
		sec := model.Time(0)
		step := func(raws []model.RawReading) {
			sec++
			for i := range raws {
				raws[i].Time = sec
			}
			m.ObserveSecond(sec, raws)
		}
		// Readers 1 and 2 each carry ten objects, then hand them all to
		// reader 3.
		for i := 0; i < 20; i++ {
			var raws []model.RawReading
			for obj := model.ObjectID(1); obj <= 20; obj++ {
				raws = append(raws, reading(obj, 1+model.ReaderID(obj-1)/10, 0))
			}
			step(raws)
		}
		handoff := func(from model.ObjectID) []model.RawReading {
			var raws []model.RawReading
			for obj := from; obj <= 20; obj++ {
				raws = append(raws, reading(obj, 3, 0))
			}
			return raws
		}
		for i := 0; i < 5; i++ {
			step(handoff(1))
		}
		// Objects 1-5 are read by both readers, once each, then vanish.
		ghost := handoff(6)
		for obj := model.ObjectID(1); obj <= 5; obj++ {
			ghost = append(ghost, reading(obj, 2, 0), reading(obj, 1, 0))
		}
		step(ghost)
		for i := 0; i < 10; i++ {
			step(handoff(6))
			if got := m.readers[2].state; got != Live {
				t.Fatalf("run %d, second %d: reader 2 is %v; the tied objects belong to reader 1", run, sec, got)
			}
		}
		if got := m.readers[1].state; got == Live {
			t.Fatalf("run %d: reader 1 stayed live after its five attributed objects vanished", run)
		}
	}
}

// TestReplayedSecondZeroIgnored: second 0 is a second like any other — once
// observed, observing it again changes nothing.
func TestReplayedSecondZeroIgnored(t *testing.T) {
	m := mustMonitor(t, 1)
	m.ObserveSecond(0, []model.RawReading{reading(1, 0, 0)})
	before := m.Snapshot(0)
	if m.ObserveSecond(0, []model.RawReading{reading(1, 0, 0)}) {
		t.Fatal("replayed second 0 changed state")
	}
	if after := m.Snapshot(0); after[0] != before[0] {
		t.Fatalf("replaying second 0 moved reader 0 from %+v to %+v", before[0], after[0])
	}
}
