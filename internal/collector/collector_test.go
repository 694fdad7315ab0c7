package collector

import (
	"errors"
	"testing"

	"repro/internal/ingest"
	"repro/internal/model"
)

func raw(obj model.ObjectID, rd model.ReaderID, t model.Time, n int) []model.RawReading {
	out := make([]model.RawReading, n)
	for i := range out {
		out[i] = model.RawReading{Object: obj, Reader: rd, Time: t}
	}
	return out
}

func TestAggregationOneEntryPerSecond(t *testing.T) {
	c := New()
	c.IngestSecond(10, raw(1, 2, 10, 7)) // seven samples in one second
	ag := c.Aggregated(1)
	if len(ag) != 1 {
		t.Fatalf("aggregated entries = %d, want 1", len(ag))
	}
	if ag[0].Reader != 2 || ag[0].Time != 10 || !ag[0].Detected() {
		t.Errorf("entry = %+v", ag[0])
	}
}

func TestAggregationPicksMajorityReader(t *testing.T) {
	c := New()
	raws := append(raw(1, 2, 10, 3), raw(1, 5, 10, 6)...)
	c.IngestSecond(10, raws)
	ag := c.Aggregated(1)
	if len(ag) != 1 || ag[0].Reader != 5 {
		t.Fatalf("aggregated = %+v, want reader 5", ag)
	}
}

func TestAggregationTieBreaksLowerID(t *testing.T) {
	c := New()
	raws := append(raw(1, 7, 10, 3), raw(1, 2, 10, 3)...)
	c.IngestSecond(10, raws)
	if ag := c.Aggregated(1); ag[0].Reader != 2 {
		t.Fatalf("tie went to reader %d, want 2", ag[0].Reader)
	}
}

func TestEnterLeaveEvents(t *testing.T) {
	c := New()
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(2, raw(1, 2, 2, 5))
	c.IngestSecond(3, nil) // left the range
	c.IngestSecond(4, raw(1, 3, 4, 5))
	ev := c.DrainEvents()
	want := []model.Event{
		{Kind: model.Enter, Object: 1, Reader: 2, Time: 1},
		{Kind: model.Leave, Object: 1, Reader: 2, Time: 3},
		{Kind: model.Enter, Object: 1, Reader: 3, Time: 4},
	}
	if len(ev) != len(want) {
		t.Fatalf("events = %v", ev)
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Errorf("event[%d] = %v, want %v", i, ev[i], want[i])
		}
	}
	// Drained: second call is empty.
	if len(c.DrainEvents()) != 0 {
		t.Error("DrainEvents not drained")
	}
}

func TestDirectHandoffEmitsLeaveAndEnter(t *testing.T) {
	c := New()
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(2, raw(1, 3, 2, 5)) // adjacent ranges, no gap second
	ev := c.DrainEvents()
	if len(ev) != 3 {
		t.Fatalf("events = %v", ev)
	}
	if ev[1].Kind != model.Leave || ev[1].Reader != 2 || ev[2].Kind != model.Enter || ev[2].Reader != 3 {
		t.Errorf("handoff events = %v", ev)
	}
}

func TestTwoDeviceRetention(t *testing.T) {
	c := New()
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(5, raw(1, 3, 5, 5))
	c.IngestSecond(9, raw(1, 4, 9, 5)) // third device: drop device 2
	ag := c.Aggregated(1)
	if len(ag) != 2 {
		t.Fatalf("aggregated = %+v", ag)
	}
	if ag[0].Reader != 3 || ag[1].Reader != 4 {
		t.Errorf("retained readers = %d, %d; want 3, 4", ag[0].Reader, ag[1].Reader)
	}
	di, dj := c.RecentDevices(1)
	if di != 3 || dj != 4 {
		t.Errorf("RecentDevices = %d, %d", di, dj)
	}
}

func TestReentrySameDeviceExtendsRun(t *testing.T) {
	c := New()
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(2, nil)
	c.IngestSecond(3, raw(1, 2, 3, 5)) // back into the same reader
	di, dj := c.RecentDevices(1)
	if di != model.NoReader || dj != 2 {
		t.Errorf("RecentDevices = %d, %d; want NoReader, 2", di, dj)
	}
	if ag := c.Aggregated(1); len(ag) != 2 {
		t.Errorf("aggregated = %+v", ag)
	}
}

func TestRecentDevicesSingleAndUnknown(t *testing.T) {
	c := New()
	di, dj := c.RecentDevices(9)
	if di != model.NoReader || dj != model.NoReader {
		t.Error("unknown object should have no devices")
	}
	c.IngestSecond(1, raw(1, 2, 1, 5))
	di, dj = c.RecentDevices(1)
	if di != model.NoReader || dj != 2 {
		t.Errorf("RecentDevices = %d, %d", di, dj)
	}
}

func TestLastReading(t *testing.T) {
	c := New()
	if _, ok := c.LastReading(1); ok {
		t.Error("LastReading on unknown object")
	}
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(2, raw(1, 2, 2, 5))
	lr, ok := c.LastReading(1)
	if !ok || lr.Time != 2 || lr.Reader != 2 {
		t.Errorf("LastReading = %+v, %v", lr, ok)
	}
}

func TestCurrentlyDetectedBy(t *testing.T) {
	c := New()
	if c.CurrentlyDetectedBy(1) != model.NoReader {
		t.Error("unknown object currently detected")
	}
	c.IngestSecond(1, raw(1, 2, 1, 5))
	if c.CurrentlyDetectedBy(1) != 2 {
		t.Error("not detected by 2")
	}
	c.IngestSecond(2, nil)
	if c.CurrentlyDetectedBy(1) != model.NoReader {
		t.Error("still detected after leaving")
	}
}

func TestIgnoresWrongTimeAndDuplicateSeconds(t *testing.T) {
	c := New()
	c.IngestSecond(5, raw(1, 2, 9, 5)) // wrong time stamp: ignored
	if len(c.Aggregated(1)) != 0 {
		t.Error("wrong-time readings aggregated")
	}
	c.IngestSecond(6, raw(1, 2, 6, 5))
	c.IngestSecond(6, raw(1, 3, 6, 5)) // duplicate second: ignored
	if ag := c.Aggregated(1); len(ag) != 1 || ag[0].Reader != 2 {
		t.Errorf("aggregated = %+v", ag)
	}
}

func TestKnownObjects(t *testing.T) {
	c := New()
	c.IngestSecond(1, append(raw(5, 2, 1, 1), raw(3, 2, 1, 1)...))
	objs := c.KnownObjects()
	if len(objs) != 2 || objs[0] != 3 || objs[1] != 5 {
		t.Errorf("KnownObjects = %v", objs)
	}
}

func TestNowAndEmptyState(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Error("fresh collector Now != 0")
	}
	c.IngestSecond(42, nil)
	if c.Now() != 42 {
		t.Errorf("Now = %d", c.Now())
	}
	if c.Aggregated(1) != nil {
		t.Error("unknown object has aggregated readings")
	}
}

func TestForgetBefore(t *testing.T) {
	c := New()
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(5, raw(1, 3, 5, 5))
	c.IngestSecond(6, nil)
	// Forget everything before t=4: device 2's run ends at 1, so it goes.
	c.ForgetBefore(4)
	di, dj := c.RecentDevices(1)
	if di != model.NoReader || dj != 3 {
		t.Errorf("after ForgetBefore: devices %d, %d", di, dj)
	}
	// Forgetting past everything drops idle objects entirely.
	c.ForgetBefore(100)
	if len(c.KnownObjects()) != 0 {
		t.Errorf("objects after full forget: %v", c.KnownObjects())
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	// Many objects entering in one second must come out sorted by object ID.
	c := New()
	var raws []model.RawReading
	for obj := 20; obj >= 1; obj-- {
		raws = append(raws, raw(model.ObjectID(obj), 2, 1, 1)...)
	}
	c.IngestSecond(1, raws)
	ev := c.DrainEvents()
	if len(ev) != 20 {
		t.Fatalf("events = %d", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Object < ev[i-1].Object {
			t.Fatal("events not sorted by object")
		}
	}
}

func TestDropsAreTypedAndCounted(t *testing.T) {
	c := New()
	// Wrong-time readings: still ignored, now counted and reported.
	err := c.IngestSecond(5, raw(1, 2, 9, 3))
	var ie *ingest.Error
	if !errors.As(err, &ie) || ie.Kind != ingest.KindMisstamped || ie.Rejected {
		t.Fatalf("wrong-time error = %v", err)
	}
	if ie.Dropped != 3 {
		t.Errorf("wrong-time dropped %d, want 3", ie.Dropped)
	}
	// Duplicate second: refused whole.
	c.IngestSecond(6, raw(1, 2, 6, 5))
	err = c.IngestSecond(6, raw(1, 3, 6, 5))
	if !errors.As(err, &ie) || ie.Kind != ingest.KindLate || !ie.Rejected {
		t.Fatalf("duplicate-second error = %v", err)
	}
	// Reader-less readings: counted as invalid.
	err = c.IngestSecond(7, []model.RawReading{{Object: 1, Reader: model.NoReader, Time: 7}})
	if !errors.As(err, &ie) || ie.Kind != ingest.KindInvalid || ie.Dropped != 1 {
		t.Fatalf("invalid error = %v", err)
	}
	// A clean second returns nil.
	if err := c.IngestSecond(8, raw(1, 2, 8, 2)); err != nil {
		t.Fatalf("clean second: %v", err)
	}
	d := c.Drops()
	if d.MisstampedReadings != 3 || d.LateBatches != 1 || d.LateReadings != 5 || d.InvalidReadings != 1 {
		t.Errorf("drops = %+v", d)
	}
	if d.Readings() != 9 {
		t.Errorf("total dropped readings = %d, want 9", d.Readings())
	}
}
