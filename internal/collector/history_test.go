package collector

import "testing"

func TestHistoryRetainsAllRuns(t *testing.T) {
	c := NewWithHistory()
	if !c.historic {
		t.Fatal("NewWithHistory collector not historic")
	}
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(5, raw(1, 3, 5, 5))
	c.IngestSecond(9, raw(1, 4, 9, 5))
	// Live view still trims to the two most recent devices.
	di, dj := c.RecentDevices(1)
	if di != 3 || dj != 4 {
		t.Errorf("RecentDevices = %d, %d", di, dj)
	}
	// But the history can reconstruct the past.
	ag := c.AggregatedUpTo(1, 6)
	if len(ag) != 2 || ag[0].Reader != 2 || ag[1].Reader != 3 {
		t.Errorf("AggregatedUpTo(6) = %+v", ag)
	}
}

func TestDefaultCollectorTrimsRuns(t *testing.T) {
	c := New()
	if c.historic {
		t.Fatal("default collector historic")
	}
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(5, raw(1, 3, 5, 5))
	c.IngestSecond(9, raw(1, 4, 9, 5))
	// Without history, entries from device 2 are gone even for past queries.
	ag := c.AggregatedUpTo(1, 6)
	if len(ag) != 1 || ag[0].Reader != 3 {
		t.Errorf("AggregatedUpTo(6) without history = %+v", ag)
	}
}

func TestAggregatedUpToClipsWithinRun(t *testing.T) {
	c := NewWithHistory()
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(2, raw(1, 2, 2, 5))
	c.IngestSecond(3, raw(1, 2, 3, 5))
	ag := c.AggregatedUpTo(1, 2)
	if len(ag) != 2 || ag[1].Time != 2 {
		t.Errorf("clip = %+v", ag)
	}
	// Before any reading: empty.
	if got := c.AggregatedUpTo(1, 0); got != nil {
		t.Errorf("pre-history = %+v", got)
	}
	// Unknown object: empty.
	if got := c.AggregatedUpTo(9, 5); got != nil {
		t.Errorf("unknown object = %+v", got)
	}
}

func TestAggregatedUpToTwoDeviceWindowMoves(t *testing.T) {
	c := NewWithHistory()
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(5, raw(1, 3, 5, 5))
	c.IngestSecond(9, raw(1, 4, 9, 5))
	c.IngestSecond(13, raw(1, 5, 13, 5))
	// As of t=10, the two most recent devices were 3 and 4.
	ag := c.AggregatedUpTo(1, 10)
	if len(ag) != 2 || ag[0].Reader != 3 || ag[1].Reader != 4 {
		t.Errorf("window at t=10: %+v", ag)
	}
	// As of t=100, devices 4 and 5.
	ag = c.AggregatedUpTo(1, 100)
	if len(ag) != 2 || ag[0].Reader != 4 || ag[1].Reader != 5 {
		t.Errorf("window at t=100: %+v", ag)
	}
}

func TestLastReadingAtAndRecentDevicesAt(t *testing.T) {
	c := NewWithHistory()
	c.IngestSecond(1, raw(1, 2, 1, 5))
	c.IngestSecond(5, raw(1, 3, 5, 5))
	lr, ok := c.LastReadingAt(1, 3)
	if !ok || lr.Reader != 2 || lr.Time != 1 {
		t.Errorf("LastReadingAt(3) = %+v, %v", lr, ok)
	}
	if _, ok := c.LastReadingAt(1, 0); ok {
		t.Error("LastReadingAt before first reading should miss")
	}
	// The recent devices as of t are the readers of AggregatedUpTo(t).
	if ag := c.AggregatedUpTo(1, 3); len(ag) != 1 || ag[0].Reader != 2 {
		t.Errorf("devices as of 3: %+v, want reader 2 alone", ag)
	}
	if ag := c.AggregatedUpTo(1, 10); len(ag) != 2 || ag[0].Reader != 2 || ag[1].Reader != 3 {
		t.Errorf("devices as of 10: %+v, want readers 2 then 3", ag)
	}
}
