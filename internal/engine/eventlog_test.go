package engine

import (
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/rfid"
)

// TestBoundEventLogWindowDependsOnCountAlone feeds the same events in
// batches of different sizes: the retained window must come out the same
// (so a log that received some events late, at a heal, matches one that did
// not), hold the newest maxEventLog events and never a chunk more, and leave
// slices handed out earlier untouched.
func TestBoundEventLogWindowDependsOnCountAlone(t *testing.T) {
	const total = 3*maxEventLog + 1234
	feed := func(batch int) ([]model.Event, int) {
		var log []model.Event
		off := 0
		var early []model.Event
		for n := 0; n < total; {
			for k := 0; k < batch && n < total; k, n = k+1, n+1 {
				log = append(log, model.Event{Object: model.ObjectID(n)})
			}
			log, off = boundEventLog(log, off)
			if len(log) < min(n, maxEventLog) || len(log) >= maxEventLog+eventLogChunk+batch {
				t.Fatalf("batch %d: %d events retained after %d", batch, len(log), n)
			}
			if int(log[0].Object) != off {
				t.Fatalf("batch %d: offset %d but first event is number %d", batch, off, log[0].Object)
			}
			if early == nil && n >= maxEventLog {
				early = log[:100:100]
			}
		}
		for i, ev := range early {
			if int(ev.Object) != i {
				t.Fatalf("batch %d: a slice handed out before the cut was overwritten at %d", batch, i)
			}
		}
		return log, off
	}
	wantLog, wantOff := feed(1)
	for _, batch := range []int{7, 300, eventLogChunk + 1} {
		if log, off := feed(batch); off != wantOff || !reflect.DeepEqual(log, wantLog) {
			t.Errorf("batches of %d retain %d events from %d; one at a time %d from %d", batch, len(log), off, len(wantLog), wantOff)
		}
	}
}

func TestEventsSinceTruncation(t *testing.T) {
	sys, _ := testSystem(t, 5, 30, 84)
	evs, next, truncated := sys.EventsSince(0)
	if truncated {
		t.Error("fresh log reported truncated")
	}
	if next != len(evs) {
		t.Errorf("next = %d, events = %d", next, len(evs))
	}
	// Asking from a negative (pre-offset) sequence is answered as truncated
	// only when the log has actually dropped entries; with a fresh log the
	// offset is 0 and seq 0 is valid.
	_, _, truncated = sys.EventsSince(next)
	if truncated {
		t.Error("at-head read reported truncated")
	}
	// Reader events exist after warm-up.
	found := false
	for _, ev := range evs {
		if ev.Reader != model.NoReader {
			found = true
		}
	}
	if !found {
		t.Error("no reader events recorded during warm-up")
	}
	// The log is New's alone: a router's shards drain their events into no
	// sink.
	plan := floorplan.DefaultOffice()
	if sh := MustNewSharded(plan, rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange), DefaultConfig()); sh.events != nil {
		t.Error("a NewSharded router keeps an event log")
	}
}
