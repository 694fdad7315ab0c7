package cluster_test

import (
	"reflect"
	"testing"

	"repro/internal/collector"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// TestClusterIngestKeepsNothingOfTheCallersSlice is the two-node half of the
// engine package's ownership test: deliveries go into node-0 through one
// reused buffer, overwritten with plausible garbage as soon as the call
// returns — while the forward to node-1 ran beside the local apply — and
// both nodes' counters, collector state and event logs must equal those of a
// cluster fed untouched private copies.
func TestClusterIngestKeepsNothingOfTheCallersSlice(t *testing.T) {
	type nodeState struct {
		stats  engine.Stats
		col    collector.Snapshot
		events []model.Event
	}
	run := func(scribble bool) [2]nodeState {
		_, n0, _, e0, e1 := twoNodes(t, 23, nil)
		dep := rfid.MustDeployUniform(floorplan.DefaultOffice(), rfid.DefaultReaders, rfid.DefaultActivationRange)
		tc := sim.DefaultTraceConfig()
		tc.NumObjects = 60
		tc.DwellMin, tc.DwellMax = 2, 8
		world := sim.MustNew(e0.Graph(), rfid.NewSensor(dep), tc, 77)
		var buf []model.RawReading
		for i := 0; i < 40; i++ {
			tm, raws := world.Step()
			raws = append([]model.RawReading(nil), raws...)
			if scribble {
				buf = append(buf[:0], raws...)
				raws = buf
			}
			if err := n0.Ingest(tm, raws); err != nil {
				t.Fatalf("Ingest t=%d: %v", tm, err)
			}
			for i := range buf {
				buf[i] = model.RawReading{Object: buf[i].Object + 1000, Reader: (buf[i].Reader + 1) % rfid.DefaultReaders, Time: buf[i].Time}
			}
		}
		var out [2]nodeState
		for i, e := range []*engine.System{e0, e1} {
			evs, _, _ := e.EventsSince(0)
			out[i] = nodeState{e.Stats(), e.Collector().Snapshot(), evs}
		}
		return out
	}
	want, got := run(false), run(true)
	for i := range want {
		if want[i].stats.ReadingsIngested == 0 || len(want[i].events) == 0 {
			t.Fatalf("node-%d saw a vacuous stream: %+v", i, want[i].stats)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("node-%d's state depends on the caller's slice after the call:\n got %+v\nwant %+v", i, got[i].stats, want[i].stats)
		}
	}
}
