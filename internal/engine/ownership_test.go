package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/collector"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/wal"
)

// ingestState is what an ingest stream leaves behind: the counters and every
// collector's retained state.
type ingestState struct {
	stats Stats
	cols  []collector.Snapshot
}

func kernelState(s *System) ingestState {
	return ingestState{s.Stats(), []collector.Snapshot{s.col.Snapshot()}}
}

func routerState(e *Sharded) ingestState {
	st := ingestState{stats: e.Stats()}
	for _, sh := range e.shards {
		st.cols = append(st.cols, sh.col.Snapshot())
	}
	return st
}

// TestIngestKeepsNothingOfTheCallersSlice pins the contract the server's
// pooled request buffers rest on: once IngestContext has returned, the engine
// holds no reference into the slice it was handed. Every delivery of one
// stream goes in through one reused buffer that is overwritten with
// plausible garbage (right second, wrong objects and readers) as soon as the
// call returns; counters and collector state must equal those of
// a run fed untouched private copies — on the kernel and on the router with
// WALs at 1 and 4 shards, in order (every second closes in its call) and
// under a horizon with seconds arriving out of order (every second is parked
// first) — and so must a crash-recovery replay of the scribbled run's logs.
func TestIngestKeepsNothingOfTheCallersSlice(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	base := DefaultConfig()
	base.Seed = 19
	base.SlowQueryThreshold = 0
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 60
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(MustNew(plan, dep, base).Graph(), rfid.NewSensor(dep), tc, 77)
	type delivery struct {
		t    model.Time
		raws []model.RawReading
	}
	var inOrder, swapped []delivery
	for i := 0; i < 40; i++ {
		tm, raws := world.Step()
		inOrder = append(inOrder, delivery{tm, append([]model.RawReading(nil), raws...)})
	}
	swapped = append(swapped, inOrder...)
	for i := 1; i+1 < len(swapped); i += 2 { // the first delivery opens the stream and stays first
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	}

	type engine interface {
		Ingest(model.Time, []model.RawReading) error
		FlushIngest()
	}
	feed := func(t *testing.T, sys engine, stream []delivery, scribble bool) {
		t.Helper()
		var buf []model.RawReading
		for _, d := range stream {
			raws := append([]model.RawReading(nil), d.raws...)
			if scribble {
				buf = append(buf[:0], d.raws...)
				raws = buf
			}
			if err := sys.Ingest(d.t, raws); err != nil {
				t.Fatalf("Ingest t=%d: %v", d.t, err)
			}
			for i := range buf {
				buf[i] = model.RawReading{Object: buf[i].Object + 1000, Reader: (buf[i].Reader + 1) % rfid.DefaultReaders, Time: buf[i].Time}
			}
		}
		sys.FlushIngest()
	}

	for _, horizon := range []model.Time{0, 3} {
		stream := inOrder
		if horizon > 0 {
			stream = swapped
		}
		cfg := base
		cfg.Ingest.Horizon = horizon

		t.Run(fmt.Sprintf("kernel/horizon=%d", horizon), func(t *testing.T) {
			clean, scribbled := MustNew(plan, dep, cfg), MustNew(plan, dep, cfg)
			feed(t, clean, stream, false)
			feed(t, scribbled, stream, true)
			want := kernelState(clean)
			if want.stats.ReadingsIngested == 0 || len(want.cols[0].Objects) == 0 {
				t.Fatalf("vacuous stream: %+v", want.stats)
			}
			if got := kernelState(scribbled); !reflect.DeepEqual(got, want) {
				t.Errorf("state depends on the caller's slice after the call:\n got %+v\nwant %+v", got.stats, want.stats)
			}
		})
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("sharded=%d/horizon=%d", shards, horizon), func(t *testing.T) {
				open := func() (*Sharded, Config) {
					c := cfg
					c.Shards = shards
					c.Durability = DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncAlways}
					e, err := OpenSharded(plan, dep, c)
					if err != nil {
						t.Fatal(err)
					}
					return e, c
				}
				clean, _ := open()
				defer clean.Close()
				scribbled, scfg := open() // never closed: the crash the replay recovers from
				feed(t, clean, stream, false)
				feed(t, scribbled, stream, true)
				want := routerState(clean)
				if got := routerState(scribbled); !reflect.DeepEqual(got, want) {
					t.Errorf("state depends on the caller's slice after the call:\n got %+v\nwant %+v", got.stats, want.stats)
				}
				recovered, err := OpenSharded(plan, dep, scfg)
				if err != nil {
					t.Fatalf("recover the scribbled run: %v", err)
				}
				defer recovered.Close()
				if rec := recovered.Recovery(); rec.RecordsReplayed != len(stream) {
					t.Errorf("replayed %d records, want %d", rec.RecordsReplayed, len(stream))
				}
				if got := routerState(recovered); !reflect.DeepEqual(got, want) {
					t.Errorf("the logs recorded the caller's slice after the call:\n got %+v\nwant %+v", got.stats, want.stats)
				}
			})
		}
	}
}
