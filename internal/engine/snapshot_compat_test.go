package engine

import (
	"bytes"
	"encoding/gob"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/collector"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/particle"
	"repro/internal/sim/errfs"
	"repro/internal/wal"
)

// parentQuarRecord and parentRouterSnap are the router snapshot's earlier
// layouts, from when the router also kept a merged ENTER/LEAVE log and a
// quarantine record per shard out: the same fields, plus the log, its
// offset, and each record's quarantine seq, the seconds the shard had missed
// and how many of their LEAVEs a heal had already spliced into the log.
type parentQuarRecord struct {
	Shard          int
	Seq            uint64
	Missed         []model.Time
	SplicedThrough int
}

type parentRouterSnap struct {
	RangeQueries   int
	KNNQueries     int
	Events         []model.Event
	EventOff       int
	ReorderStarted bool
	Watermark      model.Time
	MaxSeen        model.Time
	Drops          ingest.Drops
	Forced         int
	Quarantined    []parentQuarRecord
}

// rewriteRouterSnapAsParent re-encodes dir's newest router snapshot in the
// earlier layout, the log and splice counts filled in, and returns its seq.
// Each quarantine marker becomes the record that layout kept beside it: the
// shard, its quarantine seq, and the seconds it had missed up to the barrier
// (record seq s is f's delivery s-1).
func rewriteRouterSnapAsParent(t *testing.T, f *durableFixture, dir string, sid uint64, events []model.Event) uint64 {
	t.Helper()
	snaps, err := wal.ListSnapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("router snapshots: %v (%v)", snaps, err)
	}
	seq, payload, err := wal.ReadSnapshotFile(snaps[len(snaps)-1].Path, sid)
	if err != nil {
		t.Fatal(err)
	}
	var rs routerSnap
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	old := parentRouterSnap{
		RangeQueries:   rs.RangeQueries,
		KNNQueries:     rs.KNNQueries,
		Events:         events,
		EventOff:       3,
		ReorderStarted: rs.ReorderStarted,
		Watermark:      rs.Watermark,
		MaxSeen:        rs.MaxSeen,
		Drops:          rs.Drops,
		Forced:         rs.Forced,
	}
	markers, err := QuarantineMarkers(wal.OS, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		qseq, ok := markers[i]
		if !ok {
			continue
		}
		var missed []model.Time
		for s := qseq; s < seq; s++ {
			missed = append(missed, f.deliveries[s].t)
		}
		old.Quarantined = append(old.Quarantined, parentQuarRecord{i, qseq, missed, len(missed)})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteSnapshot(dir, sid, seq, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return seq
}

// copyTree copies the data directory src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecoversParentLayoutRouterSnapshot pins that dropping the router's
// event log and quarantine records from the snapshot layout strands no data
// directory: a barrier whose router snapshot carries the earlier layouts'
// log, offset and quarantine records recovers the same Stats, answers and
// quarantine state as the same barrier in the current layout — cleanly
// closed, and with a shard quarantined across the restart that heals
// afterwards.
func TestRecoversParentLayoutRouterSnapshot(t *testing.T) {
	for _, quarantined := range []bool{false, true} {
		name := "clean"
		if quarantined {
			name = "quarantined"
		}
		t.Run(name, func(t *testing.T) {
			const faultAt, restartAt = 8, 16
			f := newDurableFixture(t, 24)
			fsys := errfs.New(nil, 23)
			dir := t.TempDir()
			cfg := quarantineFixtureCfg(f, dir, fsys)
			sh, err := OpenSharded(f.plan, f.dep, cfg)
			if err != nil {
				t.Fatalf("OpenSharded: %v", err)
			}
			for i, d := range f.deliveries[:restartAt] {
				if quarantined && i == faultAt {
					fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "shard-0001"})
				}
				sh.Ingest(d.t, d.raws) // typed quarantine drops are expected
			}
			sh.FlushIngest()
			if got := len(sh.DegradedShards()) > 0; got != quarantined {
				t.Fatalf("DegradedShards = %v before restart", sh.DegradedShards())
			}
			fsys.Clear()
			if err := sh.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			oldDir := t.TempDir()
			copyTree(t, dir, oldDir)
			// The earlier layouts logged the ENTER/LEAVE events of the
			// seconds before the barrier; today's reader must ignore them.
			events := []model.Event{
				{Kind: model.Enter, Object: 3, Reader: 1, Time: restartAt - 2},
				{Kind: model.Leave, Object: 3, Reader: 1, Time: restartAt - 1},
				{Kind: model.Enter, Object: 7, Reader: 4, Time: restartAt - 1},
			}
			seq := rewriteRouterSnapAsParent(t, f, oldDir, sh.streamID, events)

			open := func(dir string) *Sharded {
				c := cfg
				c.Durability.Dir = dir
				e, err := OpenSharded(f.plan, f.dep, c)
				if err != nil {
					t.Fatalf("reopen %s: %v", dir, err)
				}
				return e
			}
			cur, old := open(dir), open(oldDir)
			defer cur.Close()
			defer old.Close()
			if rec := old.Recovery(); !rec.SnapshotRestored || rec.SnapshotSeq != seq || rec.SnapshotsSkipped != 0 {
				t.Fatalf("the earlier-layout barrier at seq %d was not restored: %+v", seq, rec)
			}
			compare := func(label string) {
				t.Helper()
				if gs, ws := old.Stats(), cur.Stats(); gs != ws {
					t.Errorf("%s: Stats diverge:\n got %+v\nwant %+v", label, gs, ws)
				}
				if gd, wd := old.DegradedShards(), cur.DegradedShards(); !reflect.DeepEqual(gd, wd) {
					t.Errorf("%s: DegradedShards %v, want %v", label, gd, wd)
				}
				if g, w := recoveredOutcome(old), recoveredOutcome(cur); !reflect.DeepEqual(g, w) {
					t.Errorf("%s: answers diverge from the current-layout recovery", label)
				}
			}
			compare("reopened")
			if quarantined {
				if !reflect.DeepEqual(old.DegradedShards(), []int{1}) {
					t.Fatalf("DegradedShards = %v after reopen, want [1]", old.DegradedShards())
				}
				for _, e := range []*Sharded{cur, old} {
					if err := e.HealNow(); err != nil {
						t.Fatalf("HealNow: %v", err)
					}
				}
			}
			for _, d := range f.deliveries[restartAt:] {
				for _, e := range []*Sharded{cur, old} {
					if err := e.Ingest(d.t, d.raws); err != nil {
						t.Fatalf("post-restart ingest: %v", err)
					}
				}
			}
			cur.FlushIngest()
			old.FlushIngest()
			compare("healed")
			to := faultAt
			if quarantined {
				to = restartAt
			}
			mustMatchShardedOracle(t, "earlier layout", old, quarantineOracle(t, f, 1, faultAt, to, len(f.deliveries)))
		})
	}
}

// TestRecoverySkipsCorruptNewestSnapshot corrupts the newest barrier's router
// snapshot, then, in a second run, one of its shard snapshots: either way
// recovery must fall back to the previous barrier, count the one it passed
// over, replay the WAL from there, and answer like the uncrashed kernel.
func TestRecoverySkipsCorruptNewestSnapshot(t *testing.T) {
	for _, target := range []string{"router", "shard"} {
		t.Run(target, func(t *testing.T) {
			f := newDurableFixture(t, 20)
			dir := t.TempDir()
			cfg := f.config(dir)
			cfg.Shards = 4
			cfg.Durability.SnapshotEvery = 6
			sh, err := OpenSharded(f.plan, f.dep, cfg)
			if err != nil {
				t.Fatalf("OpenSharded: %v", err)
			}
			for _, d := range f.deliveries {
				if err := sh.Ingest(d.t, d.raws); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
			}
			// Crash: no Close, so the newest barrier is the periodic one at 18.
			snapDir := dir
			if target == "shard" {
				snapDir = ShardDir(dir, 2)
			}
			snaps, err := wal.ListSnapshots(snapDir)
			if err != nil || len(snaps) != 2 || snaps[0].Seq != 12 || snaps[1].Seq != 18 {
				t.Fatalf("want barriers at 12 and 18 in %s, have %+v (%v)", snapDir, snaps, err)
			}
			newest := snaps[1].Path
			data, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(newest, data, 0o644); err != nil {
				t.Fatal(err)
			}

			re, err := OpenSharded(f.plan, f.dep, cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			rec := re.Recovery()
			if !rec.SnapshotRestored || rec.SnapshotSeq != 12 || rec.SnapshotsSkipped != 1 || rec.RecordsReplayed != 8 {
				t.Fatalf("recovery %+v; want the barrier at 12 restored, 1 skipped, 8 records replayed", rec)
			}
			want := f.oracle(t, len(f.deliveries))
			if g, w := recoveredOutcome(re), recoveredOutcome(want); !reflect.DeepEqual(g, w) {
				t.Errorf("answers diverge from the uncrashed kernel:\n got %+v\nwant %+v", g.stats, w.stats)
			}
		})
	}
}

// parentCachedState, parentCacheEntry and parentShardSnap are the shard
// snapshot's layout from when particle.State kept its particles one struct
// each: the cached state was encoded as itself, its exported fields the
// object, the particles, both time stamps and LastRun.
type parentCachedState struct {
	Object          model.ObjectID
	Particles       []particle.Particle
	Time            model.Time
	LastReadingTime model.Time
	LastRun         particle.RunStats
}

type parentCacheEntry struct {
	State  parentCachedState
	Device model.ReaderID
}

type parentShardSnap struct {
	Stats        Stats
	Collector    collector.Snapshot
	CacheEntries []parentCacheEntry
	CacheHits    int
	CacheMisses  int
}

// TestRecoversParentLayoutShardSnapshot pins that moving cached particle
// states to column form strands no data directory: an engine that cached
// kernel-produced states is closed, its shard snapshot re-encoded in the
// earlier layout, and the reopened engine must match the uninterrupted one —
// Stats, collector, every anchor distribution and the range and kNN answers
// bit for bit. A state the decoder dropped would be re-run from its first
// reading instead of resumed, which moves both the Stats and the answers.
func TestRecoversParentLayoutShardSnapshot(t *testing.T) {
	f := newDurableFixture(t, 24)
	dir := t.TempDir()
	sys, err := OpenSharded(f.plan, f.dep, f.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	oracle := MustNew(f.plan, f.dep, f.cfg)
	for i, d := range f.deliveries {
		if err := sys.Ingest(d.t, clone(d.raws)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		oracle.Ingest(d.t, clone(d.raws))
		if (i+1)%6 == 0 {
			sys.Preprocess(sys.KnownObjects())
			oracle.Preprocess(oracle.Collector().KnownObjects())
		}
	}
	sid := sys.streamID
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	shardDir := ShardDir(dir, 0)
	snaps, err := wal.ListSnapshots(shardDir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("shard snapshots: %v (%v)", snaps, err)
	}
	seq, payload, err := wal.ReadSnapshotFile(snaps[len(snaps)-1].Path, sid)
	if err != nil {
		t.Fatal(err)
	}
	var cur shardSnap
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	if len(cur.CacheEntries) == 0 {
		t.Fatal("vacuous: the shard snapshot caches no particle state")
	}
	old := parentShardSnap{Stats: cur.Stats, Collector: cur.Collector, CacheHits: cur.CacheHits, CacheMisses: cur.CacheMisses}
	for _, e := range cur.CacheEntries {
		old.CacheEntries = append(old.CacheEntries, parentCacheEntry{Device: e.Device, State: parentCachedState{
			Object:          e.State.Object,
			Particles:       e.State.Particles,
			Time:            e.State.Time,
			LastReadingTime: e.State.LastReadingTime,
			LastRun:         e.State.LastRun,
		}})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteSnapshot(shardDir, sid, seq, buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	recovered, err := OpenSharded(f.plan, f.dep, f.config(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer recovered.Close()
	if rec := recovered.Recovery(); !rec.SnapshotRestored || rec.SnapshotSeq != seq || rec.RecordsReplayed != 0 {
		t.Fatalf("the earlier-layout barrier at seq %d was not restored alone: %+v", seq, rec)
	}
	mustMatchOracle(t, "earlier-layout shard snapshot", recovered, oracle, true)
}
