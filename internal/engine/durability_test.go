package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/sim/errfs"
	"repro/internal/wal"
)

// durableFixture is the shared small world for the recovery tests: a few
// objects over the default office so each OpenSharded stays cheap. The
// durable engine under test is the router at Shards: 1 — one kernel, one
// WAL stream under shard-0000/ — and the oracle is the bare in-memory kernel.
type durableFixture struct {
	plan *floorplan.Plan
	dep  *rfid.Deployment
	cfg  Config
	// deliveries[i] is the i-th one-second delivery; at horizon 0 each
	// becomes exactly one WAL record, so "crash after N records" and "oracle
	// fed deliveries 1..N" describe the same acked prefix.
	deliveries []struct {
		t    model.Time
		raws []model.RawReading
	}
}

func newDurableFixture(t *testing.T, seconds int) *durableFixture {
	t.Helper()
	f := &durableFixture{}
	f.plan = floorplan.DefaultOffice()
	f.dep = rfid.MustDeployUniform(f.plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	f.cfg = DefaultConfig()
	f.cfg.Seed = 31
	f.cfg.Particle.Ns = 16
	f.cfg.SlowQueryThreshold = 0

	probe := MustNew(f.plan, f.dep, f.cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 8
	tc.DwellMin, tc.DwellMax = 2, 6
	world := sim.MustNew(probe.Graph(), rfid.NewSensor(f.dep), tc, 555)
	for i := 0; i < seconds; i++ {
		tm, raws := world.Step()
		f.deliveries = append(f.deliveries, struct {
			t    model.Time
			raws []model.RawReading
		}{tm, append([]model.RawReading(nil), raws...)})
	}
	return f
}

func (f *durableFixture) config(dir string) Config {
	cfg := f.cfg
	cfg.Shards = 1
	cfg.Durability = DurabilityConfig{Dir: dir, Fsync: wal.SyncAlways}
	return cfg
}

// crashDir returns a fresh one-shard data directory — SHARDS guard written,
// shard-0000/ empty — for tests that assemble a crashed directory file by
// file.
func crashDir(t *testing.T) (dir, shard0 string) {
	t.Helper()
	dir = t.TempDir()
	if err := checkShardGuard(wal.OS, dir, 1); err != nil {
		t.Fatal(err)
	}
	shard0 = ShardDir(dir, 0)
	if err := os.Mkdir(shard0, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir, shard0
}

// copyFile copies src into dstDir under its own base name.
func copyFile(t *testing.T, src, dstDir string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dstDir, filepath.Base(src)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// oracle builds an uncrashed, memory-only system fed the first n deliveries.
func (f *durableFixture) oracle(t *testing.T, n int) *System {
	t.Helper()
	sys := MustNew(f.plan, f.dep, f.cfg)
	for _, d := range f.deliveries[:n] {
		sys.Ingest(d.t, d.raws)
	}
	return sys
}

var (
	probeWindow = geom.Rect{Min: geom.Point{X: 2, Y: 2}, Max: geom.Point{X: 28, Y: 18}}
	probePoint  = geom.Point{X: 15, Y: 10}
)

// mustMatchOracle asserts the one-shard durable engine is bit-for-bit the
// in-memory oracle: Stats, collector view, and the query results themselves.
func mustMatchOracle(t *testing.T, label string, got *Sharded, want *System, queries bool) {
	t.Helper()
	if gs, ws := got.Stats(), want.Stats(); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: Stats diverged:\n  got  %+v\n  want %+v", label, gs, ws)
	}
	if got.Now() != want.Now() {
		t.Fatalf("%s: Now %d != %d", label, got.Now(), want.Now())
	}
	if got.NumShards() != 1 {
		t.Fatalf("%s: mustMatchOracle compares one shard's collector, engine has %d", label, got.NumShards())
	}
	if gc, wc := got.shards[0].col.Snapshot(), want.Collector().Snapshot(); !reflect.DeepEqual(gc, wc) {
		for i := range wc.Objects {
			if i < len(gc.Objects) && !reflect.DeepEqual(gc.Objects[i], wc.Objects[i]) {
				t.Logf("%s: object %d state:\n  got  %+v\n  want %+v", label, wc.Objects[i].Object, gc.Objects[i], wc.Objects[i])
			}
		}
		t.Fatalf("%s: collector state diverged (now %d/%d, %d/%d objects)", label,
			gc.Now, wc.Now, len(gc.Objects), len(wc.Objects))
	}
	if !queries {
		return
	}
	objs := want.Collector().KnownObjects()
	gt, wt := got.Preprocess(objs), want.Preprocess(objs)
	for _, o := range objs {
		if !reflect.DeepEqual(gt.DistributionOf(o), wt.DistributionOf(o)) {
			t.Fatalf("%s: anchor distribution of object %d diverged", label, o)
		}
	}
	if gr, wr := got.RangeQuery(probeWindow), want.RangeQuery(probeWindow); !reflect.DeepEqual(gr, wr) {
		t.Fatalf("%s: range query diverged:\n  got  %v\n  want %v", label, gr, wr)
	}
	if gk, wk := got.KNNQuery(probePoint, 3), want.KNNQuery(probePoint, 3); !reflect.DeepEqual(gk, wk) {
		t.Fatalf("%s: kNN query diverged:\n  got  %v\n  want %v", label, gk, wk)
	}
}

func TestOpenEmptyDataDir(t *testing.T) {
	f := newDurableFixture(t, 6)
	dir := t.TempDir()
	sys, err := OpenSharded(f.plan, f.dep, f.config(dir))
	if err != nil {
		t.Fatalf("OpenSharded on empty dir: %v", err)
	}
	rec := sys.Recovery()
	if !rec.Enabled || rec.SnapshotRestored || rec.RecordsReplayed != 0 || rec.Corrupt {
		t.Fatalf("empty-dir recovery %+v", rec)
	}
	for _, d := range f.deliveries {
		if err := sys.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	mustMatchOracle(t, "fresh durable run", sys, f.oracle(t, len(f.deliveries)), true)
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCrashRecoveryAtArbitraryOffsets is the tentpole property test: run a
// stream into a durable engine, then for crash points throughout the WAL —
// every record boundary and its neighbors, plus a byte stride through the
// interiors — truncate a copy of the log there, recover, and require the
// result to be bit-for-bit identical to an uncrashed run over the surviving
// acked prefix. Stats and collector state are checked at every crash point;
// the full query comparison runs once per distinct prefix length.
func TestCrashRecoveryAtArbitraryOffsets(t *testing.T) {
	f := newDurableFixture(t, 18)
	dir := t.TempDir()
	cfg := f.config(dir)
	sys, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.deliveries {
		if err := sys.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	// Simulated crash: the process dies here. No Close, no final snapshot;
	// the fsynced segment bytes are all that survives.
	segs, err := wal.SegmentInfos(ShardDir(dir, 0))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries, from the framing itself.
	type boundary struct {
		end  int64
		recs int
	}
	var bounds []boundary
	scan, err := wal.ScanSegment(segs[0].Path, func(r wal.Rec) error {
		bounds = append(bounds, boundary{end: r.End, recs: int(r.Seq)})
		return nil
	})
	if err != nil || scan.Stopped {
		t.Fatalf("scan of healthy segment: %+v err=%v", scan, err)
	}
	if len(bounds) != len(f.deliveries) {
		t.Fatalf("%d records for %d deliveries (horizon 0 should map 1:1)", len(bounds), len(f.deliveries))
	}

	offsets := map[int64]bool{0: true, 1: true, int64(len(full)): true}
	for _, b := range bounds {
		offsets[b.end-1] = true
		offsets[b.end] = true
		offsets[b.end+1] = true
	}
	for off := int64(0); off < int64(len(full)); off += 97 {
		offsets[off] = true
	}

	oracles := map[int]*System{}
	queriedPrefix := map[int]bool{}
	for off := range offsets {
		if off < 0 || off > int64(len(full)) {
			continue
		}
		n := 0
		for _, b := range bounds {
			if b.end <= off {
				n = b.recs
			}
		}
		cdir, cshard := crashDir(t)
		if err := os.WriteFile(filepath.Join(cshard, filepath.Base(segs[0].Path)), full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		recovered, err := OpenSharded(f.plan, f.dep, f.config(cdir))
		if err != nil {
			t.Fatalf("offset %d: OpenSharded: %v", off, err)
		}
		rec := recovered.Recovery()
		if rec.RecordsReplayed != n {
			t.Fatalf("offset %d: replayed %d records, want %d", off, rec.RecordsReplayed, n)
		}
		// The cached oracle is only ever compared stats-for-stats (queries
		// mutate counters, so the one full query comparison per prefix gets
		// a fresh oracle of its own).
		if oracles[n] == nil {
			oracles[n] = f.oracle(t, n)
		}
		mustMatchOracle(t, "crash at offset "+itoa(off), recovered, oracles[n], false)
		if !queriedPrefix[n] {
			queriedPrefix[n] = true
			mustMatchOracle(t, "crash at offset "+itoa(off), recovered, f.oracle(t, n), true)
		}
		// The recovered log must accept the rest of the stream.
		if n < len(f.deliveries) {
			if err := recovered.Ingest(f.deliveries[n].t, f.deliveries[n].raws); err != nil {
				t.Fatalf("offset %d: post-recovery ingest: %v", off, err)
			}
		}
		recovered.Close()
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestCrashRecoveryWithSnapshots reruns the crash property across snapshot
// boundaries: periodic snapshots bound the replay, and a crash point must
// recover identically whether it lands before or after a snapshot. Snapshot
// files claiming seconds past the crash point are removed, mirroring the
// real ordering guarantee (a snapshot is only written after its covered
// records are fsynced, so it can never survive a crash they did not). A
// barrier is the router snapshot plus the shard's at one sequence; both
// halves are copied or dropped together.
func TestCrashRecoveryWithSnapshots(t *testing.T) {
	f := newDurableFixture(t, 17)
	dir := t.TempDir()
	cfg := f.config(dir)
	cfg.Durability.SnapshotEvery = 5
	sys, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.deliveries {
		if err := sys.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	snaps, err := wal.ListSnapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("expected periodic router snapshots, got %v (%v)", snaps, err)
	}
	shardSnaps, err := wal.ListSnapshots(ShardDir(dir, 0))
	if err != nil || len(shardSnaps) != len(snaps) {
		t.Fatalf("shard-0000 holds %d snapshots for %d router snapshots (%v)", len(shardSnaps), len(snaps), err)
	}
	segs, _ := wal.SegmentInfos(ShardDir(dir, 0))
	if len(segs) == 0 {
		t.Fatal("no segments to copy")
	}
	// Snapshot pruning may have removed early segments; recovery must still
	// work from what remains.
	for _, n := range []int{3, 5, 9, 10, 14, 17} {
		cdir, cshard := crashDir(t)
		for _, seg := range segs {
			copyFile(t, seg.Path, cshard)
		}
		// Truncate the log copy to exactly n records.
		var cut int64 = -1
		csegs, _ := wal.SegmentInfos(cshard)
		remaining := n
		for _, seg := range csegs {
			if cut >= 0 {
				os.Remove(seg.Path)
				continue
			}
			var end int64
			scan, err := wal.ScanSegment(seg.Path, func(r wal.Rec) error {
				if int(r.Seq) <= remaining {
					end = r.End
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if int(scan.LastSeq) >= remaining {
				cut = end
				if err := os.Truncate(seg.Path, end); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k, sn := range snaps {
			if int(sn.Seq) <= n {
				copyFile(t, sn.Path, cdir)
				copyFile(t, shardSnaps[k].Path, cshard)
			}
		}
		recovered, err := OpenSharded(f.plan, f.dep, f.config(cdir))
		if err != nil {
			t.Fatalf("n=%d: OpenSharded: %v", n, err)
		}
		rec := recovered.Recovery()
		// The newest surviving snapshot at or below the crash point must be
		// the one used (pruning keeps only the most recent two, so early
		// crash points may have none left and replay from the start).
		var wantSnap uint64
		for _, sn := range snaps {
			if int(sn.Seq) <= n && sn.Seq > wantSnap {
				wantSnap = sn.Seq
			}
		}
		if rec.SnapshotSeq != wantSnap || (wantSnap > 0 && !rec.SnapshotRestored) {
			t.Fatalf("n=%d: recovered from snapshot %d (restored=%v), want %d", n, rec.SnapshotSeq, rec.SnapshotRestored, wantSnap)
		}
		if int(rec.SnapshotSeq)+rec.RecordsReplayed != n {
			t.Fatalf("n=%d: snapshot %d + %d replayed != %d", n, rec.SnapshotSeq, rec.RecordsReplayed, n)
		}
		mustMatchOracle(t, "snapshot crash n="+itoa(int64(n)), recovered, f.oracle(t, n), true)
		recovered.Close()
	}
}

// TestGracefulCloseThenResume: a clean shutdown writes a final snapshot, and
// a restarted system that ingests the rest of the stream ends bit-for-bit
// where an uninterrupted run does.
func TestGracefulCloseThenResume(t *testing.T) {
	f := newDurableFixture(t, 14)
	dir := t.TempDir()
	sys, err := OpenSharded(f.plan, f.dep, f.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	half := len(f.deliveries) / 2
	for _, d := range f.deliveries[:half] {
		sys.Ingest(d.t, d.raws)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	restarted, err := OpenSharded(f.plan, f.dep, f.config(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec := restarted.Recovery()
	if !rec.SnapshotRestored {
		t.Fatalf("clean shutdown should leave a snapshot: %+v", rec)
	}
	if rec.RecordsReplayed != 0 {
		t.Fatalf("snapshot-covered log should need no replay, replayed %d", rec.RecordsReplayed)
	}
	for _, d := range f.deliveries[half:] {
		if err := restarted.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("post-restart Ingest: %v", err)
		}
	}
	mustMatchOracle(t, "close+resume", restarted, f.oracle(t, len(f.deliveries)), true)
	restarted.Close()
}

// TestSoAStateRecoveryRoundTrip pins the durability contract of the SoA
// particle kernel: states cleansed through the flat-array kernel, cached,
// gob-snapshotted, and recovered must continue bit-for-bit — the recovered
// system re-enters the kernel (AoS state loaded back into pool arrays) and
// answers every query exactly like an uncrashed system that did the same
// interleaved preprocessing. The final snapshot-bytes comparison
// additionally asserts the durable encodings themselves are identical.
func TestSoAStateRecoveryRoundTrip(t *testing.T) {
	f := newDurableFixture(t, 24)
	dir := t.TempDir()
	cfg := f.config(dir)
	cfg.Durability.SnapshotEvery = 4
	sys, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := MustNew(f.plan, f.dep, f.cfg)
	preprocessed := false
	for i, d := range f.deliveries {
		if err := sys.Ingest(d.t, clone(d.raws)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		oracle.Ingest(d.t, clone(d.raws))
		// Preprocess mid-stream on both sides so the periodic snapshots
		// carry kernel-produced cached states, not just raw readings.
		if (i+1)%6 == 0 {
			objs := sys.KnownObjects()
			if len(objs) > 0 {
				preprocessed = true
			}
			sys.Preprocess(objs)
			oracle.Preprocess(oracle.Collector().KnownObjects())
		}
	}
	if !preprocessed {
		t.Fatal("stream produced no objects to preprocess; scenario is vacuous")
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recovered, err := OpenSharded(f.plan, f.dep, f.config(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer recovered.Close()
	if !recovered.Recovery().SnapshotRestored {
		t.Fatalf("clean shutdown should leave a snapshot: %+v", recovered.Recovery())
	}
	mustMatchOracle(t, "soa round trip", recovered, oracle, true)
	if got, want := snapshotBytes(t, recovered), snapshotBytes(t, oracle.Sharded); !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot encoding diverged from uncrashed (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRecoveryTornFinalRecord and TestRecoveryCRCCorruption cover the two
// damage shapes a crash leaves: a half-written tail and a bit-rotted middle.
func TestRecoveryTornFinalRecord(t *testing.T) {
	f := newDurableFixture(t, 8)
	dir := t.TempDir()
	sys, _ := OpenSharded(f.plan, f.dep, f.config(dir))
	for _, d := range f.deliveries {
		sys.Ingest(d.t, d.raws)
	}
	segs, _ := wal.SegmentInfos(ShardDir(dir, 0))
	st, err := os.Stat(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0].Path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenSharded(f.plan, f.dep, f.config(dir))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	rec := recovered.Recovery()
	if !rec.Corrupt || rec.TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	if rec.RecordsReplayed != len(f.deliveries)-1 {
		t.Fatalf("replayed %d, want %d", rec.RecordsReplayed, len(f.deliveries)-1)
	}
	mustMatchOracle(t, "torn tail", recovered, f.oracle(t, len(f.deliveries)-1), true)
	recovered.Close()
}

func TestRecoveryCRCCorruptionMidSegment(t *testing.T) {
	f := newDurableFixture(t, 8)
	dir := t.TempDir()
	sys, _ := OpenSharded(f.plan, f.dep, f.config(dir))
	for _, d := range f.deliveries {
		sys.Ingest(d.t, d.raws)
	}
	segs, _ := wal.SegmentInfos(ShardDir(dir, 0))
	var target wal.Rec
	if _, err := wal.ScanSegment(segs[0].Path, func(r wal.Rec) error {
		if r.Seq == 4 {
			target = r
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	data[target.Start+20] ^= 0xff
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenSharded(f.plan, f.dep, f.config(dir))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	rec := recovered.Recovery()
	if !rec.Corrupt || rec.RecordsReplayed != 3 {
		t.Fatalf("mid-segment corruption recovery %+v, want 3 records", rec)
	}
	mustMatchOracle(t, "CRC corruption", recovered, f.oracle(t, 3), true)
	recovered.Close()
}

// TestSnapshotWithEmptyWAL: a data dir holding only a snapshot (all
// segments gone, e.g. aggressively pruned) still recovers to the snapshot
// point.
func TestSnapshotWithEmptyWAL(t *testing.T) {
	f := newDurableFixture(t, 6)
	dir := t.TempDir()
	sys, _ := OpenSharded(f.plan, f.dep, f.config(dir))
	for _, d := range f.deliveries {
		sys.Ingest(d.t, d.raws)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := wal.SegmentInfos(ShardDir(dir, 0))
	for _, seg := range segs {
		if err := os.Remove(seg.Path); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := OpenSharded(f.plan, f.dep, f.config(dir))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	rec := recovered.Recovery()
	if !rec.SnapshotRestored || rec.RecordsReplayed != 0 {
		t.Fatalf("snapshot-only recovery %+v", rec)
	}
	mustMatchOracle(t, "snapshot only", recovered, f.oracle(t, len(f.deliveries)), true)
	// The stream resumes: the reorder position came from the snapshot.
	if err := recovered.Ingest(recovered.Now()+1, nil); err != nil {
		t.Fatalf("resume after snapshot-only recovery: %v", err)
	}
	recovered.Close()
}

// TestStreamIdentityMismatch: a data directory written under a different
// seed (hence floor-plan hash) refuses to load with a typed error.
func TestStreamIdentityMismatch(t *testing.T) {
	f := newDurableFixture(t, 4)
	dir := t.TempDir()
	sys, _ := OpenSharded(f.plan, f.dep, f.config(dir))
	for _, d := range f.deliveries {
		sys.Ingest(d.t, d.raws)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	other := f.config(dir)
	other.Seed = f.cfg.Seed + 1
	_, err := OpenSharded(f.plan, f.dep, other)
	var me *wal.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("Open with foreign seed returned %v, want *wal.MismatchError", err)
	}
}

// TestOpenShardedRefusesLegacyFlatDir: a data directory in the flat layout
// the pre-router single engine wrote — segments or snapshots at the top
// level, no SHARDS guard — must be refused with an error naming the layout,
// and left untouched. Stamping it as new would come up empty and ack fresh
// writes over the old state.
func TestOpenShardedRefusesLegacyFlatDir(t *testing.T) {
	f := newDurableFixture(t, 1)
	sid, err := f.cfg.StreamID(f.plan, f.dep)
	if err != nil {
		t.Fatal(err)
	}
	layouts := map[string]func(dir string){
		"segments": func(dir string) {
			l, _, err := wal.Open(dir, wal.Options{StreamID: sid}, func(uint64, []byte) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			b := wal.Batch{Time: f.deliveries[0].t, MaxSeen: f.deliveries[0].t, Readings: f.deliveries[0].raws}
			if err := l.Append(1, b.Encode(nil)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		},
		"snapshot-only": func(dir string) {
			if _, err := wal.WriteSnapshot(dir, sid, 1, []byte("legacy engine snapshot")); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, write := range layouts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			write(dir)
			before, _ := os.ReadDir(dir)
			for _, shards := range []int{1, 4} {
				cfg := f.config(dir)
				cfg.Shards = shards
				sh, err := OpenSharded(f.plan, f.dep, cfg)
				if err == nil {
					sh.Close()
					t.Fatalf("shards=%d: OpenSharded accepted a legacy flat directory", shards)
				}
				if !strings.Contains(err.Error(), "legacy flat") || !strings.Contains(err.Error(), shardGuardFile) {
					t.Errorf("shards=%d: refusal does not name the layout: %v", shards, err)
				}
			}
			after, _ := os.ReadDir(dir)
			if len(after) != len(before) {
				t.Errorf("refused open changed the directory: %d entries before, %d after", len(before), len(after))
			}
		})
	}
}

// TestSingleShardPermanentFaultFailStops: at Shards: 1 there is no healthy
// shard to keep serving beside a broken one, so a permanent WAL fault is not
// a quarantine — it is a sticky engine-wide WALError, with no partial answers
// and no marker left behind — and once the fault clears the directory
// reopens bit-for-bit equal to the oracle over the acked prefix and resumes.
func TestSingleShardPermanentFaultFailStops(t *testing.T) {
	const faultAt = 9
	f := newDurableFixture(t, 16)
	fsys := errfs.New(nil, 23)
	dir := t.TempDir()
	cfg := f.config(dir)
	cfg.Durability.FS = fsys
	cfg.Durability.Retry = fastRetry
	sh, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	for _, d := range f.deliveries[:faultAt] {
		if err := sh.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("clean ingest: %v", err)
		}
	}
	h := fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "shard-0000"})
	first := sh.Ingest(f.deliveries[faultAt].t, f.deliveries[faultAt].raws)
	if first == nil || h.Fired() == 0 {
		t.Fatalf("ingest over a permanently failing log returned %v (fault fired %d times)", first, h.Fired())
	}
	var ie *ingest.Error
	if errors.As(first, &ie) {
		t.Fatalf("fail-stop surfaced as a typed partial drop, not an engine failure: %v", first)
	}
	if werr := sh.WALError(); werr == nil || werr.Error() != first.Error() {
		t.Fatalf("WALError = %v, want the ingest error %v", werr, first)
	}
	if again := sh.Ingest(f.deliveries[faultAt+1].t, f.deliveries[faultAt+1].raws); again == nil || again.Error() != first.Error() {
		t.Fatalf("WAL error is not sticky: second ingest returned %v", again)
	}
	if ds := sh.DegradedShards(); len(ds) != 0 {
		t.Errorf("DegradedShards = %v; the only shard must fail-stop, not quarantine", ds)
	}
	if _, err := os.Stat(quarMarkerPath(dir, 0)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("fail-stop left a quarantine marker (stat: %v)", err)
	}
	ctx := context.Background()
	if rs, qerr := sh.RangeQueryContext(ctx, probeWindow); qerr != nil || len(rs) == 0 {
		t.Errorf("range query after fail-stop: %d rows, err %v; want the full in-memory answer", len(rs), qerr)
	}
	if _, qerr := sh.KNNQueryContext(ctx, probePoint, 3); qerr != nil {
		t.Errorf("kNN query after fail-stop is partial: %v", qerr)
	}
	if _, qerr := sh.OccupancyContext(ctx); qerr != nil {
		t.Errorf("occupancy after fail-stop is partial: %v", qerr)
	}
	if err := sh.HealNow(); err != nil {
		t.Errorf("HealNow on a fail-stopped engine: %v", err)
	}
	if sh.WALError() == nil {
		t.Error("HealNow cleared a fail-stop; only a restart may")
	}
	fsys.Clear()
	if err := sh.Close(); err == nil {
		t.Error("Close of a fail-stopped engine reported success")
	}

	re, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatalf("reopen after the fault cleared: %v", err)
	}
	if werr := re.WALError(); werr != nil {
		t.Fatalf("reopened engine is still failed: %v", werr)
	}
	if ds := re.DegradedShards(); len(ds) != 0 {
		t.Fatalf("reopened engine is degraded: %v", ds)
	}
	mustMatchOracle(t, "reopen after fail-stop", re, f.oracle(t, faultAt), true)
	// The stream resumes at the first unacked second.
	for _, d := range f.deliveries[faultAt:] {
		if err := re.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("post-restart ingest t=%d: %v", d.t, err)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
