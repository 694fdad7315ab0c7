package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/shardmap"
	"repro/internal/sim/errfs"
	"repro/internal/wal"
)

// fastRetry keeps the transient-retry backoff out of test wall-clock time.
var fastRetry = RetryConfig{Max: 4, BaseDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond}

// TestTransientWALFaultsAbsorbed injects bounded transient write and fsync
// faults into a one-shard durable engine: the retry loop must absorb every one —
// no ingest error, no WAL error, retry telemetry incremented — and the final
// state must be bit-for-bit the unfaulted oracle.
func TestTransientWALFaultsAbsorbed(t *testing.T) {
	f := newDurableFixture(t, 14)
	fsys := errfs.New(nil, 7)
	dir := t.TempDir()
	cfg := f.config(dir)
	cfg.Durability.FS = fsys
	cfg.Durability.Retry = fastRetry
	sys, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	wh := fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, After: 4, Times: 2, Transient: true})
	sh := fsys.Fail(errfs.Rule{Ops: errfs.OpSync, After: 9, Times: 2, Transient: true})

	for _, d := range f.deliveries {
		if err := sys.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("Ingest under transient faults: %v", err)
		}
	}
	if wh.Fired() == 0 || sh.Fired() == 0 {
		t.Fatalf("faults never fired (write=%d sync=%d); scenario proves nothing", wh.Fired(), sh.Fired())
	}
	if sys.WALError() != nil {
		t.Fatalf("transient faults poisoned the WAL: %v", sys.WALError())
	}
	if got := sys.tel.walRetries.Value(); got == 0 {
		t.Error("repro_wal_retries_total stayed 0 despite fired transient faults")
	}
	mustMatchOracle(t, "transient faults absorbed", sys, f.oracle(t, len(f.deliveries)), true)
	fsys.Clear()
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCrashRecoveryWithTransientSyncFaults extends the crash-at-every-offset
// property: run the stream under probabilistic transient fsync faults (all
// absorbed by retries), then crash at every record boundary of the surviving
// log and require recovery to be bit-for-bit the oracle over that acked
// prefix. Transient faults must never cost an acked record.
func TestCrashRecoveryWithTransientSyncFaults(t *testing.T) {
	f := newDurableFixture(t, 12)
	fsys := errfs.New(nil, 11)
	dir := t.TempDir()
	cfg := f.config(dir)
	cfg.Durability.FS = fsys
	cfg.Durability.Retry = fastRetry
	sys, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fsys.Fail(errfs.Rule{Ops: errfs.OpSync, Prob: 0.35, Transient: true})
	for _, d := range f.deliveries {
		if err := sys.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("Ingest under transient sync faults: %v", err)
		}
	}
	if h.Fired() == 0 {
		t.Fatal("no sync fault fired; raise Prob or the stream length")
	}
	// Crash: no Close. Recovery below runs on the real filesystem.
	segs, err := wal.SegmentInfos(shardDir(dir, 0))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("scan of surviving segment: %+v err=%v", scan, err)
	}
	// Every delivery was acked, so every delivery must be on disk: absorbed
	// transients lose nothing.
	if len(bounds) != len(f.deliveries) {
		t.Fatalf("%d records for %d acked deliveries", len(bounds), len(f.deliveries))
	}
	for _, b := range bounds {
		cdir, cshard := crashDir(t)
		if err := os.WriteFile(filepath.Join(cshard, filepath.Base(segs[0].Path)), full[:b.end], 0o644); err != nil {
			t.Fatal(err)
		}
		recovered, err := OpenSharded(f.plan, f.dep, f.config(cdir))
		if err != nil {
			t.Fatalf("record %d: OpenSharded: %v", b.recs, err)
		}
		if got := recovered.Recovery().RecordsReplayed; got != b.recs {
			t.Fatalf("record %d: replayed %d", b.recs, got)
		}
		mustMatchOracle(t, "crash after record "+itoa(int64(b.recs)), recovered, f.oracle(t, b.recs), b.recs == len(bounds))
		recovered.Close()
	}
}

// TestSnapshotFailureDoesNotStallSchedule breaks exactly one snapshot write:
// ingestion must keep acking, the failure must be counted, and the NEXT
// snapshot tick must succeed — a failed snapshot delays compaction, it does
// not stop the schedule or the stream.
func TestSnapshotFailureDoesNotStallSchedule(t *testing.T) {
	f := newDurableFixture(t, 16)
	fsys := errfs.New(nil, 13)
	dir := t.TempDir()
	cfg := f.config(dir)
	cfg.Durability.FS = fsys
	cfg.Durability.SnapshotEvery = 3
	sys, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "snap-", Times: 1})
	for _, d := range f.deliveries {
		if err := sys.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if h.Fired() != 1 {
		t.Fatalf("snapshot fault fired %d times, want 1", h.Fired())
	}
	if got := sys.tel.snapshotFailures.Value(); got == 0 {
		t.Error("repro_snapshot_failures_total stayed 0 despite a failed snapshot write")
	}
	snaps, err := wal.ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshot ever landed: one failed write stalled the schedule")
	}
	if last := snaps[len(snaps)-1].Seq; last < 6 {
		t.Errorf("newest snapshot at seq %d; schedule never recovered past the failed tick", last)
	}
	mustMatchOracle(t, "after snapshot failure", sys, f.oracle(t, len(f.deliveries)), true)
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// quarantineFixtureCfg is the shared 4-shard durable config for the
// fault-isolation tests: error-injecting FS, fast transient retries, and a
// background healer parked out of the way so the tests drive HealNow.
func quarantineFixtureCfg(f *durableFixture, dir string, fsys *errfs.FS) Config {
	cfg := f.config(dir)
	cfg.Shards = 4
	// With the cache on, answers depend on when past queries ran; these tests
	// query mid-stream (while degraded) and the oracle does not, so pin the
	// cache-off invariant: quiesced answers are a pure function of the stream.
	cfg.UseCache = false
	cfg.Durability.FS = fsys
	cfg.Durability.Retry = fastRetry
	cfg.Durability.HealBaseDelay = time.Hour
	cfg.Durability.HealMaxDelay = time.Hour
	return cfg
}

// shardFiltered returns the delivery's readings minus those owned by shard.
func shardFiltered(raws []model.RawReading, shard, n int) []model.RawReading {
	out := make([]model.RawReading, 0, len(raws))
	for _, r := range raws {
		if shardmap.Of(r.Object, n) != shard {
			out = append(out, r)
		}
	}
	return out
}

// shardOwned counts the delivery's readings owned by shard.
func shardOwned(raws []model.RawReading, shard, n int) int {
	return len(raws) - len(shardFiltered(raws, shard, n))
}

// quarantineOracle builds a memory-only 4-shard engine fed the effective
// stream's first end deliveries: full deliveries outside [from, to),
// shard-filtered inside it.
func quarantineOracle(t *testing.T, f *durableFixture, shard, from, to, end int) *Sharded {
	t.Helper()
	cfg := f.cfg
	cfg.Shards = 4
	cfg.UseCache = false
	oracle := MustNewSharded(f.plan, f.dep, cfg)
	for i, d := range f.deliveries[:end] {
		raws := d.raws
		if i >= from && i < to {
			raws = shardFiltered(raws, shard, 4)
		}
		if err := oracle.Ingest(d.t, raws); err != nil {
			t.Fatalf("oracle ingest: %v", err)
		}
	}
	oracle.FlushIngest()
	return oracle
}

// mustMatchShardedOracle compares the externally observable answers (range,
// kNN, occupancy, known objects) and every object's collector state of a
// healed engine against the effective-stream oracle. Stats are excluded: the
// faulted run counts typed drops the oracle never saw; the caller asserts
// those separately.
func mustMatchShardedOracle(t *testing.T, label string, got, want *Sharded) {
	t.Helper()
	g, w := recoveredOutcome(got), recoveredOutcome(want)
	g.stats, w.stats = Stats{}, Stats{}
	if !reflect.DeepEqual(g, w) {
		if !reflect.DeepEqual(g.rng, w.rng) {
			t.Errorf("%s: range answers diverge:\n  got  %v\n  want %v", label, g.rng, w.rng)
		}
		if !reflect.DeepEqual(g.knn, w.knn) {
			t.Errorf("%s: kNN answers diverge", label)
		}
		if !reflect.DeepEqual(g.occ, w.occ) {
			t.Errorf("%s: occupancy diverges", label)
		}
		if !reflect.DeepEqual(g.objects, w.objects) {
			t.Errorf("%s: object states diverge (clock %d vs %d)", label, g.objects.Now, w.objects.Now)
		}
		if !reflect.DeepEqual(g.known, w.known) {
			t.Errorf("%s: known objects diverge:\n  got  %v\n  want %v", label, g.known, w.known)
		}
		t.Fatalf("%s: healed engine diverged from the effective-stream oracle", label)
	}
}

// TestShardPermanentFaultIsolatesAndHeals is the PR's acceptance scenario: at
// 4 shards, a permanent fault in one shard's WAL must quarantine that shard
// only — typed drops for its objects, partial answers naming it, no
// engine-wide WAL error — and after the fault clears, HealNow must restore
// full service with answers bit-for-bit the unfaulted-oracle's over the
// effective stream.
func TestShardPermanentFaultIsolatesAndHeals(t *testing.T) {
	const faultAt, healAt = 10, 24
	f := newDurableFixture(t, 30)
	fsys := errfs.New(nil, 17)
	dir := t.TempDir()
	sh, err := OpenSharded(f.plan, f.dep, quarantineFixtureCfg(f, dir, fsys))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	for _, d := range f.deliveries[:faultAt] {
		if err := sh.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("clean ingest: %v", err)
		}
	}
	fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "shard-0002"})
	var droppedTyped, droppedWant int
	for i := faultAt; i < healAt; i++ {
		d := f.deliveries[i]
		droppedWant += shardOwned(d.raws, 2, 4)
		err := sh.Ingest(d.t, d.raws)
		if err == nil {
			if shardOwned(d.raws, 2, 4) > 0 {
				t.Fatalf("second %d: ingest acked readings for the dead shard without a typed error", i)
			}
			continue
		}
		var ie *ingest.Error
		if !errors.As(err, &ie) || ie.Kind != ingest.KindQuarantined {
			t.Fatalf("second %d: ingest error is not a typed quarantine drop: %v", i, err)
		}
		droppedTyped += ie.Dropped
	}
	sh.FlushIngest()

	if werr := sh.WALError(); werr != nil {
		t.Fatalf("one dead shard poisoned the whole engine: %v", werr)
	}
	if ds := sh.DegradedShards(); !reflect.DeepEqual(ds, []int{2}) {
		t.Fatalf("DegradedShards = %v, want [2]", ds)
	}
	if droppedTyped != droppedWant {
		t.Errorf("typed drops = %d, want %d (every shard-2 reading in the window)", droppedTyped, droppedWant)
	}
	if got := sh.Stats().Ingest.QuarantinedReadings; got != droppedWant {
		t.Errorf("Stats.Ingest.QuarantinedReadings = %d, want %d", got, droppedWant)
	}
	if _, err := os.Stat(quarMarkerPath(dir, 2)); err != nil {
		t.Errorf("quarantine marker missing: %v", err)
	}

	// Every query surface must answer from the live shards and say so.
	ctx := context.Background()
	if res, qerr := sh.RangeQueryContext(ctx, probeWindow); qerr == nil {
		t.Error("range query under quarantine reported no degradation")
	} else if qe, ok := IsQuarantine(qerr); !ok || !reflect.DeepEqual(qe.Shards, []int{2}) {
		t.Errorf("range query error %v does not name shard 2", qerr)
	} else if res == nil {
		t.Error("range query returned no partial answer")
	}
	if _, qerr := sh.KNNQueryContext(ctx, probePoint, 3); qerr == nil {
		t.Error("kNN query under quarantine reported no degradation")
	} else if qe, ok := IsQuarantine(qerr); !ok || !reflect.DeepEqual(qe.Shards, []int{2}) {
		t.Errorf("kNN query error %v does not name shard 2", qerr)
	}
	if _, qerr := sh.OccupancyContext(ctx); qerr == nil {
		t.Error("occupancy under quarantine reported no degradation")
	} else if _, ok := IsQuarantine(qerr); !ok {
		t.Errorf("occupancy error %v is not a QuarantineError", qerr)
	}

	// Fault clears; heal; full service resumes.
	fsys.Clear()
	if err := sh.HealNow(); err != nil {
		t.Fatalf("HealNow after fault cleared: %v", err)
	}
	if ds := sh.DegradedShards(); len(ds) != 0 {
		t.Fatalf("DegradedShards = %v after heal", ds)
	}
	if _, err := os.Stat(quarMarkerPath(dir, 2)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("quarantine marker survived the heal: %v", err)
	}
	if got := sh.tel.shardHeals.Value(); got != 1 {
		t.Errorf("repro_shard_heals_total = %d, want 1", got)
	}
	// Healed and nothing ingested since: the shard's clock and its objects'
	// LEAVEs must already stand where the missed seconds put them.
	mustMatchShardedOracle(t, "on heal", sh, quarantineOracle(t, f, 2, faultAt, healAt, healAt))
	for _, d := range f.deliveries[healAt:] {
		if err := sh.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("post-heal ingest: %v", err)
		}
	}
	sh.FlushIngest()
	if _, qerr := sh.RangeQueryContext(ctx, probeWindow); qerr != nil {
		t.Errorf("post-heal range query still degraded: %v", qerr)
	}

	mustMatchShardedOracle(t, "post-heal", sh, quarantineOracle(t, f, 2, faultAt, healAt, len(f.deliveries)))
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestQuarantineSurvivesCleanRestart closes an engine with a quarantined
// shard: the restarted engine must come back with that shard still
// quarantined (marker + barrier record), heal on demand, and match the
// effective-stream oracle.
func TestQuarantineSurvivesCleanRestart(t *testing.T) {
	testQuarantineRestart(t, true)
}

// TestQuarantineSurvivesCrashRestart is the same scenario without Close: the
// process vanishes with a shard quarantined, and recovery must rebuild the
// missed-second list from the live shards' WAL replay alone.
func TestQuarantineSurvivesCrashRestart(t *testing.T) {
	testQuarantineRestart(t, false)
}

func testQuarantineRestart(t *testing.T, clean bool) {
	const faultAt, restartAt = 8, 16
	f := newDurableFixture(t, 24)
	fsys := errfs.New(nil, 19)
	dir := t.TempDir()
	cfg := quarantineFixtureCfg(f, dir, fsys)
	sh, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	for i, d := range f.deliveries[:restartAt] {
		if i == faultAt {
			fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "shard-0001"})
		}
		err := sh.Ingest(d.t, d.raws)
		if i < faultAt && err != nil {
			t.Fatalf("clean ingest: %v", err)
		}
		if err != nil {
			var ie *ingest.Error
			if !errors.As(err, &ie) || ie.Kind != ingest.KindQuarantined {
				t.Fatalf("second %d: %v", i, err)
			}
		}
	}
	sh.FlushIngest()
	if ds := sh.DegradedShards(); !reflect.DeepEqual(ds, []int{1}) {
		t.Fatalf("DegradedShards = %v before restart, want [1]", ds)
	}
	fsys.Clear()
	if clean {
		if err := sh.Close(); err != nil {
			t.Fatalf("Close with quarantined shard: %v", err)
		}
	} else {
		// Simulated crash: stop only the background healer so the test binary
		// does not leak its goroutine; everything else is abandoned as-is.
		sh.stopHealer()
	}

	re, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if ds := re.DegradedShards(); !reflect.DeepEqual(ds, []int{1}) {
		t.Fatalf("DegradedShards = %v after restart, want [1] (marker ignored?)", ds)
	}
	if err := re.HealNow(); err != nil {
		t.Fatalf("HealNow after restart: %v", err)
	}
	if ds := re.DegradedShards(); len(ds) != 0 {
		t.Fatalf("DegradedShards = %v after heal", ds)
	}
	for _, d := range f.deliveries[restartAt:] {
		if err := re.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("post-heal ingest: %v", err)
		}
	}
	re.FlushIngest()
	mustMatchShardedOracle(t, "restart+heal", re, quarantineOracle(t, f, 1, faultAt, restartAt, len(f.deliveries)))
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestAllShardsMarkedRecoversLastLive opens a directory in which every shard
// carries a quarantine marker — what builds that quarantined their last live
// shard left behind; this one fail-stops instead. The shard marked at the
// highest sequence was the last one standing and must recover as the live
// lockstep reference: no sticky failure, no acked record cut, the others heal
// against it, and the engine ends bit-for-bit on the effective-stream oracle.
func TestAllShardsMarkedRecoversLastLive(t *testing.T) {
	const faultAt, failAt = 8, 14
	f := newDurableFixture(t, 22)
	fsys := errfs.New(nil, 31)
	dir := t.TempDir()
	cfg := quarantineFixtureCfg(f, dir, fsys)
	sh, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	for i, d := range f.deliveries[:failAt] {
		if i == faultAt {
			fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "shard-0001"})
		}
		if err := sh.Ingest(d.t, d.raws); err != nil && i < faultAt {
			t.Fatalf("clean ingest: %v", err)
		}
	}
	// Every remaining disk dies in the same second: two more shards
	// quarantine and the last one fail-stops the engine.
	fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "shard-"})
	if err := sh.Ingest(f.deliveries[failAt].t, f.deliveries[failAt].raws); err == nil || sh.WALError() == nil {
		t.Fatalf("ingest with every log failing: err %v, WALError %v; want a fail-stop", err, sh.WALError())
	}
	if ds := sh.DegradedShards(); len(ds) != 3 {
		t.Fatalf("DegradedShards = %v, want three quarantined and one fail-stopped LIVE shard", ds)
	}
	fsys.Clear()
	sh.Close() // reports the sticky failure; the files are what matters
	// The older behaviour: the last shard got a marker too.
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(quarMarkerPath(dir, i)); errors.Is(err, os.ErrNotExist) {
			if err := writeQuarMarker(wal.OS, dir, i, sh.walSeq); err != nil {
				t.Fatal(err)
			}
		}
	}

	re, err := OpenSharded(f.plan, f.dep, cfg)
	if err != nil {
		t.Fatalf("reopen with every shard marked: %v", err)
	}
	if werr := re.WALError(); werr != nil {
		t.Fatalf("reopened engine is failed: %v", werr)
	}
	if got := re.Recovery().LastSeq; got != sh.walSeq {
		t.Fatalf("recovered to seq %d, acked prefix ends at %d (acked records cut?)", got, sh.walSeq)
	}
	if ds := re.DegradedShards(); len(ds) != 3 {
		t.Fatalf("DegradedShards = %v after reopen, want three (one marked shard promoted to live)", ds)
	}
	if err := re.HealNow(); err != nil {
		t.Fatalf("HealNow: %v", err)
	}
	if ds := re.DegradedShards(); len(ds) != 0 {
		t.Fatalf("DegradedShards = %v after heal", ds)
	}
	// The failed second was never acked; the gateway re-sends from there.
	for _, d := range f.deliveries[failAt:] {
		if err := re.Ingest(d.t, d.raws); err != nil {
			t.Fatalf("post-heal ingest: %v", err)
		}
	}
	re.FlushIngest()
	mustMatchShardedOracle(t, "all-marked reopen", re, quarantineOracle(t, f, 1, faultAt, failAt, len(f.deliveries)))
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
