package engine

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/collector"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/wal"
)

// shardedOutcome is everything externally observable about an engine after a
// fixed ingest stream and a fixed query sequence: answers, analytics,
// per-object collector state, and every counter. Equivalence tests compare it
// with reflect.DeepEqual, so ordering is pinned too. (Every query kind,
// snapshot and historical, on every engine shape is internal/cluster's
// TestQueryEquivalence; the answers here pin what the counters count.)
type shardedOutcome struct {
	rng     model.ResultSet
	knn     model.ResultSet
	occ     []RoomOdds
	loc     Localization
	locOK   bool
	objects objectState
	known   []model.ObjectID
	stats   Stats
	hits    int
	misses  int
	// mid are the answers of the queries asked mid-stream, and unhealthy
	// the seconds after which some reader was out of LIVE.
	mid       []model.ResultSet
	unhealthy int
}

// objectState is every retained object's collector state — its current
// reader (In), last sighting and device runs — in object order, and the
// clock: for a router, its oldest shard's, so a shard left behind shows. The
// ENTER/LEAVE events are derived from In and LastSeen second by second.
type objectState struct {
	Objects []collector.ObjectSnapshot
	Now     model.Time
}

// objectStateOf merges the router's shards' disjoint collectors.
func objectStateOf(sys any) objectState {
	switch s := sys.(type) {
	case *System:
		return objectStateOf(s.Sharded)
	case *Sharded:
		per := make([][]collector.ObjectSnapshot, s.n)
		now := s.Now()
		for i, sh := range s.shards {
			s.shardMu[i].Lock()
			snap := sh.col.Snapshot()
			s.shardMu[i].Unlock()
			per[i], now = snap.Objects, min(now, snap.Now)
		}
		objs := kMerge(per, func(a, b collector.ObjectSnapshot) bool { return a.Object < b.Object })
		if objs == nil {
			objs = []collector.ObjectSnapshot{}
		}
		return objectState{objs, now}
	}
	panic(fmt.Sprintf("objectStateOf: %T", sys))
}

// equivOutageReader is the busiest reader of the equivalence trace; its
// scheduled outage takes it out of LIVE.
const equivOutageReader = 16

// observe runs the fixed ingest stream and query sequence against any engine
// exposing the System/Sharded query surface. Both engine kinds must execute
// the exact same sequence — Stats counts queries and filter runs. The stream
// changes the sensing model the preprocessing reads under it: a scheduled
// outage flips a reader out of LIVE (a health refresh), with queries asked
// before, during and after it.
func observe[E interface {
	Ingest(t model.Time, raws []model.RawReading) error
	FlushIngest()
	Deployment() *rfid.Deployment
	Unhealthy() []bool
	RangeQuery(window geom.Rect) model.ResultSet
	KNNQuery(q geom.Point, k int) model.ResultSet
	Occupancy() []RoomOdds
	Localize(obj model.ObjectID) (Localization, bool)
	KnownObjects() []model.ObjectID
	Stats() Stats
	CacheStats() (hits, misses int)
}](t *testing.T, sys E, world *sim.Simulator) shardedOutcome {
	t.Helper()
	var out shardedOutcome
	inj := sim.MustNewInjector(sim.FaultConfig{
		Outages: []sim.Outage{{Reader: equivOutageReader, From: 10, To: 60}},
	}, sys.Deployment().NumReaders(), 5)
	for i := 0; i < 80; i++ {
		tm, raws := world.Step()
		for _, b := range inj.Apply(tm, raws) {
			if err := sys.Ingest(b.Time, b.Readings); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		}
		if i%12 == 11 {
			out.mid = append(out.mid, sys.RangeQuery(geom.RectWH(5, 9, 25, 14)), sys.KNNQuery(geom.Pt(20, 12), 10))
		}
		if sys.Unhealthy() != nil {
			out.unhealthy++
		}
	}
	sys.FlushIngest()

	out.rng = sys.RangeQuery(geom.RectWH(5, 9, 25, 14))
	out.knn = sys.KNNQuery(geom.Pt(20, 12), 10)
	out.occ = sys.Occupancy()
	out.known = sys.KnownObjects()
	if len(out.known) > 0 {
		out.loc, out.locOK = sys.Localize(out.known[len(out.known)/2])
	}
	out.objects = objectStateOf(sys)
	out.stats = sys.Stats()
	out.hits, out.misses = sys.CacheStats()
	return out
}

// TestShardedEquivalence is the tentpole correctness property: a Sharded
// engine at ANY shard count answers every query, reports every counter, and
// holds every object's collector state exactly as the single-shard System
// does over the same input. The merge discipline (object-sorted
// preprocessing, per-shard stat summation) makes shard count unobservable.
func TestShardedEquivalence(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	baseCfg := DefaultConfig()
	baseCfg.Seed = 33
	baseCfg.KeepHistory = true

	single := MustNew(plan, dep, baseCfg)
	world := sim.MustNew(single.Graph(), rfid.NewSensor(dep), traceCfg120(), 77)
	base := observe(t, single, world)
	if base.stats.FiltersRun == 0 || len(base.rng) == 0 || len(base.objects.Objects) == 0 || !base.locOK || base.unhealthy == 0 {
		t.Fatalf("baseline is vacuous: stats=%+v |range|=%d |objects|=%d locOK=%v unhealthy=%d",
			base.stats, len(base.rng), len(base.objects.Objects), base.locOK, base.unhealthy)
	}

	for _, n := range []int{1, 4, 16} {
		cfg := baseCfg
		cfg.Shards = n
		sh := MustNewSharded(plan, dep, cfg)
		world := sim.MustNew(sh.Graph(), rfid.NewSensor(dep), traceCfg120(), 77)
		got := observe(t, sh, world)
		if !reflect.DeepEqual(got, base) {
			if !reflect.DeepEqual(got.rng, base.rng) {
				t.Errorf("shards=%d: range answers diverge", n)
			}
			if !reflect.DeepEqual(got.knn, base.knn) {
				t.Errorf("shards=%d: kNN answers diverge", n)
			}
			if !reflect.DeepEqual(got.mid, base.mid) || got.unhealthy != base.unhealthy {
				t.Errorf("shards=%d: mid-stream answers or reader health diverge (unhealthy for %d seconds, want %d)", n, got.unhealthy, base.unhealthy)
			}
			if !reflect.DeepEqual(got.occ, base.occ) {
				t.Errorf("shards=%d: occupancy diverges:\n got %+v\nwant %+v", n, got.occ, base.occ)
			}
			if !reflect.DeepEqual(got.loc, base.loc) || got.locOK != base.locOK {
				t.Errorf("shards=%d: localization diverges:\n got %+v\nwant %+v", n, got.loc, base.loc)
			}
			if !reflect.DeepEqual(got.objects, base.objects) {
				t.Errorf("shards=%d: object states diverge", n)
			}
			if !reflect.DeepEqual(got.known, base.known) {
				t.Errorf("shards=%d: known objects diverge", n)
			}
			if got.stats != base.stats {
				t.Errorf("shards=%d: stats diverge:\n got %+v\nwant %+v", n, got.stats, base.stats)
			}
			if got.hits != base.hits || got.misses != base.misses {
				t.Errorf("shards=%d: cache stats diverge: got %d/%d want %d/%d",
					n, got.hits, got.misses, base.hits, base.misses)
			}
		}
	}
}

func traceCfg120() sim.TraceConfig {
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 120
	tc.DwellMin, tc.DwellMax = 2, 8
	return tc
}

// recoveredOutcome captures the queryable state right after a reopen, before
// any further ingestion.
func recoveredOutcome[E interface {
	RangeQuery(window geom.Rect) model.ResultSet
	KNNQuery(q geom.Point, k int) model.ResultSet
	Occupancy() []RoomOdds
	KnownObjects() []model.ObjectID
	Stats() Stats
}](sys E) shardedOutcome {
	var out shardedOutcome
	out.rng = sys.RangeQuery(geom.RectWH(5, 9, 25, 14))
	out.knn = sys.KNNQuery(geom.Pt(20, 12), 10)
	out.occ = sys.Occupancy()
	out.objects = objectStateOf(sys)
	out.known = sys.KnownObjects()
	out.stats = sys.Stats()
	return out
}

// ingestTrace feeds steps seconds of the deterministic trace into sys.
func ingestTrace(t *testing.T, sys interface {
	Ingest(tm model.Time, raws []model.RawReading) error
	FlushIngest()
}, world *sim.Simulator, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		tm, raws := world.Step()
		if err := sys.Ingest(tm, raws); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	sys.FlushIngest()
}

// TestShardedRecoveryEquivalence pins recovery: after a durable ingest run, a
// reopened Sharded engine at any shard count answers exactly like an
// uncrashed in-memory kernel fed the same stream — whether the first process
// closed cleanly (snapshot restore) or vanished without Close (pure WAL
// replay).
func TestShardedRecoveryEquivalence(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	newCfg := func(dir string) Config {
		cfg := DefaultConfig()
		cfg.Seed = 33
		cfg.Durability = DurabilityConfig{Dir: dir, Fsync: wal.SyncAlways}
		return cfg
	}

	for _, clean := range []bool{true, false} {
		name := "clean-close"
		if !clean {
			name = "crash"
		}
		t.Run(name, func(t *testing.T) {
			// Oracle: the kernel, never crashed, never near a disk.
			sys := MustNew(plan, dep, newCfg(""))
			world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), traceCfg120(), 77)
			ingestTrace(t, sys, world, 60)
			base := recoveredOutcome(sys)
			if len(base.known) == 0 || len(base.rng) == 0 {
				t.Fatalf("oracle is vacuous: %d objects, %d range rows", len(base.known), len(base.rng))
			}

			for _, n := range []int{1, 4, 16} {
				sdir := t.TempDir()
				cfg := newCfg(sdir)
				cfg.Shards = n
				sh, err := OpenSharded(plan, dep, cfg)
				if err != nil {
					t.Fatalf("OpenSharded(%d): %v", n, err)
				}
				world := sim.MustNew(sh.Graph(), rfid.NewSensor(dep), traceCfg120(), 77)
				ingestTrace(t, sh, world, 60)
				if clean {
					if err := sh.Close(); err != nil {
						t.Fatalf("Close sharded(%d): %v", n, err)
					}
				}
				sre, err := OpenSharded(plan, dep, cfg)
				if err != nil {
					t.Fatalf("reopen sharded(%d): %v", n, err)
				}
				if clean != sre.Recovery().SnapshotRestored {
					t.Errorf("shards=%d: SnapshotRestored = %v after %s", n, sre.Recovery().SnapshotRestored, name)
				}
				got := recoveredOutcome(sre)
				if !reflect.DeepEqual(got, base) {
					if !reflect.DeepEqual(got.rng, base.rng) {
						t.Errorf("shards=%d %s: recovered range answers diverge", n, name)
					}
					if !reflect.DeepEqual(got.knn, base.knn) {
						t.Errorf("shards=%d %s: recovered kNN answers diverge", n, name)
					}
					if !reflect.DeepEqual(got.occ, base.occ) {
						t.Errorf("shards=%d %s: recovered occupancy diverges", n, name)
					}
					if !reflect.DeepEqual(got.objects, base.objects) {
						t.Errorf("shards=%d %s: recovered object states diverge", n, name)
					}
					if !reflect.DeepEqual(got.known, base.known) {
						t.Errorf("shards=%d %s: recovered known objects diverge", n, name)
					}
					if got.stats != base.stats {
						t.Errorf("shards=%d %s: recovered stats diverge:\n got %+v\nwant %+v", n, name, got.stats, base.stats)
					}
				}
				if err := sre.Close(); err != nil {
					t.Errorf("close reopened sharded(%d): %v", n, err)
				}
			}
		})
	}
}

// TestShardedShardGuard verifies the data directory pins its shard count:
// reopening with a different count is refused instead of silently
// mis-routing objects.
func TestShardedShardGuard(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Shards = 4
	cfg.Durability = DurabilityConfig{Dir: dir, Fsync: wal.SyncAlways}
	sh, err := OpenSharded(plan, dep, cfg)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cfg.Shards = 8
	if _, err := OpenSharded(plan, dep, cfg); err == nil {
		t.Fatal("reopening a 4-shard directory with 8 shards succeeded")
	}
}

// TestShardedRaggedTailRecovery crashes a sharded engine "between the
// per-shard appends of one second": one shard's WAL runs a record ahead of
// the others. Recovery must cut the ragged tail back to the common sequence,
// report the repair, and leave every log appendable.
func TestShardedRaggedTailRecovery(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Seed = 33
	cfg.Shards = 4
	cfg.Durability = DurabilityConfig{Dir: dir, Fsync: wal.SyncAlways}

	sh, err := OpenSharded(plan, dep, cfg)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	world := sim.MustNew(sh.Graph(), rfid.NewSensor(dep), traceCfg120(), 77)
	var last model.Time
	for i := 0; i < 40; i++ {
		tm, raws := world.Step()
		if err := sh.Ingest(tm, raws); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		last = tm
	}
	sh.FlushIngest()
	want := recoveredOutcome(sh)
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate the partial append: shard 0 gets one more record than the
	// rest, at the next sequence, for a second the router never acked.
	sid, err := cfg.StreamID(plan, dep)
	if err != nil {
		t.Fatalf("StreamID: %v", err)
	}
	l, rep, err := wal.Open(filepath.Join(dir, "shard-0000"),
		wal.Options{StreamID: sid}, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatalf("open shard-0000 log: %v", err)
	}
	extra := wal.Batch{Time: last + 1, MaxSeen: last + 1}
	if err := l.Append(rep.LastSeq+1, extra.Encode(nil)); err != nil {
		t.Fatalf("append ragged record: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close shard-0000 log: %v", err)
	}

	re, err := OpenSharded(plan, dep, cfg)
	if err != nil {
		t.Fatalf("reopen after ragged tail: %v", err)
	}
	rec := re.Recovery()
	if !rec.Corrupt || rec.TruncatedBytes <= 0 {
		t.Errorf("ragged tail not reported: %+v", rec)
	}
	got := recoveredOutcome(re)
	// The un-acked extra second must be invisible: Stats counters reflect
	// recovered query counters, so compare the data surfaces only.
	if !reflect.DeepEqual(got.known, want.known) || !reflect.DeepEqual(got.objects, want.objects) {
		t.Errorf("state after ragged-tail repair diverges from pre-crash state")
	}
	// The repaired logs must accept the next seconds and close cleanly.
	for i := 0; i < 5; i++ {
		tm, raws := world.Step()
		if err := re.Ingest(tm, raws); err != nil {
			t.Fatalf("Ingest after repair: %v", err)
		}
	}
	re.FlushIngest()
	if err := re.WALError(); err != nil {
		t.Fatalf("WAL failed after repair: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close after repair: %v", err)
	}
}

// TestOccupancyDeterministicOrder pins the map-order audit: Occupancy is
// assembled from map-backed distributions, and its output order (descending
// probability, ties by room) must be identical run to run. Two engines built
// from the same seeds must emit the same slice, element for element.
func TestOccupancyDeterministicOrder(t *testing.T) {
	build := func() []RoomOdds {
		plan := floorplan.DefaultOffice()
		dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
		cfg := DefaultConfig()
		cfg.Seed = 5
		sys := MustNew(plan, dep, cfg)
		world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), traceCfg120(), 9)
		ingestTrace(t, sys, world, 50)
		return sys.Occupancy()
	}
	a, b := build(), build()
	if len(a) == 0 {
		t.Fatal("occupancy is empty")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("occupancy order is not deterministic:\n a=%+v\n b=%+v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i].P > a[i-1].P {
			t.Fatalf("occupancy not sorted by descending probability at %d: %+v", i, a)
		}
		if a[i].P == a[i-1].P && a[i].Room <= a[i-1].Room {
			t.Fatalf("occupancy tie not broken by room at %d: %+v", i, a)
		}
	}
}
