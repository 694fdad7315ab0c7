package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/shardmap"
	"repro/internal/sim"
	"repro/internal/sim/errfs"
)

// ShardFault schedules one disk fault against one shard's WAL directory.
// The fault makes writes under shard-NNNN/ fail from delivery index At
// until delivery index Until (exclusive); Until <= At keeps it active to the
// end of the stream (the harness clears every fault before the heal phase).
type ShardFault struct {
	Shard int
	At    int
	Until int
	// Transient marks the injected errors retryable and bounds them to
	// TransientTimes failures: the append retry loop should absorb them
	// without quarantining the shard.
	Transient bool
	// TransientTimes is how many calls a transient fault fails (default 2,
	// under the default retry budget of 3).
	TransientTimes int
}

// ShardFaultConfig parameterizes one per-shard disk-fault scenario.
type ShardFaultConfig struct {
	// Engine is the sharded system's configuration. Durability.Dir and
	// Shards must be set; the harness installs its own fault-injecting
	// filesystem over Durability.FS and forces an in-order stream
	// (Ingest.Horizon = 0) so fault timing is deterministic: after
	// Ingest(t) returns, second t is flushed and the degraded set is
	// exactly what the flush left behind.
	Engine  engine.Config
	Trace   sim.TraceConfig
	Seconds int
	Faults  []ShardFault
	Seed    int64
}

// ShardFaultReport summarizes a per-shard fault scenario.
type ShardFaultReport struct {
	Seconds     int
	Quarantines int
	// DroppedQuarantined counts readings the router turned into typed drops
	// because their shard was out; the oracle never sees them.
	DroppedQuarantined int
	// TransientAbsorbed counts injected transient faults that fired without
	// quarantining anything (the retry loop ate them).
	TransientAbsorbed int
	Healed            bool
	// Ledger is the conservation accounting, one line per check — written
	// out as a CI artifact when a scenario fails.
	Ledger     []string
	Mismatches []string
}

// RunShardFaults drives a simulated stream into a sharded durable engine
// while injecting the scheduled per-shard disk faults, heals every
// quarantined shard after clearing the faults, and verifies the survivor
// against an unfaulted oracle fed the effective stream (the same deliveries
// minus the readings the router reported as quarantine drops). Healthy
// shards must never lose acked data; healed shards must rejoin bit-for-bit.
//
// Unlike Run, this harness performs no kills: a crash concurrent with a
// quarantine loses the router-side drop accounting (by design — those
// readings reached no WAL), which would make the conservation ledger
// inexact. Crash-plus-marker recovery is covered by the engine's own tests.
func RunShardFaults(plan *floorplan.Plan, dep *rfid.Deployment, cfg ShardFaultConfig) (ShardFaultReport, error) {
	var rep ShardFaultReport
	if !cfg.Engine.Durability.Enabled() {
		return rep, fmt.Errorf("chaos: Engine.Durability.Dir must be set")
	}
	if cfg.Engine.Shards < 2 {
		return rep, fmt.Errorf("chaos: shard faults need Shards >= 2, got %d", cfg.Engine.Shards)
	}
	if cfg.Seconds <= 0 {
		return rep, fmt.Errorf("chaos: Seconds must be positive, got %d", cfg.Seconds)
	}
	rep.Seconds = cfg.Seconds
	n := cfg.Engine.Shards

	fsys := errfs.New(nil, cfg.Seed)
	cfg.Engine.Durability.FS = fsys
	cfg.Engine.Ingest.Horizon = 0
	// Keep the background healer quiet: heals happen only at the harness's
	// explicit HealNow calls, so the rejoin boundary is deterministic.
	cfg.Engine.Durability.HealBaseDelay = time.Hour
	cfg.Engine.Durability.HealMaxDelay = time.Hour

	sys, err := engine.OpenSharded(plan, dep, cfg.Engine)
	if err != nil {
		return rep, err
	}
	defer sys.Close()
	world, err := sim.New(sys.Graph(), rfid.NewSensor(dep), cfg.Trace, cfg.Seed)
	if err != nil {
		return rep, err
	}
	deliveries := make([]delivery, cfg.Seconds)
	for i := range deliveries {
		t, raws := world.Step()
		deliveries[i] = delivery{t, raws}
	}

	handles := make([]*errfs.Handle, len(cfg.Faults))
	transient := make(map[int]bool, len(cfg.Faults))
	for fi, f := range cfg.Faults {
		if f.Shard < 0 || f.Shard >= n {
			return rep, fmt.Errorf("chaos: fault %d targets shard %d of %d", fi, f.Shard, n)
		}
		transient[fi] = f.Transient
	}

	// effective is the oracle's stream: each second minus the readings the
	// survivor's router dropped for quarantined shards that second.
	effective := make([]delivery, 0, cfg.Seconds)
	droppedByIngest := 0
	wasDegraded := make(map[int]bool)
	for i, d := range deliveries {
		for fi, f := range cfg.Faults {
			if f.At == i {
				times := 0 // permanent: every matching write fails
				if f.Transient {
					times = f.TransientTimes
					if times <= 0 {
						times = 2
					}
				}
				handles[fi] = fsys.Fail(errfs.Rule{
					Ops:       errfs.OpWrite,
					Path:      fmt.Sprintf("shard-%04d", f.Shard),
					Times:     times,
					Transient: f.Transient,
				})
			}
			if f.Until > f.At && f.Until == i && handles[fi] != nil {
				fsys.Clear(handles[fi])
				if err := sys.HealNow(); err != nil {
					rep.Mismatches = append(rep.Mismatches,
						fmt.Sprintf("mid-stream heal after fault %d cleared: %v", fi, err))
				}
			}
		}
		ierr := sys.Ingest(d.t, d.raws)
		if ierr != nil {
			var ie *ingest.Error
			if !errors.As(ierr, &ie) || ie.Kind != ingest.KindQuarantined {
				return rep, fmt.Errorf("chaos: ingest t=%d: %w", d.t, ierr)
			}
			droppedByIngest += ie.Dropped
		}
		// The degraded set after the flush tells us exactly which readings
		// the router dropped: the parts owned by non-live shards.
		degraded := make(map[int]bool)
		for _, s := range sys.DegradedShards() {
			degraded[s] = true
			if !wasDegraded[s] {
				rep.Quarantines++
				wasDegraded[s] = true
			}
		}
		for s := range wasDegraded {
			if !degraded[s] {
				delete(wasDegraded, s) // healed mid-stream; count a re-quarantine if it recurs
			}
		}
		if len(degraded) == 0 {
			effective = append(effective, d)
			continue
		}
		kept := make([]model.RawReading, 0, len(d.raws))
		for _, r := range d.raws {
			if degraded[shardmap.Of(r.Object, n)] {
				rep.DroppedQuarantined++
				continue
			}
			kept = append(kept, r)
		}
		effective = append(effective, delivery{d.t, kept})
	}

	// Heal phase: clear every remaining fault, then heal. HealNow is
	// synchronous and the background healer is parked (HealBaseDelay above),
	// so one call settles every quarantined shard once the disk is healthy.
	fsys.Clear()
	if err := sys.HealNow(); err != nil {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("heal: %v", err))
	}
	rep.Healed = len(sys.DegradedShards()) == 0
	if !rep.Healed {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("shards still degraded after heal phase: %v", sys.DegradedShards()))
	}
	sys.FlushIngest()
	for fi, h := range handles {
		if h != nil && transient[fi] && h.Fired() > 0 && rep.Quarantines == 0 {
			rep.TransientAbsorbed += h.Fired()
		}
	}

	// Oracle: an unfaulted, memory-only sharded engine fed the effective
	// stream. The survivor must be indistinguishable from it everywhere the
	// quarantine contract promises: clock, query answers, occupancy.
	oracleCfg := cfg.Engine
	oracleCfg.Durability = engine.DurabilityConfig{}
	oracle, err := engine.NewSharded(plan, dep, oracleCfg)
	if err != nil {
		return rep, err
	}
	for _, d := range effective {
		if err := oracle.Ingest(d.t, d.raws); err != nil {
			return rep, fmt.Errorf("chaos: oracle ingest t=%d: %w", d.t, err)
		}
	}
	oracle.FlushIngest()
	rep.Mismatches = append(rep.Mismatches, compareSharded(sys, oracle, plan)...)

	// Conservation ledger: every produced reading is either in the oracle's
	// effective stream or accounted as a quarantine drop, and the router's
	// typed-drop errors agree with the harness's own filter count.
	produced := 0
	for _, d := range deliveries {
		produced += len(d.raws)
	}
	fed := 0
	for _, d := range effective {
		fed += len(d.raws)
	}
	st := sys.Stats()
	rep.Ledger = append(rep.Ledger,
		fmt.Sprintf("produced=%d", produced),
		fmt.Sprintf("effective=%d", fed),
		fmt.Sprintf("droppedQuarantined(harness)=%d", rep.DroppedQuarantined),
		fmt.Sprintf("droppedQuarantined(ingest errors)=%d", droppedByIngest),
		fmt.Sprintf("droppedQuarantined(stats)=%d", st.Ingest.QuarantinedReadings),
		fmt.Sprintf("ingested=%d dropped=%d pending=%d", st.ReadingsIngested, st.ReadingsDropped, st.ReadingsPending),
	)
	if fed+rep.DroppedQuarantined != produced {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"conservation: effective(%d) + quarantine drops(%d) != produced(%d)", fed, rep.DroppedQuarantined, produced))
	}
	if droppedByIngest != rep.DroppedQuarantined {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"typed drops disagree: ingest errors reported %d, harness filtered %d", droppedByIngest, rep.DroppedQuarantined))
	}
	if st.Ingest.QuarantinedReadings != rep.DroppedQuarantined {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"stats drops disagree: engine counted %d quarantined readings, harness filtered %d",
			st.Ingest.QuarantinedReadings, rep.DroppedQuarantined))
	}
	return rep, nil
}

// observable is the surface the oracle diff reads; the router and the
// in-memory kernel both provide it.
type observable interface {
	Now() model.Time
	Stats() engine.Stats
	KnownObjects() []model.ObjectID
	RangeQuery(window geom.Rect) model.ResultSet
	KNNQuery(q geom.Point, k int) model.ResultSet
	Occupancy() []engine.RoomOdds
}

// compareSharded checks the survivor against the oracle: clock, accounting,
// known objects, live query answers, and occupancy.
// Drop counters are excluded (a quarantine oracle never saw the dropped
// readings; Run compares the whole of Stats itself); ReadingsIngested must
// still agree — healthy shards lose nothing, healed shards resume.
func compareSharded(sys *engine.Sharded, oracle observable, plan *floorplan.Plan) []string {
	var ms []string
	if got, want := sys.Now(), oracle.Now(); got != want {
		ms = append(ms, fmt.Sprintf("clock: survivor now=%d oracle now=%d", got, want))
	}
	if got, want := sys.Stats().ReadingsIngested, oracle.Stats().ReadingsIngested; got != want {
		ms = append(ms, fmt.Sprintf("ingested: survivor %d oracle %d", got, want))
	}
	if got, want := sys.KnownObjects(), oracle.KnownObjects(); !reflect.DeepEqual(got, want) {
		ms = append(ms, fmt.Sprintf("known objects diverged: survivor %v oracle %v", got, want))
	}
	// Query the whole floor: one range window over the plan bounds and a kNN
	// probe at its center. Order matters — run the same queries in the same
	// order on both so cache and counter effects stay symmetric.
	b := plan.Bounds()
	center := geom.Point{X: (b.Min.X + b.Max.X) / 2, Y: (b.Min.Y + b.Max.Y) / 2}
	if got, want := sys.RangeQuery(b), oracle.RangeQuery(b); !reflect.DeepEqual(got, want) {
		ms = append(ms, fmt.Sprintf("range query diverged: survivor %v oracle %v", got, want))
	}
	if got, want := sys.KNNQuery(center, 3), oracle.KNNQuery(center, 3); !reflect.DeepEqual(got, want) {
		ms = append(ms, fmt.Sprintf("knn query diverged: survivor %v oracle %v", got, want))
	}
	if got, want := sys.Occupancy(), oracle.Occupancy(); !reflect.DeepEqual(got, want) {
		ms = append(ms, "occupancy diverged")
	}
	return ms
}
