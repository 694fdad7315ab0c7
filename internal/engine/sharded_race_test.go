package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/sim/errfs"
	"repro/internal/wal"
	"repro/internal/walkgraph"
)

// stressEngine is the surface TestShardedConcurrentStress hammers: every
// engine's, the one-shard System's as much as a router's.
type stressEngine interface {
	Graph() *walkgraph.Graph
	Ingest(t model.Time, raws []model.RawReading) error
	FlushIngest()
	RangeQuery(window geom.Rect) model.ResultSet
	KNNQuery(p geom.Point, k int) model.ResultSet
	Occupancy() []RoomOdds
	Stats() Stats
	CacheStats() (hits, misses int)
	SyncMetrics()
	ReaderHealth() []health.ReaderHealth
	KnownObjects() []model.ObjectID
}

// TestShardedConcurrentStress hammers an engine from several goroutines at
// once — one ingester, live range and kNN queriers, and a stats/metrics
// scraper — for New's System and for routers of 1, 4, and 16 shards. It is
// primarily a -race target (the router's lock discipline must keep every
// surface safe, the System's included), and it re-checks two invariants the
// concurrency must not break: the final quiesced answers are identical on
// every engine, and no goroutines leak once the engine falls idle.
// stressCachedQueries then repeats the exercise with the cache on, where the
// query path shares the most state.
func TestShardedConcurrentStress(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	before := runtime.NumGoroutine()
	// name labels an input: 0 is New's System, n > 0 a router of n shards.
	name := func(n int) string {
		if n == 0 {
			return "System"
		}
		return fmt.Sprintf("shards=%d", n)
	}

	const steps = 60
	type quiesced struct {
		rng   model.ResultSet
		knn   model.ResultSet
		known []model.ObjectID
	}
	outcomes := make(map[int]quiesced)
	for _, n := range []int{0, 1, 4, 16} {
		cfg := DefaultConfig()
		cfg.Seed = 33
		cfg.Shards = n
		// With the cache on, answers depend on when past queries ran (a
		// resumed filter continues from the cached state of the previous
		// query's time). The racing queriers make that history
		// nondeterministic, so pin the stronger cache-off invariant:
		// quiesced answers are a pure function of the ingested stream.
		cfg.UseCache = false
		var sh stressEngine
		if n == 0 {
			sh = MustNew(plan, dep, cfg)
		} else {
			sh = MustNewSharded(plan, dep, cfg)
		}
		tc := sim.DefaultTraceConfig()
		tc.NumObjects = 40
		tc.DwellMin, tc.DwellMax = 2, 8
		world := sim.MustNew(sh.Graph(), rfid.NewSensor(dep), tc, 77)

		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(4)
		// The single ingester owns the simulator; everyone else hammers the
		// query and observability surfaces until it finishes.
		go func() {
			defer wg.Done()
			defer close(done)
			for i := 0; i < steps; i++ {
				tm, raws := world.Step()
				if err := sh.Ingest(tm, raws); err != nil {
					t.Errorf("%s: Ingest: %v", name(n), err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					sh.RangeQuery(geom.RectWH(5, 9, 25, 14))
					sh.Occupancy()
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					sh.KNNQuery(geom.Pt(20, 12), 10)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					sh.Stats()
					sh.CacheStats()
					sh.SyncMetrics()
					sh.ReaderHealth()
					sh.KnownObjects()
				}
			}
		}()
		wg.Wait()
		sh.FlushIngest()

		// Quiesced state depends only on the ingested stream, which is the
		// same at every shard count; concurrent queries must not perturb it.
		outcomes[n] = quiesced{
			rng:   sh.RangeQuery(geom.RectWH(5, 9, 25, 14)),
			knn:   sh.KNNQuery(geom.Pt(20, 12), 10),
			known: sh.KnownObjects(),
		}
	}

	base := outcomes[1]
	if len(base.known) == 0 || len(base.rng) == 0 {
		t.Fatalf("stress baseline is vacuous: %d objects, %d range rows", len(base.known), len(base.rng))
	}
	for _, n := range []int{0, 4, 16} {
		if !reflect.DeepEqual(outcomes[n], base) {
			t.Errorf("%s: quiesced answers diverge from shards=1", name(n))
		}
	}

	stressCachedQueries(t, plan, dep, steps)

	// Worker pools and query goroutines must all have exited; give the
	// runtime a moment to reap them.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before stress, %d after", before, runtime.NumGoroutine())
}

// stressCachedQueries is the cache-on half of the stress: eight goroutines
// issue kNN and range queries against one four-shard engine while ingest
// runs. This is where the query path shares state — one Pruner (per-call
// scratch only), cached particle states advanced in place under the shard
// locks, recycled per-shard work lists — so it is the -race target for all
// of it. Answers depend on query history with the cache on, so the checks are
// the history-free ones: every probability is a probability, and a quiesced
// engine answers the same question the same way twice.
func stressCachedQueries(t *testing.T, plan *floorplan.Plan, dep *rfid.Deployment, steps int) {
	cfg := DefaultConfig()
	cfg.Seed = 33
	cfg.Shards = 4
	sh := MustNewSharded(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 60
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sh.Graph(), rfid.NewSensor(dep), tc, 78)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < steps; i++ {
			tm, raws := world.Step()
			if err := sh.Ingest(tm, raws); err != nil {
				t.Errorf("cache-on stress: Ingest: %v", err)
				return
			}
		}
	}()
	check := func(kind string, rs model.ResultSet) {
		for o, p := range rs {
			if p < 0 || p > 1+1e-9 || p != p {
				t.Errorf("cache-on stress: %s o%d probability %v", kind, o, p)
				return
			}
		}
	}
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				x := float64(5 + (7*q+3*i)%55)
				check("kNN", sh.KNNQuery(geom.Pt(x, 12), 1+q))
				check("range", sh.RangeQuery(geom.RectWH(x-4, 6, 12+float64(q), 10)))
			}
		}(q)
	}
	wg.Wait()
	sh.FlushIngest()

	rng1, knn1 := sh.RangeQuery(geom.RectWH(5, 9, 25, 14)), sh.KNNQuery(geom.Pt(20, 12), 10)
	rng2, knn2 := sh.RangeQuery(geom.RectWH(5, 9, 25, 14)), sh.KNNQuery(geom.Pt(20, 12), 10)
	if len(rng1) == 0 || !reflect.DeepEqual(rng1, rng2) || !reflect.DeepEqual(knn1, knn2) {
		t.Errorf("cache-on stress: quiesced engine answers differ between identical calls (%d range rows)", len(rng1))
	}
	for _, od := range sh.Preprocess(sh.KnownObjects()).Dists() {
		if total := od.Dist.Total(); math.Abs(total-1) > 1e-9 {
			t.Errorf("cache-on stress: o%d distribution sums to %v", od.Object, total)
		}
	}
}

// TestShardedQuarantineHealStress is the -race target for the fault-isolation
// machinery: a durable 4-shard engine under concurrent ingest and query load
// has one shard's disk fail mid-stream (quarantine) and recover (heal) while
// queriers hammer the partial-answer surfaces and the background healer races
// HealNow. The engine must never report an engine-wide WAL error, every
// ingest refusal must be a typed quarantine drop, the shard must be live
// again at the end, and no goroutines — healer included — may leak.
func TestShardedQuarantineHealStress(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	before := runtime.NumGoroutine()

	fsys := errfs.New(nil, 29)
	cfg := DefaultConfig()
	cfg.Seed = 33
	cfg.Shards = 4
	cfg.UseCache = false
	cfg.SlowQueryThreshold = 0
	cfg.Durability = DurabilityConfig{
		Dir:   t.TempDir(),
		Fsync: wal.SyncAlways,
		FS:    fsys,
		Retry: RetryConfig{Max: 2, BaseDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond},
		// An aggressive background healer on purpose: it must race the
		// explicit HealNow calls below without tripping -race or double-heals.
		HealBaseDelay: time.Millisecond,
		HealMaxDelay:  4 * time.Millisecond,
	}
	sh, err := OpenSharded(plan, dep, cfg)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 40
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sh.Graph(), rfid.NewSensor(dep), tc, 77)

	const steps = 80
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < steps; i++ {
			switch i {
			case 30:
				fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "shard-0001"})
			case 55:
				fsys.Clear()
			}
			tm, raws := world.Step()
			if err := sh.Ingest(tm, raws); err != nil {
				var ie *ingest.Error
				if !errors.As(err, &ie) || ie.Kind != ingest.KindQuarantined {
					t.Errorf("Ingest: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for {
			select {
			case <-done:
				return
			default:
				if _, err := sh.RangeQueryContext(ctx, geom.RectWH(5, 9, 25, 14)); err != nil {
					if _, ok := IsQuarantine(err); !ok {
						t.Errorf("range query: %v", err)
						return
					}
				}
				sh.OccupancyContext(ctx)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				sh.KNNQuery(geom.Pt(20, 12), 10)
				sh.DegradedShards()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				sh.HealNow()
				sh.Stats()
				sh.SyncMetrics()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	sh.FlushIngest()

	if err := sh.WALError(); err != nil {
		t.Fatalf("engine-wide WAL error under a single-shard fault: %v", err)
	}
	// The fault is long gone; any shard still down must heal on demand.
	fsys.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for len(sh.DegradedShards()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("shards %v never healed", sh.DegradedShards())
		}
		if err := sh.HealNow(); err != nil {
			t.Logf("HealNow: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sh.tel.shardQuarantines.Value() == 0 {
		t.Error("fault never quarantined the shard; stress proved nothing")
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before stress, %d after", before, runtime.NumGoroutine())
}
