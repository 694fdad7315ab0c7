package cluster_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/sim/errfs"
	"repro/internal/wal"
)

// querier is every engine shape behind the one Query method: the kernel, the
// router, a cluster node.
type querier interface {
	Ingest(t model.Time, raws []model.RawReading) error
	Query(ctx context.Context, q engine.Query) (engine.Answer, error)
}

// equivalenceQueries is every query kind, snapshot and as of the past second
// at. Order is part of the fixture: snapshot queries advance cached filter
// states, so every engine must be asked the same sequence.
func equivalenceQueries(at model.Time) []engine.Query {
	kinds := []engine.Query{
		engine.RangeQuery(geom.RectWH(5, 9, 25, 14)),
		engine.KNNQuery(geom.Pt(20, 12), 10),
		engine.OccupancyQuery(),
	}
	qs := append([]engine.Query(nil), kinds...)
	for _, q := range kinds {
		qs = append(qs, q.AsOf(at))
	}
	return qs
}

func equivalenceConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Seed = 33
	cfg.KeepHistory = true
	cfg.Particle.Ns = 32
	cfg.SlowQueryThreshold = 0
	cfg.Health.Enabled = false // a per-node monitor sees only its partition
	return cfg
}

// TestQueryEquivalence is the one table behind "placement is unobservable":
// every query kind, snapshot and historical, answers bit for bit like the
// in-memory kernel on the router at 1, 4 and 16 shards and on a two-node
// cluster asked through either node; a historical question re-asked gives
// the same bits; and a partition that cannot be asked — a quarantined shard,
// a dead peer — is the same typed partial marker for every kind.
func TestQueryEquivalence(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := equivalenceConfig()
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 60
	tc.DwellMin, tc.DwellMax = 2, 8
	const seconds, mid = 80, 40
	ctx := context.Background()

	feed := func(t *testing.T, sys querier, g *engine.System) {
		t.Helper()
		world := sim.MustNew(g.Graph(), rfid.NewSensor(dep), tc, 77)
		for i := 0; i < seconds; i++ {
			tm, raws := world.Step()
			if err := sys.Ingest(tm, raws); err != nil {
				t.Fatalf("Ingest t=%d: %v", tm, err)
			}
		}
	}
	ask := func(t *testing.T, sys querier) []engine.Answer {
		t.Helper()
		var out []engine.Answer
		for _, q := range equivalenceQueries(mid) {
			ans, err := sys.Query(ctx, q)
			if err != nil {
				t.Fatalf("%v: %v", q, err)
			}
			out = append(out, ans)
			if q.Historical {
				if again, _ := sys.Query(ctx, q); !reflect.DeepEqual(again, ans) {
					t.Errorf("%v re-asked gives a different answer", q)
				}
			}
		}
		return out
	}

	kernel := engine.MustNew(plan, dep, cfg)
	feed(t, kernel, kernel)
	want := ask(t, kernel)
	for i, q := range equivalenceQueries(mid) {
		if len(want[i].Result) == 0 && len(want[i].Rooms) == 0 {
			t.Fatalf("baseline answer to %v is empty; the table would be vacuous", q)
		}
	}
	check := func(t *testing.T, got []engine.Answer) {
		t.Helper()
		for i, q := range equivalenceQueries(mid) {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%v diverges from the kernel:\n got %v\nwant %v", q, got[i], want[i])
			}
		}
	}

	for _, n := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("Sharded(%d)", n), func(t *testing.T) {
			scfg := cfg
			scfg.Shards = n
			sh := engine.MustNewSharded(plan, dep, scfg)
			feed(t, sh, kernel)
			check(t, ask(t, sh))
		})
	}
	t.Run("cluster", func(t *testing.T) {
		_, n0, n1, _, _ := twoNodesOver(t, cfg, nil)
		feed(t, n0, kernel)
		check(t, ask(t, n0))
		check(t, ask(t, n1))
	})

	// Whatever cannot be asked is named the same way whatever was asked.
	samePartial := func(t *testing.T, sys querier, want error) {
		t.Helper()
		for _, q := range equivalenceQueries(mid / 2) {
			if _, err := sys.Query(ctx, q); !reflect.DeepEqual(err, want) {
				t.Errorf("%v: partial marker %v, want %v", q, err, want)
			}
		}
	}
	t.Run("quarantined shard", func(t *testing.T) {
		fsys := errfs.New(nil, 23)
		scfg := cfg
		scfg.Shards = 4
		scfg.Durability = engine.DurabilityConfig{
			Dir: t.TempDir(), Fsync: wal.SyncAlways, FS: fsys,
			HealBaseDelay: time.Hour, HealMaxDelay: time.Hour,
		}
		sh, err := engine.OpenSharded(plan, dep, scfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		world := sim.MustNew(sh.Graph(), rfid.NewSensor(dep), tc, 77)
		for i := 0; i < mid; i++ {
			if i == mid/2 {
				fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "shard-0002"})
			}
			tm, raws := world.Step()
			sh.Ingest(tm, raws) // typed quarantined drops once the shard is out
		}
		samePartial(t, sh, &engine.QuarantineError{Shards: []int{2}})

		// A historical query honours its deadline like a snapshot one.
		expired, cancel := context.WithCancel(ctx)
		cancel()
		for _, q := range equivalenceQueries(mid / 2) {
			_, err := sh.Query(expired, q)
			if _, ok := engine.IsDeadline(err); !ok {
				t.Errorf("%v under an expired context: %v, want a deadline partial", q, err)
			}
			if _, ok := engine.IsQuarantine(err); !ok {
				t.Errorf("%v under an expired context lost the quarantine marker: %v", q, err)
			}
		}
	})
	t.Run("dead peer", func(t *testing.T) {
		net, n0, _, _, _ := twoNodesOver(t, cfg, nil)
		feed(t, n0, kernel)
		net.Kill("node-1")
		samePartial(t, n0, &cluster.DegradedError{Peers: []string{"node-1"}})
	})
}
