package cluster_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/anchor"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/shardmap"
	"repro/internal/sim"
	"repro/internal/sim/errfs"
	"repro/internal/sim/netsim"
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
	t.Run("cluster over HTTP", func(t *testing.T) {
		n0, n1 := twoNodesHTTP(t, cfg)
		feed(t, n0, kernel)
		check(t, ask(t, n0))
		check(t, ask(t, n1))
	})

	t.Run("cluster diverged", func(t *testing.T) { divergedClusterEquivalence(t, cfg, tc) })

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

// twoRounds answers q the way every query ran before partitions pruned their
// own objects, on bare kernels: gather both kernels' summaries, prune once
// under the coordinating kernel's clock and reader health, preprocess the
// survivors where they live, evaluate on the coordinator. coord holds the
// objects of bucket coordIdx. It is the oracle for the one-round path.
func twoRounds(t *testing.T, coord, other *engine.System, coordIdx int, q engine.Query) engine.Answer {
	t.Helper()
	ctx := context.Background()
	if q.Kind == engine.KindOccupancy {
		// Every object is a candidate whoever prunes: the in-process router
		// over the two kernels is oracle enough.
		parts := make([]engine.Partition, 2)
		parts[coordIdx], parts[1-coordIdx] = coord, other
		ans, err := engine.Run(ctx, coord, engine.Router{Parts: parts, Owner: func(o model.ObjectID) int { return shardmap.Of(o, 2) }}, q)
		if err != nil {
			t.Fatalf("oracle %v: %v", q, err)
		}
		return ans
	}
	now := q.At
	if !q.Historical {
		now = coord.Now()
	}
	mine, _ := coord.Infos(ctx, q)
	theirs, _ := other.Infos(ctx, q)
	infos := append(mine, theirs...)
	sort.Slice(infos, func(i, j int) bool { return infos[i].Object < infos[j].Object })
	cands, err := coord.Prune(ctx, infos, q, now)
	if err != nil {
		t.Fatalf("oracle prune %v: %v", q, err)
	}
	var own, remote []model.ObjectID
	for _, o := range cands {
		if shardmap.Of(o, 2) == coordIdx {
			own = append(own, o)
		} else {
			remote = append(remote, o)
		}
	}
	dists, _ := coord.Dists(ctx, own, q)
	rdists, _ := other.Dists(ctx, remote, q)
	dists = append(dists, rdists...)
	sort.Slice(dists, func(i, j int) bool { return dists[i].Object < dists[j].Object })
	var ans engine.Answer
	if q.Kind == engine.KindRange {
		ans.Result, err = coord.Evaluator().RangeContext(ctx, anchor.TableOf(dists), q.Window)
	} else {
		ans.Result, err = coord.Evaluator().KNNContext(ctx, anchor.TableOf(dists), q.Point, q.K)
	}
	if err != nil {
		t.Fatalf("oracle evaluate %v: %v", q, err)
	}
	return ans
}

// divergedClusterEquivalence pins the one-round query path where it could
// part from the two-round one: a member prunes its own objects, so it must do
// it under the COORDINATOR's clock and reader health, not its own. Here they
// differ — reader-health monitoring is on and node-0 alone distrusts a reader
// (its own objects stopped being read there; node-1's are still read), and
// node-1 missed the last second's forward, so its clock is a second behind —
// and the query window sits in the ring around that reader which only the
// widened, later uncertain regions reach. Asked through either node, every
// kind, snapshot and historical, must equal the two-round oracle on twin
// kernels fed exactly what the nodes' engines were fed.
func divergedClusterEquivalence(t *testing.T, cfg engine.Config, tc sim.TraceConfig) {
	const (
		seconds, mid = 80, 40
		reader       = model.ReaderID(3) // in the hallway at (30.7, 12)
		dark         = 60                // node-0's objects are not read there from this second on
	)
	cfg.Health = health.DefaultConfig()
	cfg.Health.ExpectHorizon, cfg.Health.SuspectMissed, cfg.Health.DeadMissed, cfg.Health.MissedDecay = 4, 4.5, 9, 1
	cfg.Ingest.Horizon = 0
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	ctx := context.Background()

	net := netsim.New(cfg.Seed)
	addrs := [2]string{"node-0", "node-1"}
	nodes, engs := buildNodes(t, cfg, addrs, net.Transport, nil)
	net.AddNode(addrs[0], nodes[0])
	net.AddNode(addrs[1], nodes[1])
	twins := [2]*engine.System{engine.MustNew(plan, dep, cfg), engine.MustNew(plan, dep, cfg)}

	world := sim.MustNew(twins[0].Graph(), rfid.NewSensor(dep), tc, 77)
	for i := 0; i < seconds; i++ {
		tm, all := world.Step()
		var parts [2][]model.RawReading
		for _, r := range all {
			owner := shardmap.Of(r.Object, 2)
			if owner == 0 && r.Reader == reader && i >= dark {
				continue
			}
			parts[owner] = append(parts[owner], r)
		}
		last := i == seconds-1
		if last {
			net.Partition(addrs[0], addrs[1])
		}
		// The last delivery reports node-1's share as typed unreachable drops.
		if err := nodes[0].Ingest(tm, append(parts[0], parts[1]...)); err != nil && !last {
			t.Fatalf("Ingest t=%d: %v", tm, err)
		}
		twins[0].Ingest(tm, parts[0])
		if !last {
			twins[1].Ingest(tm, parts[1])
		}
	}

	net.Clear()

	window := geom.RectWH(33.2, 10, 3, 4) // 2.5 m from the reader: outside its range, inside the widened region
	kinds := []engine.Query{engine.RangeQuery(window), engine.KNNQuery(geom.Pt(33, 12), 5), engine.OccupancyQuery()}
	qs := append([]engine.Query(nil), kinds...)
	for _, q := range kinds {
		qs = append(qs, q.AsOf(mid))
	}

	// The scenario is what it claims to be.
	if got, want := nodes[1].Now(), nodes[0].Now()-1; got != want {
		t.Fatalf("node-1's clock is %d, want %d (one second behind node-0's)", got, want)
	}
	if un := engs[0].Unhealthy(); int(reader) >= len(un) || !un[reader] {
		t.Fatalf("node-0 trusts reader %d (unhealthy set %v)", reader, un)
	}
	if un := engs[1].Unhealthy(); un != nil {
		t.Fatalf("node-1 distrusts readers %v, want none", un)
	}
	theirs, _ := twins[1].Infos(ctx, kinds[0])
	underTheirOwn, _ := twins[1].PruneRangeContext(ctx, theirs, []geom.Rect{window}, twins[1].Now())
	underCoordinator, _ := twins[0].PruneRangeContext(ctx, theirs, []geom.Rect{window}, twins[0].Now())
	if len(underCoordinator) <= len(underTheirOwn) {
		t.Fatalf("node-1's objects pruned under node-0's scope give %v, under its own %v: the window does not tell them apart",
			underCoordinator, underTheirOwn)
	}

	for coord := range nodes {
		for _, q := range qs {
			want := twoRounds(t, twins[coord], twins[1-coord], coord, q)
			got, err := nodes[coord].Query(ctx, q)
			if err != nil {
				t.Fatalf("%v through %s: %v", q, addrs[coord], err)
			}
			if len(want.Result) == 0 && len(want.Rooms) == 0 {
				t.Fatalf("oracle answer to %v is empty; the comparison would be vacuous", q)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v through %s diverges from the two-round oracle:\n got %v\nwant %v", q, addrs[coord], got, want)
			}
		}
	}
	// The engines ran the filter exactly as often as their twins: the same
	// candidates were preprocessed, not merely the same answer reached.
	for i := range engs {
		got, want := engs[i].Stats(), twins[i].Stats()
		if got.FiltersRun != want.FiltersRun || got.FiltersResumed != want.FiltersResumed {
			t.Errorf("%s ran %d+%d filters, its twin %d+%d", addrs[i], got.FiltersRun, got.FiltersResumed, want.FiltersRun, want.FiltersResumed)
		}
	}
}
