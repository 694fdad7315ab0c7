package engine

import (
	"context"
	"math"
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/particle"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// sameDist reports whether two distributions are equal bit for bit.
func sameDist(a, b anchor.Dist) bool {
	if len(a.IDs) != len(b.IDs) || len(a.P) != len(b.P) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || math.Float64bits(a.P[i]) != math.Float64bits(b.P[i]) {
			return false
		}
	}
	return true
}

// TestMemoizedDistMatchesFreshSnap runs the query_hot shape — one ingest
// second, then three rounds of a 6×4 m range query and a k=3 kNN query — on
// the kernel and on a four-shard router. After every query, every cached
// state must carry a memoized distribution equal, bit for bit, to a fresh
// snap of its particles on its kernel's index; and a snap to a second index
// must compute its own distribution, never hand back the first index's memo.
func TestMemoizedDistMatchesFreshSnap(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	for _, shards := range []int{0, 4} {
		cfg := DefaultConfig()
		cfg.Seed = 29
		// stores are where the caches live, with the index they snap to.
		var stores []*store
		var sys interface {
			Querier
			Ingest(tm model.Time, raws []model.RawReading) error
			FlushIngest()
		}
		if shards == 0 {
			s := MustNew(plan, dep, cfg)
			stores, sys = s.shards, s
		} else {
			cfg.Shards = shards
			e := MustNewSharded(plan, dep, cfg)
			stores, sys = e.shards, e
		}
		world := sim.MustNew(stores[0].Graph(), rfid.NewSensor(dep), traceCfg120(), 31)
		ingestTrace(t, sys, world, 40)
		check := func(what string) {
			t.Helper()
			var acc anchor.Accumulator
			cached := 0
			for _, k := range stores {
				for _, st := range k.cache.States() {
					memo, ok := st.MemoDist(k.idx)
					if !ok {
						t.Fatalf("shards=%d %s: cached object %d has no memoized distribution", shards, what, st.Object)
					}
					fresh := particle.FromParticles(0, st.Particles()).AnchorDist(k.idx, &acc)
					if !sameDist(memo, fresh) {
						t.Fatalf("shards=%d %s: object %d's memo %v differs from a fresh snap %v", shards, what, st.Object, memo, fresh)
					}
					cached++
				}
			}
			if cached == 0 {
				t.Fatalf("shards=%d %s: vacuous, nothing cached", shards, what)
			}
		}
		for round := 0; round < 3; round++ {
			ingestTrace(t, sys, world, 1)
			for i := 0; i < 3; i++ {
				x := 8 + 40*float64(i)
				sys.Query(context.Background(), RangeQuery(geom.RectWH(x, 9, 6, 4)))
				check("after a range query")
				sys.Query(context.Background(), KNNQuery(geom.Pt(x+3, 12), 3))
				check("after a kNN query")
			}
		}

		// A second index over the same graph, equal but not the same: its
		// snap must be computed, not the memo the engine's index left.
		k := stores[0]
		other := anchor.MustBuildIndex(k.Graph(), cfg.AnchorSpacing)
		var acc anchor.Accumulator
		probed := 0
		for _, live := range k.cache.States() {
			st := live.Clone() // carries the memo; snapping it leaves the cache alone
			memo, _ := st.MemoDist(k.idx)
			got := st.AnchorDist(other, &acc)
			if got.Len() > 0 && &got.IDs[0] == &memo.IDs[0] {
				t.Fatalf("shards=%d: a snap to a second index returned the first index's memo", shards)
			}
			if want := particle.FromParticles(0, st.Particles()).AnchorDist(other, &acc); !sameDist(got, want) {
				t.Fatalf("shards=%d: snap to a second index = %v, fresh %v", shards, got, want)
			}
			if _, ok := st.MemoDist(k.idx); ok {
				t.Fatalf("shards=%d: the first index's memo survived a snap to another", shards)
			}
			probed++
		}
		if probed == 0 {
			t.Fatalf("shards=%d: vacuous, shard 0 cached nothing", shards)
		}
	}
}
