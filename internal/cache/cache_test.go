package cache

import (
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/particle"
	"repro/internal/walkgraph"
)

func state(obj model.ObjectID, t model.Time) *particle.State {
	st := particle.FromParticles(obj, []particle.Particle{
		{Loc: walkgraph.Location{Edge: 1, Offset: 2}, Speed: 1, Weight: 1},
	})
	st.Time = t
	return st
}

func TestPutGetRoundTrip(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	got, ok := c.Get(1, 5, 110)
	if !ok {
		t.Fatal("expected hit")
	}
	if got.Object != 1 || got.Time != 100 {
		t.Errorf("state = %+v", got)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 0 {
		t.Errorf("stats = %d, %d", hits, misses)
	}
}

func TestGetMissUnknownObject(t *testing.T) {
	c := New(60)
	if _, ok := c.Get(9, 5, 100); ok {
		t.Fatal("hit on empty cache")
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Error("miss not counted")
	}
}

func TestGetMissOnDeviceChange(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	if _, ok := c.Get(1, 6, 110); ok {
		t.Fatal("hit despite device change")
	}
	// The stale entry must be dropped entirely.
	if c.Len() != 0 {
		t.Error("stale entry kept")
	}
}

func TestGetMissOnExpiry(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	if _, ok := c.Get(1, 5, 161); ok {
		t.Fatal("hit on expired entry")
	}
	if c.Len() != 0 {
		t.Error("expired entry kept")
	}
	// Exactly at the lifetime is still valid.
	c.Put(state(2, 100), 5)
	if _, ok := c.Get(2, 5, 160); !ok {
		t.Error("entry at exact lifetime should hit")
	}
}

// TestOwnershipPassing pins the hand-over contract: Get returns the stored
// state itself, an in-place advance is what the next Get sees, re-Putting the
// same pointer keeps one entry, and neither call copies particles.
func TestOwnershipPassing(t *testing.T) {
	c := New(60)
	st := state(1, 100)
	c.Put(st, 5)
	got, ok := c.Get(1, 5, 100)
	if !ok || got != st {
		t.Fatalf("Get = %p, %v; want the Put pointer %p", got, ok, st)
	}
	got.LastReadingTime = 99
	got.Time = 101
	c.Put(got, 5)
	again, _ := c.Get(1, 5, 101)
	if again != st || again.LastReadingTime != 99 || again.Time != 101 || c.Len() != 1 {
		t.Errorf("in-place advance lost: %+v (len %d)", again, c.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s, _ := c.Get(1, 5, 101)
		c.Put(s, 5)
	}); allocs != 0 {
		t.Errorf("Get+Put allocates %v times, want 0", allocs)
	}
}

// TestDumpIsolatedFromLiveStates: a snapshot must not alias states the
// engine keeps advancing in place after the dump, and a restore must not
// alias the snapshot it read.
func TestDumpIsolatedFromLiveStates(t *testing.T) {
	c := New(60)
	st := state(1, 100)
	c.Put(st, 5)
	dump := c.Dump()
	dump[0].State.Particles[0].Speed = 42
	st.Time = 200
	if st.Particles()[0].Speed != 1 || dump[0].State.Time != 100 {
		t.Error("Dump aliases the live state")
	}
	dump[0].State.Particles[0].Speed = 1
	c.RestoreEntries(dump)
	dump[0].State.Particles[0].Speed = 7
	if got, _ := c.Get(1, 5, 100); got.Particles()[0].Speed != 1 {
		t.Error("RestoreEntries aliases the dump")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	c.Invalidate(1, 5) // same device: keep
	if c.Len() != 1 {
		t.Error("same-device invalidate dropped entry")
	}
	c.Invalidate(1, 6) // new device: drop
	if c.Len() != 0 {
		t.Error("new-device invalidate kept entry")
	}
	c.Invalidate(42, 1) // unknown object: no-op
}

func TestEvictExpired(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	c.Put(state(2, 150), 5)
	c.EvictExpired(190)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, ok := c.Get(2, 5, 190); !ok {
		t.Error("young entry evicted")
	}
}

func TestDefaultLifetime(t *testing.T) {
	c := New(0)
	c.Put(state(1, 100), 5)
	if _, ok := c.Get(1, 5, 100+DefaultLifetime); !ok {
		t.Error("default lifetime not applied")
	}
	if _, ok := c.Get(1, 5, 100+DefaultLifetime+1); ok {
		t.Error("entry outlived default lifetime")
	}
}

// TestInstrumentCounters drives every eviction path and checks the attached
// telemetry counters track the cache's own accounting.
func TestInstrumentCounters(t *testing.T) {
	reg := obs.NewRegistry()
	events := reg.CounterVec("cache_events_total", "test", "event")
	hit, miss, evict := events.With("hit"), events.With("miss"), events.With("evict")
	c := New(60)
	c.Instrument(hit, miss, evict)

	c.Get(1, 5, 100) // miss: unknown
	c.Put(state(1, 100), 5)
	c.Get(1, 5, 110) // hit
	c.Get(1, 7, 110) // device changed: eviction + miss
	c.Put(state(2, 100), 5)
	c.Get(2, 5, 500) // expired: eviction + miss
	c.Put(state(3, 100), 5)
	c.Invalidate(3, 9) // eviction
	c.Put(state(4, 100), 5)
	c.Invalidate(4, 9) // eviction
	c.Invalidate(4, 9) // no entry: no eviction
	c.Put(state(5, 100), 5)
	c.EvictExpired(1000) // eviction

	hits, misses := c.Stats()
	if got := hit.Value(); got != uint64(hits) || got != 1 {
		t.Errorf("hit counter %d, stats %d, want 1", got, hits)
	}
	if got := miss.Value(); got != uint64(misses) || got != 3 {
		t.Errorf("miss counter %d, stats %d, want 3", got, misses)
	}
	if got := evict.Value(); got != 5 {
		t.Errorf("eviction counter %d, want 5", got)
	}
}

// TestUninstrumentedCacheSafe checks the nil-counter path stays silent.
func TestUninstrumentedCacheSafe(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	c.Get(1, 5, 110)
	c.Get(1, 7, 110)
	c.Put(state(2, 100), 5)
	c.Invalidate(2, 9)
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d, %d", hits, misses)
	}
}
