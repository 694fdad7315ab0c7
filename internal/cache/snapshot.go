package cache

import (
	"sort"

	"repro/internal/model"
	"repro/internal/particle"
)

// Entry is one cached particle state in serializable form (exported fields
// for encoding/gob).
type Entry struct {
	State  State
	Device model.ReaderID
}

// State is a cached particle state in its wire form: one Particle struct per
// particle. Its type and field names are those particle.State had when it
// stored its particles that way, so snapshots written then still decode and
// today's encode to the same bytes.
type State struct {
	Object          model.ObjectID
	Particles       []particle.Particle
	Time            model.Time
	LastReadingTime model.Time
	LastRun         particle.RunStats
}

// Dump returns every live entry sorted by object ID, each state copied once
// into its wire form, for inclusion in an engine snapshot. LastRun is left
// zero: its stage timings are wall-clock diagnostics, and leaving them in
// would make the snapshot encoding of one logical state differ run to run
// (the engine's parallel-determinism tests compare snapshots byte for byte).
func (c *Cache) Dump() []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		st := e.state
		out = append(out, Entry{Device: e.device, State: State{
			Object:          st.Object,
			Particles:       st.Particles(),
			Time:            st.Time,
			LastReadingTime: st.LastReadingTime,
		}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].State.Object < out[j].State.Object })
	return out
}

// RestoreEntries replaces the cache contents with the dumped entries. Hit and
// miss counters are untouched; use RestoreStats for those.
func (c *Cache) RestoreEntries(entries []Entry) {
	c.entries = make(map[model.ObjectID]entry, len(entries))
	for _, e := range entries {
		w := &e.State
		st := particle.FromParticles(w.Object, w.Particles)
		st.Time, st.LastReadingTime, st.LastRun = w.Time, w.LastReadingTime, w.LastRun
		c.entries[w.Object] = entry{state: st, device: e.Device}
	}
}

// States returns the live cached states, sorted by object ID. They are the
// cache's own: advancing or snapping one changes the cache.
func (c *Cache) States() []*particle.State {
	out := make([]*particle.State, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e.state)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object < out[j].Object })
	return out
}

// RestoreStats overwrites the cumulative hit and miss counters (recovery
// support; the live telemetry mirrors are not replayed).
func (c *Cache) RestoreStats(hits, misses int) {
	c.hits, c.misses = hits, misses
}
