// Package cache implements the paper's cache management module: it stores
// per-object particle states between queries so that a later query for the
// same object resumes particle filtering from the cached time stamp instead
// of re-running it from the first reading. Entries are discarded whenever
// the object is detected by a new device (keeping every object's filtering
// based on the readings of its two most recent devices) and age out after a
// configurable lifetime, since moving patterns from a distant past add
// nothing to current inferences.
package cache

import (
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/particle"
)

// DefaultLifetime is the default entry lifetime in seconds. It matches the
// particle filter's coast limit: a state older than that cannot influence
// the present distribution anyway.
const DefaultLifetime model.Time = 60

// Cache stores particle states keyed by object.
type Cache struct {
	lifetime model.Time
	entries  map[model.ObjectID]entry
	hits     int
	misses   int
	// Optional live telemetry mirrors of the counters above plus an
	// eviction count; nil until Instrument attaches them.
	mHits, mMisses, mEvictions *obs.Counter
}

// Instrument attaches telemetry counters incremented alongside the cache's
// own accounting: hits and misses mirror Stats, and evictions counts every
// entry removed other than by a Put overwrite (staleness on Get, the ENTER
// invalidation rule, lifetime expiry, and explicit Remove).
func (c *Cache) Instrument(hits, misses, evictions *obs.Counter) {
	c.mHits, c.mMisses, c.mEvictions = hits, misses, evictions
}

func (c *Cache) countHit() {
	c.hits++
	if c.mHits != nil {
		c.mHits.Inc()
	}
}

func (c *Cache) countMiss() {
	c.misses++
	if c.mMisses != nil {
		c.mMisses.Inc()
	}
}

func (c *Cache) countEviction() {
	if c.mEvictions != nil {
		c.mEvictions.Inc()
	}
}

type entry struct {
	state  *particle.State
	device model.ReaderID
}

// New returns an empty cache with the given entry lifetime. Non-positive
// lifetimes fall back to DefaultLifetime.
func New(lifetime model.Time) *Cache {
	if lifetime <= 0 {
		lifetime = DefaultLifetime
	}
	return &Cache{lifetime: lifetime, entries: make(map[model.ObjectID]entry)}
}

// Put stores the object's particle state together with the device that was
// its most recent detector when the state was computed. The cache takes
// ownership of the state: no copy is made, and the caller must not touch it
// again except through a later Get.
func (c *Cache) Put(st *particle.State, device model.ReaderID) {
	c.entries[st.Object] = entry{state: st, device: device}
}

// Get returns the cached state for the object if it is usable: the object's
// current most recent device must equal the cached one (otherwise the entry
// is stale by the paper's invalidation rule and is dropped), and the entry
// must be younger than the lifetime.
//
// The state is handed over, not copied: the caller may advance it in place
// and Put it back, all under the same exclusion that guards the cache itself
// (the engine's shard lock). The entry stays in the cache meanwhile, so a
// caller that gives up before touching the state — a deadline-skipped object
// — leaves it exactly as it was.
func (c *Cache) Get(obj model.ObjectID, currentDevice model.ReaderID, now model.Time) (*particle.State, bool) {
	e, ok := c.entries[obj]
	if !ok {
		c.countMiss()
		return nil, false
	}
	if e.device != currentDevice || now-e.state.Time > c.lifetime {
		delete(c.entries, obj)
		c.countEviction()
		c.countMiss()
		return nil, false
	}
	c.countHit()
	return e.state, true
}

// Invalidate removes the object's entry if its most recent device changed.
// The engine calls this on every ENTER event.
func (c *Cache) Invalidate(obj model.ObjectID, newDevice model.ReaderID) {
	if e, ok := c.entries[obj]; ok && e.device != newDevice {
		delete(c.entries, obj)
		c.countEviction()
	}
}

// Remove unconditionally drops the object's entry.
func (c *Cache) Remove(obj model.ObjectID) {
	if _, ok := c.entries[obj]; ok {
		delete(c.entries, obj)
		c.countEviction()
	}
}

// EvictExpired drops every entry older than the lifetime.
func (c *Cache) EvictExpired(now model.Time) {
	for obj, e := range c.entries {
		if now-e.state.Time > c.lifetime {
			delete(c.entries, obj)
			c.countEviction()
		}
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int) { return c.hits, c.misses }

// Clear empties the cache and resets statistics.
func (c *Cache) Clear() {
	c.entries = make(map[model.ObjectID]entry)
	c.hits, c.misses = 0, 0
}
