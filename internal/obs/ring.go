package obs

import "sync"

// DefaultRingSize is the capacity a Ring falls back to for n <= 0.
const DefaultRingSize = 256

// Ring is a bounded, mutex-guarded ring buffer retaining the last n entries
// added. It backs the filter-trace and slow-query debug endpoints: writers
// pay one lock and one copy per entry, readers get a point-in-time snapshot,
// and memory stays fixed no matter how long the process runs.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	full  bool
	total uint64
}

// NewRing returns a ring retaining the last n entries (n <= 0 selects
// DefaultRingSize).
func NewRing[T any](n int) *Ring[T] {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Ring[T]{buf: make([]T, n)}
}

// Add appends one entry, evicting the oldest when full.
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained entries, oldest first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total returns how many entries were ever added (including evicted ones).
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// FilterTrace is one record of the per-object filter-trace ring: a single
// particle-filter Run or Advance (cache resume) with its work counts and the
// caller's timings. Durations are microseconds for compact, human-readable
// JSON.
type FilterTrace struct {
	// Object is the filtered object's ID.
	Object int64 `json:"object"`
	// Shard is the engine shard that ran the filter (0 for a single-shard
	// system), so a trace entry attributes to a partition of the object space.
	Shard int `json:"shard"`
	// SimFrom and SimTo bound the simulated seconds the run advanced over.
	SimFrom int64 `json:"simFrom"`
	SimTo   int64 `json:"simTo"`
	// Steps is the number of simulated seconds stepped; Detections the
	// detected seconds incorporated; Resamples the systematic resampling
	// passes run on detected seconds.
	Steps      int `json:"steps"`
	Detections int `json:"detections"`
	Resamples  int `json:"resamples"`
	// Particles is the particle count of the resulting state, and ESS its
	// effective sample size (Ns means healthy, ~1 means degenerate).
	Particles int     `json:"particles"`
	ESS       float64 `json:"ess"`
	// Resumed marks a cache hit that advanced an existing state rather than
	// a full run from the first reading.
	Resumed bool `json:"resumed"`
	// AdvanceMicros is the wall time of the whole Run/Advance call, and
	// SnapMicros that of the anchor-point discretization after it: 0 when
	// the state had not moved since its last snap, whose memoized
	// distribution answered instead.
	AdvanceMicros int64 `json:"advanceMicros"`
	SnapMicros    int64 `json:"snapMicros"`
}
