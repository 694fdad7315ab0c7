package trace

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Config selects the tracer's sampling posture.
type Config struct {
	// Sample is the probability an unremarkable trace (not slow, not
	// deadline-exceeded, not shed, not errored) is kept. Negative disables
	// tracing entirely: New returns nil and every request carries a nil
	// *Context.
	Sample float64
	// Slow marks traces at or above this wall time as always kept. Zero
	// disables the slowness rule.
	Slow time.Duration
	// Seed keys the splitmix64 trace-ID stream.
	Seed int64
}

// Tracer hands out trace Contexts and tail-samples completed traces into a
// bounded ring. Safe for concurrent use.
type Tracer struct {
	sample float64
	slow   time.Duration
	ring   *obs.Ring[Done]

	// src draws trace IDs and sampling coins; rng.Source is not safe for
	// concurrent use, so it hides behind mu.
	mu  sync.Mutex
	src *rng.Source
}

// New builds a Tracer, or returns nil when cfg.Sample is negative (tracing
// disabled). A nil *Tracer is not usable; callers gate on it explicitly.
func New(cfg Config) *Tracer {
	if cfg.Sample < 0 {
		return nil
	}
	if cfg.Sample > 1 {
		cfg.Sample = 1
	}
	return &Tracer{
		sample: cfg.Sample,
		slow:   cfg.Slow,
		ring:   obs.NewRing[Done](obs.DefaultRingSize),
		src:    rng.Derive(cfg.Seed, 0x7ace),
	}
}

// Start opens a trace of the given kind ("ingest", "range", "knn").
func (t *Tracer) Start(kind string) *Context {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := t.src.Uint64()
	t.mu.Unlock()
	return &Context{id: id, kind: kind, begin: time.Now()}
}

// StartWith opens a trace that adopts a propagated trace ID instead of
// drawing a fresh one — the receiving half of a forwarded cluster request.
// Both nodes' rings then hold halves of the same logical trace, stitched by
// ID at /debug/traces. A zero id falls back to Start.
func (t *Tracer) StartWith(id uint64, kind string) *Context {
	if t == nil {
		return nil
	}
	if id == 0 {
		return t.Start(kind)
	}
	return &Context{id: id, kind: kind, begin: time.Now()}
}

// Finish closes the trace and applies the tail-sampling decision: slow,
// deadline-exceeded, shed, and errored traces are always kept; the rest keep
// with probability Sample. No-op on a nil context.
func (t *Tracer) Finish(c *Context) {
	if t == nil || c == nil {
		return
	}
	total := time.Since(c.begin)
	c.mu.Lock()
	slow := t.slow > 0 && total >= t.slow
	keep := slow || c.deadline || c.shed || c.errored
	sampled := false
	if !keep && t.sample > 0 {
		t.mu.Lock()
		sampled = t.src.Float64() < t.sample
		t.mu.Unlock()
		keep = sampled
	}
	if !keep {
		c.mu.Unlock()
		return
	}
	d := Done{
		TraceID:      c.IDString(),
		Kind:         c.kind,
		Start:        c.begin,
		Micros:       total.Microseconds(),
		Slow:         slow,
		Deadline:     c.deadline,
		Shed:         c.shed,
		Error:        c.errored,
		Sampled:      sampled,
		DroppedSpans: c.dropped,
		Spans:        make([]SpanOut, len(c.spans)),
	}
	for i, sp := range c.spans {
		d.Spans[i] = SpanOut{
			Name:        sp.Name,
			Shard:       sp.Shard,
			StartMicros: sp.Start.Microseconds(),
			Micros:      sp.Dur.Microseconds(),
			Attrs:       sp.Attrs,
		}
	}
	c.mu.Unlock()
	t.ring.Add(d)
}

// Snapshot returns the retained traces, oldest first (never nil).
func (t *Tracer) Snapshot() []Done {
	if t == nil {
		return []Done{}
	}
	out := t.ring.Snapshot()
	if out == nil {
		out = []Done{}
	}
	return out
}

// Capacity returns the ring capacity (0 on a nil tracer).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.ring.Cap()
}

// Total returns how many traces were ever kept.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Total()
}

// SampleRate returns the configured probabilistic keep rate.
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	return t.sample
}

// Done is one completed, kept trace as exported at /debug/traces.
type Done struct {
	TraceID string    `json:"traceId"`
	Kind    string    `json:"kind"`
	Start   time.Time `json:"start"`
	Micros  int64     `json:"micros"`
	// Keep reasons. Sampled marks a trace kept by probability alone.
	Slow     bool `json:"slow,omitempty"`
	Deadline bool `json:"deadline,omitempty"`
	Shed     bool `json:"shed,omitempty"`
	Error    bool `json:"error,omitempty"`
	Sampled  bool `json:"sampled,omitempty"`
	// DroppedSpans counts spans discarded past the MaxSpans cap.
	DroppedSpans int       `json:"droppedSpans,omitempty"`
	Spans        []SpanOut `json:"spans"`
}

// SpanOut is one span of a completed trace, with times in microseconds
// relative to the trace start.
type SpanOut struct {
	Name        string `json:"name"`
	Shard       int    `json:"shard"` // -1: request-scoped (router) span
	StartMicros int64  `json:"startMicros"`
	Micros      int64  `json:"micros"`
	Attrs       []Attr `json:"attrs,omitempty"`
}
