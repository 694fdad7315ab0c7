// Package trace is a stdlib-only, allocation-disciplined span tracer for the
// ingest and query pipelines. A *Context rides a request through every layer
// via context.Context; each layer appends spans (name, shard, start offset,
// duration, optional attributes) as it works. When the request finishes, the
// Tracer tail-samples the completed trace into a bounded ring: traces that
// were slow, deadline-exceeded, shed, or errored are always kept, everything
// else is kept with a configured probability. The ring is exported at
// /debug/traces as JSON and as Chrome trace-event format.
//
// Every method on *Context is safe on a nil receiver: untraced code paths
// (engine used as a library, benchmarks, requests on routes that are not
// traced) carry a nil *Context and pay only a pointer comparison. The hot
// filter kernel itself is never touched — its caller times each filter call
// and lays an advance span carrying the call's particle.RunStats counts — so
// the zero-allocation contract of the disabled path holds.
package trace

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// RouterShard is the shard value for spans that belong to the request as a
// whole (admission, gather, merge, encode) rather than to one shard.
const RouterShard = -1

// MaxSpans bounds the spans one trace retains. A query over a large candidate
// set emits up to two filter spans per object (advance, snap); past the cap
// further spans are counted in Dropped instead of stored, keeping trace
// memory fixed.
const MaxSpans = 512

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. Start is the offset from the
// trace's begin time, so spans order on a single request-relative timeline.
type Span struct {
	Name  string
	Shard int // RouterShard for request-scoped spans
	Start time.Duration
	Dur   time.Duration
	Attrs []Attr
}

// Context accumulates the spans of one in-flight request. It is created by
// Tracer.Start, carried via context.Context (With/From), and closed by
// Tracer.Finish. Spans may be appended concurrently: the sharded engine's
// scatter goroutines all write into the same trace.
type Context struct {
	id    uint64
	kind  string
	begin time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int
	// Keep-reason flags, set by the layer that observed the condition.
	deadline bool
	shed     bool
	errored  bool
}

// ID returns the trace identifier (0 on a nil context).
func (c *Context) ID() uint64 {
	if c == nil {
		return 0
	}
	return c.id
}

// IDString returns the trace ID as 16 hex digits ("" on a nil context).
func (c *Context) IDString() string {
	if c == nil {
		return ""
	}
	return fmt.Sprintf("%016x", c.id)
}

// Add appends a span with an explicit start time and duration. Used when the
// caller timed the work itself (a filter call's advance and snap spans). No-op
// on a nil context.
func (c *Context) Add(name string, shard int, start time.Time, d time.Duration, attrs ...Attr) {
	if c == nil {
		return
	}
	off := start.Sub(c.begin)
	if off < 0 {
		off = 0
	}
	c.mu.Lock()
	if len(c.spans) >= MaxSpans {
		c.dropped++
	} else {
		c.spans = append(c.spans, Span{Name: name, Shard: shard, Start: off, Dur: d, Attrs: attrs})
	}
	c.mu.Unlock()
}

// Since appends a span covering start..now. No-op on a nil context.
func (c *Context) Since(name string, shard int, start time.Time) {
	if c == nil {
		return
	}
	c.Add(name, shard, start, time.Since(start))
}

// SetDeadline marks the trace as deadline-exceeded (always kept).
func (c *Context) SetDeadline() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.deadline = true
	c.mu.Unlock()
}

// SetShed marks the trace as shed by admission control (always kept).
func (c *Context) SetShed() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.shed = true
	c.mu.Unlock()
}

// SetError marks the trace as errored (always kept).
func (c *Context) SetError() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.errored = true
	c.mu.Unlock()
}

// DurationsOf sums the durations (in microseconds) of spans named name per
// shard, over shards [0, n). It returns nil when no such span was recorded —
// the caller (slow-query logging) then omits the field entirely.
func (c *Context) DurationsOf(name string, n int) []int64 {
	if c == nil || n <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int64
	for _, sp := range c.spans {
		if sp.Name != name || sp.Shard < 0 || sp.Shard >= n {
			continue
		}
		if out == nil {
			out = make([]int64, n)
		}
		out[sp.Shard] += sp.Dur.Microseconds()
	}
	return out
}

type ctxKey struct{}

// With returns a context carrying tc. A nil tc returns ctx unchanged.
func With(ctx context.Context, tc *Context) context.Context {
	if tc == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tc)
}

// From extracts the trace from ctx; nil when ctx is nil or carries no trace.
// This is the disabled-tracing fast path: one map-free context lookup, then
// every span call short-circuits on the nil receiver.
func From(ctx context.Context) *Context {
	if ctx == nil {
		return nil
	}
	tc, _ := ctx.Value(ctxKey{}).(*Context)
	return tc
}
