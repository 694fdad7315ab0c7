package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/particle"
	"repro/internal/rfid"
	"repro/internal/rng"
)

// traceStepHarness is the advance half of filterOne, isolated: the
// caller-timed pooled filter advance, the trace guard, and (when traced) the
// advance span with its work counts. It is what every candidate object that
// moved pays per query before its snap, so it is where tracing overhead
// would show.
type traceStepHarness struct {
	sys   *System
	pool  *particle.Pool
	src   *rng.Source
	st    *particle.State
	task  preprocessTask
	entry []model.AggregatedReading
}

func newTraceStepHarness(tb testing.TB) *traceStepHarness {
	tb.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	sys := MustNew(plan, dep, DefaultConfig())
	src := rng.Derive(48)
	h := &traceStepHarness{
		sys:   sys,
		pool:  particle.NewPool(),
		src:   src,
		st:    sys.filter.InitAt(src, 1, 3, 0),
		entry: []model.AggregatedReading{{Object: 1, Reader: 3}},
	}
	h.task = preprocessTask{obj: 1, st: h.st, resumed: true}
	// Warm up scratch, pool arrays, and the telemetry plumbing, covering the
	// detected and silent advance paths once each.
	h.step(nil)
	sys.filter.AdvancePool(h.pool, h.src, h.st, nil, h.st.Time+1)
	return h
}

// step runs one engine-shaped filter step under the given trace (nil:
// tracing disabled — the hot-path production case).
func (h *traceStepHarness) step(tr *trace.Context) {
	start := time.Now()
	next := h.st.Time + 1
	h.entry[0].Time = next
	h.sys.filter.AdvancePool(h.pool, h.src, h.st, h.entry, next)
	h.task.advance = time.Since(start)
	if tr != nil {
		h.sys.shards[0].recordSpans(tr, start, &h.task)
	}
}

// TestFilterStepTracingDisabledZeroAllocs pins the disabled-tracing fast
// path at zero allocations: an untraced request reaches the per-object
// filter step as a nil *trace.Context, and the guard plus the timed pooled
// advance must not allocate. This is the observability counterpart of
// particle's TestFullStepZeroAllocs — if this fails, tracing leaked cost
// into every untraced query.
func TestFilterStepTracingDisabledZeroAllocs(t *testing.T) {
	h := newTraceStepHarness(t)
	ctx := context.Background() // no deadline, no trace: the default request
	disabled := func() {
		tr := trace.From(ctx)
		h.step(tr)
	}
	disabled()
	if allocs := testing.AllocsPerRun(200, disabled); allocs != 0 {
		t.Errorf("disabled-tracing filter step allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkFilterStepTraced measures the request tracer's overhead on the
// per-object filter step: "disabled" is the production default (nil context,
// pointer-compare guards only) and is gated against regression by
// cmd/benchjson; "enabled" pays an advance span append per object under the
// trace mutex.
func BenchmarkFilterStepTraced(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		h := newTraceStepHarness(b)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.step(trace.From(ctx))
		}
	})
	b.Run("enabled", func(b *testing.B) {
		h := newTraceStepHarness(b)
		tracer := trace.New(trace.Config{Sample: 1, Seed: 9})
		tc := tracer.Start("bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh context every 100 steps keeps span appends under the
			// MaxSpans cap, so the benchmark measures recording, not dropping.
			if i%100 == 0 {
				tc = tracer.Start("bench")
			}
			h.step(tc)
		}
	})
}
