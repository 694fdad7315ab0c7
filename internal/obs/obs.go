// Package obs is the system's zero-dependency telemetry layer: a registry
// of typed counters, gauges, and fixed-bucket histograms with Prometheus
// text-format exposition (version 0.0.4), plus bounded rings for structured
// debug traces. The record path (Inc/Add/Set/Observe) is atomic and
// allocation-free, so metrics can live inside the particle filter's
// steady-state loop without disturbing its zero-allocation contract (the
// alloc-pin tests enforce this).
//
// Conventions: every metric of this repository is prefixed "repro_",
// durations are observed in seconds, and cumulative counters end in
// "_total". Metrics are registered once at construction (registration takes
// a lock and panics on programmer error: invalid or duplicate names);
// recording and rendering may then proceed concurrently from any goroutine.
package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets spans 10µs to 10s roughly exponentially — wide enough
// for both per-stage filter timings (tens of µs) and whole-query and HTTP
// latencies (ms to s).
var DefLatencyBuckets = []float64{
	1e-5, 2.5e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10,
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	collectMu  sync.Mutex
	collectors []func()
}

// OnCollect registers fn to run at the start of every WriteTo, before any
// family renders. It exists for metrics that are expensive or pointless to
// keep current continuously (Go runtime stats): they refresh lazily at
// scrape time instead of on a ticker. Hooks run without the registry lock
// held, so they may freely Set gauges and Observe histograms.
func (r *Registry) OnCollect(fn func()) {
	r.collectMu.Lock()
	r.collectors = append(r.collectors, fn)
	r.collectMu.Unlock()
}

// family is one named metric family: HELP/TYPE emitted once, then every
// child (one per label-value combination) as a sample line.
type family struct {
	name, help, typ string
	labelNames      []string

	mu       sync.Mutex
	children map[string]child // key: joined label values
}

// child is anything that can render its sample lines.
type child interface {
	write(w *bufio.Writer, name, labels string)
	labelString() string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName matches the Prometheus metric and label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register creates a family, panicking on invalid or duplicate names —
// registration is construction-time code, and a bad name is a bug, not a
// runtime condition.
func (r *Registry) register(name, help, typ string, labelNames []string) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, ln := range labelNames {
		if !validName(ln) || strings.HasPrefix(ln, "__") || ln == "le" {
			panic("obs: invalid label name " + strconv.Quote(ln) + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: metric " + name + " registered twice")
	}
	f := &family{name: name, help: help, typ: typ, labelNames: labelNames, children: make(map[string]child)}
	r.families[name] = f
	return f
}

// labelString renders {k="v",...} for the family's label names and the
// given values, escaping values per the exposition format.
func (f *family) labelString(values []string) string {
	if len(values) != len(f.labelNames) {
		panic("obs: " + f.name + ": got " + strconv.Itoa(len(values)) +
			" label values, want " + strconv.Itoa(len(f.labelNames)))
	}
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.labelNames[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// get returns the child for the label values, creating it with mk on first
// use. Lookup takes the family lock; the returned handle records lock-free,
// so callers should hold on to it rather than re-resolving per event.
func (f *family) get(values []string, mk func(labels string) child) child {
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk(f.labelString(values))
	f.children[key] = c
	return c
}

// Counter returns a new unlabeled monotone counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	return f.get(nil, func(labels string) child { return &Counter{labels: labels} }).(*Counter)
}

// CounterVec returns a labeled counter family; children come from With.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, "counter", labelNames)}
}

// Gauge returns a new unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	return f.get(nil, func(labels string) child { return &Gauge{labels: labels} }).(*Gauge)
}

// GaugeVec returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, "gauge", labelNames)}
}

// Histogram returns a new unlabeled histogram over the given bucket upper
// bounds (sorted ascending; +Inf is implicit). Nil buckets select
// DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil)
	bs := checkBuckets(name, buckets)
	return f.get(nil, func(labels string) child { return newHistogram(bs, labels) }).(*Histogram)
}

// HistogramVec returns a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, "histogram", labelNames), bounds: checkBuckets(name, buckets)}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic("obs: " + name + ": bucket bounds not strictly increasing")
		}
	}
	if len(buckets) > 0 && math.IsInf(buckets[len(buckets)-1], 1) {
		panic("obs: " + name + ": +Inf bucket is implicit")
	}
	return buckets
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ fam *family }

// With returns the counter child for the label values (created on first
// use). Hold on to the handle for hot paths; With itself takes a lock.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.get(values, func(labels string) child { return &Counter{labels: labels} }).(*Counter)
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ fam *family }

// With returns the gauge child for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.get(values, func(labels string) child { return &Gauge{labels: labels} }).(*Gauge)
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct {
	fam    *family
	bounds []float64
}

// With returns the histogram child for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.get(values, func(labels string) child { return newHistogram(v.bounds, labels) }).(*Histogram)
}

// Counter is a monotonically increasing uint64 counter.
type Counter struct {
	v      atomic.Uint64
	labels string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the counter's value. It exists to mirror an authoritative
// monotone counter kept elsewhere (the engine's cumulative Stats) at scrape
// time; never use it to go backwards.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) labelString() string { return c.labels }

func (c *Counter) write(w *bufio.Writer, name, labels string) {
	w.WriteString(name)
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(c.v.Load(), 10))
	w.WriteByte('\n')
}

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits   atomic.Uint64
	labels string
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) labelString() string { return g.labels }

func (g *Gauge) write(w *bufio.Writer, name, labels string) {
	w.WriteString(name)
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(formatFloat(g.Value()))
	w.WriteByte('\n')
}

// Histogram counts observations into fixed buckets. Observe is atomic and
// allocation-free; cumulative bucket counts are computed at render time.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sumBits atomic.Uint64   // float64 bits of the sum of observations
	labels  string
}

func newHistogram(bounds []float64, labels string) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1), labels: labels}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) labelString() string { return h.labels }

func (h *Histogram) write(w *bufio.Writer, name, labels string) {
	// Bucket lines carry the child's labels plus le; splice le into the
	// existing brace set when present.
	bucketLabels := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	// Read the sum before the buckets: Observe counts its bucket before
	// adding to the sum, so every observation in this sum is also in the
	// counts read below, and a concurrent scrape never shows an empty
	// histogram with a nonzero sum.
	sum := h.Sum()
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		w.WriteString(name)
		w.WriteString("_bucket")
		w.WriteString(bucketLabels(le))
		w.WriteByte(' ')
		w.WriteString(strconv.FormatUint(cum, 10))
		w.WriteByte('\n')
	}
	w.WriteString(name)
	w.WriteString("_sum")
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(formatFloat(sum))
	w.WriteByte('\n')
	w.WriteString(name)
	w.WriteString("_count")
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(cum, 10))
	w.WriteByte('\n')
}

// formatFloat renders a float the exposition format accepts.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders every family in Prometheus text format, families sorted
// by name and children by label string, so output is deterministic.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.collectMu.Lock()
	fns := make([]func(), len(r.collectors))
	copy(fns, r.collectors)
	r.collectMu.Unlock()
	for _, fn := range fns {
		fn()
	}

	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	for _, f := range fams {
		f.mu.Lock()
		children := make([]child, 0, len(f.children))
		for _, c := range f.children {
			children = append(children, c)
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue
		}
		sort.Slice(children, func(i, j int) bool { return children[i].labelString() < children[j].labelString() })
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.typ)
		bw.WriteByte('\n')
		for _, c := range children {
			c.write(bw, f.name, c.labelString())
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if err != nil && c.err == nil {
		c.err = err
	}
	return n, err
}

// ContentType is the Prometheus text exposition format media type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"
