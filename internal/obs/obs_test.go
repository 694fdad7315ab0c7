package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// render writes the registry and strict-parses the result, failing the test
// on any grammar or invariant violation.
func render(t *testing.T, r *Registry) map[string]*Family {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	fams, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own output fails strict parse: %v\n%s", err, b.String())
	}
	return fams
}

func TestCounterGaugeRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_events_total", "cumulative events")
	g := r.Gauge("repro_depth", "current depth")
	c.Inc()
	c.Add(41)
	g.Set(2)

	fams := render(t, r)
	if v := fams["repro_events_total"].Samples[0].Value; v != 42 {
		t.Errorf("counter = %v, want 42", v)
	}
	if typ := fams["repro_events_total"].Type; typ != "counter" {
		t.Errorf("type = %q", typ)
	}
	if v := fams["repro_depth"].Samples[0].Value; v != 2 {
		t.Errorf("gauge = %v, want 2", v)
	}
	if help := fams["repro_depth"].Help; help != "current depth" {
		t.Errorf("help = %q", help)
	}
}

func TestCounterSetMirrors(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_mirror_total", "scrape-time mirror")
	c.Set(1234)
	if got := c.Value(); got != 1234 {
		t.Fatalf("Set/Value = %d", got)
	}
}

func TestVecChildrenAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("repro_http_requests_total", "requests", "path", "code")
	v.With("/range", "200").Add(3)
	v.With("/knn", "400").Inc()
	v.With(`/we"ird\path`+"\n", "200").Inc()
	if v.With("/range", "200") != v.With("/range", "200") {
		t.Error("With is not idempotent")
	}

	fams := render(t, r)
	f := fams["repro_http_requests_total"]
	if len(f.Samples) != 3 {
		t.Fatalf("%d samples, want 3", len(f.Samples))
	}
	got := map[string]float64{}
	for _, s := range f.Samples {
		got[s.Labels["path"]+"|"+s.Labels["code"]] = s.Value
	}
	if got["/range|200"] != 3 || got["/knn|400"] != 1 {
		t.Errorf("samples = %v", got)
	}
	// The escaped label value round-trips through render + parse.
	if got[`/we"ird\path`+"\n|200"] != 1 {
		t.Errorf("escaped label lost: %v", got)
	}
}

func TestHistogramBucketsAndInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("repro_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if math.Abs(h.Sum()-5.565) > 1e-12 {
		t.Errorf("Sum = %v", h.Sum())
	}

	fams := render(t, r) // strict parse enforces monotone buckets, +Inf == _count
	f := fams["repro_latency_seconds"]
	want := map[string]float64{"0.01": 2, "0.1": 3, "1": 4, "+Inf": 5}
	for _, s := range f.Samples {
		if s.Name == "repro_latency_seconds_bucket" {
			if s.Value != want[s.Labels["le"]] {
				t.Errorf("bucket le=%s = %v, want %v", s.Labels["le"], s.Value, want[s.Labels["le"]])
			}
		}
		if s.Name == "repro_latency_seconds_count" && s.Value != 5 {
			t.Errorf("_count = %v", s.Value)
		}
	}
}

func TestHistogramVecLabeledBuckets(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("repro_stage_seconds", "stage latency", nil, "stage")
	v.With("predict").Observe(0.001)
	v.With("resample").Observe(0.5)
	fams := render(t, r)
	f := fams["repro_stage_seconds"]
	// Two label groups, each with full bucket set + _sum + _count.
	wantSamples := 2 * (len(DefLatencyBuckets) + 1 + 2)
	if len(f.Samples) != wantSamples {
		t.Errorf("%d samples, want %d", len(f.Samples), wantSamples)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("repro_ok_total", "x")
	mustPanic("duplicate", func() { r.Counter("repro_ok_total", "x") })
	mustPanic("bad name", func() { r.Counter("0bad", "x") })
	mustPanic("bad label", func() { r.CounterVec("repro_l_total", "x", "0bad") })
	mustPanic("reserved le", func() { r.HistogramVec("repro_h", "x", nil, "le") })
	mustPanic("unsorted buckets", func() { r.Histogram("repro_b", "x", []float64{1, 1}) })
}

// TestRecordPathZeroAllocs pins the whole record path at zero allocations:
// this is what lets the particle filter's steady-state loop stay
// allocation-free with instrumentation enabled.
func TestRecordPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_c_total", "x")
	g := r.Gauge("repro_g", "x")
	h := r.Histogram("repro_h_seconds", "x", nil)
	hc := r.HistogramVec("repro_hv_seconds", "x", nil, "stage").With("predict")
	for name, f := range map[string]func(){
		"counter.Inc":       func() { c.Inc() },
		"counter.Add":       func() { c.Add(3) },
		"gauge.Set":         func() { g.Set(1.5) },
		"histogram.Observe": func() { h.Observe(0.02) },
		"vec child.Observe": func() { hc.Observe(0.02) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v times per op, want 0", name, allocs)
		}
	}
}

func TestConcurrentRecordAndRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_c_total", "x")
	h := r.Histogram("repro_h_seconds", "x", nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-4)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		render(t, r)
	}
	wg.Wait()
	fams := render(t, r)
	if v := fams["repro_c_total"].Samples[0].Value; v != 4000 {
		t.Errorf("counter = %v, want 4000", v)
	}
	if h.Count() != 4000 {
		t.Errorf("histogram count = %d, want 4000", h.Count())
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before family": `repro_x_total 1`,
		"TYPE without HELP":    "# TYPE repro_x_total counter\nrepro_x_total 1",
		"unknown type":         "# HELP repro_x x\n# TYPE repro_x frobnicator\nrepro_x 1",
		"bad value":            "# HELP repro_x x\n# TYPE repro_x gauge\nrepro_x one",
		"timestamp":            "# HELP repro_x x\n# TYPE repro_x gauge\nrepro_x 1 1712345",
		"duplicate series":     "# HELP repro_x x\n# TYPE repro_x gauge\nrepro_x 1\nrepro_x 2",
		"bad escape":           "# HELP repro_x x\n# TYPE repro_x counter\nrepro_x{a=\"\\t\"} 1",
		"unterminated labels":  "# HELP repro_x x\n# TYPE repro_x counter\nrepro_x{a=\"b\" 1",
		"HELP without TYPE":    "# HELP repro_x x\n",
		"decreasing buckets": "# HELP repro_h h\n# TYPE repro_h histogram\n" +
			"repro_h_bucket{le=\"1\"} 5\nrepro_h_bucket{le=\"2\"} 3\nrepro_h_bucket{le=\"+Inf\"} 5\n" +
			"repro_h_sum 1\nrepro_h_count 5",
		"count disagrees": "# HELP repro_h h\n# TYPE repro_h histogram\n" +
			"repro_h_bucket{le=\"+Inf\"} 5\nrepro_h_sum 1\nrepro_h_count 4",
		"missing +Inf": "# HELP repro_h h\n# TYPE repro_h histogram\n" +
			"repro_h_bucket{le=\"1\"} 5\nrepro_h_sum 1\nrepro_h_count 5",
	}
	for name, doc := range cases {
		if _, err := ParseText(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRing(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Errorf("empty snapshot = %v", got)
	}
	r.Add(1)
	r.Add(2)
	if got := r.Snapshot(); got[0] != 1 || got[1] != 2 {
		t.Errorf("partial snapshot = %v", got)
	}
	r.Add(3)
	r.Add(4) // evicts 1
	r.Add(5) // evicts 2
	got := r.Snapshot()
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Errorf("wrapped snapshot = %v", got)
	}
	if r.Total() != 5 {
		t.Errorf("total = %d", r.Total())
	}
	if NewRing[int](0).Cap() != DefaultRingSize {
		t.Error("default capacity not applied")
	}
}
