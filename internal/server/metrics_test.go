package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/rfid"
)

// newTestServerWith builds an (unwarmed) test server with an explicit
// handler configuration.
func newTestServerWith(t *testing.T, cfg HandlerConfig) *httptest.Server {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	sys := engine.MustNew(plan, dep, engine.DefaultConfig())
	ts := httptest.NewServer(New(sys, plan, dep).HandlerWith(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// scrape fetches /metrics and returns the strictly-parsed families; any
// grammar or histogram-invariant violation fails the test.
func scrape(t *testing.T, ts *httptest.Server, url string) map[string]*obs.Family {
	t.Helper()
	resp, err := ts.Client().Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, obs.ContentType)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not lint: %v", err)
	}
	return fams
}

// sampleValue finds one sample by name and label subset; -1 when absent.
func sampleValue(fams map[string]*obs.Family, fam, sample string, labels map[string]string) float64 {
	f := fams[fam]
	if f == nil {
		return -1
	}
outer:
	for _, s := range f.Samples {
		if s.Name != sample {
			continue
		}
		for k, v := range labels {
			if s.Labels[k] != v {
				continue outer
			}
		}
		return s.Value
	}
	return -1
}

// TestMetricsEndpoint scrapes a warmed-up server after traffic on several
// endpoints and checks the exposition lints strictly and covers every layer.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := testServer(t)

	// Touch the query endpoints so their metrics exist.
	var ignore any
	if code := getJSON(t, ts, "/range?x=1&y=2&w=140&h=32", &ignore); code != http.StatusOK {
		t.Fatalf("range status %d", code)
	}
	if code := getJSON(t, ts, "/knn?x=35&y=12&k=3", &ignore); code != http.StatusOK {
		t.Fatalf("knn status %d", code)
	}
	getJSON(t, ts, "/localize?object=999999", &ignore) // a 404 to record

	fams := scrape(t, ts, ts.URL)

	// Every layer must be represented.
	for _, name := range []string{
		"repro_filter_stage_seconds",
		"repro_filter_runs_total",
		"repro_query_seconds",
		"repro_cache_events_total",
		"repro_ingest_readings_ingested_total",
		"repro_http_requests_total",
		"repro_http_request_seconds",
		"repro_stream_now_seconds",
		"repro_objects_known",
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}

	if v := sampleValue(fams, "repro_ingest_readings_ingested_total",
		"repro_ingest_readings_ingested_total", nil); v <= 0 {
		t.Errorf("ingested total = %v after 120 streamed seconds", v)
	}
	if v := sampleValue(fams, "repro_stream_now_seconds",
		"repro_stream_now_seconds", nil); v != 120 {
		t.Errorf("stream now = %v, want 120", v)
	}
	// Per-endpoint accounting: the ingest route saw 120 POSTs with 200s,
	// and the localize miss above was recorded with its 404.
	if v := sampleValue(fams, "repro_http_requests_total", "repro_http_requests_total",
		map[string]string{"path": "/ingest", "code": "200"}); v != 120 {
		t.Errorf(`requests{path="/ingest",code="200"} = %v, want 120`, v)
	}
	if v := sampleValue(fams, "repro_http_requests_total", "repro_http_requests_total",
		map[string]string{"path": "/localize", "code": "404"}); v != 1 {
		t.Errorf(`requests{path="/localize",code="404"} = %v, want 1`, v)
	}
	if v := sampleValue(fams, "repro_http_request_seconds", "repro_http_request_seconds_count",
		map[string]string{"path": "/range"}); v < 1 {
		t.Errorf(`request_seconds_count{path="/range"} = %v, want >= 1`, v)
	}
	// The serving filter reads no clock: the snap is the one stage timed,
	// and the particle steps are counted instead.
	if v := sampleValue(fams, "repro_filter_stage_seconds", "repro_filter_stage_seconds_count",
		map[string]string{"stage": "snap"}); v <= 0 {
		t.Errorf(`filter stage "snap" count = %v`, v)
	}
	for _, st := range []string{"predict", "reweight", "resample"} {
		if v := sampleValue(fams, "repro_filter_stage_seconds", "repro_filter_stage_seconds_count",
			map[string]string{"stage": st}); v != -1 {
			t.Errorf("filter stage %q exported (count %v); the kernel times no stages", st, v)
		}
	}
	if v := sampleValue(fams, "repro_filter_particle_steps_total", "repro_filter_particle_steps_total", nil); v <= 0 {
		t.Errorf("particle steps = %v after a range and a kNN query", v)
	}
}

// TestStatsAgreesWithMetrics rejects a late delivery, then checks /stats and
// /metrics report the same rejection count — they are one counter now.
func TestStatsAgreesWithMetrics(t *testing.T) {
	ts, _ := testServer(t)

	// The stream is at second 120: second 5 is a late batch, refused whole.
	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json",
		strings.NewReader(`{"time": 5, "readings": []}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("late delivery status %d, want 409", resp.StatusCode)
	}

	var st struct {
		IngestRejected int `json:"ingestRejected"`
	}
	if code := getJSON(t, ts, "/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.IngestRejected != 1 {
		t.Fatalf("/stats ingestRejected = %d, want 1", st.IngestRejected)
	}
	fams := scrape(t, ts, ts.URL)
	if v := sampleValue(fams, "repro_ingest_batches_rejected_total",
		"repro_ingest_batches_rejected_total", nil); v != float64(st.IngestRejected) {
		t.Errorf("metrics rejected = %v, /stats says %d", v, st.IngestRejected)
	}
	// The 409 itself is visible in the endpoint accounting.
	if v := sampleValue(fams, "repro_http_requests_total", "repro_http_requests_total",
		map[string]string{"path": "/ingest", "code": "409"}); v != 1 {
		t.Errorf(`requests{path="/ingest",code="409"} = %v, want 1`, v)
	}
}

// TestFilterTraceEndpoint checks /debug/filtertrace serves the ring as JSON
// with traces from real filter runs.
func TestFilterTraceEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var ignore any
	if code := getJSON(t, ts, "/range?x=1&y=2&w=140&h=32", &ignore); code != http.StatusOK {
		t.Fatalf("range status %d", code)
	}

	var out struct {
		Capacity int               `json:"capacity"`
		Total    uint64            `json:"total"`
		Traces   []obs.FilterTrace `json:"traces"`
	}
	if code := getJSON(t, ts, "/debug/filtertrace", &out); code != http.StatusOK {
		t.Fatalf("filtertrace status %d", code)
	}
	if out.Capacity != obs.DefaultRingSize {
		t.Errorf("capacity = %d, want default %d", out.Capacity, obs.DefaultRingSize)
	}
	if len(out.Traces) == 0 || out.Total == 0 {
		t.Fatal("no traces after a range query")
	}
	for _, tr := range out.Traces {
		if tr.SimTo < tr.SimFrom || tr.Particles <= 0 || tr.AdvanceMicros < 0 || tr.ESS <= 0 {
			t.Errorf("malformed trace %+v", tr)
		}
		if tr.SimTo-tr.SimFrom != int64(tr.Steps) {
			t.Errorf("trace %+v: %d steps over a window of %d seconds", tr, tr.Steps, tr.SimTo-tr.SimFrom)
		}
	}
}

// TestSlowQueriesEndpoint checks /debug/slowqueries decodes (empty at the
// default threshold).
func TestSlowQueriesEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var out struct {
		Capacity int   `json:"capacity"`
		Queries  []any `json:"queries"`
	}
	if code := getJSON(t, ts, "/debug/slowqueries", &out); code != http.StatusOK {
		t.Fatalf("slowqueries status %d", code)
	}
	if out.Capacity <= 0 {
		t.Errorf("capacity = %d", out.Capacity)
	}
	if out.Queries == nil {
		t.Error("queries encoded as null, want []")
	}
}

// TestPProfGating checks pprof is absent by default and mounted with
// HandlerConfig.EnablePProf.
func TestPProfGating(t *testing.T) {
	ts, _ := testServer(t) // default Handler: pprof off
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	tsOn := newTestServerWith(t, HandlerConfig{EnablePProf: true})
	resp, err = tsOn.Client().Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
}
