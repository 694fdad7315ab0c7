package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// testServer builds a server over a warmed-up world and returns a test
// HTTP server plus the simulator (for ground truth).
func testServer(t *testing.T) (*httptest.Server, *sim.Simulator) {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := engine.DefaultConfig()
	cfg.KeepHistory = true
	sys := engine.MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 12
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 321)
	srv := New(sys, plan, dep)

	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Stream 120 seconds through the HTTP API itself.
	client := ts.Client()
	for i := 0; i < 120; i++ {
		tm, raws := world.Step()
		body, err := json.Marshal(ingestRequest{Time: tm, Readings: raws})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	return ts, world
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestIngestAndRange(t *testing.T) {
	ts, world := testServer(t)
	var out struct {
		Result []objProb `json:"result"`
	}
	if code := getJSON(t, ts, "/range?x=1&y=2&w=140&h=32", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Result) == 0 {
		t.Fatal("whole-floor range empty")
	}
	for _, op := range out.Result {
		if op.P < 0 || op.P > 1.0001 {
			t.Errorf("P(o%d) = %v", op.Object, op.P)
		}
	}
	_ = world
}

func TestKNNEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var out struct {
		K      int       `json:"k"`
		Result []objProb `json:"result"`
	}
	if code := getJSON(t, ts, "/knn?x=35&y=12&k=3", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.K != 3 {
		t.Errorf("k echoed as %d", out.K)
	}
	// Sorted descending.
	for i := 1; i < len(out.Result); i++ {
		if out.Result[i].P > out.Result[i-1].P {
			t.Error("result not sorted")
		}
	}
}

func TestHistoricalQueryParam(t *testing.T) {
	ts, _ := testServer(t)
	var out struct {
		Result []objProb `json:"result"`
	}
	if code := getJSON(t, ts, "/range?x=1&y=2&w=140&h=32&at=60", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
}

// TestHistoricalQueryAfterStreamClockRefused: a question about a second not
// yet ingested would answer differently once that second arrives, so at=
// after the stream clock is a 400 naming the clock, on every query route;
// at= the clock itself is still a historical question with a fixed answer.
func TestHistoricalQueryAfterStreamClockRefused(t *testing.T) {
	ts, world := testServer(t)
	now := world.Now()
	for _, route := range []string{"/range?x=1&y=2&w=140&h=32", "/knn?x=35&y=12&k=3", "/occupancy?"} {
		var out any
		if code := getJSON(t, ts, fmt.Sprintf("%s&at=%d", route, now), &out); code != http.StatusOK {
			t.Errorf("%s at the stream clock: status %d, want 200", route, code)
		}
		for _, at := range []model.Time{now + 1, now + 20} {
			resp, err := ts.Client().Get(ts.URL + fmt.Sprintf("%s&at=%d", route, at))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "stream clock") {
				t.Errorf("%s at=%d (now %d): status %d %q, want 400 naming the stream clock", route, at, now, resp.StatusCode, body)
			}
		}
	}
}

func TestLocalizeEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var objects []int
	if code := getJSON(t, ts, "/objects", &objects); code != http.StatusOK || len(objects) == 0 {
		t.Fatalf("objects: %d known", len(objects))
	}
	var out struct {
		Object  int        `json:"object"`
		Mean    [2]float64 `json:"mean"`
		Entropy float64    `json:"entropy"`
	}
	path := fmt.Sprintf("/localize?object=%d", objects[0])
	if code := getJSON(t, ts, path, &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Object != objects[0] {
		t.Errorf("object echoed as %d", out.Object)
	}
	// Unknown object: 404.
	if code := getJSON(t, ts, "/localize?object=9999", &out); code != http.StatusNotFound {
		t.Errorf("unknown object status %d", code)
	}
}

func TestOccupancyStatsPlanSnapshot(t *testing.T) {
	ts, _ := testServer(t)
	var occ struct {
		Occupancy []struct {
			Room string  `json:"room"`
			P    float64 `json:"p"`
		} `json:"occupancy"`
		Partial bool `json:"partial"`
	}
	if code := getJSON(t, ts, "/occupancy", &occ); code != http.StatusOK || len(occ.Occupancy) == 0 {
		t.Fatalf("occupancy: %d entries", len(occ.Occupancy))
	}
	if occ.Partial {
		t.Error("healthy occupancy marked partial")
	}
	var stats struct {
		Now  int64       `json:"now"`
		Work interface{} `json:"work"`
	}
	if code := getJSON(t, ts, "/stats", &stats); code != http.StatusOK || stats.Now != 120 {
		t.Fatalf("stats now = %d", stats.Now)
	}
	var plan struct {
		Rooms []any `json:"rooms"`
	}
	if code := getJSON(t, ts, "/plan", &plan); code != http.StatusOK || len(plan.Rooms) != 30 {
		t.Fatalf("plan rooms = %d", len(plan.Rooms))
	}
	resp, err := ts.Client().Get(ts.URL + "/snapshot.svg")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "svg") {
		t.Errorf("snapshot content type %q", ct)
	}
}

func TestIngestRejectsStaleTime(t *testing.T) {
	ts, _ := testServer(t)
	body, _ := json.Marshal(ingestRequest{Time: 5}) // far behind now=120
	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale ingest status %d", resp.StatusCode)
	}
}

func TestIngestRejectsNonpositiveTime(t *testing.T) {
	// Batch seconds are positive by contract; zero and negative times (and
	// with them absurd watermark openings) are refused at the HTTP boundary
	// before they reach the reorder buffer.
	_, ts := freshServer(t, ingest.Config{})
	for _, tm := range []model.Time{0, -1, -1 << 50} {
		code, _ := postBatch(t, ts, batchAt(tm, 1))
		if code != http.StatusBadRequest {
			t.Errorf("time %d: status %d, want 400", tm, code)
		}
	}
	var st workStats
	getJSON(t, ts, "/stats", &st)
	if st.IngestRejected != 0 || st.Work.ReadingsDropped != 0 {
		t.Errorf("refused garbage counted against the stream: %+v", st)
	}
}

func TestBadParams(t *testing.T) {
	ts, _ := testServer(t)
	for _, path := range []string{
		"/range?x=a&y=2&w=3&h=4",
		"/range?x=1",
		"/knn?x=1&y=2&k=0",
		"/knn?x=1&y=2&k=frog",
		"/localize?object=frog",
		"/range?x=1&y=2&w=3&h=4&at=frog",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	// Ingest with a broken body.
	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken ingest status %d", resp.StatusCode)
	}
	// Two concatenated documents, or a document and garbage: the old decoder
	// acked the first value and silently dropped the rest of the body.
	var before, after workStats
	getJSON(t, ts, "/stats", &before)
	for _, body := range []string{
		`{"time":500,"readings":[{"Object":1,"Reader":2}]}{"time":501,"readings":[{"Object":1,"Reader":2}]}`,
		`{"time":500,"readings":[{"Object":1,"Reader":2}]} trailing`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("ingest of %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	getJSON(t, ts, "/stats", &after)
	if after != before {
		t.Errorf("a refused body moved the ingest accounting: %+v -> %+v", before, after)
	}
}

// TestIngestWireForms drives the handler's own read-and-scan path (pooled
// buffers, Content-Length and chunked bodies) through documents other than
// the canonical one.
func TestIngestWireForms(t *testing.T) {
	srv, ts := freshServer(t, ingest.Config{})
	post := func(body io.Reader) map[string]any {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out := map[string]any{}
		json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return out
	}
	// A large canonical delivery first, so the pooled buffers hold its
	// readings when the next, smaller requests reuse them.
	big := batchAt(1)
	for o := 0; o < 3000; o++ {
		big.Readings = append(big.Readings, model.RawReading{Object: model.ObjectID(o), Reader: 7, Time: 1})
	}
	body, _ := json.Marshal(big)
	if ack := post(bytes.NewReader(body)); ack["accepted"] != float64(3000) || ack["now"] != float64(1) {
		t.Fatalf("big delivery ack %v", ack)
	}
	// Reordered, case-variant and unknown keys, whitespace, an omitted Time
	// (stamped with the batch second) — over a chunked body of unknown length.
	doc := "{ \"gateway\": {\"id\": [1, 2.5e3, \"x\"]},\n \"READINGS\": [ {\"reader\": 3, \"object\": 41}, {\"Time\": 2, \"Object\": 42, \"Reader\": 3, \"rssi\": -60.5} ],\n \"time\": 2 }\n"
	if ack := post(struct{ io.Reader }{strings.NewReader(doc)}); ack["received"] != float64(2) || ack["accepted"] != float64(2) || ack["dropped"] != float64(0) || ack["now"] != float64(2) {
		t.Fatalf("variant delivery ack %v", ack)
	}
	// A reading that omits every field is object 0 at reader 0, not whatever
	// an earlier request left in the recycled slice.
	if ack := post(strings.NewReader(`{"time":3,"readings":[{},{"Object":43,"Reader":3}]}`)); ack["accepted"] != float64(2) {
		t.Fatalf("empty-reading delivery ack %v", ack)
	}
	col := srv.sys.(*engine.System).Collector()
	for obj, want := range map[model.ObjectID]model.AggregatedReading{
		41: {Object: 41, Reader: 3, Time: 2},
		42: {Object: 42, Reader: 3, Time: 2},
		0:  {Object: 0, Reader: 0, Time: 3},
		43: {Object: 43, Reader: 3, Time: 3},
	} {
		if got, _ := col.LastReading(obj); got != want {
			t.Errorf("object %d: last reading %+v, want %+v", obj, got, want)
		}
	}
	if _, known := col.LastReading(2999); !known {
		t.Error("big delivery's last object unknown")
	}
	var st workStats
	getJSON(t, ts, "/stats", &st)
	if st.Work.ReadingsIngested != 3004 || st.Work.ReadingsDropped != 0 {
		t.Errorf("stats %+v, want 3004 ingested, 0 dropped", st.Work)
	}
}

func TestUIPage(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("UI status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("UI content type %q", ct)
	}
}

func TestRouteEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var out struct {
		Meters   float64      `json:"meters"`
		Polyline [][2]float64 `json:"polyline"`
	}
	if code := getJSON(t, ts, "/route?x1=5&y1=12&x2=60&y2=24", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Meters <= 0 || len(out.Polyline) < 2 {
		t.Errorf("route = %+v", out)
	}
	resp, err := ts.Client().Get(ts.URL + "/route?x1=a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad params status %d", resp.StatusCode)
	}
}

// freshServer builds a server with no warmup traffic and a configurable
// ingestion front end.
func freshServer(t *testing.T, icfg ingest.Config) (*Server, *httptest.Server) {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := engine.DefaultConfig()
	cfg.Ingest = icfg
	srv := New(engine.MustNew(plan, dep, cfg), plan, dep)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postBatch(t *testing.T, ts *httptest.Server, b model.Batch) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func batchAt(tm model.Time, objs ...int) model.Batch {
	b := model.Batch{Time: tm}
	for i, o := range objs {
		b.Readings = append(b.Readings, model.RawReading{
			Object: model.ObjectID(o), Reader: model.ReaderID(i), Time: tm,
		})
	}
	return b
}

// workStats decodes the drop accounting out of /stats.
type workStats struct {
	Work struct {
		ReadingsIngested int
		ReadingsDropped  int
		ReadingsPending  int
		Ingest           struct {
			DuplicateReadings  int
			MisstampedReadings int
			LateReadings       int
		}
	} `json:"work"`
	IngestRejected int `json:"ingestRejected"`
}

func TestEmptyResultJSONShapes(t *testing.T) {
	// A fresh system knows nothing; empty answers must encode as [], not null.
	_, ts := freshServer(t, ingest.Config{})
	for path, want := range map[string]string{
		"/occupancy": `{"occupancy":[]}`,
		"/objects":   "[]",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(string(body)); got != want {
			t.Errorf("%s empty body = %q, want %q", path, got, want)
		}
	}
}

func TestIngestOutOfOrderWithinHorizon(t *testing.T) {
	_, ts := freshServer(t, ingest.Config{Horizon: 5})
	for _, tm := range []model.Time{10, 12, 11, 13} {
		code, resp := postBatch(t, ts, batchAt(tm, 1))
		if code != http.StatusOK {
			t.Fatalf("t=%d: status %d (%v)", tm, code, resp)
		}
		if d, _ := resp["dropped"].(float64); d != 0 {
			t.Errorf("t=%d: dropped %v readings", tm, d)
		}
	}
	var st workStats
	if code := getJSON(t, ts, "/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.IngestRejected != 0 || st.Work.ReadingsDropped != 0 {
		t.Errorf("clean out-of-order stream counted drops: %+v", st)
	}
	if st.Work.ReadingsIngested+st.Work.ReadingsPending != 4 {
		t.Errorf("ingested %d + pending %d != 4 offered",
			st.Work.ReadingsIngested, st.Work.ReadingsPending)
	}
}

func TestIngestDuplicateBatch(t *testing.T) {
	// With a lateness horizon the retransmission meets its pending copy and
	// is dropped as a counted duplicate, not an error.
	_, ts := freshServer(t, ingest.Config{Horizon: 5})
	if code, _ := postBatch(t, ts, batchAt(10, 1, 2)); code != http.StatusOK {
		t.Fatalf("first delivery status %d", code)
	}
	code, resp := postBatch(t, ts, batchAt(10, 1, 2))
	if code != http.StatusOK {
		t.Fatalf("retransmission status %d", code)
	}
	if d, _ := resp["dropped"].(float64); d != 2 {
		t.Errorf("retransmission dropped %v, want 2", d)
	}
	if reason, _ := resp["reason"].(string); reason != "duplicate" {
		t.Errorf("reason = %q", reason)
	}
	var st workStats
	getJSON(t, ts, "/stats", &st)
	if st.Work.Ingest.DuplicateReadings != 2 {
		t.Errorf("stats duplicates = %d, want 2", st.Work.Ingest.DuplicateReadings)
	}

	// Without a horizon the second was already flushed: the retransmission
	// is late, refused whole with 409, and counted as rejected.
	_, strict := freshServer(t, ingest.Config{})
	postBatch(t, strict, batchAt(10, 1, 2))
	if code, _ := postBatch(t, strict, batchAt(10, 1, 2)); code != http.StatusConflict {
		t.Fatalf("strict retransmission status %d, want 409", code)
	}
	var st2 workStats
	getJSON(t, strict, "/stats", &st2)
	if st2.IngestRejected != 1 || st2.Work.Ingest.LateReadings != 2 {
		t.Errorf("strict rejection accounting: %+v", st2)
	}
}

func TestIngestMisstampedReadings(t *testing.T) {
	_, ts := freshServer(t, ingest.Config{})
	b := batchAt(10, 1, 2)
	b.Readings[1].Time = 10 + ingest.DefaultMaxSkew + 1 // beyond skew tolerance
	code, resp := postBatch(t, ts, b)
	if code != http.StatusOK {
		t.Fatalf("status %d (partial drops are not a rejection)", code)
	}
	if d, _ := resp["dropped"].(float64); d != 1 {
		t.Errorf("dropped %v, want 1", d)
	}
	if a, _ := resp["accepted"].(float64); a != 1 {
		t.Errorf("accepted %v, want 1", a)
	}
	if reason, _ := resp["reason"].(string); reason != "misstamped" {
		t.Errorf("reason = %q", reason)
	}
	var st workStats
	getJSON(t, ts, "/stats", &st)
	if st.Work.Ingest.MisstampedReadings != 1 || st.Work.ReadingsDropped != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestIngestDirectReportsRejection(t *testing.T) {
	srv, ts := freshServer(t, ingest.Config{})
	if err := srv.IngestDirect(10, batchAt(10, 1).Readings); err != nil {
		t.Fatalf("clean direct ingest: %v", err)
	}
	err := srv.IngestDirect(5, batchAt(5, 1).Readings)
	var ie *ingest.Error
	if !errors.As(err, &ie) || !ie.Rejected || ie.Kind != ingest.KindLate {
		t.Fatalf("stale direct ingest error = %v", err)
	}
	// The same counter backs the HTTP 409 path: both surfaces agree.
	var st workStats
	getJSON(t, ts, "/stats", &st)
	if st.IngestRejected != 1 {
		t.Errorf("ingestRejected = %d, want 1", st.IngestRejected)
	}
}

// lightServer builds a server over a fresh, unstreamed system — enough for
// the health/readiness and middleware tests that don't need object state.
func lightServer(t *testing.T) *Server {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	return New(engine.MustNew(plan, dep, engine.DefaultConfig()), plan, dep)
}

func TestHealthzAndReadyz(t *testing.T) {
	srv := lightServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: code=%d status=%q", code, health.Status)
	}
	var ready struct {
		Status     string `json:"status"`
		Durability bool   `json:"durability"`
	}
	if code := getJSON(t, ts, "/readyz", &ready); code != http.StatusOK || ready.Status != "ok" {
		t.Fatalf("readyz: code=%d status=%q", code, ready.Status)
	}
	if ready.Durability {
		t.Error("memory-only system reported durability enabled")
	}

	// Draining: readiness flips to 503, liveness stays 200.
	srv.SetReady(false)
	if code := getJSON(t, ts, "/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: code=%d", code)
	}
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("draining healthz: code=%d", code)
	}
}

// TestNonFiniteQueryParamsRejected asks /range, /knn and /route with each
// float parameter in turn set to NaN, Inf or -Inf — strconv.ParseFloat
// accepts all three — and wants 400 every time: a non-finite point panics in
// the walking graph, and a non-finite window leaves a result JSON cannot
// encode. A valid /range must still answer 200 afterwards.
func TestNonFiniteQueryParamsRejected(t *testing.T) {
	ts := httptest.NewServer(lightServer(t).Handler())
	// Close waits for every handler, so a wedged one would hang the test
	// instead of failing it.
	defer func() {
		if !t.Failed() {
			ts.Close()
		}
	}()
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string, q url.Values) int {
		t.Helper()
		resp, err := client.Get(ts.URL + path + "?" + q.Encode())
		if err != nil {
			t.Fatalf("%s?%s: %v", path, q.Encode(), err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	routes := []struct {
		path   string
		params url.Values
		floats []string
	}{
		{"/range", url.Values{"x": {"5"}, "y": {"9"}, "w": {"25"}, "h": {"14"}}, []string{"x", "y", "w", "h"}},
		{"/knn", url.Values{"x": {"20"}, "y": {"12"}, "k": {"2"}}, []string{"x", "y"}},
		{"/route", url.Values{"x1": {"5"}, "y1": {"9"}, "x2": {"40"}, "y2": {"12"}}, []string{"x1", "y1", "x2", "y2"}},
	}
	for _, rt := range routes {
		for _, name := range rt.floats {
			for _, bad := range []string{"NaN", "Inf", "-Inf"} {
				q := url.Values{}
				for k, v := range rt.params {
					q[k] = v
				}
				q.Set(name, bad)
				if code := get(rt.path, q); code != http.StatusBadRequest {
					t.Errorf("%s?%s: code=%d, want 400", rt.path, q.Encode(), code)
				}
			}
		}
	}
	if code := get(routes[0].path, routes[0].params); code != http.StatusOK {
		t.Errorf("valid /range after the non-finite ones: code=%d, want 200", code)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	srv := lightServer(t)
	h := srv.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/boom", nil)) // must not propagate

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: code=%d", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("panicking handler body: %q (decode err %v)", rec.Body.String(), err)
	}
	if got := srv.httpPanics.With("/boom").Value(); got != 1 {
		t.Fatalf("repro_http_panics_total = %d, want 1", got)
	}

	// A panic after the handler already wrote must not write a second body.
	h = srv.instrument("/late", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("after write")
	})
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/late", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("post-write panic rewrote status: %d", rec.Code)
	}

	// http.ErrAbortHandler is the standard "drop this connection" signal
	// and must propagate to the HTTP server untouched.
	h = srv.instrument("/abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("ErrAbortHandler swallowed, got %v", r)
		}
	}()
	h(httptest.NewRecorder(), httptest.NewRequest("GET", "/abort", nil))
	t.Fatal("unreachable: abort panic did not propagate")
}

// TestReadBody covers the three ways a body meets its size hint: exactly
// (one allocation, reused by the next call), without one (chunked), and
// longer than the hint (a declared length is only believed up to a bound).
func TestReadBody(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	var buf []byte
	for _, hint := range []int64{int64(len(want)), -1, 100, int64(len(want)) + 7} {
		var err error
		buf, err = readBody(buf, bytes.NewReader(want), hint)
		if err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("hint %d: read %d bytes, err %v", hint, len(buf), err)
		}
	}
	before := &buf[:1][0]
	if buf, _ = readBody(buf, bytes.NewReader(want), int64(len(want))); &buf[:1][0] != before {
		t.Error("a buffer that already fits the body was reallocated")
	}
	if _, err := readBody(nil, io.MultiReader(bytes.NewReader(want), errReader{}), -1); err == nil {
		t.Error("a read error was swallowed")
	}
	// A declared length the body does not live up to reserves no more than a
	// poolable buffer.
	if got, _ := readBody(nil, strings.NewReader("{}"), DefaultMaxIngestBytes); cap(got) > maxPooledBody+1 {
		t.Errorf("a declared %d-byte body reserved %d bytes before any arrived", DefaultMaxIngestBytes, cap(got))
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("boom") }
