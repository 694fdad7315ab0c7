package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// resilientServer builds a server with admission control on, returning the
// server, its engine, and a warmed-up simulator.
func resilientServer(t *testing.T, cfg Config) (*Server, *engine.System, *sim.Simulator) {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	ecfg := engine.DefaultConfig()
	ecfg.Seed = 8
	sys := engine.MustNew(plan, dep, ecfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 10
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 99)
	srv := NewWith(sys, plan, dep, cfg)
	for i := 0; i < 40; i++ {
		tm, raws := world.Step()
		if err := srv.IngestDirect(tm, raws); err != nil {
			t.Fatal(err)
		}
	}
	return srv, sys, world
}

// TestOverloadShedsWith429: when every admission slot is held and the queue
// is full, queries are shed with 429 plus a Retry-After estimate; freeing a
// slot admits queries again, and an admitted query with a generous deadline
// completes fully (no partial marker). Shedding exports no degraded-mode or
// particle-budget series: overload never changes the filter.
func TestOverloadShedsWith429(t *testing.T) {
	adm := AdmissionConfig{
		MaxInFlight: 1,
		MaxQueue:    0, // no waiting: a busy slot sheds immediately
		MaxWait:     time.Millisecond,
	}
	srv, _, _ := resilientServer(t, Config{Admission: adm})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only slot, as a long-running query would.
	srv.adm.slots <- struct{}{}

	for _, path := range []string{
		"/range?x=0&y=0&w=10&h=10", "/range?x=0&y=0&w=10&h=10", "/range?x=0&y=0&w=10&h=10",
		"/knn?x=1&y=1&k=3",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overloaded %s status %d, want 429", path, resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("Retry-After %q, want integer >= 1", resp.Header.Get("Retry-After"))
		}
	}

	// Free the slot: queries are admitted again, and one with a generous
	// deadline completes without the partial marker.
	<-srv.adm.slots
	resp, err := ts.Client().Get(ts.URL + "/range?x=0&y=0&w=40&h=30&deadline_ms=5000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admitted query status %d, want 200", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if _, partial := out["partial"]; partial {
		t.Fatal("admitted query with a generous deadline returned a partial result")
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"repro_degraded_", "repro_particle_budget"} {
		if bytes.Contains(metrics, []byte(name)) {
			t.Errorf("/metrics still names %s", name)
		}
	}
}

// TestSheddingDoesNotChangeAnswers: two servers fed the same stream give
// byte-identical answers whether or not one of them shed queries on the
// way. A shed request touches no engine state, and overload never changes
// the particle count, so a shed leaves every later answer as it was.
func TestSheddingDoesNotChangeAnswers(t *testing.T) {
	adm := DefaultAdmissionConfig()
	adm.MaxInFlight = 1
	adm.MaxQueue = 0
	adm.MaxWait = time.Millisecond
	calm, _, calmWorld := resilientServer(t, Config{Admission: adm})
	loaded, _, loadedWorld := resilientServer(t, Config{Admission: adm})
	serve := func(srv *Server, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	loaded.adm.slots <- struct{}{}
	for i := 0; i < 5; i++ {
		if rec := serve(loaded, "/knn?x=20&y=12&k=5"); rec.Code != http.StatusTooManyRequests {
			t.Fatalf("shed query %d: status %d, want 429", i, rec.Code)
		}
	}
	<-loaded.adm.slots

	feed := func(srv *Server, world *sim.Simulator) {
		for i := 0; i < 20; i++ {
			tm, raws := world.Step()
			if err := srv.IngestDirect(tm, raws); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(calm, calmWorld)
	feed(loaded, loadedWorld)
	for _, path := range []string{"/range?x=0&y=0&w=40&h=30", "/knn?x=20&y=12&k=5"} {
		want, got := serve(calm, path), serve(loaded, path)
		if want.Code != http.StatusOK || got.Code != http.StatusOK {
			t.Fatalf("%s: status %d calm, %d loaded, want 200", path, want.Code, got.Code)
		}
		if !bytes.Equal(want.Body.Bytes(), got.Body.Bytes()) {
			t.Errorf("%s: answer after shedding differs\ncalm:   %s\nloaded: %s", path, want.Body, got.Body)
		}
	}
}

// TestIngestBodyCap413: a POST /ingest body over the configured cap is
// refused with 413 and lands in the drop accounting as an oversized batch.
func TestIngestBodyCap413(t *testing.T) {
	srv, sys, world := resilientServer(t, Config{MaxIngestBytes: 512})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tm, _ := world.Step()
	big := make([]model.RawReading, 512)
	for i := range big {
		big[i] = model.RawReading{Object: model.ObjectID(i), Reader: 0, Time: tm}
	}
	body, err := json.Marshal(ingestRequest{Time: tm, Readings: big})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
	if got := sys.Stats().Ingest.OversizedBatches; got != 1 {
		t.Fatalf("OversizedBatches = %d, want 1", got)
	}

	// A normal-size delivery still goes through.
	tm2, raws := world.Step()
	small, _ := json.Marshal(ingestRequest{Time: tm2, Readings: raws[:min(2, len(raws))]})
	resp, err = ts.Client().Post(ts.URL+"/ingest", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal body status %d, want 200", resp.StatusCode)
	}
}

// TestReadersEndpoint: GET /readers serves the liveness snapshot with one
// record per reader.
func TestReadersEndpoint(t *testing.T) {
	srv, _, _ := resilientServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out struct {
		Enabled bool             `json:"enabled"`
		Now     model.Time       `json:"now"`
		Readers []map[string]any `json:"readers"`
	}
	resp, err := ts.Client().Get(ts.URL + "/readers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled {
		t.Fatal("health monitoring not enabled under the default config")
	}
	if len(out.Readers) != rfid.DefaultReaders {
		t.Fatalf("%d reader records, want %d", len(out.Readers), rfid.DefaultReaders)
	}
	for _, rec := range out.Readers {
		if rec["state"] != "live" {
			t.Fatalf("reader %v state %v on a clean stream, want live", rec["reader"], rec["state"])
		}
	}
}

// TestGracefulDrainUnderLoad: with concurrent ingest and query traffic, a
// drain (readyz off, listener closed, server closed) must lose no acked
// delivery — every reading acknowledged with 200 is accounted as ingested,
// dropped, or pending — and must leak no goroutines.
func TestGracefulDrainUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, sys, world := resilientServer(t, Config{Admission: DefaultAdmissionConfig()})
	ts := httptest.NewServer(srv.Handler())

	var (
		wg            sync.WaitGroup
		stopQueries   atomic.Bool
		ackedReadings atomic.Int64
	)
	// Query load: several clients hammering range/knn until the drain ends.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !stopQueries.Load() {
				url := ts.URL + "/range?x=0&y=0&w=40&h=30&deadline_ms=50"
				if i%2 == 1 {
					url = ts.URL + "/knn?x=5&y=5&k=3"
				}
				resp, err := ts.Client().Get(url)
				if err != nil {
					continue // connection refused once the listener closes
				}
				resp.Body.Close()
			}
		}(i)
	}
	// Ingest load: one gateway streaming seconds over HTTP, counting the
	// readings the server acknowledged.
	ingestDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ingestDone)
		for i := 0; i < 60; i++ {
			tm, raws := world.Step()
			body, err := json.Marshal(ingestRequest{Time: tm, Readings: raws})
			if err != nil {
				return
			}
			resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			if resp.StatusCode == http.StatusOK {
				ackedReadings.Add(int64(len(raws)))
			}
			resp.Body.Close()
		}
	}()
	<-ingestDone // all acks recorded before the drain starts

	// Drain: readiness off first so load balancers route away...
	srv.SetReady(false)
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d while draining, want 503", resp.StatusCode)
	}
	// ...then the listener closes, waiting out in-flight requests (queries
	// are still arriving concurrently here), then the engine closes.
	ts.Close()
	stopQueries.Store(true)
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st := sys.Stats()
	accounted := st.ReadingsIngested + st.ReadingsDropped + st.ReadingsPending
	// IngestDirect warmup offered readings too; every acked HTTP reading must
	// be inside the accounted total (accounting is cumulative and monotone).
	if int64(accounted) < ackedReadings.Load() {
		t.Fatalf("accounted readings %d < acked over HTTP %d: an acknowledged delivery was lost",
			accounted, ackedReadings.Load())
	}
	t.Logf("acked %d readings over HTTP; accounted %d (ingested=%d dropped=%d pending=%d)",
		ackedReadings.Load(), accounted, st.ReadingsIngested, st.ReadingsDropped, st.ReadingsPending)

	// No goroutine leak: everything spawned for the load and the server
	// itself winds down to the baseline.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestDeadlineParamValidation: deadline_ms must be a positive integer no
// longer than a time.Duration holds (10000000000000 ms used to wrap negative
// and run as a 1 ms budget).
func TestDeadlineParamValidation(t *testing.T) {
	srv, _, _ := resilientServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, bad := range []string{"0", "-5", "soon", "10000000000000"} {
		resp, err := ts.Client().Get(ts.URL + "/range?x=0&y=0&w=10&h=10&deadline_ms=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline_ms=%s status %d, want 400", bad, resp.StatusCode)
		}
	}
}
