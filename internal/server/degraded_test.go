package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/sim/errfs"
	"repro/internal/wal"
)

// degradedServer builds a server over a durable 4-shard engine whose
// filesystem is fault-injectable, streams warm seconds through the HTTP API,
// then breaks one shard's disk and streams seconds more so the shard
// quarantines mid-service.
func degradedServer(t *testing.T) (*httptest.Server, *errfs.FS, *engine.Sharded) {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	fsys := errfs.New(nil, 23)
	cfg := engine.DefaultConfig()
	cfg.Seed = 41
	cfg.Shards = 4
	cfg.Particle.Ns = 16
	cfg.SlowQueryThreshold = 0
	cfg.Durability = engine.DurabilityConfig{
		Dir:           t.TempDir(),
		Fsync:         wal.SyncAlways,
		FS:            fsys,
		HealBaseDelay: time.Hour,
		HealMaxDelay:  time.Hour,
	}
	sys, err := engine.OpenSharded(plan, dep, cfg)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := New(sys, plan, dep)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 12
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 321)

	post := func(i int) (dropped float64, reason string) {
		tm, raws := world.Step()
		body, err := json.Marshal(ingestRequest{Time: tm, Readings: raws})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest second %d: status %d", i, resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		d, _ := out["dropped"].(float64)
		r, _ := out["reason"].(string)
		return d, r
	}
	for i := 0; i < 20; i++ {
		if d, _ := post(i); d != 0 {
			t.Fatalf("warm second %d dropped %v readings", i, d)
		}
	}
	fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "shard-0002"})
	sawTyped := false
	for i := 20; i < 30; i++ {
		if d, reason := post(i); d > 0 {
			if reason != "quarantined" {
				t.Fatalf("drops attributed to %q, want \"quarantined\"", reason)
			}
			sawTyped = true
		}
	}
	if !sawTyped {
		t.Fatal("fault never produced a typed quarantined drop over HTTP")
	}
	return ts, fsys, sys
}

// TestReadyzDegradedMode pins the readiness contract for a partly-broken
// node: with one of four shards quarantined, /readyz stays 200 (the node
// still answers from live shards) but reports "degraded" with the shard
// list; after the fault clears and the shard heals, it returns to "ok".
func TestReadyzDegradedMode(t *testing.T) {
	ts, fsys, sys := degradedServer(t)

	var ready struct {
		Status            string `json:"status"`
		QuarantinedShards int    `json:"quarantinedShards"`
		DegradedShards    []int  `json:"degradedShards"`
	}
	if code := getJSON(t, ts, "/readyz", &ready); code != http.StatusOK {
		t.Fatalf("/readyz status %d; a 3/4-live node must stay ready", code)
	}
	if ready.Status != "degraded" || ready.QuarantinedShards != 1 ||
		len(ready.DegradedShards) != 1 || ready.DegradedShards[0] != 2 {
		t.Fatalf("degraded /readyz = %+v, want status=degraded, shard 2", ready)
	}

	fsys.Clear()
	if err := sys.HealNow(); err != nil {
		t.Fatalf("HealNow: %v", err)
	}
	ready.Status, ready.QuarantinedShards, ready.DegradedShards = "", 0, nil
	if code := getJSON(t, ts, "/readyz", &ready); code != http.StatusOK {
		t.Fatalf("/readyz status %d after heal", code)
	}
	if ready.Status != "ok" || ready.QuarantinedShards != 0 || len(ready.DegradedShards) != 0 {
		t.Fatalf("healed /readyz = %+v, want status=ok", ready)
	}
}

// TestQueriesMarkPartialWhenDegraded pins the query-side contract: while a
// shard is quarantined, /range, /knn, and /occupancy all answer 200 from the
// live shards with "partial": true and the degraded shard list; after heal
// the partial marker disappears.
func TestQueriesMarkPartialWhenDegraded(t *testing.T) {
	ts, fsys, sys := degradedServer(t)

	type partialResp struct {
		Partial        bool  `json:"partial"`
		DegradedShards []int `json:"degradedShards"`
	}
	paths := []string{"/range?x=1&y=2&w=140&h=32", "/knn?x=35&y=12&k=3", "/occupancy"}
	for _, p := range paths {
		var out partialResp
		if code := getJSON(t, ts, p, &out); code != http.StatusOK {
			t.Fatalf("%s status %d under quarantine; live shards must still answer", p, code)
		}
		if !out.Partial {
			t.Errorf("%s did not mark the answer partial", p)
		}
		if len(out.DegradedShards) != 1 || out.DegradedShards[0] != 2 {
			t.Errorf("%s degradedShards = %v, want [2]", p, out.DegradedShards)
		}
	}

	fsys.Clear()
	if err := sys.HealNow(); err != nil {
		t.Fatalf("HealNow: %v", err)
	}
	for _, p := range paths {
		var out partialResp
		if code := getJSON(t, ts, p, &out); code != http.StatusOK {
			t.Fatalf("%s status %d after heal", p, code)
		}
		if out.Partial || len(out.DegradedShards) != 0 {
			t.Errorf("%s still partial after heal: %+v", p, out)
		}
	}
}

// TestFailStopRefusesIngest pins the HTTP face of a WAL fail-stop. cmd/server
// runs one shard behind the router by default, where a permanent log fault
// has no healthy shard to fall back on: the engine fail-stops, and the server
// must say so — /ingest refused with 503 (never a 200 ack for a batch no log
// holds), /readyz 503 "wal failed" — while queries keep answering in full,
// not marked partial.
func TestFailStopRefusesIngest(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	fsys := errfs.New(nil, 29)
	cfg := engine.DefaultConfig()
	cfg.Seed = 41
	cfg.Shards = 1
	cfg.Particle.Ns = 16
	cfg.SlowQueryThreshold = 0
	cfg.Durability = engine.DurabilityConfig{
		Dir:   t.TempDir(),
		Fsync: wal.SyncAlways,
		FS:    fsys,
		Retry: engine.RetryConfig{Max: -1},
	}
	sys, err := engine.OpenSharded(plan, dep, cfg)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	t.Cleanup(func() { sys.Close() })
	ts := httptest.NewServer(New(sys, plan, dep).Handler())
	t.Cleanup(ts.Close)

	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 12
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 321)
	post := func() int {
		tm, raws := world.Step()
		body, err := json.Marshal(ingestRequest{Time: tm, Readings: raws})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 20; i++ {
		if code := post(); code != http.StatusOK {
			t.Fatalf("warm second %d: status %d", i, code)
		}
	}
	fsys.Fail(errfs.Rule{Ops: errfs.OpWrite, Path: "shard-0000"})
	for i := 0; i < 2; i++ {
		if code := post(); code != http.StatusServiceUnavailable {
			t.Fatalf("ingest %d over a failed log: status %d, want 503 (an unlogged batch must not be acked)", i, code)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Status != "wal failed" {
		t.Fatalf("/readyz = %d %q after fail-stop, want 503 \"wal failed\"", resp.StatusCode, ready.Status)
	}
	for _, p := range []string{"/range?x=1&y=2&w=140&h=32", "/knn?x=35&y=12&k=3", "/occupancy"} {
		var out struct {
			Partial        bool  `json:"partial"`
			DegradedShards []int `json:"degradedShards"`
		}
		if code := getJSON(t, ts, p, &out); code != http.StatusOK || out.Partial || len(out.DegradedShards) != 0 {
			t.Errorf("%s after fail-stop: status %d, %+v; want a full 200 answer from memory", p, code, out)
		}
	}
}

// TestHistoricalPartialOnQuarantine pins "no silent partials" for ?at=
// queries: a historical answer computed without a quarantined shard says so
// exactly like a snapshot one, and is observed like one.
func TestHistoricalPartialOnQuarantine(t *testing.T) {
	ts, _, _ := degradedServer(t)
	paths := map[string]string{
		"range":     "/range?x=1&y=2&w=140&h=32&at=15",
		"knn":       "/knn?x=35&y=12&k=3&at=15&deadline_ms=60000",
		"occupancy": "/occupancy?at=15",
	}
	for kind, p := range paths {
		var out struct {
			Partial        bool  `json:"partial"`
			DegradedShards []int `json:"degradedShards"`
		}
		if code := getJSON(t, ts, p, &out); code != http.StatusOK {
			t.Fatalf("%s status %d under quarantine; live shards must still answer", p, code)
		}
		if !out.Partial || len(out.DegradedShards) != 1 || out.DegradedShards[0] != 2 {
			t.Errorf("%s = %+v, want partial with degradedShards [2]", p, out)
		}
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		observed := false
		for _, s := range fams["repro_query_seconds"].Samples {
			if s.Name == "repro_query_seconds_count" && s.Labels["kind"] == kind && s.Value > 0 {
				observed = true
			}
		}
		if !observed {
			t.Errorf("%s left no repro_query_seconds{kind=%q} observation", p, kind)
		}
	}
}
