package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/rfid"
	"repro/internal/server"
)

// No test here asserts a latency: they check the arithmetic, the scheduler's
// timing rule, the gates, and that every workload runs end to end.

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	vs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := percentile(vs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", vs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if vs[0] != 4 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestWindowedP95IgnoresOneStall(t *testing.T) {
	vs := make([]float64, 900)
	for i := range vs {
		vs[i] = 1 + float64(i%10)/10 // 1.0 .. 1.9 in every window
	}
	base := windowedP95(vs)
	// One stall: sixty consecutive requests take a second each. That is 6.7 %
	// of the section, so it moves a plain p95, but it is inside one window.
	for i := 360; i < 420; i++ {
		vs[i] = 1000
	}
	if got := windowedP95(vs); !near(got, base) {
		t.Errorf("windowed p95 moved from %v to %v on a stall confined to one window", base, got)
	}
	if plain := percentile(vs, 0.95); plain < 100 {
		t.Errorf("the plain p95 (%v) was expected to show the stall; the test no longer tests anything", plain)
	}
	// A tail shift in every window must show.
	for i := range vs {
		if i%10 == 9 {
			vs[i] = 50
		}
	}
	if got := windowedP95(vs); got < 49 {
		t.Errorf("windowed p95 = %v, want the sustained tail (50)", got)
	}
	// Too few samples for three windows: the plain p95.
	few := vs[:300]
	if got, want := windowedP95(few), percentile(few, 0.95); got != want {
		t.Errorf("windowed p95 of %d samples = %v, want the plain p95 %v", len(few), got, want)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(vs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := spread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestHistQuantile(t *testing.T) {
	les := []float64{0.001, 0.01, 0.1, math.Inf(1)}
	cum := []float64{90, 99, 100, 100}
	if got := histQuantile(les, cum, 0.5); got != 0.001 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := histQuantile(les, cum, 0.99); got != 0.01 {
		t.Errorf("p99 = %v, want 0.01", got)
	}
	if got := histQuantile(les, []float64{0, 0, 0, 0}, 0.99); got != 0 {
		t.Errorf("empty histogram = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := &recorder{spans: []span{
		{name: "root", start: at(0), end: at(100), parent: -1},
		{name: "a", start: at(10), end: at(40), parent: 0},
		{name: "b", start: at(30), end: at(60), parent: 0}, // overlaps a by 10 ms
		{name: "leaf", start: at(12), end: at(20), parent: 1},
	}}
	self := r.selfTimes()
	want := map[string]time.Duration{
		"root": 50 * time.Millisecond, // 100 - union(10..60)
		"a":    22 * time.Millisecond, // 30 - 8
		"b":    30 * time.Millisecond,
		"leaf": 8 * time.Millisecond,
	}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("self time of %s = %v, want %v", name, got, w)
		}
	}
	byPath := r.durationsByPath()
	if got := byPath["root/a"]; len(got) != 1 || !near(got[0], 30000) {
		t.Errorf("durationsByPath root/a = %v, want [30000]", got)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 4 {
		t.Fatalf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
	if doc.TraceEvents[1]["ph"] != "X" || doc.TraceEvents[1]["dur"].(float64) != 30000 {
		t.Errorf("chrome event = %v", doc.TraceEvents[1])
	}
}

func TestValidatorRejects(t *testing.T) {
	ingest := &op{kind: opIngest, t: 7, readings: make([]model.RawReading, 3)}
	rng := &op{kind: opRange}
	knn := &op{kind: opKNN, k: 2}
	occ := &op{kind: opOccupancy}
	cases := []struct {
		name   string
		o      *op
		status int
		body   string
		ok     bool
	}{
		{"ingest ok", ingest, 200, `{"now":7,"received":3,"accepted":3,"dropped":0}`, true},
		{"ingest accepted != received", ingest, 200, `{"now":7,"received":3,"accepted":2,"dropped":1,"reason":"late"}`, false},
		{"ingest wrong clock", ingest, 200, `{"now":6,"received":3,"accepted":3,"dropped":0}`, false},
		{"ingest missing field", ingest, 200, `{"now":7}`, false},
		{"ingest late batch", ingest, 409, `late`, false},
		{"range ok", rng, 200, `{"window":[0,0,1,1],"result":[{"object":1,"p":0.5},{"object":2,"p":1}]}`, true},
		{"range empty ok", rng, 200, `{"result":[]}`, true},
		{"range partial", rng, 200, `{"result":[{"object":1,"p":0.5}],"partial":true,"degradedShards":[1]}`, false},
		{"range malformed", rng, 200, `{"result":[{"object":1,"p":`, false},
		{"range no result", rng, 200, `{"window":[0,0,1,1]}`, false},
		{"range p > 1", rng, 200, `{"result":[{"object":1,"p":1.5}]}`, false},
		{"range p < 0", rng, 200, `{"result":[{"object":1,"p":-0.1}]}`, false},
		{"range duplicate object", rng, 200, `{"result":[{"object":1,"p":0.5},{"object":1,"p":0.2}]}`, false},
		{"knn shed", knn, 429, `overloaded`, false},
		{"knn 500", knn, 500, `{"error":"internal server error"}`, false},
		{"knn ok", knn, 200, `{"q":[1,2],"k":2,"result":[{"object":9,"p":0.9}]}`, true},
		{"occupancy ok", occ, 200, `{"occupancy":[{"room":"a","p":2.5}]}`, true},
		{"occupancy partial", occ, 200, `{"occupancy":[],"partial":true}`, false},
		{"occupancy negative", occ, 200, `{"occupancy":[{"room":"a","p":-1}]}`, false},
	}
	for _, c := range cases {
		_, err := validate(c.o, c.status, []byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("%s: validate error = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if _, err := validate(knn, 429, nil); err != errShed {
		t.Errorf("a 429 should be reported as errShed, got %v", err)
	}
}

func TestLedgerImbalance(t *testing.T) {
	if msg := ledgerImbalance(100, 100, 0, 0); msg != "" {
		t.Errorf("balanced ledger reported %q", msg)
	}
	for _, c := range [][4]int{
		{100, 99, 0, 0}, // one reading lost silently
		{100, 101, 0, 0},
		{100, 98, 2, 0}, // balances, but readings were dropped
		{100, 98, 0, 2}, // balances, but readings are still pending
	} {
		if msg := ledgerImbalance(c[0], c[1], c[2], c[3]); msg == "" {
			t.Errorf("ledger %v should not pass", c)
		}
	}
}

func TestValidityGuards(t *testing.T) {
	r := &liveResult{promDelta: []promText{{"repro_degraded_transitions_total": 2}}}
	if r.checkValidity(); !strings.Contains(r.invalid, "degraded") {
		t.Errorf("degraded mode not caught: %q", r.invalid)
	}
	r = &liveResult{promDelta: []promText{{"repro_admission_shed_total": 1}}}
	if r.checkValidity(); !strings.Contains(r.invalid, "shed") {
		t.Errorf("shedding not caught: %q", r.invalid)
	}
	r = &liveResult{shed: 1, promDelta: []promText{{}}}
	if r.checkValidity(); !strings.Contains(r.invalid, "shed") {
		t.Errorf("a 429 seen by the client not caught: %q", r.invalid)
	}
	r = &liveResult{latenessMs: []float64{0, 0, 0, 50, 50}}
	if r.checkValidity(); !strings.Contains(r.invalid, "late") {
		t.Errorf("generator lateness not caught: %q", r.invalid)
	}
	r = &liveResult{latenessMs: []float64{0.1, 0.2}, promDelta: []promText{{"repro_admission_shed_total": 0}}}
	if r.checkValidity(); r.invalid != "" {
		t.Errorf("a clean run was refused: %q", r.invalid)
	}
}

func TestAccuracyFloors(t *testing.T) {
	w := workload{hitFloor: 0.3, klCeil: 2}
	many := func(v float64) []float64 {
		out := make([]float64, minScored)
		for i := range out {
			out[i] = v
		}
		return out
	}
	r := &liveResult{w: w, hit: many(0.5), kl: many(1)}
	if r.checkAccuracy(); len(r.incorrect) != 0 {
		t.Errorf("accuracy within the floors refused: %v", r.incorrect)
	}
	r = &liveResult{w: w, hit: many(0.2), kl: many(3)}
	if r.checkAccuracy(); len(r.incorrect) != 2 {
		t.Errorf("want both floors violated, got %v", r.incorrect)
	}
	r = &liveResult{w: w, hit: many(0.5)[:3], kl: many(1)}
	if r.checkAccuracy(); len(r.incorrect) != 1 {
		t.Errorf("too few scored queries should fail the gate, got %v", r.incorrect)
	}
}

func TestPromText(t *testing.T) {
	m := parseProm([]byte(`# HELP x y
repro_cache_events_total{event="eviction"} 3
repro_cache_events_total{event="hit"} 10
repro_wal_syncs_total 7
repro_wal_syncs_total_other 100
h_bucket{shard="0",le="0.1"} 1
h_bucket{shard="1",le="0.1"} 2
h_bucket{shard="0",le="+Inf"} 4
h_bucket{shard="1",le="+Inf"} 2
`))
	if got := m.sum("repro_cache_events_total", `event="eviction"`); got != 3 {
		t.Errorf("labelled sum = %v, want 3", got)
	}
	if got := m.sum("repro_cache_events_total"); got != 13 {
		t.Errorf("sum = %v, want 13", got)
	}
	if got := m.sum("repro_wal_syncs_total"); got != 7 {
		t.Errorf("a metric name must not match a longer name: %v", got)
	}
	les, cum := m.buckets("h")
	if len(les) != 2 || cum[0] != 3 || cum[1] != 6 || !math.IsInf(les[1], 1) {
		t.Errorf("buckets = %v %v", les, cum)
	}
}

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100, 101}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", tight, tight, "lower", 0.10, "within"},
		{"slower past the bound", tight, []float64{115, 116, 114, 115}, "lower", 0.10, "worse"},
		{"slower inside the bound", tight, []float64{105, 106, 104, 105}, "lower", 0.10, "within"},
		{"faster", tight, []float64{80, 81, 79, 80}, "lower", 0.10, "better"},
		{"higher is better and it fell", tight, []float64{80, 81, 79, 80}, "higher", 0.10, "worse"},
		{"noisy baseline", []float64{100, 150, 60, 130, 90, 140}, []float64{130, 131, 129, 130}, "lower", 0.10, "unresolved"},
		{"no bound", tight, []float64{500}, "lower", 0, "-"},
	} {
		if _, got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rangeP50 []float64) string {
		rf := resultsFile{Env: environment{Runs: len(rangeP50), Commit: name}, Workloads: map[string]*workloadResult{
			"query_hot": {Attempted: 10, Correct: true, Metrics: map[string]*metricValues{
				"range_p50_ms": {Unit: "ms", Values: rangeP50},
				"setup_s":      {Unit: "s", Values: []float64{1, 1, 1, 1}},
			}},
		}}
		data, _ := json.Marshal(rf)
		p := filepath.Join(dir, name+".json")
		os.WriteFile(p, data, 0o644)
		return p
	}
	a := write("a", []float64{10, 10.1, 9.9, 10})
	same := write("same", []float64{10.2, 10, 10.1, 10})
	slow := write("slow", []float64{14, 14.1, 13.9, 14})
	var out bytes.Buffer
	if code := compareFiles(&out, a, same); code != 0 {
		t.Errorf("A/A comparison exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, slow); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 40 %% regression exited %d:\n%s", code, out.String())
	}
}

// TestBenchmarkJSON keeps the document at the repository root equal to the
// specs the harness enforces, and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, s := range append(append([]spec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || seen[s.Name] {
			t.Errorf("spec %+v: bad or repeated name, or bad unit", s)
		}
		seen[s.Name] = true
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("spec %s: better = %q", s.Name, s.Better)
		}
	}
	for _, s := range endToEndSpecs {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		if s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	if len(perLayerSpecs) > 128 || len(endToEndSpecs) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("metric or workload count outside the contract")
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q: bad name, or why longer than one 200-character line (%d)", w.name, len(w.why))
		}
		seen[w.name] = true
	}
	// 4 + 22 x workloads runs of run_seconds plus ~8 s of set-up, restarts
	// and build check each must fit in 3420 s with two cold builds.
	if total := float64(4+22*len(workloads)) * (runSeconds + 8); total > 3420-240 {
		t.Errorf("%d workloads at %d s cannot fit the driver's time: ~%.0f s", len(workloads), runSeconds, total)
	}

	want, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	json.Unmarshal(want, &w)
	gb, _ := json.Marshal(g)
	wb, _ := json.Marshal(w)
	if !bytes.Equal(gb, wb) {
		t.Errorf("BENCHMARK.json differs from the harness's specs; regenerate it with `bench -print-spec`")
	}
}

// inprocLauncher runs the system under test inside the test process, built
// the way cmd/server builds it, behind real loopback HTTP listeners.
type inprocLauncher struct {
	wrap func(http.Handler) http.Handler // optional fault injection
}

type inprocSet struct {
	servers []*httptest.Server
	closers []func()
}

func (s *inprocSet) urls() []string {
	out := make([]string, len(s.servers))
	for i, srv := range s.servers {
		out[i] = srv.URL
	}
	return out
}

func (s *inprocSet) kill() {
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, c := range s.closers {
		c()
	}
	s.servers, s.closers = nil, nil
}

func (s *inprocSet) rssPeakMB() float64  { return 1 }
func (s *inprocSet) rssMB() float64      { return 1 }
func (s *inprocSet) cpuSeconds() float64 { return 0 }

func (l *inprocLauncher) launch(w workload, seed int64, dataDir string, serverTrace bool) (serverSet, error) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	in := probeInputs{plan: plan, dep: dep}
	set := &inprocSet{}
	var lis []net.Listener
	var addrs []string
	for i := 0; i < w.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lis = append(lis, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for i := range lis {
		dir := ""
		if w.durable {
			dir = dataDir
			if w.nodes > 1 {
				dir = filepath.Join(dataDir, "node-"+string(rune('0'+i)))
			}
		}
		eng, err := openEngine(in, engineConfig(seed, w.shards, dir))
		if err != nil {
			set.kill()
			return nil, err
		}
		var sys server.Engine = eng.(server.Engine)
		if w.nodes > 1 {
			node, err := cluster.New(eng.(cluster.Local), cluster.Config{
				Self: addrs[i], Peers: addrs, Transport: cluster.NewHTTPTransport(), Seed: seed, EvaluateSlots: 4,
			})
			if err != nil {
				set.kill()
				return nil, err
			}
			sys = node
		}
		tc := trace.Config{Sample: -1}
		if serverTrace {
			tc = trace.Config{Sample: 0.01, Slow: 100 * time.Millisecond, Seed: seed}
		}
		adm := server.DefaultAdmissionConfig()
		srv := server.NewWith(sys, plan, dep, server.Config{Admission: adm, Trace: tc})
		h := srv.Handler()
		if l.wrap != nil {
			h = l.wrap(h)
		}
		ts := httptest.NewUnstartedServer(h)
		ts.Listener.Close()
		ts.Listener = lis[i]
		ts.Start()
		set.servers = append(set.servers, ts)
		set.closers = append(set.closers, func() { srv.Close() })
	}
	return set, nil
}

// TestOpenLoopTimesFromDueTime injects one stall into an otherwise fast
// server. A generator that timed requests from when it got round to sending
// them would show the stall in a single request; timed from the due time it
// shows in every request that was due while the server stood still.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 400 * time.Millisecond
	var queries atomic.Int64
	l := &inprocLauncher{wrap: func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if (r.URL.Path == "/range" || r.URL.Path == "/knn") && queries.Add(1) == 30 {
				time.Sleep(stall)
			}
			h.ServeHTTP(w, r)
		})
	}}
	w, _ := workloadByName("cluster_mixed")
	w = w.toy()
	res, err := runLive(l, w, 1, liveOpts{seconds: 2, setups: 1, restarts: 0, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.failures)
	}
	// 40 q/s: a query is due every ~25 ms, so ~16 were due during the stall.
	// The one that stalled took >= 400 ms; each later one waited for its
	// predecessors and must show a large part of it.
	delayed := 0
	for _, ms := range append(append([]float64(nil), res.lat[opRange]...), res.lat[opKNN]...) {
		if ms >= float64(stall/time.Millisecond)/4 {
			delayed++
		}
	}
	if delayed < 5 {
		t.Errorf("only %d queries show the %v stall; latency is not being timed from the due time", delayed, stall)
	}
	// The generator itself was not late: the wait was the server's.
	if p := percentile(res.latenessMs, 0.5); p > 5 {
		t.Errorf("median generator lateness %.1f ms; waiting behind a slow answer must not count as lateness", p)
	}
}

// TestSmoke drives all four workloads at toy size end to end — set-up,
// measured section, ledger, validity and recovery — and the in-process
// layer passes with their spans, on in-process servers.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w.toy()
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			res, err := runLive(&inprocLauncher{}, w, 3, liveOpts{seconds: 1, setups: 1, restarts: 1, workDir: dir, floor: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || len(res.incorrect) != 0 {
				t.Fatalf("%d of %d operations failed: %v; incorrect: %v", res.failed, res.attempted, res.failures, res.incorrect)
			}
			if res.invalid != "" && !strings.Contains(res.invalid, "late") {
				// Lateness is a property of the machine, not of the code.
				t.Fatalf("run invalid: %s", res.invalid)
			}
			m := res.endToEnd()
			if problems := checkAgainstSpecs(m, endToEndSpecs); len(problems) > 0 {
				t.Errorf("end-to-end metrics: %v", problems)
			}
			for name, v := range m {
				if math.IsNaN(v.Value) || v.Value == 0 {
					if name == "knn_hit_rate" || name == "range_kl" {
						continue // fifty objects can leave nothing to score
					}
					t.Errorf("%s = %v", name, v.Value)
				}
			}
			if len(res.lat[opIngest]) == 0 || len(res.lat[opRange]) == 0 || len(res.lat[opKNN]) == 0 {
				t.Errorf("samples: ingest %d, range %d, knn %d", len(res.lat[opIngest]), len(res.lat[opRange]), len(res.lat[opKNN]))
			}

			lp, err := runLayerPasses(w, 3, dir)
			if err != nil {
				t.Fatal(err)
			}
			pl := perLayer(w, res, res, lp, 0)
			if problems := checkAgainstSpecs(pl, perLayerSpecs); len(problems) > 0 {
				t.Errorf("per-layer metrics: %v", problems)
			}
			for _, must := range []string{"server.decode_ms_per_batch", "wal.append_us_per_record", "particle.run_full_us_per_object", "query.prune_knn_us", "engine.ingest_call_ms"} {
				if pl[must].Value <= 0 {
					t.Errorf("%s = %v, want a measurement", must, pl[must].Value)
				}
			}
			if cl := pl["cluster.rpc_rtt_us"].Value; (w.nodes > 1) != (cl > 0) {
				t.Errorf("cluster.rpc_rtt_us = %v on a %d-node shape", cl, w.nodes)
			}
		})
	}
}

func TestEncodeBatch(t *testing.T) {
	for _, raws := range [][]model.RawReading{
		nil,
		{{Object: 1, Reader: 2, Time: 3}},
		{{Object: 1999, Reader: 18, Time: 3600}, {Object: 0, Reader: -1, Time: 0}},
	} {
		got := encodeBatch(42, raws)
		var back model.Batch
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("encodeBatch produced invalid JSON %s: %v", got, err)
		}
		if back.Time != 42 || len(back.Readings) != len(raws) {
			t.Fatalf("round trip of %v = %+v", raws, back)
		}
		for i := range raws {
			if back.Readings[i] != raws[i] {
				t.Errorf("reading %d: %+v, want %+v", i, back.Readings[i], raws[i])
			}
		}
		if back.Readings == nil {
			t.Error("an empty batch must encode [] rather than null")
		}
	}
}
