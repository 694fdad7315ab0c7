package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/health"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/shardmap"
	"repro/internal/sim/netsim"
)

// The cluster node is a drop-in engine: the HTTP layer must not care
// whether it fronts one process or a fleet.
var _ Engine = (*cluster.Node)(nil)

// clusterFixture is one node of a two-node test cluster with its server.
type clusterFixture struct {
	node *cluster.Node
	eng  *engine.System
	srv  *Server
	h    http.Handler
}

func clusterPair(t *testing.T, seed int64, tweak func(*cluster.Config)) (*netsim.Network, [2]*clusterFixture) {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := engine.DefaultConfig()
	cfg.Particle.Ns = 16
	cfg.Seed = seed
	cfg.SlowQueryThreshold = 0
	cfg.Ingest.Horizon = 0
	cfg.Health = health.Config{}

	nw := netsim.New(seed)
	var out [2]*clusterFixture
	for i, self := range []string{"node-0", "node-1"} {
		eng, err := engine.New(plan, dep, cfg)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		ccfg := cluster.Config{
			Self:      self,
			Peers:     []string{"node-0", "node-1"},
			Transport: nw.Transport(self),
			ProbeBase: 24 * time.Hour,
			ProbeMax:  24 * time.Hour,
			Seed:      seed,
		}
		if tweak != nil {
			tweak(&ccfg)
		}
		node, err := cluster.New(eng, ccfg)
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", self, err)
		}
		srv := New(node, plan, dep)
		out[i] = &clusterFixture{node: node, eng: eng, srv: srv, h: srv.Handler()}
		nw.AddNode(self, node)
	}
	t.Cleanup(func() { out[0].node.Close(); out[1].node.Close() })
	return nw, out
}

func doJSON(t *testing.T, h http.Handler, method, target string, body []byte) (int, http.Header, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var m map[string]any
	if rec.Body.Len() > 0 && json.Unmarshal(rec.Body.Bytes(), &m) != nil {
		m = map[string]any{"_raw": rec.Body.String()}
	}
	return rec.Code, rec.Result().Header, m
}

func ingestBody(t *testing.T, sec model.Time, objs []model.ObjectID) []byte {
	t.Helper()
	raws := make([]model.RawReading, len(objs))
	for i, o := range objs {
		raws[i] = model.RawReading{Object: o, Reader: model.ReaderID(i % rfid.DefaultReaders), Time: sec}
	}
	b, err := json.Marshal(model.Batch{Time: sec, Readings: raws})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func ownedBy(bucket, count int) []model.ObjectID {
	out := make([]model.ObjectID, 0, count)
	for id := model.ObjectID(1); len(out) < count; id++ {
		if shardmap.Of(id, 2) == bucket {
			out = append(out, id)
		}
	}
	return out
}

// TestClusterStatusEndpoint checks the GET /cluster document: membership,
// self, and per-peer breaker state, live and after a kill.
func TestClusterStatusEndpoint(t *testing.T) {
	nw, fx := clusterPair(t, 21, nil)
	code, _, doc := doJSON(t, fx[0].h, http.MethodGet, "/cluster", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /cluster = %d", code)
	}
	if doc["self"] != "node-0" || doc["degraded"] != false {
		t.Errorf("cluster doc = %v, want self node-0 not degraded", doc)
	}

	nw.Kill("node-1")
	objs := append(ownedBy(0, 2), ownedBy(1, 2)...)
	code, _, resp := doJSON(t, fx[0].h, http.MethodPost, "/ingest", ingestBody(t, 1, objs))
	if code != http.StatusOK {
		t.Fatalf("POST /ingest = %d: %v", code, resp)
	}
	if resp["dropped"] != float64(2) || resp["reason"] != "unreachable" {
		t.Errorf("ingest response = %v, want 2 dropped unreachable", resp)
	}
	// DeadAfter defaults to 3 consecutive failures; two more seconds flip
	// the breaker to DEAD and the status document must say so.
	for sec := model.Time(2); sec <= 3; sec++ {
		doJSON(t, fx[0].h, http.MethodPost, "/ingest", ingestBody(t, sec, objs))
	}
	_, _, doc = doJSON(t, fx[0].h, http.MethodGet, "/cluster", nil)
	if doc["degraded"] != true {
		t.Errorf("cluster doc after kill = %v, want degraded", doc)
	}
}

// TestClusterReadyzDegraded checks that unreachable peers degrade /readyz
// (200 with the peer list) without failing it.
func TestClusterReadyzDegraded(t *testing.T) {
	nw, fx := clusterPair(t, 23, nil)
	nw.Kill("node-1")
	objs := ownedBy(1, 2)
	for sec := model.Time(1); sec <= 3; sec++ {
		doJSON(t, fx[0].h, http.MethodPost, "/ingest", ingestBody(t, sec, objs))
	}
	code, _, doc := doJSON(t, fx[0].h, http.MethodGet, "/readyz", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /readyz = %d, want 200 (degraded, not dead)", code)
	}
	if doc["status"] != "degraded" {
		t.Errorf("readyz status = %v, want degraded", doc["status"])
	}
	peers, _ := doc["degradedPeers"].([]any)
	if len(peers) != 1 || peers[0] != "node-1" {
		t.Errorf("readyz degradedPeers = %v, want [node-1]", doc["degradedPeers"])
	}

	// Queries still answer, marked partial with the same peer list.
	code, _, rng := doJSON(t, fx[0].h, http.MethodGet, "/range?x=0&y=0&w=100&h=100", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /range = %d", code)
	}
	if rng["partial"] != true {
		t.Errorf("range response = %v, want partial", rng)
	}
	if dp, _ := rng["degradedPeers"].([]any); len(dp) != 1 || dp[0] != "node-1" {
		t.Errorf("range degradedPeers = %v, want [node-1]", rng["degradedPeers"])
	}
}

// shedEvaluates turns every forwarded evaluate into an owner-side shed with
// a fixed Retry-After.
type shedEvaluates struct{ inner cluster.Transport }

func (s *shedEvaluates) Send(ctx context.Context, addr string, req *cluster.Request) (*cluster.Response, error) {
	if req.Op == cluster.OpDists {
		return &cluster.Response{Shed: true, RetryAfterSeconds: 9}, nil
	}
	return s.inner.Send(ctx, addr, req)
}

// TestClusterShedRelays429 checks the bug fix of this PR's satellite: a
// forwarded query the owner sheds comes back 429 with the OWNER's
// Retry-After, not the forwarder's own estimate.
func TestClusterShedRelays429(t *testing.T) {
	_, fx := clusterPair(t, 25, func(c *cluster.Config) {
		if c.Self == "node-0" {
			c.Transport = &shedEvaluates{inner: c.Transport}
		}
	})
	objs := append(ownedBy(0, 2), ownedBy(1, 2)...)
	doJSON(t, fx[0].h, http.MethodPost, "/ingest", ingestBody(t, 1, objs))
	code, hdr, _ := doJSON(t, fx[0].h, http.MethodGet, "/range?x=0&y=0&w=100&h=100", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("GET /range = %d, want 429", code)
	}
	if got := hdr.Get("Retry-After"); got != "9" {
		t.Errorf("Retry-After = %q, want the owner's 9", got)
	}
}

// TestClusterE2E is the two-node smoke over REAL HTTP (the make cluster-e2e
// target): two full servers on loopback listeners talk the peer wire format over
// /cluster/rpc via HTTPTransport; a batch ingested through node-0 is
// queryable identically through both nodes.
func TestClusterE2E(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := engine.DefaultConfig()
	cfg.Particle.Ns = 16
	cfg.Seed = 31
	cfg.SlowQueryThreshold = 0
	cfg.Ingest.Horizon = 0
	cfg.Health = health.Config{}

	// Bind both listeners first: the membership is their real host:port.
	var lns [2]net.Listener
	var addrs [2]string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := range lns {
		eng, err := engine.New(plan, dep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		node, err := cluster.New(eng, cluster.Config{
			Self:      addrs[i],
			Peers:     addrs[:],
			Transport: cluster.NewHTTPTransport(),
			Seed:      31,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: New(node, plan, dep).Handler()}
		go hs.Serve(lns[i])
		t.Cleanup(func() { hs.Shutdown(context.Background()); node.Close() })
	}

	post := func(addr string, body []byte) map[string]any {
		resp, err := http.Post("http://"+addr+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /ingest: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /ingest = %d: %s", resp.StatusCode, b)
		}
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return m
	}
	get := func(addr, path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, b)
		}
		return string(b)
	}

	objs := make([]model.ObjectID, 8)
	for i := range objs {
		objs[i] = model.ObjectID(i + 1)
	}
	for sec := model.Time(1); sec <= 3; sec++ {
		m := post(addrs[0], ingestBody(t, sec, objs))
		if m["dropped"] != float64(0) {
			t.Fatalf("ingest t=%d dropped %v readings on a healthy cluster", sec, m["dropped"])
		}
	}

	// Any node answers any query, and all answers agree bit for bit.
	for _, path := range []string{
		"/range?x=0&y=0&w=100&h=100",
		fmt.Sprintf("/knn?x=10&y=10&k=%d", 3),
		"/occupancy",
		"/objects",
	} {
		if a, b := get(addrs[0], path), get(addrs[1], path); a != b {
			t.Errorf("GET %s diverges across nodes:\n  node-0: %s\n  node-1: %s", path, a, b)
		}
	}
	var doc map[string]any
	json.Unmarshal([]byte(get(addrs[0], "/cluster")), &doc)
	if doc["degraded"] != false {
		t.Errorf("/cluster = %v, want healthy", doc)
	}
}
