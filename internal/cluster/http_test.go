package cluster_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/anchor"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestHarnessOpsOverHTTP keeps the frozen benchmark harness's probes
// answering: OpGather and OpEvaluate sent straight through
// HTTPTransport.Send, the evaluate reply read as a map of maps that must
// hold exactly what the flat OpDists reply does.
func TestHarnessOpsOverHTTP(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Particle.Ns = 16
	cfg.Seed = 41
	cfg.SlowQueryThreshold = 0
	n0, n1 := twoNodesHTTP(t, cfg)
	objs := append(objectsOwnedBy(0, 4), objectsOwnedBy(1, 4)...)
	if err := n0.Ingest(1, readingsFor(objs, 1)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	tr := cluster.NewHTTPTransport()
	defer tr.Client.CloseIdleConnections()
	ctx := context.Background()
	peer := n1.Self()

	gathered, err := tr.Send(ctx, peer, &cluster.Request{Op: cluster.OpGather})
	if err != nil {
		t.Fatalf("OpGather: %v", err)
	}
	var theirs []model.ObjectID // ascending, as objs' halves are
	for _, o := range append(objectsOwnedBy(0, 4), objectsOwnedBy(1, 4)...) {
		if n1.Owner(o) == peer { // buckets follow the sorted listener addresses
			theirs = append(theirs, o)
		}
	}
	if got := engine.ObjectsOf(gathered.Infos); !reflect.DeepEqual(got, theirs) {
		t.Fatalf("OpGather summarizes %v, want the peer's objects %v", got, theirs)
	}
	cands := engine.ObjectsOf(gathered.Infos)
	flat, err := tr.Send(ctx, peer, &cluster.Request{Op: cluster.OpDists, Candidates: cands})
	if err != nil {
		t.Fatalf("OpDists: %v", err)
	}
	if len(flat.ObjDists) != len(cands) || flat.Dists != nil {
		t.Fatalf("OpDists reply: %d distributions and map %v, want %d and no map", len(flat.ObjDists), flat.Dists, len(cands))
	}
	evaluated, err := tr.Send(ctx, peer, &cluster.Request{Op: cluster.OpEvaluate, Candidates: cands})
	if err != nil {
		t.Fatalf("OpEvaluate: %v", err)
	}
	want := map[model.ObjectID]map[anchor.ID]float64{}
	for _, od := range flat.ObjDists {
		want[od.Object] = od.Dist.Map()
	}
	if !reflect.DeepEqual(evaluated.Dists, want) {
		t.Errorf("OpEvaluate map form %v, want the flat reply's %v", evaluated.Dists, want)
	}
}

// TestRPCHandlerRejectsBadBodies: the peer endpoint reads at most the body
// cap, and answers a frame it cannot take with a 4xx that says why.
func TestRPCHandlerRejectsBadBodies(t *testing.T) {
	_, n0, _, _, _ := twoNodes(t, 43, nil)
	srv := httptest.NewServer(n0.RPCHandler())
	defer srv.Close()
	post := func(body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	good := (&cluster.Request{Op: cluster.OpPing, From: "node-1"}).Encode(nil)
	if code, msg := post(bytes.NewReader(good)); code != http.StatusOK {
		t.Fatalf("a well-formed ping: %d %s", code, msg)
	}

	future := append([]byte(nil), good...)
	future[0]++
	if code, msg := post(bytes.NewReader(future)); code != http.StatusBadRequest ||
		!strings.Contains(msg, "version 2") || !strings.Contains(msg, "version 1") {
		t.Errorf("unknown version: %d %q, want 400 naming versions 2 and 1", code, msg)
	}
	if code, msg := post(bytes.NewReader(append(append([]byte(nil), good...), 0))); code != http.StatusBadRequest {
		t.Errorf("trailing byte: %d %q, want 400", code, msg)
	}
	if code, msg := post(bytes.NewReader(good[:len(good)-1])); code != http.StatusBadRequest {
		t.Errorf("truncated frame: %d %q, want 400", code, msg)
	}
	// Over the cap, with a declared length and without one (chunked).
	huge := make([]byte, 8<<20+1)
	if code, _ := post(bytes.NewReader(huge)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: %d, want 413", len(huge), code)
	}
	if code, _ := post(io.MultiReader(bytes.NewReader(huge))); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte chunked body: %d, want 413", len(huge), code)
	}
}

// TestPeerRPCBytesCounted: wire volume is readable from /metrics on both
// ends of an RPC, by op and direction.
func TestPeerRPCBytesCounted(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Particle.Ns = 16
	cfg.Seed = 45
	cfg.SlowQueryThreshold = 0
	n0, n1 := twoNodesHTTP(t, cfg)
	objs := append(objectsOwnedBy(0, 3), objectsOwnedBy(1, 3)...)
	if err := n0.Ingest(1, readingsFor(objs, 1)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := n0.RangeQueryContext(context.Background(), floorplan.DefaultOffice().Bounds()); err != nil {
		t.Fatalf("range: %v", err)
	}
	series := func(n *cluster.Node) map[string]float64 {
		var buf bytes.Buffer
		n.Telemetry().Registry().WriteTo(&buf)
		fams, err := obs.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		if fam := fams["repro_peer_rpc_bytes_total"]; fam != nil {
			for _, s := range fam.Samples {
				out[s.Labels["op"]+"/"+s.Labels["dir"]] = s.Value
			}
		}
		return out
	}
	caller, owner := series(n0), series(n1)
	for _, op := range []string{"ingest", "dists"} {
		if caller[op+"/sent"] == 0 || caller[op+"/received"] == 0 {
			t.Errorf("caller counted %v sent, %v received for %s; want both > 0", caller[op+"/sent"], caller[op+"/received"], op)
		}
		if caller[op+"/sent"] != owner[op+"/received"] || caller[op+"/received"] != owner[op+"/sent"] {
			t.Errorf("%s: caller sent/received %v/%v, owner received/sent %v/%v; the two ends disagree",
				op, caller[op+"/sent"], caller[op+"/received"], owner[op+"/received"], owner[op+"/sent"])
		}
	}
	if caller["gather/sent"] != 0 {
		t.Errorf("a range query sent %v gather bytes, want one dists round trip and no gather", caller["gather/sent"])
	}
}
