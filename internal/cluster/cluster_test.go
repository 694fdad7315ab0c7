package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/rfid"
	"repro/internal/shardmap"
	"repro/internal/sim/netsim"
)

// twoNodes builds a two-node netsim cluster over memory-only single-shard
// engines, with probes disabled so breaker transitions happen only at the
// test's own boundaries.
func twoNodes(t *testing.T, seed int64, tweak func(*cluster.Config)) (*netsim.Network, *cluster.Node, *cluster.Node, *engine.System, *engine.System) {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Particle.Ns = 16
	cfg.Seed = seed
	cfg.SlowQueryThreshold = 0
	return twoNodesOver(t, cfg, tweak)
}

// twoNodesOver is twoNodes with the engine configuration given; it enforces
// the cluster determinism preconditions (in-order stream, no per-node reader
// health monitor).
func twoNodesOver(t *testing.T, cfg engine.Config, tweak func(*cluster.Config)) (*netsim.Network, *cluster.Node, *cluster.Node, *engine.System, *engine.System) {
	t.Helper()
	cfg.Health = health.Config{}
	net := netsim.New(cfg.Seed)
	addrs := [2]string{"node-0", "node-1"}
	nodes, engs := buildNodes(t, cfg, addrs, net.Transport, tweak)
	for i, addr := range addrs {
		net.AddNode(addr, nodes[i])
	}
	return net, nodes[0], nodes[1], engs[0], engs[1]
}

// buildNodes builds one node per address over memory-only single-shard
// engines fed an in-order stream, each with the transport made for it, with
// probes disabled so breaker transitions happen only at the test's own
// boundaries.
func buildNodes(t *testing.T, cfg engine.Config, addrs [2]string, transport func(self string) cluster.Transport, tweak func(*cluster.Config)) ([2]*cluster.Node, [2]*engine.System) {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg.Ingest.Horizon = 0
	var nodes [2]*cluster.Node
	var engs [2]*engine.System
	for i, self := range addrs {
		eng, err := engine.New(plan, dep, cfg)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		ccfg := cluster.Config{
			Self:      self,
			Peers:     addrs[:],
			Transport: transport(self),
			ProbeBase: 24 * time.Hour,
			ProbeMax:  24 * time.Hour,
			Seed:      cfg.Seed,
		}
		if tweak != nil {
			tweak(&ccfg)
		}
		node, err := cluster.New(eng, ccfg)
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", self, err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i], engs[i] = node, eng
	}
	return nodes, engs
}

// twoNodesHTTP is twoNodesOver on real sockets: each node's RPC handler on a
// loopback listener, the nodes talking through one HTTPTransport.
func twoNodesHTTP(t *testing.T, cfg engine.Config) (*cluster.Node, *cluster.Node) {
	t.Helper()
	cfg.Health = health.Config{}
	var srvs [2]*httptest.Server
	var addrs [2]string
	for i := range srvs {
		srvs[i] = httptest.NewUnstartedServer(nil)
		addrs[i] = srvs[i].Listener.Addr().String()
	}
	tr := cluster.NewHTTPTransport()
	nodes, _ := buildNodes(t, cfg, addrs, func(string) cluster.Transport { return tr }, nil)
	for i, srv := range srvs {
		mux := http.NewServeMux()
		mux.Handle("POST /cluster/rpc", nodes[i].RPCHandler())
		srv.Config.Handler = mux
		srv.Start()
		t.Cleanup(srv.Close)
	}
	t.Cleanup(tr.Client.CloseIdleConnections)
	return nodes[0], nodes[1]
}

// objectsOwnedBy returns count object IDs whose two-member owner is the
// given bucket.
func objectsOwnedBy(bucket, count int) []model.ObjectID {
	out := make([]model.ObjectID, 0, count)
	for id := model.ObjectID(1); len(out) < count; id++ {
		if shardmap.Of(id, 2) == bucket {
			out = append(out, id)
		}
	}
	return out
}

func readingsFor(objs []model.ObjectID, t model.Time) []model.RawReading {
	raws := make([]model.RawReading, len(objs))
	for i, o := range objs {
		raws[i] = model.RawReading{Object: o, Reader: model.ReaderID(i % rfid.DefaultReaders), Time: t}
	}
	return raws
}

// TestForwardingRoutesToOwner ingests through node-0 a batch whose objects
// all belong to node-1: every reading must land in node-1's engine, none in
// node-0's, and both nodes must answer queries over them identically.
func TestForwardingRoutesToOwner(t *testing.T) {
	_, n0, n1, e0, e1 := twoNodes(t, 5, nil)
	objs := objectsOwnedBy(1, 5)
	for sec := model.Time(1); sec <= 3; sec++ {
		if err := n0.Ingest(sec, readingsFor(objs, sec)); err != nil {
			t.Fatalf("ingest t=%d: %v", sec, err)
		}
	}
	if got := e0.Stats().ReadingsIngested; got != 0 {
		t.Errorf("node-0 engine ingested %d readings it does not own", got)
	}
	if got, want := e1.Stats().ReadingsIngested, 15; got != want {
		t.Errorf("node-1 engine ingested %d, want %d", got, want)
	}
	if got, want := n0.Now(), n1.Now(); got != want {
		t.Errorf("clocks disagree: node-0 %d node-1 %d", got, want)
	}
	known0, known1 := n0.KnownObjects(), n1.KnownObjects()
	if len(known0) != len(objs) || len(known1) != len(objs) {
		t.Errorf("cluster-wide objects: node-0 %v node-1 %v, want %d objects", known0, known1, len(objs))
	}
}

// TestIdempotentForwardRetry drops the reply of one forwarded ingest: the
// owner applied the batch, the forwarder retries, and the idempotency cache
// must re-ack instead of double-counting.
func TestIdempotentForwardRetry(t *testing.T) {
	net, n0, _, _, e1 := twoNodes(t, 7, func(c *cluster.Config) {
		c.Retry = engine.RetryConfig{Max: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	})
	objs := objectsOwnedBy(1, 4)
	net.Install(netsim.Rule{From: "node-0", To: "node-1", DropReply: true, Times: 1})
	if err := n0.Ingest(1, readingsFor(objs, 1)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if got, want := e1.Stats().ReadingsIngested, len(objs); got != want {
		t.Errorf("owner ingested %d readings, want %d (lost-reply retry must not double-count)", got, want)
	}
	st := n0.ClusterStatus()
	if st.Peers[0].AckedReadings != int64(len(objs)) {
		t.Errorf("forwarder acked %d, want %d", st.Peers[0].AckedReadings, len(objs))
	}
	if st.Peers[0].Retries == 0 {
		t.Error("no retry recorded; the drop-reply rule never bit")
	}
}

// TestDuplicateDeliveryDeduped duplicates a forwarded ingest in flight: the
// second application must hit the idempotency cache.
func TestDuplicateDeliveryDeduped(t *testing.T) {
	net, n0, _, _, e1 := twoNodes(t, 9, nil)
	objs := objectsOwnedBy(1, 4)
	net.Install(netsim.Rule{From: "node-0", To: "node-1", Duplicate: true, Times: 1})
	if err := n0.Ingest(1, readingsFor(objs, 1)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if got, want := e1.Stats().ReadingsIngested, len(objs); got != want {
		t.Errorf("owner ingested %d readings, want %d (duplicate delivery must dedup)", got, want)
	}
}

// TestForgedBatchSecondRefused: a batch second below 1, whether a forged
// peer RPC (the endpoint is unauthenticated) or a library caller's, is a
// rejected, counted KindInvalid delivery that does not open the stream, so
// the next real delivery is accepted. A second of math.MinInt64+1 used to
// open the stream at a watermark wrapped near math.MaxInt64, after which
// every real delivery was refused as late until restart.
func TestForgedBatchSecondRefused(t *testing.T) {
	for _, forged := range []model.Time{0, -5, math.MinInt64 + 1} {
		for _, via := range []string{"rpc", "ingest"} {
			t.Run(fmt.Sprintf("%s/%d", via, forged), func(t *testing.T) {
				_, n0, _, e0, e1 := twoNodes(t, 11, nil)
				objs := append(objectsOwnedBy(0, 3), objectsOwnedBy(1, 3)...)
				raws := readingsFor(objs, forged)
				if via == "rpc" {
					raws = raws[:3] // node-0's own objects, as a forwarder would send them
					resp, err := n0.HandleRPC(context.Background(), &cluster.Request{
						Op: cluster.OpIngest, Time: forged, Readings: raws, Fingerprint: ingest.Fingerprint(raws),
					})
					if err != nil {
						t.Fatalf("HandleRPC: %v", err)
					}
					if !resp.Rejected || resp.Dropped != len(raws) {
						t.Errorf("forged second acked: rejected %v dropped %d, want rejected, %d dropped", resp.Rejected, resp.Dropped, len(raws))
					}
				} else {
					err := n0.Ingest(forged, raws)
					var ie *ingest.Error
					if !errors.As(err, &ie) || !ie.Rejected || ie.Kind != ingest.KindInvalid {
						t.Errorf("Ingest(%d) = %v, want a rejected %v batch", forged, err, ingest.KindInvalid)
					}
				}
				if got := e0.Stats().Ingest.InvalidReadings + e1.Stats().Ingest.InvalidReadings; got != len(raws) {
					t.Errorf("%d invalid readings counted, want %d", got, len(raws))
				}
				if err := n0.Ingest(1, readingsFor(objs, 1)); err != nil {
					t.Fatalf("real delivery after the forged second: %v", err)
				}
				if got := e0.Stats().ReadingsIngested + e1.Stats().ReadingsIngested; got != len(objs) {
					t.Errorf("%d readings ingested after the forged second, want %d", got, len(objs))
				}
				if got := n0.Now(); got != 1 {
					t.Errorf("clock %d after the first real second, want 1", got)
				}
			})
		}
	}
}

// TestUnreachableOwnerDegrades kills node-1: forwarded ingest becomes a
// typed unreachable drop, queries answer partial naming the peer, and the
// breaker walks SUSPECT then DEAD; after heal the peer catches up.
func TestUnreachableOwnerDegrades(t *testing.T) {
	before := runtime.NumGoroutine()
	net, n0, _, e0, e1 := twoNodes(t, 11, nil)
	objs := append(objectsOwnedBy(0, 3), objectsOwnedBy(1, 3)...)
	kill := net.Kill("node-1")
	var sec model.Time
	for sec = 1; sec <= 4; sec++ {
		err := n0.Ingest(sec, readingsFor(objs, sec))
		var ie *ingest.Error
		if !errors.As(err, &ie) || ie.Kind != ingest.KindUnreachable {
			t.Fatalf("ingest t=%d: want typed unreachable error, got %v", sec, err)
		}
		if ie.Dropped != 3 {
			t.Errorf("t=%d: dropped %d, want 3", sec, ie.Dropped)
		}
	}
	if got := e0.Stats().Ingest.UnreachableReadings; got != 12 {
		t.Errorf("unreachable drops in stats = %d, want 12", got)
	}

	_, qerr := n0.RangeQueryContext(context.Background(), floorplan.DefaultOffice().Bounds())
	de, ok := cluster.IsDegraded(qerr)
	if !ok {
		t.Fatalf("mid-fault query error = %v, want DegradedError", qerr)
	}
	if len(de.Peers) != 1 || de.Peers[0] != "node-1" {
		t.Errorf("degraded peers = %v, want [node-1]", de.Peers)
	}
	if peers := n0.DegradedPeers(); len(peers) != 1 || peers[0] != "node-1" {
		t.Errorf("DegradedPeers() = %v, want [node-1]", peers)
	}

	kill.Clear()
	if healed := n0.ProbePeers(context.Background()); len(healed) != 1 {
		t.Fatalf("ProbePeers healed %v, want [node-1]", healed)
	}
	if err := n0.Ingest(sec, readingsFor(objs, sec)); err != nil {
		t.Fatalf("post-heal ingest: %v", err)
	}
	if got, want := e1.Now(), n0.Now(); got != want {
		t.Errorf("healed peer clock %d, want %d (catch-up seconds must replay)", got, want)
	}
	if peers := n0.DegradedPeers(); peers != nil {
		t.Errorf("DegradedPeers() after heal = %v, want none", peers)
	}
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

// shedTransport wraps a real transport and turns every evaluate RPC into an
// owner-side shed.
type shedTransport struct{ inner cluster.Transport }

func (s *shedTransport) Send(ctx context.Context, addr string, req *cluster.Request) (*cluster.Response, error) {
	if req.Op == cluster.OpDists {
		return &cluster.Response{Shed: true, RetryAfterSeconds: 7}, nil
	}
	return s.inner.Send(ctx, addr, req)
}

// TestShedRelaysOwnersEstimate makes the remote owner shed every forwarded
// evaluate: the coordinator must return a typed ShedError carrying the
// OWNER's Retry-After estimate verbatim.
func TestShedRelaysOwnersEstimate(t *testing.T) {
	net, n0, _, _, _ := twoNodes(t, 13, func(c *cluster.Config) {
		c.Transport = &shedTransport{inner: net0Transport(c.Transport)}
	})
	_ = net
	objs := append(objectsOwnedBy(0, 3), objectsOwnedBy(1, 3)...)
	if err := n0.Ingest(1, readingsFor(objs, 1)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	_, qerr := n0.RangeQueryContext(context.Background(), floorplan.DefaultOffice().Bounds())
	se, ok := cluster.IsShed(qerr)
	if !ok {
		t.Fatalf("query error = %v, want ShedError", qerr)
	}
	if se.Peer != "node-1" || se.RetryAfterSeconds != 7 {
		t.Errorf("shed = %+v, want peer node-1 retry 7s", se)
	}
}

// net0Transport is a helper for tests that wrap the generated transport.
func net0Transport(inner cluster.Transport) cluster.Transport { return inner }

// capturingTransport records the trace ID of every request it carries.
type capturingTransport struct {
	inner cluster.Transport
	ids   []uint64
}

func (c *capturingTransport) Send(ctx context.Context, addr string, req *cluster.Request) (*cluster.Response, error) {
	c.ids = append(c.ids, req.TraceID)
	return c.inner.Send(ctx, addr, req)
}

// TestTraceIDPropagates attaches a trace to the ingest context and checks
// every forward carried its ID.
func TestTraceIDPropagates(t *testing.T) {
	var cap0 *capturingTransport
	_, n0, _, _, _ := twoNodes(t, 15, func(c *cluster.Config) {
		if c.Self == "node-0" {
			cap0 = &capturingTransport{inner: c.Transport}
			c.Transport = cap0
		}
	})
	tracer := trace.New(trace.Config{Sample: 1})
	tc := tracer.Start("ingest")
	ctx := trace.With(context.Background(), tc)
	objs := objectsOwnedBy(1, 2)
	if err := n0.IngestContext(ctx, 1, readingsFor(objs, 1)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	tracer.Finish(tc)
	if len(cap0.ids) == 0 {
		t.Fatal("no forwards captured")
	}
	for i, id := range cap0.ids {
		if id != tc.ID() {
			t.Errorf("forward %d carried trace ID %x, want %x", i, id, tc.ID())
		}
	}
}

// TestOwnershipStability is the membership property test: every node
// computes the identical ownership table regardless of peer-list order, and
// growing the membership from N to N+1 remaps at most ~1/(N+1) of the keys
// (jump-hash minimal disruption), with slack for sampling noise.
func TestOwnershipStability(t *testing.T) {
	const keys = 20000
	for n := 2; n <= 8; n++ {
		moved := 0
		for id := model.ObjectID(0); id < keys; id++ {
			if shardmap.Of(id, n) != shardmap.Of(id, n+1) {
				moved++
			}
		}
		frac := float64(moved) / keys
		want := 1.0 / float64(n+1)
		if frac > want*1.25 {
			t.Errorf("N=%d -> %d: moved %.4f of keys, want <= ~%.4f", n, n+1, frac, want)
		}
		if moved == 0 {
			t.Errorf("N=%d -> %d: no keys moved; growth would leave the new node empty", n, n+1)
		}
	}

	// Identical tables across nodes: construction sorts the membership, so
	// differently-ordered peer lists must agree on every owner.
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := engine.DefaultConfig()
	cfg.Particle.Ns = 8
	mkNode := func(self string, peers []string) *cluster.Node {
		eng, err := engine.New(plan, dep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		node, err := cluster.New(eng, cluster.Config{
			Self: self, Peers: peers, Transport: netsim.New(1).Transport(self),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		return node
	}
	a := mkNode("alpha:1", []string{"gamma:3", "alpha:1", "beta:2"})
	b := mkNode("beta:2", []string{"beta:2", "gamma:3", "alpha:1"})
	for id := model.ObjectID(0); id < 1000; id++ {
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("object %d: node a says owner %s, node b says %s", id, a.Owner(id), b.Owner(id))
		}
	}
}
