package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/health"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/shardmap"
)

// gatedEngine holds every non-empty ingest inside the engine call until
// released, announcing each arrival.
type gatedEngine struct {
	*engine.System
	entered chan struct{} // buffered: an arrival never blocks on the test
	release chan struct{}
}

func (g *gatedEngine) IngestContext(ctx context.Context, t model.Time, raws []model.RawReading) error {
	if len(raws) > 0 {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.System.IngestContext(ctx, t, raws)
}

// retryingTransport delivers every forwarded sub-batch twice, the second
// while the first is still inside the owner's engine — a forwarder whose
// attempt timed out retrying at once — and hands the forwarder the retry's
// reply.
type retryingTransport struct {
	owner *Node
	gate  *gatedEngine
	acks  []*Response
}

func (rt *retryingTransport) Send(ctx context.Context, _ string, req *Request) (*Response, error) {
	if req.Op != OpIngest || len(req.Readings) == 0 {
		return rt.owner.HandleRPC(ctx, req)
	}
	type reply struct {
		resp *Response
		err  error
	}
	deliver := func(out chan<- reply) {
		wire, err := DecodeRequest(req.Encode(nil))
		if err != nil {
			out <- reply{nil, err}
			return
		}
		resp, err := rt.owner.HandleRPC(ctx, wire)
		out <- reply{resp, err}
	}
	first, retry := make(chan reply, 1), make(chan reply, 1)
	go deliver(first)
	<-rt.gate.entered // the first attempt is inside IngestContext
	go deliver(retry)
	// Give the retry time to reach the idempotency check. Should it get there
	// late instead, it finds the finished ack — the same outcome, a weaker
	// test.
	time.Sleep(20 * time.Millisecond)
	close(rt.gate.release)
	a, b := <-first, <-retry
	rt.acks = append(rt.acks, a.resp, b.resp)
	return b.resp, errors.Join(a.err, b.err)
}

// TestRetryDuringFirstApplication: a retransmission that arrives while the
// first attempt is still being applied must wait for it and return its ack.
// Before the in-flight entry existed it missed the cache, was refused as a
// late batch, replaced the cached ack with the refusal and pushed the key
// into the eviction queue a second time; the forwarder then booked drops for
// readings the owner had ingested.
func TestRetryDuringFirstApplication(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := engine.DefaultConfig()
	cfg.Particle.Ns = 16
	cfg.SlowQueryThreshold = 0
	cfg.Ingest.Horizon = 0
	cfg.Health = health.Config{}
	members := []string{"node-0", "node-1"}

	gate := &gatedEngine{System: engine.MustNew(plan, dep, cfg), entered: make(chan struct{}, 2), release: make(chan struct{})}
	unused := transportFunc(func(context.Context, string, *Request) (*Response, error) {
		return nil, errors.New("the owner sends nothing in this test")
	})
	owner, err := New(gate, Config{Self: "node-1", Peers: members, Transport: unused})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	rt := &retryingTransport{owner: owner, gate: gate}
	fwd, err := New(engine.MustNew(plan, dep, cfg), Config{Self: "node-0", Peers: members, Transport: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	var raws []model.RawReading
	for id := model.ObjectID(1); len(raws) < 5; id++ {
		if shardmap.Of(id, 2) == 1 {
			raws = append(raws, model.RawReading{Object: id, Reader: model.ReaderID(len(raws)), Time: 1})
		}
	}
	if err := fwd.Ingest(1, raws); err != nil {
		t.Fatalf("forwarder reports %v for a batch the owner ingested", err)
	}
	if len(rt.acks) != 2 {
		t.Fatalf("%d acks recorded, want the first attempt's and the retry's", len(rt.acks))
	}
	for i, ack := range rt.acks {
		if ack == nil || ack.Accepted != len(raws) || ack.Rejected || ack.Dropped != 0 {
			t.Errorf("delivery %d acked %+v, want %d accepted", i, ack, len(raws))
		}
	}
	if got := gate.Stats().ReadingsIngested; got != len(raws) {
		t.Errorf("owner ingested %d readings, want %d exactly once", got, len(raws))
	}
	if p := fwd.ClusterStatus().Peers[0]; p.AckedReadings != int64(len(raws)) || p.RemoteDropped != 0 || p.DroppedReadings != 0 {
		t.Errorf("forwarder's ledger: acked %d, refused %d, dropped %d; want %d, 0, 0", p.AckedReadings, p.RemoteDropped, p.DroppedReadings, len(raws))
	}
	owner.idemMu.Lock()
	defer owner.idemMu.Unlock()
	if len(owner.idemFIFO) != len(owner.idem) || len(owner.idem) != 1 {
		t.Errorf("idempotency cache holds %d acks with %d queued for eviction, want 1 and 1", len(owner.idem), len(owner.idemFIFO))
	}
}

// transportFunc adapts a function to Transport.
type transportFunc func(ctx context.Context, addr string, req *Request) (*Response, error)

func (f transportFunc) Send(ctx context.Context, addr string, req *Request) (*Response, error) {
	return f(ctx, addr, req)
}
