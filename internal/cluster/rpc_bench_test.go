package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/anchor"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/rfid"
)

// cannedEngine answers the query and ingest stages at once from fixed data,
// so a round trip against it costs the RPC layer alone.
type cannedEngine struct {
	*engine.System
	infos []query.ObjectInfo
	dists []anchor.ObjDist
}

func (c *cannedEngine) Infos(context.Context, engine.Query) ([]query.ObjectInfo, error) {
	return c.infos, nil
}

func (c *cannedEngine) Dists(context.Context, []model.ObjectID, engine.Query) ([]anchor.ObjDist, error) {
	return c.dists, nil
}

func (c *cannedEngine) OwnDists(context.Context, engine.Query, engine.Scope) ([]anchor.ObjDist, int, error) {
	return c.dists, len(c.dists), nil
}

func (c *cannedEngine) IngestContext(context.Context, model.Time, []model.RawReading) error {
	return nil
}

// gobReply is what a reply was in the wire format this package used before
// wire.go, kept as the benchmark's baseline: distributions as a map of maps,
// rebuilt into sorted slices on arrival.
type gobReply struct {
	Response *Response
	Dists    map[model.ObjectID]map[anchor.ID]float64
}

// gobTrip is one request and its reply through that format — a fresh gob
// encoder and decoder per message — and returns the bytes it put on the wire.
func gobTrip(b *testing.B, req *Request, resp *Response) int {
	var buf bytes.Buffer
	var gotReq Request
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		b.Fatal(err)
	}
	n := buf.Len()
	if err := gob.NewDecoder(&buf).Decode(&gotReq); err != nil {
		b.Fatal(err)
	}
	out := gobReply{Response: &Response{Now: resp.Now, Accepted: resp.Accepted, Infos: resp.Infos, CandidateCount: resp.CandidateCount}}
	if resp.ObjDists != nil {
		out.Dists = make(map[model.ObjectID]map[anchor.ID]float64, len(resp.ObjDists))
		for _, od := range resp.ObjDists {
			out.Dists[od.Object] = od.Dist.Map()
		}
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&out); err != nil {
		b.Fatal(err)
	}
	n += buf.Len()
	var got gobReply
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		b.Fatal(err)
	}
	dists := make([]anchor.ObjDist, 0, len(got.Dists))
	for obj, m := range got.Dists {
		dists = append(dists, anchor.ObjDist{Object: obj, Dist: anchor.DistFromMap(m)})
	}
	sort.Slice(dists, func(i, j int) bool { return dists[i].Object < dists[j].Object })
	benchSink = len(dists) + len(gotReq.Readings) + len(got.Response.Infos)
	return n
}

var benchSink int

// BenchmarkRPCRoundTrip is the peer RPC layer's benchmark (bench-json records
// it): one request and its reply for each of the three payloads a query or a
// delivery puts on the wire, as codec work alone (encode, decode, both
// directions), as the same under the gob baseline, and end to end through an
// HTTPTransport and the RPC handler on a loopback listener.
func BenchmarkRPCRoundTrip(b *testing.B) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	canned := &cannedEngine{System: engine.MustNew(plan, dep, engine.DefaultConfig()), infos: benchInfos(500), dists: benchDists(160, 1658)}
	srv := httptest.NewUnstartedServer(nil)
	addr := srv.Listener.Addr().String()
	tr := NewHTTPTransport()
	node, err := New(canned, Config{Self: addr, Peers: []string{addr, "coordinator"}, Transport: tr})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	srv.Config.Handler = node.RPCHandler()
	srv.Start()
	defer srv.Close()
	defer tr.Client.CloseIdleConnections()

	raws := benchReadings(1750)
	unhealthy := make([]bool, dep.NumReaders())
	cases := []struct {
		name string
		req  *Request
		resp *Response
	}{
		{"gather500", &Request{Op: OpGather, From: "coordinator"}, &Response{Now: 1234, Infos: canned.infos}},
		{"dists160", &Request{Op: OpDists, From: "coordinator", Query: engine.RangeQuery(geom.RectWH(5, 9, 6, 4)), Own: true, Now: 1234, Unhealthy: unhealthy},
			benchResponse(canned.dists)},
		{"ingest1750", &Request{Op: OpIngest, From: "coordinator", Time: 1234, Readings: raws, Fingerprint: ingest.Fingerprint(raws)},
			&Response{Now: 1234, Accepted: len(raws)}},
	}
	for _, c := range cases {
		b.Run(c.name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			var frame []byte
			wire := 0
			for i := 0; i < b.N; i++ {
				frame = c.req.Encode(frame[:0])
				req, err := DecodeRequest(frame)
				if err != nil {
					b.Fatal(err)
				}
				wire = len(frame)
				frame = c.resp.Encode(frame[:0])
				resp, err := DecodeResponse(frame)
				if err != nil {
					b.Fatal(err)
				}
				wire += len(frame)
				benchSink = len(req.Readings) + len(resp.Infos) + len(resp.ObjDists)
			}
			b.ReportMetric(float64(wire), "wire-bytes")
		})
		b.Run(c.name+"/gob", func(b *testing.B) {
			b.ReportAllocs()
			wire := 0
			for i := 0; i < b.N; i++ {
				wire = gobTrip(b, c.req, c.resp)
			}
			b.ReportMetric(float64(wire), "wire-bytes")
		})
		b.Run(c.name+"/loopback", func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			req := *c.req
			for i := 0; i < b.N; i++ {
				req.Time = model.Time(i) // a new sub-batch each time, not an idempotent replay
				resp, err := tr.Send(ctx, addr, &req)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = len(resp.Infos) + len(resp.ObjDists)
			}
		})
	}
}
