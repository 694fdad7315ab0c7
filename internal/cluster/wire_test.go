package cluster

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/anchor"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/query"
)

// gobRoundTrip is the codec's oracle: the value as the previous wire format
// (a fresh gob encoder and decoder per call) would have delivered it.
func gobRoundTrip[T any](t testing.TB, src *T) *T {
	t.Helper()
	var buf bytes.Buffer
	dst := new(T)
	if err := gob.NewEncoder(&buf).Encode(src); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(dst); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return dst
}

const (
	maxInt = int(^uint(0) >> 1)
	minInt = -maxInt - 1
)

// wireRequests are hand-built requests covering what the fields can hold:
// every op, empty versus nil slices, the widest and the negative integers,
// and reader sets that do and do not fill their last byte.
func wireRequests() []*Request {
	return []*Request{
		{},
		{Op: OpPing, From: "node-0"},
		{Op: OpIngest, From: "127.0.0.1:18080", TraceID: math.MaxUint64, DeadlineMillis: 1999,
			Time: 77, Fingerprint: 0xdeadbeefcafef00d,
			Readings: []model.RawReading{{Object: 1, Reader: 2, Time: 77}, {Object: model.ObjectID(maxInt), Reader: model.NoReader, Time: math.MinInt64}}},
		{Op: OpIngest, Time: -5, Readings: []model.RawReading{}},
		{Op: OpGather, Query: engine.Query{Historical: true, At: -1}},
		{Op: OpDists, Query: engine.KNNQuery(geom.Pt(20.5, -12.25), 10).AsOf(40),
			Candidates: []model.ObjectID{0, 1, 63, 64, -1, model.ObjectID(maxInt), model.ObjectID(minInt)}},
		{Op: OpDists, Query: engine.RangeQuery(geom.RectWH(5, 9, 25, 14)), Own: true, Now: math.MaxInt64,
			Unhealthy: []bool{false, true, false, false, false, false, false, true, true}},
		{Op: OpDists, Query: engine.OccupancyQuery(), Own: true, Unhealthy: make([]bool, 16), Candidates: []model.ObjectID{}},
		{Op: OpDists, Query: engine.Query{Kind: engine.KindRange, K: minInt,
			Window: geom.Rect{Min: geom.Pt(math.Inf(-1), math.SmallestNonzeroFloat64), Max: geom.Pt(math.MaxFloat64, math.Copysign(0, -1))}}},
		{Op: OpLocalize, Object: 12345},
		{Op: Op(200), DeadlineMillis: math.MinInt64},
	}
}

func wireResponses() []*Response {
	return []*Response{
		{},
		{Now: 80, Accepted: 1750, Dropped: 3, DropKind: "late", Rejected: true},
		{Shed: true, RetryAfterSeconds: 7},
		{Now: -9, Infos: []query.ObjectInfo{{Object: 0, Reader: 0, LastSeen: 0}, {Object: model.ObjectID(maxInt), Reader: model.NoReader, LastSeen: math.MinInt64}}},
		{Infos: []query.ObjectInfo{}, ObjDists: []anchor.ObjDist{}, DegradedShards: []int{}},
		{CandidateCount: 3, DeadlineStage: "preprocess", DegradedShards: []int{2, 15},
			ObjDists: []anchor.ObjDist{
				{Object: 4, Dist: anchor.Dist{IDs: []anchor.ID{0, 63, 64, 8191}, P: []float64{0.25, 0.5, 0.125, 0.125}}},
				{Object: 9},
				{Object: 11, Dist: anchor.Dist{IDs: []anchor.ID{}, P: []float64{}}},
				{Object: model.ObjectID(maxInt), Dist: anchor.Dist{IDs: []anchor.ID{anchor.ID(maxInt)}, P: []float64{math.SmallestNonzeroFloat64}}},
			}},
		{Found: true, Loc: engine.Localization{Object: 7, Mean: geom.Pt(3.5, 4.25), Mode: 12, ModeProb: 0.75,
			Room: -1, RoomProb: 1.0 / 3, Entropy: 0.6931471805599453}},
	}
}

// TestWireCodecMatchesGob: what the codec delivers is, value for value, what
// gob delivered — nil for an empty slice included — and float fields keep
// their bits, NaN payloads too.
func TestWireCodecMatchesGob(t *testing.T) {
	for i, req := range wireRequests() {
		got, err := DecodeRequest(req.Encode(nil))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if want := gobRoundTrip(t, req); !reflect.DeepEqual(got, want) {
			t.Errorf("request %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	for i, resp := range wireResponses() {
		got, err := DecodeResponse(resp.Encode(nil))
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if want := gobRoundTrip(t, resp); !reflect.DeepEqual(got, want) {
			t.Errorf("response %d:\n got %+v\nwant %+v", i, got, want)
		}
	}

	nan := math.Float64frombits(0x7ff8dead0000beef)
	resp := &Response{ObjDists: []anchor.ObjDist{{Object: 1, Dist: anchor.Dist{IDs: []anchor.ID{3}, P: []float64{nan}}}}}
	got, err := DecodeResponse(resp.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(got.ObjDists[0].Dist.P[0]); bits != math.Float64bits(nan) {
		t.Errorf("mass bits %x, want %x", bits, math.Float64bits(nan))
	}
}

// TestWireRejectsMalformedFrames: each way a frame can lie about itself is an
// error, not a panic and not a large allocation.
func TestWireRejectsMalformedFrames(t *testing.T) {
	good := wireRequests()[2].Encode(nil)
	reframe := func(body []byte) []byte {
		out := append([]byte{wireVersion, frameRequest, 0, 0, 0, 0}, body...)
		le.PutUint32(out[2:], uint32(len(body)))
		return out
	}
	cases := map[string][]byte{
		"empty":            nil,
		"header only":      good[:headerLen-1],
		"response kind":    wireResponses()[1].Encode(nil),
		"truncated":        good[:len(good)-1],
		"trailing frame":   append(append([]byte(nil), good...), 0),
		"trailing field":   reframe(append(append([]byte(nil), good[headerLen:]...), 0)),
		"unknown flags":    reframe(append([]byte{byte(OpPing), 0x80}, good[headerLen+2:]...)),
		"unknown kind":     reframe(append([]byte{byte(OpPing), 0, 9}, good[headerLen+3:]...)),
		"huge from length": reframe([]byte{byte(OpPing), 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}),
	}
	for name, frame := range cases {
		if _, err := DecodeRequest(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	future := append([]byte(nil), good...)
	future[0] = wireVersion + 1
	_, err := DecodeRequest(future)
	if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("unknown version: %v, want an error naming versions 2 and 1", err)
	}

	// A reply declaring more masses than its bytes could hold is refused
	// before the backing arrays are made.
	body := []byte{0 /* flags */, 0, 0, 0, 0, 0 /* now … retryAfter */, 0 /* no infos */, 1 /* one object */, 0xff, 0xff, 0xff, 0x7f /* 2^28-1 masses */, 2, 1, 2}
	lying := append([]byte{wireVersion, frameResponse, 0, 0, 0, 0}, body...)
	le.PutUint32(lying[2:], uint32(len(body)))
	if _, err := DecodeResponse(lying); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized mass count: %v, want a count error", err)
	}
}

// hasNaN reports a NaN anywhere in v's floats: reflect.DeepEqual cannot
// compare such values, so the fuzz target leaves them to the bit-level check
// in TestWireCodecMatchesGob.
func hasNaN(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float64:
		return math.IsNaN(v.Float())
	case reflect.Ptr:
		return !v.IsNil() && hasNaN(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if hasNaN(v.Field(i)) {
				return true
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if hasNaN(v.Index(i)) {
				return true
			}
		}
	}
	return false
}

// decodeAllocBytes is how much heap both decoders allocate for data. A
// measurement over limit is taken again, and the least counts, because the
// process's other goroutines (the fuzzing worker's own) allocate now and then.
func decodeAllocBytes(data []byte, limit uint64) uint64 {
	least := uint64(math.MaxUint64)
	for try := 0; try < 3 && least > limit; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		DecodeRequest(data)
		DecodeResponse(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzWireCodec feeds the decoders arbitrary bytes. They must never panic and
// never allocate more than a small multiple of the input (a frame's counts
// are checked against the bytes that follow them); and whatever does decode
// is a structured value the codec must carry exactly as gob does: re-encoded
// and decoded again it equals both itself and its gob round trip.
func FuzzWireCodec(f *testing.F) {
	for _, r := range wireRequests() {
		f.Add(r.Encode(nil))
	}
	for _, r := range wireResponses() {
		f.Add(r.Encode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{wireVersion, frameRequest, 0xff, 0xff, 0xff, 0xff})
	f.Add(benchResponse(benchDists(160, 1658)).Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, qerr := DecodeRequest(data)
		resp, rerr := DecodeResponse(data)
		// The worst ratio is a reply of empty distributions: 2 bytes on the
		// wire, a 56-byte ObjDist in memory.
		limit := uint64(32*len(data) + 4096)
		if got := decodeAllocBytes(data, limit); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if qerr == nil && !hasNaN(reflect.ValueOf(req)) {
			again, err := DecodeRequest(req.Encode(nil))
			if err != nil {
				t.Fatalf("re-decode request: %v", err)
			}
			if want := gobRoundTrip(t, req); !reflect.DeepEqual(again, want) || !reflect.DeepEqual(again, req) {
				t.Fatalf("request diverges:\n  decoded %+v\nre-decoded %+v\n      gob %+v", req, again, want)
			}
		}
		if rerr == nil && !hasNaN(reflect.ValueOf(resp)) {
			again, err := DecodeResponse(resp.Encode(nil))
			if err != nil {
				t.Fatalf("re-decode response: %v", err)
			}
			if want := gobRoundTrip(t, resp); !reflect.DeepEqual(again, want) || !reflect.DeepEqual(again, resp) {
				t.Fatalf("response diverges:\n  decoded %+v\nre-decoded %+v\n      gob %+v", resp, again, want)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// A realistic peer share of one query on the cluster_mixed workload: 500
// object summaries, 160 candidates carrying 1,658 anchor masses, and a
// forwarded sub-batch of 1,750 readings.

func benchInfos(n int) []query.ObjectInfo {
	rng := rand.New(rand.NewSource(1))
	infos := make([]query.ObjectInfo, n)
	for i := range infos {
		infos[i] = query.ObjectInfo{Object: model.ObjectID(2*i + 1), Reader: model.ReaderID(rng.Intn(19)), LastSeen: model.Time(1200 + rng.Intn(40))}
	}
	return infos
}

func benchDists(objects, masses int) []anchor.ObjDist {
	rng := rand.New(rand.NewSource(2))
	dists := make([]anchor.ObjDist, objects)
	for i := range dists {
		m := masses / objects
		if i < masses%objects {
			m++
		}
		d := anchor.Dist{IDs: make([]anchor.ID, m), P: make([]float64, m)}
		id := rng.Intn(400)
		for j := range d.IDs {
			id += 1 + rng.Intn(6)
			d.IDs[j], d.P[j] = anchor.ID(id), rng.Float64()/float64(m)
		}
		dists[i] = anchor.ObjDist{Object: model.ObjectID(6*i + 1), Dist: d}
	}
	return dists
}

func benchReadings(n int) []model.RawReading {
	rng := rand.New(rand.NewSource(3))
	raws := make([]model.RawReading, n)
	for i := range raws {
		raws[i] = model.RawReading{Object: model.ObjectID(rng.Intn(2000)), Reader: model.ReaderID(rng.Intn(19)), Time: 1234}
	}
	return raws
}

func benchResponse(dists []anchor.ObjDist) *Response {
	return &Response{ObjDists: dists, CandidateCount: len(dists)}
}

// TestDistsDecodeAllocations pins the flat reply's decode cost: the
// distributions land in two backing arrays, so 160 objects cost a handful of
// allocations, not two slices each (and nothing like gob's thousands).
func TestDistsDecodeAllocations(t *testing.T) {
	frame := benchResponse(benchDists(160, 1658)).Encode(nil)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeResponse(frame); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decoding a 160-object reply: %.0f allocations", allocs)
	if allocs > 8 {
		t.Errorf("decoding a 160-object reply: %.0f allocations, want at most 8", allocs)
	}
}
