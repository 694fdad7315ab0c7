package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/anchor"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/wal"
)

// The peer wire format: one frame per Request or Response, written and
// parsed by hand — no reflection, no type descriptors, no maps. DESIGN.md §17
// has the field-by-field layout; Encode below is the same list, in order.
//
//	frame   = version(1) kind(1: 'Q' request, 'R' response) bodyLen(uint32 LE) body
//	int     = zigzag varint          count = uvarint
//	u64/f64 = 8 bytes little-endian  string = count + bytes
//
// Every field is always present, in a fixed order; a change to the layout is
// a new version byte, and a node answers a version it does not speak with an
// error naming both. Masses are raw float64 bits and distributions keep the
// order they were computed in (ascending object, ascending anchor), because
// the evaluator's float sums are pinned to that order: a decoded answer is
// the owner's answer bit for bit, with no sort and no map on either side.
// The decoder checks every count against the bytes left before it allocates
// and rejects bytes after the body. An empty slice decodes to nil, as gob's
// does.
const (
	wireVersion   = 1
	frameRequest  = 'Q'
	frameResponse = 'R'
	headerLen     = 6
)

var le = binary.LittleEndian

// Encode appends the request's frame to dst.
func (r *Request) Encode(dst []byte) []byte {
	dst, body := beginFrame(dst, frameRequest)
	var flags byte
	if r.Query.Historical {
		flags |= 1
	}
	if r.Own {
		flags |= 2
	}
	dst = append(dst, byte(r.Op), flags, byte(r.Query.Kind))
	dst = appendString(dst, r.From)
	dst = le.AppendUint64(dst, r.TraceID)
	dst = binary.AppendVarint(dst, r.DeadlineMillis)
	dst = binary.AppendVarint(dst, int64(r.Time))
	dst = le.AppendUint64(dst, r.Fingerprint)
	dst = wal.AppendReadings(dst, r.Readings)
	w, pt := r.Query.Window, r.Query.Point
	for _, f := range [...]float64{w.Min.X, w.Min.Y, w.Max.X, w.Max.Y, pt.X, pt.Y} {
		dst = appendFloat(dst, f)
	}
	dst = binary.AppendVarint(dst, int64(r.Query.K))
	dst = binary.AppendVarint(dst, int64(r.Query.At))
	dst = binary.AppendVarint(dst, int64(r.Now))
	dst = binary.AppendUvarint(dst, uint64(len(r.Unhealthy)))
	for i := 0; i < len(r.Unhealthy); i += 8 {
		var b byte
		for j, u := range r.Unhealthy[i:min(i+8, len(r.Unhealthy))] {
			if u {
				b |= 1 << j
			}
		}
		dst = append(dst, b)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Candidates)))
	for _, o := range r.Candidates {
		dst = binary.AppendVarint(dst, int64(o))
	}
	dst = binary.AppendVarint(dst, int64(r.Object))
	return endFrame(dst, body)
}

// DecodeRequest parses one request frame.
func DecodeRequest(p []byte) (*Request, error) {
	d, err := openFrame(p, frameRequest)
	if err != nil {
		return nil, err
	}
	r := new(Request)
	r.Op = Op(d.byte())
	flags := d.byte()
	if flags&^3 != 0 {
		d.fail("unknown request flags")
	}
	r.Query.Historical, r.Own = flags&1 != 0, flags&2 != 0
	r.Query.Kind = engine.QueryKind(d.byte())
	if r.Query.Kind > engine.KindOccupancy {
		d.fail("unknown query kind")
	}
	r.From = d.str()
	r.TraceID = d.u64()
	r.DeadlineMillis = d.int()
	r.Time = model.Time(d.int())
	r.Fingerprint = d.u64()
	if d.err == nil {
		var rerr error
		if r.Readings, d.p, rerr = wal.DecodeReadings(d.p); rerr != nil {
			d.fail(rerr.Error())
		}
	}
	w, pt := &r.Query.Window, &r.Query.Point
	for _, f := range [...]*float64{&w.Min.X, &w.Min.Y, &w.Max.X, &w.Max.Y, &pt.X, &pt.Y} {
		*f = d.f64()
	}
	r.Query.K = int(d.int())
	r.Query.At = model.Time(d.int())
	r.Now = model.Time(d.int())
	if n := d.uvarint(); n > uint64(len(d.p))*8 {
		d.fail("unhealthy-reader count exceeds the bytes left")
	} else if n > 0 {
		r.Unhealthy = make([]bool, n)
		for i := range r.Unhealthy {
			r.Unhealthy[i] = d.p[i/8]>>(i%8)&1 != 0
		}
		d.p = d.p[(n+7)/8:]
	}
	if n := d.count(1); n > 0 {
		r.Candidates = make([]model.ObjectID, n)
		for i := range r.Candidates {
			r.Candidates[i] = model.ObjectID(d.int())
		}
	}
	r.Object = model.ObjectID(d.int())
	return r, d.close()
}

// Encode appends the response's frame to dst.
func (r *Response) Encode(dst []byte) []byte {
	dst, body := beginFrame(dst, frameResponse)
	var flags byte
	if r.Rejected {
		flags |= 1
	}
	if r.Shed {
		flags |= 2
	}
	if r.Found {
		flags |= 4
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, int64(r.Now))
	dst = binary.AppendVarint(dst, int64(r.Accepted))
	dst = binary.AppendVarint(dst, int64(r.Dropped))
	dst = appendString(dst, r.DropKind)
	dst = binary.AppendVarint(dst, int64(r.RetryAfterSeconds))
	dst = binary.AppendUvarint(dst, uint64(len(r.Infos)))
	for _, in := range r.Infos {
		dst = binary.AppendVarint(dst, int64(in.Object))
		dst = binary.AppendVarint(dst, int64(in.Reader))
		dst = binary.AppendVarint(dst, int64(in.LastSeen))
	}
	dst = appendDists(dst, r.ObjDists)
	dst = binary.AppendVarint(dst, int64(r.CandidateCount))
	dst = appendString(dst, r.DeadlineStage)
	dst = binary.AppendUvarint(dst, uint64(len(r.DegradedShards)))
	for _, s := range r.DegradedShards {
		dst = binary.AppendVarint(dst, int64(s))
	}
	l := &r.Loc
	dst = binary.AppendVarint(dst, int64(l.Object))
	dst = appendFloat(appendFloat(dst, l.Mean.X), l.Mean.Y)
	dst = binary.AppendVarint(dst, int64(l.Mode))
	dst = appendFloat(dst, l.ModeProb)
	dst = binary.AppendVarint(dst, int64(l.Room))
	dst = appendFloat(appendFloat(dst, l.RoomProb), l.Entropy)
	return endFrame(dst, body)
}

// DecodeResponse parses one response frame.
func DecodeResponse(p []byte) (*Response, error) {
	d, err := openFrame(p, frameResponse)
	if err != nil {
		return nil, err
	}
	r := new(Response)
	flags := d.byte()
	if flags&^7 != 0 {
		d.fail("unknown response flags")
	}
	r.Rejected, r.Shed, r.Found = flags&1 != 0, flags&2 != 0, flags&4 != 0
	r.Now = model.Time(d.int())
	r.Accepted = int(d.int())
	r.Dropped = int(d.int())
	r.DropKind = d.str()
	r.RetryAfterSeconds = int(d.int())
	if n := d.count(3); n > 0 {
		r.Infos = make([]query.ObjectInfo, n)
		for i := range r.Infos {
			r.Infos[i] = query.ObjectInfo{
				Object:   model.ObjectID(d.int()),
				Reader:   model.ReaderID(d.int()),
				LastSeen: model.Time(d.int()),
			}
		}
	}
	r.ObjDists = d.dists()
	r.CandidateCount = int(d.int())
	r.DeadlineStage = d.str()
	if n := d.count(1); n > 0 {
		r.DegradedShards = make([]int, n)
		for i := range r.DegradedShards {
			r.DegradedShards[i] = int(d.int())
		}
	}
	l := &r.Loc
	l.Object = model.ObjectID(d.int())
	l.Mean.X, l.Mean.Y = d.f64(), d.f64()
	l.Mode = anchor.ID(d.int())
	l.ModeProb = d.f64()
	l.Room = floorplan.RoomID(d.int())
	l.RoomProb, l.Entropy = d.f64(), d.f64()
	return r, d.close()
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return le.AppendUint64(dst, math.Float64bits(f))
}

func appendDists(dst []byte, dists []anchor.ObjDist) []byte {
	total := 0
	for i := range dists {
		total += len(dists[i].Dist.IDs)
	}
	dst = binary.AppendUvarint(dst, uint64(len(dists)))
	dst = binary.AppendUvarint(dst, uint64(total))
	for i := range dists {
		d := &dists[i].Dist
		dst = binary.AppendVarint(dst, int64(dists[i].Object))
		dst = binary.AppendUvarint(dst, uint64(len(d.IDs)))
		for _, id := range d.IDs {
			dst = binary.AppendVarint(dst, int64(id))
		}
		for _, p := range d.P[:len(d.IDs)] {
			dst = appendFloat(dst, p)
		}
	}
	return dst
}

// beginFrame appends a frame header with the length left open; endFrame
// fills it in once the body, which starts at the returned offset, is there.
func beginFrame(dst []byte, kind byte) ([]byte, int) {
	dst = append(dst, wireVersion, kind, 0, 0, 0, 0)
	return dst, len(dst)
}

func endFrame(dst []byte, body int) []byte {
	le.PutUint32(dst[body-4:], uint32(len(dst)-body))
	return dst
}

// wireDecoder reads a frame body front to back. The first failure sticks:
// later reads return zeros, and close reports it.
type wireDecoder struct {
	p   []byte
	err error
}

func openFrame(p []byte, kind byte) (*wireDecoder, error) {
	if len(p) < headerLen {
		return nil, fmt.Errorf("cluster: wire frame of %d bytes is shorter than its header", len(p))
	}
	if p[0] != wireVersion {
		return nil, fmt.Errorf("cluster: wire frame is version %d, this node speaks version %d", p[0], wireVersion)
	}
	if p[1] != kind {
		return nil, fmt.Errorf("cluster: wire frame kind %q, want %q", p[1], kind)
	}
	if n := le.Uint32(p[2:]); uint64(n) != uint64(len(p)-headerLen) {
		return nil, fmt.Errorf("cluster: wire frame declares a %d-byte body, %d bytes follow its header", n, len(p)-headerLen)
	}
	return &wireDecoder{p: p[headerLen:]}, nil
}

func (d *wireDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("cluster: bad wire frame: %s", what)
	}
	d.p = nil
}

// close reports the first failure, or the bytes left over after the last
// field.
func (d *wireDecoder) close() error {
	if d.err == nil && len(d.p) != 0 {
		d.fail(fmt.Sprintf("%d bytes after the last field", len(d.p)))
	}
	return d.err
}

func (d *wireDecoder) byte() byte {
	if len(d.p) < 1 {
		d.fail("truncated")
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

func (d *wireDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *wireDecoder) int() int64 {
	v, n := binary.Varint(d.p)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *wireDecoder) u64() uint64 {
	if len(d.p) < 8 {
		d.fail("truncated")
		return 0
	}
	v := le.Uint64(d.p)
	d.p = d.p[8:]
	return v
}

func (d *wireDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads the length prefix of a list whose elements take at least
// elemBytes each, and refuses one the bytes left could not hold — before the
// caller allocates for it.
func (d *wireDecoder) count(elemBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.p)/elemBytes) {
		d.fail(fmt.Sprintf("count %d exceeds the %d bytes left", n, len(d.p)))
		return 0
	}
	return int(n)
}

func (d *wireDecoder) str() string {
	n := d.count(1)
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

// dists decodes the distributions into two backing arrays sized by the
// declared total, so a reply of any number of objects costs three
// allocations.
func (d *wireDecoder) dists() []anchor.ObjDist {
	n := d.count(2)     // object + count
	total := d.count(9) // anchor ID + mass
	if n == 0 && total != 0 {
		d.fail("masses declared for no objects")
	}
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]anchor.ObjDist, n)
	ids, ps := make([]anchor.ID, total), make([]float64, total)
	for i := range out {
		out[i].Object = model.ObjectID(d.int())
		m := d.count(9)
		if m > len(ids) {
			d.fail("per-object mass counts exceed the declared total")
		}
		if d.err != nil {
			return nil
		}
		if m == 0 {
			continue
		}
		dist := anchor.Dist{IDs: ids[:m:m], P: ps[:m:m]}
		ids, ps = ids[m:], ps[m:]
		for j := range dist.IDs {
			dist.IDs[j] = anchor.ID(d.int())
		}
		if len(d.p) < 8*m {
			d.fail("truncated masses")
			return nil
		}
		for j := range dist.P {
			dist.P[j] = math.Float64frombits(le.Uint64(d.p[8*j:]))
		}
		d.p = d.p[8*m:]
		out[i].Dist = dist
	}
	if len(ids) != 0 {
		d.fail("declared total exceeds the per-object mass counts")
		return nil
	}
	return out
}

// framePool recycles frame buffers between RPCs; one that grew past
// maxPooledFrame is left to the collector rather than pinned.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 1 << 20

func getFrame() *[]byte { return framePool.Get().(*[]byte) }

func putFrame(bp *[]byte, frame []byte) {
	if cap(frame) <= maxPooledFrame {
		*bp = frame[:0]
		framePool.Put(bp)
	}
}
