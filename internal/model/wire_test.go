package model

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The oracle: the same two structs without the UnmarshalJSON method, so
// encoding/json decodes them by reflection.
type oracleReading struct {
	Object ObjectID
	Reader ReaderID
	Time   Time
}

type oracleBatch struct {
	Time     Time           `json:"time"`
	Readings oracleReadings `json:"readings"`
}

// oracleReadings is decoded by encoding/json too, after the one thing the
// scanner does differently on purpose: what the slice holds past its length
// (a repeated "readings" key can leave elements there) is zeroed first.
type oracleReadings []oracleReading

func (r *oracleReadings) UnmarshalJSON(data []byte) error {
	rs := []oracleReading(*r)
	clear(rs[len(rs):cap(rs)])
	err := json.Unmarshal(data, &rs)
	*r = rs
	return err
}

// canonicalDelivery writes the document the benchmark harness and
// json.Marshal(Batch{...}) produce.
func canonicalDelivery(t Time, raws []RawReading) []byte {
	b := []byte(`{"time":` + strconv.FormatInt(int64(t), 10) + `,"readings":[`)
	for i, r := range raws {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Object":`...)
		b = strconv.AppendInt(b, int64(r.Object), 10)
		b = append(b, `,"Reader":`...)
		b = strconv.AppendInt(b, int64(r.Reader), 10)
		b = append(b, `,"Time":`...)
		b = strconv.AppendInt(b, int64(r.Time), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

func delivery3500() (Time, []RawReading) {
	const t = Time(1234)
	raws := make([]RawReading, 3500)
	for i := range raws {
		raws[i] = RawReading{Object: ObjectID(i * 7 % 2000), Reader: ReaderID(i % 38), Time: t}
	}
	return t, raws
}

// wireSeeds is FuzzBatchDecode's seed corpus; go test runs it on every run.
var wireSeeds = []string{
	// The harness's canonical form and README's curl form.
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":5},{"Object":3,"Reader":4,"Time":5}]}`,
	"{\"time\":1,\"readings\":[\n  {\"Object\":7,\"Reader\":3,\"Time\":1},{\"Object\":8,\"Reader\":5,\"Time\":1}]}\n",
	`{"time":7,"readings":[]}`,
	`{"time":7}`,
	`{}`,
	`null`,
	` { "readings" : [ { "Time" : 9 , "Reader" : 2 , "Object" : 1 } ] , "time" : 9 } `,
	// Almost canonical readings: each follows the canonical spelling part
	// of the way, so the fast path hands it to the general loop.
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":5},{"Object":1.5,"Reader":2,"Time":5}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":1e3,"Time":5},{"Object":1,"Reader":2,"Time":5}]}`,
	`{"time":5,"readings":[{"Object":1234567890123456789,"Reader":2,"Time":5}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":-9999999999999999999}]}`,
	`{"time":5,"readings":[{"Object":999999999999999999,"Reader":-999999999999999999,"Time":-0}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":null},{"Object":1,"Reader":2,"Time":5}]}`,
	`{"time":5,"readings":[{"Object":1,"reader":2,"Time":5}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":5,"Time":6}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":5},{"Object":1,"Reader":2,"Ti`,
	`{"time":5,"readings":[{"Object":1,"Rea`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":5 },{"Object":1,"Reader":2,"Time":5,"x":1},{"Object":1,"Reader":2}]}`,
	`{"time":5,"readings":[{"Object":-0,"Reader":-7,"Time":-5},{"Object":1, "Reader":2,"Time":5},{"Reader":2,"Object":1,"Time":5}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":05}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":5.0}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":-,"Time":5}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":1234567890123456789}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":12345678901234567890}]}`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":5`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":`,
	// Unknown, case-variant and escaped keys.
	`{"gateway":"g-12","time":3,"readings":[{"Object":1,"rssi":-61.5,"Reader":2,"ant":[1,2,{"x":null}]}],"seq":1e9}`,
	`{"TIME":3,"Readings":[{"object":1,"READER":2,"tImE":3}]}`,
	`{"t\u0069me":4,"reading\u017f":[{"Ob\u006aect":1,"Reader":2}],"tim\u212a":1}`,
	"{\"readingſ\":[{\"Object\":5}],\"\\ud83d\\ude00\":1,\"\\ud83d\":2,\"a\\\"\\\\\\/\\b\\f\\n\\r\\t\":3}",
	// Omitted, zero and null fields; null elements and a null array.
	`{"time":8,"readings":[{"Object":1,"Reader":2},{"Object":1,"Reader":2,"Time":0},{"Object":null,"Reader":null,"Time":null},null,{}]}`,
	`{"time":null,"readings":null}`,
	// Integer edges.
	`{"time":-0,"readings":[{"Object":-1,"Reader":-1,"Time":-9223372036854775808}]}`,
	`{"time":9223372036854775807,"readings":[{"Object":9223372036854775807}]}`,
	`{"time":9223372036854775808}`,
	`{"time":-9223372036854775809}`,
	`{"time":123456789012345678901234567890}`,
	`{"time":01}`,
	`{"time":-}`,
	`{"time":+1}`,
	// Floats, exponents, strings and booleans where integers belong.
	`{"time":1.0}`,
	`{"time":1e2}`,
	`{"time":"5"}`,
	`{"time":true}`,
	`{"time":[5]}`,
	`{"time":{"v":5}}`,
	`{"time":5,"readings":[{"Object":1.5}]}`,
	`{"time":5,"readings":[{"Reader":"2"}]}`,
	`{"time":5,"readings":[7]}`,
	`{"time":5,"readings":[[1]]}`,
	`{"time":5,"readings":{"Object":1}}`,
	`{"time":5,"readings":"none"}`,
	`[1,2]`,
	`5`,
	`"delivery"`,
	// Truncated and malformed bodies, trailing data.
	``,
	`{nope`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":5}`,
	`{"time":5,"readings":[{"Object":1,"Reader":2,"Time":5},]}`,
	`{"time":5,"readings":[,]}`,
	`{"time":5,}`,
	`{"time" 5}`,
	`{"time":5 "readings":[]}`,
	`{"time":5,"readings":[{"Object":1} {"Object":2}]}`,
	`{"ti` + "\n" + `me":5}`,
	`{"time":5,"x":"\q"}`,
	`{"time":5,"x":"\u12g4"}`,
	`{"time":5,"x":"abc`,
	`{"time":5,"x":tru}`,
	`{"time":5,"x":1.}`,
	`{"time":5,"x":1e}`,
	`{"time":5,"x":-}`,
	`{"time":5,"x":00}`,
	`{"time":5}{"time":6}`,
	`{"time":5} x`,
	`{"time":5}]`,
	"\ufeff" + `{"time":5}`,
	"{\"time\":5,\"x\":\"\xff\xfe\"}",
	// Duplicate keys: the later one decodes over the earlier one.
	`{"time":1,"time":2}`,
	`{"time":1,"readings":[{"Object":1,"Reader":2,"Time":3}],"readings":[{"Reader":9}]}`,
	`{"readings":[{"Object":1},{"Object":2},{"Object":3}],"readings":[{}],"readings":[{},{},{}]}`,
	`{"readings":[{"Object":1}],"readings":[]}`,
	`{"readings":[{"Object":1}],"readings":null,"readings":[{}]}`,
	`{"readings":[{"Object":1,"Object":2,"object":3}]}`,
	// Deep junk in a skipped value.
	`{"x":` + strings.Repeat(`[{"a":`, 200) + `null` + strings.Repeat(`}]`, 200) + `,"time":5}`,
	`{"x":` + strings.Repeat(`[`, 300) + `,"time":5}`,
}

// diffDecode holds the scanner equal to encoding/json on one document: both
// accept it or both refuse it, and accepted documents decode to the same
// value — through the method directly and through json.Unmarshal, the way
// every other caller reaches it.
func diffDecode(t *testing.T, data []byte) {
	t.Helper()
	var want oracleBatch
	werr := json.Unmarshal(data, &want)
	var got Batch
	gerr := got.UnmarshalJSON(data)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%q: scanner error %v, encoding/json error %v", data, gerr, werr)
	}
	var via Batch
	if verr := json.Unmarshal(data, &via); (verr == nil) != (werr == nil) {
		t.Fatalf("%q: json.Unmarshal into Batch error %v, oracle error %v", data, verr, werr)
	}
	if werr != nil {
		return
	}
	for _, g := range []Batch{got, via} {
		if g.Time != want.Time || len(g.Readings) != len(want.Readings) || (g.Readings == nil) != (want.Readings == nil) {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", data, g, want)
		}
		for i, r := range g.Readings {
			if oracleReading(r) != want.Readings[i] {
				t.Fatalf("%q: reading %d decoded %+v, encoding/json %+v", data, i, r, want.Readings[i])
			}
		}
	}
}

func FuzzBatchDecode(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffDecode(t, data) })
}

func TestBatchDecodeCanonical(t *testing.T) {
	now, raws := delivery3500()
	doc := canonicalDelivery(now, raws)
	diffDecode(t, doc)
	var got Batch
	if err := got.UnmarshalJSON(doc); err != nil {
		t.Fatal(err)
	}
	if got.Time != now || !reflect.DeepEqual(got.Readings, raws) {
		t.Fatalf("canonical document decoded to time %d, %d readings", got.Time, len(got.Readings))
	}
	if std, err := json.Marshal(Batch{Time: now, Readings: raws}); err != nil || !bytes.Equal(std, doc) {
		t.Fatalf("canonicalDelivery disagrees with json.Marshal (err %v)", err)
	}
}

// TestBatchDecodeFallback puts one reading that leaves the canonical
// spelling part of the way through first, in the middle and last in a
// canonical 3,500-reading delivery: the scanner must decode the document
// as encoding/json does wherever the fast path hands over.
func TestBatchDecodeFallback(t *testing.T) {
	now, raws := delivery3500()
	doc := canonicalDelivery(now, raws)
	// The offset of each reading's opening brace, and the document's end.
	var starts []int
	for i := range doc {
		if doc[i] == '{' && i > 0 {
			starts = append(starts, i)
		}
	}
	if len(starts) != len(raws) {
		t.Fatalf("found %d readings in the delivery, want %d", len(starts), len(raws))
	}
	readingEnd := func(k int) int {
		if k+1 < len(starts) {
			return starts[k+1] - 1 // the comma before the next reading
		}
		return len(doc) - 2 // before "]}"
	}
	variants := []string{
		`{"Object":1.5,"Reader":2,"Time":1234}`,
		`{"Object":1,"Reader":1e3,"Time":1234}`,
		`{"Object":1,"Reader":2,"Time":1234E0}`,
		`{"Object":1,"Reader":2,"Time":1234567890123456789}`,
		`{"Object":1,"Reader":2,"Time":9999999999999999999}`,
		`{"Object":-1234567890123456789,"Reader":2,"Time":1234}`,
		`{"Object":1,"Reader":2,"Time":null}`,
		`{"Object":1,"Reader":2,"Time":1234 }`,
		`{"Object":1,"Reader":2,"Time":1234,"x":[1]}`,
	}
	for _, k := range []int{0, len(raws) / 2, len(raws) - 1} {
		for _, v := range variants {
			var d []byte
			d = append(d, doc[:starts[k]]...)
			d = append(d, v...)
			d = append(d, doc[readingEnd(k):]...)
			diffDecode(t, d)
		}
		// Cut off in the middle of a key.
		diffDecode(t, append(doc[:starts[k]:starts[k]], `{"Object":1,"Reader":2,"Ti`...))
	}
}

// TestBatchDecodeNestingLimit pins the depth limit to encoding/json's.
func TestBatchDecodeNestingLimit(t *testing.T) {
	for _, depth := range []int{maxWireDepth - 2, maxWireDepth - 1, maxWireDepth} {
		diffDecode(t, []byte(`{"x":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`))
		diffDecode(t, []byte(`{"readings":[{"x":`+strings.Repeat("[", depth-2)+strings.Repeat("]", depth-2)+`}]}`))
	}
}

// TestBatchDecodeReusesSlice pins what the server's pooled buffers rely on:
// decoding into a truncated slice of enough capacity allocates nothing,
// leaves the readings in that slice's memory, and shows nothing of what the
// slice held before.
func TestBatchDecodeReusesSlice(t *testing.T) {
	now, raws := delivery3500()
	doc := canonicalDelivery(now, raws)
	buf := make([]RawReading, len(raws))
	var b Batch
	allocs := testing.AllocsPerRun(10, func() {
		for i := range buf {
			buf[i] = RawReading{Object: -1, Reader: -1, Time: -1}
		}
		b = Batch{Readings: buf[:0]}
		if err := b.UnmarshalJSON(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decode into a reused slice: %v allocs per run, want 0", allocs)
	}
	if &b.Readings[0] != &buf[0] || !reflect.DeepEqual(b.Readings, raws) {
		t.Error("readings were not decoded into the slice handed in")
	}
	b = Batch{Readings: buf[:0]}
	if err := b.UnmarshalJSON([]byte(`{"readings":[{},{"Object":4}]}`)); err != nil {
		t.Fatal(err)
	}
	if want := []RawReading{{}, {Object: 4}}; !reflect.DeepEqual(b.Readings, want) {
		t.Errorf("decoded %+v into a reused slice, want %+v", b.Readings, want)
	}
}

var sinkBatch Batch

// BenchmarkBatchDecode3500 is the decode layer of POST /ingest on one
// delivery of 3,500 readings (the ingest_durable workload's size): the
// scanner as the handler calls it, into a reused slice, and the reflection
// decoder it replaced, on the method-less oracle type.
func BenchmarkBatchDecode3500(b *testing.B) {
	now, raws := delivery3500()
	doc := canonicalDelivery(now, raws)
	b.Run("scanner", func(b *testing.B) {
		buf := make([]RawReading, 0, len(raws))
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBatch = Batch{Readings: buf[:0]}
			if err := sinkBatch.UnmarshalJSON(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var ob oracleBatch
			if err := json.NewDecoder(bytes.NewReader(doc)).Decode(&ob); err != nil {
				b.Fatal(err)
			}
			sinkBatch.Time = ob.Time
		}
	})
}
