package ingest

import (
	"errors"
	"testing"

	"repro/internal/model"
)

// recorder collects flushed seconds for assertions.
type recorder struct {
	secs []model.Time
	raws map[model.Time][]model.RawReading
}

func newRecorder() *recorder {
	return &recorder{raws: make(map[model.Time][]model.RawReading)}
}

func (r *recorder) sink(t model.Time, raws []model.RawReading) {
	r.secs = append(r.secs, t)
	r.raws[t] = raws
}

func rd(obj, reader int, t model.Time) model.RawReading {
	return model.RawReading{Object: model.ObjectID(obj), Reader: model.ReaderID(reader), Time: t}
}

func TestInOrderFlushesImmediately(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{}, rec.sink)
	for sec := model.Time(10); sec <= 13; sec++ {
		if err := b.Offer(sec, []model.RawReading{rd(1, 2, sec)}); err != nil {
			t.Fatalf("t=%d: %v", sec, err)
		}
		if got := rec.secs[len(rec.secs)-1]; got != sec {
			t.Fatalf("t=%d flushed %d", sec, got)
		}
	}
	if b.PendingSeconds() != 0 || b.PendingReadings() != 0 {
		t.Errorf("pending %d seconds / %d readings after in-order stream",
			b.PendingSeconds(), b.PendingReadings())
	}
	if d := b.Drops(); d.Readings() != 0 || d.GapSeconds != 0 {
		t.Errorf("clean stream recorded drops: %+v", d)
	}
}

func TestLateBatchRejectedTyped(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{}, rec.sink)
	b.Offer(10, []model.RawReading{rd(1, 2, 10)})
	err := b.Offer(9, []model.RawReading{rd(1, 2, 9), rd(2, 2, 9)})
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("late batch error = %v, want *Error", err)
	}
	if ie.Kind != KindLate || !ie.Rejected || ie.Dropped != 2 || ie.Time != 9 {
		t.Errorf("late error = %+v", ie)
	}
	d := b.Drops()
	if d.LateBatches != 1 || d.LateReadings != 2 {
		t.Errorf("drops = %+v", d)
	}
	if len(rec.raws[9]) != 0 {
		t.Error("late batch leaked into the sink")
	}
}

func TestOutOfOrderWithinHorizon(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{Horizon: 3}, rec.sink)
	// Deliver 10, 12, 11, 13, 14: nothing may flush before the watermark
	// (maxSeen-3) passes it, and flushes must come out in order.
	b.Offer(10, []model.RawReading{rd(1, 2, 10)})
	b.Offer(12, []model.RawReading{rd(1, 2, 12)})
	if err := b.Offer(11, []model.RawReading{rd(1, 2, 11)}); err != nil {
		t.Fatalf("in-horizon delivery refused: %v", err)
	}
	b.Offer(13, []model.RawReading{rd(1, 2, 13)})
	b.Offer(14, []model.RawReading{rd(1, 2, 14)})
	// maxSeen=14 -> watermark 11: seconds 10 and 11 flushed, in order.
	if len(rec.secs) != 2 || rec.secs[0] != 10 || rec.secs[1] != 11 {
		t.Fatalf("flushed %v, want [10 11]", rec.secs)
	}
	b.FlushAll()
	if len(rec.secs) != 5 {
		t.Fatalf("after FlushAll flushed %v", rec.secs)
	}
	for i, sec := range rec.secs {
		if want := model.Time(10 + i); sec != want {
			t.Errorf("flush %d = %d, want %d", i, sec, want)
		}
		if len(rec.raws[sec]) != 1 {
			t.Errorf("second %d flushed %d readings", sec, len(rec.raws[sec]))
		}
	}
	if d := b.Drops(); d.Readings() != 0 {
		t.Errorf("drops = %+v", d)
	}
}

func TestDuplicateDeliveryDeduped(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{Horizon: 5}, rec.sink)
	batch := []model.RawReading{rd(1, 2, 10), rd(1, 2, 10), rd(2, 3, 10)}
	if err := b.Offer(10, batch); err != nil {
		t.Fatal(err)
	}
	err := b.Offer(10, batch) // retransmission while still pending
	var ie *Error
	if !errors.As(err, &ie) || ie.Kind != KindDuplicate || ie.Rejected {
		t.Fatalf("duplicate error = %v", err)
	}
	if ie.Dropped != 3 {
		t.Errorf("duplicate dropped %d, want 3", ie.Dropped)
	}
	d := b.Drops()
	if d.DuplicateDeliveries != 1 || d.DuplicateReadings != 3 {
		t.Errorf("drops = %+v", d)
	}
	b.FlushAll()
	// The flushed second holds the original multiset once: both samples of
	// object 1 survive (they are samples, not retransmissions).
	if got := len(rec.raws[10]); got != 3 {
		t.Errorf("flushed %d readings, want 3", got)
	}
}

func TestDistinctDeliveriesSameSecondMerge(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{Horizon: 5}, rec.sink)
	b.Offer(10, []model.RawReading{rd(1, 2, 10)})
	if err := b.Offer(10, []model.RawReading{rd(2, 3, 10)}); err != nil {
		t.Fatalf("distinct sub-batch refused: %v", err)
	}
	b.FlushAll()
	if got := len(rec.raws[10]); got != 2 {
		t.Errorf("merged second has %d readings, want 2", got)
	}
}

func TestMultiSecondBatchRouted(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{Horizon: 4}, rec.sink)
	// One delivery carrying readings for three neighboring seconds.
	if err := b.Offer(11, []model.RawReading{rd(1, 2, 10), rd(1, 2, 11), rd(1, 2, 12)}); err != nil {
		t.Fatal(err)
	}
	b.FlushAll()
	for _, sec := range []model.Time{10, 11, 12} {
		if len(rec.raws[sec]) != 1 {
			t.Errorf("second %d got %d readings", sec, len(rec.raws[sec]))
		}
	}
}

func TestMisstampedBeyondSkewDropped(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{Horizon: 2, MaxSkew: 5}, rec.sink)
	err := b.Offer(10, []model.RawReading{rd(1, 2, 10), rd(1, 2, 99)})
	var ie *Error
	if !errors.As(err, &ie) || ie.Kind != KindMisstamped || ie.Dropped != 1 {
		t.Fatalf("misstamped error = %v", err)
	}
	if d := b.Drops(); d.MisstampedReadings != 1 {
		t.Errorf("drops = %+v", d)
	}
}

func TestInvalidReaderDropped(t *testing.T) {
	b := NewReorder(Config{}, newRecorder().sink)
	err := b.Offer(10, []model.RawReading{{Object: 1, Reader: model.NoReader, Time: 10}})
	var ie *Error
	if !errors.As(err, &ie) || ie.Kind != KindInvalid || ie.Dropped != 1 {
		t.Fatalf("invalid error = %v", err)
	}
}

func TestGapSecondsCounted(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{}, rec.sink)
	b.Offer(10, []model.RawReading{rd(1, 2, 10)})
	b.Offer(14, []model.RawReading{rd(1, 2, 14)}) // 11..13 lost upstream
	if d := b.Drops(); d.GapSeconds != 3 {
		t.Errorf("gaps = %d, want 3", d.GapSeconds)
	}
	// Gap seconds are skipped, not delivered as empty ticks.
	if len(rec.secs) != 2 || rec.secs[0] != 10 || rec.secs[1] != 14 {
		t.Errorf("flushed %v", rec.secs)
	}
	if d := b.Drops(); d.Of(KindGap) != 3 {
		t.Errorf("Of(KindGap) = %d", d.Of(KindGap))
	}
}

func TestMaxPendingForcesFlush(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{Horizon: 100, MaxPending: 4}, rec.sink)
	for sec := model.Time(1); sec <= 10; sec++ {
		b.Offer(sec, []model.RawReading{rd(1, 2, sec)})
	}
	// Horizon would hold all ten seconds; the bound must cap the span at 4.
	if span := 10 - len(rec.secs); span > 4 {
		t.Errorf("%d seconds still open, bound is 4 (flushed %v)", span, rec.secs)
	}
	if b.ForcedFlushes() == 0 {
		t.Error("forced flushes not counted")
	}
	// A second that was force-flushed is now late.
	err := b.Offer(2, []model.RawReading{rd(1, 2, 2)})
	var ie *Error
	if !errors.As(err, &ie) || ie.Kind != KindLate {
		t.Errorf("post-force delivery error = %v", err)
	}
}

func TestHugeTimeJumpFlushesArithmetically(t *testing.T) {
	// Batch times are untrusted input: a jump of 2^40 seconds must cost
	// O(buffered), not one loop iteration per skipped second. If the flush
	// walked the span, this test would not finish in a lifetime.
	rec := newRecorder()
	b := NewReorder(Config{}, rec.sink)
	b.Offer(10, []model.RawReading{rd(1, 2, 10)})
	const far = model.Time(1) << 40
	if err := b.Offer(far, []model.RawReading{rd(1, 2, far)}); err != nil {
		t.Fatal(err)
	}
	if len(rec.secs) != 2 || rec.secs[0] != 10 || rec.secs[1] != far {
		t.Fatalf("flushed %v, want [10 %d]", rec.secs, far)
	}
	if d := b.Drops(); model.Time(d.GapSeconds) != far-11 {
		t.Errorf("gap seconds = %d, want %d", d.GapSeconds, far-11)
	}
	// The jump closed everything behind it: older batches are late now.
	err := b.Offer(20, []model.RawReading{rd(1, 2, 20)})
	var ie *Error
	if !errors.As(err, &ie) || ie.Kind != KindLate || !ie.Rejected {
		t.Errorf("post-jump delivery error = %v", err)
	}
}

func TestCorruptFirstStampDoesNotPoisonWatermark(t *testing.T) {
	// A corrupt tiny time stamp inside the first delivery must not open the
	// stream eons before the first honest second: the backward tolerance is
	// MaxSkew, and anything earlier is a counted late drop.
	rec := newRecorder()
	b := NewReorder(Config{MaxSkew: 5}, rec.sink)
	err := b.Offer(1000, []model.RawReading{rd(1, 2, 3), rd(1, 2, 1000)})
	var ie *Error
	if !errors.As(err, &ie) || ie.Kind != KindLate || ie.Rejected || ie.Dropped != 1 {
		t.Fatalf("corrupt-stamp error = %v", err)
	}
	if d := b.Drops(); d.LateReadings != 1 || d.GapSeconds != 5 {
		t.Errorf("drops = %+v, want 1 late reading and 5 gap seconds", d)
	}
	if len(rec.raws[1000]) != 1 {
		t.Errorf("second 1000 flushed %d readings, want 1", len(rec.raws[1000]))
	}
}

func TestMaxPendingBoundsBufferedSeconds(t *testing.T) {
	// MaxPending must bound the actual number of buffered seconds, including
	// buckets stamped ahead of the newest batch second — a single delivery
	// fanning readings over many future seconds may not evade the bound.
	rec := newRecorder()
	b := NewReorder(Config{Horizon: 50, MaxPending: 4}, rec.sink)
	var raws []model.RawReading
	for i := model.Time(0); i < 10; i++ {
		raws = append(raws, rd(1, 2, 100+i))
	}
	if err := b.Offer(100, raws); err != nil {
		t.Fatal(err)
	}
	if got := b.PendingSeconds(); got > 4 {
		t.Errorf("%d seconds buffered, bound is 4", got)
	}
	if b.ForcedFlushes() != 6 {
		t.Errorf("forced flushes = %d, want 6", b.ForcedFlushes())
	}
	for i, sec := range rec.secs {
		if want := model.Time(100 + i); sec != want {
			t.Errorf("flush %d = %d, want %d", i, sec, want)
		}
	}
	if d := b.Drops(); d.Readings() != 0 || d.GapSeconds != 0 {
		t.Errorf("force-flushing a dense stream counted drops: %+v", d)
	}
}

func TestZeroHorizonDropsAheadStampedAsMisstamped(t *testing.T) {
	// With no horizon every second closes immediately, so a reading stamped
	// ahead of its batch second has no later flush to release it; it must be
	// a counted mis-stamped drop, not buffered forever.
	rec := newRecorder()
	b := NewReorder(Config{}, rec.sink)
	err := b.Offer(10, []model.RawReading{rd(1, 2, 10), rd(1, 2, 11)})
	var ie *Error
	if !errors.As(err, &ie) || ie.Kind != KindMisstamped || ie.Dropped != 1 {
		t.Fatalf("ahead-stamped error = %v", err)
	}
	if b.PendingReadings() != 0 {
		t.Errorf("%d readings still pending under zero horizon", b.PendingReadings())
	}
	// The next second's own delivery is not polluted by the dropped reading.
	b.Offer(11, []model.RawReading{rd(3, 4, 11)})
	if got := len(rec.raws[11]); got != 1 {
		t.Errorf("second 11 flushed %d readings, want 1", got)
	}
	if d := b.Drops(); d.MisstampedReadings != 1 {
		t.Errorf("drops = %+v", d)
	}
}

func TestLateReadingInsideAcceptableBatch(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{}, rec.sink)
	b.Offer(10, []model.RawReading{rd(1, 2, 10)})
	// Batch 11 is fine, but it carries one reading for the closed second 9.
	err := b.Offer(11, []model.RawReading{rd(1, 2, 11), rd(1, 2, 9)})
	var ie *Error
	if !errors.As(err, &ie) || ie.Kind != KindLate || ie.Rejected {
		t.Fatalf("err = %v", err)
	}
	if len(rec.raws[11]) != 1 {
		t.Errorf("second 11 flushed %d readings, want 1", len(rec.raws[11]))
	}
	if d := b.Drops(); d.LateReadings != 1 || d.LateBatches != 0 {
		t.Errorf("drops = %+v", d)
	}
}

func TestWatermarkAndAccounting(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{Horizon: 2}, rec.sink)
	if _, ok := b.Watermark(); ok {
		t.Error("watermark defined before first delivery")
	}
	offered := 0
	for sec := model.Time(1); sec <= 9; sec++ {
		b.Offer(sec, []model.RawReading{rd(1, 2, sec), rd(2, 3, sec)})
		offered += 2
	}
	w, ok := b.Watermark()
	if !ok || w != 7 {
		t.Errorf("watermark = %d/%v, want 7", w, ok)
	}
	flushed := 0
	for _, raws := range rec.raws {
		flushed += len(raws)
	}
	if flushed+b.PendingReadings()+b.Drops().Readings() != offered {
		t.Errorf("accounting broken: flushed %d + pending %d + dropped %d != offered %d",
			flushed, b.PendingReadings(), b.Drops().Readings(), offered)
	}
}

func TestErrorStringAndKinds(t *testing.T) {
	e := &Error{Kind: KindDuplicate, Time: 12, Watermark: 10, Dropped: 3}
	if s := e.Error(); s == "" {
		t.Error("empty error string")
	}
	for k := KindLate; k <= KindGap; k++ {
		if k.String() == "" {
			t.Errorf("Kind(%d) has no name", k)
		}
	}
	var d Drops
	d.LateReadings, d.DuplicateReadings, d.MisstampedReadings, d.InvalidReadings = 1, 2, 3, 4
	if d.Readings() != 10 {
		t.Errorf("Readings() = %d", d.Readings())
	}
	var m Drops
	m.Merge(d)
	m.Merge(d)
	if m.Readings() != 20 {
		t.Errorf("merged Readings() = %d", m.Readings())
	}
}

func TestFingerprintIsAMultisetHash(t *testing.T) {
	a := []model.RawReading{rd(1, 2, 10), rd(1, 2, 10), rd(2, 3, 10), rd(3, 4, 11)}
	perm := []model.RawReading{a[3], a[1], a[2], a[0]}
	if Fingerprint(a) != Fingerprint(perm) {
		t.Error("fingerprint depends on reading order")
	}
	for name, other := range map[string][]model.RawReading{
		"one sample fewer":  {a[0], a[2], a[3]},
		"one sample more":   append(append([]model.RawReading(nil), a...), a[2]),
		"fields swapped":    {rd(2, 1, 10), a[1], a[2], a[3]},
		"different time":    {rd(1, 2, 11), a[1], a[2], a[3]},
		"different reading": {rd(1, 2, 10), rd(1, 2, 10), rd(2, 3, 10), rd(4, 3, 11)},
		"empty":             nil,
	} {
		if Fingerprint(a) == Fingerprint(other) {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
}

// TestClosingSecondGoesStraightToSink pins the in-order fast path: a
// delivery whose readings all close in the call reaches the sink as the
// caller's own slice, and Offer allocates nothing.
func TestClosingSecondGoesStraightToSink(t *testing.T) {
	var got []model.RawReading
	b := NewReorder(Config{}, func(_ model.Time, raws []model.RawReading) { got = raws })
	raws := make([]model.RawReading, 500)
	sec := model.Time(1)
	fill := func() {
		for i := range raws {
			raws[i] = rd(i, i%7, sec)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		if err := b.Offer(sec, raws); err != nil {
			t.Fatal(err)
		}
		sec++
	})
	if allocs != 0 {
		t.Errorf("in-order Offer: %v allocs per call, want 0", allocs)
	}
	if len(got) != len(raws) || &got[0] != &raws[0] {
		t.Error("sink did not receive the caller's slice")
	}
	// With a refusal in the middle the sink gets a compacted scratch copy
	// and the caller's slice is left as it was.
	fill()
	raws[3].Reader = model.NoReader
	want := append([]model.RawReading(nil), raws...)
	if err := b.Offer(sec, raws); err == nil {
		t.Fatal("invalid reading not reported")
	}
	if len(got) != len(raws)-1 || got[3] != raws[4] {
		t.Errorf("sink got %d readings, fourth %v", len(got), got[3])
	}
	for i := range raws {
		if raws[i] != want[i] {
			t.Fatalf("Offer modified the caller's reading %d", i)
		}
	}
}

// TestOfferKeepsNoCallerMemory overwrites the delivered slice as soon as
// Offer returns; what the buffer parked for later seconds must be its own.
func TestOfferKeepsNoCallerMemory(t *testing.T) {
	rec := newRecorder()
	b := NewReorder(Config{Horizon: 3}, func(sec model.Time, raws []model.RawReading) {
		rec.sink(sec, append([]model.RawReading(nil), raws...))
	})
	buf := make([]model.RawReading, 0, 8)
	for sec := model.Time(1); sec <= 6; sec++ {
		// Interleaved seconds, so the delivery has to be regrouped as well.
		buf = append(buf[:0], rd(1, 2, sec), rd(2, 3, sec+1), rd(3, 4, sec), rd(4, 5, sec+1))
		if err := b.Offer(sec, buf); err != nil {
			t.Fatalf("t=%d: %v", sec, err)
		}
		for i := range buf {
			buf[i] = rd(-1, -1, -1)
		}
	}
	b.FlushAll()
	for sec := model.Time(1); sec <= 7; sec++ {
		var want []model.RawReading
		if sec > 1 {
			want = append(want, rd(2, 3, sec), rd(4, 5, sec))
		}
		if sec < 7 {
			want = append(want, rd(1, 2, sec), rd(3, 4, sec))
		}
		got := rec.raws[sec]
		if len(got) != len(want) {
			t.Fatalf("second %d flushed %v, want %v", sec, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("second %d flushed %v, want %v (delivery order within a second)", sec, got, want)
			}
		}
	}
}

func benchDelivery(sec model.Time) []model.RawReading {
	raws := make([]model.RawReading, 3500)
	for i := range raws {
		raws[i] = rd(i*7%2000, i%38, sec)
	}
	return raws
}

// BenchmarkReorderOffer is the reorder layer of one 3,500-reading delivery
// into a counting sink: in order (every second closes in the call) and under
// a two-second horizon (every second is parked, then flushed by a later one).
func BenchmarkReorderOffer(b *testing.B) {
	for _, bc := range []struct {
		name    string
		horizon model.Time
	}{{"inorder", 0}, {"horizon2", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			flushed := 0
			ro := NewReorder(Config{Horizon: bc.horizon}, func(model.Time, []model.RawReading) { flushed++ })
			raws := benchDelivery(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sec := model.Time(i + 1)
				for j := range raws {
					raws[j].Time = sec
				}
				if err := ro.Offer(sec, raws); err != nil {
					b.Fatal(err)
				}
			}
			if flushed < b.N-int(bc.horizon) {
				b.Fatalf("flushed %d of %d seconds", flushed, b.N)
			}
		})
	}
}
