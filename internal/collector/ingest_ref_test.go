package collector

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ingest"
	"repro/internal/model"
)

// refSecond aggregates one second the obvious way — a count per (object,
// reader), a winner per object, a scan of every known object for LEAVEs —
// and returns the second's winners and events, given which reader had each
// object before. It is the reference IngestSecond's scratch-reusing tally
// is held to.
func refSecond(t model.Time, raws []model.RawReading, in map[model.ObjectID]model.ReaderID) (map[model.ObjectID]model.ReaderID, []model.Event) {
	type key struct {
		obj model.ObjectID
		rd  model.ReaderID
	}
	counts := map[key]int{}
	for _, r := range raws {
		if r.Reader != model.NoReader && r.Time == t {
			counts[key{r.Object, r.Reader}]++
		}
	}
	winners, best := map[model.ObjectID]model.ReaderID{}, map[model.ObjectID]int{}
	for k, n := range counts {
		if cur, seen := winners[k.obj]; !seen || n > best[k.obj] || (n == best[k.obj] && k.rd < cur) {
			winners[k.obj], best[k.obj] = k.rd, n
		}
	}
	var events []model.Event
	for obj, rd := range winners {
		if was, known := in[obj]; !known || was != rd {
			if known && was != model.NoReader {
				events = append(events, model.Event{Kind: model.Leave, Object: obj, Reader: was, Time: t})
			}
			events = append(events, model.Event{Kind: model.Enter, Object: obj, Reader: rd, Time: t})
		}
		in[obj] = rd
	}
	for obj, was := range in {
		if _, detected := winners[obj]; !detected && was != model.NoReader {
			events = append(events, model.Event{Kind: model.Leave, Object: obj, Reader: was, Time: t})
			in[obj] = model.NoReader
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Object < events[j].Object })
	return winners, events
}

// refRun and refCollector are the layout the collector kept before streaks —
// each object's device runs, one entry per detected second — with the
// retention, views, expiry and snapshot written over it the obvious way. The
// collector's streaks are held to it view for view, and its Snapshot to
// refCollector.snapshot field for field, which is what keeps the gob bytes
// of a snapshot the same.
type refRun struct {
	reader  model.ReaderID
	entries []model.AggregatedReading
}

type refCollector struct {
	historic bool
	now      model.Time
	drops    ingest.Drops
	runs     map[model.ObjectID][]refRun
	// in is the reader detecting each known object, or NoReader; refSecond
	// keeps it.
	in map[model.ObjectID]model.ReaderID
}

func newRef(historic bool) *refCollector {
	return &refCollector{historic: historic, runs: map[model.ObjectID][]refRun{}, in: map[model.ObjectID]model.ReaderID{}}
}

// ingest aggregates second t and records its winners, returning its events.
func (r *refCollector) ingest(t model.Time, raws []model.RawReading) []model.Event {
	for _, raw := range raws {
		switch {
		case raw.Reader == model.NoReader:
			r.drops.InvalidReadings++
		case raw.Time != t:
			r.drops.MisstampedReadings++
		}
	}
	winners, events := refSecond(t, raws, r.in)
	for obj, rd := range winners {
		runs := r.runs[obj]
		if len(runs) == 0 || runs[len(runs)-1].reader != rd {
			runs = append(runs, refRun{reader: rd})
			if !r.historic && len(runs) > 2 {
				runs = runs[len(runs)-2:]
			}
		}
		last := &runs[len(runs)-1]
		last.entries = append(last.entries, model.AggregatedReading{Object: obj, Reader: rd, Time: t})
		r.runs[obj] = runs
	}
	r.now = t
	return events
}

func (r *refCollector) objects() []model.ObjectID {
	objs := make([]model.ObjectID, 0, len(r.runs))
	for obj := range r.runs {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return objs
}

func (r *refCollector) aggregated(obj model.ObjectID) []model.AggregatedReading {
	runs := r.runs[obj]
	if len(runs) > 2 {
		runs = runs[len(runs)-2:]
	}
	var out []model.AggregatedReading
	for _, run := range runs {
		out = append(out, run.entries...)
	}
	return out
}

func (r *refCollector) recentDevices(obj model.ObjectID) (model.ReaderID, model.ReaderID) {
	switch runs := r.runs[obj]; len(runs) {
	case 0:
		return model.NoReader, model.NoReader
	case 1:
		return model.NoReader, runs[0].reader
	default:
		return runs[len(runs)-2].reader, runs[len(runs)-1].reader
	}
}

func (r *refCollector) latest() []model.AggregatedReading {
	var out []model.AggregatedReading
	for _, obj := range r.objects() {
		runs := r.runs[obj]
		entries := runs[len(runs)-1].entries
		out = append(out, entries[len(entries)-1])
	}
	return out
}

func (r *refCollector) aggregatedUpTo(obj model.ObjectID, t model.Time) []model.AggregatedReading {
	var kept [][]model.AggregatedReading
	for _, run := range r.runs[obj] {
		n := sort.Search(len(run.entries), func(i int) bool { return run.entries[i].Time > t })
		if n > 0 {
			kept = append(kept, run.entries[:n])
		}
	}
	if len(kept) > 2 {
		kept = kept[len(kept)-2:]
	}
	var out []model.AggregatedReading
	for _, entries := range kept {
		out = append(out, entries...)
	}
	return out
}

func (r *refCollector) forgetBefore(t model.Time) {
	for obj, runs := range r.runs {
		for len(runs) > 1 && runs[0].entries[len(runs[0].entries)-1].Time < t {
			runs = runs[1:]
		}
		r.runs[obj] = runs
		if len(runs) == 1 && runs[0].entries[len(runs[0].entries)-1].Time < t && r.in[obj] == model.NoReader {
			delete(r.runs, obj)
			delete(r.in, obj)
		}
	}
}

func (r *refCollector) snapshot() Snapshot {
	s := Snapshot{Now: r.now, Started: true, Historic: r.historic, Drops: r.drops, Objects: []ObjectSnapshot{}}
	for _, obj := range r.objects() {
		runs := r.runs[obj]
		last := runs[len(runs)-1].entries
		os := ObjectSnapshot{Object: obj, In: r.in[obj], LastSeen: last[len(last)-1].Time, Runs: make([]RunSnapshot, len(runs))}
		for i, run := range runs {
			os.Runs[i] = RunSnapshot{Reader: run.reader, Entries: append([]model.AggregatedReading(nil), run.entries...)}
		}
		s.Objects = append(s.Objects, os)
	}
	return s
}

// checkAgainstRef compares every live view of c with the reference's, and
// the historical views at a few random past seconds.
func checkAgainstRef(t *testing.T, rnd *rand.Rand, c *Collector, ref *refCollector) {
	t.Helper()
	objs := ref.objects()
	if got := c.KnownObjects(); !reflect.DeepEqual(got, objs) {
		t.Fatalf("KnownObjects = %v, reference %v", got, objs)
	}
	if got, want := c.AppendLatest(nil), ref.latest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendLatest = %v, reference %v", got, want)
	}
	pasts := []model.Time{0, ref.now, ref.now + 5}
	for i := 0; i < 3; i++ {
		pasts = append(pasts, model.Time(rnd.Int63n(int64(ref.now)+1)))
	}
	for _, obj := range append(objs, 999) { // and one unknown object
		if got, want := c.Aggregated(obj), ref.aggregated(obj); !reflect.DeepEqual(got, want) {
			t.Fatalf("object %d: Aggregated = %v, reference %v", obj, got, want)
		}
		di, dj := c.RecentDevices(obj)
		if wi, wj := ref.recentDevices(obj); di != wi || dj != wj {
			t.Fatalf("object %d: RecentDevices = %d, %d, reference %d, %d", obj, di, dj, wi, wj)
		}
		want := ref.aggregated(obj)
		if got, ok := c.LastReading(obj); ok != (len(want) > 0) || ok && got != want[len(want)-1] {
			t.Fatalf("object %d: LastReading = %v %v, reference %v", obj, got, ok, want)
		}
		for _, at := range pasts {
			want := ref.aggregatedUpTo(obj, at)
			if got := c.AggregatedUpTo(obj, at); !reflect.DeepEqual(got, want) {
				t.Fatalf("object %d: AggregatedUpTo(%d) = %v, reference %v", obj, at, got, want)
			}
			if got, ok := c.LastReadingAt(obj, at); ok != (len(want) > 0) || ok && got != want[len(want)-1] {
				t.Fatalf("object %d: LastReadingAt(%d) = %v %v, reference %v", obj, at, got, ok, want)
			}
		}
	}
}

// TestIngestSecondMatchesReference streams random seconds — objects read by
// one, two or three readers with tied and untied sample counts, silent
// seconds, handoffs, junk readings, snapshot round trips and expiries along
// the way — into the collector and into the per-entry reference, with and
// without full history, and requires the reference's events, views and
// snapshot after every second.
func TestIngestSecondMatchesReference(t *testing.T) {
	for _, historic := range []bool{false, true} {
		fresh := New
		if historic {
			fresh = NewWithHistory
		}
		for seed := int64(1); seed <= 30; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			c, ref := fresh(), newRef(historic)
			now := model.Time(0)
			for step := 0; step < 120; step++ {
				now += model.Time(1 + rnd.Intn(2))
				var raws []model.RawReading
				for obj := model.ObjectID(0); obj < 25; obj++ {
					if rnd.Intn(4) == 0 {
						continue // silent this second
					}
					home := model.ReaderID(int(obj)/5 + step/30)
					for n := 1 + rnd.Intn(3); n > 0; n-- {
						r := model.RawReading{Object: obj, Reader: home + model.ReaderID(rnd.Intn(6)/4*rnd.Intn(3)), Time: now}
						switch rnd.Intn(40) {
						case 0:
							r.Reader = model.NoReader
						case 1:
							r.Time--
						}
						raws = append(raws, r)
					}
				}
				rnd.Shuffle(len(raws), func(i, j int) { raws[i], raws[j] = raws[j], raws[i] })
				wantEvents := ref.ingest(now, raws)
				c.IngestSecond(now, raws)
				if got := c.DrainEvents(); !reflect.DeepEqual(got, wantEvents) {
					t.Fatalf("history %v seed %d t=%d: events %v, reference %v", historic, seed, now, got, wantEvents)
				}
				for obj, rd := range ref.in {
					if got := c.CurrentlyDetectedBy(obj); got != rd {
						t.Fatalf("history %v seed %d t=%d: object %d detected by %d, reference %d", historic, seed, now, obj, got, rd)
					}
				}
				switch op := rnd.Intn(20); {
				case op == 0 || step == 40: // the in-range set must survive a snapshot round trip
					restored := fresh()
					restored.Restore(c.Snapshot())
					c = restored
				case op == 1: // and so must a snapshot the per-entry layout wrote
					restored := fresh()
					restored.Restore(ref.snapshot())
					c = restored
				case op == 2 || step == 80: // and an expiry, which may only remove objects outside it
					cut := now - model.Time(rnd.Intn(8))
					c.ForgetBefore(cut)
					ref.forgetBefore(cut)
				}
				if got, want := c.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("history %v seed %d t=%d: Snapshot = %+v, reference %+v", historic, seed, now, got, want)
				}
				checkAgainstRef(t, rnd, c, ref)
			}
			objs := c.KnownObjects()
			var sink model.AggregatedReading
			if n := testing.AllocsPerRun(100, func() {
				for _, obj := range objs {
					sink, _ = c.LastReadingAt(obj, now/2)
				}
			}); n != 0 {
				t.Fatalf("history %v seed %d: LastReadingAt allocates %v times per pass", historic, seed, n)
			}
			_ = sink
		}
	}
}

// checkObjectList holds the collector's sorted object list to the map it
// mirrors: KnownObjects, AppendLatest and the snapshot's object order must be
// what a walk of the map, a sort and a LastReading per object give.
func checkObjectList(t *testing.T, c *Collector) {
	t.Helper()
	wantObjs := make([]model.ObjectID, 0, len(c.objects))
	for obj := range c.objects {
		wantObjs = append(wantObjs, obj)
	}
	sort.Slice(wantObjs, func(i, j int) bool { return wantObjs[i] < wantObjs[j] })
	var wantLatest []model.AggregatedReading
	for _, obj := range wantObjs {
		if last, ok := c.LastReading(obj); ok {
			wantLatest = append(wantLatest, last)
		}
	}
	if got := c.KnownObjects(); !reflect.DeepEqual(got, wantObjs) {
		t.Fatalf("KnownObjects = %v, reference %v", got, wantObjs)
	}
	if got := c.AppendLatest(nil); !reflect.DeepEqual(got, wantLatest) {
		t.Fatalf("AppendLatest = %v, reference %v", got, wantLatest)
	}
	snap := c.Snapshot()
	if len(snap.Objects) != len(wantObjs) {
		t.Fatalf("snapshot holds %d objects, reference %d", len(snap.Objects), len(wantObjs))
	}
	for i, os := range snap.Objects {
		if os.Object != wantObjs[i] {
			t.Fatalf("snapshot object %d is %d, reference %d", i, os.Object, wantObjs[i])
		}
	}
}

// TestObjectListMatchesReference churns the population — objects arriving
// under random IDs (so most land mid-list), going silent, expiring through
// ForgetBefore and coming back — with snapshot round trips along the way,
// and checks the sorted object list against the map after every operation.
func TestObjectListMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		c := New()
		var pool []model.ObjectID
		now := model.Time(0)
		for step := 0; step < 150; step++ {
			switch op := rnd.Intn(10); {
			case op < 7:
				now++
				for n := rnd.Intn(4); n > 0; n-- {
					pool = append(pool, model.ObjectID(rnd.Intn(100000)))
				}
				var raws []model.RawReading
				for _, obj := range pool {
					if rnd.Intn(3) > 0 {
						raws = append(raws, model.RawReading{Object: obj, Reader: model.ReaderID(rnd.Intn(5)), Time: now})
					}
				}
				c.IngestSecond(now, raws)
				c.DrainEvents()
			case op < 9:
				c.ForgetBefore(now - model.Time(rnd.Intn(6)))
				if len(pool) > 0 && rnd.Intn(2) == 0 {
					pool = pool[rnd.Intn(len(pool)):] // some objects leave for good
				}
			default:
				restored := New()
				restored.Restore(c.Snapshot())
				if !reflect.DeepEqual(restored.Snapshot(), c.Snapshot()) {
					t.Fatalf("seed %d step %d: snapshot round trip changed the state", seed, step)
				}
				c = restored
			}
			checkObjectList(t, c)
		}
	}
}

// BenchmarkIngestSecond is the collector layer of one second of the
// ingest_durable shape: 2,000 objects, most read once or twice by one
// reader, a tenth of them also by a neighbour, a tenth silent in turn and
// every object moving on to the next reader every ten seconds (so ENTER and
// LEAVE events occur and retention keeps memory bounded).
func BenchmarkIngestSecond(b *testing.B) {
	const objects, readers = 2000, 38
	second := func(t model.Time, raws []model.RawReading) []model.RawReading {
		raws = raws[:0]
		for o := 0; o < objects; o++ {
			if (o+int(t))%10 == 0 {
				continue
			}
			rd := model.ReaderID((o + int(t)/10) % readers)
			raws = append(raws, model.RawReading{Object: model.ObjectID(o), Reader: rd, Time: t})
			if o%2 == 0 {
				raws = append(raws, model.RawReading{Object: model.ObjectID(o), Reader: rd, Time: t})
			}
			if o%10 == 3 {
				raws = append(raws, model.RawReading{Object: model.ObjectID(o), Reader: (rd + 1) % readers, Time: t})
			}
		}
		return raws
	}
	c := New()
	var raws []model.RawReading
	events := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		raws = second(model.Time(i+1), raws)
		b.StartTimer()
		if err := c.IngestSecond(model.Time(i+1), raws); err != nil {
			b.Fatal(err)
		}
		events += len(c.DrainEvents())
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(len(raws)), "readings/op")
}
