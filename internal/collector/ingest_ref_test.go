package collector

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

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

// TestIngestSecondMatchesReference streams random seconds — objects read by
// one, two or three readers with tied and untied sample counts, silent
// seconds, handoffs, junk readings, a snapshot round trip and an expiry
// along the way — and requires the reference's events and entries.
func TestIngestSecondMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		c := New()
		in := map[model.ObjectID]model.ReaderID{}
		entries := map[model.ObjectID][]model.AggregatedReading{}
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
			winners, wantEvents := refSecond(now, raws, in)
			c.IngestSecond(now, raws)
			if got := c.DrainEvents(); !reflect.DeepEqual(got, wantEvents) {
				t.Fatalf("seed %d t=%d: events %v, reference %v", seed, now, got, wantEvents)
			}
			for obj, rd := range winners {
				entries[obj] = append(entries[obj], model.AggregatedReading{Object: obj, Reader: rd, Time: now})
			}
			for obj, rd := range in {
				if got := c.CurrentlyDetectedBy(obj); got != rd {
					t.Fatalf("seed %d t=%d: object %d detected by %d, reference %d", seed, now, obj, got, rd)
				}
			}
			switch step {
			case 40: // the in-range set must survive a snapshot round trip
				restored := New()
				restored.Restore(c.Snapshot())
				c = restored
			case 80: // and an expiry, which may only remove objects outside it
				c.ForgetBefore(now - 3)
				for obj := range in {
					if len(c.Aggregated(obj)) == 0 {
						delete(in, obj)
						delete(entries, obj)
					}
				}
			}
		}
		for obj, want := range entries {
			got := c.Aggregated(obj)
			if len(got) == 0 || !reflect.DeepEqual(got, want[len(want)-len(got):]) {
				t.Fatalf("seed %d: object %d retains %v, reference suffix of %v", seed, obj, got, want)
			}
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
