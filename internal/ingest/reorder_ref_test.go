package ingest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
)

// refReorder is the reorder buffer written the obvious way — a map of
// buckets per call, every reading copied, every second parked before it is
// flushed — as the reference Reorder's scratch-reusing Offer is held to.
type refReorder struct {
	cfg                Config
	sink               Sink
	pending            map[model.Time][][]model.RawReading
	maxSeen, watermark model.Time
	started            bool
	drops              Drops
	forced             int
}

func (b *refReorder) flushUpTo(target model.Time) {
	var secs []model.Time
	for sec := range b.pending {
		if sec <= target {
			secs = append(secs, sec)
		}
	}
	sort.Slice(secs, func(i, j int) bool { return secs[i] < secs[j] })
	for _, sec := range secs {
		var raws []model.RawReading
		for _, sub := range b.pending[sec] {
			raws = append(raws, sub...)
		}
		delete(b.pending, sec)
		b.drops.GapSeconds += int(sec - b.watermark - 1)
		b.watermark = sec
		b.sink(sec, raws)
	}
	if target > b.watermark {
		b.drops.GapSeconds += int(target - b.watermark)
		b.watermark = target
	}
}

func (b *refReorder) offer(t model.Time, raws []model.RawReading) (dropped int, rejected bool) {
	if b.started && t <= b.watermark {
		b.drops.LateBatches++
		b.drops.LateReadings += len(raws)
		return len(raws), true
	}
	if !b.started {
		lo := t
		for _, r := range raws {
			if r.Reader != model.NoReader && r.Time < lo {
				lo = r.Time
			}
		}
		if lo < t-b.cfg.MaxSkew {
			lo = t - b.cfg.MaxSkew
		}
		b.started, b.maxSeen, b.watermark = true, t, lo-1
	} else if t > b.maxSeen {
		b.maxSeen = t
	}
	buckets := map[model.Time][]model.RawReading{t: nil}
	for _, r := range raws {
		switch {
		case r.Reader == model.NoReader:
			b.drops.InvalidReadings++
			dropped++
		case r.Time <= b.watermark:
			b.drops.LateReadings++
			dropped++
		case r.Time > t+b.cfg.MaxSkew || (b.cfg.Horizon == 0 && r.Time > t):
			b.drops.MisstampedReadings++
			dropped++
		default:
			buckets[r.Time] = append(buckets[r.Time], r)
		}
	}
	for sec, sub := range buckets {
		subs, parked := b.pending[sec]
		dup := false
		for _, old := range subs {
			dup = dup || len(sub) > 0 && sameReadings(old, sub)
		}
		switch {
		case dup:
			b.drops.DuplicateDeliveries++
			b.drops.DuplicateReadings += len(sub)
			dropped += len(sub)
		case len(sub) > 0 || !parked:
			b.pending[sec] = append(subs, sub)
		}
	}
	b.flushUpTo(b.maxSeen - b.cfg.Horizon)
	if over := len(b.pending) - b.cfg.MaxPending; over > 0 {
		var secs []model.Time
		for sec := range b.pending {
			secs = append(secs, sec)
		}
		sort.Slice(secs, func(i, j int) bool { return secs[i] < secs[j] })
		b.forced += over
		b.flushUpTo(secs[over-1])
	}
	return dropped, false
}

// sameReadings compares two sub-batches as multisets.
func sameReadings(a, b []model.RawReading) bool {
	count := map[model.RawReading]int{}
	for _, r := range a {
		count[r]++
	}
	for _, r := range b {
		count[r]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return len(a) == len(b)
}

// TestOfferMatchesReference drives random delivery streams — late, ahead,
// interleaved, retransmitted, reader-less — through Reorder and the
// reference, and requires the same flushed seconds with the same readings in
// the same order, the same drop accounting and the same error reports.
func TestOfferMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		cfg := Config{Horizon: model.Time(rnd.Intn(4)), MaxSkew: model.Time(2 + rnd.Intn(4))}
		if rnd.Intn(3) == 0 {
			cfg.MaxPending = 1 + rnd.Intn(4)
		}
		var got, want []string
		record := func(log *[]string) Sink {
			return func(sec model.Time, raws []model.RawReading) {
				*log = append(*log, fmt.Sprint(sec, raws))
			}
		}
		b := NewReorder(cfg, record(&got))
		ref := &refReorder{cfg: cfg.withDefaults(), sink: record(&want), pending: map[model.Time][][]model.RawReading{}}
		var sent [][]model.RawReading
		var sentAt []model.Time
		for step, now := 0, model.Time(20); step < 80; step++ {
			now += model.Time(rnd.Intn(3))
			t0 := now - model.Time(rnd.Intn(5))
			raws := make([]model.RawReading, rnd.Intn(7)+40*(rnd.Intn(8)/7))
			for i := range raws {
				raws[i] = rd(rnd.Intn(40), rnd.Intn(3), t0+model.Time(rnd.Intn(9)-5))
				if rnd.Intn(4) > 0 {
					raws[i].Time = t0 // most readings carry their batch second
				}
				if rnd.Intn(12) == 0 {
					raws[i].Reader = model.NoReader
				}
			}
			if len(sent) > 0 && rnd.Intn(5) == 0 {
				k := rnd.Intn(len(sent)) // a retransmission, shuffled
				t0, raws = sentAt[k], append([]model.RawReading(nil), sent[k]...)
				rnd.Shuffle(len(raws), func(i, j int) { raws[i], raws[j] = raws[j], raws[i] })
			}
			sent, sentAt = append(sent, raws), append(sentAt, t0)
			wantDropped, wantRejected := ref.offer(t0, raws)
			var gotDropped int
			var gotRejected bool
			if err := b.Offer(t0, append([]model.RawReading(nil), raws...)); err != nil {
				gotDropped, gotRejected = err.(*Error).Dropped, err.(*Error).Rejected
			}
			if gotDropped != wantDropped || gotRejected != wantRejected {
				t.Fatalf("seed %d step %d: Offer(%d, %v) dropped %d rejected %v, reference %d %v",
					seed, step, t0, raws, gotDropped, gotRejected, wantDropped, wantRejected)
			}
			if w, _ := b.Watermark(); w != ref.watermark || b.Drops() != ref.drops ||
				b.ForcedFlushes() != ref.forced || b.PendingSeconds() != len(ref.pending) {
				t.Fatalf("seed %d step %d: watermark %d drops %+v forced %d pending %d, reference %d %+v %d %d",
					seed, step, w, b.Drops(), b.ForcedFlushes(), b.PendingSeconds(),
					ref.watermark, ref.drops, ref.forced, len(ref.pending))
			}
		}
		b.FlushAll()
		ref.flushUpTo(1 << 40)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: flushed\n%v\nreference\n%v", seed, got, want)
		}
	}
}
