package ingest

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/model"
)

// DefaultMaxSkew is the default tolerance for readings stamped ahead of
// their delivery's batch second.
const DefaultMaxSkew model.Time = 60

// Config parameterizes the reorder buffer. The zero value keeps the
// historical strict in-order contract: every delivery flushes immediately,
// anything older than the newest flushed second is a late drop, and
// readings stamped ahead of their batch second are dropped as mis-stamped
// (with no horizon there is no later flush that could ever release them).
type Config struct {
	// Horizon is the lateness horizon in seconds: a delivery for second t
	// is accepted as long as no batch newer than t+Horizon has been seen.
	// Seconds flush, in order, once the watermark (newest batch second
	// minus Horizon) passes them. 0 means in-order only: nothing is held
	// across deliveries, and ahead-stamped readings are mis-stamped drops
	// instead of being buffered. With a non-zero horizon the newest Horizon
	// seconds stay buffered until a later batch closes them, so callers
	// must drain via FlushAll (engine.Sharded.FlushIngest) at end of stream.
	Horizon model.Time
	// MaxSkew caps how far a reading's stamp may disagree with its
	// delivery's batch second: more than MaxSkew ahead is discarded as
	// mis-stamped, and the stream cannot open more than MaxSkew behind the
	// first batch second. 0 means DefaultMaxSkew.
	MaxSkew model.Time
	// MaxPending bounds the number of buffered, not-yet-flushed seconds,
	// ahead-stamped buckets included; when a delivery leaves more than
	// MaxPending seconds pending, the oldest are force-flushed early.
	// 0 derives max(4*Horizon, 64).
	MaxPending int
}

// withDefaults fills in the derived defaults.
func (c Config) withDefaults() Config {
	if c.MaxSkew == 0 {
		c.MaxSkew = DefaultMaxSkew
	}
	if c.MaxPending == 0 {
		c.MaxPending = int(4 * c.Horizon)
		if c.MaxPending < 64 {
			c.MaxPending = 64
		}
	}
	return c
}

// Sink receives one flushed second of raw readings, in strictly increasing
// second order. Seconds with no delivery at all are counted as gaps and
// skipped, so the sink sees exactly the seconds that were delivered. raws is
// the sink's for the duration of the call only: it may be the very slice the
// caller of Offer handed in, or scratch the next Offer overwrites.
type Sink func(t model.Time, raws []model.RawReading)

// pendingSecond is the buffered state of one not-yet-flushed second.
type pendingSecond struct {
	raws []model.RawReading
	// prints are the fingerprints of the sub-batches merged into this
	// second, used to drop retransmissions.
	prints []uint64
}

// Reorder is the bounded reorder buffer: it accepts out-of-order and
// multi-second deliveries, deduplicates retransmitted sub-batches, and
// flushes whole seconds to the sink in order once the watermark closes
// them. It is not safe for concurrent use.
type Reorder struct {
	cfg  Config
	sink Sink

	pending map[model.Time]*pendingSecond
	// maxSeen is the newest batch second delivered; watermark the newest
	// second closed (flushed or passed). Both are meaningful only once
	// started is set.
	maxSeen   model.Time
	watermark model.Time
	started   bool
	drops     Drops
	forced    int

	// Scratch of one Offer, reused by the next. kept holds the delivery's
	// accepted readings when they cannot stay in the caller's slice (some
	// were refused, or they were not grouped by second); closing lists, in
	// second order, the runs of the delivery that close in this very call
	// and so go to the sink without being parked; secs is flushUpTo's.
	kept    []model.RawReading
	closing []secondRun
	secs    []model.Time
}

// secondRun is one second's readings within a delivery.
type secondRun struct {
	sec  model.Time
	raws []model.RawReading
}

// NewReorder builds a reorder buffer flushing into sink.
func NewReorder(cfg Config, sink Sink) *Reorder {
	return &Reorder{cfg: cfg.withDefaults(), sink: sink, pending: make(map[model.Time]*pendingSecond)}
}

// Drops returns the cumulative drop accounting.
func (b *Reorder) Drops() Drops { return b.drops }

// ForcedFlushes returns how many seconds were flushed early because the
// number of buffered seconds hit the MaxPending bound.
func (b *Reorder) ForcedFlushes() int { return b.forced }

// PendingSeconds returns the number of buffered, not-yet-flushed seconds.
func (b *Reorder) PendingSeconds() int { return len(b.pending) }

// PendingReadings returns the number of buffered raw readings.
func (b *Reorder) PendingReadings() int {
	n := 0
	for _, ps := range b.pending {
		n += len(ps.raws)
	}
	return n
}

// Watermark returns the newest closed second; ok is false before the first
// delivery.
func (b *Reorder) Watermark() (model.Time, bool) { return b.watermark, b.started }

// MaxSeen returns the newest delivered batch second; ok is false before the
// first delivery.
func (b *Reorder) MaxSeen() (model.Time, bool) { return b.maxSeen, b.started }

// Restore positions an empty buffer at a recovered stream point: the next
// accepted delivery must be newer than watermark, and the cumulative drop
// and forced-flush accounting continues from the restored values. Buffered
// seconds are not restorable — unflushed input is by definition unacked — so
// Restore refuses nothing but silently discards any pending state.
func (b *Reorder) Restore(watermark, maxSeen model.Time, drops Drops, forced int) {
	b.pending = make(map[model.Time]*pendingSecond)
	b.watermark = watermark
	b.maxSeen = maxSeen
	b.started = true
	b.drops = drops
	b.forced = forced
}

// Lag returns the width of the open window in seconds: the newest delivered
// batch second minus the newest closed second. It is 0 before the first
// delivery and at horizon 0 (every second closes immediately); with a
// lateness horizon it measures how far ingestion currently runs behind the
// stream head — the watermark lag exported at /metrics.
func (b *Reorder) Lag() model.Time {
	if !b.started {
		return 0
	}
	return b.maxSeen - b.watermark
}

// Fingerprint hashes the multiset of readings of one sub-batch: the sum of a
// 64-bit mix of each reading, so an identical retransmission hashes equal
// regardless of reading order, in one pass and without a sorted copy. The
// reorder buffer uses it for duplicate detection; the cluster layer keys
// idempotent ingest forwards on it.
func Fingerprint(raws []model.RawReading) uint64 {
	var h uint64
	for _, r := range raws {
		h += mix64(mix64(mix64(uint64(r.Object))^uint64(r.Reader)) ^ uint64(r.Time))
	}
	return h
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Offer delivers one batch: the readings produced (or retransmitted) for
// batch second t. Readings are routed to the buffer bucket of their own
// time stamp, so a single delivery may cover several seconds. Whenever
// input is refused or discarded, Offer returns a typed *Error describing
// it; a nil return means every reading was accepted. Unless Error.Rejected
// is set, the remaining readings of the delivery were still accepted.
//
// Offer does not keep raws. A second of the delivery that closes in this call
// and has nothing parked from an earlier one goes to the sink as a sub-slice
// of raws itself (of a compacted scratch copy, when readings were refused or
// seconds interleaved); only what has to wait for a later call is copied.
func (b *Reorder) Offer(t model.Time, raws []model.RawReading) error {
	if t < 1 {
		// The stream clock starts at second 1. A smaller batch second is
		// forged or corrupt input, and opening the stream on it would wrap
		// t-MaxSkew near math.MinInt64 and close every real second.
		b.drops.InvalidReadings += len(raws)
		return &Error{Kind: KindInvalid, Time: t, Watermark: b.watermark, Dropped: len(raws), Rejected: true}
	}
	if b.started && t <= b.watermark {
		b.drops.LateBatches++
		b.drops.LateReadings += len(raws)
		return &Error{Kind: KindLate, Time: t, Watermark: b.watermark, Dropped: len(raws), Rejected: true}
	}
	if !b.started {
		// Open the stream at the earliest second this delivery mentions, so
		// the first flush starts there instead of counting phantom gaps. The
		// backward tolerance mirrors MaxSkew: one corrupt tiny stamp must not
		// open the stream absurdly early (everything up to the first honest
		// second would then count as gaps); such readings drop as late below.
		lo := t
		for _, r := range raws {
			if r.Reader != model.NoReader && r.Time < lo {
				lo = r.Time
			}
		}
		if lo < t-b.cfg.MaxSkew {
			lo = t - b.cfg.MaxSkew
		}
		b.started = true
		b.maxSeen = t
		b.watermark = lo - 1
	} else if t > b.maxSeen {
		b.maxSeen = t
	}

	// One walk validates every reading. The accepted ones stay where they
	// are, in the caller's slice, until the first refusal; from then on they
	// are compacted into scratch.
	var late, misstamped, invalid, refused int
	acc, grouped, prev := raws, true, model.Time(math.MinInt64)
	for i, r := range raws {
		switch {
		case r.Reader == model.NoReader:
			invalid++
		case r.Time <= b.watermark:
			late++
		case r.Time > t+b.cfg.MaxSkew || (b.cfg.Horizon == 0 && r.Time > t):
			// Beyond the skew tolerance, or ahead-stamped with no horizon:
			// at horizon 0 every second closes immediately, so a reading
			// parked in a future bucket would never be released.
			misstamped++
		default:
			grouped = grouped && r.Time >= prev
			prev = r.Time
			if refused > 0 {
				b.kept = append(b.kept, r)
			}
			continue
		}
		if refused == 0 {
			b.kept = append(b.kept[:0], raws[:i]...)
		}
		refused++
	}
	if refused > 0 {
		acc = b.kept
	}
	if !grouped {
		// Seconds interleave: group them, keeping delivery order within each.
		if refused == 0 {
			b.kept = append(b.kept[:0], raws...)
			acc = b.kept
		}
		slices.SortStableFunc(acc, func(x, y model.RawReading) int { return cmp.Compare(x.Time, y.Time) })
	}

	// Place each second's run, in ascending order: straight onto the closing
	// list when the second closes in this call with nothing parked for it,
	// otherwise merged into its pending bucket unless its fingerprint marks
	// it as a retransmission of a sub-batch already there. The batch second
	// itself was delivered, even when empty: it gets an empty run so the
	// flush ticks it instead of counting a gap.
	var duplicate, dupDeliveries int
	closes := b.maxSeen - b.cfg.Horizon
	place := func(sec model.Time, sub []model.RawReading) {
		ps := b.pending[sec]
		switch {
		case ps == nil && sec <= closes:
			b.closing = append(b.closing, secondRun{sec, sub})
			return
		case ps == nil:
			ps = &pendingSecond{}
			b.pending[sec] = ps
		}
		if len(sub) == 0 {
			return
		}
		fp := Fingerprint(sub)
		if slices.Contains(ps.prints, fp) {
			dupDeliveries++
			duplicate += len(sub)
			return
		}
		ps.prints = append(ps.prints, fp)
		ps.raws = append(ps.raws, sub...)
	}
	ticked := false
	for i := 0; i < len(acc); {
		sec, j := acc[i].Time, i+1
		for j < len(acc) && acc[j].Time == sec {
			j++
		}
		if !ticked && sec >= t {
			if sec > t {
				place(t, nil)
			}
			ticked = true
		}
		place(sec, acc[i:j])
		i = j
	}
	if !ticked {
		place(t, nil)
	}

	b.drops.LateReadings += late
	b.drops.MisstampedReadings += misstamped
	b.drops.InvalidReadings += invalid
	b.drops.DuplicateReadings += duplicate
	b.drops.DuplicateDeliveries += dupDeliveries

	b.flushUpTo(closes)
	if over := len(b.pending) - b.cfg.MaxPending; over > 0 {
		// The horizon left more seconds buffered than MaxPending allows
		// (ahead-stamped buckets included): force-flush the oldest so the
		// bound holds on actual buffered state, not on the watermark span.
		secs := b.secs[:0]
		for sec := range b.pending {
			secs = append(secs, sec)
		}
		slices.Sort(secs)
		b.secs = secs
		b.forced += over
		b.flushUpTo(secs[over-1])
	}

	if n := refused + duplicate; n > 0 {
		kind := KindInvalid
		switch {
		case duplicate > 0:
			kind = KindDuplicate
		case misstamped > 0:
			kind = KindMisstamped
		case late > 0:
			kind = KindLate
		}
		return &Error{Kind: kind, Time: t, Watermark: b.watermark, Dropped: n}
	}
	return nil
}

// flushUpTo closes every second up to and including target: buffered
// seconds in (watermark, target] are delivered to the sink in order, and
// the rest of the span is counted as gaps. The watermark and gap accounting
// advance BEFORE each sink call, so state the sink reads back (durability
// records, drop snapshots) is consistent with the second it receives. The
// cost is O(buffered), never O(span): batch times come from untrusted
// input, and walking an attacker-chosen span second by second would stall
// the whole server inside one delivery.
func (b *Reorder) flushUpTo(target model.Time) {
	closing := b.closing
	b.closing = b.closing[:0]
	defer clear(closing) // the runs point into the caller's slice
	if target <= b.watermark {
		return
	}
	secs := b.secs[:0]
	for sec := range b.pending {
		if sec <= target {
			secs = append(secs, sec)
		}
	}
	slices.Sort(secs)
	b.secs = secs
	// Merge the parked seconds with the delivery's closing runs; the two
	// lists are sorted and share no second.
	for len(secs)+len(closing) > 0 {
		var next secondRun
		if len(secs) == 0 || len(closing) > 0 && closing[0].sec < secs[0] {
			next, closing = closing[0], closing[1:]
		} else {
			next = secondRun{secs[0], b.pending[secs[0]].raws}
			delete(b.pending, secs[0])
			secs = secs[1:]
		}
		// The uint64 subtraction yields the exact skipped span even when the
		// int64 difference overflows; the gap counter saturates instead of
		// wrapping. Every flushed second is > watermark, so the -1 is safe.
		b.drops.GapSeconds = satAdd(b.drops.GapSeconds, uint64(next.sec)-uint64(b.watermark)-1)
		b.watermark = next.sec
		b.sink(next.sec, next.raws)
	}
	if target > b.watermark {
		b.drops.GapSeconds = satAdd(b.drops.GapSeconds, uint64(target)-uint64(b.watermark))
		b.watermark = target
	}
}

// satAdd adds d to the non-negative counter a, saturating at MaxInt.
func satAdd(a int, d uint64) int {
	if d > uint64(math.MaxInt-a) {
		return math.MaxInt
	}
	return a + int(d)
}

// FlushAll drains every buffered second regardless of the horizon, in
// order. Use it at end of stream, before final queries, or on shutdown.
func (b *Reorder) FlushAll() {
	if !b.started {
		return
	}
	hi := b.maxSeen
	for sec := range b.pending {
		if sec > hi {
			hi = sec
		}
	}
	b.flushUpTo(hi)
}
