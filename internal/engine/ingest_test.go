package engine

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// delivery is one perturbed gateway delivery: the readings of batch second
// batch, arriving at stream position due.
type delivery struct {
	due   model.Time
	batch model.Time
	seq   int
	raws  []model.RawReading
}

func sameMultiset(a, b []model.RawReading) bool {
	if len(a) != len(b) {
		return false
	}
	less := func(s []model.RawReading) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Time != s[j].Time {
				return s[i].Time < s[j].Time
			}
			if s[i].Object != s[j].Object {
				return s[i].Object < s[j].Object
			}
			return s[i].Reader < s[j].Reader
		}
	}
	as := append([]model.RawReading(nil), a...)
	bs := append([]model.RawReading(nil), b...)
	sort.Slice(as, less(as))
	sort.Slice(bs, less(bs))
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestReorderedIngestBitForBitIdentical is the hardening property test:
// delaying, splitting, and retransmitting the delivery stream — while the
// reorder buffer absorbs it all within its horizon — must leave the filter
// output bit-for-bit identical to in-order delivery, with every discarded
// reading accounted for.
func TestReorderedIngestBitForBitIdentical(t *testing.T) {
	const (
		seconds = 150
		horizon = model.Time(6)
	)
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfgA := DefaultConfig()
	cfgA.Seed = 7
	cfgB := cfgA
	cfgB.Ingest = ingest.Config{Horizon: horizon}
	sysA := MustNew(plan, dep, cfgA)
	sysB := MustNew(plan, dep, cfgB)

	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 25
	tc.DwellMin, tc.DwellMax = 2, 10
	simulator := sim.MustNew(sysA.Graph(), rfid.NewSensor(dep), tc, 4711)

	// One shared true stream. System A gets it in order; system B gets a
	// perturbed delivery schedule built from the same data.
	type second struct {
		t    model.Time
		raws []model.RawReading
	}
	var stream []second
	for i := 0; i < seconds; i++ {
		tm, raws := simulator.Step()
		stream = append(stream, second{tm, raws})
		if err := sysA.Ingest(tm, raws); err != nil {
			t.Fatalf("in-order ingest t=%d: %v", tm, err)
		}
	}

	// Perturb: every batch is delayed by 0..horizon seconds; ~30% are split
	// into two distinct sub-deliveries with independent delays; ~20% of the
	// unsplit ones are retransmitted within the horizon. Every original
	// second is still offered (possibly empty), so no gaps arise.
	prng := rng.New(99)
	var dels []delivery
	seq := 0
	add := func(due, batch model.Time, raws []model.RawReading) {
		dels = append(dels, delivery{due: due, batch: batch, seq: seq, raws: raws})
		seq++
	}
	delay := func() model.Time { return model.Time(prng.Intn(int(horizon) + 1)) }
	offered, dupReadings, delayed, splits, dups := 0, 0, 0, 0, 0
	for _, s := range stream {
		offered += len(s.raws)
		split := false
		if len(s.raws) >= 2 && prng.Bool(0.3) {
			k := 1 + prng.Intn(len(s.raws)-1)
			h1, h2 := s.raws[:k], s.raws[k:]
			// Identical halves would be deduplicated as a retransmission;
			// only genuinely distinct sub-deliveries model a split.
			if !sameMultiset(h1, h2) {
				split = true
				splits++
				add(s.t+delay(), s.t, h1)
				add(s.t+delay(), s.t, h2)
			}
		}
		if !split {
			add(s.t+delay(), s.t, s.raws)
			if len(s.raws) > 0 && prng.Bool(0.2) {
				// Retransmission of the whole delivery, still within the
				// horizon so it meets the pending copy and is deduplicated.
				add(s.t+delay(), s.t, s.raws)
				dupReadings += len(s.raws)
				offered += len(s.raws)
				dups++
			}
		}
	}
	// Deliver in arrival order: by due second, then ascending batch second
	// (a gateway flushes its oldest buffered batch first), then emission.
	sort.Slice(dels, func(i, j int) bool {
		if dels[i].due != dels[j].due {
			return dels[i].due < dels[j].due
		}
		if dels[i].batch != dels[j].batch {
			return dels[i].batch < dels[j].batch
		}
		return dels[i].seq < dels[j].seq
	})
	for i := 1; i < len(dels); i++ {
		if dels[i].batch < dels[i-1].batch {
			delayed++
		}
	}
	if splits == 0 || dups == 0 || delayed == 0 {
		t.Fatalf("degenerate perturbation: %d splits, %d duplicates, %d inversions", splits, dups, delayed)
	}

	for _, d := range dels {
		err := sysB.Ingest(d.batch, d.raws)
		if err == nil {
			continue
		}
		var ie *ingest.Error
		if !errors.As(err, &ie) || ie.Kind != ingest.KindDuplicate {
			t.Fatalf("perturbed ingest batch=%d due=%d: unexpected %v", d.batch, d.due, err)
		}
	}
	sysB.FlushIngest()

	// Accounting: the clean path dropped nothing; the perturbed path dropped
	// exactly the retransmitted readings, nothing silently.
	stA, stB := sysA.Stats(), sysB.Stats()
	if stA.ReadingsDropped != 0 || stA.Ingest.GapSeconds != 0 {
		t.Errorf("in-order path recorded drops: %+v", stA.Ingest)
	}
	if stB.Ingest.DuplicateReadings != dupReadings {
		t.Errorf("duplicate readings = %d, want %d", stB.Ingest.DuplicateReadings, dupReadings)
	}
	if stB.Ingest.LateReadings != 0 || stB.Ingest.MisstampedReadings != 0 ||
		stB.Ingest.InvalidReadings != 0 || stB.Ingest.GapSeconds != 0 {
		t.Errorf("unexpected drops on perturbed path: %+v", stB.Ingest)
	}
	if stB.ReadingsPending != 0 {
		t.Errorf("%d readings still pending after FlushIngest", stB.ReadingsPending)
	}
	if loss := metrics.SilentLoss(offered, stB.ReadingsIngested, stB.ReadingsDropped, stB.ReadingsPending); loss != 0 {
		t.Errorf("silent loss = %d (offered %d, ingested %d, dropped %d)",
			loss, offered, stB.ReadingsIngested, stB.ReadingsDropped)
	}
	if stA.ReadingsIngested != stB.ReadingsIngested {
		t.Errorf("ingested diverged: in-order %d, reordered %d", stA.ReadingsIngested, stB.ReadingsIngested)
	}

	// The filter output must be bit-for-bit identical.
	objsA := sysA.Collector().KnownObjects()
	objsB := sysB.Collector().KnownObjects()
	if len(objsA) == 0 {
		t.Fatal("no objects detected")
	}
	if fmt.Sprint(objsA) != fmt.Sprint(objsB) {
		t.Fatalf("known objects diverged: %v vs %v", objsA, objsB)
	}
	tabA := sysA.Preprocess(objsA)
	tabB := sysB.Preprocess(objsB)
	for _, obj := range objsA {
		da, db := tabA.DistributionOf(obj).Map(), tabB.DistributionOf(obj).Map()
		if diff := diffDistributions(da, db); diff != "" {
			t.Errorf("object %d distributions diverged: %s", obj, diff)
		}
	}
}

// diffDistributions compares two anchor distributions exactly (bit for bit)
// and describes the first difference, or returns "".
func diffDistributions(a, b map[anchor.ID]float64) string {
	keys := make(map[anchor.ID]struct{}, len(a)+len(b))
	for k := range a {
		keys[k] = struct{}{}
	}
	for k := range b {
		keys[k] = struct{}{}
	}
	ids := make([]anchor.ID, 0, len(keys))
	for k := range keys {
		ids = append(ids, k)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		va, oka := a[id]
		vb, okb := b[id]
		if oka != okb || fmt.Sprintf("%x", va) != fmt.Sprintf("%x", vb) {
			return fmt.Sprintf("anchor %d: %x (%v) vs %x (%v)", id, va, oka, vb, okb)
		}
	}
	return ""
}

// TestIngestDropAccounting walks the engine through each drop kind and
// checks the typed errors and Stats counters line up.
func TestIngestDropAccounting(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	sys := MustNew(plan, dep, DefaultConfig())
	rd := func(obj int, tm model.Time) model.RawReading {
		return model.RawReading{Object: model.ObjectID(obj), Reader: 0, Time: tm}
	}

	if err := sys.Ingest(10, []model.RawReading{rd(1, 10)}); err != nil {
		t.Fatalf("clean ingest: %v", err)
	}
	// Late batch: refused whole.
	err := sys.Ingest(9, []model.RawReading{rd(1, 9)})
	var ie *ingest.Error
	if !errors.As(err, &ie) || ie.Kind != ingest.KindLate || !ie.Rejected {
		t.Fatalf("late batch error = %v", err)
	}
	// Mis-stamped reading far beyond the skew tolerance.
	err = sys.Ingest(11, []model.RawReading{rd(1, 11), rd(2, 11+ingest.DefaultMaxSkew+1)})
	if !errors.As(err, &ie) || ie.Kind != ingest.KindMisstamped || ie.Rejected {
		t.Fatalf("misstamped error = %v", err)
	}
	// Reading with no reader attached.
	err = sys.Ingest(12, []model.RawReading{{Object: 3, Reader: model.NoReader, Time: 12}})
	if !errors.As(err, &ie) || ie.Kind != ingest.KindInvalid {
		t.Fatalf("invalid error = %v", err)
	}
	// A hole in the stream becomes counted gap seconds.
	if err := sys.Ingest(20, []model.RawReading{rd(1, 20)}); err != nil {
		t.Fatalf("post-gap ingest: %v", err)
	}

	st := sys.Stats()
	if st.Ingest.LateBatches != 1 || st.Ingest.LateReadings != 1 {
		t.Errorf("late accounting: %+v", st.Ingest)
	}
	if st.Ingest.MisstampedReadings != 1 || st.Ingest.InvalidReadings != 1 {
		t.Errorf("misstamped/invalid accounting: %+v", st.Ingest)
	}
	if st.Ingest.GapSeconds != 7 { // seconds 13..19
		t.Errorf("gap seconds = %d, want 7", st.Ingest.GapSeconds)
	}
	if st.ReadingsDropped != 3 {
		t.Errorf("ReadingsDropped = %d, want 3", st.ReadingsDropped)
	}
	if st.ReadingsIngested != 3 { // seconds 10, 11, 20
		t.Errorf("ReadingsIngested = %d, want 3", st.ReadingsIngested)
	}
}
