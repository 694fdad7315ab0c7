package health

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
)

// refMonitor infers health the obvious way — a set of objects per reader
// each second, a map of pending expectations walked whole every second — and
// is the reference Monitor's dense evidence is held to. It keeps its reader
// states in a Monitor of its own, so Snapshot and Unhealthy read both sides
// through the same code.
type refMonitor struct {
	m       *Monitor
	pending map[model.ObjectID]refPending
}

type refPending struct {
	reader model.ReaderID
	since  model.Time // second of the last detection
}

func newRefMonitor(t *testing.T, cfg Config, numReaders int) *refMonitor {
	t.Helper()
	m, err := NewMonitor(cfg, numReaders)
	if err != nil {
		t.Fatal(err)
	}
	return &refMonitor{m: m, pending: map[model.ObjectID]refPending{}}
}

func (ref *refMonitor) observeSecond(t model.Time, raws []model.RawReading) (changed bool) {
	m := ref.m
	if !m.cfg.Enabled || len(m.readers) == 0 {
		return false
	}
	if m.started && t <= m.now {
		return false
	}
	m.now, m.started = t, true

	// Samples per (reader, object) this second, and the readers with any
	// reading at all.
	counts := map[model.ReaderID]map[model.ObjectID]int{}
	anyRead := map[model.ReaderID]bool{}
	for _, r := range raws {
		if r.Reader == model.NoReader || int(r.Reader) >= len(m.readers) || int(r.Reader) < 0 {
			continue
		}
		anyRead[r.Reader] = true
		if r.Time != t {
			continue
		}
		if counts[r.Reader] == nil {
			counts[r.Reader] = map[model.ObjectID]int{}
		}
		counts[r.Reader][r.Object]++
	}

	// Re-attribute each detected object to the reader with the most
	// samples, ties to the lower ID.
	best := map[model.ObjectID]int{}
	for rd, set := range counts {
		for obj, n := range set {
			p, seen := ref.pending[obj]
			if !seen || p.since != t || n > best[obj] || (n == best[obj] && rd < p.reader) {
				ref.pending[obj], best[obj] = refPending{reader: rd, since: t}, n
			}
		}
	}
	// Expire objects past the horizon and tally recently vanished objects
	// per reader.
	recent := map[model.ReaderID]int{}
	for obj, p := range ref.pending {
		age := t - p.since
		if age > model.Time(m.cfg.ExpectHorizon) {
			delete(ref.pending, obj)
			continue
		}
		if age > 0 {
			recent[p.reader]++
		}
	}

	for id := range m.readers {
		rs := &m.readers[id]
		rid := model.ReaderID(id)
		obs := len(counts[rid])
		if anyRead[rid] {
			if obs > 0 {
				rs.rate += m.cfg.RateAlpha * (float64(obs) - rs.rate)
			}
			rs.missed = 0
			rs.lastRead = t
			rs.everRead = true
			rs.recoverStreak++
			switch rs.state {
			case Suspect:
				rs.state = Live
				rs.transitions++
				changed = true
			case Dead:
				if rs.recoverStreak >= m.cfg.RecoverSeconds {
					rs.state = Live
					rs.transitions++
					changed = true
				}
			}
			continue
		}
		rs.recoverStreak = 0
		if !rs.everRead {
			continue
		}
		expect := rs.rate
		if g := float64(recent[rid]); g < expect {
			expect = g
		}
		rs.missed = rs.missed*m.cfg.MissedDecay + expect
		switch {
		case rs.state != Dead && rs.missed >= m.cfg.DeadMissed:
			rs.state = Dead
			rs.transitions++
			changed = true
		case rs.state == Live && rs.missed >= m.cfg.SuspectMissed:
			rs.state = Suspect
			rs.transitions++
			changed = true
		}
	}
	if changed {
		m.rebuildUnhealthy()
	}
	return changed
}

func (ref *refMonitor) release(obj model.ObjectID) {
	if ref.m.cfg.Enabled {
		delete(ref.pending, obj)
	}
}

// healthStream generates seconds of readings for the differential test:
// objects (IDs 0 and negative among them) dwelling at readers and handing
// on, vanishing and coming back, some read by two readers at once with
// tied and untied sample counts, readings with a skewed stamp, with no
// reader or with a reader outside the deployment, readers going dark and
// recovering, in runs per object or shuffled.
type healthStream struct {
	rnd     *rand.Rand
	readers int
	objs    []model.ObjectID
	home    []model.ReaderID // the reader each object dwells at; NoReader while gone
	dark    []int            // seconds each reader has left of an outage
}

func newHealthStream(seed int64, readers, objects int) *healthStream {
	g := &healthStream{rnd: rand.New(rand.NewSource(seed)), readers: readers, dark: make([]int, readers)}
	for i := 0; i < objects; i++ {
		g.objs = append(g.objs, model.ObjectID(i-objects/4)) // a quarter negative, one of them 0
		g.home = append(g.home, model.ReaderID(g.rnd.Intn(readers)))
	}
	return g
}

func (g *healthStream) second(t model.Time) []model.RawReading {
	rnd := g.rnd
	for r := range g.dark {
		switch {
		case g.dark[r] > 0:
			g.dark[r]--
		case rnd.Intn(150) == 0:
			g.dark[r] = 5 + rnd.Intn(40)
		}
	}
	var raws []model.RawReading
	add := func(obj model.ObjectID, rd model.ReaderID, n int) {
		for k := 0; k < n; k++ {
			raws = append(raws, model.RawReading{Object: obj, Reader: rd, Time: t})
		}
	}
	for i, obj := range g.objs {
		switch {
		case g.home[i] == model.NoReader:
			if rnd.Intn(8) == 0 {
				g.home[i] = model.ReaderID(rnd.Intn(g.readers))
			}
			continue
		case rnd.Intn(25) == 0:
			g.home[i] = model.NoReader // walks into a room
			continue
		case rnd.Intn(12) == 0:
			g.home[i] = model.ReaderID((int(g.home[i]) + 1) % g.readers) // hands on
		}
		rd := g.home[i]
		if g.dark[rd] > 0 {
			continue
		}
		add(obj, rd, 1+rnd.Intn(3))
		if rnd.Intn(6) == 0 { // a second reader reads it too
			other := model.ReaderID(rnd.Intn(g.readers))
			if g.dark[other] == 0 {
				add(obj, other, 1+rnd.Intn(3))
			}
		}
	}
	for k := rnd.Intn(4); k > 0; k-- {
		obj := g.objs[rnd.Intn(len(g.objs))]
		junk := model.RawReading{Object: obj, Reader: model.ReaderID(rnd.Intn(g.readers)), Time: t + model.Time(rnd.Intn(5)-2)}
		switch rnd.Intn(4) {
		case 0:
			junk.Reader = model.NoReader
		case 1:
			junk.Reader = model.ReaderID(g.readers + rnd.Intn(3))
		case 2:
			junk.Reader = -2 - model.ReaderID(rnd.Intn(3))
		}
		raws = append(raws, junk)
	}
	if rnd.Intn(3) == 0 {
		rnd.Shuffle(len(raws), func(i, j int) { raws[i], raws[j] = raws[j], raws[i] })
	}
	return raws
}

// TestMonitorMatchesReference drives the dense Monitor and the map-based
// reference with the same generated stream — skipped and replayed seconds
// and releases of known and unknown objects along the way — and requires
// the same verdicts, records and unhealthy set after every second.
func TestMonitorMatchesReference(t *testing.T) {
	tight := DefaultConfig()
	tight.ExpectHorizon, tight.SuspectMissed, tight.DeadMissed, tight.MissedDecay = 3, 3.5, 7, 1
	for _, readers := range []int{5, 19, 70} {
		for _, cfg := range []Config{DefaultConfig(), tight} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("readers=%d/horizon=%d/seed=%d", readers, cfg.ExpectHorizon, seed), func(t *testing.T) {
					checkAgainstReference(t, cfg, readers, seed)
				})
			}
		}
	}
}

func checkAgainstReference(t *testing.T, cfg Config, readers int, seed int64) {
	m, err := NewMonitor(cfg, readers)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefMonitor(t, cfg, readers)
	g := newHealthStream(seed, readers, 6*readers)
	rnd := rand.New(rand.NewSource(seed + 1000))
	sec, transitions, seconds := model.Time(0), 0, 0
	for step := 0; step < 400; step++ {
		t0 := sec
		switch k := rnd.Intn(20); {
		case k == 0 && sec > 0:
			t0 = sec - model.Time(rnd.Intn(3)) // replayed
		case k == 1:
			t0 = sec + 2 + model.Time(rnd.Intn(cfg.ExpectHorizon+3)) // skipped
		default:
			t0 = sec + 1
		}
		raws := g.second(t0)
		got, want := m.ObserveSecond(t0, raws), ref.observeSecond(t0, raws)
		if got != want {
			t.Fatalf("second %d: changed %v, reference %v", t0, got, want)
		}
		if t0 > sec {
			sec = t0
			seconds++
		}
		for k := rnd.Intn(4); k > 0; k-- {
			obj := g.objs[rnd.Intn(len(g.objs))] - model.ObjectID(rnd.Intn(2)*len(g.objs)) // sometimes unknown
			m.Release(obj)
			ref.release(obj)
		}
		snap, want2 := m.Snapshot(sec), ref.m.Snapshot(sec)
		if !reflect.DeepEqual(snap, want2) {
			t.Fatalf("second %d: snapshot\n%+v\nreference\n%+v", sec, snap, want2)
		}
		if !reflect.DeepEqual(m.Unhealthy(), ref.m.Unhealthy()) {
			t.Fatalf("second %d: unhealthy %v, reference %v", sec, m.Unhealthy(), ref.m.Unhealthy())
		}
		if len(m.index) != len(ref.pending) {
			t.Fatalf("second %d: %d expectations, reference %d", sec, len(m.index), len(ref.pending))
		}
	}
	for _, h := range m.Snapshot(sec) {
		transitions += h.Transitions
	}
	if seconds < 200 || transitions == 0 {
		t.Fatalf("stream too tame: %d seconds observed, %d transitions", seconds, transitions)
	}
}
