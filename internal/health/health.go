// Package health infers per-reader liveness from the reading stream alone.
// The paper's sensing model silently assumes every RFID reader is alive: a
// second of silence is negative evidence that pushes particle mass out of
// activation ranges, and the pruner's uncertain regions grow only from
// elapsed time — so a dead reader makes the filter confidently wrong instead
// of merely uncertain. Following the distributed-inference line of work
// (Cao et al., VLDB 2011), this package models reader unreliability
// explicitly: a Monitor compares each reader's expected detection rate
// against what actually arrived and walks a LIVE → SUSPECT → DEAD state
// machine with hysteresis. The engine feeds the resulting unhealthy set to
// the particle filter (suppressing the negative-information penalty inside
// unhealthy ranges) and to the query pruner (widening uncertain regions), so
// inference degrades to "uncertain" instead of "confidently wrong".
//
// The monitor is driven by stream time (the ingested batch seconds), not
// wall-clock time, so its verdicts are deterministic and reproducible: the
// same reading stream always yields the same state trajectory, and recovery
// replay rebuilds the same states.
//
// Signals. Silence alone cannot distinguish a dead reader from a reader
// whose traffic legitimately walked away (rooms are uncovered, so an object
// dwelling in a room is silent for minutes). The monitor therefore gates its
// expectation on attribution: an object detected by reader r and then seen
// nowhere keeps r "expecting" detections for ExpectHorizon seconds; an
// object handed off to another reader releases r immediately. Each silent
// second accrues min(EWMA rate, recently vanished objects) expected-but-
// missing detections; crossing SuspectMissed flags the reader, crossing
// DeadMissed declares it dead. A single vanished object can never exceed
// ExpectHorizon accrued misses, so the default thresholds make a lone
// room-dweller structurally unable to flag a healthy reader — it takes at
// least two coincident vanishes, the signature of a range going dark.
package health

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
)

// State is a reader's inferred liveness.
type State uint8

const (
	// Live means the reader is believed healthy; sensing-model compensation
	// is fully passive for LIVE readers.
	Live State = iota
	// Suspect means the reader has accrued enough expected-but-missing
	// detections to distrust its silence. Compensation treats SUSPECT like
	// DEAD (both are conservative); the distinction is evidentiary strength.
	Suspect
	// Dead means the missing-detection evidence crossed the dead threshold.
	Dead
)

func (s State) String() string {
	switch s {
	case Live:
		return "live"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config parameterizes the Monitor. The zero value disables monitoring
// entirely (every reader reports LIVE forever); DefaultConfig returns the
// tuned defaults.
type Config struct {
	// Enabled turns the monitor on. When false the monitor is inert: every
	// reader stays LIVE and ObserveSecond is a no-op, which keeps the whole
	// compensation layer bit-for-bit passive.
	Enabled bool
	// RateAlpha is the EWMA smoothing factor for per-reader detection rates
	// (objects/second), applied on seconds the reader produced readings.
	RateAlpha float64
	// ExpectHorizon is how many seconds an object that vanished from a
	// reader (detected there, then seen nowhere) keeps that reader
	// "expecting" detections. Past the horizon the object is presumed to
	// have legitimately left coverage (parked in an uncovered room, left
	// the building). At most a day.
	ExpectHorizon int
	// SuspectMissed is the accrued expected-but-missing detection count at
	// which a LIVE reader becomes SUSPECT. It must exceed ExpectHorizon so
	// a single vanished object cannot flag a healthy reader.
	SuspectMissed float64
	// DeadMissed is the accrual at which a reader is declared DEAD.
	DeadMissed float64
	// MissedDecay is the per-second multiplicative decay of the accrued
	// miss evidence, so stale partial evidence from isolated events does
	// not accumulate across minutes into a false positive.
	MissedDecay float64
	// RecoverSeconds is the hysteresis band on the way back: a DEAD reader
	// must produce readings in this many consecutive stream seconds before
	// it is trusted LIVE again (SUSPECT recovers on the first reading — a
	// detection is proof of life, suspicion was only statistical).
	RecoverSeconds int
}

// maxExpectHorizon bounds ExpectHorizon (a day, in seconds): the monitor
// keeps one list head per second of the horizon.
const maxExpectHorizon = 86400

// DefaultConfig returns the tuned monitor defaults. With ExpectHorizon 6 and
// SuspectMissed 8, one vanished object accrues at most 6 < 8: flagging a
// reader takes at least two objects going dark near-simultaneously, which is
// the signature of a range dying rather than of one person entering a room.
func DefaultConfig() Config {
	return Config{
		Enabled:        true,
		RateAlpha:      0.2,
		ExpectHorizon:  6,
		SuspectMissed:  8,
		DeadMissed:     16,
		MissedDecay:    0.97,
		RecoverSeconds: 2,
	}
}

// Validate checks the configuration. The zero value (disabled) is valid.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.RateAlpha <= 0 || c.RateAlpha > 1 {
		return fmt.Errorf("health: RateAlpha %v out of (0, 1]", c.RateAlpha)
	}
	if c.ExpectHorizon <= 0 || c.ExpectHorizon > maxExpectHorizon {
		return fmt.Errorf("health: ExpectHorizon %d out of [1, %d]", c.ExpectHorizon, maxExpectHorizon)
	}
	if c.SuspectMissed <= float64(c.ExpectHorizon) {
		return fmt.Errorf("health: SuspectMissed %v must exceed ExpectHorizon %d (a single vanished object must not flag a reader)",
			c.SuspectMissed, c.ExpectHorizon)
	}
	if c.DeadMissed < c.SuspectMissed {
		return fmt.Errorf("health: DeadMissed %v below SuspectMissed %v", c.DeadMissed, c.SuspectMissed)
	}
	if c.MissedDecay <= 0 || c.MissedDecay > 1 {
		return fmt.Errorf("health: MissedDecay %v out of (0, 1]", c.MissedDecay)
	}
	if c.RecoverSeconds <= 0 {
		return fmt.Errorf("health: RecoverSeconds must be positive, got %d", c.RecoverSeconds)
	}
	return nil
}

// ReaderHealth is one reader's externally visible health record, served at
// GET /readers and mirrored into /metrics.
type ReaderHealth struct {
	Reader model.ReaderID `json:"reader"`
	State  State          `json:"-"`
	// StateName is the lowercase state for JSON consumers.
	StateName string `json:"state"`
	// SilenceSeconds is stream-now minus the last second the reader
	// produced any reading (0 when it read this second; -1 when it has
	// never read).
	SilenceSeconds int64 `json:"silenceSeconds"`
	// Rate is the EWMA detection rate (objects/second) while reading.
	Rate float64 `json:"rate"`
	// Missed is the accrued expected-but-missing detection evidence.
	Missed float64 `json:"missed"`
	// LastRead is the last stream second with a reading (0 = never).
	LastRead model.Time `json:"lastRead"`
	// Transitions counts state changes since startup.
	Transitions int `json:"transitions"`
}

// readerState is the per-reader monitor state.
type readerState struct {
	state         State
	rate          float64 // EWMA detections/second while reading
	missed        float64 // accrued expected-but-missing detections
	lastRead      model.Time
	everRead      bool
	recoverStreak int // consecutive seconds with readings (DEAD exit band)
	transitions   int
}

// pendingObj is an expectation: an object whose most recent detection
// anywhere was attributed to reader and that has not been seen since. It is
// linked into the list of that detection's second.
type pendingObj struct {
	obj    model.ObjectID
	reader int32
	// n counts reader's samples of the object in the second being observed,
	// once the object is detected in it (0 until then, and between seconds);
	// any other reader's samples challenge it when the second is settled.
	n          int32
	prev, next int32
}

// Monitor infers per-reader health from the observed reading stream. It is
// not safe for concurrent use; the engine drives it under its ingest lock
// (the same single-writer discipline as the collector).
type Monitor struct {
	cfg     Config
	readers []readerState
	now     model.Time
	started bool

	// The expectations. index finds an object's entry in objs. The first
	// ExpectHorizon+1 entries of objs are the heads of a ring of circular
	// lists, one per second of the horizon (the second modulo the ring's
	// size), each linking the entries detected in its second, so a second's
	// expectations expire together when its slot is reused. free heads the
	// entries a release or an expiry gave back, linked by next. expecting
	// counts per reader the entries of earlier seconds attributed to it:
	// the objects that recently vanished from it, the expectation gate.
	index     map[model.ObjectID]int32
	objs      []pendingObj
	slots     int
	free      int32
	expecting []int

	// Reused every second: the distinct objects each reader detected,
	// whether it produced any reading at all, and the readings set aside
	// because another reader had detected their object first.
	obs     []int
	anyRead []bool
	others  []model.RawReading

	// unhealthy caches the current non-LIVE set as a []bool indexed by
	// reader, nil when every reader is LIVE — the exact shape the filter
	// and pruner consume, so the all-healthy fast path costs nothing.
	unhealthy []bool
}

// NewMonitor builds a Monitor over numReaders readers, all initially LIVE.
func NewMonitor(cfg Config, numReaders int) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numReaders < 0 || numReaders > math.MaxInt32 {
		return nil, fmt.Errorf("health: reader count %d out of range", numReaders)
	}
	m := &Monitor{cfg: cfg, readers: make([]readerState, numReaders)}
	if cfg.Enabled {
		m.index = make(map[model.ObjectID]int32)
		m.slots, m.free = cfg.ExpectHorizon+1, -1
		m.objs = make([]pendingObj, m.slots)
		for k := range m.objs {
			m.objs[k].prev, m.objs[k].next = int32(k), int32(k)
		}
		m.expecting = make([]int, numReaders)
		m.obs = make([]int, numReaders)
		m.anyRead = make([]bool, numReaders)
	}
	return m, nil
}

// Unhealthy returns the non-LIVE set as a []bool indexed by ReaderID, or nil
// when every reader is LIVE. The slice is owned by the monitor and replaced
// wholesale on change; callers must treat it as read-only.
func (m *Monitor) Unhealthy() []bool { return m.unhealthy }

// ObserveSecond feeds the monitor the raw readings ingested for stream
// second t and reports whether any reader changed state. Readings with no
// reader attached are ignored; a mis-stamped reading still proves its reader
// alive (its clock is broken, not its radio). An object detected by several
// readers is attributed as the collector aggregates it: to the reader with
// the most samples, ties to the lower ID.
func (m *Monitor) ObserveSecond(t model.Time, raws []model.RawReading) (changed bool) {
	if !m.cfg.Enabled || len(m.readers) == 0 {
		return false
	}
	if m.started && t <= m.now {
		// Replayed or non-advancing second: nothing new to learn.
		return false
	}
	// Expire the expectations past the horizon: those of the seconds whose
	// slots the clock's advance reuses, every slot after a jump of more
	// than the horizon.
	step := model.Time(m.slots)
	if d := t - m.now; m.started && d > 0 && d < step {
		step = d
	}
	for k := model.Time(0); k < step; k++ {
		m.expire(m.slot(t - k))
	}
	m.now, m.started = t, true
	cur := m.slot(t)

	// A detection anywhere releases every prior expectation for the object
	// and opens a new one. Consecutive readings of one object cost one
	// index lookup between them.
	nr := uint(len(m.readers))
	last := int32(-1)
	for _, r := range raws {
		if uint(r.Reader) >= nr {
			continue // no reader attached, or not one of this deployment's
		}
		m.anyRead[r.Reader] = true
		if r.Time != t {
			continue // mis-stamped: proves liveness, but is not a clean detection
		}
		if last < 0 || m.objs[last].obj != r.Object {
			last = m.detect(r.Object, r.Reader, cur)
		}
		if e := &m.objs[last]; e.reader == int32(r.Reader) {
			e.n++
		} else {
			m.others = append(m.others, r)
		}
	}
	m.settle()

	for id := range m.readers {
		rs := &m.readers[id]
		obs, read := m.obs[id], m.anyRead[id]
		m.obs[id], m.anyRead[id] = 0, false
		if read {
			// Proof of life: update the rate, clear the evidence, and walk
			// the state toward LIVE through the hysteresis band.
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
			continue // never produced traffic: no expectation, no verdict
		}
		// Silent second: accrue the expected-but-missing detections, gated
		// by how many objects recently vanished from this reader.
		expect := rs.rate
		if g := float64(m.expecting[id]); g < expect {
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
	// This second's detections gate their readers from the next second on.
	for i := m.objs[cur].next; i != cur; i = m.objs[i].next {
		e := &m.objs[i]
		m.expecting[e.reader]++
		e.n = 0
	}

	if changed {
		m.rebuildUnhealthy()
	}
	return changed
}

// slot is the head of the list of second t.
func (m *Monitor) slot(t model.Time) int32 {
	n := model.Time(m.slots)
	return int32((t%n + n) % n)
}

// detect returns the entry of obj, detected by reader rd in the second
// whose list cur heads, opening one for an object with no expectation. An
// entry detected for the first time this second moves to cur's list,
// attributed to rd until settle.
func (m *Monitor) detect(obj model.ObjectID, rd model.ReaderID, cur int32) int32 {
	i, ok := m.index[obj]
	switch {
	case !ok:
		if i = m.free; i >= 0 {
			m.free = m.objs[i].next
		} else {
			i = int32(len(m.objs))
			m.objs = append(m.objs, pendingObj{})
		}
		m.index[obj] = i
		m.objs[i] = pendingObj{obj: obj}
	case m.objs[i].n > 0:
		return i
	default:
		m.unlink(i)
	}
	e, head := &m.objs[i], &m.objs[cur]
	e.reader, e.prev, e.next = int32(rd), cur, head.next
	m.objs[head.next].prev, head.next = i, i
	m.obs[rd]++
	return i
}

// settle lets the readings set aside challenge their objects' attribution,
// by the collector's rule: each other reader's samples of the object against
// the first reader's, most samples win, ties to the lower ID. It counts the
// other readers' distinct objects on the way.
func (m *Monitor) settle() {
	others := m.others
	slices.SortFunc(others, func(a, b model.RawReading) int {
		return cmp.Or(cmp.Compare(a.Object, b.Object), cmp.Compare(a.Reader, b.Reader))
	})
	for i := 0; i < len(others); {
		r, j := others[i], i+1
		for j < len(others) && others[j].Object == r.Object && others[j].Reader == r.Reader {
			j++
		}
		m.obs[r.Reader]++
		e := &m.objs[m.index[r.Object]]
		if n := int32(j - i); n > e.n || (n == e.n && int32(r.Reader) < e.reader) {
			e.reader, e.n = int32(r.Reader), n
		}
		i = j
	}
	m.others = others[:0]
}

// unlink takes entry i off its second's list and out of its reader's gate.
func (m *Monitor) unlink(i int32) {
	e := &m.objs[i]
	m.objs[e.prev].next, m.objs[e.next].prev = e.next, e.prev
	m.expecting[e.reader]--
}

// expire ends every expectation of the second whose list k heads.
func (m *Monitor) expire(k int32) {
	for i := m.objs[k].next; i != k; {
		e := &m.objs[i]
		m.expecting[e.reader]--
		delete(m.index, e.obj)
		next := e.next
		e.next, m.free = m.free, i
		i = next
	}
	m.objs[k].prev, m.objs[k].next = k, k
}

// Release drops any pending expectation for obj. The engine calls it for
// every ENTER the collector emits, right after the ObserveSecond of that
// second. A collector ENTER is the object entering a reader's activation
// range — the detection ObserveSecond has just attributed — not the object
// entering a room, so what Release drops is the expectation that detection
// opened: an object read at a reader for one second and then never again
// does not count among the objects that vanished from that reader.
func (m *Monitor) Release(obj model.ObjectID) {
	if !m.cfg.Enabled {
		return
	}
	if i, ok := m.index[obj]; ok {
		m.unlink(i)
		delete(m.index, obj)
		m.objs[i].next, m.free = m.free, i
	}
}

// rebuildUnhealthy refreshes the cached non-LIVE set.
func (m *Monitor) rebuildUnhealthy() {
	var set []bool
	for id := range m.readers {
		if m.readers[id].state != Live {
			if set == nil {
				set = make([]bool, len(m.readers))
			}
			set[id] = true
		}
	}
	m.unhealthy = set
}

// Snapshot returns every reader's health record as of stream second now.
func (m *Monitor) Snapshot(now model.Time) []ReaderHealth {
	out := make([]ReaderHealth, len(m.readers))
	for id := range m.readers {
		rs := &m.readers[id]
		silence := int64(-1)
		if rs.everRead {
			silence = int64(now - rs.lastRead)
			if silence < 0 {
				silence = 0
			}
		}
		out[id] = ReaderHealth{
			Reader:         model.ReaderID(id),
			State:          rs.state,
			StateName:      rs.state.String(),
			SilenceSeconds: silence,
			Rate:           rs.rate,
			Missed:         rs.missed,
			LastRead:       rs.lastRead,
			Transitions:    rs.transitions,
		}
	}
	return out
}
