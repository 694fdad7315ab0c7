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
	"fmt"

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
	// the building).
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
	if c.ExpectHorizon <= 0 {
		return fmt.Errorf("health: ExpectHorizon must be positive, got %d", c.ExpectHorizon)
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

// pendingObj tracks an object whose most recent detection anywhere was by
// lastReader and that has not been seen since.
type pendingObj struct {
	reader model.ReaderID
	since  model.Time // second of the last detection
}

// Monitor infers per-reader health from the observed reading stream. It is
// not safe for concurrent use; the engine drives it under its ingest lock
// (the same single-writer discipline as the collector).
type Monitor struct {
	cfg     Config
	readers []readerState
	pending map[model.ObjectID]pendingObj
	now     model.Time

	// scratch maps reused across ObserveSecond calls.
	counts map[model.ReaderID]map[model.ObjectID]struct{}

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
	if numReaders < 0 {
		return nil, fmt.Errorf("health: negative reader count %d", numReaders)
	}
	return &Monitor{
		cfg:     cfg,
		readers: make([]readerState, numReaders),
		pending: make(map[model.ObjectID]pendingObj),
		counts:  make(map[model.ReaderID]map[model.ObjectID]struct{}),
	}, nil
}

// Enabled reports whether the monitor is active.
func (m *Monitor) Enabled() bool { return m.cfg.Enabled }

// State returns the reader's current health state.
func (m *Monitor) State(id model.ReaderID) State {
	if int(id) < 0 || int(id) >= len(m.readers) {
		return Live
	}
	return m.readers[id].state
}

// Unhealthy returns the non-LIVE set as a []bool indexed by ReaderID, or nil
// when every reader is LIVE. The slice is owned by the monitor and replaced
// wholesale on change; callers must treat it as read-only.
func (m *Monitor) Unhealthy() []bool { return m.unhealthy }

// ObserveSecond feeds the monitor the raw readings ingested for stream
// second t and reports whether any reader changed state. Readings with no
// reader attached are ignored; a mis-stamped reading still proves its reader
// alive (its clock is broken, not its radio).
func (m *Monitor) ObserveSecond(t model.Time, raws []model.RawReading) (changed bool) {
	if !m.cfg.Enabled || len(m.readers) == 0 {
		return false
	}
	if t <= m.now && m.now != 0 {
		// Replayed or non-advancing second: nothing new to learn.
		return false
	}
	m.now = t

	// Distinct objects per reader this second (the detection counts the
	// rate EWMA tracks), reusing the scratch maps.
	for r, set := range m.counts {
		clear(set)
		_ = r
	}
	anyRead := make(map[model.ReaderID]bool, 4)
	for _, r := range raws {
		if r.Reader == model.NoReader || int(r.Reader) >= len(m.readers) || int(r.Reader) < 0 {
			continue
		}
		anyRead[r.Reader] = true
		if r.Time != t {
			continue // mis-stamped: proves liveness, but is not a clean detection
		}
		set := m.counts[r.Reader]
		if set == nil {
			set = make(map[model.ObjectID]struct{})
			m.counts[r.Reader] = set
		}
		set[r.Object] = struct{}{}
	}

	// Re-attribute detected objects: a detection anywhere releases every
	// prior expectation for the object and opens a new one.
	for rd, set := range m.counts {
		for obj := range set {
			m.pending[obj] = pendingObj{reader: rd, since: t}
		}
	}
	// Expire objects past the horizon and tally recently vanished objects
	// per reader (the expectation gate).
	recent := make(map[model.ReaderID]int, 4)
	for obj, p := range m.pending {
		age := t - p.since
		if age > model.Time(m.cfg.ExpectHorizon) {
			delete(m.pending, obj)
			continue
		}
		if age > 0 {
			recent[p.reader]++
		}
	}

	for id := range m.readers {
		rs := &m.readers[id]
		rid := model.ReaderID(id)
		obs := len(m.counts[rid])
		if anyRead[rid] {
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

// Release drops any pending expectation for obj. The engine calls it when
// the collector explains the object's silence — an ENTER event means the
// object walked into a room, and rooms are uncovered, so its last reader
// should not expect further detections. Without this, a handful of objects
// entering rooms near the same door reader inside the horizon could be
// mistaken for that reader's range going dark.
func (m *Monitor) Release(obj model.ObjectID) {
	if !m.cfg.Enabled {
		return
	}
	delete(m.pending, obj)
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
