// Package model holds the small set of identifier and record types shared by
// the RFID substrate, the collector, the inference modules, and the query
// evaluator. Keeping them here avoids import cycles between those packages.
package model

import (
	"fmt"
	"sort"
)

// ObjectID identifies a moving object. Each object carries exactly one RFID
// tag, so the object ID doubles as the tag ID in raw readings.
type ObjectID int

// ReaderID identifies a deployed RFID reader.
type ReaderID int

// NoReader is the ReaderID used when no reader is involved (for example, an
// aggregated entry for a second in which an object went undetected).
const NoReader ReaderID = -1

// Time is a simulation time stamp in whole seconds. The paper's collector
// aggregates raw reads to one-second entries, so seconds are the system's
// native resolution.
type Time int64

// RawReading is a single raw RFID read: reader r saw the tag of object o at
// time t (with sub-second reads already carrying the same Time value).
type RawReading struct {
	Object ObjectID
	Reader ReaderID
	Time   Time
}

// String implements fmt.Stringer.
func (r RawReading) String() string {
	return fmt.Sprintf("o%d@d%d t=%d", r.Object, r.Reader, r.Time)
}

// Batch is one delivery of raw readings from a gateway: the readings
// produced (or retransmitted) for batch second Time. Gateways batch at one
// second granularity, but a delivery's readings may carry neighboring time
// stamps — the ingestion path routes each reading by its own Time.
type Batch struct {
	Time     Time         `json:"time"`
	Readings []RawReading `json:"readings"`
}

// AggregatedReading is a one-second aggregated entry for one object: during
// second Time the object was detected by Reader (NoReader when undetected).
type AggregatedReading struct {
	Object ObjectID
	Reader ReaderID
	Time   Time
}

// Detected reports whether the entry records an actual detection.
func (a AggregatedReading) Detected() bool { return a.Reader != NoReader }

// EventKind distinguishes the collector's ENTER and LEAVE events.
type EventKind int

const (
	// Enter is recorded when an object enters a reader's activation range.
	Enter EventKind = iota
	// Leave is recorded when an object leaves a reader's activation range.
	Leave
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Enter:
		return "ENTER"
	case Leave:
		return "LEAVE"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is an ENTER or LEAVE observation of an object at a reader.
type Event struct {
	Kind   EventKind
	Object ObjectID
	Reader ReaderID
	Time   Time
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s o%d d%d t=%d", e.Kind, e.Object, e.Reader, e.Time)
}

// ObjProb pairs an object with a probability, the unit of probabilistic
// query answers throughout the system.
type ObjProb struct {
	Object ObjectID
	P      float64
}

// ResultSet is a probabilistic query answer: for each object, the
// probability that it satisfies the query. It implements the resultSet
// addition and multiplication operations of the paper's Algorithm 3.
type ResultSet map[ObjectID]float64

// Add merges another result set into s, summing probabilities per object
// (the paper's resultSet "+" operation).
func (s ResultSet) Add(other ResultSet) {
	for o, p := range other {
		s[o] += p
	}
}

// Scale multiplies every probability by ratio (the paper's resultSet "*"
// operation used for the hallway-width and room-area compensation).
func (s ResultSet) Scale(ratio float64) {
	for o := range s {
		s[o] *= ratio
	}
}

// TotalProb returns the sum of all probabilities in s (used by the kNN
// algorithm's stopping criterion). The sum runs in ascending object order:
// float addition is not associative, and the stopping criterion compares the
// total against a threshold, so summing in map iteration order would let two
// ResultSets with identical contents disagree on a borderline comparison —
// making kNN answers differ between otherwise identical systems.
func (s ResultSet) TotalProb() float64 {
	ids := make([]ObjectID, 0, len(s))
	for o := range s {
		ids = append(ids, o)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	t := 0.0
	for _, o := range ids {
		t += s[o]
	}
	return t
}

// Clone returns a deep copy of s.
func (s ResultSet) Clone() ResultSet {
	c := make(ResultSet, len(s))
	for o, p := range s {
		c[o] = p
	}
	return c
}

// Objects returns the objects present in s in unspecified order.
func (s ResultSet) Objects() []ObjectID {
	out := make([]ObjectID, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	return out
}
