package collector

import (
	"slices"

	"repro/internal/ingest"
	"repro/internal/model"
)

// Snapshot is the collector's complete serializable state. All fields are
// exported so the engine can encode it with encoding/gob; objects are in
// ascending ID order (the collector's own list order) so the encoding of a
// given state is deterministic.
type Snapshot struct {
	Objects  []ObjectSnapshot
	Now      model.Time
	Started  bool
	Historic bool
	Drops    ingest.Drops
}

// ObjectSnapshot is the retained state for one object.
type ObjectSnapshot struct {
	Object   model.ObjectID
	In       model.ReaderID
	LastSeen model.Time
	Runs     []RunSnapshot
}

// RunSnapshot is one device run (consecutive detection by a single reader).
type RunSnapshot struct {
	Reader  model.ReaderID
	Entries []model.AggregatedReading
}

// Snapshot captures the collector state. Pending (undrained) events are NOT
// part of the snapshot: the engine drains them synchronously inside every
// ingested second, so at snapshot time the event queue is always empty.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Now:      c.now,
		Started:  c.started,
		Historic: c.historic,
		Drops:    c.drops,
		Objects:  make([]ObjectSnapshot, 0, len(c.all)),
	}
	for _, tr := range c.all {
		log := tr.log
		os := ObjectSnapshot{
			Object:   tr.obj,
			In:       log.in,
			LastSeen: log.streaks[len(log.streaks)-1].to,
		}
		// The snapshot format: one run per maximal sequence of streaks
		// sharing a reader, one entry per detected second.
		for i := 0; i < len(log.streaks); {
			end := runEnd(log.streaks, i)
			os.Runs = append(os.Runs, RunSnapshot{
				Reader:  log.streaks[i].reader,
				Entries: appendEntries(nil, tr.obj, log.streaks[i:end], log.streaks[end-1].to),
			})
			i = end
		}
		s.Objects = append(s.Objects, os)
	}
	return s
}

// Restore replaces the collector's state with the snapshot's. The receiver's
// prior contents are discarded.
func (c *Collector) Restore(s Snapshot) {
	c.now = s.Now
	c.started = s.Started
	c.historic = s.Historic
	c.drops = s.Drops
	c.events = nil
	c.inRange = c.inRange[:0]
	c.objects = make(map[model.ObjectID]*objectLog, len(s.Objects))
	c.all = make([]tracked, 0, len(s.Objects))
	for _, os := range s.Objects {
		log := &objectLog{in: os.In}
		for _, r := range os.Runs {
			for _, e := range r.Entries {
				log.record(e.Time, r.Reader, c.historic)
			}
		}
		if len(log.streaks) == 0 {
			continue // Snapshot never writes an object without entries
		}
		c.objects[os.Object] = log
		c.all = append(c.all, tracked{os.Object, log})
		if log.in != model.NoReader {
			c.inRange = append(c.inRange, tracked{os.Object, log})
		}
	}
	// Snapshot writes objects in ascending order; sorting keeps the list's
	// invariant for any other producer too, and costs one pass when sorted.
	slices.SortFunc(c.all, byObject)
}
