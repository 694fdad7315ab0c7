// Package collector implements the paper's event-driven raw data collector,
// the front end of the system. It aggregates the high-rate raw RFID stream
// into one-second entries per object (mitigating false negatives: one
// successful sample in a second marks the whole second detected), detects
// ENTER and LEAVE events, and retains readings of only the two most recent
// consecutive detecting devices per object, discarding older history.
package collector

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/ingest"
	"repro/internal/model"
)

// streak is a stretch of consecutive detected seconds, from through to, in
// which reader won the object every second: the one-second entries the
// paper's collector produces, held as a range. A device run — a maximal
// period during which one device was the object's detecting device, with
// re-entries to the same device extending it — is a maximal sequence of
// streaks that share a reader.
type streak struct {
	from, to model.Time
	reader   model.ReaderID
}

// objectLog is the retained state for one object.
type objectLog struct {
	// streaks holds the retained entries, oldest first; it is never empty.
	streaks []streak
	// in is the reader currently detecting the object, or NoReader.
	in model.ReaderID

	// IngestSecond's tally of the second in progress, valid while epoch is
	// the collector's: lead is the reader winning the object so far and
	// leadN its sample count.
	epoch uint64
	lead  model.ReaderID
	leadN int
}

// runStart returns the index of the first streak of the run that ends with
// s[end-1].
func runStart(s []streak, end int) int {
	i := end - 1
	for i > 0 && s[i-1].reader == s[end-1].reader {
		i--
	}
	return i
}

// runEnd returns the index after the last streak of the run that begins
// with s[i].
func runEnd(s []streak, i int) int {
	end := i + 1
	for end < len(s) && s[end].reader == s[i].reader {
		end++
	}
	return end
}

// lastTwoRuns returns the index of the first streak of the last two runs in
// s[:end] (of the last run alone when there is one).
func lastTwoRuns(s []streak, end int) int {
	i := runStart(s, end)
	if i > 0 {
		i = runStart(s, i)
	}
	return i
}

// appendEntries appends one entry per second of the streaks s, the last of
// them clipped to entries no later than upTo. dst grows once.
func appendEntries(dst []model.AggregatedReading, obj model.ObjectID, s []streak, upTo model.Time) []model.AggregatedReading {
	n := 0
	for _, st := range s {
		n += int(min(st.to, upTo) - st.from + 1)
	}
	dst = slices.Grow(dst, n)
	for _, st := range s {
		for t := st.from; t <= min(st.to, upTo); t++ {
			dst = append(dst, model.AggregatedReading{Object: obj, Reader: st.reader, Time: t})
		}
	}
	return dst
}

// upTo returns how many of the object's streaks begin at or before t.
func (log *objectLog) upTo(t model.Time) int {
	return sort.Search(len(log.streaks), func(i int) bool { return log.streaks[i].from > t })
}

// record adds second t, won by reader rd: it extends the last streak, or
// opens a streak in the device run, or opens a run. Only the two most recent
// consecutive detecting devices are retained unless historic, so a new run
// first drops every run before the last, in place.
func (log *objectLog) record(t model.Time, rd model.ReaderID, historic bool) {
	n := len(log.streaks)
	switch {
	case n > 0 && log.streaks[n-1].reader == rd && log.streaks[n-1].to == t-1:
		log.streaks[n-1].to = t
		return
	case n > 0 && log.streaks[n-1].reader != rd && !historic:
		log.streaks = slices.Delete(log.streaks, 0, runStart(log.streaks, n))
	}
	log.streaks = append(log.streaks, streak{from: t, to: t, reader: rd})
}

// last returns the object's most recent entry.
func (log *objectLog) last(obj model.ObjectID) model.AggregatedReading {
	st := log.streaks[len(log.streaks)-1]
	return model.AggregatedReading{Object: obj, Reader: st.reader, Time: st.to}
}

// tracked is an object together with its log, so the lists below are walked
// without a map lookup per entry.
type tracked struct {
	obj model.ObjectID
	log *objectLog
}

// byObject orders tracked entries by object ID.
func byObject(a, b tracked) int { return cmp.Compare(a.obj, b.obj) }

// Collector aggregates raw readings and maintains per-object retention.
// Feed it one full second of raw readings at a time with IngestSecond.
type Collector struct {
	objects map[model.ObjectID]*objectLog
	// all lists every object of objects, ascending by ID. It is kept sorted
	// where objects come and go — first sight in IngestSecond, ForgetBefore,
	// Restore — so the object list, the live summaries and the snapshot are
	// walks over it, with no map walk, lookup or sort.
	all      []tracked
	events   []model.Event
	now      model.Time
	started  bool
	historic bool
	// drops accounts for every reading or batch the collector refused, so
	// degraded input is visible instead of silently vanishing.
	drops ingest.Drops

	// inRange lists the objects some reader is detecting as of the last
	// ingested second (log.in != NoReader): the only ones a silent second
	// can owe a LEAVE. epoch numbers the IngestSecond calls. seen and
	// others are one call's scratch, reused by the next: the objects read
	// this second (it becomes the next inRange), and the readings of an
	// object by a reader other than the first that read it this second.
	inRange []tracked
	epoch   uint64
	seen    []tracked
	others  []model.RawReading
	// arrived is IngestSecond's scratch list of the objects first seen in
	// the call, merged into all once the tally is done.
	arrived []tracked
}

// New returns an empty Collector with the paper's default retention: only
// the readings of each object's two most recent consecutive detecting
// devices are kept.
func New() *Collector {
	return &Collector{objects: make(map[model.ObjectID]*objectLog)}
}

// NewWithHistory returns a Collector that retains the full reading history,
// enabling historical queries (the paper notes the data collector must be
// modified this way for systems answering queries about past time stamps).
func NewWithHistory() *Collector {
	c := New()
	c.historic = true
	return c
}

// Now returns the time of the most recently ingested second.
func (c *Collector) Now() model.Time { return c.now }

// NumObjects returns the number of objects with retained state, without the
// allocation KnownObjects pays — the telemetry layer reads it every scrape.
func (c *Collector) NumObjects() int { return len(c.objects) }

// Drops returns the cumulative accounting of batches and readings the
// collector refused (non-increasing seconds, mis-stamped or reader-less
// readings).
func (c *Collector) Drops() ingest.Drops { return c.drops }

// IngestSecond processes every raw reading produced during second t. Calls
// must be made with strictly increasing t; a batch for a second at or
// before the current one is refused whole with a typed *ingest.Error.
// Readings whose time stamp differs from t, or with no reader attached,
// are discarded, counted in Drops, and reported through the returned
// *ingest.Error (the rest of the batch is still processed). A nil return
// means every reading was accepted.
//
// Aggregation: an object detected by at least one sample of a reader during
// the second gets a single aggregated entry for that second (when several
// readers saw it, the one with the most samples wins, ties to the lower ID).
func (c *Collector) IngestSecond(t model.Time, raws []model.RawReading) error {
	if c.started && t <= c.now {
		c.drops.LateBatches++
		c.drops.LateReadings += len(raws)
		return &ingest.Error{Kind: ingest.KindLate, Time: t, Watermark: c.now, Dropped: len(raws), Rejected: true}
	}
	c.now = t
	c.started = true
	c.epoch++

	// Tally samples on each object's own log: one map lookup per reading.
	// An object is nearly always read by one reader within a second, so the
	// first reader seen is counted in place and any other reader's readings
	// are set aside.
	var misstamped, invalid int
	seen, others, arrived := c.seen[:0], c.others[:0], c.arrived[:0]
	for _, r := range raws {
		if r.Reader == model.NoReader {
			invalid++
			continue
		}
		if r.Time != t {
			misstamped++
			continue
		}
		log := c.objects[r.Object]
		if log == nil {
			log = &objectLog{in: model.NoReader}
			c.objects[r.Object] = log
			arrived = append(arrived, tracked{r.Object, log})
		}
		switch {
		case log.epoch != c.epoch:
			log.epoch, log.lead, log.leadN = c.epoch, r.Reader, 1
			seen = append(seen, tracked{r.Object, log})
		case r.Reader == log.lead:
			log.leadN++
		default:
			others = append(others, r)
		}
	}
	c.drops.MisstampedReadings += misstamped
	c.drops.InvalidReadings += invalid
	c.admit(arrived)
	c.arrived = arrived[:0]
	// Count the readings set aside per (object, reader) and let each count
	// challenge the object's lead: most samples win, ties to the lower ID.
	slices.SortFunc(others, func(a, b model.RawReading) int {
		return cmp.Or(cmp.Compare(a.Object, b.Object), cmp.Compare(a.Reader, b.Reader))
	})
	for i := 0; i < len(others); {
		r, j := others[i], i+1
		for j < len(others) && others[j].Object == r.Object && others[j].Reader == r.Reader {
			j++
		}
		log := c.objects[r.Object]
		if n := j - i; n > log.leadN || (n == log.leadN && r.Reader < log.lead) {
			log.lead, log.leadN = r.Reader, n
		}
		i = j
	}

	// Record detections.
	fresh := len(c.events)
	for _, s := range seen {
		obj, log, rd := s.obj, s.log, s.log.lead
		if log.in != rd {
			if log.in != model.NoReader {
				c.events = append(c.events, model.Event{Kind: model.Leave, Object: obj, Reader: log.in, Time: t})
			}
			c.events = append(c.events, model.Event{Kind: model.Enter, Object: obj, Reader: rd, Time: t})
		}
		log.in = rd
		log.record(t, rd, c.historic)
	}

	// Emit LEAVE for objects that were in a range but got no reading this
	// second. Those read this second are the ones in a range now.
	for _, s := range c.inRange {
		if s.log.epoch != c.epoch {
			c.events = append(c.events, model.Event{Kind: model.Leave, Object: s.obj, Reader: s.log.in, Time: t})
			s.log.in = model.NoReader
		}
	}
	c.inRange, c.seen, c.others = seen, c.inRange[:0], others[:0]
	// This second's events go after every earlier one; among themselves
	// they are ordered by object. The sort is stable so a handoff's LEAVE
	// stays before its ENTER.
	slices.SortStableFunc(c.events[fresh:], func(a, b model.Event) int { return cmp.Compare(a.Object, b.Object) })

	if misstamped+invalid > 0 {
		kind := ingest.KindMisstamped
		if misstamped == 0 {
			kind = ingest.KindInvalid
		}
		return &ingest.Error{Kind: kind, Time: t, Watermark: c.now, Dropped: misstamped + invalid}
	}
	return nil
}

// admit merges the objects first seen this second into the sorted list of
// all objects: sorted among themselves, then merged from the back, so only
// the entries after the first insertion point move, once.
func (c *Collector) admit(arrived []tracked) {
	if len(arrived) == 0 {
		return
	}
	slices.SortFunc(arrived, byObject)
	i := len(c.all) - 1
	c.all = append(c.all, arrived...)
	for j, k := len(arrived)-1, len(c.all)-1; j >= 0; k-- {
		if i >= 0 && c.all[i].obj > arrived[j].obj {
			c.all[k] = c.all[i]
			i--
		} else {
			c.all[k] = arrived[j]
			j--
		}
	}
}

// DrainEvents returns the ENTER/LEAVE events recorded since the previous
// drain, oldest first.
func (c *Collector) DrainEvents() []model.Event {
	ev := c.events
	c.events = nil
	return ev
}

// Aggregated returns the retained one-second entries for the object (the
// readings of up to its two most recent consecutive detecting devices),
// oldest first. The result is a copy.
func (c *Collector) Aggregated(obj model.ObjectID) []model.AggregatedReading {
	return c.AppendAggregated(nil, obj)
}

// AppendAggregated appends what Aggregated returns to dst, for callers that
// gather many objects' entries into one buffer. With full history retention
// the live view still presents only the two most recent detecting devices,
// as Algorithm 2 expects.
func (c *Collector) AppendAggregated(dst []model.AggregatedReading, obj model.ObjectID) []model.AggregatedReading {
	log := c.objects[obj]
	if log == nil {
		return dst
	}
	s := log.streaks
	return appendEntries(dst, obj, s[lastTwoRuns(s, len(s)):], s[len(s)-1].to)
}

// RecentDevices returns the object's second-most-recent and most-recent
// detecting devices (di, dj in the paper's Algorithm 2). If the object has
// been detected by a single device so far, di is NoReader. Both are NoReader
// for unknown objects.
func (c *Collector) RecentDevices(obj model.ObjectID) (di, dj model.ReaderID) {
	log := c.objects[obj]
	if log == nil {
		return model.NoReader, model.NoReader
	}
	s := log.streaks
	di, dj = model.NoReader, s[len(s)-1].reader
	if i := runStart(s, len(s)); i > 0 {
		di = s[i-1].reader
	}
	return di, dj
}

// LastReading returns the most recent aggregated entry for the object.
func (c *Collector) LastReading(obj model.ObjectID) (model.AggregatedReading, bool) {
	log := c.objects[obj]
	if log == nil {
		return model.AggregatedReading{}, false
	}
	return log.last(obj), true
}

// AggregatedUpTo returns the aggregated entries the paper's Algorithm 2
// would use for a historical query at time t: the readings of the object's
// two most recent consecutive detecting devices as of t, clipped to entries
// no later than t. It requires full history retention for times older than
// the live retention window; with the default retention it simply clips the
// retained entries.
func (c *Collector) AggregatedUpTo(obj model.ObjectID, t model.Time) []model.AggregatedReading {
	log := c.objects[obj]
	if log == nil {
		return nil
	}
	n := log.upTo(t)
	if n == 0 {
		return nil
	}
	return appendEntries(nil, obj, log.streaks[lastTwoRuns(log.streaks, n):n], t)
}

// LastReadingAt returns the most recent aggregated entry at or before t.
func (c *Collector) LastReadingAt(obj model.ObjectID, t model.Time) (model.AggregatedReading, bool) {
	log := c.objects[obj]
	if log == nil {
		return model.AggregatedReading{}, false
	}
	n := log.upTo(t)
	if n == 0 {
		return model.AggregatedReading{}, false
	}
	st := log.streaks[n-1]
	return model.AggregatedReading{Object: obj, Reader: st.reader, Time: min(st.to, t)}, true
}

// CurrentlyDetectedBy returns the reader currently detecting the object, or
// NoReader.
func (c *Collector) CurrentlyDetectedBy(obj model.ObjectID) model.ReaderID {
	if log := c.objects[obj]; log != nil {
		return log.in
	}
	return model.NoReader
}

// KnownObjects returns the IDs of all objects the collector has seen,
// in ascending order.
func (c *Collector) KnownObjects() []model.ObjectID {
	out := make([]model.ObjectID, len(c.all))
	for i, tr := range c.all {
		out[i] = tr.obj
	}
	return out
}

// AppendLatest appends every known object's most recent aggregated entry to
// dst, in ascending object order — what LastReading returns for each of
// KnownObjects, in one pass.
func (c *Collector) AppendLatest(dst []model.AggregatedReading) []model.AggregatedReading {
	for _, tr := range c.all {
		dst = append(dst, tr.log.last(tr.obj))
	}
	return dst
}

// ForgetBefore drops retained entries older than t for all objects (cache
// aging support). Whole runs that end before t are removed; the most recent
// run is always kept so RecentDevices stays meaningful.
func (c *Collector) ForgetBefore(t model.Time) {
	kept := c.all[:0]
	for _, tr := range c.all {
		log := tr.log
		drop := 0
		for end := runEnd(log.streaks, 0); end < len(log.streaks) && log.streaks[end-1].to < t; end = runEnd(log.streaks, end) {
			drop = end
		}
		log.streaks = slices.Delete(log.streaks, 0, drop)
		if log.streaks[len(log.streaks)-1].to < t && log.in == model.NoReader {
			delete(c.objects, tr.obj)
			continue
		}
		kept = append(kept, tr)
	}
	clear(c.all[len(kept):]) // let the forgotten logs go
	c.all = kept
}
