// Package rfid simulates the RFID sensing substrate: readers deployed along
// hallways, their activation ranges, and the noisy raw read stream they
// produce. Raw RFID data is inherently unreliable — false negatives arise
// from RF interference, limited detection range, and tag orientation — so
// the sensor model makes each sub-second sample an independent Bernoulli
// detection; the collector's one-second aggregation then recovers most
// misses, exactly as the paper argues.
package rfid

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
)

// ReaderKind classifies positioning devices following the paper's taxonomy
// (Section 3.3).
type ReaderKind int

const (
	// Partitioning readers span the full hallway width: an object cannot
	// cross the activation range undetected, so the device partitions the
	// space into cells (the paper's undirected partitioning device; two
	// paired partitioning readers form a directed partitioning device).
	Partitioning ReaderKind = iota
	// Presence readers sense objects within range but do not block
	// movement: objects can pass around them undetected, so they do not
	// partition the space (the paper's presence device, e.g. reader3 in its
	// Figure 2).
	Presence
)

// String implements fmt.Stringer.
func (k ReaderKind) String() string {
	switch k {
	case Partitioning:
		return "partitioning"
	case Presence:
		return "presence"
	default:
		return fmt.Sprintf("ReaderKind(%d)", int(k))
	}
}

// Reader is a deployed RFID reader. Readers sit on hallway centerlines and
// partitioning readers' activation ranges cover the full hallway width.
type Reader struct {
	ID      model.ReaderID
	Pos     geom.Point
	Hallway floorplan.HallwayID
	// Range is the activation (detection) radius in meters.
	Range float64
	// Kind distinguishes partitioning from presence devices. The zero value
	// is Partitioning, the paper's default deployment.
	Kind ReaderKind
}

// Covers reports whether a point is inside the reader's activation range.
func (r Reader) Covers(p geom.Point) bool {
	return r.Pos.Dist(p) <= r.Range
}

// Circle returns the reader's activation disk.
func (r Reader) Circle() geom.Circle { return geom.Circle{C: r.Pos, R: r.Range} }

// DirectedPair marks two partitioning readers deployed side by side as a
// directed partitioning device: the order in which a tag is seen at Entry
// and then Exit reveals its moving direction (the paper's reader1/reader1'
// example).
type DirectedPair struct {
	Entry, Exit model.ReaderID
}

// Deployment is an immutable set of deployed readers.
type Deployment struct {
	readers []Reader
	pairs   []DirectedPair
	// grid accelerates CoveringReader: readers bucketed by the cells their
	// activation disks overlap. Built once by the constructors; nil for
	// zero-value Deployments, which fall back to the linear scan.
	grid *readerGrid
}

// readerGrid is a uniform grid over the union of all activation disks. Each
// cell lists, ascending by ID, every reader whose disk touches the cell, so
// a point query tests only the handful of readers near it instead of the
// whole deployment — while selecting the winner with the exact comparison
// logic of the linear scan, keeping results bit-for-bit identical.
type readerGrid struct {
	bounds geom.Rect
	cell   float64
	nx, ny int
	cells  [][]model.ReaderID
}

// buildGrid indexes the deployment's readers. Cell size is twice the
// largest activation range (at least one meter), so disks overlap only a
// few cells each.
func (d *Deployment) buildGrid() {
	d.grid = nil
	if len(d.readers) == 0 {
		return
	}
	maxR := 0.0
	bounds := geom.Rect{Min: d.readers[0].Pos, Max: d.readers[0].Pos}
	for _, r := range d.readers {
		if r.Range > maxR {
			maxR = r.Range
		}
		bounds = bounds.Union(geom.RectFromCorners(
			geom.Pt(r.Pos.X-r.Range, r.Pos.Y-r.Range),
			geom.Pt(r.Pos.X+r.Range, r.Pos.Y+r.Range),
		))
	}
	cell := 2 * maxR
	if cell < 1 {
		cell = 1
	}
	g := &readerGrid{
		bounds: bounds,
		cell:   cell,
		nx:     int(bounds.Width()/cell) + 1,
		ny:     int(bounds.Height()/cell) + 1,
	}
	g.cells = make([][]model.ReaderID, g.nx*g.ny)
	for _, r := range d.readers {
		// Insert the reader into every cell its disk could reach; iterating
		// readers in ID order keeps each cell's candidate list ascending.
		ix0, iy0 := g.cellIndex(geom.Pt(r.Pos.X-r.Range, r.Pos.Y-r.Range))
		ix1, iy1 := g.cellIndex(geom.Pt(r.Pos.X+r.Range, r.Pos.Y+r.Range))
		for ix := ix0; ix <= ix1; ix++ {
			for iy := iy0; iy <= iy1; iy++ {
				rect := geom.RectWH(g.bounds.Min.X+float64(ix)*cell,
					g.bounds.Min.Y+float64(iy)*cell, cell, cell)
				// The small slack absorbs the Eps tolerance of Rect.Contains
				// so boundary points still find every candidate.
				if rect.DistToPoint(r.Pos) <= r.Range+1e-6 {
					i := ix*g.ny + iy
					g.cells[i] = append(g.cells[i], r.ID)
				}
			}
		}
	}
	d.grid = g
}

// cellIndex maps a point to grid coordinates, clamped into range.
func (g *readerGrid) cellIndex(p geom.Point) (ix, iy int) {
	ix = int((p.X - g.bounds.Min.X) / g.cell)
	iy = int((p.Y - g.bounds.Min.Y) / g.cell)
	if ix < 0 {
		ix = 0
	} else if ix >= g.nx {
		ix = g.nx - 1
	}
	if iy < 0 {
		iy = 0
	} else if iy >= g.ny {
		iy = g.ny - 1
	}
	return ix, iy
}

// candidates returns the readers that could cover p, or nil when p is
// certainly uncovered (outside every activation disk's bounding box).
func (g *readerGrid) candidates(p geom.Point) []model.ReaderID {
	if !g.bounds.Contains(p) {
		return nil
	}
	ix, iy := g.cellIndex(p)
	return g.cells[ix*g.ny+iy]
}

// DefaultReaders is the paper's reader count: 19 readers deployed on
// hallways with uniform spacing.
const DefaultReaders = 19

// DefaultActivationRange is the paper's default activation range (Table 2).
const DefaultActivationRange = 2.0

// DeployUniform places n readers along the concatenated hallway centerlines
// of the plan at uniform spacing, each with the given activation range.
func DeployUniform(plan *floorplan.Plan, n int, activationRange float64) (*Deployment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rfid: reader count must be positive, got %d", n)
	}
	if activationRange <= 0 {
		return nil, fmt.Errorf("rfid: activation range must be positive, got %v", activationRange)
	}
	total := plan.TotalHallwayLength()
	spacing := total / float64(n)
	d := &Deployment{}
	for i := 0; i < n; i++ {
		dist := (float64(i) + 0.5) * spacing
		pos, hall := plan.PointOnHallway(dist)
		d.readers = append(d.readers, Reader{
			ID:      model.ReaderID(i),
			Pos:     pos,
			Hallway: hall,
			Range:   activationRange,
		})
	}
	d.buildGrid()
	return d, nil
}

// MustDeployUniform is DeployUniform for known-valid parameters.
func MustDeployUniform(plan *floorplan.Plan, n int, activationRange float64) *Deployment {
	d, err := DeployUniform(plan, n, activationRange)
	if err != nil {
		panic(err)
	}
	return d
}

// NewDeployment builds a deployment from an explicit reader list, for
// irregular layouts and tests. Reader IDs are reassigned to slice order.
func NewDeployment(readers []Reader) *Deployment {
	d := &Deployment{readers: make([]Reader, len(readers))}
	copy(d.readers, readers)
	for i := range d.readers {
		d.readers[i].ID = model.ReaderID(i)
	}
	d.buildGrid()
	return d
}

// AddDirectedPair declares two existing partitioning readers a directed
// partitioning device. It returns an error for unknown or non-partitioning
// readers.
func (d *Deployment) AddDirectedPair(entry, exit model.ReaderID) error {
	for _, id := range []model.ReaderID{entry, exit} {
		if int(id) < 0 || int(id) >= len(d.readers) {
			return fmt.Errorf("rfid: directed pair references unknown reader %d", id)
		}
		if d.readers[id].Kind != Partitioning {
			return fmt.Errorf("rfid: directed pair reader %d is not a partitioning device", id)
		}
	}
	if entry == exit {
		return fmt.Errorf("rfid: directed pair must use two distinct readers")
	}
	d.pairs = append(d.pairs, DirectedPair{Entry: entry, Exit: exit})
	return nil
}

// DirectedPairs returns the declared directed partitioning devices.
func (d *Deployment) DirectedPairs() []DirectedPair { return d.pairs }

// PairFor returns the directed pair that (a, b) traverses, in either
// orientation, and ok=false when the two readers are not paired.
func (d *Deployment) PairFor(a, b model.ReaderID) (DirectedPair, bool) {
	for _, p := range d.pairs {
		if (p.Entry == a && p.Exit == b) || (p.Entry == b && p.Exit == a) {
			return p, true
		}
	}
	return DirectedPair{}, false
}

// Readers returns all readers indexed by ReaderID. Must not be modified.
func (d *Deployment) Readers() []Reader { return d.readers }

// NumReaders returns the reader count.
func (d *Deployment) NumReaders() int { return len(d.readers) }

// Reader returns the reader with the given ID.
func (d *Deployment) Reader(id model.ReaderID) Reader { return d.readers[id] }

// CoveringReader returns the reader whose activation range covers p. When
// ranges overlap, the nearest reader wins. ok is false if no reader covers p.
// Constructor-built deployments answer from the reader grid, testing only
// the readers near p; the result is identical to the full scan.
func (d *Deployment) CoveringReader(p geom.Point) (model.ReaderID, bool) {
	best := model.NoReader
	bestDist := 0.0
	if d.grid != nil {
		for _, id := range d.grid.candidates(p) {
			r := &d.readers[id]
			dist := r.Pos.Dist(p)
			if dist <= r.Range && (best == model.NoReader || dist < bestDist) {
				best, bestDist = r.ID, dist
			}
		}
		return best, best != model.NoReader
	}
	for _, r := range d.readers {
		dist := r.Pos.Dist(p)
		if dist <= r.Range && (best == model.NoReader || dist < bestDist) {
			best, bestDist = r.ID, dist
		}
	}
	return best, best != model.NoReader
}

// Disjoint reports whether all activation ranges are pairwise disjoint, the
// paper's usual deployment assumption for cost reasons.
func (d *Deployment) Disjoint() bool {
	for i := range d.readers {
		for j := i + 1; j < len(d.readers); j++ {
			a, b := d.readers[i], d.readers[j]
			if a.Pos.Dist(b.Pos) < a.Range+b.Range {
				return false
			}
		}
	}
	return true
}

// Sensor is the noise model of the read process: every reader samples tags
// SamplesPerSecond times a second and each sample independently detects a
// covered tag with probability PerSampleDetection. Optional impairments
// model the messier failure modes of real deployments: ghost reads (false
// positives, e.g. multipath reflections briefly lighting up a neighboring
// reader) and readers dropping offline entirely.
type Sensor struct {
	Deployment *Deployment
	// PerSampleDetection is the probability a single read attempt detects a
	// covered tag (false negatives come from 1 minus this).
	PerSampleDetection float64
	// SamplesPerSecond is the reader sampling rate (readers typically take
	// tens of samples per second).
	SamplesPerSecond int
	// GhostReadProb is the per-second probability that a covered tag also
	// produces a single spurious read at the nearest other reader. The
	// collector's majority aggregation absorbs these. Zero disables.
	GhostReadProb float64
	// offline marks readers that currently produce no readings at all.
	offline map[model.ReaderID]bool
}

// Default sensor parameters: a 70% single-read detection rate at 10 samples
// per second makes a full one-second miss of a covered tag vanishingly rare
// (0.3^10 ~ 6e-6), matching the paper's aggregation argument.
const (
	DefaultPerSampleDetection = 0.7
	DefaultSamplesPerSecond   = 10
)

// NewSensor returns a Sensor with the default noise parameters.
func NewSensor(d *Deployment) *Sensor {
	return &Sensor{
		Deployment:         d,
		PerSampleDetection: DefaultPerSampleDetection,
		SamplesPerSecond:   DefaultSamplesPerSecond,
	}
}

// SecondMissProb returns the probability that a covered tag produces no raw
// reading at all during one second.
func (s *Sensor) SecondMissProb() float64 {
	miss := 1.0
	for i := 0; i < s.SamplesPerSecond; i++ {
		miss *= 1 - s.PerSampleDetection
	}
	return miss
}

// SetOffline marks a reader as failed (producing no readings) or restores
// it. Use it to inject reader outages into a simulation.
func (s *Sensor) SetOffline(id model.ReaderID, offline bool) {
	if s.offline == nil {
		s.offline = make(map[model.ReaderID]bool)
	}
	if offline {
		s.offline[id] = true
	} else {
		delete(s.offline, id)
	}
}

// Offline reports whether a reader is currently failed.
func (s *Sensor) Offline(id model.ReaderID) bool { return s.offline[id] }

// ReadSecond simulates one second of reads for an object at position pos,
// returning the raw readings generated (zero or more, one per successful
// sample, all stamped with time t), including any injected impairments.
func (s *Sensor) ReadSecond(r *rng.Source, obj model.ObjectID, pos geom.Point, t model.Time) []model.RawReading {
	reader, ok := s.Deployment.CoveringReader(pos)
	if !ok || s.offline[reader] {
		return nil
	}
	var out []model.RawReading
	for i := 0; i < s.SamplesPerSecond; i++ {
		if r.Bool(s.PerSampleDetection) {
			out = append(out, model.RawReading{Object: obj, Reader: reader, Time: t})
		}
	}
	if s.GhostReadProb > 0 && len(out) > 0 && r.Bool(s.GhostReadProb) {
		if ghost, ok := s.nearestOtherReader(reader, pos); ok && !s.offline[ghost] {
			out = append(out, model.RawReading{Object: obj, Reader: ghost, Time: t})
		}
	}
	return out
}

// nearestOtherReader returns the online reader other than exclude closest
// to pos.
func (s *Sensor) nearestOtherReader(exclude model.ReaderID, pos geom.Point) (model.ReaderID, bool) {
	best := model.NoReader
	bestDist := 0.0
	for _, r := range s.Deployment.Readers() {
		if r.ID == exclude {
			continue
		}
		d := r.Pos.Dist(pos)
		if best == model.NoReader || d < bestDist {
			best, bestDist = r.ID, d
		}
	}
	return best, best != model.NoReader
}
