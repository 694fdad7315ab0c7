package particle

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// Filter runs the paper's Algorithm 2 (Particle Filter) for individual
// objects: initialize particles in the activation range of the older of the
// object's two retained detecting devices, step them through the motion
// model at one-second resolution, reweight and resample at every detected
// second, and stop MaxCoastSeconds past the last reading.
//
// The algorithm runs on the structure-of-arrays kernel (soa.go), which
// answers the coverage predicates of the inner loop (is this particle inside
// the detecting reader's range? inside any range? inside a room?) from the
// precomputed edge-coverage index (rfid.Coverage) instead of per-particle
// 2-D geometry. The results are bit-for-bit those of the paper's geometric
// formulation, which the package tests keep as the oracle.
type Filter struct {
	cfg Config
	g   *walkgraph.Graph
	dep *rfid.Deployment
	// et is the graph's flat per-edge table (kind, door position) used by
	// the hot-loop classifications; nt its per-node counterpart used by the
	// motion kernel.
	et *walkgraph.EdgeTable
	nt *walkgraph.NodeTable
	// cov is the edge-coverage index over (g, dep).
	cov *rfid.Coverage
	// met holds the optional stage telemetry; timed gates all timing work so
	// an uninstrumented filter reads no clock (see Instrument).
	met   Metrics
	timed bool
	// silence is the negative update's predicate for the installed
	// reader-health set: the coverage of the healthy readers only (a dead
	// reader's silence says nothing about the object). With every reader
	// healthy it is the index's shared all-healthy table.
	silence *rfid.SilenceTable
	// maxNs, when positive, caps the particle count of newly initialized
	// states below cfg.Ns: the degraded-mode budget under overload. Cached
	// states keep their existing particle count.
	maxNs int
}

// Metrics are the filter's optional stage-timing sinks. Every field may be
// nil independently; recording is atomic and allocation-free, so the
// steady-state loop's zero-allocation contract holds with instrumentation
// enabled (pinned by TestInstrumentedAdvanceZeroAllocs).
type Metrics struct {
	// Predict, Reweight, and Resample receive the per-stage wall time in
	// seconds of each RunPool/AdvancePool call. Reweight includes the
	// silent-second negative update (both are observation incorporation);
	// Resample includes roughening.
	Predict, Reweight, Resample *obs.Histogram
}

// Instrument attaches stage-timing sinks and enables the per-stage durations
// of State.LastRun, at the price of clock reads around every stage of every
// simulated second. The serving engine does not instrument its filters: it
// times whole calls and counts work from LastRun. Call it before the filter
// is shared across goroutines; a zero Metrics still enables timing alone.
func (f *Filter) Instrument(m Metrics) {
	f.met = m
	f.timed = true
}

// RunStats describes one RunPool/AdvancePool call, recorded on the State.
// The window, counts and ESS are always filled; the stage durations only
// when the filter is instrumented.
type RunStats struct {
	// From and To bound the simulated seconds this call advanced over.
	From, To model.Time
	// Predict, Reweight, and Resample are the stage wall times (zero unless
	// instrumented). Reweight includes negative updates; Resample includes
	// roughening.
	Predict, Reweight, Resample time.Duration
	// Steps counts simulated seconds stepped; Detections the detected
	// seconds incorporated; Resamples the detected-second resampling passes.
	Steps, Detections, Resamples int
	// ESS is the effective sample size of the final particle set, computed
	// from unnormalized weights (Ns means healthy, ~1 means degenerate).
	ESS float64
}

// New builds a Filter and its coverage index. The configuration is
// validated once here.
func New(cfg Config, g *walkgraph.Graph, dep *rfid.Deployment) (*Filter, error) {
	return NewWithCoverage(cfg, g, dep, rfid.BuildCoverage(g, dep))
}

// NewWithCoverage builds a Filter around an existing coverage index, so
// several filters over one building — configurations compared side by side,
// as the package tests do — share one index instead of each recomputing it
// (the engine builds its one filter with New). The index must have been built over exactly g and dep: one
// built for another building would answer coverage for the wrong readers.
func NewWithCoverage(cfg Config, g *walkgraph.Graph, dep *rfid.Deployment, cov *rfid.Coverage) (*Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cov == nil {
		return nil, errors.New("particle: nil coverage index")
	}
	if cov.Graph() != g || cov.Deployment() != dep {
		return nil, errors.New("particle: coverage index was built over a different graph or deployment")
	}
	return &Filter{cfg: cfg, g: g, dep: dep, et: g.EdgeTable(), nt: g.NodeTable(), cov: cov, silence: cov.Silence(nil)}, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config, g *walkgraph.Graph, dep *rfid.Deployment) *Filter {
	f, err := New(cfg, g, dep)
	if err != nil {
		panic(err)
	}
	return f
}

// SetUnhealthy installs the set of readers whose silence must be ignored by
// the negative update (indexed by ReaderID; nil or all-false restores the
// uncompensated behavior), building the silence table for it. The caller
// must not mutate the slice afterwards and must not call this concurrently
// with RunPool/AdvancePool.
func (f *Filter) SetUnhealthy(un []bool) { f.silence = f.cov.Silence(un) }

// SetParticleBudget caps the particle count of newly initialized states at n
// (degraded-mode operation under overload); n <= 0 or n >= Ns restores the
// configured count. Already-cached states are not resized.
func (f *Filter) SetParticleBudget(n int) {
	if n <= 0 || n >= f.cfg.Ns {
		n = 0
	}
	f.maxNs = n
}

// ParticleBudget returns the effective per-object particle count for new
// states: the configured Ns, or the degraded-mode cap when one is set.
func (f *Filter) ParticleBudget() int {
	if f.maxNs > 0 {
		return f.maxNs
	}
	return f.cfg.Ns
}

// InitAt creates a fresh particle set for an object uniformly distributed on
// the graph edges within the detection range of the given reader, each
// particle with a random direction and a Gaussian walking speed. Its LastRun
// is the empty window at t, with the fresh set's ESS.
func (f *Filter) InitAt(src *rng.Source, obj model.ObjectID, reader model.ReaderID, t model.Time) *State {
	st := &State{Object: obj, Time: t, LastReadingTime: t}
	f.initSoA(st, src, reader)
	st.LastRun = RunStats{From: t, To: t, ESS: essOf(st.cols().weight)}
	return st
}

// initOne draws one particle of InitAt's distribution: a location uniform
// over the reader's activation intervals (ivs and their total length, from
// the coverage index), a heading toward either edge endpoint, and a
// truncated-Gaussian speed.
func (f *Filter) initOne(src *rng.Source, reader model.ReaderID, ivs []rfid.InitInterval, total float64) (e int32, off float64, tw int32, speed float64) {
	if total > 0 {
		u := src.Uniform(0, total)
		// Find the interval containing u: the last index with
		// CumStart <= u. Reader coverage rarely spans more than a handful
		// of edges, so a branchless linear count beats a binary search
		// whose every probe is a coin-flip branch; large tables keep the
		// logarithmic search.
		lo := 1
		if len(ivs) <= 16 {
			for k := 1; k < len(ivs); k++ {
				b := 0
				if ivs[k].CumStart <= u {
					b = 1
				}
				lo += b
			}
		} else {
			hi := len(ivs)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if !(ivs[mid].CumStart > u) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
		}
		iv := &ivs[lo-1]
		e = int32(iv.Edge)
		off = iv.Lo + (u - iv.CumStart)
	} else {
		// Degenerate deployment: the range covers no edge; collapse to the
		// nearest graph point.
		loc := f.g.NearestLocation(f.dep.Reader(reader).Pos)
		e = int32(loc.Edge)
		off = loc.Offset
	}
	tw = f.et.A[e]
	if src.Bool(0.5) {
		tw = f.et.B[e]
	}
	speed = src.TruncGaussian(f.cfg.SpeedMean, f.cfg.SpeedStd, f.cfg.MinSpeed, f.cfg.MaxSpeed)
	return e, off, tw, speed
}

func errNoReadings(obj model.ObjectID) error {
	return fmt.Errorf("particle: no readings for object %d", obj)
}

// essOf is the effective sample size for possibly unnormalized weights:
// (sum w)^2 / sum w^2.
func essOf(w []float64) float64 {
	var sum, sq float64
	for _, x := range w {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / sq
}
