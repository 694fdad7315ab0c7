// Package engine wires the full system of the paper's Figure 3: raw readings
// flow through the event-driven raw data collector; the query aware
// optimization module prunes non-candidate objects; the particle filter-based
// preprocessing module cleanses each candidate's noisy readings into a
// probability distribution indexed by anchor points (the APtoObjHT hash
// table); the cache management module reuses particle states across queries;
// and the query evaluation module answers range and kNN queries from the
// hash table. The symbolic model baseline it is compared against lives in
// internal/baseline, over System's public surface.
//
// System is that pipeline as a pure in-memory kernel. Sharded is the router
// over one or more kernels and the only type that touches a disk: write-ahead
// logs, snapshots, recovery, quarantine and self-heal all live there.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anchor"
	"repro/internal/cache"
	"repro/internal/collector"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/particle"
	"repro/internal/query"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// Config parameterizes a System.
type Config struct {
	// Particle holds the particle filter parameters.
	Particle particle.Config
	// AnchorSpacing is the anchor point spacing in meters.
	AnchorSpacing float64
	// MaxSpeed is the maximum walking speed umax used by the pruning
	// module's uncertain regions and the symbolic baseline.
	MaxSpeed float64
	// UseCache enables the cache management module.
	UseCache bool
	// CacheLifetime is the cache entry lifetime in seconds.
	CacheLifetime model.Time
	// UsePruning enables the query aware optimization module. When false,
	// every known object is a candidate for every query.
	UsePruning bool
	// SMTrials is the Monte Carlo trial count for PTKNNQuery and for the
	// symbolic baseline's maximum-probability kNN set.
	SMTrials int
	// KeepHistory retains the full reading history in the collector so
	// historical queries (Query.Historical) can reach arbitrarily far back.
	// Off by default, matching the paper's snapshot-oriented collector.
	KeepHistory bool
	// Workers bounds the number of goroutines preprocessing objects in
	// parallel. 0 means GOMAXPROCS. Results are bit-for-bit identical at any
	// worker count: every object's filtering stream derives from
	// (Seed, object, query time), not from execution order.
	Workers int
	// BatchSize is how many objects a preprocessing worker claims from the
	// shared queue at a time. Larger batches amortize the claim (one atomic
	// add per batch) and keep each worker's particle pool arrays hot across
	// consecutive objects; smaller batches balance ragged workloads better.
	// 0 means DefaultBatchSize. Results are bit-for-bit identical at any
	// batch size, for the same reason they are at any worker count.
	BatchSize int
	// Ingest parameterizes the hardened ingestion front end: the reorder
	// buffer's lateness horizon, skew tolerance, and buffer bound. The zero
	// value keeps the historical strict in-order contract (every batch
	// flushes immediately; older batches are late).
	Ingest ingest.Config
	// SlowQueryThreshold is the wall-clock latency above which a query is
	// counted, logged, and retained in the slow-query ring (Telemetry.Slow).
	// Zero or negative disables the slow-query log; latency histograms
	// record regardless.
	SlowQueryThreshold time.Duration
	// TraceRing is the capacity of the filter-trace ring buffer
	// (Telemetry.Trace, served at /debug/filtertrace). 0 means 256.
	TraceRing int
	// Health parameterizes the per-reader liveness monitor that feeds the
	// sensing-model compensation (filter negative updates, pruner uncertain
	// regions). The zero value disables monitoring; monitoring is passive —
	// bit-for-bit — while every reader is LIVE either way.
	Health health.Config
	// Seed drives all of the engine's randomness.
	Seed int64
	// Shards partitions object state into this many in-process shards, each
	// owning its lock, collector slice, cache, particle workers, and WAL
	// segment stream (NewSharded/OpenSharded; New ignores it). 0 or 1 means
	// one shard behind the router. Answers, Stats, and recovered state are
	// bit-for-bit identical at any shard count.
	Shards int
	// Durability configures the write-ahead logs and snapshot store. The zero
	// value disables durability entirely (the historical in-memory contract);
	// a non-empty Dir enables it, but only through OpenSharded — New and
	// NewSharded ignore it, and Open refuses it.
	Durability DurabilityConfig
}

// DefaultBatchSize is how many objects a preprocessing worker claims at a
// time when Config.BatchSize is zero. One object's SoA state is a few
// kilobytes (Ns × five flat arrays), so a batch of 32 streams through
// comfortably under L2 while costing only one atomic claim per 32 filters.
const DefaultBatchSize = 32

// DefaultConfig returns the paper's defaults (Table 2).
func DefaultConfig() Config {
	return Config{
		Particle:           particle.DefaultConfig(),
		AnchorSpacing:      anchor.DefaultSpacing,
		MaxSpeed:           query.DefaultMaxSpeed,
		UseCache:           true,
		CacheLifetime:      cache.DefaultLifetime,
		UsePruning:         true,
		SMTrials:           200,
		SlowQueryThreshold: 100 * time.Millisecond,
		Health:             health.DefaultConfig(),
		Seed:               1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Particle.Validate(); err != nil {
		return err
	}
	if c.AnchorSpacing <= 0 {
		return fmt.Errorf("engine: AnchorSpacing must be positive, got %v", c.AnchorSpacing)
	}
	if c.MaxSpeed <= 0 {
		return fmt.Errorf("engine: MaxSpeed must be positive, got %v", c.MaxSpeed)
	}
	if c.SMTrials <= 0 {
		return fmt.Errorf("engine: SMTrials must be positive, got %d", c.SMTrials)
	}
	if err := c.Health.Validate(); err != nil {
		return err
	}
	return nil
}

// Stats are cumulative counters describing the work the system has done.
type Stats struct {
	// FiltersRun counts full Algorithm 2 runs; FiltersResumed counts cache
	// hits that only advanced an existing particle state.
	FiltersRun, FiltersResumed int
	// RangeQueries and KNNQueries count evaluated snapshot queries.
	RangeQueries, KNNQueries int
	// ReadingsIngested counts raw readings accepted by the collector.
	ReadingsIngested int
	// ReadingsDropped counts every raw reading discarded on the ingestion
	// path (late, duplicate, mis-stamped, invalid); Ingest has the
	// per-reason breakdown. offered = ingested + dropped + pending always.
	ReadingsDropped int
	// ReadingsPending counts readings buffered in the reorder buffer,
	// waiting for the watermark to close their second.
	ReadingsPending int
	// Ingest breaks the drop accounting down by the ingest.Kind taxonomy,
	// merging the reorder buffer's and the collector's counters.
	Ingest ingest.Drops
}

// System is the assembled query evaluation system.
type System struct {
	// QueryMethods are the classic spellings of Query (RangeQuery,
	// KNNQueryContext, RangeQueryAt, Occupancy, ...).
	QueryMethods

	cfg     Config
	g       *walkgraph.Graph
	dep     *rfid.Deployment
	idx     *anchor.Index
	col     *collector.Collector
	filter  *particle.Filter
	cache   *cache.Cache
	pruner  *query.Pruner
	eval    *query.Evaluator
	src     *rng.Source
	reorder *ingest.Reorder
	stats   Stats
	tel     *Telemetry
	// monitor is the per-reader liveness monitor (nil when Config.Health is
	// disabled); extraDrops holds transport-level losses noted by the HTTP
	// layer (oversized bodies) that never reach the reorder buffer.
	monitor    *health.Monitor
	extraDrops ingest.Drops

	// shardID is this engine's position in a sharded router (0 standalone);
	// it labels filter traces, spans, and the shardTel metric handles.
	// curTrace is the request trace of the in-flight IngestContext call, read
	// by the reorder sink so flush-time work (collect) attributes to the
	// delivery that triggered it. Both are written under the same exclusion
	// the rest of the System requires.
	shardID  int
	shardTel *shardMetrics
	curTrace *trace.Context
	// eventLog retains ENTER/LEAVE events for registry consumers (bounded).
	eventLog []model.Event
	eventOff int

	// pools recycles per-worker scratch (the SoA kernel's flat arrays and the
	// snap accumulator) across Preprocess calls, so steady-state
	// preprocessing allocates nothing per query but its answer.
	pools sync.Pool
	// tasks and entries are preprocessDists' per-call work list and the
	// readings it gathers, recycled across calls (the caller's exclusion
	// covers them like the collector and cache they are filled from).
	tasks   []preprocessTask
	entries []model.AggregatedReading
}

// workerScratch is what one preprocessing worker steps objects through.
type workerScratch struct {
	pool *particle.Pool
	acc  anchor.Accumulator
	// src is re-keyed per object; living here keeps it off the heap.
	src rng.Source
}

func newWorkerScratch() *workerScratch { return &workerScratch{pool: particle.NewPool()} }

// Stats returns the system's cumulative work counters, with the drop
// accounting of the reorder buffer and the collector merged in.
func (s *System) Stats() Stats {
	st := s.stats
	st.RangeQueries, st.KNNQueries = s.tel.queriesCounted()
	st.Ingest = s.reorder.Drops()
	st.Ingest.Merge(s.col.Drops())
	st.Ingest.Merge(s.extraDrops)
	st.ReadingsDropped = st.Ingest.Readings()
	st.ReadingsPending = s.reorder.PendingReadings()
	return st
}

// New assembles a System over a floor plan and reader deployment.
func New(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := walkgraph.Build(plan)
	if err != nil {
		return nil, err
	}
	idx, err := anchor.BuildIndex(g, cfg.AnchorSpacing)
	if err != nil {
		return nil, err
	}
	// The filter builds the edge-coverage index once per System and answers
	// every coverage predicate of its hot loops from it.
	filter, err := particle.New(cfg.Particle, g, dep)
	if err != nil {
		return nil, err
	}
	col := collector.New()
	if cfg.KeepHistory {
		col = collector.NewWithHistory()
	}
	s := &System{
		cfg:    cfg,
		g:      g,
		dep:    dep,
		idx:    idx,
		col:    col,
		filter: filter,
		cache:  cache.New(cfg.CacheLifetime),
		pruner: query.NewPruner(g, idx, dep, cfg.MaxSpeed),
		eval:   query.NewEvaluator(g, idx),
		src:    rng.New(cfg.Seed),
	}
	s.QueryMethods.Of = s
	s.pools.New = func() any { return newWorkerScratch() }
	s.reorder = ingest.NewReorder(cfg.Ingest, s.ingestSecond)
	if cfg.Health.Enabled {
		s.monitor, err = health.NewMonitor(cfg.Health, dep.NumReaders())
		if err != nil {
			return nil, err
		}
	}
	// Telemetry is always on: the record path is atomic and allocation-free,
	// and the stage timings are what every perf PR measures itself against.
	s.tel = newTelemetry(cfg)
	s.filter.Instrument(s.tel.filterMetrics())
	s.cache.Instrument(s.tel.cacheHits, s.tel.cacheMisses, s.tel.cacheEvictions)
	s.shardTel = s.tel.shardMetrics(0)
	return s, nil
}

// MustNew is New for known-valid inputs.
func MustNew(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) *System {
	s, err := New(plan, dep, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open assembles the in-memory kernel, exactly like New. The kernel touches
// no disk: a configured data directory is an error here, never a silent drop
// to memory-only — durable engines are opened with OpenSharded, where
// Shards: 1 is the single-engine layout.
func Open(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) (*System, error) {
	if cfg.Durability.Enabled() {
		return nil, fmt.Errorf("engine: Open builds the in-memory kernel and cannot use data directory %s; open it with OpenSharded (Shards: 1 for a single engine)", cfg.Durability.Dir)
	}
	return New(plan, dep, cfg)
}

// The kernel has no durability layer; these zero-value answers let a bare
// System stand in wherever a durable engine's surface is expected
// (server.Engine, cluster.Local).

// Close is a no-op: the kernel holds no files.
func (s *System) Close() error { return nil }

// WALError is always nil: the kernel writes no log.
func (s *System) WALError() error { return nil }

// Recovery is always the zero RecoveryInfo: the kernel recovers nothing.
func (s *System) Recovery() RecoveryInfo { return RecoveryInfo{} }

// DegradedShards is always nil: the kernel has no shards to quarantine.
func (s *System) DegradedShards() []int { return nil }

// Accessors for the assembled components.

// Config returns the configuration the System was built with.
func (s *System) Config() Config { return s.cfg }

// Graph returns the indoor walking graph.
func (s *System) Graph() *walkgraph.Graph { return s.g }

// AnchorIndex returns the anchor point index.
func (s *System) AnchorIndex() *anchor.Index { return s.idx }

// Deployment returns the reader deployment.
func (s *System) Deployment() *rfid.Deployment { return s.dep }

// Collector returns the raw data collector.
func (s *System) Collector() *collector.Collector { return s.col }

// CacheStats returns the cache's cumulative hit and miss counts.
func (s *System) CacheStats() (hits, misses int) { return s.cache.Stats() }

// Now returns the most recently ingested second.
func (s *System) Now() model.Time { return s.col.Now() }

// KnownObjects returns the IDs of every object with retained collector
// state, ascending.
func (s *System) KnownObjects() []model.ObjectID { return s.col.KnownObjects() }

// Ingest feeds one delivery of raw readings through the hardened ingestion
// front end: the reorder buffer routes each reading to its own second,
// deduplicates retransmissions, and flushes whole seconds into the
// collector in order once the watermark (Config.Ingest.Horizon) closes
// them. With the zero-value ingest configuration every batch flushes
// immediately, matching the historical strict in-order contract.
//
// Whenever input is refused or discarded, Ingest returns a typed
// *ingest.Error and counts the loss in Stats — nothing is dropped
// silently. Unless the error's Rejected flag is set, the rest of the
// delivery was still accepted.
func (s *System) Ingest(t model.Time, raws []model.RawReading) error {
	rstart := time.Now()
	err := s.reorder.Offer(t, raws)
	s.curTrace.Since("reorder", s.shardID, rstart)
	return err
}

// IngestContext is Ingest carrying a request trace: flush-time spans
// (reorder, collect) recorded while this delivery is in flight attach to the
// trace in ctx. Callers provide the same exclusion Ingest requires, so
// stashing the trace in the System is race-free.
func (s *System) IngestContext(ctx context.Context, t model.Time, raws []model.RawReading) error {
	s.curTrace = trace.From(ctx)
	defer func() { s.curTrace = nil }()
	return s.Ingest(t, raws)
}

// FlushIngest drains every second still buffered in the reorder buffer,
// regardless of the lateness horizon. Call it at end of stream or before
// final queries when a non-zero horizon is configured.
func (s *System) FlushIngest() { s.reorder.FlushAll() }

// ingestSecond is the reorder buffer's sink: it applies one flushed second
// and records how long that took.
func (s *System) ingestSecond(t model.Time, raws []model.RawReading) {
	if maxSeen, ok := s.reorder.MaxSeen(); ok && maxSeen > t {
		s.tel.reorderLag.Observe(float64(maxSeen - t))
	} else {
		s.tel.reorderLag.Observe(0)
	}
	astart := time.Now()
	s.applySecond(t, raws)
	s.shardTel.step.Observe(time.Since(astart).Seconds())
	s.shardTel.queueDepth.Set(float64(len(raws)))
	s.curTrace.Since("collect", s.shardID, astart)
}

// collectSecond feeds one second's readings into the collector, counts the
// accepted ones, applies the cache invalidation rule to every ENTER event,
// and returns the second's ENTER/LEAVE events sorted by (Time, Object). It is
// the kernel step the router drives per shard — live, on recovery replay, and
// when a healed shard catches up.
func (s *System) collectSecond(t model.Time, raws []model.RawReading) []model.Event {
	dropped := s.col.Drops().Readings()
	s.col.IngestSecond(t, raws)
	s.stats.ReadingsIngested += len(raws) - (s.col.Drops().Readings() - dropped)
	evs := s.col.DrainEvents()
	for _, ev := range evs {
		if ev.Kind == model.Enter {
			s.cache.Invalidate(ev.Object, ev.Reader)
		}
	}
	return evs
}

// restoreShard replaces the kernel's mutable state with a shard snapshot's
// (the router's recovery and heal paths); the zero shardSnap resets it to
// empty.
func (s *System) restoreShard(ss *shardSnap) {
	s.stats = ss.Stats
	s.col.Restore(ss.Collector)
	s.cache.RestoreEntries(ss.CacheEntries)
	s.cache.RestoreStats(ss.CacheHits, ss.CacheMisses)
}

// applySecond is the standalone kernel's whole flush step: reader-health
// observation, collectSecond, and the retained event log.
func (s *System) applySecond(t model.Time, raws []model.RawReading) {
	if s.monitor != nil && s.monitor.ObserveSecond(t, raws) {
		s.refreshHealth()
	}
	for _, ev := range s.collectSecond(t, raws) {
		if ev.Kind == model.Enter && s.monitor != nil {
			// The ENTER explains the object's coming silence (rooms are
			// uncovered): its reader should not expect more detections.
			s.monitor.Release(ev.Object)
		}
		s.eventLog = append(s.eventLog, ev)
	}
	s.eventLog, s.eventOff = boundEventLog(s.eventLog, s.eventOff)
}

// maxEventLog bounds the retained ENTER/LEAVE event log, and eventLogChunk
// is the granularity it is cut at. Consumers that fall further behind simply
// see a truncated prefix (and, safely, re-evaluate everything).
const (
	maxEventLog   = 65536
	eventLogChunk = maxEventLog / 4
)

// boundEventLog cuts a retained event log, whose first event has sequence
// number off, back to its newest maxEventLog events and up to a chunk more:
// the cut is made once a whole chunk lies before them, at that chunk's
// boundary and into a fresh array. Cutting at multiples of the chunk keeps the
// retained window a function of the event count alone — the same whenever the
// events arrived — while the copy is paid once per chunk of events instead of
// once per flushed second; the fresh array keeps the slices EventsSince
// handed out valid.
func boundEventLog(log []model.Event, off int) ([]model.Event, int) {
	if cut := (off + len(log) - maxEventLog) / eventLogChunk * eventLogChunk; cut > off {
		return append(log[:0:0], log[cut-off:]...), cut
	}
	return log, off
}

// Expire drops collector state and cached particle states for objects whose
// last reading is older than t. Pair it with population churn: objects that
// left the building stop producing readings and age out of the system
// instead of lingering as stale candidates.
func (s *System) Expire(olderThan model.Time) {
	s.col.ForgetBefore(olderThan)
	s.cache.EvictExpired(s.col.Now())
}

// EventsSince returns the ENTER/LEAVE events recorded at or after the given
// sequence number, plus the next sequence number to pass. A consumer that
// fell behind the bounded log receives truncated=true and should treat the
// state as fully dirty.
func (s *System) EventsSince(seq int) (events []model.Event, next int, truncated bool) {
	next = s.eventOff + len(s.eventLog)
	if seq < s.eventOff {
		return s.eventLog, next, true
	}
	return s.eventLog[seq-s.eventOff:], next, false
}

// Query answers q with the particle filter-based method: the kernel runs the
// query pipeline over itself.
func (s *System) Query(ctx context.Context, q Query) (Answer, error) { return Run(ctx, s, s, q) }

// Infos summarizes every known object for the pruning module, ascending —
// the gather stage of the pipeline. A historical query sees each object's
// last reading at or before q.At.
func (s *System) Infos(_ context.Context, q Query) ([]query.ObjectInfo, error) {
	objs := s.col.KnownObjects()
	out := make([]query.ObjectInfo, 0, len(objs))
	for _, o := range objs {
		var last model.AggregatedReading
		var ok bool
		if q.Historical {
			last, ok = s.col.LastReadingAt(o, q.At)
		} else {
			last, ok = s.col.LastReading(o)
		}
		if ok {
			out = append(out, query.ObjectInfo{Object: o, Reader: last.Reader, LastSeen: last.Time})
		}
	}
	return out, nil
}

// Prune is the query aware optimization module: the candidates q cannot rule
// out, or every object when pruning is disabled or q covers them all.
func (s *System) Prune(ctx context.Context, infos []query.ObjectInfo, q Query, now model.Time) ([]model.ObjectID, error) {
	switch {
	case q.Kind == KindRange:
		return s.PruneRangeContext(ctx, infos, []geom.Rect{q.Window}, now)
	case q.Kind == KindKNN && s.cfg.UsePruning:
		return s.pruner.KNNCandidatesContext(ctx, infos, q.Point, q.K, now)
	default:
		return ObjectsOf(infos), nil
	}
}

// Unhealthy returns the unhealthy-reader set the pruner widens uncertain
// regions by (nil when every reader is healthy).
func (s *System) Unhealthy() []bool { return s.pruner.Unhealthy() }

// OwnDists finds and preprocesses the kernel's own candidates for q in one
// call: the range prune is per object, so run over this kernel's objects
// under the coordinator's clock and reader health it admits exactly the
// objects a prune over every partition's would admit here.
func (s *System) OwnDists(ctx context.Context, q Query, sc Scope) ([]anchor.ObjDist, int, error) {
	tr := trace.From(ctx)
	start := time.Now()
	infos, _ := s.Infos(ctx, q)
	tr.Since("gather", s.shardID, start)
	pstart := time.Now()
	var cands []model.ObjectID
	var perr error
	if q.Kind == KindRange && s.cfg.UsePruning {
		cands, perr = s.pruner.RangeCandidatesContext(ctx, infos, []geom.Rect{q.Window}, sc.Now, sc.Unhealthy)
	} else {
		cands = ObjectsOf(infos)
	}
	tr.Since("prune", s.shardID, pstart)
	dists, terr := s.Dists(ctx, cands, q)
	return dists, len(cands), JoinPartial(perr, terr)
}

// Dists runs the preprocessing module for the candidates — the kernel's
// share of a scatter — under the shard's evaluate span and histogram. An
// idle shard still shows in the trace, with a zero-duration span.
func (s *System) Dists(ctx context.Context, cands []model.ObjectID, q Query) ([]anchor.ObjDist, error) {
	tr := trace.From(ctx)
	start := time.Now()
	if len(cands) == 0 {
		tr.Add("evaluate", s.shardID, start, 0)
		return nil, nil
	}
	dists, err := s.preprocessDists(ctx, cands, q)
	s.shardTel.evaluate.Observe(time.Since(start).Seconds())
	tr.Since("evaluate", s.shardID, start)
	return dists, err
}

// Preprocess runs the particle filter-based preprocessing module for the
// candidate set and returns the filled APtoObjHT table. It consults and
// updates the cache when enabled. Objects are filtered in parallel (see
// Config.Workers); each object's randomness derives from (Seed, object,
// last reading time), so the output is identical at any parallelism.
func (s *System) Preprocess(candidates []model.ObjectID) *anchor.Table {
	tab, _ := s.PreprocessContext(context.Background(), candidates)
	return tab
}

// PreprocessContext is Preprocess with a per-request deadline, checked at
// every per-object task boundary. On expiry the remaining objects are
// skipped — they simply do not appear in the returned table — and a
// *query.DeadlineError is returned alongside the partial table.
func (s *System) PreprocessContext(ctx context.Context, candidates []model.ObjectID) (*anchor.Table, error) {
	dists, err := s.preprocessDists(ctx, candidates, Query{})
	return anchor.TableOf(dists), err
}

// preprocessTask is one candidate's trip through preprocessDists.
type preprocessTask struct {
	obj     model.ObjectID
	entries []model.AggregatedReading
	dj      model.ReaderID
	// st is the state to advance — the cache's own, handed over — or nil
	// for a full run; done marks that the worker got to the object.
	st      *particle.State
	resumed bool
	done    bool
	dist    anchor.Dist
	snap    time.Duration
}

// preprocessDists is the preprocessing module: the candidates' distributions
// in ascending object order, which is what a shard returns to the router and
// a peer to its coordinator. A historical query filters each candidate's
// readings up to q.At from scratch and leaves the cache alone; it is keyed
// like a snapshot run, so re-asking it gives the same answer on any engine.
func (s *System) preprocessDists(ctx context.Context, candidates []model.ObjectID, q Query) ([]anchor.ObjDist, error) {
	now := s.col.Now()
	if q.Historical {
		now = q.At
	}
	useCache := s.cfg.UseCache && !q.Historical
	tr := trace.From(ctx)

	// Phase 1 (serial): gather readings and consult the cache — collector
	// and cache are not safe for concurrent use. A hit hands the cached
	// state itself to the task; it stays in the cache, so an object the
	// deadline skips below is simply left as it was.
	tasks, entries := s.tasks[:0], s.entries[:0]
	for _, obj := range sortedObjects(candidates) {
		from := len(entries)
		if q.Historical {
			entries = append(entries, s.col.AggregatedUpTo(obj, q.At)...)
		} else {
			entries = s.col.AppendAggregated(entries, obj)
		}
		if len(entries) == from {
			continue
		}
		// Capacity-capped: if the shared buffer grows, earlier tasks keep
		// their (immutable) view of the old array.
		t := preprocessTask{obj: obj, entries: entries[from:len(entries):len(entries)]}
		if useCache {
			_, t.dj = s.col.RecentDevices(obj)
			t.st, t.resumed = s.cache.Get(obj, t.dj, now)
		}
		tasks = append(tasks, t)
	}
	s.entries = entries

	// Phase 2 (parallel): run the particle filter per object. Each object's
	// stream is keyed by (Seed, object, last reading time): a later query
	// with new readings filters differently, but re-asking the same question
	// gives the same answer, at any worker count and batch size.
	//
	// Workers claim contiguous batches of the sorted task list from a shared
	// atomic cursor — one atomic add per batch instead of one channel
	// round-trip per object — and step every object in a batch through the
	// same recycled scratch, so the SoA kernel's flat arrays stay hot in
	// cache from one object to the next. Tasks are disjoint objects, so a
	// cached state is advanced in place by exactly one worker. The
	// goroutines live only for the duration of the call; the scratch is
	// recycled across calls.
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	batch := s.cfg.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	var wg sync.WaitGroup
	var cursor atomic.Int64
	worker := func() {
		defer wg.Done()
		ws := s.pools.Get().(*workerScratch)
		defer s.pools.Put(ws)
		for {
			end := int(cursor.Add(int64(batch)))
			start := end - batch
			if start >= len(tasks) {
				return
			}
			if end > len(tasks) {
				end = len(tasks)
			}
			for i := start; i < end; i++ {
				if ctx.Err() != nil {
					// Deadline hit: stop claiming and filtering; skipped
					// objects stay out of the answer and untouched in the
					// cache.
					return
				}
				t := &tasks[i]
				var callStart time.Time
				if tr != nil {
					callStart = time.Now()
				}
				ws.src = *rng.Derive(s.cfg.Seed, int64(t.obj), int64(t.entries[len(t.entries)-1].Time))
				if t.resumed {
					s.filter.AdvancePool(ws.pool, &ws.src, t.st, t.entries, now)
				} else {
					st, err := s.filter.RunPool(ws.pool, &ws.src, t.obj, t.entries, now)
					if err != nil {
						continue
					}
					t.st = st
				}
				// The anchor-snap discretization is the fourth filter stage;
				// histograms are atomic, so observing from workers is safe.
				snapStart := time.Now()
				t.dist = t.st.AnchorDist(s.idx, &ws.acc)
				t.snap = time.Since(snapStart)
				t.done = true
				s.tel.stageSnap.Observe(t.snap.Seconds())
				if tr != nil {
					s.recordStageSpans(tr, callStart, t.obj, t.st.LastRun, t.snap)
				}
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	// Phase 3 (serial): commit to the cache and collect the answer.
	out := make([]anchor.ObjDist, 0, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		if !t.done {
			continue
		}
		if t.resumed {
			s.stats.FiltersResumed++
			s.tel.runsResumed.Inc()
		} else {
			s.stats.FiltersRun++
			s.tel.runsFull.Inc()
		}
		s.tel.recordTrace(s.shardID, t.st, t.snap, t.resumed)
		if useCache {
			s.cache.Put(t.st, t.dj)
		}
		out = append(out, anchor.ObjDist{Object: t.obj, Dist: t.dist})
	}
	clear(tasks) // drop the state and reading references until the next call
	s.tasks = tasks
	if ctx.Err() != nil {
		return out, &query.DeadlineError{Stage: "preprocess", Err: ctx.Err()}
	}
	return out, nil
}

// recordStageSpans reconstructs one filter call's per-stage spans from the
// particle.RunStats the instrumented filter left behind, laid consecutively
// from the call start. The filter kernel itself is never touched — its
// zero-allocation contract stays intact — and untraced calls skip this
// entirely (the tr != nil guard at the call site).
func (s *System) recordStageSpans(tr *trace.Context, callStart time.Time, obj model.ObjectID, rs particle.RunStats, snap time.Duration) {
	attr := trace.Attr{Key: "object", Value: fmt.Sprint(obj)}
	at := callStart
	tr.Add("predict", s.shardID, at, rs.Predict, attr)
	at = at.Add(rs.Predict)
	tr.Add("reweight", s.shardID, at, rs.Reweight, attr)
	at = at.Add(rs.Reweight)
	tr.Add("resample", s.shardID, at, rs.Resample, attr)
	at = at.Add(rs.Resample)
	tr.Add("snap", s.shardID, at, snap, attr)
}

// RangeCandidates applies the query aware optimization for range queries,
// or returns all known objects when pruning is disabled.
func (s *System) RangeCandidates(windows []geom.Rect) []model.ObjectID {
	cands, _ := s.PruneRangeContext(context.Background(), s.ObjectInfos(), windows, s.col.Now())
	return cands
}

// KNNCandidates applies the distance-based pruning for kNN queries, or
// returns all known objects when pruning is disabled.
func (s *System) KNNCandidates(q geom.Point, k int) []model.ObjectID {
	cands, _ := s.Prune(context.Background(), s.ObjectInfos(), KNNQuery(q, k), s.col.Now())
	return cands
}

// sortedObjects returns the candidates in ascending order without repeats —
// a repeated candidate must not become two tasks advancing one cached state —
// copying only when they are not already so (pruning emits them that way).
func sortedObjects(candidates []model.ObjectID) []model.ObjectID {
	strict := true
	for i := 1; i < len(candidates) && strict; i++ {
		strict = candidates[i-1] < candidates[i]
	}
	if strict {
		return candidates
	}
	sorted := slices.Clone(candidates)
	slices.Sort(sorted)
	return slices.Compact(sorted)
}

// ObjectsOf returns the summarized objects' IDs, in the summaries' order.
func ObjectsOf(infos []query.ObjectInfo) []model.ObjectID {
	out := make([]model.ObjectID, len(infos))
	for i, info := range infos {
		out[i] = info.Object
	}
	return out
}

// RangeQueryOn evaluates Algorithm 3 against an existing table (for batched
// workloads that preprocess once for many windows).
func (s *System) RangeQueryOn(tab *anchor.Table, window geom.Rect) model.ResultSet {
	s.tel.countQuery(KindRange)
	return s.eval.Range(tab, window)
}

// KNNQueryOn evaluates Algorithm 4 against an existing table.
func (s *System) KNNQueryOn(tab *anchor.Table, q geom.Point, k int) model.ResultSet {
	s.tel.countQuery(KindKNN)
	return s.eval.KNN(tab, q, k)
}

// ObjectDistribution returns the particle filter's current anchor-point
// distribution for one object (preprocessing just that object).
func (s *System) ObjectDistribution(obj model.ObjectID) map[anchor.ID]float64 {
	tab := s.Preprocess([]model.ObjectID{obj})
	return tab.DistributionOf(obj).Map()
}

// PreprocessAt runs the particle filter for the candidates as of a past
// time stamp t, using only readings at or before t. With KeepHistory enabled
// it reaches arbitrarily far back; otherwise it is limited to the live
// retention window.
func (s *System) PreprocessAt(candidates []model.ObjectID, t model.Time) *anchor.Table {
	dists, _ := s.preprocessDists(context.Background(), candidates, Query{Historical: true, At: t})
	return anchor.TableOf(dists)
}

// PTKNNQuery answers the probabilistic threshold kNN query of Yang et al.
// (which the paper's related work defines formally): every object whose
// probability of belonging to the kNN result set is at least threshold,
// estimated by Monte Carlo over the particle filter's distributions.
func (s *System) PTKNNQuery(q geom.Point, k int, threshold float64) []query.PTKNNResult {
	tab := s.Preprocess(s.KNNCandidates(q, k))
	return s.eval.PTKNN(s.src, tab, q, k, threshold, s.cfg.SMTrials)
}

// Evaluator exposes the query evaluation module for advanced use (continuous
// monitors, custom tables).
func (s *System) Evaluator() *query.Evaluator { return s.eval }

// ClosestPairs answers the closest-pairs query (a future-work extension of
// the paper): the k object pairs with the smallest expected network
// distance, over the particle filter's current distributions of all known
// objects.
func (s *System) ClosestPairs(k int) []query.Pair {
	tab := s.Preprocess(ObjectsOf(s.ObjectInfos()))
	return s.eval.ClosestPairs(tab, k)
}
