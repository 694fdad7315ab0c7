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
// Sharded is that pipeline as a router over one or more shards of object
// state sharing one world, and the only type that touches a disk: write-ahead
// logs, snapshots, recovery, quarantine and self-heal all live there. System
// is the one-shard router built in memory, with the few things only a single
// shard can offer. Every engine synchronizes itself: ingest, queries and
// stats reads may run concurrently.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
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
	// Health parameterizes the per-reader liveness monitor that feeds the
	// sensing-model compensation (filter negative updates, pruner uncertain
	// regions). The zero value disables monitoring; monitoring is passive —
	// bit-for-bit — while every reader is LIVE either way.
	Health health.Config
	// Seed drives all of the engine's randomness.
	Seed int64
	// Shards partitions object state into this many in-process shards, each
	// owning its lock, collector slice, cache, particle workers, and WAL
	// segment stream (NewSharded/OpenSharded; New always builds one). 0 or 1
	// means one shard behind the router. Answers, Stats, and recovered state
	// are bit-for-bit identical at any shard count.
	Shards int
	// Durability configures the write-ahead logs and snapshot store. The zero
	// value disables durability entirely (the historical in-memory contract);
	// a non-empty Dir enables it, but only through OpenSharded — New and
	// NewSharded ignore it, and Open refuses it.
	Durability DurabilityConfig
}

// preprocessBatch is how many objects a preprocessing worker claims from the
// shared queue at a time. One object's SoA state is a few kilobytes (Ns ×
// five flat arrays), so a batch of 32 streams through comfortably under L2
// while costing only one atomic claim per 32 filters. Results are bit-for-bit
// identical at any batch size, for the same reason they are at any worker
// count.
const preprocessBatch = 32

// DefaultConfig returns the paper's defaults (Table 2).
func DefaultConfig() Config {
	return Config{
		Particle:           particle.DefaultConfig(),
		AnchorSpacing:      anchor.DefaultSpacing,
		MaxSpeed:           query.DefaultMaxSpeed,
		UseCache:           true,
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

// System is the assembled query evaluation system: the one-shard router,
// whose ingestion, queries, stats and locking are all Sharded's, plus what
// only a single shard can offer — its collector (Collector), Expire and the
// Monte Carlo source of PTKNNQuery. It is safe for concurrent use.
type System struct {
	*Sharded

	// srcMu serializes PTKNNQuery's draws from src.
	srcMu sync.Mutex
	src   *rng.Source
}

// world is what a deployment builds once, whatever the number of shards:
// the paper's per-deployment modules — walking graph, anchor index, particle
// filter (with its edge-coverage index), pruner, evaluator — and the
// telemetry they record into. Only object state (store) is per shard.
type world struct {
	cfg    Config
	g      *walkgraph.Graph
	dep    *rfid.Deployment
	idx    *anchor.Index
	filter *particle.Filter
	pruner *query.Pruner
	eval   *query.Evaluator
	tel    *Telemetry

	// healthMu fences the filter's and the pruner's sensing model (the
	// unhealthy-reader set, the particle budget): a router's query stages
	// hold it for read so a concurrent flush cannot swap the model
	// mid-scatter.
	healthMu sync.RWMutex

	// pools recycles per-worker scratch (the SoA kernel's flat arrays and the
	// snap accumulator) across Preprocess calls and shards, so steady-state
	// preprocessing allocates nothing per query but its answer.
	pools sync.Pool
}

// store is the object state one shard owns over its world: the collector,
// the particle-state cache, the work counters, the preprocessing worker
// budget and the shard's metric handles. The router holds one per shard, each
// under its shard lock: a store is not safe for concurrent use.
type store struct {
	*world
	// shardID is the store's position in the router; it labels filter
	// traces, spans, and the shardTel metric handles.
	shardID  int
	workers  int
	shardTel *shardMetrics
	col      *collector.Collector
	cache    *cache.Cache
	stats    Stats
	// tasks and entries are preprocessDists' per-call work list and the
	// readings it gathers, and latest the newest readings Infos summarizes,
	// recycled across calls (the shard lock covers them like the collector
	// and cache they are filled from).
	tasks   []preprocessTask
	entries []model.AggregatedReading
	latest  []model.AggregatedReading
}

// workerScratch is what one preprocessing worker steps objects through.
type workerScratch struct {
	pool *particle.Pool
	acc  anchor.Accumulator
	// src is re-keyed per object; living here keeps it off the heap.
	src rng.Source
}

// newWorld validates cfg and builds the per-deployment modules.
func newWorld(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) (*world, error) {
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
	// The filter builds the edge-coverage index once and answers every
	// coverage predicate of its hot loops from it. It stays uninstrumented —
	// it counts its work in LastRun and reads no clock; filterOne times each
	// call as a whole. Telemetry is always on: the record path is atomic and
	// allocation-free.
	filter, err := particle.New(cfg.Particle, g, dep)
	if err != nil {
		return nil, err
	}
	w := &world{
		cfg:    cfg,
		g:      g,
		dep:    dep,
		idx:    idx,
		filter: filter,
		pruner: query.NewPruner(g, idx, dep, cfg.MaxSpeed),
		eval:   query.NewEvaluator(g, idx),
		tel:    newTelemetry(cfg),
	}
	w.pools.New = func() any { return &workerScratch{pool: particle.NewPool()} }
	return w, nil
}

// newStore builds shard id's empty object state, preprocessing with at most
// workers goroutines (0: GOMAXPROCS).
func (w *world) newStore(id, workers int) *store {
	st := &store{
		world:    w,
		shardID:  id,
		workers:  workers,
		shardTel: w.tel.shardMetrics(id),
		col:      collector.New(),
		cache:    cache.New(cache.DefaultLifetime),
	}
	if w.cfg.KeepHistory {
		st.col = collector.NewWithHistory()
	}
	st.cache.Instrument(w.tel.cacheHits, w.tel.cacheMisses, w.tel.cacheEvictions)
	return st
}

// New assembles a System over a floor plan and reader deployment: a
// one-shard router, whatever cfg.Shards says. It touches no disk
// (cfg.Durability is ignored).
func New(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) (*System, error) {
	cfg.Shards = 1
	e, err := NewSharded(plan, dep, cfg)
	if err != nil {
		return nil, err
	}
	return &System{Sharded: e, src: rng.New(cfg.Seed)}, nil
}

// MustNew is New for known-valid inputs.
func MustNew(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) *System {
	s, err := New(plan, dep, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open assembles a System exactly like New. A System touches no disk: a
// configured data directory is an error here, never a silent drop to
// memory-only — durable engines are opened with OpenSharded, where Shards: 1
// is the single-engine layout.
func Open(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) (*System, error) {
	if cfg.Durability.Enabled() {
		return nil, fmt.Errorf("engine: Open builds an in-memory System and cannot use data directory %s; open it with OpenSharded (Shards: 1 for a single engine)", cfg.Durability.Dir)
	}
	return New(plan, dep, cfg)
}

// Accessors for the assembled components.

// Config returns the configuration the engine was built with.
func (w *world) Config() Config { return w.cfg }

// Graph returns the indoor walking graph.
func (w *world) Graph() *walkgraph.Graph { return w.g }

// AnchorIndex returns the anchor point index.
func (w *world) AnchorIndex() *anchor.Index { return w.idx }

// Deployment returns the reader deployment.
func (w *world) Deployment() *rfid.Deployment { return w.dep }

// Telemetry returns the observability surface.
func (w *world) Telemetry() *Telemetry { return w.tel }

// Evaluator exposes the query evaluation module for advanced use (continuous
// monitors, custom tables).
func (w *world) Evaluator() *query.Evaluator { return w.eval }

// Collector returns the raw data collector of the System's one shard. It is
// the collector itself, not a copy: read it only while nothing ingests or
// queries.
func (s *System) Collector() *collector.Collector { return s.shards[0].col }

// collectSecond feeds one second's readings into the collector, counts the
// accepted ones, applies the cache invalidation rule to every ENTER event,
// and returns the second's ENTER/LEAVE events sorted by (Time, Object). It is
// the step the router drives per shard, live and on recovery replay.
func (s *store) collectSecond(t model.Time, raws []model.RawReading) []model.Event {
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

// restore replaces the store's state with a shard snapshot's (the router's
// recovery path).
func (s *store) restore(ss *shardSnap) {
	s.stats = ss.Stats
	s.col.Restore(ss.Collector)
	s.cache.RestoreEntries(ss.CacheEntries)
	s.cache.RestoreStats(ss.CacheHits, ss.CacheMisses)
}

// Expire drops collector state and cached particle states for objects whose
// last reading is older than t. Pair it with population churn: objects that
// left the building stop producing readings and age out of the system
// instead of lingering as stale candidates.
func (s *System) Expire(olderThan model.Time) {
	s.shardMu[0].Lock()
	defer s.shardMu[0].Unlock()
	sh := s.shards[0]
	sh.col.ForgetBefore(olderThan)
	sh.cache.EvictExpired(sh.col.Now())
}

// Infos summarizes every known object for the pruning module, ascending —
// the gather stage of the pipeline: one walk of the collector's sorted object
// list. A historical query sees each object's last reading at or before q.At.
func (s *store) Infos(_ context.Context, q Query) ([]query.ObjectInfo, error) {
	if q.Historical {
		objs := s.col.KnownObjects()
		out := make([]query.ObjectInfo, 0, len(objs))
		for _, o := range objs {
			if last, ok := s.col.LastReadingAt(o, q.At); ok {
				out = append(out, query.ObjectInfo{Object: o, Reader: last.Reader, LastSeen: last.Time})
			}
		}
		return out, nil
	}
	s.latest = s.col.AppendLatest(s.latest[:0])
	out := make([]query.ObjectInfo, len(s.latest))
	for i, last := range s.latest {
		out[i] = query.ObjectInfo{Object: last.Object, Reader: last.Reader, LastSeen: last.Time}
	}
	return out, nil
}

// Prune is the query aware optimization module: the candidates q cannot rule
// out, or every object when pruning is disabled or q covers them all.
func (w *world) Prune(ctx context.Context, infos []query.ObjectInfo, q Query, now model.Time) ([]model.ObjectID, error) {
	switch {
	case q.Kind == KindRange:
		return w.PruneRangeContext(ctx, infos, []geom.Rect{q.Window}, now)
	case q.Kind == KindKNN && w.cfg.UsePruning:
		w.healthMu.RLock()
		defer w.healthMu.RUnlock()
		return w.pruner.KNNCandidatesContext(ctx, infos, q.Point, q.K, now)
	default:
		return ObjectsOf(infos), nil
	}
}

// OwnDists finds and preprocesses the store's own candidates for q in one
// call: the range prune is per object, so run over this store's objects
// under the coordinator's clock and reader health it admits exactly the
// objects a prune over every partition's would admit here.
func (s *store) OwnDists(ctx context.Context, q Query, sc Scope) ([]anchor.ObjDist, int, error) {
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

// Dists runs the preprocessing module for the candidates — the store's
// share of a scatter — under the shard's evaluate span and histogram. An
// idle shard still shows in the trace, with a zero-duration span.
func (s *store) Dists(ctx context.Context, cands []model.ObjectID, q Query) ([]anchor.ObjDist, error) {
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
	// advance and snap are the caller-timed filter call and snap; snapped is
	// false when the state's memoized distribution answered instead.
	advance, snap time.Duration
	snapped       bool
}

// preprocessDists is the preprocessing module: the candidates' distributions
// in ascending object order, which is what a shard returns to the router and
// a peer to its coordinator. It consults and updates the cache when enabled,
// and filters objects in parallel (see Config.Workers); each object's
// randomness derives from (Seed, object, last reading time), so the output is
// identical at any parallelism. ctx's deadline is checked at every
// per-object task boundary: on expiry the remaining objects are skipped and
// a *query.DeadlineError is returned beside the partial answer. A historical
// query filters each candidate's readings up to q.At from scratch and leaves
// the cache alone; it is keyed like a snapshot run, so re-asking it gives the
// same answer on any engine.
func (s *store) preprocessDists(ctx context.Context, candidates []model.ObjectID, q Query) ([]anchor.ObjDist, error) {
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
	// gives the same answer, at any worker count.
	//
	// Workers claim contiguous batches of the sorted task list from a shared
	// atomic cursor — one atomic add per preprocessBatch objects instead of
	// one channel round-trip per object — and step every object in a batch
	// through the same recycled scratch, so the SoA kernel's flat arrays stay
	// hot in cache from one object to the next. Tasks are disjoint objects,
	// so a cached state is advanced in place by exactly one worker. The
	// goroutines live only for the duration of the call; the scratch is
	// recycled across calls.
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	var cursor atomic.Int64
	worker := func() {
		defer wg.Done()
		ws := s.pools.Get().(*workerScratch)
		defer s.pools.Put(ws)
		for {
			end := int(cursor.Add(preprocessBatch))
			start := end - preprocessBatch
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
				s.filterOne(ws, &tasks[i], now, tr)
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
		s.tel.recordRun(s.shardID, t.st, t.advance, t.snap, t.resumed)
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

// filterOne runs one candidate through the particle filter on the worker's
// scratch — a full run, or a resume of the cached state — and snaps it to the
// anchor points unless the state's memoized distribution still stands (the
// state did not move since the last query that snapped it). The kernel reads
// no clock: the call and the snap are timed here, as wholes, for the filter
// trace ring, the snap histogram and a traced request's spans.
func (s *store) filterOne(ws *workerScratch, t *preprocessTask, now model.Time, tr *trace.Context) {
	start := time.Now()
	ws.src = *rng.Derive(s.cfg.Seed, int64(t.obj), int64(t.entries[len(t.entries)-1].Time))
	if t.resumed {
		s.filter.AdvancePool(ws.pool, &ws.src, t.st, t.entries, now)
	} else {
		st, err := s.filter.RunPool(ws.pool, &ws.src, t.obj, t.entries, now)
		if err != nil {
			return
		}
		t.st = st
	}
	snapStart := time.Now()
	t.advance = snapStart.Sub(start)
	dist, memo := t.st.MemoDist(s.idx)
	if !memo {
		dist = t.st.AnchorDist(s.idx, &ws.acc)
		t.snap = time.Since(snapStart)
		s.tel.stageSnap.Observe(t.snap.Seconds())
	}
	t.dist, t.snapped, t.done = dist, !memo, true
	if tr != nil {
		s.recordSpans(tr, start, t)
	}
}

// recordSpans lays one candidate's filter work on the request trace: the
// advance call with its work counts, then the snap when one ran. Untraced
// requests skip this entirely (the tr != nil guard at the call site).
func (s *store) recordSpans(tr *trace.Context, start time.Time, t *preprocessTask) {
	rs := t.st.LastRun
	obj := trace.Attr{Key: "object", Value: strconv.FormatInt(int64(t.obj), 10)}
	tr.Add("advance", s.shardID, start, t.advance, obj,
		trace.Attr{Key: "steps", Value: strconv.Itoa(rs.Steps)},
		trace.Attr{Key: "detections", Value: strconv.Itoa(rs.Detections)},
		trace.Attr{Key: "resamples", Value: strconv.Itoa(rs.Resamples)})
	if t.snapped {
		tr.Add("snap", s.shardID, start.Add(t.advance), t.snap, obj)
	}
}

// RangeCandidates applies the query aware optimization for range queries,
// or returns all known objects when pruning is disabled.
func (e *Sharded) RangeCandidates(windows []geom.Rect) []model.ObjectID {
	cands, _ := e.PruneRangeContext(context.Background(), e.ObjectInfos(), windows, e.Now())
	return cands
}

// KNNCandidates applies the distance-based pruning for kNN queries, or
// returns all known objects when pruning is disabled.
func (e *Sharded) KNNCandidates(q geom.Point, k int) []model.ObjectID {
	cands, _ := e.Prune(context.Background(), e.ObjectInfos(), KNNQuery(q, k), e.Now())
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
func (w *world) RangeQueryOn(tab *anchor.Table, window geom.Rect) model.ResultSet {
	w.tel.countQuery(KindRange)
	return w.eval.Range(tab, window)
}

// KNNQueryOn evaluates Algorithm 4 against an existing table.
func (w *world) KNNQueryOn(tab *anchor.Table, q geom.Point, k int) model.ResultSet {
	w.tel.countQuery(KindKNN)
	return w.eval.KNN(tab, q, k)
}

// PreprocessAt runs the particle filter for the candidates as of a past
// time stamp t, using only readings at or before t. With KeepHistory enabled
// it reaches arbitrarily far back; otherwise it is limited to the live
// retention window.
func (e *Sharded) PreprocessAt(candidates []model.ObjectID, t model.Time) *anchor.Table {
	dists, _ := e.Dists(context.Background(), candidates, Query{Historical: true, At: t})
	return anchor.TableOf(dists)
}

// PTKNNQuery answers the probabilistic threshold kNN query of Yang et al.
// (which the paper's related work defines formally): every object whose
// probability of belonging to the kNN result set is at least threshold,
// estimated by Monte Carlo over the particle filter's distributions.
func (s *System) PTKNNQuery(q geom.Point, k int, threshold float64) []query.PTKNNResult {
	tab := s.Preprocess(s.KNNCandidates(q, k))
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	return s.eval.PTKNN(s.src, tab, q, k, threshold, s.cfg.SMTrials)
}

// ClosestPairs answers the closest-pairs query (a future-work extension of
// the paper): the k object pairs with the smallest expected network
// distance, over the particle filter's current distributions of all known
// objects.
func (e *Sharded) ClosestPairs(k int) []query.Pair {
	tab := e.Preprocess(ObjectsOf(e.ObjectInfos()))
	return e.eval.ClosestPairs(tab, k)
}
