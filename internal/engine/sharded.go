package engine

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/query"
	"repro/internal/rfid"
	"repro/internal/shardmap"
	"repro/internal/wal"
	"repro/internal/walkgraph"
)

// MaxShards bounds Config.Shards. The cap is generous — shards are
// in-process and cheap — but a typo like -shards=100000 should fail fast
// rather than allocate a hundred thousand collectors.
const MaxShards = 256

// Sharded partitions object state across N independent in-memory kernels
// (System) by consistent hash of the object ID (internal/shardmap) and routes
// every operation through a thin deterministic layer. It is also the only
// durable engine (OpenSharded, sharded_durability.go); N = 1 is the
// single-engine shape. The routing layer:
//
//   - Ingestion runs through ONE reorder buffer and ONE reader-health
//     monitor owned by the router; each flushed second is split into
//     per-shard subsets (order-preserving) and applied to all shards in
//     parallel; the shards' ENTERs then release their readers' expectations
//     in the router's monitor.
//   - Queries run the one pipeline (Run) over the router as a Partition made
//     of its shards: gather candidate summaries from every live shard (merged
//     in object order), prune once, scatter the preprocessing to the owning
//     shards in parallel, merge their disjoint answers, and evaluate once.
//   - Stats, CacheStats and KnownObjects are per-shard values combined with
//     order-insensitive sums or deterministic merges.
//
// Because every per-object computation is keyed by (Seed, object, last
// reading time) — never by which other objects share the engine — a Sharded
// engine's answers, Stats, and recovered state are bit-for-bit identical to
// the bare kernel's at any shard count (DESIGN.md §14).
//
// Sharded synchronizes internally (unlike System): ingest, queries, and
// stats reads may run concurrently. The lock hierarchy is
// ingestMu > healthMu > shardMu[i]; locks are only ever acquired left to
// right, and the per-shard locks are never nested with each other.
type Sharded struct {
	// QueryMethods are the classic spellings of Query.
	QueryMethods

	cfg    Config
	n      int
	shards []*System
	tel    *Telemetry

	// shardMu[i] guards shards[i]: its collector, cache, filter state and
	// stats counters. The router never holds two shard locks nested except
	// transiently through kMerge-free paths (it does not).
	shardMu []sync.Mutex

	// ingestMu serializes the ingestion pipeline: the reorder buffer, the
	// health monitor, the WAL streams, and the oversized-body drop counter.
	ingestMu   sync.Mutex
	reorder    *ingest.Reorder
	monitor    *health.Monitor
	extraDrops ingest.Drops

	// curTrace is the trace of the in-flight IngestContext call, read by the
	// reorder sink and the WAL/apply paths it triggers. Guarded by ingestMu.
	curTrace *trace.Context

	// Scratch of one flushed second, reused by the next (guarded by
	// ingestMu): parts are the per-shard subsets partition cuts out of
	// partBuf, owners each reading's shard, partCounts the subset sizes, and
	// evs what each shard's collector drained.
	parts      [][]model.RawReading
	partBuf    []model.RawReading
	owners     []uint8 // MaxShards fits
	partCounts []int
	evs        [][]model.Event

	// healthMu fences the unhealthy-reader set and the particle budget:
	// each query stage holds it for read so a concurrent flush cannot swap
	// the sensing model mid-scatter.
	healthMu sync.RWMutex

	// router is the shards as one Partition (see shard).
	router Router

	// metricsMu serializes SyncMetrics (concurrent /metrics scrapes).
	metricsMu sync.Mutex

	// Durability (sharded_durability.go): one WAL stream per shard, all
	// advancing in lockstep — every flushed second appends one record to
	// every shard's log at the same sequence number.
	wals      []*wal.Log
	walSeq    uint64
	walBufs   [][]byte // one encode buffer per shard: logStep runs them side by side
	stepRan   []int    // logStep's scratch: the shards it ran and their outcomes
	stepErrs  []error
	walErr    error
	streamID  uint64
	lastSync  time.Time
	sinceSnap int
	snapFails int
	recovery  RecoveryInfo

	// Fault isolation (sharded_heal.go): per-shard quarantine state. The
	// states are atomics so query paths read them lock-free; transitions
	// and the quar book-keeping happen under ingestMu.
	shardState []atomic.Int32
	quar       []*quarInfo
	// rejoining names the shard a heal is committing (its snapshot joins the
	// barrier even though its state is still HEALING — LIVE flips only after
	// the barrier is durable, so lock-free readers never see an uncommitted
	// rejoin). -1 outside tryHeal.
	rejoining int
	healStop  chan struct{}
	healDone  chan struct{}
	healerOn  bool
}

// NewSharded assembles a sharded engine. cfg.Shards selects the shard count
// (0 and 1 both mean one shard); the rest of the configuration is applied
// to every shard, except that the router owns ingestion (Config.Ingest),
// health monitoring (Config.Health), and durability (Config.Durability) —
// use OpenSharded for the latter.
func NewSharded(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) (*Sharded, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	if n > MaxShards {
		return nil, fmt.Errorf("engine: %d shards exceeds the maximum of %d", n, MaxShards)
	}
	shardCfg := cfg
	shardCfg.Shards = 0
	shardCfg.Ingest = ingest.Config{}        // router owns the reorder buffer
	shardCfg.Health = health.Config{}        // router owns the monitor
	shardCfg.Durability = DurabilityConfig{} // router owns the WAL streams
	// Split the preprocessing worker budget across shards: a scatter runs
	// all shards' phase-2 pools at once, and n*Workers goroutines would
	// oversubscribe the cores without buying determinism (the output is
	// identical at any worker count).
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shardCfg.Workers = workers / n
	if shardCfg.Workers < 1 {
		shardCfg.Workers = 1
	}

	e := &Sharded{
		cfg:        cfg,
		n:          n,
		shards:     make([]*System, n),
		shardMu:    make([]sync.Mutex, n),
		shardState: make([]atomic.Int32, n),
		quar:       make([]*quarInfo, n),
		rejoining:  -1,
		parts:      make([][]model.RawReading, n),
		partCounts: make([]int, n),
		evs:        make([][]model.Event, n),
		walBufs:    make([][]byte, n),
		stepErrs:   make([]error, n),
	}
	e.QueryMethods.Of = e
	e.router = Router{Parts: make([]Partition, n), Owner: func(obj model.ObjectID) int { return shardmap.Of(obj, n) }}
	for i := range e.shards {
		sh, err := New(plan, dep, shardCfg)
		if err != nil {
			return nil, err
		}
		e.shards[i] = sh
		e.router.Parts[i] = shard{e, i}
	}
	// All shards publish into shard 0's telemetry so counters, histograms
	// and the trace ring aggregate exactly like the single engine's (the
	// record paths are atomic or ring-locked, so concurrent shards are
	// safe). Re-instrument the components constructed against the private
	// surfaces.
	e.tel = e.shards[0].tel
	for _, sh := range e.shards[1:] {
		sh.tel = e.tel
		sh.filter.Instrument(e.tel.filterMetrics())
		sh.cache.Instrument(e.tel.cacheHits, e.tel.cacheMisses, e.tel.cacheEvictions)
	}
	// Per-shard identity and labeled metric children. Set after the adoption
	// loop: each shard's New() resolved shardTel against its private registry,
	// so the handles must be re-resolved against the shared telemetry.
	for i, sh := range e.shards {
		sh.shardID = i
		sh.shardTel = e.tel.shardMetrics(i)
	}
	e.reorder = ingest.NewReorder(cfg.Ingest, e.flushSecond)
	if cfg.Health.Enabled {
		m, err := health.NewMonitor(cfg.Health, dep.NumReaders())
		if err != nil {
			return nil, err
		}
		e.monitor = m
	}
	return e, nil
}

// MustNewSharded is NewSharded for known-valid inputs.
func MustNewSharded(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) *Sharded {
	e, err := NewSharded(plan, dep, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// NumShards returns the shard count.
func (e *Sharded) NumShards() int { return e.n }

// SelfSynchronizing reports that Sharded performs its own locking; the HTTP
// server skips its global mutex when the engine says so.
func (e *Sharded) SelfSynchronizing() bool { return true }

// Accessors mirror System's; the floor plan artifacts are identical in
// every shard, so shard 0's serve.

// Graph returns the indoor walking graph.
func (e *Sharded) Graph() *walkgraph.Graph { return e.shards[0].g }

// AnchorIndex returns the anchor point index.
func (e *Sharded) AnchorIndex() *anchor.Index { return e.shards[0].idx }

// Deployment returns the reader deployment.
func (e *Sharded) Deployment() *rfid.Deployment { return e.shards[0].dep }

// Telemetry returns the shared observability surface.
func (e *Sharded) Telemetry() *Telemetry { return e.tel }

// Now returns the most recently ingested second.
func (e *Sharded) Now() model.Time {
	e.shardMu[0].Lock()
	defer e.shardMu[0].Unlock()
	return e.shards[0].col.Now()
}

// ---------------------------------------------------------------------------
// Ingestion: one reorder buffer, scatter per second.

// Ingest feeds one delivery through the router's reorder buffer; flushed
// seconds are partitioned by object and applied to every shard. The typed
// *ingest.Error contract matches System.Ingest. With durability enabled
// (OpenSharded), every flushed second is appended to the live shards'
// write-ahead logs before it is applied, and the logs are fsynced per the
// configured policy before Ingest returns; readings owed to a quarantined
// shard come back as a KindQuarantined drop, and a fail-stop (the last live
// shard's log failing) is sticky: every later Ingest returns the same error
// rather than silently degrading to memory-only.
func (e *Sharded) Ingest(t model.Time, raws []model.RawReading) error {
	return e.IngestContext(context.Background(), t, raws)
}

// IngestContext is Ingest carrying a request trace: the reorder wait, the
// per-shard WAL appends and fsyncs, and the per-shard apply work of any
// second this delivery flushes all land as spans on the caller's trace.
func (e *Sharded) IngestContext(ctx context.Context, t model.Time, raws []model.RawReading) error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.curTrace = trace.From(ctx)
	defer func() { e.curTrace = nil }()
	if e.walErr != nil {
		return e.walErr
	}
	qBefore := e.extraDrops.QuarantinedReadings
	rstart := time.Now()
	err := e.reorder.Offer(t, raws)
	e.curTrace.Since("reorder", trace.RouterShard, rstart)
	if serr := e.syncWAL(false); serr != nil {
		return serr
	}
	if e.walErr != nil {
		return e.walErr
	}
	if err == nil {
		// Readings routed to a quarantined shard were accepted by the reorder
		// buffer but can reach no WAL; report them as a typed partial drop so
		// senders see the degradation instead of a silent ack.
		if dq := e.extraDrops.QuarantinedReadings - qBefore; dq > 0 {
			wm, _ := e.reorder.Watermark()
			return &ingest.Error{Kind: ingest.KindQuarantined, Time: t, Watermark: wm, Dropped: dq}
		}
	}
	return err
}

// FlushIngest drains every buffered second regardless of the lateness
// horizon, like System.FlushIngest; the drained seconds are logged and
// fsynced like any others.
func (e *Sharded) FlushIngest() {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.reorder.FlushAll()
	e.syncWAL(true)
}

// flushSecond is the reorder buffer's sink (called under ingestMu). The
// second is partitioned once; with durability on, one WAL record per shard
// is appended before anything is applied.
func (e *Sharded) flushSecond(t model.Time, raws []model.RawReading) {
	var lag model.Time
	if ms, ok := e.reorder.MaxSeen(); ok && ms > t {
		lag = ms - t
	}
	e.tel.reorderLag.Observe(float64(lag))
	parts := e.partition(raws)
	if e.wals != nil && e.walErr == nil {
		e.dropQuarantined(t, parts)
		e.appendWAL(t, parts)
	}
	e.applyParts(t, parts, raws)
	e.maybeSnapshot()
}

// partition splits one second's readings into per-shard subsets, preserving
// delivery order within each subset. Every shard gets an entry (possibly
// empty): an empty subset still advances the shard's clock and runs its
// LEAVE detection, exactly like the readings' absence would in the single
// engine. The subsets are the router's scratch, good until the next call:
// one walk hashes every reading to its shard and counts, a second copies each
// into its subset's span of one shared buffer.
func (e *Sharded) partition(raws []model.RawReading) [][]model.RawReading {
	parts := e.parts
	if e.n == 1 {
		parts[0] = raws
		return parts
	}
	owners, counts := e.owners[:0], e.partCounts
	clear(counts)
	for _, r := range raws {
		i := shardmap.Of(r.Object, e.n)
		owners = append(owners, uint8(i))
		counts[i]++
	}
	e.owners = owners
	if cap(e.partBuf) < len(raws) {
		e.partBuf = make([]model.RawReading, len(raws))
	}
	off := 0
	for i, c := range counts {
		parts[i] = e.partBuf[off : off : off+c]
		off += c
	}
	for k, r := range raws {
		parts[owners[k]] = append(parts[owners[k]], r)
	}
	return parts
}

// applyParts applies one flushed second to every live shard (quarantined
// shards' state is frozen at their cut sequence; healing fast-forwards them).
// It is the recovery replay path too, so it must not touch the WAL. raws is
// the full second (the concatenation of parts) for the order-insensitive
// health monitor.
func (e *Sharded) applyParts(t model.Time, parts [][]model.RawReading, raws []model.RawReading) {
	e.applyPartsMasked(t, parts, raws, nil)
}

// applyPartsMasked is applyParts with an explicit shard mask; a nil mask
// means "every shard in the LIVE state". Recovery replay uses the mask to
// include a recovering shard only for the seconds its own log covers.
func (e *Sharded) applyPartsMasked(t model.Time, parts [][]model.RawReading, raws []model.RawReading, active []bool) {
	if e.monitor != nil && e.monitor.ObserveSecond(t, raws) {
		e.refreshHealth()
	}
	include := func(i int) bool {
		if active != nil {
			return active[i]
		}
		return e.shardState[i].Load() == shardLive
	}
	evs := e.evs
	clear(evs)
	tr := e.curTrace // captured before the scatter; nil during recovery replay
	apply := func(i int) {
		sh := e.shards[i]
		e.shardMu[i].Lock()
		defer e.shardMu[i].Unlock()
		astart := time.Now()
		evs[i] = sh.collectSecond(t, parts[i])
		sh.shardTel.step.Observe(time.Since(astart).Seconds())
		sh.shardTel.queueDepth.Set(float64(len(parts[i])))
		tr.Since("collect", i, astart)
	}
	if e.n == 1 {
		if include(0) {
			apply(0)
		}
	} else {
		var wg sync.WaitGroup
		for i := 0; i < e.n; i++ {
			if !include(i) {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				apply(i)
			}(i)
		}
		wg.Wait()
	}
	// Release is a per-object map delete, so the shards' ENTERs need no
	// merged order.
	if e.monitor != nil {
		for _, part := range evs {
			for _, ev := range part {
				if ev.Kind == model.Enter {
					e.monitor.Release(ev.Object)
				}
			}
		}
	}
}

// refreshHealth pushes the monitor's unhealthy set into every shard's
// sensing-model consumers. Writer side of healthMu: a concurrent query sees
// either the whole old set or the whole new one, never a mix of shards.
func (e *Sharded) refreshHealth() {
	un := e.monitor.Unhealthy()
	e.healthMu.Lock()
	for _, sh := range e.shards {
		sh.filter.SetUnhealthy(un)
		sh.pruner.SetUnhealthy(un)
	}
	e.healthMu.Unlock()
	e.tel.healthTransitions.Inc()
}

// ---------------------------------------------------------------------------
// Queries: the router is a Coordinator and a Partition made of its shards.

// Query answers q by running the pipeline over the live shards. A degraded
// engine answers over what they hold and returns the typed QuarantineError
// beside the answer.
func (e *Sharded) Query(ctx context.Context, q Query) (Answer, error) { return Run(ctx, e, e, q) }

// shard is shard i of e as a Partition: the kernel under its lock, or the
// typed marker when the shard is not live — a quarantined shard's state is
// frozen mid-quarantine, and answering from it would mix epochs.
type shard struct {
	e *Sharded
	i int
}

func (p shard) Infos(ctx context.Context, q Query) ([]query.ObjectInfo, error) {
	if p.e.shardState[p.i].Load() != shardLive {
		return nil, &QuarantineError{Shards: []int{p.i}}
	}
	p.e.shardMu[p.i].Lock()
	defer p.e.shardMu[p.i].Unlock()
	return p.e.shards[p.i].Infos(ctx, q)
}

func (p shard) Dists(ctx context.Context, cands []model.ObjectID, q Query) ([]anchor.ObjDist, error) {
	if p.e.shardState[p.i].Load() != shardLive {
		// A zero-duration span still attributes the shard's (absent) share of
		// the scatter, so a trace always shows all n shards.
		trace.From(ctx).Add("evaluate", p.i, time.Now(), 0)
		return nil, &QuarantineError{Shards: []int{p.i}}
	}
	p.e.shardMu[p.i].Lock()
	defer p.e.shardMu[p.i].Unlock()
	return p.e.shards[p.i].Dists(ctx, cands, q)
}

func (p shard) OwnDists(ctx context.Context, q Query, sc Scope) ([]anchor.ObjDist, int, error) {
	if p.e.shardState[p.i].Load() != shardLive {
		trace.From(ctx).Add("evaluate", p.i, time.Now(), 0)
		return nil, 0, &QuarantineError{Shards: []int{p.i}}
	}
	p.e.shardMu[p.i].Lock()
	defer p.e.shardMu[p.i].Unlock()
	return p.e.shards[p.i].OwnDists(ctx, q, sc)
}

// Infos merges every live shard's candidate summaries in ascending object
// order — identical to the kernel's because KnownObjects is sorted and
// shards hold disjoint objects.
func (e *Sharded) Infos(ctx context.Context, q Query) ([]query.ObjectInfo, error) {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.router.Infos(ctx, q)
}

// Dists scatters the candidates to the owning shards, runs their
// preprocessing in parallel, and merges their answers.
func (e *Sharded) Dists(ctx context.Context, cands []model.ObjectID, q Query) ([]anchor.ObjDist, error) {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.router.Dists(ctx, cands, q)
}

// OwnDists has every live shard find and preprocess its own candidates, in
// parallel, and merges their answers.
func (e *Sharded) OwnDists(ctx context.Context, q Query, sc Scope) ([]anchor.ObjDist, int, error) {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.router.OwnDists(ctx, q, sc)
}

// Unhealthy returns the unhealthy-reader set every shard's pruner holds.
func (e *Sharded) Unhealthy() []bool {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.shards[0].Unhealthy()
}

// Prune runs the global pruning stage on shard 0's pruner (every shard holds
// an identical one). The read lock fences its unhealthy-reader set against a
// concurrent health refresh.
func (e *Sharded) Prune(ctx context.Context, infos []query.ObjectInfo, q Query, now model.Time) ([]model.ObjectID, error) {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.shards[0].Prune(ctx, infos, q, now)
}

// Localize delegates to the owning shard; per-object summaries only touch
// that object's state.
func (e *Sharded) Localize(obj model.ObjectID) (Localization, bool) {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	i := shardmap.Of(obj, e.n)
	if e.shardState[i].Load() != shardLive {
		return Localization{}, false
	}
	e.shardMu[i].Lock()
	defer e.shardMu[i].Unlock()
	return e.shards[i].Localize(obj)
}

// ---------------------------------------------------------------------------
// Stats and observability.

// Stats merges per-shard counters with the router's ingest accounting.
// Every term is either an order-insensitive integer sum or router-owned, so
// the result matches the single engine's exactly.
func (e *Sharded) Stats() Stats {
	e.ingestMu.Lock()
	st := Stats{}
	st.Ingest = e.reorder.Drops()
	st.Ingest.Merge(e.extraDrops)
	st.ReadingsPending = e.reorder.PendingReadings()
	e.ingestMu.Unlock()
	for i, sh := range e.shards {
		e.shardMu[i].Lock()
		st.FiltersRun += sh.stats.FiltersRun
		st.FiltersResumed += sh.stats.FiltersResumed
		st.ReadingsIngested += sh.stats.ReadingsIngested
		st.Ingest.Merge(sh.col.Drops())
		e.shardMu[i].Unlock()
	}
	st.RangeQueries, st.KNNQueries = e.tel.queriesCounted()
	st.ReadingsDropped = st.Ingest.Readings()
	return st
}

// CacheStats sums the shards' cache hit and miss counts.
func (e *Sharded) CacheStats() (hits, misses int) {
	for i, sh := range e.shards {
		e.shardMu[i].Lock()
		h, m := sh.cache.Stats()
		e.shardMu[i].Unlock()
		hits += h
		misses += m
	}
	return hits, misses
}

// KnownObjects merges the shards' sorted, disjoint object lists.
func (e *Sharded) KnownObjects() []model.ObjectID {
	per := make([][]model.ObjectID, e.n)
	for i, sh := range e.shards {
		e.shardMu[i].Lock()
		per[i] = sh.col.KnownObjects()
		e.shardMu[i].Unlock()
	}
	return kMerge(per, func(a, b model.ObjectID) bool { return a < b })
}

// ReaderHealth mirrors System.ReaderHealth from the router's monitor.
func (e *Sharded) ReaderHealth() []health.ReaderHealth {
	if e.monitor == nil {
		return nil
	}
	now := e.Now()
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.monitor.Snapshot(now)
}

// HealthMonitorEnabled reports whether the router runs a health monitor.
func (e *Sharded) HealthMonitorEnabled() bool { return e.monitor != nil }

// SetParticleBudget applies the degraded-mode particle cap to every shard.
func (e *Sharded) SetParticleBudget(n int) {
	e.healthMu.Lock()
	for _, sh := range e.shards {
		sh.filter.SetParticleBudget(n)
	}
	budget := e.shards[0].filter.ParticleBudget()
	e.healthMu.Unlock()
	e.tel.particleBudget.Set(float64(budget))
}

// ParticleBudget returns the effective per-object particle count.
func (e *Sharded) ParticleBudget() int {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.shards[0].filter.ParticleBudget()
}

// NoteOversizedBody accounts one oversized ingest delivery, like
// System.NoteOversizedBody.
func (e *Sharded) NoteOversizedBody() {
	e.ingestMu.Lock()
	e.extraDrops.OversizedBatches++
	e.ingestMu.Unlock()
}

// SyncMetrics refreshes the scrape-time gauges from the merged state,
// mirroring System.SyncMetrics.
func (e *Sharded) SyncMetrics() {
	e.metricsMu.Lock()
	defer e.metricsMu.Unlock()
	st := e.Stats()
	t := e.tel
	t.ingested.Set(uint64(st.ReadingsIngested))
	for kind, c := range t.dropped {
		c.Set(uint64(st.Ingest.Of(kind)))
	}
	t.rejectedBatches.Set(uint64(st.Ingest.LateBatches))
	t.oversizedBatches.Set(uint64(st.Ingest.OversizedBatches))
	t.gapSeconds.Set(uint64(st.Ingest.GapSeconds))
	t.pendingReadings.Set(float64(st.ReadingsPending))
	now := e.Now()
	t.streamNow.Set(float64(now))
	objects, entries := 0, 0
	for i, sh := range e.shards {
		e.shardMu[i].Lock()
		objects += sh.col.NumObjects()
		entries += sh.cache.Len()
		e.shardMu[i].Unlock()
	}
	t.objectsKnown.Set(float64(objects))
	t.cacheEntries.Set(float64(entries))
	e.ingestMu.Lock()
	t.pendingSeconds.Set(float64(e.reorder.PendingSeconds()))
	t.watermarkLag.Set(float64(e.reorder.Lag()))
	if e.wals != nil {
		t.walLastSeq.Set(float64(e.walSeq))
		segs := 0
		for _, l := range e.wals {
			if l != nil { // quarantined shards have no open log
				segs += l.Segments()
			}
		}
		t.walSegments.Set(float64(segs))
	}
	var snap []health.ReaderHealth
	if e.monitor != nil {
		snap = e.monitor.Snapshot(now)
	}
	e.ingestMu.Unlock()
	if snap != nil {
		if t.readerLabels == nil {
			t.readerLabels = make([]string, e.shards[0].dep.NumReaders())
			for i := range t.readerLabels {
				t.readerLabels[i] = strconv.Itoa(i)
			}
		}
		for _, rh := range snap {
			label := t.readerLabels[rh.Reader]
			t.readerState.With(label).Set(float64(rh.State))
			t.readerSilence.With(label).Set(float64(rh.SilenceSeconds))
		}
	}
}

// ---------------------------------------------------------------------------
// Deterministic gather merges.

// kMerge merges k individually ordered streams into one ordered slice.
// Streams hold disjoint keys (objects live in exactly one shard), so ties
// across streams cannot occur and the merge is a total order; equal keys
// within one stream keep their stream order. With at most one non-empty
// stream the merge is free.
func kMerge[T any](per [][]T, lessFn func(a, b T) bool) []T {
	nonEmpty, total := -1, 0
	for i, p := range per {
		if len(p) > 0 {
			if nonEmpty >= 0 {
				nonEmpty = -2
			} else if nonEmpty == -1 {
				nonEmpty = i
			}
			total += len(p)
		}
	}
	if nonEmpty == -1 {
		return nil
	}
	if nonEmpty >= 0 {
		return per[nonEmpty]
	}
	out := make([]T, 0, total)
	heads := make([]int, len(per))
	for len(out) < total {
		best := -1
		for i, p := range per {
			if heads[i] >= len(p) {
				continue
			}
			if best < 0 || lessFn(p[heads[i]], per[best][heads[best]]) {
				best = i
			}
		}
		out = append(out, per[best][heads[best]])
		heads[best]++
	}
	return out
}

func infoLess(a, b query.ObjectInfo) bool { return a.Object < b.Object }

func objDistLess(a, b anchor.ObjDist) bool { return a.Object < b.Object }
