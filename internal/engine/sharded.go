package engine

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/query"
	"repro/internal/rfid"
	"repro/internal/rng"
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
//     parallel, then the shards' ENTER/LEAVE events are k-way merged by
//     (Time, Object) — the exact key the collector sorts by — into one
//     router-owned event log.
//   - Queries gather candidate summaries from every shard (merged in object
//     order), prune once, scatter the preprocessing to the owning shards in
//     parallel, merge the disjoint per-shard tables, and evaluate once.
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
// ingestMu > healthMu > histMu > shardMu[i]; locks are only ever acquired
// left to right, and the per-shard locks are never nested with each other.
type Sharded struct {
	cfg    Config
	n      int
	shards []*System
	tel    *Telemetry

	// shardMu[i] guards shards[i]: its collector, cache, filter state and
	// stats counters. The router never holds two shard locks nested except
	// transiently through kMerge-free paths (it does not).
	shardMu []sync.Mutex

	// ingestMu serializes the ingestion pipeline: the reorder buffer, the
	// health monitor, the merged event log, the WAL streams, and the
	// oversized-body drop counter.
	ingestMu   sync.Mutex
	reorder    *ingest.Reorder
	monitor    *health.Monitor
	eventLog   []model.Event
	eventOff   int
	extraDrops ingest.Drops

	// curTrace is the trace of the in-flight IngestContext call, read by the
	// reorder sink and the WAL/apply paths it triggers. Guarded by ingestMu.
	curTrace *trace.Context

	// healthMu fences the unhealthy-reader set and the particle budget:
	// queries hold it for read so a concurrent flush cannot swap the
	// sensing model mid-scatter.
	healthMu sync.RWMutex

	// histMu guards the router-owned historical-query state: the shared
	// random source and the recycled scratch, consumed serially exactly like
	// the single engine's PreprocessAt.
	histMu sync.Mutex
	src    *rng.Source
	hist   *workerScratch

	// metricsMu serializes SyncMetrics (concurrent /metrics scrapes).
	metricsMu sync.Mutex

	rangeQ atomic.Int64
	knnQ   atomic.Int64

	// Durability (sharded_durability.go): one WAL stream per shard, all
	// advancing in lockstep — every flushed second appends one record to
	// every shard's log at the same sequence number.
	wals      []*wal.Log
	walSeq    uint64
	walBuf    []byte
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
		src:        rng.New(cfg.Seed),
		hist:       newWorkerScratch(),
		shardState: make([]atomic.Int32, n),
		quar:       make([]*quarInfo, n),
		rejoining:  -1,
	}
	for i := range e.shards {
		sh, err := New(plan, dep, shardCfg)
		if err != nil {
			return nil, err
		}
		e.shards[i] = sh
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
// Ingestion: one reorder buffer, scatter per second, deterministic event merge.

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
// engine.
func (e *Sharded) partition(raws []model.RawReading) [][]model.RawReading {
	parts := make([][]model.RawReading, e.n)
	if e.n == 1 {
		parts[0] = raws
		return parts
	}
	for _, r := range raws {
		i := shardmap.Of(r.Object, e.n)
		parts[i] = append(parts[i], r)
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
	evs := make([][]model.Event, e.n)
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
	// Each shard's drain is sorted by (Time, Object) — the collector pins
	// that order — and an object lives in exactly one shard, so the k-way
	// merge reproduces the single collector's total order.
	merged := kMerge(evs, eventLess)
	if e.monitor != nil {
		for _, ev := range merged {
			if ev.Kind == model.Enter {
				e.monitor.Release(ev.Object)
			}
		}
	}
	e.eventLog = append(e.eventLog, merged...)
	if len(e.eventLog) > maxEventLog {
		drop := len(e.eventLog) - maxEventLog
		e.eventLog = append(e.eventLog[:0:0], e.eventLog[drop:]...)
		e.eventOff += drop
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

// EventsSince mirrors System.EventsSince over the router's merged log.
func (e *Sharded) EventsSince(seq int) (events []model.Event, next int, truncated bool) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	next = e.eventOff + len(e.eventLog)
	if seq < e.eventOff {
		return e.eventLog, next, true
	}
	return e.eventLog[seq-e.eventOff:], next, false
}

// ---------------------------------------------------------------------------
// Queries: gather candidates, prune once, scatter preprocessing, merge, eval.

// gatherInfos merges every live shard's candidate summaries in ascending
// object order — identical to the single engine's objectInfos because
// KnownObjects is sorted and shards hold disjoint objects. Quarantined
// shards are excluded: their state is frozen mid-quarantine and answering
// from it would mix epochs; callers surface the gap via quarantineErr.
// Callers hold healthMu.
func (e *Sharded) gatherInfos() []query.ObjectInfo {
	per := make([][]query.ObjectInfo, e.n)
	for i, sh := range e.shards {
		if e.shardState[i].Load() != shardLive {
			continue
		}
		e.shardMu[i].Lock()
		per[i] = sh.objectInfos()
		e.shardMu[i].Unlock()
	}
	return kMerge(per, infoLess)
}

func (e *Sharded) gatherInfosAt(t model.Time) []query.ObjectInfo {
	per := make([][]query.ObjectInfo, e.n)
	for i, sh := range e.shards {
		if e.shardState[i].Load() != shardLive {
			continue
		}
		e.shardMu[i].Lock()
		per[i] = sh.objectInfosAt(t)
		e.shardMu[i].Unlock()
	}
	return kMerge(per, infoLess)
}

// preprocessDists scatters the candidate set to the owning shards, runs
// their preprocessing pipelines in parallel, and k-way merges their answers
// — each in ascending object order, over disjoint objects — into one. A nil
// ctx skips every deadline check. Callers hold healthMu (read side).
func (e *Sharded) preprocessDists(ctx context.Context, cands []model.ObjectID) ([]anchor.ObjDist, error) {
	tr := trace.From(ctx)
	if e.n == 1 {
		if e.shardState[0].Load() != shardLive {
			return nil, nil
		}
		e.shardMu[0].Lock()
		defer e.shardMu[0].Unlock()
		estart := time.Now()
		dists, err := e.shards[0].preprocessDists(ctx, cands)
		e.shards[0].shardTel.evaluate.Observe(time.Since(estart).Seconds())
		tr.Since("evaluate", 0, estart)
		return dists, err
	}
	parts := make([][]model.ObjectID, e.n)
	for _, obj := range cands {
		i := shardmap.Of(obj, e.n)
		parts[i] = append(parts[i], obj)
	}
	per := make([][]anchor.ObjDist, e.n)
	errs := make([]error, e.n)
	var wg sync.WaitGroup
	for i := range e.shards {
		if len(parts[i]) == 0 || e.shardState[i].Load() != shardLive {
			// A zero-duration span still attributes the shard's (absent) share
			// of the scatter, so a trace always shows all n shards.
			tr.Add("evaluate", i, time.Now(), 0)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.shardMu[i].Lock()
			defer e.shardMu[i].Unlock()
			estart := time.Now()
			per[i], errs[i] = e.shards[i].preprocessDists(ctx, parts[i])
			e.shards[i].shardTel.evaluate.Observe(time.Since(estart).Seconds())
			tr.Since("evaluate", i, estart)
		}(i)
	}
	wg.Wait()
	return kMerge(per, objDistLess), firstDeadline(errs...)
}

// Preprocess is the public scatter-gather preprocessing entry point,
// mirroring System.Preprocess.
func (e *Sharded) Preprocess(cands []model.ObjectID) *anchor.Table {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	dists, _ := e.preprocessDists(nil, cands)
	return anchor.TableOf(dists)
}

// RangeQuery is RangeQueryContext without a deadline; the partial marker of
// a degraded engine is dropped.
func (e *Sharded) RangeQuery(window geom.Rect) model.ResultSet {
	rs, _ := e.RangeQueryContext(context.Background(), window)
	return rs
}

// KNNQuery is KNNQueryContext without a deadline.
func (e *Sharded) KNNQuery(q geom.Point, k int) model.ResultSet {
	rs, _ := e.KNNQueryContext(context.Background(), q, k)
	return rs
}

// RangeQueryContext answers a range query under System.RangeQueryContext's
// partial-result contract: prune once over the merged candidate summaries,
// scatter the preprocessing, evaluate once.
func (e *Sharded) RangeQueryContext(ctx context.Context, window geom.Rect) (model.ResultSet, error) {
	start := time.Now()
	tr := trace.From(ctx)
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	gstart := time.Now()
	infos := e.gatherInfos()
	tr.Since("gather", trace.RouterShard, gstart)
	var cands []model.ObjectID
	var perr error
	pstart := time.Now()
	if e.cfg.UsePruning {
		cands, perr = e.shards[0].pruner.RangeCandidatesContext(ctx, infos, []geom.Rect{window}, e.Now())
	} else {
		cands = infosToIDs(infos)
	}
	tr.Since("prune", trace.RouterShard, pstart)
	dists, terr := e.preprocessDists(ctx, cands)
	e.rangeQ.Add(1)
	mstart := time.Now()
	rs, eerr := e.shards[0].eval.RangeContext(ctx, anchor.TableOf(dists), window)
	tr.Since("merge", trace.RouterShard, mstart)
	e.observeQuery("range", rangeDetail(window.Min.X, window.Min.Y,
		window.Max.X-window.Min.X, window.Max.Y-window.Min.Y), len(cands), start, tr)
	if err := firstDeadline(perr, terr, eerr); err != nil {
		e.tel.deadlineExceeded.Inc()
		tr.SetDeadline()
		return rs, joinPartial(err, e.quarantineErr())
	}
	return rs, e.quarantineErr()
}

// KNNQueryContext mirrors System.KNNQueryContext.
func (e *Sharded) KNNQueryContext(ctx context.Context, q geom.Point, k int) (model.ResultSet, error) {
	start := time.Now()
	tr := trace.From(ctx)
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	gstart := time.Now()
	infos := e.gatherInfos()
	tr.Since("gather", trace.RouterShard, gstart)
	var cands []model.ObjectID
	var perr error
	pstart := time.Now()
	if e.cfg.UsePruning {
		cands, perr = e.shards[0].pruner.KNNCandidatesContext(ctx, infos, q, k, e.Now())
	} else {
		cands = infosToIDs(infos)
	}
	tr.Since("prune", trace.RouterShard, pstart)
	dists, terr := e.preprocessDists(ctx, cands)
	e.knnQ.Add(1)
	mstart := time.Now()
	rs, eerr := e.shards[0].eval.KNNContext(ctx, anchor.TableOf(dists), q, k)
	tr.Since("merge", trace.RouterShard, mstart)
	e.observeQuery("knn", knnDetail(q.X, q.Y, k), len(cands), start, tr)
	if err := firstDeadline(perr, terr, eerr); err != nil {
		e.tel.deadlineExceeded.Inc()
		tr.SetDeadline()
		return rs, joinPartial(err, e.quarantineErr())
	}
	return rs, e.quarantineErr()
}

// RangeQueryAt answers a historical range query. The filter runs consume
// the router's shared random source serially in sorted object order, so the
// draw sequence matches the single engine's PreprocessAt exactly.
func (e *Sharded) RangeQueryAt(window geom.Rect, t model.Time) model.ResultSet {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	infos := e.gatherInfosAt(t)
	cands := infosToIDs(infos)
	if e.cfg.UsePruning {
		cands = e.shards[0].pruner.RangeCandidates(infos, []geom.Rect{window}, t)
	}
	return e.shards[0].eval.Range(anchor.TableOf(e.preprocessAt(cands, t)), window)
}

// KNNQueryAt answers a historical kNN query; see RangeQueryAt.
func (e *Sharded) KNNQueryAt(q geom.Point, k int, t model.Time) model.ResultSet {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	infos := e.gatherInfosAt(t)
	cands := infosToIDs(infos)
	if e.cfg.UsePruning {
		cands = e.shards[0].pruner.KNNCandidates(infos, q, k, t)
	}
	return e.shards[0].eval.KNN(anchor.TableOf(e.preprocessAt(cands, t)), q, k)
}

// preprocessAt is the historical (uncached, serial) pipeline. It must stay
// serial: historical runs draw from one shared source, and the draw order
// is part of the reproducibility contract.
func (e *Sharded) preprocessAt(cands []model.ObjectID, t model.Time) []anchor.ObjDist {
	e.histMu.Lock()
	defer e.histMu.Unlock()
	var out []anchor.ObjDist
	for _, obj := range sortedObjects(cands) {
		i := shardmap.Of(obj, e.n)
		if e.shardState[i].Load() != shardLive {
			continue
		}
		e.shardMu[i].Lock()
		entries := append([]model.AggregatedReading(nil), e.shards[i].col.AggregatedUpTo(obj, t)...)
		e.shardMu[i].Unlock()
		if len(entries) == 0 {
			continue
		}
		st, err := e.shards[0].filter.RunPool(e.hist.pool, e.src, obj, entries, t)
		if err != nil {
			continue
		}
		out = append(out, anchor.ObjDist{Object: obj, Dist: st.AnchorDist(e.shards[0].idx, &e.hist.acc)})
	}
	return out
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

// Occupancy is OccupancyContext without a deadline; the partial marker of a
// degraded engine is dropped.
func (e *Sharded) Occupancy() []RoomOdds {
	odds, _ := e.OccupancyContext(context.Background())
	return odds
}

// OccupancyContext preprocesses every known object via the scatter path and
// accumulates room expectations in the same pinned order as the kernel
// (occupancyOn iterates sorted objects and anchors), under a caller deadline
// and the quarantine partial-result contract: rooms are computed over the
// live shards' objects, and a degraded engine returns the typed
// QuarantineError alongside them.
func (e *Sharded) OccupancyContext(ctx context.Context) ([]RoomOdds, error) {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	dists, terr := e.preprocessDists(ctx, infosToIDs(e.gatherInfos()))
	odds := occupancyOn(e.shards[0].idx, dists)
	if terr != nil {
		e.tel.deadlineExceeded.Inc()
		trace.From(ctx).SetDeadline()
	}
	return odds, joinPartial(terr, e.quarantineErr())
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
	st.RangeQueries = int(e.rangeQ.Load())
	st.KNNQueries = int(e.knnQ.Load())
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

// observeQuery mirrors System.observeQuery against the shared telemetry.
func (e *Sharded) observeQuery(kind, detail string, candidates int, start time.Time, tr *trace.Context) {
	elapsed := time.Since(start)
	t := e.tel
	h := t.queryRange
	if kind == "knn" {
		h = t.queryKNN
	}
	h.Observe(elapsed.Seconds())
	if thr := e.cfg.SlowQueryThreshold; thr > 0 && elapsed >= thr {
		t.slowQueries.Inc()
		t.Slow.Add(SlowQuery{
			Kind:        kind,
			Detail:      detail,
			SimTime:     int64(e.Now()),
			Candidates:  candidates,
			Micros:      elapsed.Microseconds(),
			TraceID:     tr.IDString(),
			ShardMicros: tr.DurationsOf("evaluate", e.n),
		})
		log.Printf("engine: slow %s query (%s, %d candidates): %v", kind, detail, candidates, elapsed)
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

func eventLess(a, b model.Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Object < b.Object
}

func infoLess(a, b query.ObjectInfo) bool { return a.Object < b.Object }

func objDistLess(a, b anchor.ObjDist) bool { return a.Object < b.Object }
