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

// Serving is the surface a front end drives: the HTTP server over any
// engine shape, and a cluster node over its own engine. The router
// (*Sharded; a *System is one) and a cluster node implement it, and both
// synchronize themselves. Each coordinates the queries it answers, so it is
// a Coordinator too. ReaderHealth is nil when health monitoring is disabled
// and a non-nil slice when it is enabled.
type Serving interface {
	Querier
	Coordinator
	IngestContext(ctx context.Context, t model.Time, raws []model.RawReading) error
	KnownObjects() []model.ObjectID
	Localize(obj model.ObjectID) (Localization, bool)
	DegradedShards() []int
	Preprocess(candidates []model.ObjectID) *anchor.Table
	Stats() Stats
	CacheStats() (hits, misses int)
	Graph() *walkgraph.Graph
	SyncMetrics()
	NoteOversizedBody()
	ReaderHealth() []health.ReaderHealth
	WALError() error
	Recovery() RecoveryInfo
	Close() error
}

// Sharded partitions object state across N stores over one shared world by
// consistent hash of the object ID (internal/shardmap) and routes every
// operation through a thin deterministic layer. It is also the only
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
// the one-shard engine's at any shard count (DESIGN.md §14).
//
// Sharded synchronizes internally (a System is a one-shard Sharded, so it
// does too): ingest, queries, and stats reads may run concurrently. The lock
// hierarchy is ingestMu > healthMu > shardMu[i]; locks are only ever
// acquired left to right, and the per-shard locks are never nested with
// each other.
type Sharded struct {
	// QueryMethods are the classic spellings of Query.
	QueryMethods
	// world is built once and shared by every shard: graph, anchor index,
	// filter, pruner, evaluator, telemetry, worker scratch.
	*world

	n      int
	shards []*store

	// shardMu[i] guards shards[i]: its collector, cache and stats counters.
	// The router never holds two shard locks nested.
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
// (0 and 1 both mean one shard); the world is built once from the rest of
// the configuration and shared by every shard, and the router owns
// ingestion (Config.Ingest), health monitoring (Config.Health), and
// durability (Config.Durability) — use OpenSharded for the latter.
func NewSharded(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) (*Sharded, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	if n > MaxShards {
		return nil, fmt.Errorf("engine: %d shards exceeds the maximum of %d", n, MaxShards)
	}
	w, err := newWorld(plan, dep, cfg)
	if err != nil {
		return nil, err
	}
	// Split the preprocessing worker budget across shards: a scatter runs
	// all shards' phase-2 pools at once, and n*Workers goroutines would
	// oversubscribe the cores without buying determinism (the output is
	// identical at any worker count).
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(workers/n, 1)

	e := &Sharded{
		world:      w,
		n:          n,
		shards:     make([]*store, n),
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
		e.shards[i] = w.newStore(i, workers)
		e.router.Parts[i] = shard{e, i}
	}
	e.reorder = ingest.NewReorder(cfg.Ingest, e.flushSecond)
	if cfg.Health.Enabled {
		if e.monitor, err = health.NewMonitor(cfg.Health, dep.NumReaders()); err != nil {
			return nil, err
		}
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

// Now returns the most recently ingested second.
func (e *Sharded) Now() model.Time {
	e.shardMu[0].Lock()
	defer e.shardMu[0].Unlock()
	return e.shards[0].col.Now()
}

// ---------------------------------------------------------------------------
// Ingestion: one reorder buffer, scatter per second.

// Ingest feeds one delivery through the router's reorder buffer, which
// routes each reading to its own second, deduplicates retransmissions, and
// flushes whole seconds in order once the watermark (Config.Ingest.Horizon)
// closes them (at once, with the zero-value ingest configuration); flushed
// seconds are partitioned by object and applied to every shard. Input that
// is refused or discarded comes back as a typed *ingest.Error, counted in
// Stats; unless its Rejected flag is set, the rest of the delivery was
// accepted. With durability enabled (OpenSharded), every flushed second is
// appended to the live shards' write-ahead logs before it is applied, and
// the logs are fsynced per the configured policy before Ingest returns;
// readings owed to a quarantined shard come back as a KindQuarantined drop,
// and a fail-stop (the last live shard's log failing) is sticky: every later
// Ingest returns the same error rather than silently degrading to
// memory-only.
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
// horizon (call it at end of stream when a non-zero horizon is configured);
// the drained seconds are logged and fsynced like any others.
func (e *Sharded) FlushIngest() {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.reorder.FlushAll()
	e.syncWAL(true)
}

// flushSecond is the reorder buffer's sink (called under ingestMu). The
// second is partitioned once, the parts of shards that are out dropped; with
// durability on, one WAL record per shard is appended before anything is
// applied.
func (e *Sharded) flushSecond(t model.Time, raws []model.RawReading) {
	var lag model.Time
	if ms, ok := e.reorder.MaxSeen(); ok && ms > t {
		lag = ms - t
	}
	e.tel.reorderLag.Observe(float64(lag))
	dropped := e.extraDrops.QuarantinedReadings
	parts := e.partition(raws)
	for i := range parts {
		if e.shardState[i].Load() != shardLive {
			e.dropQuarantined(i, parts)
		}
	}
	if e.wals != nil && e.walErr == nil {
		e.appendWAL(t, parts)
	}
	if e.extraDrops.QuarantinedReadings != dropped {
		// The health monitor sees what was applied, as a replay of the
		// logs does, not the readings just dropped.
		raws = slices.Concat(parts...)
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

// applyParts applies one flushed second to every shard. A quarantined or
// healing shard's part is empty (its readings are typed drops), so its clock
// and LEAVE detection keep time with the stream and Now is the stream clock
// whichever shard is out. It is the recovery replay path too, so it must not
// touch the WAL. raws is the concatenation of parts, in any order, for the
// order-insensitive health monitor.
func (e *Sharded) applyParts(t model.Time, parts [][]model.RawReading, raws []model.RawReading) {
	if e.monitor != nil && e.monitor.ObserveSecond(t, raws) {
		e.refreshHealth(e.monitor.Unhealthy())
	}
	evs := e.evs
	clear(evs)
	tr := e.curTrace // captured before the scatter; nil during recovery replay
	if e.n == 1 {
		evs[0] = e.applyShard(0, t, parts[0], tr)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < e.n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				evs[i] = e.applyShard(i, t, parts[i], tr)
			}(i)
		}
		wg.Wait()
	}
	// An ENTER (the object entering a reader's range) releases the
	// expectation the monitor just opened for it. Release acts on one
	// object alone, so the shards' ENTERs need no merged order.
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

// applyShard collects one second's part into shard i under its lock and
// returns the events its collector drained.
func (e *Sharded) applyShard(i int, t model.Time, part []model.RawReading, tr *trace.Context) []model.Event {
	sh := e.shards[i]
	e.shardMu[i].Lock()
	defer e.shardMu[i].Unlock()
	astart := time.Now()
	evs := sh.collectSecond(t, part)
	sh.shardTel.step.Observe(time.Since(astart).Seconds())
	sh.shardTel.queueDepth.Set(float64(len(part)))
	tr.Since("collect", i, astart)
	return evs
}

// ---------------------------------------------------------------------------
// Queries: the router is a Coordinator and a Partition made of its shards.

// Query answers q by running the pipeline over the live shards. A degraded
// engine answers over what they hold and returns the typed QuarantineError
// beside the answer.
func (e *Sharded) Query(ctx context.Context, q Query) (Answer, error) { return Run(ctx, e, e, q) }

// shard is shard i of e as a Partition: the store under its lock, or the
// typed marker when the shard is not live — a quarantined shard's readings
// are being dropped, so answering from it would pass a stale view off as
// current.
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
// order — identical to one shard's because KnownObjects is sorted and
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

// ReaderHealth returns the router monitor's liveness snapshot of every
// reader, indexed by ReaderID, or nil when health monitoring is disabled.
func (e *Sharded) ReaderHealth() []health.ReaderHealth {
	if e.monitor == nil {
		return nil
	}
	now := e.Now()
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.monitor.Snapshot(now)
}

// NoteOversizedBody accounts one ingest delivery the HTTP layer refused for
// exceeding its body cap: the loss never reaches the reorder buffer.
func (e *Sharded) NoteOversizedBody() {
	e.ingestMu.Lock()
	e.extraDrops.OversizedBatches++
	e.ingestMu.Unlock()
}

// SyncMetrics refreshes the scrape-time mirrors from the merged state;
// metricsMu serializes concurrent scrapes.
func (e *Sharded) SyncMetrics() {
	e.metricsMu.Lock()
	defer e.metricsMu.Unlock()
	v := metricsView{stats: e.Stats(), now: e.Now()}
	for i, sh := range e.shards {
		e.shardMu[i].Lock()
		v.objects += sh.col.NumObjects()
		v.entries += sh.cache.Len()
		e.shardMu[i].Unlock()
	}
	e.ingestMu.Lock()
	v.pendingSeconds, v.watermarkLag = e.reorder.PendingSeconds(), e.reorder.Lag()
	v.walSeq = e.walSeq
	for _, l := range e.wals {
		if l != nil { // quarantined shards have no open log
			v.walSegments += l.Segments()
		}
	}
	if e.monitor != nil {
		v.health = e.monitor.Snapshot(v.now)
	}
	e.ingestMu.Unlock()
	e.tel.mirror(v)
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
