package engine

import (
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/particle"
)

// Telemetry is the engine's observability surface: one obs.Registry holding
// every metric of the system plus the bounded debug rings. The hot-path
// metrics (snap time, particle steps, cache events) are recorded inline by
// the preprocessing workers and the instrumented cache; everything derived
// from engine state (ingest lag, pending depth, cumulative drop accounting)
// is a scrape-time mirror refreshed by SyncMetrics, so the authoritative
// counters in Stats and the exported ones can never drift apart.
type Telemetry struct {
	reg *obs.Registry

	// Trace retains the last runs of the particle filter with their work
	// counts and timings (served at /debug/filtertrace).
	Trace *obs.Ring[obs.FilterTrace]
	// Slow retains the queries that crossed Config.SlowQueryThreshold
	// (served at /debug/slowqueries).
	Slow *obs.Ring[SlowQuery]

	// Inline-recorded metrics.
	stageSnap                              *obs.Histogram
	particleSteps                          *obs.Counter
	runsFull, runsResumed                  *obs.Counter
	query                                  [3]*obs.Histogram // by QueryKind
	queries                                [2]atomic.Int64   // by QueryKind: Stats' RangeQueries, KNNQueries
	slowThreshold                          time.Duration
	slowQueries                            *obs.Counter
	cacheHits, cacheMisses, cacheEvictions *obs.Counter

	// Resilience metrics. deadlineExceeded and healthTransitions are
	// inline-recorded; particleBudget is set by SetParticleBudget; the
	// per-reader state/silence gauges are scrape-time mirrors.
	deadlineExceeded  *obs.Counter
	healthTransitions *obs.Counter
	particleBudget    *obs.Gauge
	readerState       *obs.GaugeVec
	readerSilence     *obs.GaugeVec
	readerLabels      []string

	// Scrape-time mirrors, refreshed by SyncMetrics.
	ingested         *obs.Counter
	dropped          map[ingest.Kind]*obs.Counter
	rejectedBatches  *obs.Counter
	oversizedBatches *obs.Counter
	gapSeconds       *obs.Counter
	pendingSeconds   *obs.Gauge
	pendingReadings  *obs.Gauge
	watermarkLag     *obs.Gauge
	streamNow        *obs.Gauge
	objectsKnown     *obs.Gauge
	cacheEntries     *obs.Gauge

	// Durability metrics. Records/syncs/snapshots are inline-recorded; the
	// recovery counters are set once by Open; lastSeq/segments are mirrors.
	walRecords          *obs.Counter
	walSyncs            *obs.Counter
	walErrors           *obs.Counter
	walSnapshots        *obs.Counter
	walSnapshotErrors   *obs.Counter
	walReplayed         *obs.Counter
	walTruncatedBytes   *obs.Counter
	walSnapshotsSkipped *obs.Counter
	walRetries          *obs.Counter
	shardQuarantines    *obs.Counter
	shardHeals          *obs.Counter
	walLastSeq          *obs.Gauge
	walSegments         *obs.Gauge

	// Per-shard families (shard-labeled). Children are resolved once per
	// shard through shardMetrics and cached, so the hot paths record through
	// plain handles.
	shardStep        *obs.HistogramVec
	shardEvaluate    *obs.HistogramVec
	shardWALAppend   *obs.HistogramVec
	shardWALFsync    *obs.HistogramVec
	shardQueueDepth  *obs.GaugeVec
	shardQuarantined *obs.GaugeVec
	reorderLag       *obs.Histogram

	shardMu sync.Mutex
	shardM  []*shardMetrics
}

// shardMetrics are one shard's resolved per-shard metric handles.
type shardMetrics struct {
	step        *obs.Histogram
	evaluate    *obs.Histogram
	walAppend   *obs.Histogram
	walFsync    *obs.Histogram
	queueDepth  *obs.Gauge
	quarantined *obs.Gauge
}

// shardMetrics returns (creating on first use) the cached handles for shard
// i. The router resolves every shard's handles at construction.
func (t *Telemetry) shardMetrics(i int) *shardMetrics {
	t.shardMu.Lock()
	defer t.shardMu.Unlock()
	for len(t.shardM) <= i {
		label := strconv.Itoa(len(t.shardM))
		t.shardM = append(t.shardM, &shardMetrics{
			step:        t.shardStep.With(label),
			evaluate:    t.shardEvaluate.With(label),
			walAppend:   t.shardWALAppend.With(label),
			walFsync:    t.shardWALFsync.With(label),
			queueDepth:  t.shardQueueDepth.With(label),
			quarantined: t.shardQuarantined.With(label),
		})
	}
	return t.shardM[i]
}

// SlowQuery is one slow-query log record.
type SlowQuery struct {
	// Kind is "range", "knn" or "occupancy"; Detail renders the query
	// parameters (and the as-of second of a historical query).
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	// SimTime is the stream second the query ran against.
	SimTime int64 `json:"simTime"`
	// Candidates is the candidate-set size after pruning.
	Candidates int `json:"candidates"`
	// Micros is the query's wall time in microseconds.
	Micros int64 `json:"micros"`
	// TraceID links the entry to its request trace at /debug/traces (empty
	// when the query ran untraced).
	TraceID string `json:"traceId,omitempty"`
	// ShardMicros is the per-shard evaluate wall time in microseconds,
	// indexed by shard, taken from the trace's scatter spans. Present only
	// for traced queries.
	ShardMicros []int64 `json:"shardMicros,omitempty"`
}

// newTelemetry builds the registry and registers the full metric inventory
// (DESIGN.md §10 documents naming and semantics).
func newTelemetry(cfg Config) *Telemetry {
	r := obs.NewRegistry()
	stage := r.HistogramVec("repro_filter_stage_seconds",
		"Wall time of one particle-filter stage: the anchor snap of a state that moved (memo hits are not observed).", nil, "stage")
	runs := r.CounterVec("repro_filter_runs_total",
		"Particle-filter executions by mode: full runs vs cache-resumed advances.", "mode")
	queries := r.HistogramVec("repro_query_seconds",
		"End-to-end query latency (gather + pruning + preprocessing + evaluation), historical queries included.", nil, "kind")
	cacheEvents := r.CounterVec("repro_cache_events_total",
		"Particle-state cache events.", "event")
	droppedVec := r.CounterVec("repro_ingest_readings_dropped_total",
		"Raw readings discarded on the ingestion path, by taxonomy kind.", "kind")
	dropped := make(map[ingest.Kind]*obs.Counter, len(ingest.ReadingKinds))
	for _, k := range ingest.ReadingKinds {
		dropped[k] = droppedVec.With(k.String())
	}
	t := &Telemetry{
		reg:       r,
		Trace:     obs.NewRing[obs.FilterTrace](0),
		Slow:      obs.NewRing[SlowQuery](0),
		stageSnap: stage.With("snap"),
		particleSteps: r.Counter("repro_filter_particle_steps_total",
			"Particle × second motion steps executed by the filter."),
		runsFull:    runs.With("full"),
		runsResumed: runs.With("resumed"),
		query: [3]*obs.Histogram{
			queries.With(KindRange.String()), queries.With(KindKNN.String()), queries.With(KindOccupancy.String()),
		},
		slowThreshold: cfg.SlowQueryThreshold,
		slowQueries: r.Counter("repro_slow_queries_total",
			"Queries slower than the configured slow-query threshold."),
		cacheHits:      cacheEvents.With("hit"),
		cacheMisses:    cacheEvents.With("miss"),
		cacheEvictions: cacheEvents.With("eviction"),
		ingested: r.Counter("repro_ingest_readings_ingested_total",
			"Raw readings accepted by the collector."),
		dropped: dropped,
		rejectedBatches: r.Counter("repro_ingest_batches_rejected_total",
			"Whole deliveries refused as late (the HTTP 409 path)."),
		oversizedBatches: r.Counter("repro_ingest_batches_oversized_total",
			"Whole deliveries refused undecoded for exceeding the body cap (the HTTP 413 path)."),
		deadlineExceeded: r.Counter("repro_query_deadline_exceeded_total",
			"Queries that ran out of their per-request deadline and returned a partial result."),
		healthTransitions: r.Counter("repro_reader_health_transitions_total",
			"Unhealthy-set refreshes pushed from the reader-health monitor into the sensing model."),
		particleBudget: r.Gauge("repro_particle_budget",
			"Effective per-object particle count for new filter states (reduced in degraded mode)."),
		readerState: r.GaugeVec("repro_reader_state",
			"Reader liveness state: 0 live, 1 suspect, 2 dead.", "reader"),
		readerSilence: r.GaugeVec("repro_reader_silence_seconds",
			"Stream seconds since the reader last produced any reading (-1: never read).", "reader"),
		gapSeconds: r.Counter("repro_ingest_gap_seconds_total",
			"Stream seconds the watermark passed with no delivery at all."),
		pendingSeconds: r.Gauge("repro_ingest_pending_seconds",
			"Seconds buffered in the reorder buffer, not yet flushed."),
		pendingReadings: r.Gauge("repro_ingest_pending_readings",
			"Raw readings buffered in the reorder buffer."),
		watermarkLag: r.Gauge("repro_ingest_watermark_lag_seconds",
			"Newest delivered batch second minus the newest closed second."),
		streamNow: r.Gauge("repro_stream_now_seconds",
			"The most recently ingested stream second (simulation clock)."),
		objectsKnown: r.Gauge("repro_objects_known",
			"Objects with retained collector state."),
		cacheEntries: r.Gauge("repro_cache_entries",
			"Particle states currently held by the cache."),
		walRecords: r.Counter("repro_wal_records_appended_total",
			"Acked seconds appended to the write-ahead log."),
		walSyncs: r.Counter("repro_wal_syncs_total",
			"fsync calls issued on the write-ahead log."),
		walErrors: r.Counter("repro_wal_errors_total",
			"WAL append/sync failures (the sticky fail-stop path)."),
		walSnapshots: r.Counter("repro_wal_snapshots_written_total",
			"Engine snapshots committed to the data directory."),
		walSnapshotErrors: r.Counter("repro_wal_snapshot_errors_total",
			"Snapshot encode/write failures (non-fatal; the WAL still covers the state)."),
		walRetries: r.Counter("repro_wal_retries_total",
			"WAL append/fsync attempts retried after a transient error."),
		shardQuarantines: r.Counter("repro_shard_quarantines_total",
			"Shards fail-stopped and quarantined after an unrecoverable WAL error."),
		shardHeals: r.Counter("repro_shard_heals_total",
			"Quarantined shards recovered and resumed by the self-heal loop."),
		walReplayed: r.Counter("repro_wal_records_replayed_total",
			"WAL records applied during the last recovery."),
		walTruncatedBytes: r.Counter("repro_wal_truncated_bytes_total",
			"Bytes cut from a torn or corrupt WAL tail during the last recovery."),
		walSnapshotsSkipped: r.Counter("repro_wal_snapshots_skipped_total",
			"Corrupt snapshots passed over during the last recovery."),
		walLastSeq: r.Gauge("repro_wal_last_seq",
			"Last WAL sequence number appended or recovered."),
		walSegments: r.Gauge("repro_wal_segments",
			"Live WAL segment files."),
		shardStep: r.HistogramVec("repro_shard_step_seconds",
			"Wall time one shard spent applying a flushed ingest second.", nil, "shard"),
		shardEvaluate: r.HistogramVec("repro_shard_evaluate_seconds",
			"Wall time one shard spent preprocessing its partition of a query's candidates.", nil, "shard"),
		shardWALAppend: r.HistogramVec("repro_shard_wal_append_seconds",
			"Wall time of one WAL record append, per shard log.", nil, "shard"),
		shardWALFsync: r.HistogramVec("repro_shard_wal_fsync_seconds",
			"Wall time of one WAL fsync, per shard log (stalls show as tail mass).", nil, "shard"),
		shardQueueDepth: r.GaugeVec("repro_shard_queue_depth",
			"Raw readings routed to the shard in the most recently flushed second.", "shard"),
		shardQuarantined: r.GaugeVec("repro_shard_quarantined",
			"1 while the shard is quarantined (or healing) after a WAL fail-stop, else 0.", "shard"),
		reorderLag: r.Histogram("repro_ingest_reorder_lag_seconds",
			"Stream seconds the flushed second trailed the newest delivered one (router-owned reorder buffer, so no shard label).",
			[]float64{0, 1, 2, 3, 5, 8, 13, 21}),
	}
	t.particleBudget.Set(float64(cfg.Particle.Ns))
	return t
}

// Registry returns the registry for exposition and for other layers (the
// HTTP server) to register their own metrics into.
func (t *Telemetry) Registry() *obs.Registry { return t.reg }

// metricsView is the engine state the scrape-time mirrors are refreshed
// from, filled by the router's SyncMetrics.
type metricsView struct {
	stats            Stats
	pendingSeconds   int
	watermarkLag     model.Time
	now              model.Time
	objects, entries int
	// health is the reader-health snapshot, nil without a monitor.
	health []health.ReaderHealth
	// walSeq and walSegments are the WAL position and open segment files
	// (zero without write-ahead logs).
	walSeq      uint64
	walSegments int
}

// mirror refreshes the scrape-time mirrors (ingest accounting, lag, pending
// depth, population and cache sizes, reader health, WAL position) from v, so
// the exported counters and the authoritative engine state never drift
// apart. Callers serialize it (SyncMetrics).
func (t *Telemetry) mirror(v metricsView) {
	st := v.stats
	t.ingested.Set(uint64(st.ReadingsIngested))
	for kind, c := range t.dropped {
		c.Set(uint64(st.Ingest.Of(kind)))
	}
	t.rejectedBatches.Set(uint64(st.Ingest.LateBatches))
	t.oversizedBatches.Set(uint64(st.Ingest.OversizedBatches))
	t.gapSeconds.Set(uint64(st.Ingest.GapSeconds))
	t.pendingSeconds.Set(float64(v.pendingSeconds))
	t.pendingReadings.Set(float64(st.ReadingsPending))
	t.watermarkLag.Set(float64(v.watermarkLag))
	t.streamNow.Set(float64(v.now))
	t.objectsKnown.Set(float64(v.objects))
	t.cacheEntries.Set(float64(v.entries))
	t.walLastSeq.Set(float64(v.walSeq))
	t.walSegments.Set(float64(v.walSegments))
	if len(t.readerLabels) < len(v.health) {
		t.readerLabels = make([]string, len(v.health))
		for i := range t.readerLabels {
			t.readerLabels[i] = strconv.Itoa(i)
		}
	}
	for _, rh := range v.health {
		label := t.readerLabels[rh.Reader]
		t.readerState.With(label).Set(float64(rh.State))
		t.readerSilence.With(label).Set(float64(rh.SilenceSeconds))
	}
}

// recordRun accounts one filter call from its RunStats and the caller's
// timings: the particle × second steps it executed, and a filter-trace ring
// entry (snap is zero when the state's memo answered).
func (t *Telemetry) recordRun(shard int, st *particle.State, advance, snap time.Duration, resumed bool) {
	rs := st.LastRun
	t.particleSteps.Add(uint64(rs.Steps) * uint64(st.Len()))
	t.Trace.Add(obs.FilterTrace{
		Object:        int64(st.Object),
		Shard:         shard,
		SimFrom:       int64(rs.From),
		SimTo:         int64(rs.To),
		Steps:         rs.Steps,
		Detections:    rs.Detections,
		Resamples:     rs.Resamples,
		Particles:     st.Len(),
		ESS:           rs.ESS,
		Resumed:       resumed,
		AdvanceMicros: advance.Microseconds(),
		SnapMicros:    snap.Microseconds(),
	})
}

// observeQuery records one query the pipeline ran: latency into the
// per-kind histogram, the snapshot range/kNN work counters of Stats, and,
// past the slow threshold, a slow-query log entry. tr is the request trace
// (nil for untraced queries); a slow entry links back to it by ID and carries
// the per-shard evaluate timings from its scatter spans.
func (t *Telemetry) observeQuery(q Query, simTime model.Time, candidates int, start time.Time, tr *trace.Context) {
	elapsed := time.Since(start)
	t.query[q.Kind].Observe(elapsed.Seconds())
	if !q.Historical {
		t.countQuery(q.Kind)
	}
	if t.slowThreshold > 0 && elapsed >= t.slowThreshold {
		t.slowQueries.Inc()
		t.shardMu.Lock()
		shards := len(t.shardM)
		t.shardMu.Unlock()
		t.Slow.Add(SlowQuery{
			Kind:        q.Kind.String(),
			Detail:      q.String(),
			SimTime:     int64(simTime),
			Candidates:  candidates,
			Micros:      elapsed.Microseconds(),
			TraceID:     tr.IDString(),
			ShardMicros: tr.DurationsOf("evaluate", shards),
		})
		log.Printf("engine: slow %s query (%s, %d candidates): %v", q.Kind, q, candidates, elapsed)
	}
}

// countQuery counts one evaluated snapshot range or kNN query — the
// RangeQueries/KNNQueries of Stats. They live here, beside the histograms,
// because whoever coordinates a query (router, cluster node) reaches the
// telemetry but not the shards' own counters.
func (t *Telemetry) countQuery(k QueryKind) {
	if k != KindOccupancy {
		t.queries[k].Add(1)
	}
}

// queriesCounted returns the counts countQuery keeps.
func (t *Telemetry) queriesCounted() (ranges, knns int) {
	return int(t.queries[KindRange].Load()), int(t.queries[KindKNN].Load())
}
