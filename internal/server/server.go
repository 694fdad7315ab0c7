// Package server exposes the indoor spatial query system over HTTP with a
// small JSON API, so reader gateways can stream raw readings in and
// applications can query object locations out. Standard library only.
//
// Endpoints:
//
//	POST /ingest        {"time": 123, "readings": [{"Object":1,"Reader":2,"Time":123}, ...]}
//	GET  /range?x=&y=&w=&h=[&at=]   probabilistic range query
//	GET  /knn?x=&y=&k=[&at=]        probabilistic kNN query
//	GET  /localize?object=          localization summary for one object
//	GET  /occupancy[?at=]           expected objects per room
//	GET  /objects                   known object IDs
//	GET  /stats                     cumulative work counters
//	GET  /plan                      the floor plan as JSON
//	GET  /snapshot.svg              rendered floor plan + distributions
//	GET  /metrics                   Prometheus text-format telemetry
//	GET  /debug/filtertrace         recent particle-filter runs: work counts and timings
//	GET  /debug/slowqueries         recent queries over the slow threshold
//	GET  /debug/traces              tail-sampled request traces (?format=chrome)
//	GET  /debug/pprof/              net/http/pprof (opt-in via HandlerConfig)
//
// Every Engine synchronizes itself, so handlers call it directly and
// ingestion and queries overlap; the server holds no lock around engine
// calls. A handler encodes its answer to the client after the engine call
// returns, so one slow reader cannot head-of-line block the ingestion path.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/rfid"
	"repro/internal/viz"
)

// Engine is the query-evaluation surface the server drives: implemented by
// the router *engine.Sharded (what cmd/server runs), the one-shard
// *engine.System, and a *cluster.Node wrapping either. Implementations must
// be safe for concurrent use.
type Engine = engine.Serving

// clusterNode is the optional surface of an Engine that is a cluster node
// (*cluster.Node): the server mounts its peer RPC endpoint and status
// document, folds its peer health into /readyz, and hands it the request
// tracer so forwarded traces stitch.
type clusterNode interface {
	RPCHandler() http.Handler
	ClusterStatus() cluster.Status
	DegradedPeers() []string
	SetTracer(t *trace.Tracer)
}

// Server wraps an Engine with an HTTP API.
type Server struct {
	sys  Engine
	plan *floorplan.Plan
	dep  *rfid.Deployment

	// adm is the query admission controller (nil: admission disabled);
	// maxIngestBytes caps POST /ingest bodies.
	adm            *admission
	maxIngestBytes int64

	// ready gates /readyz: set once recovery is complete and the server is
	// accepting traffic, cleared when shutdown begins so load balancers
	// drain before the listener closes.
	ready atomic.Bool

	// tracer tail-samples request traces into the /debug/traces ring; nil
	// when tracing is disabled (Config.Trace.Sample < 0).
	tracer *trace.Tracer

	// clu is non-nil when the engine is a cluster node; see clusterNode.
	clu clusterNode

	// Per-endpoint telemetry, registered into the system's registry so one
	// /metrics scrape covers every layer. Encode errors and panics are
	// labeled by route pattern: the statusWriter pins the path before the
	// ResponseWriter is handed off, so even streamed handlers attribute.
	httpRequests *obs.CounterVec
	httpLatency  *obs.HistogramVec
	encodeErrors *obs.CounterVec
	httpPanics   *obs.CounterVec
}

// Config selects the server's resilience posture.
type Config struct {
	// Admission bounds concurrent queries; a request it cannot admit is
	// shed with 429. The zero value disables admission control.
	Admission AdmissionConfig
	// MaxIngestBytes caps the POST /ingest request body; oversized bodies
	// get 413 and are counted in the ingest drop accounting. 0 selects
	// DefaultMaxIngestBytes; negative disables the cap.
	MaxIngestBytes int64
	// Trace configures request tracing. The zero value keeps only
	// remarkable traces (slow, deadline-exceeded, shed, errored); a
	// negative Sample disables tracing entirely.
	Trace trace.Config
}

// DefaultMaxIngestBytes bounds one ingest delivery. A reading encodes to a
// few dozen JSON bytes, so 8 MiB comfortably fits ~100k readings per batch —
// far past any one-second gateway delivery — while bounding the bytes a
// single request can make the decoder buffer.
const DefaultMaxIngestBytes = 8 << 20

// New builds a Server around an assembled system with the default
// configuration (no admission control, default ingest body cap). The server
// starts ready: engine.OpenSharded completes recovery before returning, so
// by the time a Server exists the system can take traffic. SetReady(false)
// begins a drain.
func New(sys Engine, plan *floorplan.Plan, dep *rfid.Deployment) *Server {
	return NewWith(sys, plan, dep, Config{})
}

// NewWith builds a Server with an explicit resilience configuration.
func NewWith(sys Engine, plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) *Server {
	r := sys.Telemetry().Registry()
	maxBytes := cfg.MaxIngestBytes
	if maxBytes == 0 {
		maxBytes = DefaultMaxIngestBytes
	}
	s := &Server{
		sys:            sys,
		plan:           plan,
		dep:            dep,
		adm:            newAdmission(cfg.Admission, r),
		maxIngestBytes: maxBytes,
		tracer:         trace.New(cfg.Trace),
		httpRequests: r.CounterVec("repro_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "path", "code"),
		httpLatency: r.HistogramVec("repro_http_request_seconds",
			"HTTP request wall time, by route pattern.", nil, "path"),
		encodeErrors: r.CounterVec("repro_http_encode_errors_total",
			"JSON responses whose encoding failed mid-write (client gone or marshal error), by route pattern.", "path"),
		httpPanics: r.CounterVec("repro_http_panics_total",
			"Handler panics converted to 500 responses by the recovery middleware, by route pattern.", "path"),
	}
	obs.RegisterRuntimeMetrics(r)
	if cn, ok := sys.(clusterNode); ok {
		s.clu = cn
		cn.SetTracer(s.tracer)
	}
	s.ready.Store(true)
	return s
}

// SetReady flips the /readyz answer. Flip it false at the start of a
// graceful shutdown so load balancers stop routing before the listener
// closes.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Close drains the server for shutdown: /readyz goes unready, then the
// engine's durability layer flushes, snapshots, and closes. Safe to call
// once in-flight requests finished (i.e. after http.Server.Shutdown
// returned).
func (s *Server) Close() error {
	s.ready.Store(false)
	return s.sys.Close()
}

// IngestDirect feeds one delivery of readings bypassing HTTP (used by the
// demo simulator). Rejections are logged and land in the same
// Stats().Ingest.LateBatches counter that backs the HTTP 409 path, so
// /stats and /metrics agree no matter the entry point.
func (s *Server) IngestDirect(t model.Time, raws []model.RawReading) error {
	err := s.sys.IngestContext(context.Background(), t, raws)
	var ie *ingest.Error
	if errors.As(err, &ie) && ie.Rejected {
		log.Printf("ingest: direct delivery rejected: %v", ie)
	}
	return err
}

// HandlerConfig selects the optional debug surface of the HTTP handler.
type HandlerConfig struct {
	// EnablePProf mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose internals and cost CPU, so production deployments must
	// opt in (the -pprof flag of cmd/server).
	EnablePProf bool
}

// Handler returns the HTTP handler with all routes registered and the debug
// surface at its defaults (pprof off).
func (s *Server) Handler() http.Handler { return s.HandlerWith(HandlerConfig{}) }

// HandlerWith returns the HTTP handler with all routes registered, honoring
// the given debug configuration. Every route is wrapped in the telemetry
// middleware, so /metrics reports per-endpoint request counts and latency.
func (s *Server) HandlerWith(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, path string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(path, h))
	}
	// Query routes go through the admission controller (a no-op when
	// admission is disabled); ingest, health, and debug routes never shed.
	route("POST /ingest", "/ingest", s.traced("ingest", s.handleIngest))
	route("GET /range", "/range", s.traced("range", s.admit(s.handleRange)))
	route("GET /knn", "/knn", s.traced("knn", s.admit(s.handleKNN)))
	route("GET /localize", "/localize", s.admit(s.handleLocalize))
	route("GET /occupancy", "/occupancy", s.traced("occupancy", s.admit(s.handleOccupancy)))
	route("GET /objects", "/objects", s.handleObjects)
	route("GET /stats", "/stats", s.handleStats)
	route("GET /plan", "/plan", s.handlePlan)
	route("GET /route", "/route", s.handleRoute)
	route("GET /readers", "/readers", s.handleReaders)
	route("GET /snapshot.svg", "/snapshot.svg", s.admit(s.handleSnapshot))
	route("GET /metrics", "/metrics", s.handleMetrics)
	route("GET /healthz", "/healthz", s.handleHealthz)
	route("GET /readyz", "/readyz", s.handleReadyz)
	if s.clu != nil {
		// Peer RPCs skip the JSON instrumentation path (binary frames, peer-only
		// traffic) but still get their own telemetry via repro_peer_*.
		mux.Handle("POST /cluster/rpc", s.clu.RPCHandler())
		route("GET /cluster", "/cluster", s.handleCluster)
	}
	route("GET /debug/filtertrace", "/debug/filtertrace", s.handleFilterTrace)
	route("GET /debug/slowqueries", "/debug/slowqueries", s.handleSlowQueries)
	route("GET /debug/traces", "/debug/traces", s.handleTraces)
	route("GET /{$}", "/", s.handleUI)
	if cfg.EnablePProf {
		// pprof handlers do their own method checks and serve GET only.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter records the status code a handler sent (200 when it never
// called WriteHeader explicitly). It also pins the route pattern and the
// request trace so downstream code holding only the ResponseWriter — the
// writeJSON encode path, the trace middleware — can attribute without
// re-deriving either from the request.
type statusWriter struct {
	http.ResponseWriter
	code int
	path string
	tc   *trace.Context
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the request counter, latency histogram,
// and panic recovery. The path label is the route pattern, never the raw
// URL, so cardinality stays bounded. A panicking handler becomes a 500 with
// a JSON error body (when nothing was written yet) instead of tearing down
// the connection; http.ErrAbortHandler keeps its contract and re-panics.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.httpLatency.With(path)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r = r.WithContext(context.WithValue(r.Context(), arrivalKey{}, start))
		sw := &statusWriter{ResponseWriter: w, path: path}
		defer func() {
			rec := recover()
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			if rec != nil {
				s.httpPanics.With(path).Inc()
				log.Printf("server: panic in %s %s: %v\n%s", r.Method, path, rec, debug.Stack())
				if sw.code == 0 {
					sw.Header().Set("Content-Type", "application/json")
					sw.WriteHeader(http.StatusInternalServerError)
					json.NewEncoder(sw).Encode(map[string]string{"error": "internal server error"})
				}
			}
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			lat.ObserveSince(start)
			s.httpRequests.With(path, strconv.Itoa(code)).Inc()
		}()
		h(sw, r)
	}
}

// traced opens a request trace around a handler and carries it via the
// request context and the statusWriter. The deferred Finish applies the
// tail-sampling decision; it runs before instrument's panic recovery, so a
// panicking handler leaves sw.code at 0 — treated as an error alongside
// 5xx responses. With tracing disabled the handler is returned unwrapped.
func (s *Server) traced(kind string, h http.HandlerFunc) http.HandlerFunc {
	if s.tracer == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		tc := s.tracer.Start(kind)
		sw, _ := w.(*statusWriter)
		if sw != nil {
			sw.tc = tc
		}
		defer func() {
			if sw != nil && (sw.code == 0 || sw.code >= 500) {
				tc.SetError()
			}
			s.tracer.Finish(tc)
		}()
		h(w, r.WithContext(trace.With(r.Context(), tc)))
	}
}

// admit gates a query handler behind the admission controller: shed
// requests get 429 with a Retry-After estimated from the current backlog
// and recent query latency. With admission disabled this is a transparent
// wrapper.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tc := trace.From(r.Context())
		if s.adm == nil {
			// Zero-duration span: the trace still shows the request cleared
			// admission, just with nothing to wait on.
			tc.Add("admission", trace.RouterShard, time.Now(), 0)
			h(w, r)
			return
		}
		astart := time.Now()
		release, ok := s.adm.acquire()
		tc.Since("admission", trace.RouterShard, astart)
		if !ok {
			tc.SetShed()
			retry := s.adm.retryAfterHeader()
			w.Header().Set("Retry-After", retry)
			httpError(w, http.StatusTooManyRequests, "overloaded: query shed, retry in %ss", retry)
			return
		}
		defer release()
		h(w, r)
	}
}

// handleReaders serves the per-reader liveness snapshot the health monitor
// maintains: state, silence, smoothed detection rate, and accrued missed
// evidence per reader.
func (s *Server) handleReaders(w http.ResponseWriter, r *http.Request) {
	readers := s.sys.ReaderHealth()
	now := s.sys.Now()
	enabled := readers != nil
	if !enabled {
		readers = []health.ReaderHealth{}
	}
	s.writeJSON(w, map[string]any{
		"enabled": enabled,
		"now":     now,
		"readers": readers,
	})
}

// handleCluster serves the cluster membership, ownership, and per-peer
// forwarding status (mounted only when the engine is a cluster node).
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.clu.ClusterStatus())
}

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: recovery is complete, no drain is in progress,
// and the durability layer (when enabled) has not fail-stopped. Quarantined
// shards degrade the answer but do not fail it — the node still serves
// correct (partial-marked) results from its live shards, so 200 with
// "status": "degraded" and the shard list; 503 means "route traffic
// elsewhere" (draining, WAL fail-stopped, or every shard quarantined), and
// the body says why.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	walErr := s.sys.WALError()
	rec := s.sys.Recovery()
	degraded := s.sys.DegradedShards()
	if walErr != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "wal failed", "error": walErr.Error()})
		return
	}
	resp := map[string]any{
		"status":     "ok",
		"durability": rec.Enabled,
		"recovery":   rec,
	}
	if len(degraded) > 0 {
		resp["status"] = "degraded"
		resp["quarantinedShards"] = len(degraded)
		resp["degradedShards"] = degraded
	}
	// A node that cannot reach part of its cluster still serves correct
	// partial answers, so unreachable peers degrade readiness (200) the same
	// way quarantined shards do — they never fail it.
	if s.clu != nil {
		if peers := s.clu.DegradedPeers(); len(peers) > 0 {
			resp["status"] = "degraded"
			resp["degradedPeers"] = peers
		}
	}
	s.writeJSON(w, resp)
}

// uiPage is a minimal live dashboard: the SVG snapshot refreshing every two
// seconds next to the occupancy table.
const uiPage = `<!DOCTYPE html>
<html><head><title>indoor query system</title>
<style>
body { font-family: sans-serif; margin: 1.5em; color: #222; }
#wrap { display: flex; gap: 2em; align-items: flex-start; }
img { border: 1px solid #ccc; max-width: 70vw; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ddd; padding: 2px 8px; font-size: 13px; text-align: left; }
</style></head>
<body>
<h2>Indoor spatial query system</h2>
<div id="wrap">
  <img id="snap" src="/snapshot.svg" alt="floor snapshot">
  <div>
    <h3>Occupancy</h3>
    <table id="occ"><tr><th>room</th><th>expected</th></tr></table>
    <p id="stats"></p>
  </div>
</div>
<script>
async function tick() {
  document.getElementById('snap').src = '/snapshot.svg?ts=' + Date.now();
  const occ = (await (await fetch('/occupancy')).json()).occupancy;
  const rows = occ.slice(0, 15).map(function(e) {
    return '<tr><td>' + e.room + '</td><td>' + e.p.toFixed(2) + '</td></tr>';
  }).join('');
  document.getElementById('occ').innerHTML = '<tr><th>room</th><th>expected</th></tr>' + rows;
  const st = await (await fetch('/stats')).json();
  document.getElementById('stats').textContent =
    't=' + st.now + ', readings=' + st.work.ReadingsIngested +
    ', dropped=' + st.work.ReadingsDropped + ', rejected=' + st.ingestRejected;
}
tick();
setInterval(tick, 2000);
</script>
</body></html>
`

func (s *Server) handleUI(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, uiPage)
}

// ingestRequest is the body of POST /ingest: one gateway delivery.
type ingestRequest = model.Batch

// ingestBuf is what one POST /ingest decodes into: the request body and the
// readings scanned out of it. Both are recycled across requests, which is
// sound because nothing below Engine.IngestContext keeps the slice it is
// handed (the reorder buffer copies what it parks for a later second).
type ingestBuf struct {
	body     []byte
	readings []model.RawReading
}

// ingestBufs recycles ingestBufs. One that grew past maxPooledBody bytes or
// maxPooledReadings readings is dropped instead of pooled, so a single giant
// delivery does not pin its buffers for the life of the process.
var ingestBufs = sync.Pool{New: func() any { return new(ingestBuf) }}

const (
	maxPooledBody     = 2 << 20
	maxPooledReadings = 64 << 10
)

// release returns the buffers to the pool.
func (b *ingestBuf) release() {
	if cap(b.body) <= maxPooledBody && cap(b.readings) <= maxPooledReadings {
		ingestBufs.Put(b)
	}
}

// readBody reads the whole of r into dst's memory. sizeHint is the declared
// Content-Length (or less): a body of that size is read into one allocation
// of that size, with one byte to spare so the read that reports EOF has room.
// A declared length is believed, before the bytes arrive, for no more than
// maxPooledBody; a longer body grows the buffer as it comes.
func readBody(dst []byte, r io.Reader, sizeHint int64) ([]byte, error) {
	dst = dst[:0]
	if want := min(sizeHint, maxPooledBody) + 1; int64(cap(dst)) < want {
		dst = make([]byte, 0, want)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ingestAck is the body of a 200 from POST /ingest. The fields are in the
// alphabetical order the map this used to be encoded in.
type ingestAck struct {
	Accepted int        `json:"accepted"`
	Dropped  int        `json:"dropped"`
	Now      model.Time `json:"now"`
	Reason   string     `json:"reason,omitempty"`
	Received int        `json:"received"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	tc := trace.From(r.Context())
	body := io.Reader(r.Body)
	if s.maxIngestBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	}
	buf := ingestBufs.Get().(*ingestBuf)
	defer buf.release()
	dstart := time.Now()
	var err error
	buf.body, err = readBody(buf.body, body, r.ContentLength)
	req := ingestRequest{Readings: buf.readings[:0]}
	if err == nil {
		err = req.UnmarshalJSON(buf.body)
	}
	if cap(req.Readings) > cap(buf.readings) {
		buf.readings = req.Readings // grown by the scanner: pool the larger one
	}
	tc.Since("decode", trace.RouterShard, dstart)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			// Refused undecoded: the loss is counted at batch granularity so
			// the drop accounting stays complete (Stats().Ingest).
			s.sys.NoteOversizedBody()
			httpError(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d-byte ingest cap; split the delivery", s.maxIngestBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	// Batch seconds are positive by contract (the stream clock starts at
	// second 1); anything else is garbage input, not a late delivery.
	if req.Time <= 0 {
		httpError(w, http.StatusBadRequest, "bad time %d: batch seconds are positive", req.Time)
		return
	}
	// Stamp readings with the batch time when omitted.
	for i := range req.Readings {
		if req.Readings[i].Time == 0 {
			req.Readings[i].Time = req.Time
		}
	}
	err = s.sys.IngestContext(r.Context(), req.Time, req.Readings)
	now := s.sys.Now()
	var ie *ingest.Error
	if errors.As(err, &ie) && ie.Rejected {
		httpError(w, http.StatusConflict, "%v", ie)
		return
	}
	if err != nil && ie == nil {
		// Not a typed drop: the engine refused the whole delivery (a WAL
		// fail-stop). Nothing was made durable, so it must never be acked.
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	ack := ingestAck{Accepted: len(req.Readings), Now: now, Received: len(req.Readings)}
	if ie != nil {
		ack.Accepted -= ie.Dropped
		ack.Dropped = ie.Dropped
		ack.Reason = ie.Kind.String()
	}
	s.writeJSON(w, ack)
}

// objProb is one entry of a probabilistic answer, sorted by probability.
type objProb struct {
	Object model.ObjectID `json:"object"`
	P      float64        `json:"p"`
}

func toSorted(rs model.ResultSet) []objProb {
	out := make([]objProb, 0, len(rs))
	for o, p := range rs {
		out = append(out, objProb{Object: o, P: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		return out[i].Object < out[j].Object
	})
	return out
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	x, errX := queryFloat(r, "x")
	y, errY := queryFloat(r, "y")
	ww, errW := queryFloat(r, "w")
	h, errH := queryFloat(r, "h")
	if errX != nil || errY != nil || errW != nil || errH != nil {
		httpError(w, http.StatusBadRequest, "range needs float params x, y, w, h")
		return
	}
	ans, qerr, ok := s.query(w, r, engine.RangeQuery(geom.RectWH(x, y, ww, h)))
	if !ok {
		return
	}
	resp := map[string]any{"window": [4]float64{x, y, ww, h}, "result": toSorted(ans.Result)}
	addPartial(resp, qerr)
	s.writeJSON(w, resp)
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	x, errX := queryFloat(r, "x")
	y, errY := queryFloat(r, "y")
	k, errK := strconv.Atoi(r.URL.Query().Get("k"))
	if errX != nil || errY != nil || errK != nil || k <= 0 {
		httpError(w, http.StatusBadRequest, "knn needs float params x, y and positive integer k")
		return
	}
	ans, qerr, ok := s.query(w, r, engine.KNNQuery(geom.Pt(x, y), k))
	if !ok {
		return
	}
	resp := map[string]any{"q": [2]float64{x, y}, "k": k, "result": toSorted(ans.Result)}
	addPartial(resp, qerr)
	s.writeJSON(w, resp)
}

// query runs q for a query handler: the optional at= makes it historical,
// the optional deadline_ms= bounds it, and whatever the request carries — the
// trace, the client going away — rides on its context. ok is false when the
// response has already been written: a bad parameter, or an owner-side shed.
// A non-nil partial beside ok is the typed marker addPartial reports.
func (s *Server) query(w http.ResponseWriter, r *http.Request, q engine.Query) (ans engine.Answer, partial error, ok bool) {
	at, atOK, err := queryTime(r, "at")
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad at: %v", err)
		return ans, nil, false
	}
	if atOK {
		// A second this engine has not ingested yet has no fixed answer:
		// the readings that decide it are still to come.
		if now := s.sys.Now(); at > now {
			httpError(w, http.StatusBadRequest, "bad at: second %d is after the stream clock (now %d)", at, now)
			return ans, nil, false
		}
		q = q.AsOf(at)
	}
	deadline, err := queryDeadline(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad deadline_ms: %v", err)
		return ans, nil, false
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	ans, partial = s.sys.Query(ctx, q)
	return ans, partial, !relayShed(w, partial)
}

// arrivalKey carries the request's arrival timestamp (stamped by
// instrument, before admission queueing) through the context.
type arrivalKey struct{}

// queryDeadline parses the optional deadline_ms parameter (0: no deadline).
// The budget is measured from the request's ARRIVAL, not from the moment the
// handler finally runs: time spent queued behind the admission gate is
// subtracted, so a forwarded cluster query can never
// spend more wall time than the client asked for end to end. A budget fully
// consumed by queueing is clamped to 1ms — the query starts, expires at its
// first deadline check, and returns a partial, the usual overrun contract.
func queryDeadline(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("deadline_ms")
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if ms <= 0 {
		return 0, fmt.Errorf("deadline_ms must be positive, got %d", ms)
	}
	if ms > math.MaxInt64/int(time.Millisecond) {
		return 0, fmt.Errorf("deadline_ms %d exceeds the longest duration, %d ms", ms, math.MaxInt64/int(time.Millisecond))
	}
	d := time.Duration(ms) * time.Millisecond
	if arrival, ok := r.Context().Value(arrivalKey{}).(time.Time); ok {
		d -= time.Since(arrival)
		if d < time.Millisecond {
			d = time.Millisecond
		}
	}
	return d, nil
}

// addPartial marks a response produced by a query that could not cover the
// complete answer: a deadline overrun (the result is a usable prefix) or
// quarantined shards (the result is complete over the live shards only).
// The request still succeeds (200) — a partial under deadline pressure or
// degraded durability is the contract, not an error. Both causes can apply
// at once (engines join them with errors.Join); each contributes its field.
func addPartial(resp map[string]any, qerr error) {
	if qerr == nil {
		return
	}
	resp["partial"] = true
	if de, ok := engine.IsDeadline(qerr); ok {
		resp["deadline_stage"] = de.Stage
	}
	if qe, ok := engine.IsQuarantine(qerr); ok {
		resp["degradedShards"] = qe.Shards
	}
	if ce, ok := cluster.IsDegraded(qerr); ok {
		resp["degradedPeers"] = ce.Peers
	}
}

// relayShed handles an owner-side shed of a forwarded cluster query: the
// 429 carries the owner's own Retry-After estimate, relayed verbatim — the
// forwarder's EWMA describes the forwarder's load, not the peer that shed.
// Reports whether the response was written.
func relayShed(w http.ResponseWriter, qerr error) bool {
	se, ok := cluster.IsShed(qerr)
	if !ok {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfterSeconds))
	httpError(w, http.StatusTooManyRequests,
		"overloaded: peer %s shed the forwarded query, retry in %ds", se.Peer, se.RetryAfterSeconds)
	return true
}

// handleRoute returns the shortest indoor walking route between two points
// as a polyline: GET /route?x1=&y1=&x2=&y2=.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	x1, e1 := queryFloat(r, "x1")
	y1, e2 := queryFloat(r, "y1")
	x2, e3 := queryFloat(r, "x2")
	y2, e4 := queryFloat(r, "y2")
	if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
		httpError(w, http.StatusBadRequest, "route needs float params x1, y1, x2, y2")
		return
	}
	g := s.sys.Graph()
	pts, dist := g.Route(g.NearestLocation(geom.Pt(x1, y1)), g.NearestLocation(geom.Pt(x2, y2)))
	poly := make([][2]float64, len(pts))
	for i, p := range pts {
		poly[i] = [2]float64{p.X, p.Y}
	}
	s.writeJSON(w, map[string]any{"meters": dist, "polyline": poly})
}

func (s *Server) handleLocalize(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("object"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "localize needs integer param object")
		return
	}
	loc, ok := s.sys.Localize(model.ObjectID(id))
	if !ok {
		httpError(w, http.StatusNotFound, "object %d has no readings", id)
		return
	}
	roomName := ""
	if loc.Room != floorplan.NoRoom {
		roomName = s.plan.Room(loc.Room).Name
	}
	s.writeJSON(w, map[string]any{
		"object":   loc.Object,
		"mean":     [2]float64{loc.Mean.X, loc.Mean.Y},
		"room":     roomName,
		"roomProb": loc.RoomProb,
		"entropy":  loc.Entropy,
	})
}

func (s *Server) handleOccupancy(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Room string  `json:"room"`
		P    float64 `json:"p"`
	}
	ans, qerr, ok := s.query(w, r, engine.OccupancyQuery())
	if !ok {
		return
	}
	// Non-nil so an empty answer encodes as [] rather than null.
	out := []entry{}
	for _, ro := range ans.Rooms {
		name := "(hallways)"
		if ro.Room != floorplan.NoRoom {
			name = s.plan.Room(ro.Room).Name
		}
		out = append(out, entry{Room: name, P: ro.P})
	}
	resp := map[string]any{"occupancy": out}
	addPartial(resp, qerr)
	s.writeJSON(w, resp)
}

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	objs := s.sys.KnownObjects()
	if objs == nil {
		objs = []model.ObjectID{}
	}
	s.writeJSON(w, objs)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.sys.CacheStats()
	st := s.sys.Stats()
	now := s.sys.Now()
	s.writeJSON(w, map[string]any{
		"now":         now,
		"work":        st,
		"cacheHits":   hits,
		"cacheMisses": misses,
		// Whole deliveries refused as late, whichever entry point they used
		// (HTTP 409 or IngestDirect). Served from the engine's own drop
		// accounting so it can never disagree with /metrics.
		"ingestRejected": st.Ingest.LateBatches,
	})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.plan)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	c := viz.NewCanvas(s.plan, 10)
	c.DrawPlan(s.plan)
	c.DrawDeployment(s.dep)
	tab := s.sys.Preprocess(s.sys.KnownObjects())
	colors := []string{"#d62728", "#ff7f0e", "#9467bd", "#17becf", "#bcbd22", "#e377c2"}
	for i, od := range tab.Dists() {
		c.DrawDistribution(s.sys.AnchorIndex(), od.Dist, colors[i%len(colors)])
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, c.SVG())
}

// handleMetrics serves the Prometheus scrape: the scrape-time mirrors are
// refreshed, then the registry renders into a buffer (atomics need no lock),
// so a stalled scraper never blocks ingestion.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.sys.SyncMetrics()
	var buf bytes.Buffer
	if _, err := s.sys.Telemetry().Registry().WriteTo(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, "render metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.Write(buf.Bytes())
}

// handleFilterTrace serves the bounded ring of recent particle-filter runs
// with their work counts and timings.
func (s *Server) handleFilterTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.sys.Telemetry().Trace
	traces := tr.Snapshot()
	if traces == nil {
		traces = []obs.FilterTrace{}
	}
	s.writeJSON(w, map[string]any{
		"capacity": tr.Cap(),
		"total":    tr.Total(),
		"traces":   traces,
	})
}

// handleSlowQueries serves the bounded ring of queries that crossed the
// configured slow-query threshold.
func (s *Server) handleSlowQueries(w http.ResponseWriter, r *http.Request) {
	sl := s.sys.Telemetry().Slow
	queries := sl.Snapshot()
	if queries == nil {
		queries = []engine.SlowQuery{}
	}
	s.writeJSON(w, map[string]any{
		"capacity": sl.Cap(),
		"total":    sl.Total(),
		"queries":  queries,
	})
}

// handleTraces serves the tail-sampled request-trace ring as JSON, or as
// Chrome trace-event format (load into chrome://tracing or Perfetto) with
// ?format=chrome. 404 when tracing is disabled.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		httpError(w, http.StatusNotFound, "tracing disabled (trace sample rate is negative)")
		return
	}
	traces := s.tracer.Snapshot()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteChrome(w, traces); err != nil {
			s.encodeErrors.With("/debug/traces").Inc()
			log.Printf("server: encode chrome trace: %v", err)
		}
		return
	}
	s.writeJSON(w, map[string]any{
		"capacity": s.tracer.Capacity(),
		"total":    s.tracer.Total(),
		"sample":   s.tracer.SampleRate(),
		"traces":   traces,
	})
}

// queryFloat parses a float parameter and refuses NaN and ±Inf, which
// ParseFloat accepts but which name no place in the building.
func queryFloat(r *http.Request, name string) (float64, error) {
	v, err := strconv.ParseFloat(r.URL.Query().Get(name), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("%s is not finite", name)
	}
	return v, err
}

// queryTime parses an optional time parameter; ok=false when absent.
func queryTime(r *http.Request, name string) (model.Time, bool, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, false, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	return model.Time(n), err == nil, err
}

// writeJSON encodes v to the client with the Content-Type committed before
// the first body byte. Encode failures (client gone mid-write, or a value
// that cannot marshal) are counted and logged rather than swallowed. The
// route pattern and request trace ride on the statusWriter, so streamed
// encodes still attribute to their path after the handler returned the
// ResponseWriter.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	path := "unknown"
	var tc *trace.Context
	if sw, ok := w.(*statusWriter); ok {
		path, tc = sw.path, sw.tc
	}
	w.Header().Set("Content-Type", "application/json")
	estart := time.Now()
	err := json.NewEncoder(w).Encode(v)
	tc.Since("encode", trace.RouterShard, estart)
	if err != nil {
		tc.SetError()
		s.encodeErrors.With(path).Inc()
		log.Printf("server: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
