package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/anchor"
	"repro/internal/cluster"
	"repro/internal/collector"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/particle"
	"repro/internal/query"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/shardmap"
	"repro/internal/wal"
)

// The traced run's in-process half: it replays a prefix of the workload's
// own generated inputs through each layer's public functions, with a span
// around every call, because the program itself has no spans to offer yet.
// Calls the request path cannot reach from outside (the reorder buffer, the
// WAL, the collector, the particle kernel) are timed on standalone passes
// over the same inputs.

// probeStreamSeconds is how much of the measured script the in-process
// passes replay after the warm-up.
const probeStreamSeconds = 120

// engineAPI is what the replay calls; *engine.System and *engine.Sharded
// both provide it, and *cluster.Node provides the composite half.
type engineAPI interface {
	compositeAPI
	ObjectInfos() []query.ObjectInfo
	PruneRangeContext(ctx context.Context, infos []query.ObjectInfo, windows []geom.Rect, now model.Time) ([]model.ObjectID, error)
	PruneKNNContext(ctx context.Context, infos []query.ObjectInfo, q geom.Point, k int, now model.Time) ([]model.ObjectID, error)
	PreprocessContext(ctx context.Context, candidates []model.ObjectID) (*anchor.Table, error)
	Evaluator() *query.Evaluator
	AnchorIndex() *anchor.Index
}

// compositeAPI is the surface the server's handlers call.
type compositeAPI interface {
	IngestContext(ctx context.Context, t model.Time, raws []model.RawReading) error
	Now() model.Time
	RangeQueryContext(ctx context.Context, window geom.Rect) (model.ResultSet, error)
	KNNQueryContext(ctx context.Context, q geom.Point, k int) (model.ResultSet, error)
	OccupancyContext(ctx context.Context) ([]engine.RoomOdds, error)
	Close() error
}

type probeInputs struct {
	plan  *floorplan.Plan
	dep   *rfid.Deployment
	warm  []op
	units [][]op
}

func genProbeInputs(w workload, seed int64) probeInputs {
	gen := newGenerator(w, seed)
	in := probeInputs{plan: gen.plan, dep: gen.dep, warm: gen.warmup()}
	for n := 0; n < probeStreamSeconds; {
		u := gen.unit()
		for _, o := range u {
			if o.kind == opIngest {
				n++
			}
		}
		in.units = append(in.units, u)
	}
	return in
}

// batches returns every ingest op of the inputs, warm-up included, in
// stream order.
func (in probeInputs) batches() []op {
	var out []op
	for _, o := range in.warm {
		if o.kind == opIngest {
			out = append(out, o)
		}
	}
	for _, u := range in.units {
		for _, o := range u {
			if o.kind == opIngest {
				out = append(out, o)
			}
		}
	}
	return out
}

// engineConfig mirrors cmd/server's defaults (history kept, reader health
// on) for the given shape.
func engineConfig(seed int64, shards int, dir string) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.KeepHistory = true
	cfg.Seed = seed
	cfg.SlowQueryThreshold = 0
	cfg.Shards = shards
	if dir != "" {
		cfg.Durability = engine.DurabilityConfig{Dir: dir, Fsync: wal.SyncAlways, SnapshotEvery: 60}
	}
	return cfg
}

func openEngine(in probeInputs, cfg engine.Config) (engineAPI, error) {
	if cfg.Shards > 1 {
		return engine.OpenSharded(in.plan, in.dep, cfg)
	}
	return engine.Open(in.plan, in.dep, cfg)
}

// target is the in-process system a replay runs against: one engine, or the
// coordinator's engine plus a peer node behind real loopback HTTP.
type target struct {
	front compositeAPI // what the handlers would call: the engine, or node 0
	local engineAPI    // the coordinator's own engine
	peer  *peerProbe   // nil unless the workload is a cluster
	stop  []func()
}

func (t *target) close() {
	for i := len(t.stop) - 1; i >= 0; i-- {
		t.stop[i]()
	}
}

// peerProbe reaches node 1 of an in-process two-node cluster the way node 0
// does: gob requests through cluster.HTTPTransport.
type peerProbe struct {
	tr      *cluster.HTTPTransport
	self    string // node 0's address, as the requests' From
	addr    string // node 1's address
	selfIdx int    // node 0's index in the sorted membership
}

func (p *peerProbe) send(req *cluster.Request) (*cluster.Response, error) {
	req.From = p.self
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return p.tr.Send(ctx, p.addr, req)
}

// owned splits objects by owner: those node 0 keeps and those it forwards.
func (p *peerProbe) splitObjects(objs []model.ObjectID) (local, remote []model.ObjectID) {
	for _, o := range objs {
		if shardmap.Of(o, 2) == p.selfIdx {
			local = append(local, o)
		} else {
			remote = append(remote, o)
		}
	}
	return local, remote
}

func (p *peerProbe) splitReadings(raws []model.RawReading) (local, remote []model.RawReading) {
	for _, r := range raws {
		if shardmap.Of(r.Object, 2) == p.selfIdx {
			local = append(local, r)
		} else {
			remote = append(remote, r)
		}
	}
	return local, remote
}

// buildTarget assembles the workload's shape in-process. dir is the data
// directory of a durable shape ("" otherwise).
func buildTarget(w workload, seed int64, in probeInputs, dir string) (*target, error) {
	if !w.durable {
		dir = ""
	}
	if w.nodes == 1 {
		eng, err := openEngine(in, engineConfig(seed, w.shards, dir))
		if err != nil {
			return nil, err
		}
		return &target{front: eng, local: eng, stop: []func(){func() { eng.Close() }}}, nil
	}
	t := &target{}
	var lis [2]net.Listener
	var addrs []string
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		lis[i] = l
		addrs = append(addrs, l.Addr().String())
	}
	tr := cluster.NewHTTPTransport()
	t.stop = append(t.stop, tr.Client.CloseIdleConnections)
	var nodes [2]*cluster.Node
	var engs [2]engineAPI
	for i := range lis {
		var subdir string
		if dir != "" {
			subdir = filepath.Join(dir, fmt.Sprintf("node-%d", i))
		}
		eng, err := openEngine(in, engineConfig(seed, w.shards, subdir))
		if err != nil {
			t.close()
			return nil, err
		}
		local, ok := eng.(cluster.Local)
		if !ok {
			t.close()
			return nil, fmt.Errorf("engine %T is not a cluster.Local", eng)
		}
		node, err := cluster.New(local, cluster.Config{Self: addrs[i], Peers: addrs, Transport: tr, Seed: seed, EvaluateSlots: 4})
		if err != nil {
			t.close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("POST /cluster/rpc", node.RPCHandler())
		srv := &http.Server{Handler: mux}
		go srv.Serve(lis[i])
		t.stop = append(t.stop, func() { srv.Close(); node.Close() })
		nodes[i], engs[i] = node, eng
	}
	selfIdx := 0
	for i, m := range nodes[0].Members() {
		if m == addrs[0] {
			selfIdx = i
		}
	}
	t.front, t.local = nodes[0], engs[0]
	t.peer = &peerProbe{tr: tr, self: addrs[0], addr: addrs[1], selfIdx: selfIdx}
	return t, nil
}

// replayOut is what one replay pass observed besides its spans.
type replayOut struct {
	total time.Duration // wall over the measured ops

	nIngest, nRange, nKNN int
	candRange, candKNN    int // candidates after pruning, summed
	knownRange, knownKNN  int // known objects at those queries, summed
	results               int // result-set entries encoded
	resultBytes           int

	allocIngest, allocQuery   uint64 // bytes
	mallocQuery               uint64
	gobBytes, forwardedBatchN int
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// encodeResult is the server's answer encoding: sort by descending
// probability, then JSON.
func encodeResult(w io.Writer, head map[string]any, rs model.ResultSet) int {
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
	head["result"] = out
	json.NewEncoder(w).Encode(head) // writer cannot fail
	return len(out)
}

// replay runs the inputs through the target. With a recorder it takes the
// request path apart, one span per public call; without one it makes the
// composite calls the server's handlers make, and measures allocation.
func replay(t *target, in probeInputs, rec *recorder) (replayOut, error) {
	var out replayOut
	ctx := context.Background()
	request := 0
	var ms0, ms1 runtime.MemStats

	ingestOp := func(o *op, measured bool) error {
		request++
		root := rec.begin("ingest", -1, request, trackRequests)
		var batch model.Batch
		s := rec.begin("decode", root, request, trackRequests)
		err := json.NewDecoder(bytes.NewReader(o.body)).Decode(&batch)
		for i := range batch.Readings {
			if batch.Readings[i].Time == 0 {
				batch.Readings[i].Time = batch.Time
			}
		}
		rec.end(s)
		if err != nil {
			return err
		}
		if rec != nil && t.peer != nil {
			local, remote := t.peer.splitReadings(batch.Readings)
			req := &cluster.Request{Op: cluster.OpIngest, Time: batch.Time, Readings: remote, Fingerprint: ingest.Fingerprint(remote)}
			if measured {
				var buf countingWriter
				gob.NewEncoder(&buf).Encode(req)
				out.gobBytes += buf.n
				out.forwardedBatchN++
			}
			s = rec.begin("forward", root, request, trackRequests)
			_, err = t.peer.send(req)
			rec.end(s)
			if err != nil {
				return err
			}
			s = rec.begin("engine-ingest", root, request, trackRequests)
			err = t.local.IngestContext(ctx, batch.Time, local)
			rec.end(s)
		} else {
			s = rec.begin("engine-ingest", root, request, trackRequests)
			err = t.front.IngestContext(ctx, batch.Time, batch.Readings)
			rec.end(s)
		}
		if err != nil {
			return err
		}
		s = rec.begin("encode-ack", root, request, trackRequests)
		json.NewEncoder(io.Discard).Encode(map[string]any{
			"now": t.front.Now(), "received": len(batch.Readings), "accepted": len(batch.Readings), "dropped": 0,
		})
		rec.end(s)
		rec.end(root)
		return nil
	}

	queryOp := func(o *op, measured bool) error {
		request++
		if rec == nil {
			// Composite call, as the handler makes it.
			var rs model.ResultSet
			var err error
			switch o.kind {
			case opRange:
				rs, err = t.front.RangeQueryContext(ctx, o.window)
			case opKNN:
				rs, err = t.front.KNNQueryContext(ctx, o.point, o.k)
			default:
				var occ []engine.RoomOdds
				occ, err = t.front.OccupancyContext(ctx)
				json.NewEncoder(io.Discard).Encode(occ)
				return err
			}
			if err != nil {
				return err
			}
			encodeResult(io.Discard, map[string]any{}, rs)
			return nil
		}
		if o.kind == opOccupancy {
			root := rec.begin("occupancy", -1, request, trackRequests)
			occ, err := t.front.OccupancyContext(ctx)
			s := rec.begin("encode", root, request, trackRequests)
			json.NewEncoder(io.Discard).Encode(occ)
			rec.end(s)
			rec.end(root)
			return err
		}
		root := rec.begin(o.kind.String(), -1, request, trackRequests)
		now := t.local.Now()
		s := rec.begin("gather", root, request, trackRequests)
		infos := t.local.ObjectInfos()
		rec.end(s)
		if t.peer != nil {
			s = rec.begin("forward-gather", root, request, trackRequests)
			resp, err := t.peer.send(&cluster.Request{Op: cluster.OpGather})
			rec.end(s)
			if err != nil {
				return err
			}
			infos = append(infos, resp.Infos...)
			sort.Slice(infos, func(i, j int) bool { return infos[i].Object < infos[j].Object })
		}
		s = rec.begin("prune", root, request, trackRequests)
		var cands []model.ObjectID
		var err error
		if o.kind == opRange {
			cands, err = t.local.PruneRangeContext(ctx, infos, []geom.Rect{o.window}, now)
		} else {
			cands, err = t.local.PruneKNNContext(ctx, infos, o.point, o.k, now)
		}
		rec.end(s)
		if err != nil {
			return err
		}
		if measured {
			if o.kind == opRange {
				out.candRange += len(cands)
				out.knownRange += len(infos)
			} else {
				out.candKNN += len(cands)
				out.knownKNN += len(infos)
			}
		}
		localCands := cands
		var remote *cluster.Response
		if t.peer != nil {
			var rc []model.ObjectID
			localCands, rc = t.peer.splitObjects(cands)
			if len(rc) > 0 {
				s = rec.begin("forward-evaluate", root, request, trackRequests)
				remote, err = t.peer.send(&cluster.Request{Op: cluster.OpEvaluate, Candidates: rc})
				rec.end(s)
				if err != nil {
					return err
				}
			}
		}
		s = rec.begin("evaluate", root, request, trackRequests)
		tab, err := t.local.PreprocessContext(ctx, localCands)
		rec.end(s)
		if err != nil {
			return err
		}
		if remote != nil {
			s = rec.begin("table-merge", root, request, trackRequests)
			for obj, dist := range remote.Dists {
				tab.SetDistribution(obj, dist)
			}
			rec.end(s)
		}
		s = rec.begin("merge", root, request, trackRequests)
		var rs model.ResultSet
		if o.kind == opRange {
			rs = t.local.Evaluator().Range(tab, o.window)
		} else {
			rs = t.local.Evaluator().KNN(tab, o.point, o.k)
		}
		rec.end(s)
		s = rec.begin("encode", root, request, trackRequests)
		var cw countingWriter
		n := encodeResult(&cw, map[string]any{}, rs)
		rec.end(s)
		rec.end(root)
		if measured {
			out.results += n
			out.resultBytes += cw.n
		}
		return nil
	}

	for i := range in.warm {
		var err error
		if in.warm[i].kind == opIngest {
			err = ingestOp(&in.warm[i], false)
		} else {
			err = queryOp(&in.warm[i], false)
		}
		if err != nil {
			return out, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	if rec != nil {
		rec.spans = rec.spans[:0] // the warm-up is not part of any budget
	}
	for _, u := range in.units {
		for i := range u {
			o := &u[i]
			if rec == nil {
				runtime.ReadMemStats(&ms0)
			}
			start := time.Now()
			var err error
			if o.kind == opIngest {
				err = ingestOp(o, true)
			} else {
				err = queryOp(o, true)
			}
			out.total += time.Since(start)
			if err != nil {
				return out, fmt.Errorf("replay %s t=%d: %w", o.kind, o.t, err)
			}
			if rec == nil {
				runtime.ReadMemStats(&ms1)
			}
			switch o.kind {
			case opIngest:
				out.nIngest++
				out.allocIngest += ms1.TotalAlloc - ms0.TotalAlloc
			case opRange, opKNN:
				if o.kind == opRange {
					out.nRange++
				} else {
					out.nKNN++
				}
				out.allocQuery += ms1.TotalAlloc - ms0.TotalAlloc
				out.mallocQuery += ms1.Mallocs - ms0.Mallocs
			}
		}
	}
	return out, nil
}

// layerTimes are the standalone passes' results, each a list of per-call
// durations in microseconds unless stated.
type layerTimes struct {
	reorderOffer  []float64 // Reorder.Offer per batch
	collect       []float64 // Collector.IngestSecond per batch
	events        int       // ENTER/LEAVE events over the stream
	streamSeconds int

	walAppend     []float64 // encode + Log.Append per record
	walFsync      []float64 // Log.Sync per record
	walBytes      int       // bytes on disk
	walReadings   int
	walReplayMs   float64 // wal.Open with a decoding replay, per record
	snapshotMs    float64 // wal.WriteSnapshot of a real snapshot payload
	snapshotBytes int

	engineIngestMs        []float64 // System.Ingest, in memory
	shardedIngestMs       []float64 // Sharded(4).Ingest, WAL on
	routerIngestMs        []float64 // Sharded(1).Ingest, in memory
	runFull               []float64 // Filter.RunPool per object
	advance               []float64 // Filter.AdvancePool per object, one step, warm
	predict, reweight, rs time.Duration
	snap                  []float64 // State.AnchorDistribution per object
	tableSet              []float64 // Table.SetDistribution per object
	clone2                []float64 // two State.Clone calls (a cache Get and Put)
	objectInfos           []float64 // System.ObjectInfos
}

// timeCall runs f inside a standalone span and returns its duration in µs.
func timeCall(rec *recorder, name string, request int, f func()) float64 {
	s := rec.begin(name, -1, request, trackStandalone)
	start := time.Now()
	f()
	d := time.Since(start)
	rec.end(s)
	return float64(d) / float64(time.Microsecond)
}

// standalone times the calls the request path hides, on the same batches.
func standalone(w workload, seed int64, in probeInputs, dir string, rec *recorder) (*layerTimes, error) {
	lt := &layerTimes{}
	batches := in.batches()
	lt.streamSeconds = len(batches)

	// ingest: the reorder buffer alone, flushing into a counting sink.
	flushed := 0
	ro := ingest.NewReorder(ingest.Config{}, func(model.Time, []model.RawReading) { flushed++ })
	for i, b := range batches {
		raws := append([]model.RawReading(nil), b.readings...)
		lt.reorderOffer = append(lt.reorderOffer, timeCall(rec, "reorder", i, func() { ro.Offer(b.t, raws) }))
	}
	if flushed != len(batches) {
		return nil, fmt.Errorf("reorder pass flushed %d of %d seconds", flushed, len(batches))
	}

	// collector alone.
	col := collector.NewWithHistory()
	for i, b := range batches {
		lt.collect = append(lt.collect, timeCall(rec, "collect", i, func() { col.IngestSecond(b.t, b.readings) }))
		lt.events += len(col.DrainEvents())
	}

	// wal alone: one record per second, fsynced each, as -fsync always does.
	walDir := filepath.Join(dir, "wal-alone")
	log, _, err := wal.Open(walDir, wal.Options{StreamID: 1}, nil)
	if err != nil {
		return nil, err
	}
	var payload []byte
	for i, b := range batches {
		rec1 := wal.Batch{Time: b.t, MaxSeen: b.t, Readings: b.readings}
		var aerr, serr error
		lt.walAppend = append(lt.walAppend, timeCall(rec, "wal-append", i, func() {
			payload = rec1.Encode(payload[:0])
			aerr = log.Append(uint64(i+1), payload)
		}))
		lt.walFsync = append(lt.walFsync, timeCall(rec, "wal-fsync", i, func() { serr = log.Sync() }))
		if aerr != nil || serr != nil {
			log.Close()
			return nil, fmt.Errorf("wal pass: append %v, sync %v", aerr, serr)
		}
		lt.walReadings += len(b.readings)
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	lt.walBytes = dirBytes(walDir, ".wal")
	records := 0
	rs := rec.begin("wal-replay", -1, 0, trackStandalone)
	start := time.Now()
	log, _, err = wal.Open(walDir, wal.Options{StreamID: 1}, func(seq uint64, p []byte) error {
		records++
		_, derr := wal.DecodeBatch(p)
		return derr
	})
	replayTook := time.Since(start)
	rec.end(rs)
	if err != nil {
		return nil, err
	}
	log.Close()
	if records != len(batches) {
		return nil, fmt.Errorf("wal pass replayed %d of %d records", records, len(batches))
	}
	lt.walReplayMs = float64(replayTook) / float64(time.Millisecond) / float64(records)

	// engine: the same stream through the single engine, the 4-shard durable
	// router, and the 1-shard router.
	feed := func(eng compositeAPI, sink *[]float64, name string) error {
		for i, b := range batches {
			raws := append([]model.RawReading(nil), b.readings...)
			var ierr error
			us := timeCall(rec, name, i, func() { ierr = eng.IngestContext(context.Background(), b.t, raws) })
			if ierr != nil {
				return ierr
			}
			if i >= warmupSeconds {
				*sink = append(*sink, us/1000)
			}
		}
		return nil
	}
	sys, err := engine.Open(in.plan, in.dep, engineConfig(seed, 1, ""))
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	// Hold the stream one second short so the particle pass below can time a
	// one-second advance on states that are genuinely one second old.
	last := batches[len(batches)-1]
	batches = batches[:len(batches)-1]
	if err := feed(sys, &lt.engineIngestMs, "engine-ingest-single"); err != nil {
		return nil, err
	}
	shardDir := filepath.Join(dir, "sharded4")
	sh4, err := engine.OpenSharded(in.plan, in.dep, engineConfig(seed, 4, shardDir))
	if err != nil {
		return nil, err
	}
	err = feed(sh4, &lt.shardedIngestMs, "engine-ingest-sharded4")
	sh4.Close()
	if err != nil {
		return nil, err
	}
	sh1, err := engine.NewSharded(in.plan, in.dep, engineConfig(seed, 1, ""))
	if err != nil {
		return nil, err
	}
	err = feed(sh1, &lt.routerIngestMs, "engine-ingest-sharded1")
	sh1.Close()
	if err != nil {
		return nil, err
	}

	// wal: a real snapshot payload, as the durable router wrote it.
	if snap := newestSnapshot(shardDir); snap != "" {
		if data, err := os.ReadFile(snap); err == nil {
			lt.snapshotBytes = len(data)
			var werr error
			us := timeCall(rec, "snapshot-write", 0, func() {
				_, werr = wal.WriteSnapshot(filepath.Join(dir, "snap-alone"), 1, 1, data)
			})
			if werr != nil {
				return nil, werr
			}
			lt.snapshotMs = us / 1000
		}
	}

	// query: the O(N) gather.
	for i := 0; i < 50; i++ {
		lt.objectInfos = append(lt.objectInfos, timeCall(rec, "gather-alone", i, func() { sys.ObjectInfos() }))
	}

	// particle, anchor, cache: a filter of the engine's configuration run on
	// the engine's own collected readings.
	cfg := engineConfig(seed, 1, "")
	filter, err := particle.NewWithCoverage(cfg.Particle, sys.Graph(), in.dep, rfid.BuildCoverage(sys.Graph(), in.dep))
	if err != nil {
		return nil, err
	}
	filter.Instrument(particle.Metrics{}) // stage timing only
	objs := sys.KnownObjects()
	if len(objs) > 200 {
		objs = objs[:200]
	}
	pool := particle.NewPool()
	idx := sys.AnchorIndex()
	now := sys.Now()
	states := make([]*particle.State, 0, len(objs))
	for i, obj := range objs {
		entries := sys.Collector().Aggregated(obj)
		if len(entries) == 0 {
			continue
		}
		src := rng.Derive(seed, int64(obj), int64(entries[len(entries)-1].Time))
		var st *particle.State
		var rerr error
		us := timeCall(rec, "run-full", i, func() { st, rerr = filter.RunPool(pool, src, obj, entries, now) })
		if rerr != nil {
			continue
		}
		lt.runFull = append(lt.runFull, us)
		lt.predict += st.LastRun.Predict
		lt.reweight += st.LastRun.Reweight
		lt.rs += st.LastRun.Resample
		states = append(states, st)
	}
	if err := sys.IngestContext(context.Background(), last.t, last.readings); err != nil {
		return nil, err
	}
	now = sys.Now()
	tab := anchor.NewTable()
	for i, st := range states {
		entries := sys.Collector().Aggregated(st.Object)
		src := rng.Derive(seed, int64(st.Object), int64(entries[len(entries)-1].Time))
		lt.advance = append(lt.advance, timeCall(rec, "advance", i, func() { filter.AdvancePool(pool, src, st, entries, now) }))
		var dist map[anchor.ID]float64
		lt.snap = append(lt.snap, timeCall(rec, "snap", i, func() { dist = st.AnchorDistribution(idx) }))
		lt.tableSet = append(lt.tableSet, timeCall(rec, "table-set", i, func() { tab.SetDistribution(st.Object, dist) }))
		lt.clone2 = append(lt.clone2, timeCall(rec, "cache-clone", i, func() { st.Clone().Clone() }))
	}
	return lt, nil
}

// pingPeer times the bare RPC hop: a minimal request through
// HTTPTransport.Send to an RPCHandler on loopback.
func pingPeer(p *peerProbe, rec *recorder) ([]float64, error) {
	var out []float64
	for i := 0; i < 200; i++ {
		var err error
		us := timeCall(rec, "rpc-ping", i, func() { _, err = p.send(&cluster.Request{Op: cluster.OpPing}) })
		if err != nil {
			return nil, err
		}
		out = append(out, us)
	}
	return out, nil
}

// dirBytes sums the sizes of the files under dir with the given suffix.
func dirBytes(dir, suffix string) int {
	total := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, suffix) {
			if info, ierr := d.Info(); ierr == nil {
				total += int(info.Size())
			}
		}
		return nil
	})
	return total
}

// newestSnapshot returns the lexically last snapshot file under dir (their
// names carry the zero-padded sequence number), or "".
func newestSnapshot(dir string) string {
	best := ""
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".snap") && filepath.Base(path) > filepath.Base(best) {
			best = path
		}
		return nil
	})
	return best
}
