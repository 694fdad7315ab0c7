package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/anchor"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/query"
)

// Op selects the peer RPC.
type Op uint8

const (
	// OpPing checks liveness and reads the peer's stream clock.
	OpPing Op = iota
	// OpIngest applies one forwarded ingest sub-batch (idempotent, keyed by
	// the batch fingerprint).
	OpIngest
	// OpGather returns the peer's candidate summaries (the gather stage of
	// the distributed query pipeline).
	OpGather
	// OpEvaluate preprocesses the peer-owned candidates and returns their
	// anchor distributions (the scatter stage).
	OpEvaluate
	// OpLocalize answers a single-object localization on the owner.
	OpLocalize
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpIngest:
		return "ingest"
	case OpGather:
		return "gather"
	case OpEvaluate:
		return "evaluate"
	case OpLocalize:
		return "localize"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Request is one peer RPC, gob-encoded on the wire.
type Request struct {
	Op   Op
	From string
	// TraceID propagates the forwarder's request trace so both halves
	// stitch into one trace at /debug/traces (0: untraced). The HTTP
	// transport additionally carries it in the X-Repro-Trace-Id header.
	TraceID uint64
	// DeadlineMillis is the remaining client budget at send time (0: none).
	// The owner re-applies it locally, so retries can never spend more than
	// the client's ?deadline_ms= end to end.
	DeadlineMillis int64

	// OpIngest.
	Time        model.Time
	Readings    []model.RawReading
	Fingerprint uint64

	// OpGather / OpEvaluate.
	At         model.Time
	Historical bool
	Candidates []model.ObjectID

	// OpLocalize.
	Object model.ObjectID
}

// query is the part of an OpGather/OpEvaluate request the partition reads:
// whether the stage is historical, and as of when.
func (r *Request) query() engine.Query {
	return engine.Query{Historical: r.Historical, At: r.At}
}

// Response is the reply to one peer RPC.
type Response struct {
	Now model.Time

	// OpIngest: the owner's own ingest accounting for the sub-batch.
	Accepted int
	Dropped  int
	DropKind string
	Rejected bool

	// Shed marks an owner that refused the request under load;
	// RetryAfterSeconds is its own backoff estimate, relayed verbatim to
	// the client.
	Shed              bool
	RetryAfterSeconds int

	// OpGather.
	Infos []query.ObjectInfo

	// OpEvaluate: per-object anchor distributions, which the coordinator
	// converts straight to sorted []anchor.ObjDist and merges with its own;
	// DeadlineStage marks a deadline-partial answer; DegradedShards reports
	// the owner's quarantined in-process shards.
	Dists          map[model.ObjectID]map[anchor.ID]float64
	DeadlineStage  string
	DegradedShards []int

	// OpLocalize.
	Loc   engine.Localization
	Found bool
}

// send delivers one request to a peer with bounded retries: exponential
// backoff with per-peer jitter, each attempt capped by ForwardTimeout and
// by the caller's remaining deadline. Transport errors are retried;
// application responses (including sheds) return immediately.
func (n *Node) send(ctx context.Context, p *peer, req *Request) (*Response, error) {
	req.From = n.cfg.Self
	if tc := trace.From(ctx); tc != nil {
		req.TraceID = tc.ID()
	}
	rc := n.cfg.Retry
	var last error
	for attempt := 0; ; attempt++ {
		budget := n.cfg.forwardTimeout()
		if dl, ok := ctx.Deadline(); ok {
			remaining := time.Until(dl)
			if remaining <= 0 {
				if last == nil {
					last = context.DeadlineExceeded
				}
				return nil, last
			}
			if remaining < budget {
				budget = remaining
			}
		}
		req.DeadlineMillis = budget.Milliseconds()
		actx, cancel := context.WithTimeout(ctx, budget)
		start := time.Now()
		resp, err := n.cfg.Transport.Send(actx, p.addr, req)
		p.mFwd.Observe(time.Since(start).Seconds())
		cancel()
		trace.From(ctx).Add("forward", trace.RouterShard, start, time.Since(start),
			trace.Attr{Key: "peer", Value: p.addr}, trace.Attr{Key: "op", Value: req.Op.String()})
		if err == nil {
			return resp, nil
		}
		p.mErr.Inc()
		last = err
		if attempt >= rc.Attempts() || ctx.Err() != nil {
			return nil, last
		}
		p.mu.Lock()
		p.retries++
		p.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, last
		case <-time.After(rc.Delay(attempt, p.salt)):
		}
	}
}

// HandleRPC serves one peer request against the local engine. It is the
// single entry point for every transport: the HTTP handler decodes into it,
// and the in-memory test transport calls it directly.
func (n *Node) HandleRPC(ctx context.Context, req *Request) (*Response, error) {
	if tc := n.tracer.StartWith(req.TraceID, "rpc-"+req.Op.String()); tc != nil {
		defer n.tracer.Finish(tc)
		ctx = trace.With(ctx, tc)
	}
	if req.DeadlineMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		defer cancel()
	}
	switch req.Op {
	case OpPing:
		return &Response{Now: n.Now()}, nil
	case OpIngest:
		return n.handleIngestRPC(ctx, req)
	case OpGather:
		n.lock()
		infos, _ := n.eng.Infos(ctx, req.query())
		now := n.eng.Now()
		n.unlock()
		return &Response{Now: now, Infos: infos}, nil
	case OpEvaluate:
		return n.handleEvaluateRPC(ctx, req)
	case OpLocalize:
		n.lock()
		loc, ok := n.eng.Localize(req.Object)
		n.unlock()
		return &Response{Loc: loc, Found: ok}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown op %d", req.Op)
	}
}

// handleIngestRPC applies one forwarded sub-batch idempotently: a (second,
// fingerprint) pair already applied returns its cached ack, so a forwarder
// retrying after a lost reply never double-counts and never sees a spurious
// late-batch refusal.
func (n *Node) handleIngestRPC(ctx context.Context, req *Request) (*Response, error) {
	key := idemKey{t: req.Time, fp: req.Fingerprint}
	n.idemMu.Lock()
	if cached, ok := n.idem[key]; ok {
		n.idemMu.Unlock()
		return cached, nil
	}
	n.idemMu.Unlock()

	n.lock()
	err := n.eng.IngestContext(ctx, req.Time, req.Readings)
	now := n.eng.Now()
	n.unlock()
	resp := &Response{Now: now, Accepted: len(req.Readings)}
	var ie *ingest.Error
	if errors.As(err, &ie) {
		resp.Accepted = len(req.Readings) - ie.Dropped
		resp.Dropped = ie.Dropped
		resp.DropKind = ie.Kind.String()
		resp.Rejected = ie.Rejected
		if ie.Rejected {
			resp.Accepted = 0
			resp.Dropped = len(req.Readings)
		}
	} else if err != nil {
		return nil, err
	}

	n.idemMu.Lock()
	if len(n.idemFIFO) >= maxIdem {
		delete(n.idem, n.idemFIFO[0])
		n.idemFIFO = n.idemFIFO[1:]
	}
	n.idem[key] = resp
	n.idemFIFO = append(n.idemFIFO, key)
	n.idemMu.Unlock()
	return resp, nil
}

// handleEvaluateRPC preprocesses the owner's candidates under the evaluate
// gate and returns their anchor distributions.
func (n *Node) handleEvaluateRPC(ctx context.Context, req *Request) (*Response, error) {
	if n.gate != nil {
		select {
		case n.gate <- struct{}{}:
			defer func() { <-n.gate }()
		default:
			return &Response{Shed: true, RetryAfterSeconds: n.retryAfterSeconds()}, nil
		}
	}
	tr := trace.From(ctx)
	start := time.Now()
	dists, err := localPart{n}.Dists(ctx, req.Candidates, req.query())
	tr.Add("remote-evaluate", trace.RouterShard, start, time.Since(start),
		trace.Attr{Key: "from", Value: req.From},
		trace.Attr{Key: "candidates", Value: fmt.Sprintf("%d", len(req.Candidates))})
	n.observeEval(time.Since(start))

	// The wire type stays the map of maps the benchmark harness decodes.
	resp := &Response{
		DegradedShards: n.DegradedShards(),
		Dists:          make(map[model.ObjectID]map[anchor.ID]float64, len(dists)),
	}
	for _, od := range dists {
		resp.Dists[od.Object] = od.Dist.Map()
	}
	// The local engine's other marker, its quarantined shards, is already in
	// DegradedShards.
	if de, ok := engine.IsDeadline(err); ok {
		resp.DeadlineStage = de.Stage
	}
	return resp, nil
}

// observeEval feeds the owner-side shed estimator: an exponentially
// smoothed remote-evaluate latency.
func (n *Node) observeEval(d time.Duration) {
	n.ewmaMu.Lock()
	const alpha = 0.2
	if n.evalEWMA == 0 {
		n.evalEWMA = d.Seconds()
	} else {
		n.evalEWMA = (1-alpha)*n.evalEWMA + alpha*d.Seconds()
	}
	n.ewmaMu.Unlock()
}

// retryAfterSeconds estimates how long a shed caller should wait: enough
// for the configured slots to turn over once at the smoothed evaluate
// latency, clamped to [1s, 30s]. This is the owner's own estimate — the
// coordinator relays it to the client verbatim.
func (n *Node) retryAfterSeconds() int {
	n.ewmaMu.Lock()
	ewma := n.evalEWMA
	n.ewmaMu.Unlock()
	slots := n.cfg.EvaluateSlots
	if slots < 1 {
		slots = 1
	}
	secs := int(math.Ceil(ewma * float64(slots)))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}
