package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
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
	// OpGather returns the peer's candidate summaries: the first round of a
	// kNN query, whose prune needs every object's bound.
	OpGather
	// OpEvaluate is OpDists with explicit candidates under its older name,
	// which the frozen benchmark harness sends; the program itself does not.
	OpEvaluate
	// OpLocalize answers a single-object localization on the owner.
	OpLocalize
	// OpDists returns the anchor distributions of the peer's candidates:
	// the ones it finds itself by pruning its own objects under the
	// coordinator's clock and reader health (Own: a whole range or occupancy
	// query in one round trip), or the ones listed in Candidates (the second
	// round of a kNN query).
	OpDists

	numOps
)

var opNames = [numOps]string{"ping", "ingest", "gather", "evaluate", "localize", "dists"}

// String implements fmt.Stringer.
func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Request is one peer RPC. Transports put it on the wire with Encode
// (wire.go); it stays a plain struct of exported fields so tests can use a
// gob round trip as the codec's oracle.
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

	// OpGather / OpEvaluate / OpDists: the query (the historical flag and
	// second are all a gather reads).
	Query engine.Query
	// Candidates are the objects to preprocess (OpEvaluate, OpDists without
	// Own).
	Candidates []model.ObjectID
	// Own asks the owner to gather and prune its own objects for Query (per
	// object, so it is the coordinator's prune restricted to them) under the
	// coordinator's stream clock Now and unhealthy-reader set Unhealthy,
	// then preprocess the survivors. OpDists only.
	Own       bool
	Now       model.Time
	Unhealthy []bool

	// OpLocalize.
	Object model.ObjectID
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

	// OpDists / OpEvaluate: the candidates' anchor distributions in
	// ascending object order, merged as they are with the coordinator's own;
	// CandidateCount is how many objects the owner preprocessed (after its
	// prune, for an Own request); DeadlineStage marks a deadline-partial answer;
	// DegradedShards reports the owner's quarantined in-process shards.
	ObjDists       []anchor.ObjDist
	CandidateCount int
	DeadlineStage  string
	DegradedShards []int
	// Dists is ObjDists in the map form the frozen benchmark harness reads
	// from an OpEvaluate reply. It never crosses the wire: HTTPTransport.Send
	// fills it on that path only.
	Dists map[model.ObjectID]map[anchor.ID]float64

	// OpLocalize.
	Loc   engine.Localization
	Found bool

	// sent and received are the sizes of the request and response frames,
	// set by a transport that put them on a wire, for send's byte counters.
	sent, received int
}

// send delivers one request to a peer with bounded retries: exponential
// backoff with per-peer jitter, each attempt capped by forwardTimeout and
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
		budget := forwardTimeout
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
			n.countBytes(req.Op, resp.sent, resp.received)
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
		infos, _ := n.Local.Infos(ctx, req.Query)
		now := n.Now()
		return &Response{Now: now, Infos: infos}, nil
	case OpDists, OpEvaluate:
		return n.handleDistsRPC(ctx, req)
	case OpLocalize:
		loc, ok := n.Local.Localize(req.Object)
		return &Response{Loc: loc, Found: ok}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown op %d", req.Op)
	}
}

// idemEntry is one forwarded sub-batch's application: in flight until done
// is closed, then the ack (or the error) every delivery of that sub-batch
// gets.
type idemEntry struct {
	done chan struct{}
	resp *Response
	err  error
}

// handleIngestRPC applies one forwarded sub-batch idempotently: a (second,
// fingerprint) pair is applied by the first delivery alone. A retransmission
// — after a lost reply, or while the first attempt is still inside the
// engine because the forwarder's attempt timed out — waits for that
// application and returns its ack, so a retry never double-counts, never
// sees a spurious late-batch refusal, and never replaces the ack with one.
func (n *Node) handleIngestRPC(ctx context.Context, req *Request) (*Response, error) {
	key := idemKey{t: req.Time, fp: req.Fingerprint}
	n.idemMu.Lock()
	if e, ok := n.idem[key]; ok {
		n.idemMu.Unlock()
		select {
		case <-e.done:
			return e.resp, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &idemEntry{done: make(chan struct{})}
	n.idem[key] = e
	n.idemMu.Unlock()

	e.resp, e.err = n.applyIngest(ctx, req)

	// An in-flight entry is in the map only, so it cannot be evicted before
	// its waiters are answered; a failed one leaves, so a retry applies anew.
	n.idemMu.Lock()
	if e.err != nil {
		delete(n.idem, key)
	} else {
		if len(n.idemFIFO) >= maxIdem {
			delete(n.idem, n.idemFIFO[0])
			n.idemFIFO = n.idemFIFO[1:]
		}
		n.idemFIFO = append(n.idemFIFO, key)
	}
	n.idemMu.Unlock()
	close(e.done)
	return e.resp, e.err
}

// applyIngest hands one forwarded sub-batch to the local engine and turns
// its typed ingest report into the ack.
func (n *Node) applyIngest(ctx context.Context, req *Request) (*Response, error) {
	err := n.Local.IngestContext(ctx, req.Time, req.Readings)
	now := n.Now()
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
	return resp, nil
}

// handleDistsRPC preprocesses the owner's candidates under the evaluate gate
// and returns their anchor distributions as they are.
func (n *Node) handleDistsRPC(ctx context.Context, req *Request) (*Response, error) {
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
	var dists []anchor.ObjDist
	var err error
	ncands := len(req.Candidates)
	if req.Own {
		dists, ncands, err = n.Local.OwnDists(ctx, req.Query, engine.Scope{Now: req.Now, Unhealthy: req.Unhealthy})
	} else {
		dists, err = n.Local.Dists(ctx, req.Candidates, req.Query)
	}
	tr.Add("remote-evaluate", trace.RouterShard, start, time.Since(start),
		trace.Attr{Key: "from", Value: req.From},
		trace.Attr{Key: "candidates", Value: strconv.Itoa(ncands)})
	n.observeEval(time.Since(start))

	// The local engine's other marker, its quarantined shards, is already in
	// DegradedShards.
	resp := &Response{DegradedShards: n.DegradedShards(), ObjDists: dists, CandidateCount: ncands}
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
