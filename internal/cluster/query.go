package cluster

import (
	"context"
	"time"

	"repro/internal/anchor"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/query"
)

// A cluster query is the engine's own pipeline (engine.Run) over a router
// whose partitions happen to be remote: the local engine, and every peer
// behind the Transport. The node coordinates — clock,
// global pruning, evaluation and telemetry are its local engine's. Because
// each object's filter run is keyed by (Seed, object, its own readings), the
// merged table is bit-for-bit the table a single process holding all the
// readings would compute, snapshot or historical — the determinism argument
// behind the two-node oracle diff (DESIGN.md §18).

// Query answers q over the whole cluster under the partial-result contract:
// unreachable owners degrade the answer (typed DegradedError), a deadline
// overrun returns the usable prefix, and an owner shedding under load aborts
// it (typed ShedError alone, relayed as 429).
func (n *Node) Query(ctx context.Context, q engine.Query) (engine.Answer, error) {
	ans, err := engine.Run(ctx, n, n.router, q)
	if se, ok := IsShed(err); ok {
		return engine.Answer{}, se
	}
	return ans, err
}

// peerPart is a remote member as a partition: each method is one RPC under
// the peer's breaker.
type peerPart struct {
	n *Node
	p *peer
}

func (pp peerPart) Infos(ctx context.Context, q engine.Query) ([]query.ObjectInfo, error) {
	resp, err := pp.ask(ctx, &Request{Op: OpGather, Query: q})
	if err != nil {
		return nil, err
	}
	return resp.Infos, nil
}

func (pp peerPart) Dists(ctx context.Context, cands []model.ObjectID, q engine.Query) ([]anchor.ObjDist, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	dists, _, err := pp.dists(ctx, &Request{Op: OpDists, Query: q, Candidates: cands})
	return dists, err
}

// OwnDists is the whole of a range or occupancy query's remote half in one
// round trip: the peer prunes its own objects under this coordinator's clock
// and reader health, exactly as the coordinator would have pruned them.
func (pp peerPart) OwnDists(ctx context.Context, q engine.Query, sc engine.Scope) ([]anchor.ObjDist, int, error) {
	return pp.dists(ctx, &Request{Op: OpDists, Query: q, Own: true, Now: sc.Now, Unhealthy: sc.Unhealthy})
}

// dists sends one OpDists request and turns the reply's markers back into
// the typed errors a local partition would have returned.
func (pp peerPart) dists(ctx context.Context, req *Request) ([]anchor.ObjDist, int, error) {
	resp, err := pp.ask(ctx, req)
	if err != nil {
		return nil, 0, err
	}
	if resp.Shed {
		pp.p.mu.Lock()
		pp.p.sheds++
		pp.p.mu.Unlock()
		return nil, 0, &ShedError{Peer: pp.p.addr, RetryAfterSeconds: resp.RetryAfterSeconds}
	}
	var late, degraded error
	if resp.DeadlineStage != "" {
		late = &query.DeadlineError{Stage: resp.DeadlineStage, Err: context.DeadlineExceeded}
	}
	if len(resp.DegradedShards) > 0 {
		// The owner answered, but from a partially quarantined engine: its
		// missing shards degrade the cluster answer.
		degraded = pp.degraded()
	}
	return resp.ObjDists, resp.CandidateCount, engine.JoinPartial(late, degraded)
}

// ask sends one query RPC unless the breaker holds the peer dead, and feeds
// the outcome back into the breaker. A peer that could not be asked is the
// typed partial marker naming it.
func (pp peerPart) ask(ctx context.Context, req *Request) (*Response, error) {
	p := pp.p
	if !p.available(time.Now()) {
		return nil, pp.degraded()
	}
	p.mu.Lock()
	p.queryForwards++
	p.mu.Unlock()
	resp, err := pp.n.send(ctx, p, req)
	if err != nil {
		p.noteFailure(err)
		p.mu.Lock()
		p.queryFailures++
		p.mu.Unlock()
		return nil, pp.degraded()
	}
	if !resp.Shed {
		p.noteSuccess()
	}
	return resp, nil
}

func (pp peerPart) degraded() error { return &DegradedError{Peers: []string{pp.p.addr}} }

// Localize answers a single-object localization on the object's owner.
func (n *Node) Localize(obj model.ObjectID) (engine.Localization, bool) {
	i := n.OwnerIdx(obj)
	if i == n.selfIdx {
		return n.Local.Localize(obj)
	}
	p := n.peers[i]
	if !p.available(time.Now()) {
		return engine.Localization{}, false
	}
	resp, err := n.send(context.Background(), p, &Request{Op: OpLocalize, Object: obj})
	if err != nil {
		p.noteFailure(err)
		return engine.Localization{}, false
	}
	p.noteSuccess()
	return resp.Loc, resp.Found
}

// KnownObjects returns the objects known across the whole cluster, sorted.
// Unreachable owners' objects are silently absent (the endpoint has no
// partial contract).
func (n *Node) KnownObjects() []model.ObjectID {
	infos, _ := n.router.Infos(context.Background(), engine.Query{})
	return engine.ObjectsOf(infos)
}

// Preprocess fills a distribution table for an explicit candidate set via
// the scatter path (the snapshot renderer's entry point).
func (n *Node) Preprocess(candidates []model.ObjectID) *anchor.Table {
	dists, _ := n.router.Dists(context.Background(), candidates, engine.Query{})
	return anchor.TableOf(dists)
}
