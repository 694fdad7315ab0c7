package cluster

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/anchor"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/query"
)

// The distributed query pipeline mirrors the in-process router's: gather
// candidate summaries from every owner, prune ONCE on the coordinator (kNN
// pruning is global — it needs every object's distance bound to find the
// k-th smallest), scatter preprocessing to the owners, merge the disjoint
// per-object distributions — a peer's answer is the same []anchor.ObjDist a
// local shard's is — build the table once, and evaluate once. Because each
// object's filter run is keyed by (Seed, object, its own readings), the
// merged table is bit-for-bit the table a single process holding all the
// readings would compute — the determinism argument behind the two-node
// oracle diff (DESIGN.md §17).

// gatherResult is one peer's contribution to the gather stage.
type gatherResult struct {
	infos    []query.ObjectInfo
	degraded bool
}

// gather collects candidate summaries from the local engine and every
// reachable peer. Unreachable peers are skipped and reported as degraded.
func (n *Node) gather(ctx context.Context, at model.Time, historical bool) ([]query.ObjectInfo, []string) {
	per := make([][]query.ObjectInfo, len(n.members))
	n.lock()
	if historical {
		per[n.selfIdx] = n.eng.ObjectInfosAt(at)
	} else {
		per[n.selfIdx] = n.eng.ObjectInfos()
	}
	n.unlock()

	results := make([]gatherResult, len(n.members))
	var wg sync.WaitGroup
	for i, p := range n.peers {
		if p == nil {
			continue
		}
		if !p.available(time.Now()) {
			results[i].degraded = true
			continue
		}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			p.mu.Lock()
			p.queryForwards++
			p.mu.Unlock()
			resp, err := n.send(ctx, p, &Request{Op: OpGather, At: at, Historical: historical})
			if err != nil {
				p.noteFailure(err)
				p.mu.Lock()
				p.queryFailures++
				p.mu.Unlock()
				results[i].degraded = true
				return
			}
			p.noteSuccess()
			results[i].infos = resp.Infos
		}(i, p)
	}
	wg.Wait()

	var degraded []string
	for i, r := range results {
		if r.degraded {
			degraded = append(degraded, n.members[i])
		}
		per[i] = append(per[i], r.infos...)
	}
	return engine.MergeInfos(per), degraded
}

// scatter partitions the candidate set by owner, preprocesses the local
// partition, forwards the remote partitions as evaluate RPCs, and merges
// the owners' disjoint answers by object. It returns the merged
// distributions in ascending object order, the degraded peer set, a deadline
// error (if any stage ran out), and a shed error (if an owner refused under
// load).
func (n *Node) scatter(ctx context.Context, cands []model.ObjectID, at model.Time, historical bool) (
	[]anchor.ObjDist, []string, error, *ShedError) {
	parts := make([][]model.ObjectID, len(n.members))
	for _, obj := range cands {
		i := n.OwnerIdx(obj)
		parts[i] = append(parts[i], obj)
	}

	per := make([][]anchor.ObjDist, len(n.members))
	errsDeadline := make([]error, len(n.members))
	degradedF := make([]bool, len(n.members))
	var shedMu sync.Mutex
	var shed *ShedError
	var wg sync.WaitGroup
	for i, p := range n.peers {
		if p == nil || len(parts[i]) == 0 {
			continue
		}
		if !p.available(time.Now()) {
			degradedF[i] = true
			continue
		}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			p.mu.Lock()
			p.queryForwards++
			p.mu.Unlock()
			resp, err := n.send(ctx, p, &Request{Op: OpEvaluate, Candidates: parts[i], At: at, Historical: historical})
			if err != nil {
				p.noteFailure(err)
				p.mu.Lock()
				p.queryFailures++
				p.mu.Unlock()
				degradedF[i] = true
				return
			}
			if resp.Shed {
				p.mu.Lock()
				p.sheds++
				p.mu.Unlock()
				shedMu.Lock()
				if shed == nil {
					shed = &ShedError{Peer: p.addr, RetryAfterSeconds: resp.RetryAfterSeconds}
				}
				shedMu.Unlock()
				return
			}
			p.noteSuccess()
			per[i] = anchor.ObjDistsFromMaps(resp.Dists)
			if resp.DeadlineStage != "" {
				errsDeadline[i] = &query.DeadlineError{Stage: resp.DeadlineStage, Err: context.DeadlineExceeded}
			}
			if len(resp.DegradedShards) > 0 {
				// The owner answered, but from a partially quarantined
				// engine: its missing shards degrade the cluster answer.
				degradedF[i] = true
			}
		}(i, p)
	}

	// Local partition, concurrently with the remote scatter.
	var local []anchor.ObjDist
	var localErr error
	if historical {
		n.lock()
		local = n.eng.PreprocessDistsAt(parts[n.selfIdx], at)
		n.unlock()
	} else {
		n.lock()
		local, localErr = n.eng.PreprocessDists(ctx, parts[n.selfIdx])
		n.unlock()
	}
	wg.Wait()
	per[n.selfIdx] = local
	merged := engine.MergeDists(per)
	var degraded []string
	for i, d := range degradedF {
		if d {
			degraded = append(degraded, n.members[i])
		}
	}
	errsDeadline = append(errsDeadline, localErr)
	var firstDl error
	for _, e := range errsDeadline {
		if e == nil {
			continue
		}
		if _, ok := engine.IsDeadline(e); ok && firstDl == nil {
			firstDl = e
		}
	}
	return merged, degraded, firstDl, shed
}

// joinDegraded folds the typed partial markers of one query into a single
// error: degraded peers (union, deduplicated, sorted), a deadline overrun,
// and the local engine's quarantined shards.
func (n *Node) joinDegraded(deadlineErr error, peerSets ...[]string) error {
	set := map[string]bool{}
	for _, ps := range peerSets {
		for _, p := range ps {
			set[p] = true
		}
	}
	var errs []error
	if deadlineErr != nil {
		errs = append(errs, deadlineErr)
	}
	if len(set) > 0 {
		peers := make([]string, 0, len(set))
		for p := range set {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		errs = append(errs, &DegradedError{Peers: peers})
	}
	if qe := n.localQuarantineErr(); qe != nil {
		errs = append(errs, qe)
	}
	switch len(errs) {
	case 0:
		return nil
	case 1:
		return errs[0]
	default:
		return errors.Join(errs...)
	}
}

// prune runs the coordinator-global pruning stage (pass-through inside the
// engine when pruning is disabled). The engine wrapper, not a raw Pruner
// handle, so the unhealthy-reader set stays fenced by the engine's own lock.
func (n *Node) pruneRange(ctx context.Context, infos []query.ObjectInfo, window geom.Rect, now model.Time) ([]model.ObjectID, error) {
	n.lock()
	defer n.unlock()
	return n.eng.PruneRangeContext(ctx, infos, []geom.Rect{window}, now)
}

func (n *Node) pruneKNN(ctx context.Context, infos []query.ObjectInfo, q geom.Point, k int, now model.Time) ([]model.ObjectID, error) {
	n.lock()
	defer n.unlock()
	return n.eng.PruneKNNContext(ctx, infos, q, k, now)
}

func infosToIDs(infos []query.ObjectInfo) []model.ObjectID {
	out := make([]model.ObjectID, len(infos))
	for i, in := range infos {
		out[i] = in.Object
	}
	return out
}

// RangeQueryContext answers a probabilistic range query over the whole
// cluster under the partial-result contract: unreachable owners degrade the
// answer (typed DegradedError), an owner shedding under load aborts it
// (typed ShedError, relayed as 429), and a deadline overrun returns the
// usable prefix.
func (n *Node) RangeQueryContext(ctx context.Context, window geom.Rect) (model.ResultSet, error) {
	now := n.Now()
	infos, degG := n.gather(ctx, 0, false)
	cands, perr := n.pruneRange(ctx, infos, window, now)
	dists, degS, dlerr, shed := n.scatter(ctx, cands, 0, false)
	if shed != nil {
		return nil, shed
	}
	rs, eerr := n.eng.Evaluator().RangeContext(ctx, anchor.TableOf(dists), window)
	return rs, n.joinDegraded(firstNonNil(perr, dlerr, eerr), degG, degS)
}

// KNNQueryContext answers a probabilistic k-nearest-neighbors query over
// the whole cluster; see RangeQueryContext for the degradation contract.
func (n *Node) KNNQueryContext(ctx context.Context, q geom.Point, k int) (model.ResultSet, error) {
	now := n.Now()
	infos, degG := n.gather(ctx, 0, false)
	cands, perr := n.pruneKNN(ctx, infos, q, k, now)
	dists, degS, dlerr, shed := n.scatter(ctx, cands, 0, false)
	if shed != nil {
		return nil, shed
	}
	rs, eerr := n.eng.Evaluator().KNNContext(ctx, anchor.TableOf(dists), q, k)
	return rs, n.joinDegraded(firstNonNil(perr, dlerr, eerr), degG, degS)
}

// RangeQuery is RangeQueryContext without a deadline; partial markers are
// dropped (legacy surface, used by harness diffs over healthy clusters).
func (n *Node) RangeQuery(window geom.Rect) model.ResultSet {
	rs, _ := n.RangeQueryContext(context.Background(), window)
	return rs
}

// KNNQuery is KNNQueryContext without a deadline.
func (n *Node) KNNQuery(q geom.Point, k int) model.ResultSet {
	rs, _ := n.KNNQueryContext(context.Background(), q, k)
	return rs
}

// RangeQueryAt answers a historical range query. Unlike snapshot queries,
// historical runs draw from each node's own serial random source, so
// cluster answers are self-consistent but not pinned bit-for-bit to a
// single-process engine (DESIGN.md §17 documents this non-goal).
func (n *Node) RangeQueryAt(window geom.Rect, t model.Time) model.ResultSet {
	ctx := context.Background()
	infos, _ := n.gather(ctx, t, true)
	cands, _ := n.pruneRange(ctx, infos, window, t)
	dists, _, _, _ := n.scatter(ctx, cands, t, true)
	return n.eng.Evaluator().Range(anchor.TableOf(dists), window)
}

// KNNQueryAt answers a historical kNN query; see RangeQueryAt.
func (n *Node) KNNQueryAt(q geom.Point, k int, t model.Time) model.ResultSet {
	ctx := context.Background()
	infos, _ := n.gather(ctx, t, true)
	cands, _ := n.pruneKNN(ctx, infos, q, k, t)
	dists, _, _, _ := n.scatter(ctx, cands, t, true)
	return n.eng.Evaluator().KNN(anchor.TableOf(dists), q, k)
}

// Occupancy aggregates per-room expected counts over the whole cluster.
func (n *Node) Occupancy() []engine.RoomOdds {
	odds, _ := n.OccupancyContext(context.Background())
	return odds
}

// OccupancyContext is Occupancy under a caller deadline and the cluster
// degradation contract.
func (n *Node) OccupancyContext(ctx context.Context) ([]engine.RoomOdds, error) {
	infos, degG := n.gather(ctx, 0, false)
	dists, degS, dlerr, shed := n.scatter(ctx, infosToIDs(infos), 0, false)
	if shed != nil {
		return nil, shed
	}
	odds := engine.OccupancyOf(n.eng.AnchorIndex(), dists)
	return odds, n.joinDegraded(dlerr, degG, degS)
}

// Localize answers a single-object localization on the object's owner.
func (n *Node) Localize(obj model.ObjectID) (engine.Localization, bool) {
	i := n.OwnerIdx(obj)
	if i == n.selfIdx {
		n.lock()
		defer n.unlock()
		return n.eng.Localize(obj)
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
	infos, _ := n.gather(context.Background(), 0, false)
	return infosToIDs(infos)
}

// Preprocess fills a distribution table for an explicit candidate set via
// the scatter path (the snapshot renderer's entry point).
func (n *Node) Preprocess(candidates []model.ObjectID) *anchor.Table {
	dists, _, _, _ := n.scatter(context.Background(), candidates, 0, false)
	return anchor.TableOf(dists)
}

func firstNonNil(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
