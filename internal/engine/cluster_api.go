package engine

import (
	"context"

	"repro/internal/anchor"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/query"
)

// Cluster-facing surface (DESIGN.md §17). The multi-node layer in
// internal/cluster runs the same gather → prune → scatter → merge → evaluate
// pipeline as the sharded router, but across processes: the coordinator
// gathers candidate summaries from every peer, prunes once globally (kNN
// pruning needs every object's distance bound), scatters preprocessing to
// the owners, merges their disjoint []anchor.ObjDist — the same thing a
// local shard returns — builds the table once, and evaluates once. These
// accessors expose the pipeline's stages piecewise without widening the
// query API itself.

// ObjectInfos summarizes every known object for the pruning module, in
// ascending object order. It is the gather stage of the distributed query
// pipeline.
func (s *System) ObjectInfos() []query.ObjectInfo { return s.objectInfos() }

// ObjectInfosAt is ObjectInfos as of historical time t.
func (s *System) ObjectInfosAt(t model.Time) []query.ObjectInfo { return s.objectInfosAt(t) }

// PruneRangeContext runs the coordinator-global range pruning stage over
// candidate summaries gathered from many engines (pass-through when the
// optimization module is disabled). Pruning must run once, globally: the
// uncertain-region test is per object, but only the full summary reproduces
// the single-process candidate set bit for bit.
func (s *System) PruneRangeContext(ctx context.Context, infos []query.ObjectInfo, windows []geom.Rect, now model.Time) ([]model.ObjectID, error) {
	if !s.cfg.UsePruning {
		return infosToIDs(infos), nil
	}
	return s.pruner.RangeCandidatesContext(ctx, infos, windows, now)
}

// PruneKNNContext is the coordinator-global kNN pruning stage: it needs
// every object's distance bound to find the k-th smallest, which is exactly
// why the distributed pipeline prunes on the coordinator and not per owner.
func (s *System) PruneKNNContext(ctx context.Context, infos []query.ObjectInfo, q geom.Point, k int, now model.Time) ([]model.ObjectID, error) {
	if !s.cfg.UsePruning {
		return infosToIDs(infos), nil
	}
	return s.pruner.KNNCandidatesContext(ctx, infos, q, k, now)
}

// NoteTransportDrops accounts n readings dropped by the cluster forwarder
// because their owning peer was unreachable. Keeping the count inside the
// engine's Drops keeps Stats and the mirrored /metrics counters in
// agreement. Callers provide the engine's usual external synchronization.
func (s *System) NoteTransportDrops(n int) {
	s.extraDrops.UnreachableReadings += n
}

// PreprocessDists is PreprocessContext returning the candidates'
// distributions in ascending object order — the scatter stage's answer —
// instead of the table built from them.
func (s *System) PreprocessDists(ctx context.Context, candidates []model.ObjectID) ([]anchor.ObjDist, error) {
	return s.preprocessDists(ctx, candidates)
}

// MergeInfos and MergeDists are the router's own k-way merges, for the
// coordinator's gather and scatter: per-owner slices, each in ascending
// object order over disjoint objects, into one.
func MergeInfos(per [][]query.ObjectInfo) []query.ObjectInfo { return kMerge(per, infoLess) }

// MergeDists: see MergeInfos.
func MergeDists(per [][]anchor.ObjDist) []anchor.ObjDist { return kMerge(per, objDistLess) }

// OccupancyOf computes per-room expected counts from already-merged
// distributions (ascending object order), in the same pinned order as
// Occupancy. The cluster coordinator uses it after merging its peers'.
func OccupancyOf(idx *anchor.Index, dists []anchor.ObjDist) []RoomOdds {
	return occupancyOn(idx, dists)
}

// ObjectInfos mirrors System.ObjectInfos over the live shards.
func (e *Sharded) ObjectInfos() []query.ObjectInfo {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.gatherInfos()
}

// ObjectInfosAt mirrors System.ObjectInfosAt over the live shards.
func (e *Sharded) ObjectInfosAt(t model.Time) []query.ObjectInfo {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.gatherInfosAt(t)
}

// PreprocessContext is Preprocess under a caller deadline, mirroring
// System.PreprocessContext: on expiry the remaining objects are skipped and
// a *query.DeadlineError is returned alongside the partial table.
func (e *Sharded) PreprocessContext(ctx context.Context, cands []model.ObjectID) (*anchor.Table, error) {
	dists, err := e.PreprocessDists(ctx, cands)
	return anchor.TableOf(dists), err
}

// PreprocessDists mirrors System.PreprocessDists over the live shards.
func (e *Sharded) PreprocessDists(ctx context.Context, cands []model.ObjectID) ([]anchor.ObjDist, error) {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.preprocessDists(ctx, cands)
}

// PreprocessAt runs the historical (uncached, serial) preprocessing
// pipeline, mirroring System.PreprocessAt.
func (e *Sharded) PreprocessAt(cands []model.ObjectID, t model.Time) *anchor.Table {
	return anchor.TableOf(e.PreprocessDistsAt(cands, t))
}

// PreprocessDistsAt mirrors System.PreprocessDistsAt.
func (e *Sharded) PreprocessDistsAt(cands []model.ObjectID, t model.Time) []anchor.ObjDist {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.preprocessAt(cands, t)
}

// Evaluator exposes the shared query evaluation module (every shard holds
// an identical one over the same anchor index).
func (e *Sharded) Evaluator() *query.Evaluator { return e.shards[0].eval }

// PruneRangeContext mirrors System.PruneRangeContext. The read lock fences
// the pruner's unhealthy-reader set against a concurrent health refresh.
func (e *Sharded) PruneRangeContext(ctx context.Context, infos []query.ObjectInfo, windows []geom.Rect, now model.Time) ([]model.ObjectID, error) {
	if !e.cfg.UsePruning {
		return infosToIDs(infos), nil
	}
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.shards[0].pruner.RangeCandidatesContext(ctx, infos, windows, now)
}

// PruneKNNContext mirrors System.PruneKNNContext under the same fence.
func (e *Sharded) PruneKNNContext(ctx context.Context, infos []query.ObjectInfo, q geom.Point, k int, now model.Time) ([]model.ObjectID, error) {
	if !e.cfg.UsePruning {
		return infosToIDs(infos), nil
	}
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.shards[0].pruner.KNNCandidatesContext(ctx, infos, q, k, now)
}

// NoteTransportDrops mirrors System.NoteTransportDrops; the count merges
// into the router-owned extraDrops under the ingest lock.
func (e *Sharded) NoteTransportDrops(n int) {
	e.ingestMu.Lock()
	e.extraDrops.UnreachableReadings += n
	e.ingestMu.Unlock()
}
