package engine

import (
	"context"

	"repro/internal/anchor"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/query"
)

// The pipeline's stages piecewise, under the names the frozen benchmark
// harness times them by (bench/layers.go; the list is at the end of
// DESIGN.md §13): adapters over Partition and Coordinator on the router.

// PruneRangeContext is the global range pruning stage over summaries
// gathered from anywhere, for any number of windows (pass-through when the
// optimization module is disabled).
func (w *world) PruneRangeContext(ctx context.Context, infos []query.ObjectInfo, windows []geom.Rect, now model.Time) ([]model.ObjectID, error) {
	if !w.cfg.UsePruning {
		return ObjectsOf(infos), nil
	}
	w.healthMu.RLock()
	defer w.healthMu.RUnlock()
	return w.pruner.RangeCandidatesContext(ctx, infos, windows, now, w.pruner.Unhealthy())
}

// PruneKNNContext is the global kNN pruning stage.
func (w *world) PruneKNNContext(ctx context.Context, infos []query.ObjectInfo, q geom.Point, k int, now model.Time) ([]model.ObjectID, error) {
	return w.Prune(ctx, infos, KNNQuery(q, k), now)
}

// ObjectInfos is the gather stage: Infos for a snapshot query, over the
// live shards.
func (e *Sharded) ObjectInfos() []query.ObjectInfo {
	infos, _ := e.Infos(context.Background(), Query{})
	return infos
}

// Preprocess runs the particle filter-based preprocessing module for the
// candidate set, each on its owning shard, and returns the filled APtoObjHT
// table.
func (e *Sharded) Preprocess(cands []model.ObjectID) *anchor.Table {
	tab, _ := e.PreprocessContext(context.Background(), cands)
	return tab
}

// PreprocessContext is Preprocess with a per-request deadline: on expiry
// the remaining objects are skipped and a *query.DeadlineError is returned
// alongside the partial table.
func (e *Sharded) PreprocessContext(ctx context.Context, cands []model.ObjectID) (*anchor.Table, error) {
	dists, err := e.Dists(ctx, cands, Query{})
	return anchor.TableOf(dists), err
}

// NoteTransportDrops accounts n readings dropped by the cluster forwarder
// because their owning peer was unreachable. Keeping the count inside the
// engine's Drops keeps Stats and the mirrored /metrics counters in
// agreement.
func (e *Sharded) NoteTransportDrops(n int) {
	e.ingestMu.Lock()
	e.extraDrops.UnreachableReadings += n
	e.ingestMu.Unlock()
}
