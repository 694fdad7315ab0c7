package engine

import (
	"context"
	"errors"
	"time"

	"repro/internal/anchor"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/query"
)

// This file is the engine's resilience surface: the reader-health monitor's
// coupling to the sensing model, the deadline-aware query entry points, and
// the degraded-mode particle budget (DESIGN.md §12).

// refreshHealth pushes the monitor's current unhealthy-reader set into the
// sensing-model consumers. Called only when the monitor reports a state
// change, so in a fully healthy deployment the filter and pruner keep their
// nil sets and the original code paths, bit for bit.
func (s *System) refreshHealth() {
	un := s.monitor.Unhealthy()
	s.filter.SetUnhealthy(un)
	s.pruner.SetUnhealthy(un)
	s.tel.healthTransitions.Inc()
}

// ReaderHealth returns the liveness snapshot of every reader, or nil when
// health monitoring is disabled. The slice is indexed by ReaderID.
func (s *System) ReaderHealth() []health.ReaderHealth {
	if s.monitor == nil {
		return nil
	}
	return s.monitor.Snapshot(s.col.Now())
}

// HealthMonitorEnabled reports whether the reader-health monitor is running.
func (s *System) HealthMonitorEnabled() bool { return s.monitor != nil }

// SetParticleBudget caps the per-object particle count of newly initialized
// filter states — the degraded-mode knob the server's overload controller
// turns (the documented Ns ablation axis). n <= 0 or n >= the configured Ns
// restores full fidelity. Callers must hold the same exclusion the query API
// requires.
func (s *System) SetParticleBudget(n int) {
	s.filter.SetParticleBudget(n)
	s.tel.particleBudget.Set(float64(s.filter.ParticleBudget()))
}

// ParticleBudget returns the effective per-object particle count for new
// filter states.
func (s *System) ParticleBudget() int { return s.filter.ParticleBudget() }

// NoteOversizedBody accounts one rejected ingest delivery whose HTTP body
// exceeded the configured cap. The loss never reaches the reorder buffer, so
// the HTTP layer reports it here to keep the drop accounting complete.
func (s *System) NoteOversizedBody() {
	s.extraDrops.OversizedBatches++
}

// RangeQueryContext answers a snapshot indoor range query under a
// per-request deadline, checked at pruning, per-object preprocessing, and
// evaluation loop boundaries. On expiry it returns what it has — a result
// over the objects preprocessed so far — together with a
// *query.DeadlineError naming the stage that ran out of budget. A nil error
// means the result is complete and identical to RangeQuery's.
func (s *System) RangeQueryContext(ctx context.Context, window geom.Rect) (model.ResultSet, error) {
	start := time.Now()
	tr := trace.From(ctx)
	now := s.col.Now()
	gstart := time.Now()
	infos := s.objectInfos()
	tr.Since("gather", trace.RouterShard, gstart)
	var cands []model.ObjectID
	var perr error
	pstart := time.Now()
	if s.cfg.UsePruning {
		// An expired prune fails open (all objects admitted); preprocessing
		// below will cut the work short instead.
		cands, perr = s.pruner.RangeCandidatesContext(ctx, infos, []geom.Rect{window}, now)
	} else {
		cands = infosToIDs(infos)
	}
	tr.Since("prune", trace.RouterShard, pstart)
	estart := time.Now()
	dists, terr := s.preprocessDists(ctx, cands)
	s.shardTel.evaluate.Observe(time.Since(estart).Seconds())
	tr.Since("evaluate", s.shardID, estart)
	s.stats.RangeQueries++
	mstart := time.Now()
	rs, eerr := s.eval.RangeContext(ctx, anchor.TableOf(dists), window)
	tr.Since("merge", trace.RouterShard, mstart)
	s.observeQuery("range", rangeDetail(window.Min.X, window.Min.Y,
		window.Max.X-window.Min.X, window.Max.Y-window.Min.Y), len(cands), start, tr)
	if err := firstDeadline(perr, terr, eerr); err != nil {
		s.tel.deadlineExceeded.Inc()
		tr.SetDeadline()
		return rs, err
	}
	return rs, nil
}

// KNNQueryContext answers a snapshot indoor kNN query under a per-request
// deadline; see RangeQueryContext for the partial-result contract.
func (s *System) KNNQueryContext(ctx context.Context, q geom.Point, k int) (model.ResultSet, error) {
	start := time.Now()
	tr := trace.From(ctx)
	now := s.col.Now()
	gstart := time.Now()
	infos := s.objectInfos()
	tr.Since("gather", trace.RouterShard, gstart)
	var cands []model.ObjectID
	var perr error
	pstart := time.Now()
	if s.cfg.UsePruning {
		cands, perr = s.pruner.KNNCandidatesContext(ctx, infos, q, k, now)
	} else {
		cands = infosToIDs(infos)
	}
	tr.Since("prune", trace.RouterShard, pstart)
	estart := time.Now()
	dists, terr := s.preprocessDists(ctx, cands)
	s.shardTel.evaluate.Observe(time.Since(estart).Seconds())
	tr.Since("evaluate", s.shardID, estart)
	s.stats.KNNQueries++
	mstart := time.Now()
	rs, eerr := s.eval.KNNContext(ctx, anchor.TableOf(dists), q, k)
	tr.Since("merge", trace.RouterShard, mstart)
	s.observeQuery("knn", knnDetail(q.X, q.Y, k), len(cands), start, tr)
	if err := firstDeadline(perr, terr, eerr); err != nil {
		s.tel.deadlineExceeded.Inc()
		tr.SetDeadline()
		return rs, err
	}
	return rs, nil
}

// firstDeadline returns the earliest-stage deadline error among errs (they
// arrive in pipeline order), or nil.
func firstDeadline(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// IsDeadline reports whether err is a query deadline overrun and extracts
// the typed error.
func IsDeadline(err error) (*query.DeadlineError, bool) {
	var de *query.DeadlineError
	if errors.As(err, &de) {
		return de, true
	}
	return nil, false
}

// compile-time check that the transport-drop kind stays in the taxonomy.
var _ = ingest.KindOversized
