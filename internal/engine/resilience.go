package engine

import "repro/internal/health"

// This file is the engine's resilience surface: the reader-health monitor's
// coupling to the sensing model and the degraded-mode particle budget
// (DESIGN.md §12). Query deadlines are the pipeline's (pipeline.go).

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
