package engine

// This file is the engine's resilience surface: the reader-health monitor's
// coupling to the sensing model (DESIGN.md §12). Query deadlines are the
// pipeline's (pipeline.go); overload is shed at the server's admission, and
// the particle count Ns never moves at run time.

// refreshHealth pushes the monitor's unhealthy-reader set into the
// sensing-model consumers, the world's one filter and one pruner. Called only
// when the monitor reports a state change, so in a fully healthy deployment
// the filter and pruner keep their nil sets and the original code paths, bit
// for bit. Writer side of healthMu: a concurrent query sees either the whole
// old set or the whole new one.
func (w *world) refreshHealth(un []bool) {
	w.healthMu.Lock()
	w.filter.SetUnhealthy(un)
	w.pruner.SetUnhealthy(un)
	w.healthMu.Unlock()
	w.tel.healthTransitions.Inc()
}

// Unhealthy returns the unhealthy-reader set the pruner widens uncertain
// regions by (nil when every reader is healthy).
func (w *world) Unhealthy() []bool {
	w.healthMu.RLock()
	defer w.healthMu.RUnlock()
	return w.pruner.Unhealthy()
}
