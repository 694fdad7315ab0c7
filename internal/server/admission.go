package server

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// AdmissionConfig bounds the query-side concurrency of the server. The zero
// value disables admission control entirely (every request is admitted
// immediately), which is the pre-resilience behavior.
type AdmissionConfig struct {
	// MaxInFlight is the number of queries allowed past admission at once.
	// Queries serialize on the engine lock anyway, so this bounds how much
	// work can pile up behind it. 0 disables admission control.
	MaxInFlight int
	// MaxQueue is how many requests may wait for a slot beyond MaxInFlight;
	// arrivals beyond it are shed immediately with 429.
	MaxQueue int
	// MaxWait is the longest a queued request waits for a slot before being
	// shed with 429. 0 means shed immediately when no slot is free.
	MaxWait time.Duration
}

// DefaultAdmissionConfig returns admission bounds suited to a single-engine
// server: a handful of in-flight queries and a short queue.
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{
		MaxInFlight: 4,
		MaxQueue:    32,
		MaxWait:     500 * time.Millisecond,
	}
}

// admission is the query admission controller: a slot semaphore with a
// bounded, deadline-bounded wait queue. A nil *admission admits everything
// (admission disabled).
type admission struct {
	cfg   AdmissionConfig
	slots chan struct{}
	// queued counts requests waiting for a slot; latencyNs is an EWMA of
	// admitted-query wall time used to estimate Retry-After.
	queued    atomic.Int64
	latencyNs atomic.Int64

	admitted *obs.Counter
	shed     *obs.Counter
	inflight *obs.Gauge
	queuedG  *obs.Gauge
}

// newAdmission builds the controller, registering its metrics; returns nil
// (admission disabled) when cfg.MaxInFlight is 0.
func newAdmission(cfg AdmissionConfig, reg *obs.Registry) *admission {
	if cfg.MaxInFlight <= 0 {
		return nil
	}
	a := &admission{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxInFlight),
		admitted: reg.Counter("repro_admission_admitted_total",
			"Query requests admitted past the admission controller."),
		shed: reg.Counter("repro_admission_shed_total",
			"Query requests shed with 429 (queue full or slot wait timed out)."),
		inflight: reg.Gauge("repro_admission_inflight",
			"Query requests currently holding an admission slot."),
		queuedG: reg.Gauge("repro_admission_queued",
			"Query requests waiting for an admission slot."),
	}
	return a
}

// acquire tries to admit one request: it returns a release closure and true,
// or false when the request must be shed. The release closure must be called
// exactly once, after the query finishes.
func (a *admission) acquire() (release func(), ok bool) {
	if a == nil {
		return func() {}, true
	}
	select {
	case a.slots <- struct{}{}:
		return a.admit(), true
	default:
	}
	// No free slot: join the bounded wait queue.
	if q := a.queued.Add(1); q > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		a.shed.Inc()
		return nil, false
	}
	a.queuedG.Set(float64(a.queued.Load()))
	defer func() {
		a.queued.Add(-1)
		a.queuedG.Set(float64(a.queued.Load()))
	}()
	timer := time.NewTimer(a.cfg.MaxWait)
	defer timer.Stop()
	if a.awaitSlot(timer.C) {
		return a.admit(), true
	}
	a.shed.Inc()
	return nil, false
}

// admit records one admission and returns the release closure. The service
// clock starts here — at slot acquisition, not at arrival — so the EWMA
// behind Retry-After measures how long an admitted query holds its slot,
// not how long it also sat in the queue. Folding the queue wait in would
// inflate every congested estimate with MaxWait-sized stalls and feed the
// inflation back into ever-longer Retry-After advice.
func (a *admission) admit() (release func()) {
	a.admitted.Inc()
	a.inflight.Set(float64(len(a.slots)))
	at := time.Now()
	return func() {
		<-a.slots
		a.inflight.Set(float64(len(a.slots)))
		a.observeLatency(time.Since(at))
	}
}

// awaitSlot blocks until a slot frees or the timeout fires. When both
// channels are ready, select picks one at random — without the re-check a
// request could be shed even though a slot was free the instant the timer
// fired. Timing out therefore sheds only if a non-blocking retry still
// finds every slot taken.
func (a *admission) awaitSlot(timeout <-chan time.Time) bool {
	select {
	case a.slots <- struct{}{}:
		return true
	case <-timeout:
		select {
		case a.slots <- struct{}{}:
			return true
		default:
			return false
		}
	}
}

// observeLatency folds one admitted query's wall time into the EWMA backing
// the Retry-After estimate.
func (a *admission) observeLatency(d time.Duration) {
	const alpha = 0.2
	for {
		old := a.latencyNs.Load()
		next := int64(float64(old)*(1-alpha) + float64(d.Nanoseconds())*alpha)
		if old == 0 {
			next = d.Nanoseconds()
		}
		if a.latencyNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates how long a shed client should back off: the
// EWMA query latency times the work queued ahead of it, spread over the
// available slots, floored at one second (the header's resolution).
func (a *admission) retryAfterSeconds() int {
	lat := time.Duration(a.latencyNs.Load())
	if lat <= 0 {
		lat = 100 * time.Millisecond
	}
	backlog := float64(len(a.slots)) + float64(a.queued.Load())
	secs := lat.Seconds() * backlog / float64(a.cfg.MaxInFlight)
	n := int(math.Ceil(secs))
	if n < 1 {
		n = 1
	}
	return n
}

// retryAfterHeader is retryAfterSeconds as a header value.
func (a *admission) retryAfterHeader() string {
	return strconv.Itoa(a.retryAfterSeconds())
}
