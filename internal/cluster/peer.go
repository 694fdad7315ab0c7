package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/shardmap"
)

// peer is the forwarder's view of one remote member: circuit-breaker state,
// the catch-up queue of missed seconds, counters, and metric handles.
//
// Lock order: fwMu (serializes the forward sequence so a peer receives its
// seconds in delivery order) is taken before mu (guards the fields below);
// mu is never held across a transport call.
type peer struct {
	addr string
	salt uint64
	cfg  *Config

	fwMu sync.Mutex

	mu        sync.Mutex
	state     health.State
	fails     int // consecutive failed forwards, each already retried
	nextProbe time.Time
	lastErr   string
	// ticks are the stream seconds this peer missed while unreachable. The
	// readings were dropped (typed); the bare seconds replay as empty
	// batches on heal so the peer's clock and LEAVE detection catch up.
	ticks     []model.Time
	lostTicks int

	// Counters, guarded by mu; surfaced at GET /cluster.
	forwardedBatches int64
	ackedReadings    int64
	droppedReadings  int64
	remoteDropped    int64 // readings the owner's own taxonomy refused
	retries          int64
	queryForwards    int64
	queryFailures    int64
	sheds            int64

	mFwd   *obs.Histogram
	mErr   *obs.Counter
	mState *obs.Gauge
}

func newPeer(addr string, cfg Config, fwd *obs.Histogram, errs *obs.Counter, state *obs.Gauge) *peer {
	h := shardmap.Mix(uint64(cfg.Seed))
	for _, c := range addr {
		h = shardmap.Mix(h + uint64(c))
	}
	p := &peer{addr: addr, salt: h, cfg: &cfg, mFwd: fwd, mErr: errs, mState: state}
	p.mState.Set(float64(health.Live))
	return p
}

// available reports whether a forward to this peer should be attempted now:
// LIVE and SUSPECT peers always, DEAD peers only once their probe interval
// has elapsed (the next forward doubles as the probe).
func (p *peer) available(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state != health.Dead || !now.Before(p.nextProbe)
}

// currentState returns the breaker state.
func (p *peer) currentState() health.State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// noteFailure records one failed forward (post-retry) and advances the
// breaker: the first failure marks the peer SUSPECT, DeadAfter mark it DEAD;
// while DEAD the probe interval doubles from ProbeBase to ProbeMax.
func (p *peer) noteFailure(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
	p.lastErr = err.Error()
	p.state = health.Suspect
	if dead := p.cfg.deadAfter(); p.fails >= dead {
		p.state = health.Dead
		p.nextProbe = time.Now().Add(engine.Backoff(p.cfg.probeBase(), p.cfg.probeMax(), p.fails-dead))
	}
	p.mState.Set(float64(p.state))
}

// noteSuccess resets the breaker to LIVE.
func (p *peer) noteSuccess() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails = 0
	p.state = health.Live
	p.lastErr = ""
	p.mState.Set(float64(health.Live))
}

// maxMissedSeconds bounds a peer's catch-up queue of stream seconds missed
// while it was unreachable. Beyond it the oldest seconds are discarded and
// counted as lost: the peer can still heal, but clock lockstep with a
// never-partitioned cluster is no longer guaranteed.
const maxMissedSeconds = 4096

// recordMissed queues one missed stream second for heal-time catch-up,
// bounded by maxMissedSeconds.
func (p *peer) recordMissed(t model.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ticks) >= maxMissedSeconds {
		p.ticks = p.ticks[1:]
		p.lostTicks++
	}
	p.ticks = append(p.ticks, t)
}

func (p *peer) pendingTicks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ticks)
}

func (p *peer) syncGauge() {
	p.mu.Lock()
	p.mState.Set(float64(p.state))
	p.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Typed errors of the degradation contract.

// DegradedError marks a query answered without one or more unreachable (or
// internally quarantined) owners: the result is correct over the reachable
// owners' objects but is not the full population. The HTTP layer surfaces
// it as "partial": true with "degradedPeers", mirroring the shard
// quarantine contract.
type DegradedError struct {
	Peers []string
}

// Error implements the error interface.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("cluster: partial result: %d peer(s) degraded %v", len(e.Peers), e.Peers)
}

// Merge implements engine.Marker: however many stages found a peer missing,
// the answer names it once.
func (e *DegradedError) Merge(other error) (error, bool) {
	o, ok := other.(*DegradedError)
	if !ok {
		return nil, false
	}
	return &DegradedError{Peers: engine.Union(e.Peers, o.Peers)}, true
}

// IsDegraded reports whether err (or anything it wraps) marks a partial
// result caused by unreachable peers.
func IsDegraded(err error) (*DegradedError, bool) {
	var de *DegradedError
	if errors.As(err, &de) {
		return de, true
	}
	return nil, false
}

// ShedError marks a query refused because an owner shed the forwarded
// evaluate under load. The HTTP layer relays the owner's Retry-After —
// not the forwarder's own estimate — as a 429.
type ShedError struct {
	Peer              string
	RetryAfterSeconds int
}

// Error implements the error interface.
func (e *ShedError) Error() string {
	return fmt.Sprintf("cluster: peer %s shed the forwarded request, retry in %ds", e.Peer, e.RetryAfterSeconds)
}

// IsShed reports whether err (or anything it wraps) is an owner-side shed.
func IsShed(err error) (*ShedError, bool) {
	var se *ShedError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

// ErrUnreachable is the sentinel wrapped by forward failures after the
// breaker and retries gave up.
var ErrUnreachable = errors.New("cluster: peer unreachable")
