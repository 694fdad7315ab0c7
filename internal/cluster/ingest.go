package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/shardmap"
)

// Ingest accepts one gateway delivery on any node: the readings are
// partitioned by owner, each remote owner's sub-batch is forwarded (with
// retries, breaker, and idempotent application), and the local partition is
// applied to the local engine. Readings owed to an unreachable owner become
// a typed ingest.KindUnreachable drop counted in Stats; the missed second
// is queued for heal-time catch-up.
func (n *Node) Ingest(t model.Time, raws []model.RawReading) error {
	return n.IngestContext(context.Background(), t, raws)
}

// IngestContext is Ingest with a caller context bounding the forwards. The
// forwards spend their time waiting on the peers, so they run (peer after
// peer, on one goroutine) while this one applies the local partition; the two
// reports are merged once both are in.
func (n *Node) IngestContext(ctx context.Context, t model.Time, raws []model.RawReading) error {
	parts := n.partition(raws)
	fdrops := 0
	forwarded := make(chan struct{})
	go func() {
		defer close(forwarded)
		for i, p := range n.peers {
			if p == nil {
				continue
			}
			if err := n.forwardTo(ctx, p, t, parts[i]); err != nil {
				fdrops += len(parts[i])
			}
		}
	}()
	lerr := n.Local.IngestContext(ctx, t, parts[n.selfIdx])
	<-forwarded
	return n.mergeIngestErr(t, lerr, fdrops)
}

// partition splits a delivery by owning member. Every member gets an entry
// (possibly empty): empty sub-batches still advance the remote stream
// clocks, exactly as the in-process router's partition does for shards.
func (n *Node) partition(raws []model.RawReading) [][]model.RawReading {
	parts := make([][]model.RawReading, len(n.members))
	for _, r := range raws {
		i := shardmap.Of(r.Object, len(n.members))
		parts[i] = append(parts[i], r)
	}
	return parts
}

// forwardTo sends one sub-batch to its owner, preserving per-peer second
// order (fwMu), draining any queued catch-up seconds first. On failure the
// sub-batch's readings are dropped (typed) and its second joins the
// catch-up queue.
func (n *Node) forwardTo(ctx context.Context, p *peer, t model.Time, raws []model.RawReading) error {
	p.fwMu.Lock()
	defer p.fwMu.Unlock()
	if !p.available(time.Now()) {
		n.dropForward(p, t, raws)
		return fmt.Errorf("%w: %s is dead", ErrUnreachable, p.addr)
	}
	if err := n.drainTicks(ctx, p); err != nil {
		n.dropForward(p, t, raws)
		return err
	}
	resp, err := n.send(ctx, p, &Request{
		Op:          OpIngest,
		Time:        t,
		Readings:    raws,
		Fingerprint: ingest.Fingerprint(raws),
	})
	if err != nil {
		p.noteFailure(err)
		n.dropForward(p, t, raws)
		return fmt.Errorf("%w: %s: %v", ErrUnreachable, p.addr, err)
	}
	p.noteSuccess()
	p.mu.Lock()
	p.forwardedBatches++
	p.ackedReadings += int64(resp.Accepted)
	p.remoteDropped += int64(resp.Dropped)
	p.mu.Unlock()
	return nil
}

// drainTicks replays the peer's missed seconds as empty batches, in order,
// before any newer second is forwarded. A healed peer thereby reconstructs
// the exact per-second ingest sequence of a never-partitioned cluster for
// its objects: the readings it missed were dropped (typed) on both sides of
// the comparison, and the bare seconds carry the clock advance and LEAVE
// detection.
func (n *Node) drainTicks(ctx context.Context, p *peer) error {
	for {
		p.mu.Lock()
		if len(p.ticks) == 0 {
			p.mu.Unlock()
			return nil
		}
		tk := p.ticks[0]
		p.mu.Unlock()
		_, err := n.send(ctx, p, &Request{
			Op:          OpIngest,
			Time:        tk,
			Fingerprint: ingest.Fingerprint(nil),
		})
		if err != nil {
			p.noteFailure(err)
			return fmt.Errorf("%w: %s: catch-up t=%d: %v", ErrUnreachable, p.addr, tk, err)
		}
		p.mu.Lock()
		p.ticks = p.ticks[1:]
		p.mu.Unlock()
	}
}

// dropForward accounts one dropped sub-batch: the readings become typed
// unreachable drops in the engine's Stats, and the second joins the
// catch-up queue.
func (n *Node) dropForward(p *peer, t model.Time, raws []model.RawReading) {
	p.recordMissed(t)
	if len(raws) == 0 {
		return
	}
	p.mu.Lock()
	p.droppedReadings += int64(len(raws))
	p.mu.Unlock()
	n.NoteTransportDrops(len(raws))
}

// mergeIngestErr combines the local engine's ingest report with the
// forwarder's unreachable drops into one typed error, keeping the HTTP
// accepted/dropped accounting exact.
func (n *Node) mergeIngestErr(t model.Time, lerr error, fdrops int) error {
	if fdrops == 0 {
		return lerr
	}
	if lerr == nil {
		return &ingest.Error{Kind: ingest.KindUnreachable, Time: t, Dropped: fdrops}
	}
	var ie *ingest.Error
	if errors.As(lerr, &ie) {
		if ie.Rejected {
			// The whole delivery was refused locally (late batch); the
			// owners refused their sub-batches the same way. Rejection
			// dominates the report.
			return lerr
		}
		return &ingest.Error{Kind: ingest.KindUnreachable, Time: t, Dropped: ie.Dropped + fdrops}
	}
	return lerr
}

// ProbePeers synchronously probes every peer that is not LIVE or still owes
// catch-up seconds, ignoring the probe pacing: queued seconds are drained
// and, on success, the peer returns to LIVE. It returns the addresses that
// healed. The harness calls it after clearing faults so the rejoin boundary
// is deterministic; production traffic probes implicitly on the forward
// path.
func (n *Node) ProbePeers(ctx context.Context) []string {
	var healed []string
	for _, p := range n.remotePeers() {
		if p.currentState() == health.Live && p.pendingTicks() == 0 {
			continue
		}
		p.fwMu.Lock()
		err := n.drainTicks(ctx, p)
		if err == nil {
			if _, err = n.send(ctx, p, &Request{Op: OpPing}); err != nil {
				p.noteFailure(err)
			}
		}
		if err == nil {
			p.noteSuccess()
			healed = append(healed, p.addr)
		}
		p.fwMu.Unlock()
	}
	return healed
}

// DegradedPeers returns the remote peers currently not LIVE, in membership
// order (nil when the whole fleet is reachable).
func (n *Node) DegradedPeers() []string {
	var out []string
	for _, p := range n.remotePeers() {
		if p.currentState() != health.Live {
			out = append(out, p.addr)
		}
	}
	return out
}
