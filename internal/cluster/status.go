package cluster

import (
	"repro/internal/model"
)

// Status is the GET /cluster document: membership, ownership, and the
// forwarder's view of every remote peer.
type Status struct {
	Self    string   `json:"self"`
	Members []string `json:"members"`
	// Now is the local stream clock (agrees across a healthy cluster).
	Now model.Time `json:"now"`
	// Degraded reports whether any peer is not LIVE.
	Degraded bool         `json:"degraded"`
	Peers    []PeerStatus `json:"peers"`
}

// PeerStatus is the breaker and ledger view of one remote peer.
type PeerStatus struct {
	Addr  string `json:"addr"`
	State string `json:"state"` // "live" | "suspect" | "dead"
	// LastError is the most recent transport failure ("" when LIVE).
	LastError string `json:"lastError,omitempty"`
	// PendingTicks is the catch-up queue depth: stream seconds this peer
	// missed that will replay as empty batches on heal. LostTicks counts
	// seconds evicted beyond maxMissedSeconds.
	PendingTicks int `json:"pendingTicks"`
	LostTicks    int `json:"lostTicks"`

	ForwardedBatches int64 `json:"forwardedBatches"`
	AckedReadings    int64 `json:"ackedReadings"`
	// DroppedReadings were owed to this peer while unreachable (typed
	// ingest.KindUnreachable drops in Stats); RemoteDropped were refused by
	// the owner's own ingest taxonomy.
	DroppedReadings int64 `json:"droppedReadings"`
	RemoteDropped   int64 `json:"remoteDropped"`
	Retries         int64 `json:"retries"`
	QueryForwards   int64 `json:"queryForwards"`
	QueryFailures   int64 `json:"queryFailures"`
	Sheds           int64 `json:"sheds"`
}

// ClusterStatus snapshots the node for GET /cluster.
func (n *Node) ClusterStatus() Status {
	st := Status{
		Self:    n.cfg.Self,
		Members: n.Members(),
		Now:     n.Now(),
	}
	for _, p := range n.remotePeers() {
		p.mu.Lock()
		ps := PeerStatus{
			Addr:             p.addr,
			State:            p.state.String(),
			LastError:        p.lastErr,
			PendingTicks:     len(p.ticks),
			LostTicks:        p.lostTicks,
			ForwardedBatches: p.forwardedBatches,
			AckedReadings:    p.ackedReadings,
			DroppedReadings:  p.droppedReadings,
			RemoteDropped:    p.remoteDropped,
			Retries:          p.retries,
			QueryForwards:    p.queryForwards,
			QueryFailures:    p.queryFailures,
			Sheds:            p.sheds,
		}
		p.mu.Unlock()
		if ps.State != "live" {
			st.Degraded = true
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}
