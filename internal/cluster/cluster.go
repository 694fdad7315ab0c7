// Package cluster promotes the in-process object partition map to a
// multi-node layer (DESIGN.md §17). Membership is static: every node is
// started with the same -peers list and its own -node-id, and the ownership
// table maps each object to its owning node with the same splitmix64 jump
// hash (internal/shardmap) the sharded router uses for in-process shards —
// stateless, identical on every node, and moving only ~1/(n+1) of the keys
// when the membership grows by one.
//
// Any node accepts any ingest batch or query. Ingest deliveries are
// partitioned by owner and forwarded synchronously (every peer receives its
// sub-batch every second, even when empty, so remote stream clocks advance
// in lockstep); queries run the engine's own pipeline over a router whose
// partitions are the local engine and the peers, the remote stages carried
// over an injectable Transport.
//
// The robustness contract mirrors PR 5/PR 9: a slow, partitioned, or dead
// peer degrades service with typed partial results, never silent loss and
// never a stalled cluster. Forwards retry with bounded exponential backoff
// and deterministic jitter; repeated failures walk a per-peer circuit
// breaker through LIVE → SUSPECT → DEAD; ingest owed to an unreachable peer
// becomes a typed ingest.KindUnreachable drop counted in Stats, while the
// missed seconds are queued and replayed as empty batches on heal so the
// healed peer's clock and LEAVE detection realign with a never-partitioned
// cluster; queries answered without an owner return partial results marked
// with the degraded peer set.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/shardmap"
)

// Transport delivers one request to one peer and returns its response.
// Errors are transport-level failures (unreachable, dropped, timed out);
// application-level refusals (shed, rejected batch) ride inside Response.
// Implementations must be safe for concurrent use.
type Transport interface {
	Send(ctx context.Context, addr string, req *Request) (*Response, error)
}

// Local is the engine a Node wraps: the router *engine.Sharded and the
// one-shard *engine.System both implement it, and both synchronize
// themselves, so the node calls them without a lock of its own. Beside the
// serving surface (whose Coordinator half is the node's: clock, pruner,
// reader health, evaluator), the local engine is one partition of the
// cluster.
type Local interface {
	engine.Serving
	engine.Partition
	FlushIngest()
	NoteTransportDrops(n int)
}

// Config parameterizes a Node.
type Config struct {
	// Self is this node's address exactly as it appears in Peers.
	Self string
	// Peers is the full static membership, including Self. Every node must
	// be started with the same set; the ownership table is the sorted list,
	// so order does not matter but content does.
	Peers []string
	// Transport carries all peer I/O (HTTP in production, netsim under
	// test; both put every request and reply through the wire codec).
	Transport Transport
	// Retry bounds per-forward retransmissions: exponential backoff from
	// BaseDelay to MaxDelay with deterministic per-peer jitter — the same
	// loop shape and zero-value defaults as the durability retry.
	Retry engine.RetryConfig
	// DeadAfter is the circuit-breaker threshold: consecutive failed
	// forwards (each already retried) before the peer is marked DEAD
	// (default 3). The first failure marks it SUSPECT.
	DeadAfter int
	// ProbeBase and ProbeMax pace re-probes of a DEAD peer: the next
	// forward after the probe interval elapses is attempted instead of
	// dropped, with the interval doubling from ProbeBase to ProbeMax while
	// the peer stays dead (defaults 500ms and 15s). Tests set ProbeBase
	// very high and drive probes explicitly via ProbePeers.
	ProbeBase time.Duration
	ProbeMax  time.Duration
	// EvaluateSlots bounds concurrent remote-evaluate RPCs served by this
	// node; excess requests are shed with a Retry-After estimated from
	// recent evaluate latency (0: unbounded, never shed).
	EvaluateSlots int
	// Seed keys the deterministic retry jitter.
	Seed int64
}

// forwardTimeout caps one forward attempt. Query forwards are additionally
// bounded by the client's propagated deadline.
const forwardTimeout = 2 * time.Second

func (c *Config) deadAfter() int {
	if c.DeadAfter <= 0 {
		return 3
	}
	return c.DeadAfter
}

func (c *Config) probeBase() time.Duration {
	if c.ProbeBase <= 0 {
		return 500 * time.Millisecond
	}
	return c.ProbeBase
}

func (c *Config) probeMax() time.Duration {
	if c.ProbeMax <= 0 {
		return 15 * time.Second
	}
	return c.ProbeMax
}

// Node wraps a local engine with cluster membership, forwarding, and the
// distributed query pipeline. It implements the server's Engine interface,
// so the HTTP layer is unchanged whether it fronts one engine or a fleet.
//
// The node defines only what the cluster changes: ingest forwarding
// (Ingest, IngestContext), the cluster query (Query), Localize on the
// owner, the cluster-wide KnownObjects, the snapshot Preprocess, the peer
// gauges in SyncMetrics, and an idempotent Close. Every other method is its
// local engine's, promoted — among them Infos, Dists and OwnDists, which
// answer for the node's own objects only (the cluster as a partition is the
// node's router, never the Node). So Stats counts the readings dropped for
// an unreachable owner (NoteTransportDrops), ReaderHealth observes only the
// node's own partition of the stream (DESIGN.md §17), and Now agrees across
// a healthy cluster because every node ingests every delivered second.
type Node struct {
	// Local is the node's own engine.
	Local
	// QueryMethods are the classic spellings of Query.
	engine.QueryMethods

	cfg     Config
	members []string // sorted; index is the jump-hash bucket
	selfIdx int
	peers   []*peer // remote members in members order (nil at selfIdx)
	// router is the cluster as one partition: the local engine and every
	// peer, in members order, owned by the same jump hash as ingest.
	router engine.Router

	// tracer stitches forwarded traces; set by the server at mount time
	// (SetTracer). Nil disables owner-side spans.
	tracer *trace.Tracer

	// Idempotent forward application: (second, fingerprint) pairs being
	// applied or recently applied, with their ack, so a retransmission
	// re-acks instead of double-counting. idemFIFO orders the applied ones
	// for eviction.
	idemMu   sync.Mutex
	idem     map[idemKey]*idemEntry
	idemFIFO []idemKey

	// mBytes counts peer RPC frame bytes by op and direction (0 sent,
	// 1 received), as caller and as owner alike.
	mBytes [numOps][2]*obs.Counter

	// Owner-side remote-evaluate gate (nil: unbounded).
	gate     chan struct{}
	ewmaMu   sync.Mutex
	evalEWMA float64 // seconds, exponentially smoothed

	closeOnce sync.Once
	closeErr  error
}

type idemKey struct {
	t  model.Time
	fp uint64
}

// maxIdem bounds the idempotency cache (FIFO eviction). A gateway retries
// within seconds; 4096 cached acks cover over an hour of per-second
// deliveries per peer.
const maxIdem = 4096

// New builds a Node over a local engine. The membership must contain
// cfg.Self and at least one other peer, and every node of the cluster must
// be given the same set.
func New(eng Local, cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("cluster: Config.Transport is required")
	}
	seen := make(map[string]bool, len(cfg.Peers))
	members := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		members = append(members, p)
	}
	sort.Strings(members)
	if len(members) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 distinct peers, got %d", len(members))
	}
	selfIdx := -1
	for i, m := range members {
		if m == cfg.Self {
			selfIdx = i
		}
	}
	if selfIdx < 0 {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, members)
	}
	n := &Node{
		Local:   eng,
		cfg:     cfg,
		members: members,
		selfIdx: selfIdx,
		peers:   make([]*peer, len(members)),
		idem:    make(map[idemKey]*idemEntry),
	}
	n.QueryMethods.Of = n
	n.router = engine.Router{Parts: make([]engine.Partition, len(members)), Owner: n.OwnerIdx}
	n.router.Parts[selfIdx] = eng
	if cfg.EvaluateSlots > 0 {
		n.gate = make(chan struct{}, cfg.EvaluateSlots)
	}
	reg := eng.Telemetry().Registry()
	fwd := reg.HistogramVec("repro_peer_forward_seconds",
		"Wall time of one forward attempt to a peer (ingest sub-batch or query RPC).", nil, "peer")
	errs := reg.CounterVec("repro_peer_errors_total",
		"Failed forward attempts per peer (transport errors, before retries give up).", "peer")
	states := reg.GaugeVec("repro_peer_state",
		"Peer circuit-breaker state: 0 live, 1 suspect, 2 dead.", "peer")
	rpcBytes := reg.CounterVec("repro_peer_rpc_bytes_total",
		"Peer RPC frame bytes this node put on or took off the wire, requests and replies, by op.", "op", "dir")
	for op := range n.mBytes {
		n.mBytes[op] = [2]*obs.Counter{rpcBytes.With(opNames[op], "sent"), rpcBytes.With(opNames[op], "received")}
	}
	for i, m := range members {
		if i == selfIdx {
			continue
		}
		n.peers[i] = newPeer(m, cfg, fwd.With(m), errs.With(m), states.With(m))
		n.router.Parts[i] = peerPart{n, n.peers[i]}
	}
	return n, nil
}

// countBytes adds one RPC's frame sizes to the wire-volume counters. Frames
// that never crossed a wire (a test transport calling HandleRPC) count 0.
func (n *Node) countBytes(op Op, sent, received int) {
	if op < numOps {
		n.mBytes[op][0].Add(uint64(sent))
		n.mBytes[op][1].Add(uint64(received))
	}
}

// SetTracer attaches the tracer used to stitch forwarded request traces
// (the server passes its own at mount time, so forwarder and owner halves
// land in the same /debug/traces rings by shared trace ID).
func (n *Node) SetTracer(t *trace.Tracer) { n.tracer = t }

// Members returns the sorted membership (the ownership table: bucket i is
// owned by Members()[i]).
func (n *Node) Members() []string { return append([]string(nil), n.members...) }

// Self returns this node's address.
func (n *Node) Self() string { return n.cfg.Self }

// OwnerIdx returns the membership index owning obj.
func (n *Node) OwnerIdx(obj model.ObjectID) int { return shardmap.Of(obj, len(n.members)) }

// Owner returns the address of the node owning obj.
func (n *Node) Owner(obj model.ObjectID) string { return n.members[n.OwnerIdx(obj)] }

// remotePeers iterates the remote peers in membership order.
func (n *Node) remotePeers() []*peer {
	out := make([]*peer, 0, len(n.peers)-1)
	for _, p := range n.peers {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// SyncMetrics refreshes the local engine's scrape-time mirrors and the
// per-peer state gauges.
func (n *Node) SyncMetrics() {
	n.Local.SyncMetrics()
	for _, p := range n.remotePeers() {
		p.syncGauge()
	}
}

// Close shuts the local engine down.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { n.closeErr = n.Local.Close() })
	return n.closeErr
}
