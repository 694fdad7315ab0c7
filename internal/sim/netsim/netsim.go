// Package netsim is a deterministic in-memory cluster.Transport with fault
// injection, the network-layer sibling of the durability layer's errfs:
// production nodes talk HTTP, tests talk netsim, and the cluster code cannot
// tell the difference. Every request and response goes through the real wire
// codec (cluster.Request.Encode / DecodeRequest) even in memory, so the
// simulated network checks the encoding production uses on every test
// delivery, and no node can mutate another's memory through a shared pointer.
//
// Faults are programmed as rules keyed by (from, to) link and armed by a
// deterministic delivery counter — never by wall clock — so a test run
// replays identically: drop the request, drop only the reply (the owner
// applied it, the forwarder times out — the idempotency case), delay,
// duplicate, or fail with a typed error. Partition and Kill are rule bundles
// over whole nodes, and Heal removes them.
package netsim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
)

// Error is the typed transport failure injected by rules (and produced for
// unknown addresses), distinguishable from real encode bugs.
type Error struct {
	From, To string
	Reason   string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("netsim: %s -> %s: %s", e.From, e.To, e.Reason)
}

// Rule matches deliveries on one directed link and injects one fault.
// Zero-valued match fields match everything.
type Rule struct {
	// From and To restrict the rule to one directed link ("" matches any).
	From, To string
	// Node restricts the rule to any link touching the node, in either
	// direction (used by Kill and Partition).
	Node string
	// After arms the rule starting at the Nth matching delivery (0-based
	// among the deliveries this rule matches).
	After int
	// Times bounds how many deliveries the rule fires on once armed
	// (0: unbounded).
	Times int
	// Prob fires the rule on approximately this fraction of armed deliveries
	// (0 or 1: always), decided by the seeded deterministic stream.
	Prob float64

	// Drop discards the request before the handler runs.
	Drop bool
	// DropReply runs the handler but discards the response — the owner
	// applied the batch, the forwarder sees a timeout. This is the fault the
	// idempotent forward path exists for.
	DropReply bool
	// Delay adds synthetic latency before delivery.
	Delay time.Duration
	// Duplicate delivers the request twice (second response discarded),
	// exercising dedup on the owner.
	Duplicate bool
	// Err fails the delivery with this reason (Drop with a distinguishable
	// message).
	Err string
}

func (r *Rule) matches(from, to string) bool {
	if r.Node != "" && from != r.Node && to != r.Node {
		return false
	}
	if r.From != "" && r.From != from {
		return false
	}
	if r.To != "" && r.To != to {
		return false
	}
	return true
}

// Handle names an installed rule so tests can remove it.
type Handle struct {
	net *Network
	id  int
}

// Clear removes the rule.
func (h *Handle) Clear() {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	for i, ir := range h.net.rules {
		if ir.id == h.id {
			h.net.rules = append(h.net.rules[:i], h.net.rules[i+1:]...)
			return
		}
	}
}

type installedRule struct {
	Rule
	id        int
	seen      int // matching deliveries observed (arms After)
	fired     int
	rngCursor uint64
}

// Network connects in-process cluster nodes by address and applies fault
// rules to every delivery. Safe for concurrent use.
type Network struct {
	mu     sync.Mutex
	nodes  map[string]*cluster.Node
	rules  []*installedRule
	nextID int
	seed   uint64
}

// New builds an empty network; seed keys the Prob decision stream.
func New(seed int64) *Network {
	return &Network{nodes: map[string]*cluster.Node{}, seed: uint64(seed)}
}

// AddNode registers a node under its address. Call after cluster.New so the
// address matches the membership entry.
func (n *Network) AddNode(addr string, node *cluster.Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[addr] = node
}

// Install adds a fault rule and returns its handle.
func (n *Network) Install(r Rule) *Handle {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextID++
	ir := &installedRule{Rule: r, id: n.nextID}
	n.rules = append(n.rules, ir)
	return &Handle{net: n, id: n.nextID}
}

// Kill drops every delivery touching addr (both directions) until cleared:
// the process is gone.
func (n *Network) Kill(addr string) *Handle {
	return n.Install(Rule{Node: addr, Drop: true})
}

// Partition drops both directions of the (a, b) link until cleared: both
// processes run, neither can reach the other.
func (n *Network) Partition(a, b string) (*Handle, *Handle) {
	return n.Install(Rule{From: a, To: b, Drop: true}), n.Install(Rule{From: b, To: a, Drop: true})
}

// Clear removes every installed rule (full heal).
func (n *Network) Clear() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules = nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// plan decides, under the lock, what happens to one delivery.
type plan struct {
	drop      bool
	dropReply bool
	delay     time.Duration
	duplicate bool
	errReason string
	target    *cluster.Node
	to        string
}

func (n *Network) planDelivery(from, to string) plan {
	n.mu.Lock()
	defer n.mu.Unlock()
	pl := plan{target: n.nodes[to], to: to}
	for _, ir := range n.rules {
		if !ir.matches(from, to) {
			continue
		}
		ir.seen++
		if ir.seen <= ir.After {
			continue
		}
		if ir.Times > 0 && ir.fired >= ir.Times {
			continue
		}
		if ir.Prob > 0 && ir.Prob < 1 {
			ir.rngCursor++
			x := splitmix64(n.seed ^ uint64(ir.id)<<32 ^ ir.rngCursor)
			if float64(x>>11)/float64(1<<53) >= ir.Prob {
				continue
			}
		}
		ir.fired++
		if ir.Drop {
			pl.drop = true
		}
		if ir.DropReply {
			pl.dropReply = true
		}
		if ir.Delay > pl.delay {
			pl.delay = ir.Delay
		}
		if ir.Duplicate {
			pl.duplicate = true
		}
		if ir.Err != "" {
			pl.errReason = ir.Err
		}
	}
	return pl
}

// Transport returns the cluster.Transport a node at addr should be built
// with: every Send is attributed to addr as the sender.
func (n *Network) Transport(addr string) cluster.Transport {
	return &transport{net: n, from: addr}
}

type transport struct {
	net  *Network
	from string
}

// Send implements cluster.Transport: apply the link's fault plan, put the
// request through the wire codec, dispatch to the target node's HandleRPC,
// put the response through the wire codec.
func (t *transport) Send(ctx context.Context, addr string, req *cluster.Request) (*cluster.Response, error) {
	pl := t.net.planDelivery(t.from, addr)
	if pl.delay > 0 {
		select {
		case <-time.After(pl.delay):
		case <-ctx.Done():
			return nil, &Error{From: t.from, To: addr, Reason: "delayed past deadline: " + ctx.Err().Error()}
		}
	}
	if pl.errReason != "" {
		return nil, &Error{From: t.from, To: addr, Reason: pl.errReason}
	}
	if pl.drop {
		return nil, &Error{From: t.from, To: addr, Reason: "dropped"}
	}
	if pl.target == nil {
		return nil, &Error{From: t.from, To: addr, Reason: "unknown address"}
	}
	wireReq, err := cluster.DecodeRequest(req.Encode(nil))
	if err != nil {
		return nil, fmt.Errorf("netsim: request not wire-encodable: %w", err)
	}
	resp, err := pl.target.HandleRPC(ctx, wireReq)
	if pl.duplicate && err == nil {
		dup, derr := cluster.DecodeRequest(req.Encode(nil))
		if derr == nil {
			_, _ = pl.target.HandleRPC(ctx, dup)
		}
	}
	if err != nil {
		return nil, err
	}
	if pl.dropReply {
		return nil, &Error{From: t.from, To: addr, Reason: "reply dropped"}
	}
	wireResp, err := cluster.DecodeResponse(resp.Encode(nil))
	if err != nil {
		return nil, fmt.Errorf("netsim: response not wire-encodable: %w", err)
	}
	return wireResp, nil
}
