package chaos

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/shardmap"
	"repro/internal/sim"
	"repro/internal/sim/netsim"
)

// PeerFault schedules one network fault against a two-node cluster, armed by
// delivery index like ShardFault: active from delivery At until delivery
// Until (exclusive); Until <= At keeps it active until the final heal phase.
type PeerFault struct {
	// Kind is "kill" (node-1's process is gone: every link touching it
	// drops) or "partition" (both nodes run, the link between them drops).
	// For a two-node cluster the two are indistinguishable to the survivor;
	// both are kept so scenarios read as what they model.
	Kind  string
	At    int
	Until int
}

// PeerFaultConfig parameterizes one peer-fault scenario.
type PeerFaultConfig struct {
	// Engine is each node's engine configuration. The harness enforces the
	// cluster determinism preconditions: memory-only (no durability),
	// in-order stream (Ingest.Horizon = 0), and the per-reader health
	// monitor disabled — a per-node monitor sees only its partition of the
	// stream, so its compensation would diverge from the single-process
	// oracle's (DESIGN.md §17).
	Engine  engine.Config
	Trace   sim.TraceConfig
	Seconds int
	Faults  []PeerFault
	Seed    int64
}

// PeerFaultReport summarizes a peer-fault scenario.
type PeerFaultReport struct {
	Seconds int
	// DroppedUnreachable counts readings the forwarder turned into typed
	// drops because their owner was unreachable; the oracle never sees them.
	DroppedUnreachable int
	// DegradedObserved reports that a query answered mid-fault carried the
	// typed partial marker naming the unreachable peer.
	DegradedObserved bool
	Healed           bool
	// Ledger is the conservation accounting, one line per check — written
	// out as a CI artifact when a scenario fails.
	Ledger     []string
	Mismatches []string
}

// RunPeerFaults drives a simulated stream into node-0 of a two-node netsim
// cluster while injecting the scheduled network faults, heals the cluster
// after clearing them, and verifies BOTH nodes against a single-process
// oracle fed the effective stream (the same deliveries minus the readings
// the forwarder reported as unreachable drops). The contract under test:
// every produced reading is acked by its owner exactly once or dropped with
// a typed reason; after heal, cluster answers are bit-for-bit the oracle's.
func RunPeerFaults(plan *floorplan.Plan, dep *rfid.Deployment, cfg PeerFaultConfig) (PeerFaultReport, error) {
	var rep PeerFaultReport
	if cfg.Seconds <= 0 {
		return rep, fmt.Errorf("chaos: Seconds must be positive, got %d", cfg.Seconds)
	}
	rep.Seconds = cfg.Seconds
	for fi, f := range cfg.Faults {
		if f.Kind != "kill" && f.Kind != "partition" {
			return rep, fmt.Errorf("chaos: fault %d: unknown kind %q", fi, f.Kind)
		}
	}
	ecfg := cfg.Engine
	ecfg.Durability = engine.DurabilityConfig{}
	ecfg.Ingest.Horizon = 0
	ecfg.Health = health.Config{}
	ecfg.Shards = 0

	const (
		addr0 = "node-0"
		addr1 = "node-1"
	)
	net := netsim.New(cfg.Seed)
	mkNode := func(self string) (*cluster.Node, *engine.System, error) {
		eng, err := engine.New(plan, dep, ecfg)
		if err != nil {
			return nil, nil, err
		}
		node, err := cluster.New(eng, cluster.Config{
			Self:      self,
			Peers:     []string{addr0, addr1},
			Transport: net.Transport(self),
			// No retransmissions and an effectively infinite probe interval:
			// fault boundaries land exactly on delivery indices, and heals
			// happen only at the harness's explicit ProbePeers calls.
			Retry:     engine.RetryConfig{Max: -1},
			ProbeBase: 24 * time.Hour,
			ProbeMax:  24 * time.Hour,
			Seed:      cfg.Seed,
		})
		return node, eng, err
	}
	node0, eng0, err := mkNode(addr0)
	if err != nil {
		return rep, err
	}
	defer node0.Close()
	node1, eng1, err := mkNode(addr1)
	if err != nil {
		return rep, err
	}
	defer node1.Close()
	net.AddNode(addr0, node0)
	net.AddNode(addr1, node1)

	world, err := sim.New(eng0.Graph(), rfid.NewSensor(dep), cfg.Trace, cfg.Seed)
	if err != nil {
		return rep, err
	}
	deliveries := make([]delivery, cfg.Seconds)
	for i := range deliveries {
		t, raws := world.Step()
		deliveries[i] = delivery{t, raws}
	}

	// clear tears down a fault's rules and probes so node-0's breaker heals
	// and the catch-up seconds drain deterministically at the boundary.
	handles := make(map[int][]*netsim.Handle, len(cfg.Faults))
	clearFault := func(fi int) {
		for _, h := range handles[fi] {
			h.Clear()
		}
		delete(handles, fi)
		node0.ProbePeers(context.Background())
	}

	// effective is the oracle's stream: each second minus the readings the
	// forwarder dropped for the unreachable owner that second.
	effective := make([]delivery, 0, cfg.Seconds)
	droppedByErr := 0
	faultActive := false
	for i, d := range deliveries {
		for fi, f := range cfg.Faults {
			if f.Until > f.At && f.Until == i && handles[fi] != nil {
				clearFault(fi)
			}
			if f.At == i {
				switch f.Kind {
				case "kill":
					handles[fi] = []*netsim.Handle{net.Kill(addr1)}
				case "partition":
					h1, h2 := net.Partition(addr0, addr1)
					handles[fi] = []*netsim.Handle{h1, h2}
				}
			}
		}
		faultActive = len(handles) > 0

		before := node0.Stats().Ingest.UnreachableReadings
		ierr := node0.Ingest(d.t, d.raws)
		if ierr != nil {
			var ie *ingest.Error
			if !errors.As(ierr, &ie) || ie.Kind != ingest.KindUnreachable {
				return rep, fmt.Errorf("chaos: ingest t=%d: %w", d.t, ierr)
			}
			droppedByErr += ie.Dropped
		}
		delta := node0.Stats().Ingest.UnreachableReadings - before
		rep.DroppedUnreachable += delta

		// Reconstruct the delivery the cluster effectively acked. The only
		// readings node-0 can fail to place are node-1's.
		owned1 := 0
		for _, r := range d.raws {
			if shardmap.Of(r.Object, 2) == 1 {
				owned1++
			}
		}
		switch delta {
		case 0:
			effective = append(effective, d)
		case owned1:
			kept := make([]model.RawReading, 0, len(d.raws)-owned1)
			for _, r := range d.raws {
				if shardmap.Of(r.Object, 2) == 0 {
					kept = append(kept, r)
				}
			}
			effective = append(effective, delivery{d.t, kept})
		default:
			return rep, fmt.Errorf("chaos: t=%d: %d unreachable drops but node-1 owns %d readings", d.t, delta, owned1)
		}

		// Mid-fault, a query through the survivor must still answer — marked
		// partial with the unreachable peer named.
		if faultActive && delta > 0 && !rep.DegradedObserved {
			_, qerr := node0.RangeQueryContext(context.Background(), plan.Bounds())
			if de, ok := cluster.IsDegraded(qerr); ok {
				for _, p := range de.Peers {
					if p == addr1 {
						rep.DegradedObserved = true
					}
				}
			}
			if !rep.DegradedObserved {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
					"t=%d: mid-fault query did not report peer %s degraded (err=%v)", d.t, addr1, qerr))
				rep.DegradedObserved = true // report once, not per second
			}
		}
	}

	// Heal phase: clear every remaining rule and probe until the breaker is
	// LIVE and the catch-up queue is drained.
	net.Clear()
	node0.ProbePeers(context.Background())
	node0.FlushIngest()
	node1.FlushIngest()
	st0 := node0.ClusterStatus()
	rep.Healed = !st0.Degraded
	for _, ps := range st0.Peers {
		if ps.PendingTicks != 0 {
			rep.Healed = false
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
				"peer %s still has %d catch-up seconds pending after heal", ps.Addr, ps.PendingTicks))
		}
	}
	if !rep.Healed {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("cluster still degraded after heal: %+v", st0.Peers))
	}

	// Oracle: one single-process engine fed the effective stream.
	oracle, err := engine.New(plan, dep, ecfg)
	if err != nil {
		return rep, err
	}
	defer oracle.Close()
	for _, d := range effective {
		if err := oracle.Ingest(d.t, d.raws); err != nil {
			return rep, fmt.Errorf("chaos: oracle ingest t=%d: %w", d.t, err)
		}
	}
	oracle.FlushIngest()

	rep.Mismatches = append(rep.Mismatches, compareNode("node-0", node0, oracle, plan)...)
	rep.Mismatches = append(rep.Mismatches, compareNode("node-1", node1, oracle, plan)...)

	// Conservation ledger: every produced reading is acked by its owner
	// exactly once (node-0 locally, node-1 via a forward), or dropped with
	// the typed unreachable reason — and all four accountings agree.
	produced := 0
	for _, d := range deliveries {
		produced += len(d.raws)
	}
	fed := 0
	for _, d := range effective {
		fed += len(d.raws)
	}
	var acked, remoteDropped int64
	for _, ps := range st0.Peers {
		acked += ps.AckedReadings
		remoteDropped += ps.RemoteDropped
	}
	ing0 := eng0.Stats().ReadingsIngested
	ing1 := eng1.Stats().ReadingsIngested
	rep.Ledger = append(rep.Ledger,
		fmt.Sprintf("produced=%d", produced),
		fmt.Sprintf("effective=%d", fed),
		fmt.Sprintf("droppedUnreachable(stats)=%d", rep.DroppedUnreachable),
		fmt.Sprintf("droppedUnreachable(ingest errors)=%d", droppedByErr),
		fmt.Sprintf("forwardAcked=%d remoteDropped=%d", acked, remoteDropped),
		fmt.Sprintf("ingested node-0=%d node-1=%d", ing0, ing1),
	)
	if fed+rep.DroppedUnreachable != produced {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"conservation: effective(%d) + unreachable drops(%d) != produced(%d)", fed, rep.DroppedUnreachable, produced))
	}
	if droppedByErr != rep.DroppedUnreachable {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"typed drops disagree: ingest errors reported %d, stats counted %d", droppedByErr, rep.DroppedUnreachable))
	}
	if remoteDropped != 0 {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"owner refused %d forwarded readings (in-order stream should refuse none)", remoteDropped))
	}
	if int(ing0+ing1) != fed {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"acked exactly once violated: node-0 ingested %d + node-1 ingested %d != effective %d", ing0, ing1, fed))
	}
	if int(acked) != int(ing1) {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"forward acks disagree with owner: forwarder acked %d, node-1 ingested %d", acked, ing1))
	}
	return rep, nil
}

// compareNode checks one node's cluster-wide answers against the oracle: the
// clock, and every query kind — snapshot and as of mid-stream, faults
// included — must be bit-for-bit identical no matter which node coordinates.
func compareNode(name string, node *cluster.Node, oracle *engine.System, plan *floorplan.Plan) []string {
	var ms []string
	if got, want := node.Now(), oracle.Now(); got != want {
		ms = append(ms, fmt.Sprintf("%s clock: cluster now=%d oracle now=%d", name, got, want))
	}
	b := plan.Bounds()
	center := geom.Point{X: (b.Min.X + b.Max.X) / 2, Y: (b.Min.Y + b.Max.Y) / 2}
	ctx := context.Background()
	for _, kind := range []engine.Query{engine.RangeQuery(b), engine.KNNQuery(center, 3), engine.OccupancyQuery()} {
		for _, q := range []engine.Query{kind, kind.AsOf(oracle.Now() / 2)} {
			got, err := node.Query(ctx, q)
			want, _ := oracle.Query(ctx, q)
			if err != nil || !reflect.DeepEqual(got, want) {
				ms = append(ms, fmt.Sprintf("%s %v diverged (err=%v): cluster %v oracle %v", name, q, err, got, want))
			}
		}
	}
	return ms
}
