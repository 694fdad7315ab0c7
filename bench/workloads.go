package main

import "fmt"

// workload is one traffic mix against one server shape. Sizes were taken
// from a scratch probe on the 2-core sandbox and are frozen here: changing
// any of them changes what every recorded number means.
type workload struct {
	name string
	why  string

	// Server shape.
	nodes   int  // processes; >1 runs a static cluster, traffic goes to node 0
	shards  int  // -shards per process
	durable bool // -data-dir <tmp> -fsync always -snapshot-every 60

	objects int

	// Open loop: ingest is paced at streamRate stream-seconds per wall
	// second on one connection, qps queries per wall second (alternating
	// /range and /knn) on a second one, each timed from its due time.
	open       bool
	streamRate int
	qps        int

	// Closed loop, one connection: cycles of ingestPerCycle stream-seconds
	// back-to-back, then queriesPerCycle times /range and /knn, then
	// (occupancy) /occupancy.
	ingestPerCycle  int
	queriesPerCycle int
	occupancy       bool

	rangeW, rangeH float64
	k              int

	// accCycles fixes the prefix of closed-loop cycles the accuracy metrics
	// are computed over, so they repeat bit for bit at one seed however many
	// cycles the machine completes in the measured time. The measured section
	// runs at least this many cycles.
	accCycles int

	// Accuracy floors from this benchmark's baseline: the worst value seen
	// over twenty seeds, less a fifth for the hit rate and plus a quarter for
	// the divergence. A run below hitFloor or above klCeil fails the
	// correctness gate rather than reporting a speed-up bought with inference
	// quality.
	hitFloor float64
	klCeil   float64
}

const (
	// warmupSeconds of stream are ingested during set-up, before anything is
	// timed: the cache lifetime (60 s) of history, so the first measured
	// query sees the steady-state candidate mix.
	warmupSeconds = 60
	// snapshotEvery is the durable shape's -snapshot-every, in acked stream
	// seconds.
	snapshotEvery = 60
	// lookahead is how many units (closed-loop cycles or open-loop stream
	// seconds) the generator may run ahead of the send loop. A fully
	// pre-encoded trace would be hundreds of MB; this bounds it to a few.
	lookahead = 32
)

var workloads = []workload{
	{
		name:  "ingest_durable",
		why:   "write path: JSON decode, reorder, 4-shard WAL append+fsync, collector, snapshots; the filter does little, so a kernel gain must show ~0 on ingest_*",
		nodes: 1, shards: 4, durable: true,
		objects:        2000,
		ingestPerCycle: 10, queriesPerCycle: 2,
		rangeW: 3, rangeH: 3,
		k:         5,
		accCycles: 100,
		hitFloor:  0.25, klCeil: 3.5,
	},
	{
		name:  "query_hot",
		why:   "read path, warm cache: six queries a stream second, so candidates advance a step or a few and prune, cache clone, snap, evaluate, encode and the HTTP floor dominate; the WAL does nothing",
		nodes: 1, shards: 1,
		objects:        1000,
		ingestPerCycle: 1, queriesPerCycle: 3,
		rangeW: 6, rangeH: 4,
		k:         3,
		accCycles: 300,
		hitFloor:  0.28, klCeil: 2.35,
	},
	{
		name:  "query_cold",
		why:   "same layers as query_hot used differently: every query pays ~20 filter steps per candidate or a full run, and /occupancy sweeps all objects, so the particle kernel dominates and the cache helps little",
		nodes: 1, shards: 1,
		objects:        1000,
		ingestPerCycle: 20, queriesPerCycle: 1,
		occupancy: true,
		rangeW:    30, rangeH: 16,
		k:         10,
		accCycles: 100,
		hitFloor:  0.50, klCeil: 0.45,
	},
	{
		name:  "cluster_mixed",
		why:   "two nodes, all traffic to node 0, open loop: half of every batch and half of every evaluate crosses the gob RPC hop, and paced writes run beside the reads, so a stall shows in every request it delays",
		nodes: 2, shards: 2,
		objects: 1000,
		open:    true, streamRate: 10, qps: 40,
		rangeW: 6, rangeH: 4,
		k:        3,
		hitFloor: 0.28, klCeil: 2.4,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// toy shrinks a workload to smoke-test size: same shape and op mix, few
// objects, and a short accuracy prefix.
func (w workload) toy() workload {
	w.objects = 50
	if w.accCycles > 0 {
		w.accCycles = 3
	}
	w.hitFloor, w.klCeil = 0, 1e9
	return w
}
